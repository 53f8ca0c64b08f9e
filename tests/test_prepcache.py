"""Content-addressed prepare cache: keys, hits, robustness, CLI.

The contract under test (docs/performance.md): a cache hit replays the
traces and functional memory image bit-identically and rebuilds the DDG
from the live compiled function — same cycle counts as a cold prepare
on all Parboil kernels, and the same as a fresh prepare under whatever
code runs now — and every cache failure mode (corrupt entry, entry from
other code, racing writers, full disk) degrades to a fresh compile,
never into a wrong or crashed run.
"""

import json
import pickle
import threading
from pathlib import Path

import pytest

from repro import ioutil
from repro.harness import (
    PrepareCache, dae_hierarchy, ooo_core, prepare, prepare_key, simulate,
)
from repro.harness import runner
from repro.frontend import compile_kernel
from repro.resilience import FaultInjector, FaultPlan
from repro.workloads import build_parboil

from . import kernels

BASELINE_PATH = (Path(__file__).parent.parent
                 / "benchmarks" / "results" / "BENCH_cycle_identity.json")
BASELINE = json.loads(BASELINE_PATH.read_text())


def _cache(tmp_path, **kwargs):
    return PrepareCache(str(tmp_path / "prepcache"), **kwargs)


def _cold_prepare(cache, name="histo"):
    """One stored entry from a cold prepare; returns (workload, prepared)."""
    w = build_parboil(name)
    prepared = prepare(w.kernel, w.args, memory=w.memory, cache=cache)
    return w, prepared


# -- key derivation ----------------------------------------------------------

class TestPrepareKey:
    def test_same_workload_same_key(self):
        w1, w2 = build_parboil("histo"), build_parboil("histo")
        f1, f2 = compile_kernel(w1.kernel), compile_kernel(w2.kernel)
        assert prepare_key(f1, w1.args, 1, w1.memory) \
            == prepare_key(f2, w2.args, 1, w2.memory)

    def test_num_tiles_changes_key(self):
        w = build_parboil("histo")
        func = compile_kernel(w.kernel)
        assert prepare_key(func, w.args, 1, w.memory) \
            != prepare_key(func, w.args, 2, w.memory)

    def test_memory_content_changes_key(self):
        w = build_parboil("histo")
        func = compile_kernel(w.kernel)
        before = prepare_key(func, w.args, 1, w.memory)
        segment = w.memory.segments[0]
        segment.data[0] += 1
        assert prepare_key(func, w.args, 1, w.memory) != before

    def test_foreign_memory_defeats_content_addressing(self):
        w1, w2 = build_parboil("histo"), build_parboil("histo")
        func = compile_kernel(w1.kernel)
        # args reference w1's memory; keying against w2's cannot cover
        # the bytes interpretation will actually read
        assert prepare_key(func, w1.args, 1, w2.memory) is None

    def test_code_fingerprint_changes_key(self, monkeypatch):
        w = build_parboil("histo")
        func = compile_kernel(w.kernel)
        before = prepare_key(func, w.args, 1, w.memory)
        monkeypatch.setattr(ioutil, "_FINGERPRINT", b"\x00" * 32)
        assert prepare_key(func, w.args, 1, w.memory) != before


# -- hit semantics -----------------------------------------------------------

class TestCacheHit:
    def test_hit_replays_and_overlays_memory(self, tmp_path):
        cache = _cache(tmp_path)
        _, cold = _cold_prepare(cache)
        assert cold.cache_key and not cold.cache_hit
        assert cold.artifact_digest

        w = build_parboil("histo")
        hit = prepare(w.kernel, w.args, memory=w.memory, cache=cache)
        assert hit.cache_hit
        assert hit.cache_key == cold.cache_key
        assert hit.artifact_digest == cold.artifact_digest
        # the hit is bound to the LIVE memory, overlaid with the cached
        # post-interpretation image — the workload's functional check
        # must pass without re-running the interpreter
        assert hit.memory is w.memory
        w.verify()
        assert cache.stats()["session"] == {
            "hits": 1, "misses": 1, "stores": 1, "bypasses": 0}

    def test_injector_bypasses_cache(self, tmp_path):
        cache = _cache(tmp_path)
        injector = FaultInjector(FaultPlan(bitflip_load_rate=0.0))
        w = build_parboil("histo")
        prepared = prepare(w.kernel, w.args, memory=w.memory,
                           cache=cache, injector=injector)
        assert prepared.cache_key is None and not prepared.cache_hit
        assert cache.bypasses == 1
        assert cache.stats()["entries"] == 0

    def test_hit_rebuilds_ddg_with_live_code(self, tmp_path, monkeypatch):
        """An entry stores data, not code: after the DDG builder changes,
        a hit must simulate like a fresh prepare under the new builder,
        not replay the DDG the entry was filled with."""
        cache = _cache(tmp_path)
        _cold_prepare(cache, "sgemm")
        real = runner.build_ddg

        def without_operand_edges(func):
            ddg = real(func)
            for node in ddg.nodes:
                node.operand_iids = ()
            return ddg

        monkeypatch.setattr(runner, "build_ddg", without_operand_edges)
        fresh_w = build_parboil("sgemm")
        fresh = prepare(fresh_w.kernel, fresh_w.args, memory=fresh_w.memory)
        w = build_parboil("sgemm")
        hit = prepare(w.kernel, w.args, memory=w.memory, cache=cache)
        assert hit.cache_hit
        cycles = [simulate(p.function, [], prepared=p, core=ooo_core(),
                           hierarchy=dae_hierarchy()).cycles
                  for p in (fresh, hit)]
        assert cycles[0] == cycles[1]
        assert cycles[0] != BASELINE["kernels"]["sgemm"]["cycles"]

    def test_entry_holds_data_not_code(self, tmp_path):
        cache = _cache(tmp_path)
        _, cold = _cold_prepare(cache)
        (traces, segments), digest = cache.load(cold.cache_key)
        assert digest == cold.artifact_digest
        assert [t.block_trace for t in traces] \
            == [t.block_trace for t in cold.traces]
        assert [identity[0] for identity, _ in segments] \
            == [segment.name for segment in cold.memory.segments]


# -- bit-identity (the acceptance contract) ----------------------------------

@pytest.mark.parametrize("kernel", sorted(BASELINE["kernels"]))
def test_cache_hit_cycle_identity(kernel, tmp_path):
    """A cache-hit run must be bit-identical in cycle and instruction
    counts to the committed cold-run baseline (the same numbers
    test_hotpath_identity pins for uncached prepares)."""
    cache = _cache(tmp_path)
    cold_w = build_parboil(kernel)
    prepare(cold_w.kernel, cold_w.args, memory=cold_w.memory, cache=cache)

    w = build_parboil(kernel)
    prepared = prepare(w.kernel, w.args, memory=w.memory, cache=cache)
    assert prepared.cache_hit, f"{kernel}: expected a cache hit"
    stats = simulate(w.kernel, w.args, prepared=prepared, core=ooo_core(),
                     hierarchy=dae_hierarchy())
    w.verify()
    expected = BASELINE["kernels"][kernel]
    assert (stats.cycles, stats.instructions) \
        == (expected["cycles"], expected["instructions"]), (
        f"{kernel}: cache-hit run diverged from the cold baseline")


# -- robustness --------------------------------------------------------------

class TestRobustness:
    def test_corrupt_entry_falls_back_to_fresh_compile(self, tmp_path,
                                                       capsys):
        cache = _cache(tmp_path)
        _, cold = _cold_prepare(cache)
        entry_path = Path(cache._entry_path(cold.cache_key))
        entry_path.write_bytes(b"garbage" + entry_path.read_bytes()[7:])

        w = build_parboil("histo")
        prepared = prepare(w.kernel, w.args, memory=w.memory, cache=cache)
        assert not prepared.cache_hit
        assert "falling back to a fresh compile" in capsys.readouterr().err
        w.verify()
        # the fresh compile re-stored a sound entry under the same key
        assert prepared.cache_key == cold.cache_key
        assert all(r["ok"] for r in cache.verify())

    def test_payload_digest_mismatch_discards(self, tmp_path, capsys):
        cache = _cache(tmp_path)
        _, cold = _cold_prepare(cache)
        path = Path(cache._entry_path(cold.cache_key))
        blob = path.read_bytes()
        path.write_bytes(blob[:-4] + b"\x00\x00\x00\x00")
        assert cache.load(cold.cache_key) is None
        assert "digest mismatch" in capsys.readouterr().err
        assert not path.exists()

    def test_stale_schema_version_invalidates(self, tmp_path, capsys):
        """An entry whose envelope format or code fingerprint differs
        from this build is discarded, never replayed."""
        cache = _cache(tmp_path)
        for field, value, problem in (
                (1, ioutil.ARTIFACT_FORMAT + 1, "format"),
                (2, b"\x00" * 32, "different simulator code")):
            _, cold = _cold_prepare(cache)
            path = Path(cache._entry_path(cold.cache_key))
            blob = path.read_bytes()
            header = list(ioutil._HEADER.unpack_from(blob))
            header[field] = value
            path.write_bytes(ioutil._HEADER.pack(*header)
                             + blob[ioutil._HEADER.size:])
            assert cache.load(cold.cache_key) is None
            assert problem in capsys.readouterr().err
            assert not path.exists()

    def test_entry_under_wrong_key_discards(self, tmp_path, capsys):
        cache = _cache(tmp_path)
        _, cold = _cold_prepare(cache)
        other = "f" * 64
        Path(cache._entry_path(other)).write_bytes(
            Path(cache._entry_path(cold.cache_key)).read_bytes())
        assert cache.load(other) is None
        assert "does not match its file name" in capsys.readouterr().err

    def test_concurrent_writers_last_wins(self, tmp_path):
        cache = _cache(tmp_path)
        _, cold = _cold_prepare(cache)
        key = cold.cache_key
        # independent copies of one artifact: every writer stores the
        # same content from its own objects
        payloads = [pickle.loads(pickle.dumps(cold)) for _ in range(8)]
        threads = [threading.Thread(target=cache.store, args=(key, p))
                   for p in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # atomic rename: whichever store landed last, the entry decodes
        # and its digest matches — no torn interleaving is observable
        assert all(r["ok"] for r in cache.verify())
        (traces, _), _ = cache.load(key)
        assert len(traces) == len(cold.traces)

    def test_unpicklable_artifact_degrades_to_uncached(self, tmp_path,
                                                       capsys):
        cache = _cache(tmp_path)
        assert cache.store("0" * 64, lambda: None) is None
        assert "not cached" in capsys.readouterr().err
        assert cache.stats()["entries"] == 0

    def test_gc_evicts_lru_down_to_cap(self, tmp_path):
        cache = _cache(tmp_path)
        _cold_prepare(cache)
        assert cache.stats()["entries"] == 1
        assert cache.gc(max_bytes=0) == 1
        assert cache.stats()["entries"] == 0


# -- trace-count validation (symmetric now) ----------------------------------

class TestTraceCountValidation:
    def test_too_few_traces_still_raises(self):
        prepared = prepare(kernels.collatz_steps, [27], num_tiles=2)
        with pytest.raises(ValueError, match="cover 2 tile"):
            simulate(prepared.function, [], prepared=prepared,
                     num_tiles=4, core=ooo_core())

    def test_extra_traces_warn_by_default(self, capsys):
        prepared = prepare(kernels.collatz_steps, [27], num_tiles=2)
        stats = simulate(prepared.function, [], prepared=prepared,
                         num_tiles=1, core=ooo_core())
        assert stats.cycles > 0
        err = capsys.readouterr().err
        assert "extra 1 trace(s) are ignored" in err

    def test_extra_traces_raise_under_strict(self):
        prepared = prepare(kernels.collatz_steps, [27], num_tiles=2)
        with pytest.raises(ValueError, match="extra 1 trace"):
            simulate(prepared.function, [], prepared=prepared,
                     num_tiles=1, core=ooo_core(), strict_traces=True)


# -- CLI ---------------------------------------------------------------------

class TestCacheCli:
    def _seed_entry(self, tmp_path):
        cache = _cache(tmp_path)
        _, cold = _cold_prepare(cache)
        return cache, cold

    def test_ls_stats_gc_clear_exit_zero(self, tmp_path, capsys):
        from repro.cli import main
        cache, _ = self._seed_entry(tmp_path)
        root = cache.root
        assert main(["cache", "ls", "--dir", root]) == 0
        assert "histo_kernel" in capsys.readouterr().out
        stats_json = str(tmp_path / "stats.json")
        assert main(["cache", "stats", "--dir", root,
                     "--json", stats_json]) == 0
        document = json.loads(Path(stats_json).read_text())
        assert document["entries"] == 1
        assert main(["cache", "gc", "--dir", root]) == 0
        assert main(["cache", "clear", "--dir", root]) == 0
        assert cache.stats()["entries"] == 0

    def test_verify_exit_codes(self, tmp_path, capsys):
        from repro.cli import main
        cache, cold = self._seed_entry(tmp_path)
        assert main(["cache", "verify", "--dir", cache.root]) == 0
        path = Path(cache._entry_path(cold.cache_key))
        path.write_bytes(b"garbage")
        assert main(["cache", "verify", "--dir", cache.root]) == 2
        assert "unreadable" in capsys.readouterr().out

    def test_simulate_prep_cache_flag_end_to_end(self, tmp_path, capsys):
        from repro.cli import main
        root = str(tmp_path / "clicache")
        for _ in range(2):
            assert main(["simulate", "histo",
                         "--prep-cache", root]) == 0
        err = capsys.readouterr().err
        assert "prepare cache: store" in err
        assert "prepare cache: hit" in err

    def test_no_prep_cache_wins_over_env(self, tmp_path, monkeypatch,
                                         capsys):
        from repro.cli import main
        monkeypatch.setenv("REPRO_PREP_CACHE_DIR",
                           str(tmp_path / "envcache"))
        assert main(["simulate", "histo", "--no-prep-cache"]) == 0
        assert "prepare cache" not in capsys.readouterr().err
        assert not (tmp_path / "envcache").exists()
