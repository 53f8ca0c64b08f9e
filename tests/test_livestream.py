"""Live telemetry: heartbeat streaming, sweep watch, run registry.

Covers the PR-7 observability layer end to end:

* heartbeat determinism — cycle-stamped fields are bit-identical
  across reruns (wall-clock lives under one strippable key);
* the emitter is non-blocking and zero-cost when absent;
* sweep live-status fan-in (serial and parallel) and the watch
  dashboard's ETA/straggler math;
* run-registry manifest round-trips and the cross-run history
  regression gate;
* run_id provenance stamping, including acceptance of pre-registry
  artifacts that lack it.
"""

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.harness import (
    NORMAL, QUIET, STATUS, VERBOSE, dae_hierarchy, inorder_core,
    ooo_core, prepare, render_watch, set_status_level, simulate,
    sweep_core, watch_loop,
)
from repro.harness.watch import (
    SweepLiveStatus, estimate_total_cycles, eta_seconds, live_path_for,
    load_live,
)
from repro.ir import F64
from repro.ioutil import ARTIFACT_FORMAT, code_fingerprint
from repro.registry import (
    HISTORY_SCHEMA_VERSION, RunManifest, RunRegistry, append_history,
    config_digest, find_baseline, history_check, history_entry,
    load_history, new_run_id, render_history_diff,
    seed_history_from_bench, validate_manifest,
)
from repro.telemetry import (
    HeartbeatEmitter, heartbeat_digest, heartbeat_key, read_heartbeats,
    stats_to_dict, validate_chrome_trace, validate_heartbeat,
)
from repro.telemetry.livestream import HEARTBEAT_SCHEMA_VERSION
from repro.trace import SimMemory

from . import kernels


def _saxpy_run(emitter=None, n=256):
    generator = np.random.default_rng(11)
    mem = SimMemory()
    A = mem.alloc(n, F64, "A", init=generator.uniform(-1, 1, n))
    B = mem.alloc(n, F64, "B", init=generator.uniform(-1, 1, n))
    return simulate(kernels.saxpy, [A, B, n, 2.0], core=ooo_core(),
                    num_tiles=2, hierarchy=dae_hierarchy(), memory=mem,
                    emitter=emitter)


# -- heartbeat emitter -------------------------------------------------------

class TestHeartbeatEmitter:
    def test_streams_periodic_snapshots(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        emitter = HeartbeatEmitter(str(path), every_cycles=200)
        stats = _saxpy_run(emitter)
        beats = read_heartbeats(str(path))
        assert len(beats) >= 3
        for beat in beats:
            assert validate_heartbeat(beat) == beat["seq"]
        # monotone cycle stamps, final beat at the run's last cycle
        cycles = [b["cycle"] for b in beats]
        assert cycles == sorted(cycles)
        assert beats[-1]["final"] is True
        assert beats[-1]["cycle"] == stats.cycles
        assert beats[-1]["instructions"] == stats.instructions
        assert emitter.errors == 0

    def test_cycle_stamped_content_deterministic(self, tmp_path):
        digests = []
        for attempt in ("one", "two"):
            path = tmp_path / f"hb-{attempt}.jsonl"
            _saxpy_run(HeartbeatEmitter(str(path), every_cycles=200))
            beats = read_heartbeats(str(path))
            # wall-clock is confined to the one strippable key
            assert all("wall" in b for b in beats)
            digests.append(heartbeat_digest(beats))
        assert digests[0] == digests[1]

    def test_heartbeat_key_strips_only_wall(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        _saxpy_run(HeartbeatEmitter(str(path), every_cycles=500))
        beat = read_heartbeats(str(path))[0]
        key = heartbeat_key(beat)
        assert "wall" not in key
        assert set(beat) - set(key) == {"wall"}

    def test_streaming_does_not_change_results(self, tmp_path):
        bare = _saxpy_run()
        streamed = _saxpy_run(HeartbeatEmitter(
            str(tmp_path / "hb.jsonl"), every_cycles=100))
        assert streamed.cycles == bare.cycles
        assert stats_to_dict(streamed) == stats_to_dict(bare)

    def test_emitter_requires_exactly_one_sink(self, tmp_path):
        with pytest.raises(ValueError):
            HeartbeatEmitter()
        with pytest.raises(ValueError):
            HeartbeatEmitter(str(tmp_path / "hb.jsonl"),
                             send=lambda beat: None)
        with pytest.raises(ValueError):
            HeartbeatEmitter(str(tmp_path / "hb.jsonl"), every_cycles=0)

    def test_write_failures_counted_never_raised(self, tmp_path):
        # a directory is unopenable for append: every emit must fail
        # quietly and the run itself must stay healthy
        emitter = HeartbeatEmitter(str(tmp_path), every_cycles=200)
        stats = _saxpy_run(emitter)
        assert stats.cycles > 0
        assert emitter.errors > 0

    def test_torn_tail_line_tolerated(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        _saxpy_run(HeartbeatEmitter(str(path), every_cycles=200))
        whole = read_heartbeats(str(path))
        with open(path, "a") as handle:
            handle.write('{"v": 1, "seq": 99, "cyc')  # crash mid-append
        assert read_heartbeats(str(path)) == whole

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_heartbeat({"v": HEARTBEAT_SCHEMA_VERSION + 1})
        with pytest.raises(ValueError):
            validate_heartbeat({"v": HEARTBEAT_SCHEMA_VERSION,
                                "seq": -1})


# -- sweep live status + watch dashboard -------------------------------------

GRID = {"rob_size": [16, 32, 64]}


@pytest.fixture(scope="module")
def prepared():
    generator = np.random.default_rng(5)
    mem = SimMemory()
    n = 192
    A = mem.alloc(n, F64, "A", init=generator.uniform(-1, 1, n))
    B = mem.alloc(n, F64, "B", init=generator.uniform(-1, 1, n))
    return prepare(kernels.saxpy, [A, B, n, 2.0], memory=mem)


class TestSweepLiveStatus:
    def _run(self, prepared, tmp_path, jobs):
        tmp_path.mkdir(parents=True, exist_ok=True)
        journal = tmp_path / "sweep.jsonl"
        result = sweep_core(prepared, inorder_core(), GRID,
                            hierarchy_factory=dae_hierarchy, jobs=jobs,
                            journal_path=str(journal),
                            heartbeat_every=200)
        return result, journal

    def test_serial_sweep_streams_live_status(self, prepared, tmp_path):
        result, journal = self._run(prepared, tmp_path, jobs=1)
        live = load_live(live_path_for(str(journal)))
        assert live is not None and live["total"] == 3
        for index, point in enumerate(result.points):
            entry = live["points"][str(index)]
            assert entry["state"] == "done"
            assert entry["cycles"] == point.cycles
            # workers streamed at least one mid-run heartbeat
            assert entry["last"]["source"] == {"point": index}

    def test_parallel_fan_in_matches_serial(self, prepared, tmp_path):
        serial, _ = self._run(prepared, tmp_path / "s", jobs=1)
        parallel, journal = self._run(prepared, tmp_path / "p", jobs=2)
        assert [p.cycles for p in parallel.points] == \
            [p.cycles for p in serial.points]
        live = load_live(live_path_for(str(journal)))
        assert [live["points"][str(i)]["state"] for i in range(3)] == \
            ["done"] * 3

    def test_done_is_terminal_for_late_heartbeats(self, tmp_path):
        live = SweepLiveStatus(str(tmp_path / "live.json"), total=1)

        class Point:
            outcome, error, cycles = "ok", "", 777

        live.point_started(0)
        live.point_done(0, Point())
        # the drain thread may deliver queued messages after the main
        # thread recorded completion — they must not revive the point
        live.heartbeat(0, {"cycle": 5})
        live.point_started(0)
        entry = live.as_dict()["points"]["0"]
        assert entry["state"] == "done" and entry["cycles"] == 777

    def test_load_live_rejects_other_versions(self, tmp_path):
        path = tmp_path / "live.json"
        path.write_text(json.dumps({"version": 999, "points": {}}))
        assert load_live(str(path)) is None
        assert load_live(str(tmp_path / "absent.json")) is None


class TestWatchMath:
    def test_estimate_total_cycles(self):
        assert estimate_total_cycles([]) is None
        assert estimate_total_cycles([100, 300]) == 200.0

    def test_eta_seconds(self):
        assert eta_seconds(500, 100.0, 1500.0) == 10.0
        # past the estimate: no prediction, not a negative one
        assert eta_seconds(1500, 100.0, 1500.0) is None
        assert eta_seconds(500, 0.0, 1500.0) is None
        assert eta_seconds(500, 100.0, None) is None

    def _live(self, now, points):
        return {"version": 1, "total": len(points), "started_unix": now,
                "updated_unix": now,
                "points": {str(i): p for i, p in enumerate(points)}}

    def test_render_counts_and_eta(self):
        now = 1000.0
        live = self._live(now, [
            {"state": "done", "outcome": "ok", "cycles": 1000,
             "wall_seconds": 4.0},
            {"state": "running", "last_unix": now - 1.0,
             "last": {"cycle": 500, "ipc": 0.5,
                      "wall": {"cycles_per_second": 100.0}}},
            {"state": "running"},
        ])
        frame = render_watch({}, live, now=now)
        assert "1/3 done, 2 running, 0 stalled" in frame
        # 500 of ~1000 cycles left at 100 cyc/s -> 5s ETA
        assert "eta 5s" in frame
        assert "starting..." in frame

    def test_stale_heartbeat_renders_straggler_diagnosis(self):
        now = 1000.0
        live = self._live(now, [
            {"state": "running", "last_unix": now - 60.0,
             "last": {"cycle": 123, "ipc": 0.0, "mem_inflight": 2,
                      "events_pending": 0,
                      "wall": {"cycles_per_second": 0.0},
                      "tiles": [{"name": "InO0", "done": False,
                                 "next_attention": None,
                                 "in_flight": 1,
                                 "outstanding_memory_ops": 2,
                                 "ready": 0, "accel_inflight": 0}]}},
        ])
        frame = render_watch({}, live, now=now, stall_after=10.0)
        assert "STALLED" in frame and "stuck at cycle 123" in frame
        assert "InO0" in frame and "outstanding_memory_ops=2" in frame

    def test_journal_only_progress_still_renders(self):
        frame = render_watch({0: {"outcome": "ok"}}, None, now=0.0)
        assert "1/1 done" in frame

    def test_watch_loop_once_exits_zero(self, prepared, tmp_path,
                                        capsys):
        journal = tmp_path / "sweep.jsonl"
        sweep_core(prepared, inorder_core(), {"rob_size": [16]},
                   hierarchy_factory=dae_hierarchy,
                   journal_path=str(journal), heartbeat_every=200)
        assert watch_loop(str(journal), once=True) == 0
        assert "1/1 done" in capsys.readouterr().out


# -- run registry + history gate ---------------------------------------------

class TestRunRegistry:
    def test_manifest_round_trip(self, tmp_path):
        stats = _saxpy_run()
        manifest = RunManifest.capture(
            new_run_id(), workload="saxpy", stats=stats, seed=3,
            config={"core": "ooo", "tiles": 2},
            wall_seconds=1.5, mips=2.0,
            schema_versions={"metrics": 2},
            artifacts={"stats": "stats.json"})
        document = manifest.as_dict()
        assert validate_manifest(document) == manifest.run_id
        assert RunManifest.from_dict(document) == manifest
        assert document["cycles"] == stats.cycles

    def test_registry_record_load_latest(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "runs"))
        for index in range(2):
            manifest = RunManifest.capture(
                f"r20260101-00000{index}-abcdef", workload="saxpy",
                status="ok")
            registry.record(manifest)
        assert len(registry.run_ids()) == 2
        assert registry.latest().run_id == "r20260101-000001-abcdef"
        # history feed grew one line per recorded run
        assert len(load_history(registry.history_path)) == 2

    def test_validate_manifest_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_manifest({"schema_version": 999})
        with pytest.raises(ValueError):
            validate_manifest({"schema_version": 1, "run_id": ""})

    def test_config_digest_stable_and_order_insensitive(self):
        first = config_digest({"a": 1, "b": [2, 3]})
        second = config_digest({"b": [2, 3], "a": 1})
        assert first == second and len(first) == 16
        assert first != config_digest({"a": 2, "b": [2, 3]})


def _entry(run_id, workload, cycles, label="", status="ok", mips=None):
    return {"v": HISTORY_SCHEMA_VERSION, "run_id": run_id,
            "label": label, "workload": workload, "status": status,
            "config_digest": "", "created_unix": 0.0, "cycles": cycles,
            "instructions": 100, "ipc": None, "mips": mips,
            "wall_seconds": 0.0}


class TestHistoryGate:
    def test_regression_beyond_threshold_detected(self):
        entries = [_entry("r0", "saxpy", 1000, label="baseline"),
                   _entry("r1", "saxpy", 1100)]
        found = history_check(entries, "baseline", threshold=0.05)
        assert [(r["workload"], r["metric"]) for r in found] == \
            [("saxpy", "cycles")]
        assert found[0]["ratio"] == pytest.approx(1.1)
        assert history_check(entries, "baseline", threshold=0.15) == []

    def test_status_regression_detected(self):
        entries = [_entry("r0", "saxpy", 1000, label="baseline"),
                   _entry("r1", "saxpy", None, status="deadlock")]
        found = history_check(entries, "baseline")
        assert found[0]["metric"] == "status"

    def test_mips_only_gated_behind_flag(self):
        entries = [_entry("r0", "saxpy", 1000, label="baseline", mips=10.0),
                   _entry("r1", "saxpy", 1000, mips=5.0)]
        assert history_check(entries, "baseline") == []
        found = history_check(entries, "baseline", check_mips=True)
        assert found[0]["metric"] == "mips"

    def test_repinned_label_supersedes(self):
        entries = [_entry("r0", "saxpy", 1000, label="baseline"),
                   _entry("r1", "saxpy", 2000, label="baseline"),
                   _entry("r2", "saxpy", 2050)]
        assert find_baseline(entries, "baseline")["run_id"] == "r1"
        assert history_check(entries, "baseline") == []

    def test_render_history_diff_flags_regressions(self):
        entries = [_entry("r0", "saxpy", 1000, label="baseline"),
                   _entry("r1", "saxpy", 1200)]
        rendered = render_history_diff(entries, "baseline")
        assert "saxpy cycles: 1000 -> 1200" in rendered
        assert "<-- REGRESSION" in rendered

    def test_history_append_and_torn_tail(self, tmp_path):
        path = tmp_path / "history.jsonl"
        manifest = RunManifest.capture("r-x", workload="saxpy")
        append_history(str(path), history_entry(manifest, label="pin"))
        with open(path, "a") as handle:
            handle.write('{"v": 1, "run')
        entries = load_history(str(path))
        assert len(entries) == 1 and entries[0]["label"] == "pin"

    def test_seed_history_from_committed_bench(self, tmp_path):
        path = tmp_path / "history.jsonl"
        appended = seed_history_from_bench("benchmarks/results",
                                           str(path))
        assert appended >= 1
        entries = load_history(str(path))
        assert len(entries) == appended
        assert all(e["label"] == "baseline" for e in entries)


# -- run_id provenance stamping ----------------------------------------------

class TestRunIdStamping:
    def test_stats_stamped_only_when_requested(self):
        stats = _saxpy_run()
        assert "run_id" not in stats_to_dict(stats)
        stamped = stats_to_dict(stats, run_id="r-test")
        assert stamped["run_id"] == "r-test"
        # stamping only inserts the one key
        del stamped["run_id"]
        assert stamped == stats_to_dict(stats)

    def test_trace_stamped_and_validators_accept_both(self):
        from repro.telemetry import Tracer
        tracer = Tracer()
        tracer.complete("core", "add", 0, 4, tracer.tid_for("core0"))
        plain = tracer.to_chrome()
        assert "run_id" not in plain["otherData"]
        validate_chrome_trace(plain)
        stamped = tracer.to_chrome(run_id="r-test")
        assert stamped["otherData"]["run_id"] == "r-test"
        validate_chrome_trace(stamped)
        stamped["otherData"]["run_id"] = ""
        with pytest.raises(ValueError):
            validate_chrome_trace(stamped)

    def test_checkpoint_carries_run_id(self, tmp_path):
        from repro.checkpoint import load_checkpoint
        from repro.harness import build_system
        from repro.checkpoint import save_checkpoint
        generator = np.random.default_rng(11)
        mem = SimMemory()
        n = 64
        A = mem.alloc(n, F64, "A", init=generator.uniform(-1, 1, n))
        B = mem.alloc(n, F64, "B", init=generator.uniform(-1, 1, n))
        interleaver = build_system(kernels.saxpy, [A, B, n, 2.0],
                                   core=inorder_core(), memory=mem,
                                   max_cycles=50)
        try:
            interleaver.run()
        except Exception:
            pass
        path = str(tmp_path / "ck.bin")
        save_checkpoint(interleaver, path, cycle=50, run_id="r-test")
        assert load_checkpoint(path).run_id == "r-test"
        # pre-registry snapshots load with run_id None
        save_checkpoint(interleaver, path, cycle=50)
        assert load_checkpoint(path).run_id is None


# -- status logger + CLI -----------------------------------------------------

class TestStatusLogger:
    @pytest.fixture(autouse=True)
    def _reset_level(self):
        yield
        set_status_level(NORMAL)

    def test_levels(self, capsys):
        set_status_level(NORMAL)
        STATUS.info("hello")
        STATUS.verbose("detail")
        STATUS.warn("careful")
        err = capsys.readouterr().err
        assert "hello" in err and "careful" in err
        assert "detail" not in err
        set_status_level(VERBOSE)
        STATUS.verbose("detail")
        assert "detail" in capsys.readouterr().err
        set_status_level(QUIET)
        STATUS.info("hidden")
        STATUS.warn("still-shown")
        err = capsys.readouterr().err
        assert "hidden" not in err and "still-shown" in err


HISTO = ["histo", "--size", "n=256", "--core", "ino"]


class TestCLI:
    def test_simulate_with_heartbeat_and_registry(self, tmp_path,
                                                  capsys):
        hb = tmp_path / "hb.jsonl"
        stats_json = tmp_path / "stats.json"
        registry_dir = tmp_path / "runs"
        assert cli_main(["simulate"] + HISTO + [
            "--heartbeat", str(hb), "--heartbeat-every", "500",
            "--registry", str(registry_dir),
            "--stats-json", str(stats_json)]) == 0
        captured = capsys.readouterr()
        assert "cycles:" in captured.out
        assert "manifest ->" in captured.err
        beats = read_heartbeats(str(hb))
        assert beats and beats[-1]["final"] is True
        registry = RunRegistry(str(registry_dir))
        manifest = registry.latest()
        assert manifest.workload == "histo" and manifest.status == "ok"
        # provenance: the artifact format and the code that ran
        assert manifest.schema_versions["artifact"] == ARTIFACT_FORMAT
        assert "checkpoint" not in manifest.schema_versions
        assert manifest.extra["code_fingerprint"] \
            == code_fingerprint().hex()[:16]
        # artifacts were stamped with the registered id
        document = json.loads(stats_json.read_text())
        assert document["run_id"] == manifest.run_id

    def test_quiet_suppresses_status_lines(self, tmp_path, capsys):
        stats_json = tmp_path / "stats.json"
        assert cli_main(["-q", "simulate"] + HISTO
                        + ["--stats-json", str(stats_json)]) == 0
        captured = capsys.readouterr()
        assert "cycles:" in captured.out  # report stays on stdout
        assert captured.err == ""

    def test_journaled_sweep_then_watch_once(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        assert cli_main(["simulate"] + HISTO + [
            "--sweep", "rob_size=16,32", "--journal", str(journal),
            "--heartbeat-every", "500"]) == 0
        capsys.readouterr()
        assert cli_main(["watch", str(journal), "--once"]) == 0
        out = capsys.readouterr().out
        assert "2/2 done" in out

    def test_sweep_rejects_per_run_telemetry_flags(self, tmp_path,
                                                   capsys):
        assert cli_main(["simulate"] + HISTO + [
            "--sweep", "rob_size=16,32",
            "--heartbeat", str(tmp_path / "hb.jsonl")]) == 2
        assert "incompatible" in capsys.readouterr().err

    def test_history_check_gates_and_exits_2(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        append_history(str(path),
                       _entry("r0", "histo", 1000, label="baseline"))
        append_history(str(path), _entry("r1", "histo", 1200))
        assert cli_main(["history", "check", "--history",
                         str(path)]) == 2
        assert "regression" in capsys.readouterr().out
        assert cli_main(["history", "check", "--history", str(path),
                         "--threshold", "0.5"]) == 0

    def test_history_check_missing_baseline_fails(self, tmp_path,
                                                  capsys):
        path = tmp_path / "history.jsonl"
        append_history(str(path), _entry("r0", "histo", 1000))
        assert cli_main(["history", "check", "--history", str(path),
                         "--baseline", "nope"]) == 2
        assert "no baseline" in capsys.readouterr().err

    def test_history_seed_and_list(self, tmp_path, capsys):
        path = tmp_path / "history.jsonl"
        assert cli_main(["history", "seed", "--results",
                         "benchmarks/results", "--history",
                         str(path)]) == 0
        capsys.readouterr()
        assert cli_main(["history", "list", "--history", str(path)]) == 0
        assert "baseline" in capsys.readouterr().out
