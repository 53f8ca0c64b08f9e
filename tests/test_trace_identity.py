"""Trace identity: the tracer's storage layout is invisible in its output.

The tracer is observation-only and deterministic (docs/observability.md),
so a change to how it *stores* events must not change what it *reports*.
This test pins the reported trace of four runs in
``BENCH_trace_identity.json``: the event count, the drop count, a sha256
of ``event_keys()`` and a sha256 of the canonical ``to_chrome()`` JSON.

* ``sgemm-ooo-dae`` — sgemm on the ooo/dae reference system;
* ``sgemm-ring-5000`` — the same run into a 5000-event ring, so the
  ring overflows and ``dropped`` is exercised;
* ``sinkhorn-accel`` — ``repro simulate sinkhorn-accel --trace``, the
  export CI checks (fabric and accelerator lanes);
* ``dae-pair`` — one small access/execute pair (DAE queue lanes).

Like ``BENCH_cycle_identity.json`` there is no regenerate flag on
purpose: when a trace is *meant* to change, rewrite the file by hand
from this test's failure output so the change is deliberate and
reviewed.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.harness import (
    dae_hierarchy, inorder_core, ooo_core, prepare, prepare_dae_sliced,
    simulate, simulate_dae,
)
from repro.telemetry import Tracer
from repro.workloads import build_parboil
from repro.workloads.sinkhorn import build_ewsd

BASELINE_PATH = (Path(__file__).parent.parent
                 / "benchmarks" / "results" / "BENCH_trace_identity.json")
BASELINE = json.loads(BASELINE_PATH.read_text())


def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def chrome_digest(document: dict) -> str:
    """sha256 of a Chrome trace document as ``Tracer.to_chrome()``
    returns it with no arguments: the per-run ``frequency_ghz`` and
    ``run_id`` stamps of an exported file are left out."""
    other = {key: value for key, value in document["otherData"].items()
             if key not in ("frequency_ghz", "run_id")}
    return _sha256(dict(document, otherData=other))


def fingerprint(tracer: Tracer) -> dict:
    return {"len": len(tracer), "dropped": tracer.dropped,
            "keys_sha256": _sha256(tracer.event_keys()),
            "chrome_sha256": chrome_digest(tracer.to_chrome())}


def export_fingerprint(document: dict) -> dict:
    """The fields of :func:`fingerprint` an exported trace file carries
    (the event keys are in-memory only)."""
    return {"len": sum(1 for event in document["traceEvents"]
                       if event["ph"] != "M"),
            "dropped": document["otherData"]["dropped_events"],
            "chrome_sha256": chrome_digest(document)}


def _sgemm(capacity: int) -> Tracer:
    w = build_parboil("sgemm")
    prepared = prepare(w.kernel, w.args, memory=w.memory)
    tracer = Tracer(capacity=capacity)
    simulate(w.kernel, w.args, prepared=prepared, core=ooo_core(),
             hierarchy=dae_hierarchy(), tracer=tracer)
    w.verify()
    return tracer


def _dae_pair() -> Tracer:
    w = build_ewsd(nnz=128, dense_len=256)
    specs = prepare_dae_sliced(w.kernel, w.args, pairs=1, memory=w.memory)
    tracer = Tracer()
    simulate_dae(specs, access_core=inorder_core(), execute_core=ooo_core(),
                 hierarchy=dae_hierarchy(), tracer=tracer)
    w.verify()
    return tracer


def run_fingerprint(name: str, tmp_path: Path) -> dict:
    if name == "sgemm-ooo-dae":
        return fingerprint(_sgemm(200_000))
    if name == "sgemm-ring-5000":
        return fingerprint(_sgemm(5000))
    if name == "dae-pair":
        return fingerprint(_dae_pair())
    assert name == "sinkhorn-accel"
    path = tmp_path / "sinkhorn-accel.json"
    assert cli_main(["simulate", "sinkhorn-accel", "--trace",
                     str(path)]) == 0
    return export_fingerprint(json.loads(path.read_text()))


def test_baseline_names_the_pinned_runs():
    assert sorted(BASELINE["runs"]) == sorted(
        ["sgemm-ooo-dae", "sgemm-ring-5000", "sinkhorn-accel", "dae-pair"])
    assert BASELINE["runs"]["sgemm-ring-5000"]["dropped"] > 0


@pytest.mark.parametrize("name", sorted(BASELINE["runs"]))
def test_trace_matches_pinned_baseline(name, tmp_path):
    assert run_fingerprint(name, tmp_path) == BASELINE["runs"][name], (
        f"{name}: the recorded trace diverged from the pinned baseline")
