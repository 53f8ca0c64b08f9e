"""Prepare identity: the trace generator's output is pinned.

Functional interpretation (``repro.trace.interpreter``) produces the
per-tile traces and the post-run memory image every simulation replays.
A rewrite of the interpreter must reproduce them exactly, so this test
pins one sha256 per run in ``BENCH_prepare_identity.json`` over, per
trace in run order, the ``block_trace``, the ``addr_trace`` and
``comm_trace`` items in insertion order, the ``accel_calls``, the
``dynamic_instructions`` and the ``return_value``, followed by every
memory segment (name, base, element type, raw bytes) after
interpretation. The runs are:

* the 11 Parboil kernels at seed 0 on one tile;
* ``spmv-4tile`` — spmv on 4 SPMD tiles (the big.LITTLE run's prepare);
* ``sinkhorn-accel-2tile`` — the dense-heavy sinkhorn mix with
  accelerator calls on 2 tiles (barrier scheduling, ``accel_calls``);
* ``graphproj-dae-4pair`` — Fig. 11 graph projection as 4 DAE pairs
  (co-operative queue scheduling).

Like ``BENCH_cycle_identity.json`` there is no regenerate flag on
purpose: when the traces are *meant* to change, rewrite the file by hand
from this test's failure output so the change is deliberate and
reviewed.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness import prepare, prepare_dae_sliced
from repro.workloads import PARBOIL, build_parboil
from repro.workloads.graphproj import build as build_graphproj
from repro.workloads.sinkhorn import build_combined

BASELINE_PATH = (Path(__file__).parent.parent
                 / "benchmarks" / "results" / "BENCH_prepare_identity.json")
BASELINE = json.loads(BASELINE_PATH.read_text())

#: paper Fig. 11 graph-projection size (benchmarks/test_fig11_dae.py)
FIG11_SIZE = dict(nleft=64, nright=512, avg_degree=6)


def prepare_digest(traces, memory) -> str:
    """sha256 over the traces of one run and the memory image they left."""
    digest = hashlib.sha256()

    def put(value) -> None:
        digest.update(repr(value).encode())
        digest.update(b"\n")

    for trace in traces:
        put((trace.function, trace.tile, trace.num_tiles))
        put(trace.block_trace)
        put(list(trace.addr_trace.items()))
        put(list(trace.comm_trace.items()))
        put([(call.iid, call.name, call.args) for call in trace.accel_calls])
        put(trace.dynamic_instructions)
        put(trace.return_value)
    for segment in memory.segments:
        put((segment.name, segment.base, str(segment.element_type)))
        digest.update(segment.data.tobytes())
    return digest.hexdigest()


def _spmd(workload, num_tiles: int) -> str:
    prepared = prepare(workload.kernel, workload.args, num_tiles=num_tiles,
                       memory=workload.memory)
    workload.verify()
    return prepare_digest(prepared.traces, workload.memory)


def _dae(workload, pairs: int) -> str:
    specs = prepare_dae_sliced(workload.kernel, workload.args, pairs=pairs,
                               memory=workload.memory)
    workload.verify()
    traces = [trace for spec in specs
              for trace in (spec.access_trace, spec.execute_trace)]
    return prepare_digest(traces, workload.memory)


def run_digest(name: str) -> str:
    if name in PARBOIL:
        return _spmd(build_parboil(name, seed=0), 1)
    if name == "spmv-4tile":
        return _spmd(build_parboil("spmv", seed=0), 4)
    if name == "sinkhorn-accel-2tile":
        return _spmd(build_combined("dense-heavy", seed=0, accelerated=True),
                     2)
    assert name == "graphproj-dae-4pair"
    return _dae(build_graphproj(seed=0, **FIG11_SIZE), 4)


RUNS = sorted(PARBOIL) + ["graphproj-dae-4pair", "sinkhorn-accel-2tile",
                          "spmv-4tile"]


def test_baseline_names_the_pinned_runs():
    assert sorted(BASELINE["runs"]) == sorted(RUNS)


@pytest.mark.parametrize("name", RUNS)
def test_prepare_matches_pinned_baseline(name):
    assert run_digest(name) == BASELINE["runs"][name], (
        f"{name}: the functional traces or memory image diverged from "
        f"the pinned baseline")
