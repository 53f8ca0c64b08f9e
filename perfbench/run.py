"""Simulator benchmark: one workload per invocation.

    python3 perfbench/run.py --workload parboil-ooo --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats untraced passes of the workload for ``--seconds``
and reports the end-to-end metrics (medians over the passes) in
reference seconds: CPU time of the benchmark process scaled by the
core's speed, calibrated between the steps of every pass
(``hostspeed``).
``--trace 1`` alternates untraced and traced passes (SelfProfiler
attached, spans kept) and reports the per-layer metrics, a per-layer
self-time table, and a Chrome trace under ``perfbench/out/``. Metric
names and units come from ``BENCHMARK.json``.

Every simulation is checked: ``Workload.verify()`` on every prepared
workload (cache replays included), identical statistics on every pass of
the run, and at seed 0 the pins in ``pins.json`` (and, for parboil-ooo,
``benchmarks/results/BENCH_cycle_identity.json``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit status: 0 when every check passed, 1
when one failed, 2 on a usage error.

Simulated time is in cycles. The repository
holds no hardware measurements, so no accuracy figure is reported: the
model is unvalidated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def use_checkout() -> None:
    """Import the simulator from the checkout this file lives in."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: simulator sources not found under "
                         f"{src}; run from a repository checkout")
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def declared() -> dict:
    """BENCHMARK.json: the metric names and units this run must print."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """SHA-256 over the simulator sources: identifies the code even in a
    checkout without git metadata."""
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def provenance(seed: int) -> dict:
    return {"seed": seed, "commit": _git_commit(),
            "source_sha256": _source_digest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median_layers(passes) -> Dict[str, float]:
    per_pass = [p.layers() for p in passes]
    return {name: statistics.median(layers[name] for layers in per_pass)
            for name in per_pass[0]}


def run(workload: str, seed: int, seconds: float, traced: bool,
        quick: bool = False, pins: Optional[dict] = None) -> dict:
    """Run one workload; returns the result document (the JSON line's
    keys plus ``report`` lines for humans)."""
    import suite
    from repro.harness import QUIET, set_status_level
    set_status_level(QUIET)
    OUT.mkdir(exist_ok=True)
    if pins is None:
        pins = json.loads((HERE / "pins.json").read_text())
    identity = None
    if workload == "parboil-ooo":
        identity = json.loads((ROOT / "benchmarks" / "results"
                               / "BENCH_cycle_identity.json").read_text()
                              )["kernels"]
    bench = suite.Bench(workload, seed, quick, str(OUT), pins, identity)
    try:
        return _measure(bench, seconds, traced)
    finally:
        bench.close()


def _measure(bench, seconds: float, traced: bool) -> dict:
    import suite
    from hostspeed import CLOCK, REFERENCE_S
    workload, seed = bench.workload, bench.seed
    body = suite.WORKLOADS[workload]
    instrumented = workload == "parboil-instrumented"
    every = suite.INSTRUMENTS if instrumented else ()
    started = time.perf_counter()
    if instrumented:
        # the bare run every instrumented pass must reproduce exactly
        suite.Pass(bench).run(body)

    def another_fits(round_walls: List[float]) -> bool:
        """Round walls are wall-clock seconds, calibrations included; the
        slowest round so far stands for the next one."""
        elapsed = time.perf_counter() - started
        return elapsed + max(round_walls) <= seconds

    report: List[str] = []
    if not traced:
        passes = []
        while True:
            passes.append(suite.Pass(bench, instruments=every).run(body))
            if not another_fits([p.host_wall for p in passes]):
                break
        values = {
            "setup_s": statistics.median(p.acc["setup"] for p in passes),
            "sim_mips": statistics.median(
                p.acc["sim.instructions"] / p.sim_seconds / 1e6
                for p in passes),
            "wall_s": statistics.median(p.wall for p in passes),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = {m["name"]: m["unit"] for m in declared()["end_to_end"]}
        report.append(f"{len(passes)} untraced pass(es); wall_s per pass: "
                      + " ".join(f"{p.wall:.3f}" for p in passes))
    else:
        configs = [("bare", ())]
        if instrumented:
            configs += [(name, (name,)) for name in suite.INSTRUMENTS]
            configs.append(("all", every))
        rounds = []
        while True:
            passes = {name: suite.Pass(bench, instruments=names).run(body)
                      for name, names in configs}
            passes["traced"] = suite.Pass(bench, traced=True,
                                          instruments=every).run(body)
            rounds.append(passes)
            if not another_fits([sum(p.host_wall for p in r.values())
                                 for r in rounds]):
                break
        traced_passes = [r["traced"] for r in rounds]
        values = _median_layers(traced_passes)

        def median_of(name: str, attribute: str) -> float:
            return statistics.median(getattr(r[name], attribute)
                                     for r in rounds)

        # the traced pass carries the same instruments as the last config
        values["bench.trace_overhead"] = (
            median_of("traced", "wall") / median_of(configs[-1][0], "wall"))
        bare = median_of("bare", "sim_seconds")
        for name in suite.INSTRUMENTS + ("all",):
            # instrumented / bare build+run seconds on the same kernels;
            # 0 where the workload carries no instruments
            values[f"telemetry.{name}.slowdown"] = (
                median_of(name, "sim_seconds") / bare if instrumented
                else 0.0)
        units = {m["name"]: m["unit"] for m in declared()["per_layer"]}
        report.append(f"{len(rounds)} round(s) of "
                      f"{', '.join(name for name, _ in configs)} "
                      f"+ traced pass")
        report.extend(_self_time_table(bench, traced_passes, CLOCK))
        trace_path = OUT / f"trace-{workload}-seed{seed}.json"
        document = bench.spans.to_chrome(
            {"workload": workload, **provenance(seed)})
        trace_path.write_text(json.dumps(document, separators=(",", ":")))
        report.append(f"spans: {len(bench.spans.records)} -> {trace_path}")
    report.append(
        f"host speed: calibration loop median "
        f"{CLOCK.median_loop_s() * 1e3:.2f} ms over {len(CLOCK.loops)} "
        f"calibrations; times are reference seconds, CPU seconds scaled "
        f"to a {REFERENCE_S * 1e3:.1f} ms loop")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           f"do not match BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics, "report": report}


def _self_time_table(bench, passes, clock) -> List[str]:
    """Mean self time per layer over the traced passes, in reference
    seconds; the ``sim.run`` row is split by the SelfProfiler's
    phases."""
    totals: Dict[str, float] = {}
    for p in passes:
        for name, seconds in bench.spans.self_times(
                p.first_span, p.last_span, clock.seconds).items():
            totals[name] = totals.get(name, 0.0) + seconds / len(passes)
    phases = {"sim.events": "event_loop", "sim.core": "tile_step",
              "memory": "memory", "sim.comm": "fabric",
              "sim.interleaver.other": "other"}
    run_total = totals.pop("sim.run", 0.0)
    profiled = 0.0
    for layer, phase in phases.items():
        seconds = statistics.mean(p.acc[f"phase.{phase}"] for p in passes)
        totals[layer] = seconds
        profiled += seconds
    totals["sim.run (outside profiler)"] = run_total - profiled
    wall = statistics.mean(p.wall for p in passes)
    lines = [f"{'layer self time':<28} {'s/pass':>10} {'share':>7}"]
    for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<28} {seconds:>10.4f} "
                     f"{100.0 * seconds / wall:>6.1f}%")
    lines.append("(reference seconds; share of the pass wall, which "
                 "leaves out the calibrations)")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    use_checkout()
    spec = declared()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced-size inputs, for the benchmark's own "
                             "tests")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 quick=args.quick)
    print(f"perfbench {args.workload} trace={args.trace} "
          f"{json.dumps(provenance(args.seed), sort_keys=True)}")
    print("caches start cold in every simulation; timings are reference "
          "seconds (CPU time scaled by calibrated core speed), simulated "
          "time is cycles; accuracy: unvalidated (no hardware "
          "measurements in the repository)")
    for line in result.pop("report"):
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name:<32} {metric['value']:>16.6g} {metric['unit']}")
    fail_ratio = result["failed"] / max(1, result["attempted"])
    print(f"{'fail_ratio':<32} {fail_ratio:>16.6g} ratio "
          f"({result['failed']} failed / {result['attempted']} simulations)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
