"""The benchmark's workloads and the pass that runs one of them.

A pass is one full run of a workload: set-up (generate inputs, compile,
build the DDG, interpret, or replay from the prepare cache), every
simulation, and every output check. Each call into a simulator layer is
wrapped in a span here, in the benchmark; nothing inside
``src/`` is instrumented. A pass calibrates the core's speed between its
steps and sums each layer's spans in reference seconds (``hostspeed``).
Every simulation builds a fresh memory system, so the modelled caches
start cold. Everything runs in this one process, sweeps included, so the
load never exceeds one core.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.frontend.compiler import compile_kernel
from repro.harness import (
    PrepareCache, Prepared, build_dae, build_heterogeneous, build_system,
    dae_hierarchy, inorder_core, ooo_core, prepare, prepare_key, sweep_runs,
)
from repro.harness.runner import DAEPairSpec
from repro.harness.sweeps import SweepPoint
from repro.ir.function import Module
from repro.memory import NoCConfig
from repro.passes.dae_slicing import mark_decoupled, slice_dae
from repro.passes.ddg import build_ddg
from repro.sim.accelerator import AcceleratorFarm
from repro.telemetry import (
    Attributor, HeartbeatEmitter, MemStat, MetricsRegistry, SelfProfiler,
    Tracer, stats_to_dict,
)
from repro.trace.interpreter import Interpreter
from repro.workloads import PAPER_ORDER, build_parboil
from repro.workloads.graphproj import build as build_graphproj
from repro.workloads.sinkhorn import build_combined

from hostspeed import CLOCK
from spans import Span, Spans, perf

#: the seed whose statistics are pinned (pins.json and, for
#: parboil-ooo, benchmarks/results/BENCH_cycle_identity.json)
PINNED_SEED = 0

INSTRUMENTS = ("tracer", "metrics", "profiler", "attribution", "memstat",
               "heartbeat")

#: report blocks that only attached instruments add; stripped before
#: digesting so an instrumented run can be compared with a bare one
INSTRUMENT_BLOCKS = ("metrics", "attribution", "roofline", "memory")

#: paper Fig. 11 graph-projection size (benchmarks/test_fig11_dae.py)
FIG11_SIZE = dict(nleft=64, nright=512, avg_degree=6)

#: dse-sweep grid: (issue width, ROB entries) x L1 KiB per kernel
DSE_CORES = ((2, 64), (4, 128))
DSE_L1_KIB = (4, 32)


def stats_digest(stats) -> str:
    document = stats_to_dict(stats)
    for key in INSTRUMENT_BLOCKS:
        document.pop(key, None)
    encoded = json.dumps(document, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


class Bench:
    """State of one benchmark process: the span recorder, the first
    outcome of every simulation (later passes must repeat it), pins, and
    the failure tally."""

    def __init__(self, workload: str, seed: int, quick: bool,
                 work_dir: str, pins: Optional[Dict] = None,
                 identity: Optional[Dict] = None):
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.work_dir = work_dir
        self.spans = Spans()
        pinned = seed == PINNED_SEED
        mode = "quick" if quick else "full"
        self.pins = (pins or {}).get(workload, {}).get(mode) \
            if pinned and pins is not None else None
        self.identity = identity if pinned and not quick else None
        self.reference: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.heartbeat_path = os.path.join(
            work_dir, f"heartbeat-{os.getpid()}.jsonl")

    def close(self) -> None:
        """Remove the heartbeat stream the last simulation wrote."""
        if os.path.exists(self.heartbeat_path):
            os.remove(self.heartbeat_path)

    def check_stats(self, p: "Pass", label: str, stats) -> None:
        digest = stats_digest(stats)
        first = self.reference.setdefault(label, digest)
        if digest != first:
            p.fail(label, f"statistics {digest} differ from this run's "
                          f"first simulation ({first})")
        if self.pins is not None:
            pinned = self.pins.get(label)
            if pinned != digest:
                p.fail(label, f"statistics {digest} differ from the pin "
                              f"{pinned} at seed {PINNED_SEED}")
        if self.identity is not None:
            expected = self.identity.get(label)
            got = {"cycles": stats.cycles,
                   "instructions": stats.instructions}
            if expected != got:
                p.fail(label, f"(cycles, instructions) {got} differ from "
                              f"BENCH_cycle_identity.json {expected}")


class Pass:
    """One pass of a workload. ``acc`` sums span seconds by layer name and
    the counts each layer reports."""

    def __init__(self, bench: Bench, traced: bool = False,
                 instruments: Sequence[str] = ()):
        self.bench = bench
        self.seed = bench.seed
        self.quick = bench.quick
        self.traced = traced
        self.instruments = tuple(instruments)
        self.spans = bench.spans
        self.first_span = len(self.spans.records)
        self.last_span = self.first_span
        self.acc: Dict[str, float] = defaultdict(float)
        self.ok: Dict[str, bool] = {}
        self.host_wall = 0.0
        #: (sim.run span, SelfProfiler report) per profiled simulation
        self._profiles: List[Tuple[Span, object]] = []

    @contextmanager
    def timed(self, name: str, sim: Optional[str] = None):
        with self.spans.span(name, sim) as record:
            yield record

    def fail(self, label: str, reason: str) -> None:
        self.ok[label] = False
        message = f"FAIL {self.bench.workload}/{label}: {reason}"
        self.bench.failures.append(message)
        print(message, flush=True)

    def run(self, workload: Callable[["Pass"], None]) -> "Pass":
        started = time.perf_counter()
        with self.timed("pass"):
            CLOCK.calibrate()
            workload(self)
            CLOCK.calibrate()
        # wall-clock seconds, calibrations included: what the run's time
        # budget pays for this pass
        self.host_wall = time.perf_counter() - started
        self.last_span = len(self.spans.records)
        self._fold()
        self.bench.attempted += len(self.ok)
        self.bench.failed += sum(1 for ok in self.ok.values() if not ok)
        return self

    def _fold(self) -> None:
        """Sum this pass's spans by name, and the profiler's phases, in
        reference seconds. A phase (wall-clock seconds, from the
        profiler) is its share of the ``sim.run`` span's reference
        seconds."""
        for record in self.spans.records[self.first_span:self.last_span]:
            self.acc[record.name] += CLOCK.seconds(record.start, record.end)
        for run, profile in self._profiles:
            scale = (CLOCK.seconds(run.start, run.end) / profile.wall_seconds
                     if profile.wall_seconds > 0 else 0.0)
            for phase, seconds in profile.phases.items():
                self.acc[f"phase.{phase}"] += seconds * scale

    @property
    def wall(self) -> float:
        return self.acc["pass"]

    @property
    def sim_seconds(self) -> float:
        return self.acc["harness.build"] + self.acc["sim.run"]

    def layers(self) -> Dict[str, float]:
        """Per-layer metrics of this pass. The ``sim.*`` phase split and
        event counts need a SelfProfiler, so they are 0 on an untraced
        pass; a ratio whose base is 0 reads 0."""
        acc = self.acc

        def ratio(part: float, base: float) -> float:
            return part / base if base else 0.0

        return {
            "frontend.compile_s": acc["frontend.compile"],
            "passes.ddg_s": acc["passes.ddg"] + acc["passes.dae_slice"],
            "trace.interpret_s": acc["trace.interpret"],
            "trace.dbbs": acc["trace.dbbs"],
            "trace.memory_accesses": acc["trace.memory_accesses"],
            "harness.prepcache.hit_s": acc["harness.prepcache.hit"],
            "harness.prepcache.store_s": acc["harness.prepcache.store"],
            "harness.prepcache.hit_ratio": ratio(acc["prepcache.hits"],
                                                 acc["prepcache.lookups"]),
            "harness.prepcache.bytes": acc["prepcache.bytes"],
            "harness.build_s": acc["harness.build"],
            "harness.sweeps.s": acc["harness.sweeps"],
            "harness.sweeps.points": acc["harness.sweeps.points"],
            "sim.run_s": acc["sim.run"],
            "sim.interleaver.other_s": acc["phase.other"],
            "sim.cycles": acc["sim.cycles"],
            "sim.instructions": acc["sim.instructions"],
            "sim.events.s": acc["phase.event_loop"],
            "sim.events.count": acc["sim.events.count"],
            "sim.events.fast_drain_ratio": ratio(
                acc["drains.fast"], acc["drains.fast"] + acc["drains.slow"]),
            "sim.us_per_event": ratio(acc["phase.event_loop"] * 1e6,
                                      acc["sim.events.count"]),
            "sim.core.s": acc["phase.tile_step"],
            "sim.core.tile_steps": acc["sim.core.tile_steps"],
            "memory.s": acc["phase.memory"],
            "memory.l1_hit_ratio": ratio(acc["memory.l1_hits"],
                                         acc["memory.l1_accesses"]),
            "memory.dram_accesses": acc["memory.dram_accesses"],
            "sim.comm.s": acc["phase.fabric"],
        }

    # -- set-up ------------------------------------------------------------
    def _count_traces(self, traces) -> None:
        for trace in traces:
            self.acc["trace.dbbs"] += len(trace.block_trace)
            self.acc["trace.memory_accesses"] += trace.num_memory_accesses

    def _compile(self, label: str, build: Callable):
        with self.timed("inputs", label):
            workload = build()
        with self.timed("frontend.compile", label):
            func = compile_kernel(workload.kernel)
        return workload, func

    def _trace(self, label: str, workload, func, num_tiles: int):
        with self.timed("passes.ddg", label):
            ddg = build_ddg(func)
        module = Module(func.name)
        module.add_function(func)
        with self.timed("trace.interpret", label):
            traces = Interpreter(module, workload.memory).run_spmd(
                func.name, workload.args, num_tiles)
        self._count_traces(traces)
        return Prepared(func, ddg, traces, workload.memory)

    def prepare(self, label: str, build: Callable, num_tiles: int = 1):
        """Inputs, compile, DDG and functional interpretation, each timed
        as its own layer; what ``prepare()`` does without a cache."""
        workload, func = self._compile(label, build)
        prepared = self._trace(label, workload, func, num_tiles)
        CLOCK.calibrate()
        return workload, prepared

    def prepare_dae(self, label: str, build: Callable, pairs: int):
        """DAE slicing and per-pair co-interpretation, as
        ``prepare_dae_sliced()`` does it."""
        workload, func = self._compile(label, build)
        with self.timed("passes.dae_slice", label):
            access_fn, execute_fn = slice_dae(func)
        with self.timed("passes.ddg", label):
            access_ddg = build_ddg(access_fn)
            mark_decoupled(access_ddg)
            execute_ddg = build_ddg(execute_fn)
        module = Module("dae")
        module.add_function(access_fn)
        module.add_function(execute_fn)
        interpreter = Interpreter(module, workload.memory)
        specs = []
        for pair in range(pairs):
            with self.timed("trace.interpret", label):
                access, execute = interpreter.run_dae_pair(
                    access_fn.name, execute_fn.name, workload.args,
                    pair=pair, pairs=pairs)
            self._count_traces((access, execute))
            specs.append(DAEPairSpec(access, execute, access_ddg,
                                     execute_ddg))
        CLOCK.calibrate()
        return workload, specs

    def fill_cache(self, label: str, build: Callable,
                   cache: PrepareCache):
        """Cold prepare into ``cache``: the content address is taken over
        the initial memory image, then the fresh artifact is stored."""
        workload, func = self._compile(label, build)
        with self.timed("harness.prepcache.store", label):
            key = prepare_key(func, workload.args, 1, workload.memory)
        prepared = self._trace(label, workload, func, 1)
        with self.timed("harness.prepcache.store", label):
            cache.store(key, prepared, meta={"kernel": func.name,
                                             "num_tiles": 1, "traces": 1})
        CLOCK.calibrate()
        return workload

    def replay(self, label: str, build: Callable, cache: PrepareCache):
        """Compile (prepare compiles even on a hit) and replay from the
        prepare cache onto freshly generated inputs."""
        workload, func = self._compile(label, build)
        with self.timed("harness.prepcache.hit", label):
            prepared = prepare(func, workload.args, memory=workload.memory,
                               cache=cache)
        self.acc["prepcache.lookups"] += 1
        self.acc["prepcache.hits"] += prepared.cache_hit
        CLOCK.calibrate()
        return workload, prepared

    # -- simulation --------------------------------------------------------
    def _instruments(self) -> Dict:
        kwargs: Dict = {}
        names = self.instruments
        if "tracer" in names:
            kwargs["tracer"] = Tracer()
        if "metrics" in names:
            kwargs["metrics"] = MetricsRegistry()
        if "profiler" in names or self.traced:
            kwargs["profiler"] = SelfProfiler()
        if "attribution" in names:
            kwargs["attribution"] = Attributor()
        if "memstat" in names:
            kwargs["memstat"] = MemStat()
        if "heartbeat" in names:
            self.bench.close()
            kwargs["emitter"] = HeartbeatEmitter(
                path=self.bench.heartbeat_path, every_cycles=10_000)
        return kwargs

    def simulate(self, label: str, build: Callable) -> None:
        """Build the system with this pass's instruments, run it, and
        check its statistics. ``build`` is a ``build_*`` partial."""
        kwargs = self._instruments()
        self.ok[label] = True
        try:
            with self.timed("harness.build", label):
                interleaver = build(**kwargs)
            with self.timed("sim.run", label) as run:
                stats = interleaver.run()
        except Exception as exc:  # a failed simulation is counted; go on
            self.fail(label, f"raised {type(exc).__name__}: {exc}")
            return
        finally:
            CLOCK.calibrate()
        profiler = kwargs.get("profiler")
        self.record(label, stats, run, profiler.report if profiler else None)

    def record(self, label: str, stats, run: Span, profile) -> None:
        acc = self.acc
        acc["sim.cycles"] += stats.cycles
        acc["sim.instructions"] += stats.instructions
        acc["memory.dram_accesses"] += stats.dram.requests
        for name, cache in stats.caches.items():
            if name.startswith("L1"):
                acc["memory.l1_hits"] += cache.hits
                acc["memory.l1_accesses"] += cache.hits + cache.misses
        if profile is not None:
            self._profiles.append((run, profile))
            acc["sim.events.count"] += profile.events
            acc["sim.core.tile_steps"] += profile.tile_steps
            acc["drains.fast"] += profile.counters.get(
                "scheduler_fast_drains", 0)
            acc["drains.slow"] += profile.counters.get(
                "scheduler_slow_drains", 0)
        with self.timed("check", label):
            self.bench.check_stats(self, label, stats)

    def verify(self, labels: Sequence[str], workload) -> None:
        """``Workload.verify()`` checks the functional outputs; a wrong
        output fails every simulation that replayed it."""
        with self.timed("check", labels[0] if labels else None):
            try:
                workload.verify()
            except AssertionError as exc:
                for label in labels:
                    self.fail(label, str(exc))

    def sweep(self, label: str, prepared: Prepared, cache: PrepareCache,
              runs: Dict[str, Dict]) -> List[str]:
        """Replay ``prepared`` under every run configuration, one point
        after another in this process; returns the simulation labels."""
        specs = {name: dict(spec, point_runner=run_point,
                            profile=self.traced)
                 for name, spec in runs.items()}
        with self.timed("harness.sweeps", label):
            result = sweep_runs(prepared, specs, jobs=1, prep_cache=cache)
            labels = []
            for point in result.points:
                name = f"{label}/{point.parameters['run']}"
                labels.append(name)
                self.ok[name] = True
                self.acc["harness.sweeps.points"] += 1
                if not point.ok or not isinstance(point, TimedPoint):
                    self.fail(name, f"sweep point {point.outcome}: "
                                    f"{point.error}")
                    continue
                start, built, end = point.timings
                self.spans.add("harness.build", start, built, name)
                run = self.spans.add("sim.run", built, end, name)
                self.record(name, point.stats, run, point.profile)
        return labels


@dataclass
class TimedPoint(SweepPoint):
    """A sweep point that also carries its timings: (build start,
    build end = run start, run end)."""

    timings: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    profile: Optional[object] = None


def run_point(parameters: Dict, spec: Dict, prepared: Prepared):
    """Sweep ``point_runner``: builds the point's system (fresh memory
    system, so cold caches), runs it, and calibrates the core's speed."""
    profiler = SelfProfiler() if spec["profile"] else None
    try:
        start = perf()
        interleaver = build_system(prepared.function, [], prepared=prepared,
                                   core=spec["core"],
                                   hierarchy=spec["hierarchy"],
                                   profiler=profiler)
        built = perf()
        stats = interleaver.run()
        end = perf()
    except Exception as exc:  # recorded as a failed point, never raised
        return SweepPoint(parameters, None, outcome="error",
                          error=f"{type(exc).__name__}: {exc}")
    finally:
        CLOCK.calibrate()
    return TimedPoint(parameters, stats, timings=(start, built, end),
                      profile=profiler.report if profiler else None)


# -- the workloads -----------------------------------------------------------

def _parboil(p: Pass, kernels: Sequence[str]) -> None:
    with p.timed("setup"):
        prepared = [(name,) + p.prepare(name, partial(build_parboil, name,
                                                      seed=p.seed))
                    for name in kernels]
    for name, _, prep in prepared:
        p.simulate(name, partial(build_system, prep.function, [],
                                 core=ooo_core(), hierarchy=dae_hierarchy(),
                                 prepared=prep))
    for name, workload, _ in prepared:
        p.verify([name], workload)


def parboil_ooo(p: Pass) -> None:
    _parboil(p, ("histo", "sad") if p.quick else PAPER_ORDER)


def hetero_soc(p: Pass) -> None:
    with p.timed("setup"):
        soc, soc_prep = p.prepare(
            "big.LITTLE", partial(build_parboil,
                                  "histo" if p.quick else "spmv",
                                  seed=p.seed), num_tiles=4)
        graph, dae_specs = p.prepare_dae(
            "dae-graph-projection",
            partial(build_graphproj, seed=p.seed,
                    **({} if p.quick else FIG11_SIZE)),
            pairs=2 if p.quick else 4)
        sinkhorn, sinkhorn_prep = p.prepare(
            "sinkhorn-accel", partial(build_combined, "dense-heavy",
                                      seed=p.seed, accelerated=True),
            num_tiles=2)
    mesh = dae_hierarchy()
    mesh.noc = NoCConfig(link_latency=1, router_latency=2, llc_banks=4)
    mesh.coherence = True
    big = ooo_core("Big")
    little = inorder_core("Little").scaled(frequency_ghz=1.0)
    p.simulate("big.LITTLE", partial(
        build_heterogeneous, soc_prep.function, [],
        cores=[big] + [little] * 3, hierarchy=mesh, prepared=soc_prep))
    p.simulate("dae-graph-projection", partial(
        build_dae, dae_specs, access_core=inorder_core(),
        execute_core=inorder_core(), hierarchy=dae_hierarchy()))
    p.simulate("sinkhorn-accel", partial(
        build_system, sinkhorn_prep.function, [], core=inorder_core(),
        num_tiles=2, hierarchy=dae_hierarchy(),
        accelerators=AcceleratorFarm().add_default("sgemm"),
        prepared=sinkhorn_prep))
    p.verify(["big.LITTLE"], soc)
    p.verify(["dae-graph-projection"], graph)
    p.verify(["sinkhorn-accel"], sinkhorn)


def _dse_runs(quick: bool) -> Dict[str, Dict]:
    runs = {}
    cores = DSE_CORES[-1:] if quick else DSE_CORES
    for width, rob in cores:
        for kib in DSE_L1_KIB:
            hierarchy = dae_hierarchy()
            l1 = replace(hierarchy.private_levels[0], size_bytes=kib * 1024)
            runs[f"w{width}-rob{rob}-l1-{kib}k"] = {
                "core": replace(ooo_core(), issue_width=width,
                                rob_size=rob, lsq_size=rob),
                "hierarchy": replace(hierarchy, private_levels=(l1,)),
            }
    return runs


def dse_sweep(p: Pass) -> None:
    kernels = ("histo",) if p.quick else ("sgemm", "spmv", "histo")
    root = os.path.join(p.bench.work_dir, f"prepcache-{os.getpid()}")
    shutil.rmtree(root, ignore_errors=True)
    cache = PrepareCache(root)
    try:
        with p.timed("setup"):
            filled = [p.fill_cache(name, partial(build_parboil, name,
                                                 seed=p.seed), cache)
                      for name in kernels]
            p.acc["prepcache.bytes"] = cache.stats()["total_bytes"]
            replays = [(name,) + p.replay(name, partial(
                build_parboil, name, seed=p.seed), cache)
                for name in kernels]
        runs = _dse_runs(p.quick)
        for (name, replayed, prepared), original in zip(replays, filled):
            labels = p.sweep(name, prepared, cache, runs)
            if not prepared.cache_hit:
                for label in labels:
                    p.fail(label, "prepare cache missed on replay")
            p.verify(labels, original)
            p.verify(labels, replayed)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def parboil_instrumented(p: Pass) -> None:
    """The instruments themselves are chosen by the caller: all of them
    for the end-to-end run, one at a time for the traced run."""
    _parboil(p, ("histo",) if p.quick else ("bfs", "sgemm", "spmv"))


WORKLOADS = {
    "parboil-ooo": parboil_ooo,
    "hetero-soc": hetero_soc,
    "dse-sweep": dse_sweep,
    "parboil-instrumented": parboil_instrumented,
}
