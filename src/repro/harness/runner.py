"""End-to-end simulation runner.

Ties the whole toolchain together (paper §VI: "The simulator relies on the
compiler to generate the DDG and the DTG to instrument the code and
generate memory and control flow path traces"):

1. compile the kernel (front-end);
2. build the static DDG;
3. run the Dynamic Trace Generator (functional interpretation) over a
   caller-prepared :class:`SimMemory`;
4. instantiate tiles + memory hierarchy + accelerators;
5. run the Interleaver and return :class:`SystemStats`.
"""

from __future__ import annotations

import contextlib
import signal as _signal
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..frontend.compiler import compile_kernel
from ..ir.function import Function, Module
from ..memory.hierarchy import MemorySystem
from ..passes.ddg import StaticDDG, build_ddg
from ..passes.dae_slicing import mark_decoupled, slice_dae
from ..resilience.faults import FaultInjector, FaultPlan, FaultRecord
from ..sim.accelerator.tile import AcceleratorFarm
from ..sim.comm.fabric import CommFabric
from ..sim.config import ConfigError, CoreConfig, MemoryHierarchyConfig
from ..sim.core.model import CoreTile
from ..sim.errors import (
    AcceleratorFaultError, CycleBudgetExceeded, DeadlockError,
    SimulationError, SimulationInterrupted, WatchdogTimeout,
)
from ..sim.events import Scheduler
from ..sim.interleaver import DEFAULT_MAX_CYCLES, Interleaver
from ..sim.statistics import SystemStats
from ..telemetry.profiler import ProfileReport
from ..trace.interpreter import Interpreter
from ..trace.memory import SimMemory
from ..trace.tracefile import KernelTrace
from .prepcache import PrepareCache, overlay_segments, prepare_key
from .status import STATUS
from .systems import DAE_QUEUE_ENTRIES

Kernel = Union[str, Callable, Function]


def _infer_memory(args: Sequence) -> SimMemory:
    """Use the SimMemory backing any ArrayRef argument; fresh otherwise."""
    from ..trace.memory import ArrayRef
    for arg in args:
        if isinstance(arg, ArrayRef) and arg.memory is not None:
            return arg.memory
    return SimMemory()


@dataclass
class Prepared:
    """Compiled kernel + traces, ready to simulate on any system config."""

    function: Function
    ddg: StaticDDG
    traces: List[KernelTrace]
    memory: SimMemory
    #: prepare-cache provenance: the content address this artifact lives
    #: under, whether its traces were replayed from the cache, and the
    #: stored payload's SHA-256 (None/False when prepared uncached)
    cache_key: Optional[str] = None
    cache_hit: bool = False
    artifact_digest: Optional[str] = None


def prepare(kernel: Kernel, args: Sequence, *, num_tiles: int = 1,
            memory: Optional[SimMemory] = None,
            injector: Optional[FaultInjector] = None,
            cache: Optional[PrepareCache] = None) -> Prepared:
    """Compile ``kernel`` and generate SPMD traces for ``num_tiles``.

    With ``injector``, functional loads during trace generation may
    return bit-flipped values (deterministic under the injector's seed).

    With ``cache`` (a :class:`~repro.harness.prepcache.PrepareCache`),
    the traces and functional memory image are replayed from disk when
    an entry matches the content-addressed key (code fingerprint +
    kernel IR + argument spec + initial memory image + ``num_tiles``),
    and stored after a fresh run otherwise. A hit keeps the freshly
    compiled function and rebuilds its DDG.
    An attached ``injector`` always bypasses the cache: it corrupts
    functional loads and advances RNG/log state during interpretation,
    so replaying artifacts would diverge from an injected run.
    """
    func = kernel if isinstance(kernel, Function) else compile_kernel(kernel)
    mem = memory if memory is not None else _infer_memory(args)
    key = None
    if cache is not None:
        if injector is not None:
            cache.bypasses += 1
            STATUS.verbose("prepare cache: bypassed (fault injector "
                           "attached)")
        else:
            # keyed over the INITIAL memory image; interpretation below
            # mutates mem in place
            key = prepare_key(func, args, num_tiles, mem)
            if key is not None:
                hit = cache.load(key)
                if hit is not None:
                    (traces, segments), digest = hit
                    if (len(traces) == num_tiles
                            and overlay_segments(mem, segments)):
                        STATUS.info(
                            f"prepare cache: hit {key[:12]} "
                            f"({func.name}, {num_tiles} tile(s))")
                        return Prepared(func, build_ddg(func), traces, mem,
                                        cache_key=key, cache_hit=True,
                                        artifact_digest=digest)
                    cache._discard(key, "artifact does not match the "
                                        "live workload")
    module = Module(func.name)
    module.add_function(func)
    interp = Interpreter(module, mem)
    if injector is not None:
        mem.injector = injector
    try:
        traces = interp.run_spmd(func.name, args, num_tiles)
    finally:
        if injector is not None:
            mem.injector = None
    prepared = Prepared(func, build_ddg(func), traces, mem)
    if cache is not None and key is not None:
        digest = cache.store(key, prepared, meta={
            "kernel": func.name, "num_tiles": num_tiles,
            "traces": len(traces)})
        prepared.cache_key = key
        prepared.artifact_digest = digest
        if digest is not None:
            STATUS.info(f"prepare cache: store {key[:12]} "
                        f"({func.name}, {num_tiles} tile(s))")
    return prepared


def _check_trace_count(prepared: Prepared, num_tiles: int,
                       strict: bool = False) -> None:
    """Symmetric trace-count validation: too few traces always raises
    (tiles would have nothing to run); extra traces warn — they are
    silently dropped otherwise, usually a sign the caller prepared for a
    different tile count — or raise under ``strict``."""
    count = len(prepared.traces)
    detail = (f"prepared traces cover {count} tile(s) but the system has "
              f"{num_tiles}; call prepare(..., num_tiles={num_tiles}) first")
    if count < num_tiles:
        raise ValueError(detail)
    if count > num_tiles:
        message = (f"{detail}; the extra {count - num_tiles} trace(s) are "
                   f"ignored")
        if strict:
            raise ValueError(message)
        STATUS.warn(message)


def _assemble(layout: Sequence[Tuple[str, CoreConfig, StaticDDG,
                                     KernelTrace]],
              queue_entries: int = DAE_QUEUE_ENTRIES, /, *,
              hierarchy: Optional[MemoryHierarchyConfig],
              accelerators: Optional[AcceleratorFarm],
              injector: Optional[FaultInjector],
              **run_options) -> Interleaver:
    """The one place a system is put together (paper §II "Timing
    Integration"): one :class:`CoreTile` per ``(name, core, ddg, trace)``
    entry of ``layout`` (tile id = position), one scheduler, memory
    system and fabric shared by all of them, and the Interleaver that
    coordinates them.

    One clock rule for every system: the global clock is the fastest
    core's, and each tile's period is that clock over its own, rounded
    to whole global cycles. ``run_options`` (budgets and instruments)
    go to the :class:`Interleaver` unchanged. ``queue_entries`` is
    positional-only so that a ``queue_entries=`` keyword given to an SPMD
    builder lands in ``run_options`` and is rejected there.
    """
    if not layout:
        raise ValueError("a system needs at least one tile")
    fastest = max(core.frequency_ghz for _, core, _, _ in layout)
    tiles = [CoreTile(name, index, core, ddg, trace,
                      period=max(1, round(fastest / core.frequency_ghz)))
             for index, (name, core, ddg, trace) in enumerate(layout)]
    for tile in tiles:
        tile.barrier_group_size = len(tiles)
    scheduler = Scheduler()
    memsys = None
    if hierarchy is not None:
        memsys = MemorySystem(hierarchy, len(tiles), scheduler, fastest,
                              injector=injector)
    if accelerators is not None and injector is not None:
        accelerators.injector = injector
    return Interleaver(tiles, memory=memsys,
                       fabric=CommFabric(queue_entries, injector=injector),
                       accelerators=accelerators, frequency_ghz=fastest,
                       scheduler=scheduler, **run_options)


def build_system(kernel: Kernel, args: Sequence, *,
                 core: Optional[CoreConfig] = None, num_tiles: int = 1,
                 **options) -> Interleaver:
    """Build (without running) the homogeneous system :func:`simulate`
    would run: :func:`build_heterogeneous` on ``[core] * num_tiles``.

    The build/run split is what checkpoint tests and the graceful-
    interrupt path hang off: the returned Interleaver can be armed for
    signals, run under a cycle budget, snapshotted, and resumed.
    """
    core = core if core is not None else CoreConfig()
    return build_heterogeneous(kernel, args, cores=[core] * num_tiles,
                               **options)


def simulate(kernel: Kernel, args: Sequence, **options) -> SystemStats:
    """One-stop homogeneous simulation: ``num_tiles`` copies of ``core``
    running the SPMD kernel over a shared memory hierarchy. Takes the
    keywords of :func:`build_system`.

    ``injector`` wires timing-level fault injection (fabric, DRAM,
    accelerators) into the run. ``prep_cache`` replays compiled kernels
    + traces from the content-addressed prepare cache (see
    ``docs/performance.md``). The run options are the
    :class:`Interleaver`'s own keywords, forwarded unchanged:
    ``max_cycles``, ``wall_clock_limit`` (the watchdog), the telemetry
    instruments ``tracer``/``metrics``/``profiler``/``attribution``/
    ``memstat``/``emitter`` (see ``docs/observability.md``) and
    ``checkpoint`` (a :class:`~repro.checkpoint.CheckpointSink`, see
    ``docs/resilience.md``). All default to off.
    """
    return build_system(kernel, args, **options).run()


def build_heterogeneous(kernel: Kernel, args: Sequence, *,
                        cores: Sequence[CoreConfig],
                        hierarchy: Optional[MemoryHierarchyConfig] = None,
                        accelerators: Optional[AcceleratorFarm] = None,
                        memory: Optional[SimMemory] = None,
                        prepared: Optional[Prepared] = None,
                        injector: Optional[FaultInjector] = None,
                        prep_cache: Optional[PrepareCache] = None,
                        strict_traces: bool = False,
                        **run_options) -> Interleaver:
    """Build (without running) the heterogeneous system
    :func:`simulate_heterogeneous` would run: tile ``i`` runs
    ``cores[i]`` and is named ``f"{cores[i].name}{i}"``."""
    for core in cores:
        core.validate()
    if prepared is None:
        prepared = prepare(kernel, args, num_tiles=len(cores),
                           memory=memory, injector=injector,
                           cache=prep_cache)
    _check_trace_count(prepared, len(cores), strict=strict_traces)
    layout = [(f"{core.name}{index}", core, prepared.ddg,
               prepared.traces[index]) for index, core in enumerate(cores)]
    return _assemble(layout, hierarchy=hierarchy, accelerators=accelerators,
                     injector=injector, **run_options)


def simulate_heterogeneous(kernel: Kernel, args: Sequence,
                           **options) -> SystemStats:
    """Heterogeneous SPMD simulation: one tile per entry of ``cores``,
    each with its own microarchitecture and clock (paper §II: "MosaicSim
    can simulate more heterogeneous processors by providing, and hence
    interleaving, more diverse models"; "tiles may run at different clock
    speeds, so the Interleaver queries and coordinates their events
    accordingly"). Takes the keywords of :func:`build_heterogeneous`.

    The global clock is the fastest tile's; slower tiles get proportional
    periods (rounded to whole global cycles).
    """
    return build_heterogeneous(kernel, args, **options).run()


@dataclass
class DAEPairSpec:
    """Trace sources for one Decoupled Access/Execute pair (§VII-A)."""

    access_trace: KernelTrace
    execute_trace: KernelTrace
    access_ddg: StaticDDG
    execute_ddg: StaticDDG


def prepare_dae_sliced(kernel: Kernel, args: Sequence, *, pairs: int = 1,
                       memory: Optional[SimMemory] = None
                       ) -> List[DAEPairSpec]:
    """Run the DAE slicing pass (paper §VII-A) on ``kernel`` and prepare
    traces for ``pairs`` access/execute pairs."""
    func = kernel if isinstance(kernel, Function) else compile_kernel(kernel)
    access_fn, execute_fn = slice_dae(func)
    return prepare_dae(access_fn, execute_fn, args, pairs=pairs,
                       memory=memory)


def prepare_dae(access_kernel: Kernel, execute_kernel: Kernel,
                args: Sequence, *, pairs: int = 1,
                memory: Optional[SimMemory] = None) -> List[DAEPairSpec]:
    """Compile and trace a DAE-sliced kernel for ``pairs`` access/execute
    core pairs. Both slices receive the same arguments and partition work
    by ``tile_id()`` over ``num_tiles() = pairs``; pair ``p``'s access and
    execute instances share DAE queue ``p``."""
    access_fn = access_kernel if isinstance(access_kernel, Function) \
        else compile_kernel(access_kernel)
    execute_fn = execute_kernel if isinstance(execute_kernel, Function) \
        else compile_kernel(execute_kernel)
    module = Module("dae")
    module.add_function(access_fn)
    module.add_function(execute_fn)
    mem = memory if memory is not None else _infer_memory(args)
    interp = Interpreter(module, mem)
    access_ddg = build_ddg(access_fn)
    mark_decoupled(access_ddg)
    execute_ddg = build_ddg(execute_fn)
    specs = []
    # slices co-execute: each pair's access and execute exchange values
    # through the (functionally unbounded) DAE queues; the timing
    # simulator applies the real 512-entry back-pressure
    for p in range(pairs):
        access_trace, execute_trace = interp.run_dae_pair(
            access_fn.name, execute_fn.name, args, pair=p, pairs=pairs)
        specs.append(DAEPairSpec(access_trace, execute_trace,
                                 access_ddg, execute_ddg))
    return specs


def build_dae(specs: List[DAEPairSpec], *,
              access_core: CoreConfig,
              execute_core: CoreConfig,
              hierarchy: Optional[MemoryHierarchyConfig] = None,
              accelerators: Optional[AcceleratorFarm] = None,
              queue_entries: int = DAE_QUEUE_ENTRIES,
              injector: Optional[FaultInjector] = None,
              **run_options) -> Interleaver:
    """Build (without running) the DAE system :func:`simulate_dae`
    would run: access tiles ``access{p}`` first, then the matching
    execute tiles ``execute{p}``; pair ``p`` shares DAE queue ``p``."""
    pairs = len(specs)
    access_core.validate()
    execute_core.validate()
    layout = ([(f"access{p}", access_core, spec.access_ddg,
                spec.access_trace) for p, spec in enumerate(specs)]
              + [(f"execute{p}", execute_core, spec.execute_ddg,
                  spec.execute_trace) for p, spec in enumerate(specs)])
    system = _assemble(layout, queue_entries, hierarchy=hierarchy,
                       accelerators=accelerators, injector=injector,
                       **run_options)
    for index, tile in enumerate(system.tiles):
        p = index % pairs
        tile.dae_queue_names = {"load": f"load{p}", "store": f"store{p}"}
        tile.barrier_group = "dae-access" if index < pairs else "dae-execute"
        tile.barrier_group_size = pairs
    return system


def simulate_dae(specs: List[DAEPairSpec], **options) -> SystemStats:
    """Simulate P DAE pairs: tiles 0..P-1 are access cores, P..2P-1 the
    matching execute cores, communicating through bounded DAE queues.
    Takes the keywords of :func:`build_dae`."""
    return build_dae(specs, **options).run()


# -- graceful interrupts (robustness layer) --------------------------------------

@contextlib.contextmanager
def graceful_interrupts(interleaver: Interleaver,
                        signals: Sequence[int] = (_signal.SIGINT,
                                                  _signal.SIGTERM)):
    """Convert SIGINT/SIGTERM during ``interleaver.run()`` into a clean
    :class:`SimulationInterrupted` carrying a final checkpoint (when a
    sink is attached) and partial stats, instead of an arbitrary-point
    KeyboardInterrupt that can tear the run mid-event.

    The handler itself only notes the signal number; the run loop acts
    on it at the next snapshot consistency point. A second signal of the
    same kind falls back to Python's default behavior only after the
    handlers are restored (on exit from the ``with`` block). No-op when
    not running in the main thread (signal handlers cannot be installed
    there).
    """
    interleaver.arm_interrupts()

    def _note(signum, frame):
        interleaver.request_interrupt(signum)

    previous = {}
    try:
        for signum in signals:
            previous[signum] = _signal.signal(signum, _note)
    except ValueError:  # not the main thread: run unprotected
        pass
    try:
        yield interleaver
    finally:
        for signum, handler in previous.items():
            _signal.signal(signum, handler)


# -- fault injection + supervised runs (robustness layer) ------------------------

@dataclass
class FaultedRun:
    """Result of :func:`run_with_faults`: stats plus the fault log."""

    stats: SystemStats
    fault_log: Tuple[FaultRecord, ...]
    injector: FaultInjector


def run_with_faults(kernel: Kernel, args: Sequence, *,
                    plan: FaultPlan,
                    core: Optional[CoreConfig] = None,
                    num_tiles: int = 1,
                    hierarchy: Optional[MemoryHierarchyConfig] = None,
                    accelerators: Optional[AcceleratorFarm] = None,
                    memory: Optional[SimMemory] = None,
                    max_cycles: int = DEFAULT_MAX_CYCLES,
                    wall_clock_limit: Optional[float] = None) -> FaultedRun:
    """Simulate under a deterministic :class:`FaultPlan`.

    The same ``plan`` (same seed) over the same workload reproduces the
    exact same faults, and therefore bit-identical :class:`SystemStats`
    and fault logs — the property the resilience tests assert.
    """
    plan.validate()
    injector = FaultInjector(plan)
    stats = simulate(kernel, args, core=core, num_tiles=num_tiles,
                     hierarchy=hierarchy, accelerators=accelerators,
                     memory=memory, max_cycles=max_cycles,
                     wall_clock_limit=wall_clock_limit, injector=injector)
    return FaultedRun(stats, tuple(injector.log), injector)


@dataclass
class RunOutcome:
    """Per-run record kept by the supervisor (and by sweeps): what
    happened, how many attempts it took, and how long it ran."""

    status: str                      # ok | deadlock | timeout | fault |
                                     # error | config-error | interrupted
    stats: Optional[SystemStats] = None
    error: str = ""
    attempts: int = 1
    fault_log: Tuple[FaultRecord, ...] = ()
    wall_seconds: float = 0.0
    #: simulator self-profile (set when the run carried a SelfProfiler)
    profile: Optional[ProfileReport] = None
    #: checkpoint flushed before the failure, resumable via
    #: repro.checkpoint.resume_simulation (set when a sink was attached
    #: and the run died at a snapshottable point)
    checkpoint_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def classify_failure(exc: BaseException) -> str:
    """Map a simulation exception to a coarse outcome label."""
    if isinstance(exc, SimulationInterrupted):
        return "interrupted"
    if isinstance(exc, DeadlockError):
        return "deadlock"
    if isinstance(exc, (CycleBudgetExceeded, WatchdogTimeout)):
        return "timeout"
    if isinstance(exc, AcceleratorFaultError):
        return "fault"
    if isinstance(exc, ConfigError):
        return "config-error"
    if isinstance(exc, SimulationError):
        return "error"
    return "error"


def _is_transient(exc: BaseException) -> bool:
    """Only transient faults are worth retrying: deadlocks and cycle
    budget blowouts are deterministic under a fixed plan, but a reseeded
    plan changes the fault pattern, so fault-class failures may clear."""
    if isinstance(exc, AcceleratorFaultError):
        return exc.transient
    return isinstance(exc, (DeadlockError, CycleBudgetExceeded,
                            WatchdogTimeout))


def run_supervised(kernel: Kernel, args: Sequence, *,
                   plan: Optional[FaultPlan] = None,
                   memory: Optional[SimMemory] = None,
                   retries: int = 0,
                   backoff_seconds: float = 0.0,
                   fresh: Optional[Callable[[], tuple]] = None,
                   prepared: Optional[Prepared] = None,
                   profiler=None, **options) -> RunOutcome:
    """Run a simulation under supervision: cycle budget, wall-clock
    watchdog, and retry-with-backoff for transient faults. The system
    and run options (``core``, ``num_tiles``, ``hierarchy``,
    ``max_cycles``, ``wall_clock_limit``, ``prep_cache``, instruments,
    ...) go to :func:`simulate` unchanged on every attempt.

    Never raises for simulation failures — returns a :class:`RunOutcome`
    whose ``status`` classifies what happened, so sweeps degrade
    gracefully instead of dying on the first bad configuration.

    Retries re-run with ``plan.reseeded(attempt)`` so a different (but
    still deterministic) fault pattern is drawn each attempt. When the
    workload mutates its own memory (most kernels do), pass ``fresh``: a
    zero-argument callable returning a new ``(kernel, args, memory)``
    triple per attempt, so retries start from pristine state.

    ``prepared`` reuses an existing artifact for the first attempt
    (dropped when a fault injector is active or ``fresh`` rebuilt the
    workload); ``prep_cache`` makes any re-prepare a cache replay.

    With ``checkpoint`` (a CheckpointSink), the run autosaves and — the
    supervisor integration — flushes a final snapshot *before* the cycle
    budget or watchdog failure propagates, so ``RunOutcome.
    checkpoint_path`` points at a resumable snapshot of the work already
    done instead of throwing those cycles away.
    """
    attempts = 0
    start = time.monotonic()
    last_exc: Optional[BaseException] = None
    fault_log: Tuple[FaultRecord, ...] = ()
    while attempts <= retries:
        attempt_plan = plan.reseeded(attempts) if plan is not None else None
        injector = FaultInjector(attempt_plan) \
            if attempt_plan is not None and attempt_plan.enabled else None
        k, a, m = kernel, args, memory
        attempt_prepared = prepared
        if fresh is not None and attempts > 0:
            k, a, m = fresh()
            # the caller's Prepared is bound to the original memory;
            # retries on pristine state must re-prepare (the cache makes
            # that cheap)
            attempt_prepared = None
        if injector is not None:
            # an injector corrupts functional loads during trace
            # generation; a Prepared made without it would skip that
            attempt_prepared = None
        attempts += 1
        try:
            stats = simulate(k, a, memory=m, prepared=attempt_prepared,
                             injector=injector, profiler=profiler,
                             **options)
            return RunOutcome(
                "ok", stats=stats, attempts=attempts,
                fault_log=tuple(injector.log) if injector else (),
                wall_seconds=time.monotonic() - start,
                profile=profiler.report if profiler is not None else None)
        except (SimulationError, ConfigError) as exc:
            last_exc = exc
            fault_log = tuple(injector.log) if injector else ()
            if attempts <= retries and _is_transient(exc):
                if backoff_seconds > 0:
                    time.sleep(backoff_seconds * (2 ** (attempts - 1)))
                continue
            break
    partial = getattr(last_exc, "partial_stats", None)
    profile = None
    if profiler is not None:
        # deadlock/budget failures propagate before the Interleaver
        # finalizes the profile; the phase buckets still tell where the
        # failed run's wall-clock went, so finalize them here
        profile = profiler.report
        if profile is None:
            profile = profiler.finish(
                partial.cycles if partial is not None else 0,
                partial.instructions if partial is not None else 0)
    return RunOutcome(
        classify_failure(last_exc), error=str(last_exc), attempts=attempts,
        stats=partial, fault_log=fault_log,
        wall_seconds=time.monotonic() - start, profile=profile,
        checkpoint_path=getattr(last_exc, "checkpoint_path", None))
