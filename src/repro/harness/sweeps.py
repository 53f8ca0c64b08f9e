"""Design-space sweep utilities.

The paper's pitch is agile design-space exploration: "MosaicSim allows
the exploration of many combinations and configurations through its
lightweight plug-and-play interface" (§VII-B). These helpers run one
prepared workload across a grid of core/memory configurations and return
tidy result tables, reusing traces so each configuration costs only a
timing-simulation pass.

Sweeps degrade gracefully: a configuration that deadlocks, blows its
cycle budget, or fails validation is recorded as a non-``ok`` point and
the sweep continues, so one bad corner of the design space never costs
the whole exploration.

Sweeps are embarrassingly parallel — every point re-times the same
prepared traces under an independent system — so each sweep entry point
takes ``jobs``: with ``jobs > 1`` the points run on a process pool. The
:class:`Prepared` workload is shipped to each worker exactly once
(packed by :mod:`repro.ioutil`, via the pool initializer), a point is a
pure-data spec the worker can rebuild the system from, and failures
inside a worker land in the same non-``ok`` SweepPoint records as
serial sweeps. Point
order — and therefore every stat — is identical to a serial run (see
docs/performance.md). ``on_error="raise"`` forces serial execution so
the first failure propagates with its traceback.

Sweeps are also crash-recoverable (see ``docs/resilience.md``): with
``journal_path`` every completed point is appended to a JSONL journal
(its index, a parameter fingerprint, a workload digest, the outcome, a
digest of the canonical report, and the packed stats), and
``resume=True`` skips points journaled for the same workload on a
re-run, reconstructing them bit-identically. A worker that dies *hard*
— SIGKILL, OOM — no longer hangs the sweep: the broken pool is
detected, unfinished points are retried on a fresh pool with backoff,
and a point whose retries are exhausted is recorded as
``outcome="worker_died"``.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import multiprocessing
import os
import pickle
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..ioutil import canonical_digest, code_fingerprint, pack, unpack
from ..ir import format_function
from ..resilience.faults import FaultInjector
from ..sim.config import ConfigError, CoreConfig, MemoryHierarchyConfig
from ..sim.errors import SimulationError
from ..sim.statistics import SystemStats
from ..telemetry.livestream import HeartbeatEmitter
from .reporting import render_table
from .runner import (
    DEFAULT_MAX_CYCLES, Prepared, classify_failure, simulate,
)
from .status import STATUS
from .watch import SweepLiveStatus, live_path_for


@dataclass
class SweepPoint:
    """One configuration's results (or its failure record)."""

    parameters: Dict[str, object]
    stats: Optional[SystemStats]
    outcome: str = "ok"
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    @property
    def cycles(self) -> Optional[int]:
        return self.stats.cycles if self.stats is not None else None

    @property
    def ipc(self) -> Optional[float]:
        return self.stats.ipc if self.stats is not None else None

    @property
    def edp(self) -> Optional[float]:
        return self.stats.edp if self.stats is not None else None


@dataclass
class SweepResult:
    points: List[SweepPoint] = field(default_factory=list)

    def best(self, metric: str = "cycles") -> SweepPoint:
        successful = [p for p in self.points if p.ok]
        if not successful:
            raise ValueError("no successful points")
        return min(successful, key=lambda p: getattr(p, metric))

    def outcomes(self) -> Dict[str, int]:
        """Outcome label -> count, e.g. {"ok": 6, "deadlock": 1}."""
        return dict(Counter(point.outcome for point in self.points))

    def table(self, metrics: Sequence[str] = ("cycles", "ipc"),
              title: str = "") -> str:
        if not self.points:
            return title
        param_names = sorted(self.points[0].parameters)
        headers = param_names + list(metrics) + ["outcome"]
        rows = []
        for point in self.points:
            row = [point.parameters[name] for name in param_names]
            for metric in metrics:
                value = getattr(point, metric)
                row.append(value if value is not None else "-")
            row.append(point.outcome)
            rows.append(row)
        return render_table(headers, rows, title=title)


def _run_point(parameters: Dict[str, object], simulate_call,
               on_error: str) -> SweepPoint:
    try:
        stats = simulate_call()
    except (SimulationError, ConfigError) as exc:
        if on_error == "raise":
            raise
        return SweepPoint(parameters, None, outcome=classify_failure(exc),
                          error=str(exc))
    return SweepPoint(parameters, stats)


# -- crash-recoverable sweep journal ----------------------------------------

#: bump when the journal line layout changes incompatibly
SWEEP_JOURNAL_VERSION = 1


def _params_key(parameters: Dict[str, object]) -> str:
    """Stable fingerprint of a point's parameters; parameter values may
    be arbitrary objects (FaultPlans, config names), so the key is the
    repr of the sorted items, not JSON."""
    return repr(sorted(parameters.items(), key=lambda item: item[0]))


def _stats_digest(stats: Optional[SystemStats]) -> Optional[str]:
    if stats is None:
        return None
    from ..telemetry import stats_to_dict
    return canonical_digest(stats_to_dict(stats))


def workload_digest(prepared) -> str:
    """SHA-256 over the code fingerprint, the formatted IR and the
    traces a sweep re-times: journal entries restore only onto the
    workload that produced them. A campaign payload digests its golden
    Prepared."""
    if not isinstance(prepared, Prepared):
        prepared = prepared.prepared
    hasher = hashlib.sha256(code_fingerprint())
    hasher.update(format_function(prepared.function).encode("utf-8"))
    hasher.update(pickle.dumps(prepared.traces, protocol=4))
    return hasher.hexdigest()


class SweepJournal:
    """Append-only JSONL record of completed sweep points.

    One line per completed point: journal version, point index, the
    parameter fingerprint, the workload digest, outcome, error, a digest
    of the canonical stats report, and the stats themselves (packed by
    :mod:`repro.ioutil`, base64) — so a resumed sweep reconstructs
    skipped points *bit-identically*, not just approximately. Lines are
    flushed and fsynced as each point completes; a torn final line from
    a crash is ignored on load. ``worker_died`` points are never
    journaled, so a resume retries them.
    """

    def __init__(self, path: str):
        self.path = path

    def append(self, index: int, parameters: Dict[str, object],
               point: SweepPoint, workload: str) -> None:
        stats_blob = None
        if point.stats is not None:
            stats_blob = base64.b64encode(pack(point.stats)).decode("ascii")
        line = json.dumps({
            "version": SWEEP_JOURNAL_VERSION,
            "index": index,
            "parameters": _params_key(parameters),
            "workload": workload,
            "outcome": point.outcome,
            "error": point.error,
            "digest": _stats_digest(point.stats),
            "stats": stats_blob,
        })
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def load(self, workload: Optional[str] = None) -> Dict[int, dict]:
        """Journaled entries by point index (last write wins), only
        those of ``workload`` when given; missing file means an empty
        journal, and a torn tail line ends the scan — everything after
        it simply re-runs."""
        entries: Dict[int, dict] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return entries
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except ValueError:
                break
            if (not isinstance(document, dict)
                    or document.get("version") != SWEEP_JOURNAL_VERSION
                    or not isinstance(document.get("index"), int)
                    or (workload is not None
                        and document.get("workload") != workload)):
                continue
            entries[document["index"]] = document
        return entries

    @staticmethod
    def restore_point(parameters: Dict[str, object],
                      entry: dict) -> Optional[SweepPoint]:
        """Rebuild the SweepPoint a journal entry records, verifying the
        stats digest; None when the entry does not decode (the caller
        re-runs the point)."""
        stats = None
        if entry.get("stats") is not None:
            try:
                stats = unpack(base64.b64decode(entry["stats"]))
            except Exception as exc:
                STATUS.warn(f"sweep journal: point "
                            f"{entry.get('index')} stats blob does not "
                            f"decode ({exc}); re-running the point")
                return None
            if _stats_digest(stats) != entry.get("digest"):
                STATUS.warn(f"sweep journal: point "
                            f"{entry.get('index')} stats digest "
                            f"mismatch; re-running the point")
                return None
        return SweepPoint(parameters, stats,
                          outcome=entry.get("outcome", "ok"),
                          error=entry.get("error", ""))


# -- sweep execution: serial or worker pool --------------------------------
#
# A sweep point is (parameters, spec): ``parameters`` labels the point in
# the result table; ``spec`` is a pure-data dict of ``simulate`` keyword
# arguments, plus two convenience keys resolved at run time —
# ``hierarchy_factory`` (rebuilds a cold memory config per point) and
# ``plan`` (a FaultPlan wired in as a fresh FaultInjector). Pure data is
# what makes the spec picklable, which is what lets a worker process
# execute it against its own copy of the Prepared workload.
#
# A spec may instead carry ``point_runner``: a picklable callable
# ``(parameters, spec, payload) -> SweepPoint`` that replaces the
# default simulate path entirely. The payload is whatever object the
# caller handed _execute_sweep as ``prepared`` — the fault-campaign
# engine ships a CampaignPayload (golden Prepared + pristine workload
# blob) this way and keeps the journal/resume/worker-death machinery
# for free.

#: per-worker-process Prepared workload, installed by _worker_init
_WORKER_PREPARED: Optional[Prepared] = None
#: heartbeat fan-in queue shared with the coordinator (None = no live
#: progress requested); workers publish (index, kind, payload) tuples
_WORKER_HB_QUEUE = None
_WORKER_HB_EVERY: Optional[int] = None


def _worker_init(payload: bytes, hb_queue=None,
                 hb_every: Optional[int] = None) -> None:
    global _WORKER_PREPARED, _WORKER_HB_QUEUE, _WORKER_HB_EVERY
    _WORKER_PREPARED = unpack(payload)
    _WORKER_HB_QUEUE = hb_queue
    _WORKER_HB_EVERY = hb_every


def _execute_spec(prepared: Prepared, spec: Dict,
                  emitter: Optional[HeartbeatEmitter] = None) -> SystemStats:
    spec = dict(spec)
    factory = spec.pop("hierarchy_factory", None)
    if factory is not None:
        spec["hierarchy"] = factory()
    plan = spec.pop("plan", None)
    if plan is not None:
        plan.validate()
        spec["injector"] = FaultInjector(plan)
    if emitter is not None:
        spec["emitter"] = emitter
    return simulate(prepared.function, [], prepared=prepared, **spec)


class _LiveSend:
    """In-process heartbeat sink for serial sweeps: heartbeats go
    straight into the live status, no queue hop."""

    def __init__(self, live, index: int):
        self.live = live
        self.index = index

    def __call__(self, heartbeat: dict) -> None:
        self.live.heartbeat(self.index, heartbeat)


class _QueueSend:
    """Picklable heartbeat sink: tags each heartbeat with its point
    index and publishes it on the coordinator's fan-in queue."""

    def __init__(self, queue, index: int):
        self.queue = queue
        self.index = index

    def __call__(self, heartbeat: dict) -> None:
        self.queue.put((self.index, "hb", heartbeat))


def _worker_point(task: Tuple[int, Dict, Dict, str]) -> SweepPoint:
    index, parameters, spec, on_error = task
    runner = spec.get("point_runner")
    if runner is not None:
        return runner(parameters, spec, _WORKER_PREPARED)
    if _WORKER_HB_QUEUE is not None:
        try:
            _WORKER_HB_QUEUE.put((index, "start", None))
        except Exception as exc:
            # a dead coordinator queue must not fail the point, but the
            # lost live progress should be observable on worker stderr
            STATUS.warn(f"sweep point {index}: heartbeat queue "
                        f"unreachable ({exc}); live progress for this "
                        f"point is lost")
        emitter = HeartbeatEmitter(
            send=_QueueSend(_WORKER_HB_QUEUE, index),
            every_cycles=_WORKER_HB_EVERY or 100_000,
            source={"point": index})
        run = lambda: _execute_spec(_WORKER_PREPARED, spec, emitter)
    else:
        # two-arg call kept distinct so tests can stub _execute_spec
        # without caring about heartbeats
        run = lambda: _execute_spec(_WORKER_PREPARED, spec)
    return _run_point(parameters, run, on_error)


def _execute_parallel(payload: bytes,
                      todo: List[Tuple[int, Dict, Dict]],
                      on_error: str, jobs: int,
                      point_retries: int, retry_backoff: float,
                      collected, hb_queue=None,
                      hb_every: Optional[int] = None) -> None:
    """Run ``(index, parameters, spec)`` tasks on a process pool,
    surviving hard worker deaths.

    A SIGKILLed/OOMed worker breaks the whole executor: its unfinished
    futures all raise :class:`BrokenProcessPool`. Finished results are
    kept, the survivors are retried on a fresh pool (with exponential
    backoff), and a point still unfinished after ``point_retries``
    extra rounds is recorded as ``outcome="worker_died"`` — the sweep
    never hangs and never silently drops a point. ``collected(index,
    parameters, point)`` receives every result, in index order within
    each round.
    """
    pending = todo
    attempt = 0
    while pending:
        workers = min(jobs, len(pending))
        broken = False
        survivors: List[Tuple[int, Dict, Dict]] = []
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_worker_init,
                                 initargs=(payload, hb_queue,
                                           hb_every)) as pool:
            futures = []
            try:
                for index, parameters, spec in pending:
                    futures.append((index, parameters,
                                    pool.submit(_worker_point,
                                                (index, parameters, spec,
                                                 on_error))))
            except BrokenProcessPool:
                broken = True
            for position, (index, parameters, future) in enumerate(futures):
                try:
                    collected(index, parameters, future.result())
                except BrokenProcessPool:
                    broken = True
                    survivors.append(pending[position])
            # tasks never submitted (pool broke first) must retry too
            survivors.extend(pending[len(futures):])
        if not broken:
            return
        attempt += 1
        if attempt > point_retries:
            for index, parameters, spec in survivors:
                STATUS.warn(f"sweep point {index}: worker died hard and "
                            f"retries are exhausted; recording "
                            f"worker_died")
                collected(index, parameters, SweepPoint(
                    parameters, None, outcome="worker_died",
                    error=f"worker process died hard (SIGKILL/OOM) and "
                          f"{point_retries} retries were exhausted"))
            return
        STATUS.warn(f"sweep worker pool broke (attempt {attempt}/"
                    f"{point_retries}); retrying {len(survivors)} "
                    f"unfinished point(s) on a fresh pool")
        if retry_backoff > 0:
            time.sleep(retry_backoff * (2 ** (attempt - 1)))
        pending = survivors


def _drain_heartbeats(queue, live: SweepLiveStatus) -> None:
    """Coordinator-side fan-in thread: fold worker heartbeats into the
    live status sidecar until the None sentinel arrives."""
    while True:
        item = queue.get()
        if item is None:
            return
        index, kind, payload = item
        if kind == "start":
            live.point_started(index)
        elif kind == "hb":
            live.heartbeat(index, payload)


def _execute_sweep(prepared: Prepared, tasks: List[Tuple[Dict, Dict]],
                   on_error: str, jobs: int,
                   journal_path: Optional[str] = None,
                   resume: bool = False,
                   point_retries: int = 2,
                   retry_backoff: float = 0.0,
                   heartbeat_every: Optional[int] = None) -> SweepResult:
    """Run every (parameters, spec) task; in order, serially or on a pool.

    Workers receive the Prepared workload once (packed by
    :mod:`repro.ioutil`, via the pool initializer), then stream pure-data
    specs. Results are assembled in submission order, so the SweepResult
    is bit-identical to a serial sweep — each point's simulation is an
    isolated deterministic run either way. ``on_error="raise"``
    executes serially so the first failure propagates with a usable
    traceback.

    With ``journal_path``, completed points are journaled as they finish;
    ``resume=True`` additionally skips points the journal already has
    (matched by index + parameter fingerprint + workload digest) and
    restores their results bit-identically. Hard worker deaths are
    retried ``point_retries`` times with exponential ``retry_backoff``
    before a point is recorded as ``worker_died`` (parallel mode; a
    serial worker death kills the process itself, which is exactly what
    the journal recovers from).

    With ``heartbeat_every`` (a cycle stride) and a ``journal_path``,
    running points stream heartbeats into a ``<journal>.live.json``
    sidecar — serially in-process, in parallel over a multiprocessing
    fan-in queue — which ``repro watch`` renders as a live dashboard.
    Heartbeats are advisory: they never change point results (the
    emitter only reads simulation state at consistency points), so
    serial/parallel bit-identity is preserved.
    """
    if resume and journal_path is None:
        raise ValueError("resume=True needs a journal_path to resume from")
    journal = SweepJournal(journal_path) if journal_path else None
    live: Optional[SweepLiveStatus] = None
    if heartbeat_every is not None and journal_path is not None:
        live = SweepLiveStatus(live_path_for(journal_path), len(tasks))
    points: List[Optional[SweepPoint]] = [None] * len(tasks)
    todo: List[Tuple[int, Dict, Dict]] = []
    workload = workload_digest(prepared) if journal is not None else None
    entries = journal.load(workload) if resume else {}
    for index, (parameters, spec) in enumerate(tasks):
        entry = entries.get(index)
        if entry is not None and entry.get("parameters") == \
                _params_key(parameters):
            restored = SweepJournal.restore_point(parameters, entry)
            if restored is not None:
                points[index] = restored
                continue
        todo.append((index, parameters, spec))

    def collected(index: int, parameters: Dict, point: SweepPoint) -> None:
        points[index] = point
        if journal is not None and point.outcome != "worker_died":
            journal.append(index, parameters, point, workload)
        if live is not None:
            live.point_done(index, point)
        STATUS.verbose(f"sweep point {index}: {point.outcome}"
                       + (f" ({point.cycles} cycles)"
                          if point.cycles is not None else ""))

    jobs = min(jobs, len(todo))
    if jobs <= 1 or len(todo) <= 1 or on_error == "raise":
        for index, parameters, spec in todo:
            runner = spec.get("point_runner")
            if runner is not None:
                if live is not None:
                    live.point_started(index)
                collected(index, parameters,
                          runner(parameters, spec, prepared))
                continue
            if live is not None:
                live.point_started(index)
                emitter = HeartbeatEmitter(
                    send=_LiveSend(live, index),
                    every_cycles=heartbeat_every,
                    source={"point": index})
                run = (lambda s=spec, e=emitter:
                       _execute_spec(prepared, s, e))
            else:
                # two-arg call kept distinct so tests can stub
                # _execute_spec without caring about heartbeats
                run = lambda s=spec: _execute_spec(prepared, s)
            collected(index, parameters,
                      _run_point(parameters, run, on_error))
    elif todo:
        payload = pack(prepared)
        hb_queue = None
        manager = None
        drain = None
        if live is not None:
            manager = multiprocessing.Manager()
            hb_queue = manager.Queue()
            drain = threading.Thread(target=_drain_heartbeats,
                                     args=(hb_queue, live), daemon=True)
            drain.start()
        try:
            _execute_parallel(payload, todo, on_error, jobs,
                              point_retries, retry_backoff, collected,
                              hb_queue=hb_queue,
                              hb_every=heartbeat_every)
        finally:
            if drain is not None:
                hb_queue.put(None)
                drain.join(timeout=10)
            if manager is not None:
                manager.shutdown()
    return SweepResult(points)


def sweep_core(prepared: Prepared, base: CoreConfig,
               grid: Dict[str, Iterable], *,
               hierarchy: Optional[MemoryHierarchyConfig] = None,
               hierarchy_factory: Optional[
                   Callable[[], MemoryHierarchyConfig]] = None,
               num_tiles: int = 1,
               max_cycles: int = DEFAULT_MAX_CYCLES,
               wall_clock_limit: Optional[float] = None,
               on_error: str = "record",
               jobs: int = 1,
               journal_path: Optional[str] = None,
               resume: bool = False,
               point_retries: int = 2,
               retry_backoff: float = 0.0,
               heartbeat_every: Optional[int] = None) -> SweepResult:
    """Simulate ``prepared`` under every combination of core-config
    overrides in ``grid`` (a dict of CoreConfig field -> values).

    The special grid key ``"plan"`` holds :class:`FaultPlan` values (or
    ``None``) instead of a core-config field: each point runs under a
    fresh :class:`FaultInjector` for its plan, so fault scenarios sweep
    like any other axis.

    ``hierarchy_factory`` rebuilds the memory system per point (cold
    caches for every configuration); passing ``hierarchy`` reuses one
    config object but still constructs a fresh MemorySystem per run.

    ``on_error="record"`` (default) turns failures into non-``ok``
    points; ``on_error="raise"`` propagates the first failure.
    ``jobs > 1`` distributes points over a worker pool (same results,
    same order). ``journal_path``/``resume``/``point_retries``/
    ``retry_backoff`` make the sweep crash-recoverable — see
    :func:`_execute_sweep` and ``docs/resilience.md``.
    ``heartbeat_every`` (with a journal) streams live per-point
    progress for ``repro watch`` — see ``docs/observability.md``.
    """
    names = sorted(grid)
    tasks = []
    for combo in itertools.product(*(list(grid[name]) for name in names)):
        overrides = dict(zip(names, combo))
        core_overrides = dict(overrides)
        plan = core_overrides.pop("plan", None)
        spec = {
            "core": replace(base, **core_overrides),
            "num_tiles": num_tiles,
            "max_cycles": max_cycles,
            "wall_clock_limit": wall_clock_limit,
            "plan": plan,
        }
        if hierarchy_factory is not None:
            spec["hierarchy_factory"] = hierarchy_factory
        else:
            spec["hierarchy"] = hierarchy
        tasks.append((overrides, spec))
    return _execute_sweep(prepared, tasks, on_error, jobs,
                          journal_path=journal_path, resume=resume,
                          point_retries=point_retries,
                          retry_backoff=retry_backoff,
                          heartbeat_every=heartbeat_every)


def sweep_hierarchy(prepared: Prepared, core: CoreConfig,
                    configurations: Dict[str, MemoryHierarchyConfig], *,
                    num_tiles: int = 1,
                    max_cycles: int = DEFAULT_MAX_CYCLES,
                    wall_clock_limit: Optional[float] = None,
                    on_error: str = "record",
                    jobs: int = 1,
                    journal_path: Optional[str] = None,
                    resume: bool = False,
                    point_retries: int = 2,
                    retry_backoff: float = 0.0,
                    heartbeat_every: Optional[int] = None) -> SweepResult:
    """Simulate ``prepared`` under each named memory-hierarchy config."""
    tasks = [({"hierarchy": name},
              {"core": core, "num_tiles": num_tiles,
               "hierarchy": hierarchy, "max_cycles": max_cycles,
               "wall_clock_limit": wall_clock_limit})
             for name, hierarchy in configurations.items()]
    return _execute_sweep(prepared, tasks, on_error, jobs,
                          journal_path=journal_path, resume=resume,
                          point_retries=point_retries,
                          retry_backoff=retry_backoff,
                          heartbeat_every=heartbeat_every)


def sweep_runs(prepared: Prepared, runs: Dict[str, Dict], *,
               on_error: str = "record",
               jobs: int = 1,
               journal_path: Optional[str] = None,
               resume: bool = False,
               point_retries: int = 2,
               retry_backoff: float = 0.0,
               heartbeat_every: Optional[int] = None,
               prep_cache=None) -> SweepResult:
    """Simulate ``prepared`` once per named run configuration.

    Each value of ``runs`` is a dict of :func:`simulate` keyword
    arguments (``core``, ``hierarchy``, ``max_cycles``, ...) plus an
    optional ``"plan"`` key holding a :class:`FaultPlan` for that run.
    Failing runs are recorded (deadlock/timeout/fault/...) and the sweep
    continues — the acceptance scenario for resilient exploration.
    ``prep_cache`` is accepted for existing callers and unused: workers
    receive ``prepared`` itself.
    """
    tasks = [({"run": name}, dict(kwargs)) for name, kwargs in runs.items()]
    return _execute_sweep(prepared, tasks, on_error, jobs,
                          journal_path=journal_path, resume=resume,
                          point_retries=point_retries,
                          retry_backoff=retry_backoff,
                          heartbeat_every=heartbeat_every)
