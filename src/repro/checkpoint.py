"""Deterministic checkpoint/restore of a live simulation.

A checkpoint is a pickled snapshot of the *entire* simulation object
graph, taken at a consistency point of the Interleaver's outer loop:
the Scheduler heap (cancellable events included), the Interleaver's
active set and cycle cursor, per-tile CoreTile dynamic state (window,
MAO, DynNodes, branch state), cache/MSHR/coherence/DRAM/NoC in-flight
requests, CommFabric message buffers and DAE queues, accelerator farm
state, FaultInjector RNG streams, and the telemetry ledgers
(attribution cursors, metrics registry, tracer ring). Every callback
that can sit in the scheduler heap or a fabric waiter queue is a
module-level callable class or a bound method — never a closure — which
is what makes the whole graph picklable (see ``docs/resilience.md``).

The hard guarantee is **resume-identity**: a run killed at any cycle
and resumed from its checkpoint produces bit-identical final
``SystemStats`` (cycles, energy, attribution, metrics) to an
uninterrupted run. This holds because snapshots are only taken at the
top of the outer Interleaver loop (and at the ``CycleBudgetExceeded`` /
outer-loop ``WatchdogTimeout`` raise sites, which are the same point):
at that point every event due at the saved cycle has fired and every
due tile has stepped to a fixed point, so re-entering the loop replays
the exact decisions an uninterrupted run would have made.

On disk a checkpoint is the artifact envelope of :mod:`repro.ioutil`
(magic, ``ARTIFACT_FORMAT``, the writing code's fingerprint, payload
SHA-256 and length) around a zlib-compressed pickle of ``{"cycle",
"interleaver"}``. A snapshot written by different simulator code is
refused, never resumed.

Writes are atomic (temp file + fsync + rename, via :mod:`repro.ioutil`)
and :class:`CheckpointSink` rotates the last ``keep`` snapshots, so a
crash mid-save never loses the previous good checkpoint. Every load
failure — missing file, wrong magic, format or code mismatch,
truncation, corruption — raises a structured
:class:`~repro.sim.errors.CheckpointError`, never a pickle traceback.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .ioutil import ArtifactError, atomic_write_bytes, pack, unpack
from .sim.errors import CheckpointError

__all__ = [
    "Checkpoint", "CheckpointError",
    "CheckpointSink", "find_injector", "load_checkpoint",
    "resume_simulation", "save_checkpoint",
]


@dataclass
class Checkpoint:
    """A restored snapshot: the live Interleaver plus its cycle cursor.

    ``run_id`` is the originating run's registry id (None for snapshots
    taken without one): a resumed
    run keeps writing artifacts under the same id, so the whole
    crash/resume lineage stays joinable."""

    cycle: int
    interleaver: object
    run_id: Optional[str] = None


def save_checkpoint(interleaver, path: str, *, cycle: int,
                    run_id: Optional[str] = None) -> str:
    """Snapshot ``interleaver`` (paused at ``cycle``) to ``path``.

    Must only be called at an outer-loop consistency point — the
    Interleaver's autosave/raise hooks guarantee that; tests use
    ``max_cycles`` to stop at one. Returns ``path``.
    """
    if getattr(interleaver, "profiler", None) is not None:
        raise CheckpointError(
            "cannot checkpoint a run with a SelfProfiler attached: "
            "wall-clock self-profiles are meaningless across a "
            "crash/restore boundary (and the timing wrappers are not "
            "picklable); run without --profile to checkpoint")
    document = {"cycle": cycle, "interleaver": interleaver}
    if run_id is not None:
        document["run_id"] = run_id
    try:
        # level 1: autosaves sit on the simulation's critical path, and
        # the pickle compresses ~8:1 even at the fastest setting
        blob = pack(document, level=1)
    except ArtifactError as exc:
        raise CheckpointError(
            f"simulation state is not snapshottable: {exc}") from exc
    atomic_write_bytes(path, blob)
    return path


def load_checkpoint(path: str) -> Checkpoint:
    """Restore a :class:`Checkpoint` from ``path``.

    Raises :class:`CheckpointError` with a precise message on every
    failure mode (missing/foreign file, format or code mismatch,
    truncated or corrupt payload).
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path!r}: {exc}") from exc
    try:
        document = unpack(blob)
    except ArtifactError as exc:
        raise CheckpointError(f"checkpoint {path!r}: {exc}; re-run the "
                              f"original simulation to produce a fresh "
                              f"snapshot") from exc
    cycle = document["cycle"]
    interleaver = document["interleaver"]
    # arm the run loop to continue from the snapshot cycle
    interleaver._resume_cycle = cycle
    # .get(): snapshots taken without a run id carry none
    return Checkpoint(cycle, interleaver, run_id=document.get("run_id"))


class CheckpointSink:
    """Autosave policy handed to the Interleaver: write a snapshot to
    ``path`` every ``every_cycles`` simulated cycles (polled on the
    run loop's existing ``& 63`` watchdog stride), keeping the last
    ``keep`` snapshots (``path``, ``path.1``, ... oldest last)."""

    def __init__(self, path: str, every_cycles: int, keep: int = 2,
                 run_id: Optional[str] = None):
        if every_cycles <= 0:
            raise ValueError(
                f"checkpoint interval must be positive, got {every_cycles}")
        if keep < 1:
            raise ValueError(f"must keep at least 1 checkpoint, got {keep}")
        self.path = path
        self.every_cycles = every_cycles
        self.keep = keep
        #: provenance stamped into every snapshot this sink writes
        self.run_id = run_id
        self.last_cycle = 0
        self.saves = 0
        #: most recently written snapshot (None until the first save)
        self.last_path: Optional[str] = None

    def due(self, cycle: int) -> bool:
        return cycle - self.last_cycle >= self.every_cycles

    def _rotate(self) -> None:
        if self.keep <= 1 or not os.path.exists(self.path):
            return
        for index in range(self.keep - 1, 1, -1):
            older = f"{self.path}.{index - 1}"
            if os.path.exists(older):
                os.replace(older, f"{self.path}.{index}")
        os.replace(self.path, f"{self.path}.1")

    def save(self, interleaver, cycle: int) -> str:
        self._rotate()
        save_checkpoint(interleaver, self.path, cycle=cycle,
                        run_id=self.run_id)
        self.last_cycle = cycle
        self.saves += 1
        self.last_path = self.path
        return self.path


def resume_simulation(path: str, *,
                      max_cycles: Optional[int] = None,
                      wall_clock_limit: Optional[float] = None,
                      checkpoint: Optional[CheckpointSink] = None):
    """Load the checkpoint at ``path`` and run it to completion.

    ``max_cycles``/``wall_clock_limit`` override the snapshot's budgets
    (the supervisor integration: raise the budget and continue instead
    of throwing the simulated cycles away). ``checkpoint`` replaces the
    autosave sink; by default the restored run keeps autosaving with
    the sink it was checkpointed with. Returns the final
    ``SystemStats`` — bit-identical to an uninterrupted run.
    """
    restored = load_checkpoint(path)
    interleaver = restored.interleaver
    if max_cycles is not None:
        interleaver.max_cycles = max_cycles
    if wall_clock_limit is not None:
        interleaver.wall_clock_limit = wall_clock_limit
    if checkpoint is not None:
        interleaver.checkpoint = checkpoint
    return interleaver.run()


def find_injector(interleaver):
    """The FaultInjector wired into a (restored) run, or None. All wired
    subsystems share one injector, so the first holder wins."""
    for holder in (interleaver.fabric, interleaver.accelerators,
                   getattr(interleaver.memory, "dram", None)):
        injector = getattr(holder, "injector", None)
        if injector is not None:
            return injector
    return None
