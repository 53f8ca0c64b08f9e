"""In-memory host-time spans recorded around the benchmark's calls into
each simulator layer.

A span is (name, start, end, parent, simulation id) in seconds of the
benchmark process's CPU time (``time.process_time``), so time the
process spends waiting for a core that another process holds is left
out. Spans are kept in memory and written once, as Chrome
``trace_event`` JSON, when the benchmark ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.telemetry import TRACE_SCHEMA_VERSION, validate_chrome_trace

#: the clock of every span and calibration: CPU seconds of this process
perf = time.process_time


class Span:
    __slots__ = ("name", "start", "end", "parent", "sim")

    def __init__(self, name: str, start: float, parent: Optional[int],
                 sim: Optional[str]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.sim = sim

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """Span recorder. ``span()`` nests under the innermost open span and
    inherits its simulation id unless given one."""

    def __init__(self):
        self.records: List[Span] = []
        self._stack: List[int] = []
        self.origin = perf()

    @contextmanager
    def span(self, name: str, sim: Optional[str] = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if sim is None and parent is not None:
            sim = self.records[parent].sim
        record = Span(name, perf(), parent, sim)
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            yield record
        finally:
            record.end = perf()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, sim: str) -> Span:
        """Record a finished span measured elsewhere (a sweep point
        runner) as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        record = Span(name, start, parent, sim)
        record.end = end
        self.records.append(record)
        return record

    # -- analysis ----------------------------------------------------------
    def self_times(self, first: int, stop: int,
                   measure: Callable[[float, float], float]
                   ) -> Dict[str, float]:
        """Layer name -> summed self time of ``records[first:stop]``: each
        span's duration minus the part of it that its children cover,
        where ``measure(start, end)`` is the duration of an interval."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for record in self.records[first:stop]:
            if record.parent is not None:
                children[record.parent].append((record.start, record.end))
        totals: Dict[str, float] = defaultdict(float)
        for index in range(first, stop):
            record = self.records[index]
            covered = 0.0
            reach = record.start
            for start, end in sorted(children.get(index, ())):
                start = max(start, reach)
                end = min(end, record.end)
                if end > start:
                    covered += measure(start, end)
                    reach = end
            totals[record.name] += measure(record.start,
                                           record.end) - covered
        return dict(totals)

    # -- export ------------------------------------------------------------
    def to_chrome(self, other: dict) -> dict:
        """Chrome ``trace_event`` document: one complete ("X") event per
        span in CPU microseconds from the recorder's origin, its parent
        index and simulation id in ``args``."""
        events = [{"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
                   "args": {"name": "bench"}}]
        for index, record in enumerate(self.records):
            start = max(0, int((record.start - self.origin) * 1e6))
            events.append({
                "name": record.name, "cat": record.name.split(".")[0],
                "ph": "X", "pid": 0, "tid": 0, "ts": start,
                "dur": max(0, int(record.seconds * 1e6)),
                "args": {"id": index,
                         "parent": -1 if record.parent is None
                         else record.parent,
                         "sim": record.sim or ""}})
        other = dict(other)
        other["trace_schema_version"] = TRACE_SCHEMA_VERSION
        other["clock"] = "process-cpu-us"
        document = {"traceEvents": events, "displayTimeUnit": "ms",
                    "otherData": other}
        validate_chrome_trace(document)
        return document
