"""Trace containers and (de)serialization.

The Dynamic Trace Generator (paper §II-A) emits, per kernel execution:

* a **control-flow trace** — the taken sequence of basic-block ids;
* a **memory trace** — for each static load/store instruction, the dynamic
  addresses it accessed, in encounter order (paper Figure 3: *"Address
  Trace per Load/Store Instruction [inst 7: 4, 8, 12, 16]"*);
* **accelerator invocations** — the configuration parameters recorded for
  each accelerator API call so the matching tile model can be invoked
  during simulation (paper §II-B).

Traces are plain data so they can be saved/loaded (the paper stores them as
files, noting sizes in §VI-B); a trace file is the artifact envelope of
:mod:`repro.ioutil`, so a file written by different simulator code is
refused instead of replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

from ..ioutil import pack, unpack


@dataclass
class AccelInvocation:
    """One dynamic accelerator API call and its recorded parameters."""

    iid: int          # static call-instruction id
    name: str         # intrinsic name, e.g. "accel_sgemm"
    args: Tuple      # evaluated argument values (addresses and sizes)


@dataclass
class KernelTrace:
    """Dynamic trace of one kernel execution on one tile."""

    function: str
    tile: int = 0
    num_tiles: int = 1
    #: taken control-flow path: sequence of basic-block ids
    block_trace: List[int] = field(default_factory=list)
    #: iid of load/store/atomic -> addresses in encounter order
    addr_trace: Dict[int, List[int]] = field(default_factory=dict)
    #: dynamic accelerator invocations, in encounter order
    accel_calls: List[AccelInvocation] = field(default_factory=list)
    #: iid of send_*/recv_* call -> peer tile ids in encounter order
    comm_trace: Dict[int, List[int]] = field(default_factory=dict)
    #: dynamic instruction count (all IR instructions executed)
    dynamic_instructions: int = 0
    #: scalar returned by the kernel, if any
    return_value: object = None

    def record_block(self, bid: int) -> None:
        self.block_trace.append(bid)

    def record_address(self, iid: int, address: int) -> None:
        self.addr_trace.setdefault(iid, []).append(address)

    def record_peer(self, iid: int, peer: int) -> None:
        self.comm_trace.setdefault(iid, []).append(peer)

    @property
    def num_memory_accesses(self) -> int:
        return sum(len(v) for v in self.addr_trace.values())

    def summary(self) -> str:
        return (f"trace[{self.function} tile {self.tile}/{self.num_tiles}]: "
                f"{len(self.block_trace)} DBBs, "
                f"{self.dynamic_instructions} dynamic instructions, "
                f"{self.num_memory_accesses} memory accesses")


def save_traces(traces: List[KernelTrace],
                path: Union[str, Path]) -> int:
    """Serialize traces to ``path``; returns the compressed size in bytes."""
    blob = pack(traces)
    Path(path).write_bytes(blob)
    return len(blob)


def load_traces(path: Union[str, Path]) -> List[KernelTrace]:
    """Read traces written by :func:`save_traces`; raises ValueError
    (an :class:`~repro.ioutil.ArtifactError` when the file is not an
    artifact of this simulator code)."""
    traces = unpack(Path(path).read_bytes())
    if not isinstance(traces, list) or not all(
            isinstance(t, KernelTrace) for t in traces):
        raise ValueError(f"{path} does not contain kernel traces")
    return traces
