"""Functional IR interpreter — the Dynamic Trace Generator (paper §II-A).

The paper instruments an x86 binary and runs it natively to record (1) the
taken control-flow path and (2) the address stream of every memory
instruction. Here the equivalent native run is a functional execution
of the mini-IR over :class:`~repro.trace.memory.SimMemory`: each IR
function is rendered once to instrumented Python source (one function
per basic block) and compiled with Python's own ``compile()``. It
produces the same two trace artifacts (plus accelerator-invocation
parameters) as :class:`~repro.trace.tracefile.KernelTrace` objects.

SPMD execution (paper §II-B): :meth:`Interpreter.run_spmd` executes the
kernel once per tile, binding ``tile_id()``/``num_tiles()`` per instance,
over a shared address space — standing in for the OpenMP native run.
Tiles execute sequentially, which yields one valid interleaving of the
parallel program, exactly as a native run yields one particular schedule.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.function import Function, Module
from ..ir.instructions import CastInst, Opcode, PhiInst
from ..ir.values import Constant
from .accel_ops import apply_accelerator
from .memory import ArrayRef, SimMemory
from .tracefile import AccelInvocation, KernelTrace


class InterpreterError(Exception):
    pass


class StepLimitExceeded(InterpreterError):
    """The kernel ran past the dynamic instruction budget (likely stuck)."""


_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_U64_MASK = (1 << 64) - 1


def _wrap(value: int) -> int:
    """Two's-complement 64-bit wrapping (LLVM add/sub/mul/shl semantics).

    The fast path covers in-range values; only overflowing results pay
    for the mask.
    """
    if _I64_MIN <= value <= _I64_MAX:
        return value
    value &= _U64_MASK
    return value - (1 << 64) if value > _I64_MAX else value


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise InterpreterError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _trunc_rem(a: int, b: int) -> int:
    return a - b * _trunc_div(a, b)


_ICMP = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b, "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b, "sge": lambda a, b: a >= b,
}

_FCMP = {
    "oeq": lambda a, b: a == b, "one": lambda a, b: a != b,
    "olt": lambda a, b: a < b, "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b, "oge": lambda a, b: a >= b,
}

_MATH = {
    "sqrtf": math.sqrt, "expf": math.exp, "logf": math.log,
    "sinf": math.sin, "cosf": math.cos, "fabsf": abs,
    "floorf": lambda x: float(math.floor(x)),
    "rsqrtf": lambda x: 1.0 / math.sqrt(x),
}

_BINOPS = {
    # integer add/sub/mul/shl wrap at 64 bits; note floats share ADD/SUB/
    # MUL opcodes only through FADD etc., so wrapping never touches them
    Opcode.ADD: lambda a, b: _wrap(a + b),
    Opcode.SUB: lambda a, b: _wrap(a - b),
    Opcode.MUL: lambda a, b: _wrap(a * b),
    Opcode.SDIV: _trunc_div,
    Opcode.SREM: _trunc_rem,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: _wrap(a << (b & 63)),
    # a shift by 0 leaves a negative value's unsigned form: wrap it
    Opcode.LSHR: lambda a, b: _wrap((a & _U64_MASK) >> (b & 63)),
    Opcode.ASHR: lambda a, b: a >> (b & 63),
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: lambda a, b: a / b,
}

_ATOMIC = {
    "add": lambda old, v: _wrap(old + v) if isinstance(old, int) else
    old + v,
    "sub": lambda old, v: _wrap(old - v) if isinstance(old, int) else
    old - v,
    "min": min,
    "max": max,
    "xchg": lambda old, v: v,
}


def _cast_fn(inst: "CastInst"):
    """Per-instruction cast closure (semantics of the old _cast)."""
    opcode = inst.opcode
    if opcode in (Opcode.SEXT, Opcode.ZEXT, Opcode.BITCAST):
        if inst.type.is_integer:
            return int
        return lambda v: v
    if opcode is Opcode.TRUNC:
        bits = inst.type.bits
        mask = (1 << bits) - 1
        sign = 1 << (bits - 1)
        wrap = 1 << bits

        def trunc(value):
            raw = int(value) & mask
            if raw >= sign and bits > 1:
                raw -= wrap
            return raw

        return trunc
    if opcode is Opcode.SITOFP:
        return float
    if opcode is Opcode.FPTOSI:
        # out-of-range conversions wrap like every other i64 result
        return lambda v: _wrap(int(v))
    if opcode in (Opcode.FPEXT, Opcode.FPTRUNC):
        return float
    raise InterpreterError(f"cannot interpret cast {opcode.value}")


#: ops rendered as one Python operator; add/sub/mul then wrap at 64 bits
_INLINE = {
    Opcode.ADD: "+", Opcode.SUB: "-", Opcode.MUL: "*",
    Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^",
    Opcode.FADD: "+", Opcode.FSUB: "-", Opcode.FMUL: "*",
}
_WRAPPING = (Opcode.ADD, Opcode.SUB, Opcode.MUL)
_ICMP_OPS = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">",
             "sge": ">="}


def _fail(message: str):
    raise InterpreterError(message)


class _Renderer:
    """Renders one IR function to Python source, once per interpreter.

    The source defines ``_make(I, trace, tile, num_tiles)``, which
    instantiates one run: a register list ``r`` (arguments, then every
    instruction in block/instruction order, then the return slot) and
    one closure per basic block, returned as ``(r, blocks)``. A block
    function runs the block's non-phi instructions and returns the
    position of the next block (``-1`` after ``ret``). Each phi is
    lowered to a parallel copy on every incoming CFG edge, emitted in the
    predecessor just before it returns. A value only its own block reads
    stays a Python local; any other is also stored to its register.
    Blocks holding a yield point are generators. Everything that is not
    a plain Python operator calls the semantic tables above through a
    name bound in the module namespace, so the source never depends on
    object identity.
    """

    def __init__(self, func: Function):
        self.func = func
        values = list(func.args) + list(func.instructions())
        self.reg = {value: number for number, value in enumerate(values)}
        self.size = len(values) + 1
        self.home = {inst: block for block in func.blocks
                     for inst in block.instructions}
        self.position = {block: k for k, block in enumerate(func.blocks)}
        self.namespace = {"_wrap": _wrap, "_isnan": math.isnan,
                          "_fail": _fail, "_Accel": AccelInvocation,
                          "_apply_accelerator": apply_accelerator}
        self.bound = {}
        #: values read outside their home block (phi copies count as
        #: reads in the predecessor)
        self.shared = set()
        for block in func.blocks:
            for inst in block.instructions:
                if isinstance(inst, PhiInst):
                    for value, pred in zip(inst.operands,
                                           inst.incoming_blocks):
                        if self.home.get(value) is not pred:
                            self.shared.add(value)
                    continue
                for value in inst.operands:
                    if self.home.get(value) is not block:
                        self.shared.add(value)

    def bind(self, obj) -> str:
        """A namespace name for ``obj``, numbered in order of first use."""
        name = self.bound.get(obj)
        if name is None:
            name = self.bound[obj] = f"_k{len(self.bound)}"
            self.namespace[name] = obj
        return name

    def operand(self, value, block) -> str:
        if isinstance(value, Constant):
            literal = value.value
            if isinstance(literal, float) and not math.isfinite(literal):
                return self.bind(literal)
            return repr(literal)
        number = self.reg.get(value)
        if number is None:
            raise InterpreterError(
                f"cannot interpret operand {value.short()} of "
                f"{self.func.name}")
        if self.home.get(value) is block and not isinstance(value, PhiInst):
            return f"v{number}"
        return f"r[{number}]"

    def edge(self, pred, succ) -> List[str]:
        """The phi copies and the jump for the CFG edge pred -> succ."""
        dests, sources = [], []
        for phi in succ.phis:
            incoming = None
            for value, block in zip(phi.operands, phi.incoming_blocks):
                if block is pred:
                    incoming = value
            if incoming is None:
                raise InterpreterError(
                    f"phi {phi.short()} in {succ.name} has no incoming "
                    f"value from {pred.name}")
            dests.append(f"r[{self.reg[phi]}]")
            sources.append(self.operand(incoming, pred))
        copies = [f"{', '.join(dests)} = {', '.join(sources)}"] \
            if dests else []
        return copies + [f"return {self.position[succ]}"]

    def render(self):
        """Compile the function; returns ``(make, table)`` where
        ``table[k]`` is ``(bid, instruction count, is_generator)`` of
        ``func.blocks[k]``."""
        lines = ["def _make(I, trace, tile, num_tiles):",
                 f"    r = [None] * {self.size}",
                 "    memory = I.memory",
                 "    load = memory.load",
                 "    store = memory.store",
                 "    at = trace.addr_trace",
                 "    ct = trace.comm_trace",
                 "    calls = trace.accel_calls"]
        table = []
        for k, block in enumerate(self.func.blocks):
            self.generator = False
            body = self.block(block)
            lines.append(f"    def b{k}():")
            lines.extend(f"        {line}" for line in body)
            table.append((block.bid, len(block.instructions),
                          self.generator))
        names = ", ".join(f"b{k}" for k in range(len(table)))
        lines.append(f"    return r, ({names},)")
        source = "\n".join(lines) + "\n"
        exec(compile(source, f"<interpreter {self.func.name}>", "exec"),
             self.namespace)
        return self.namespace["_make"], tuple(table)

    def block(self, block) -> List[str]:
        out: List[str] = []
        for inst in block.instructions:
            if isinstance(inst, PhiInst):
                continue
            if inst.is_terminator:
                out.extend(self.terminator(inst, block))
                return out
            dest = f"v{self.reg[inst]}"
            self.instruction(inst, dest,
                             [self.operand(v, block) for v in inst.operands],
                             out)
            if inst in self.shared:
                out.append(f"r[{self.reg[inst]}] = {dest}")
        message = f"block {block.name} fell through without a terminator"
        out.append(f"_fail({message!r})")
        return out

    def terminator(self, inst, block) -> List[str]:
        if inst.opcode is Opcode.RET:
            if not inst.operands:
                return ["return -1"]
            return [f"r[-1] = {self.operand(inst.operands[0], block)}",
                    "return -1"]
        if not inst.operands:
            return self.edge(block, inst.targets[0])
        condition = self.operand(inst.operands[0], block)
        return ([f"if {condition}:"]
                + [f"    {line}" for line in self.edge(block,
                                                        inst.targets[0])]
                + self.edge(block, inst.targets[1]))

    @staticmethod
    def record(table: str, iid: int, expr: str) -> List[str]:
        """Append ``expr`` to ``table[iid]``, first use creating the list
        (so keys keep first-encounter order)."""
        return [f"try: {table}[{iid}].append({expr})",
                f"except KeyError: {table}[{iid}] = [{expr}]"]

    def instruction(self, inst, dest: str, ops: List[str],
                    out: List[str]) -> None:
        opcode = inst.opcode
        if opcode in _INLINE:
            out.append(f"{dest} = {ops[0]} {_INLINE[opcode]} {ops[1]}")
            if opcode in _WRAPPING:
                out.append(f"if not {_I64_MIN} <= {dest} <= {_I64_MAX}: "
                           f"{dest} = _wrap({dest})")
        elif opcode in _BINOPS:
            out.append(f"{dest} = {self.bind(_BINOPS[opcode])}"
                       f"({ops[0]}, {ops[1]})")
        elif opcode is Opcode.GEP:
            out.append(f"{dest} = {ops[0]} + {ops[1]} * "
                       f"{inst.type.pointee.size}")
        elif opcode is Opcode.LOAD:
            out.extend(self.record("at", inst.iid, ops[0]))
            out.append(f"{dest} = load({ops[0]}, {self.bind(inst.type)})")
        elif opcode is Opcode.STORE:
            out.extend(self.record("at", inst.iid, ops[1]))
            out.append(f"store({ops[1]}, {ops[0]})")
        elif opcode is Opcode.ICMP:
            out.append(f"{dest} = 1 if {ops[0]} "
                       f"{_ICMP_OPS[inst.predicate]} {ops[1]} else 0")
        elif opcode is Opcode.FCMP:
            # ordered: false when either side is NaN
            out.append(f"{dest} = 0 if _isnan({ops[0]}) or _isnan({ops[1]}) "
                       f"else int({self.bind(_FCMP[inst.predicate])}"
                       f"({ops[0]}, {ops[1]}))")
        elif opcode is Opcode.SELECT:
            out.append(f"{dest} = {ops[1]} if {ops[0]} else {ops[2]}")
        elif isinstance(inst, CastInst):
            out.append(f"{dest} = {self.bind(_cast_fn(inst))}({ops[0]})")
        elif opcode is Opcode.ATOMICRMW:
            out.extend(self.record("at", inst.iid, ops[0]))
            out.append(f"{dest} = load({ops[0]}, {self.bind(inst.type)})")
            out.append(f"store({ops[0]}, "
                       f"{self.bind(_ATOMIC[inst.operation])}"
                       f"({dest}, {ops[1]}))")
        elif opcode is Opcode.ALLOCA:
            out.append(f"{dest} = memory.alloc(1, "
                       f"{self.bind(inst.element_type)}, "
                       f"name={inst.name or 'slot'!r}).base")
        elif opcode is Opcode.CALL:
            self.call(inst, dest, ops, out)
        else:
            raise InterpreterError(f"cannot interpret {opcode.value}")

    def call(self, inst, dest: str, ops: List[str], out: List[str]) -> None:
        name = inst.callee
        # yield points: the kernel suspends for its peers (SPMD/DAE)
        if name == "barrier":
            out += ["yield 'barrier'", f"{dest} = None"]
            self.generator = True
        elif name.startswith("recv_"):
            out.append(f"{dest} = int({ops[0]})")
            out.extend(self.record("ct", inst.iid, dest))
            out.append(f"{dest} = yield from I._recv({dest}, tile)")
            self.generator = True
        elif name.startswith(("dae_consume", "dae_store_take")):
            out.append(f"{dest} = yield from "
                       f"I._dae_pop({name!r}, tile, num_tiles)")
            self.generator = True
        elif name == "tile_id":
            out.append(f"{dest} = tile")
        elif name == "num_tiles":
            out.append(f"{dest} = num_tiles")
        elif name in _MATH:
            out.append(f"{dest} = {self.bind(_MATH[name])}({ops[0]})")
        elif name.startswith("send_"):
            out.append(f"{dest} = int({ops[0]})")
            out.extend(self.record("ct", inst.iid, dest))
            out.append(f"{dest} = I._send(tile, {dest}, {ops[1]})")
        elif name.startswith(("dae_produce", "dae_store_value")):
            queues = "I.dae_load_q" if name.startswith("dae_produce") \
                else "I.dae_store_q"
            out.append(f"{dest} = I._dae_push({queues}, {ops[0]}, tile, "
                       f"num_tiles)")
        elif name.startswith("accel_"):
            out.append(f"{dest} = [{', '.join(ops)}]")
            out.append(f"calls.append(_Accel({inst.iid}, {name!r}, "
                       f"tuple({dest})))")
            out.append(f"_apply_accelerator({name!r}, {dest}, memory)")
            out.append(f"{dest} = None")
        else:
            kind = "DAE intrinsic" if name.startswith("dae_") else "callee"
            message = f"unknown {kind} {name!r}"
            out.append(f"{dest} = _fail({message!r})")


class Interpreter:
    """Executes mini-IR kernels functionally and records dynamic traces."""

    def __init__(self, module: Module, memory: Optional[SimMemory] = None,
                 step_limit: int = 200_000_000):
        self.module = module
        self.memory = memory if memory is not None else SimMemory()
        self.step_limit = step_limit
        #: message channels: (src_tile, dst_tile) -> FIFO
        self.channels: Dict[Tuple[int, int], deque] = {}
        #: DAE queues per pair index: load queue and store-value queue
        self.dae_load_q: Dict[int, deque] = {}
        self.dae_store_q: Dict[int, deque] = {}
        self._dae_pops = 0
        #: communication progress counter (sends, recvs, queue pushes/pops)
        #: used by the co-operative schedulers to detect deadlock
        self._progress = 0
        #: set by run_dae_pair so both slices of a pair share one queue
        self._dae_pair_override: int = None
        #: rendered and compiled functions: function -> (make, table)
        self._programs: Dict[Function, tuple] = {}

    # ------------------------------------------------------------------
    def run(self, func_name: str, args: Sequence, *, tile: int = 0,
            num_tiles: int = 1, collect_trace: bool = True) -> KernelTrace:
        """Execute one kernel instance; returns its dynamic trace.

        ``args`` items may be numbers or :class:`ArrayRef` handles (which
        are passed as their base address). ``barrier()`` calls are no-ops
        for a single instance.
        """
        trace, gen = self._start(func_name, args, tile, num_tiles,
                                 collect_trace)
        while True:
            try:
                reason = next(gen)
            except StopIteration as stop:
                trace.return_value = stop.value
                return trace
            if reason != "barrier":
                raise InterpreterError(
                    f"{func_name} blocked on {reason} with no peer tile "
                    f"(empty channel or queue)")

    def run_spmd(self, func_name: str, args: Sequence,
                 num_tiles: int) -> List[KernelTrace]:
        """Run the kernel once per tile over the shared address space.

        Tiles execute co-operatively: each runs until its next ``barrier()``
        (or completion); when every still-running tile has arrived, all are
        released — the OpenMP-barrier semantics of the paper's SPMD model.
        Tiles blocked on an empty channel (``recv_*``) or DAE queue simply
        yield to their peers and retry. Between switch points, tiles run
        uninterrupted in tile order — one valid interleaving of the
        parallel program.
        """
        traces: List[KernelTrace] = []
        RUNNING, AT_BARRIER, BLOCKED, DONE = 0, 1, 2, 3
        tiles = []
        for t in range(num_tiles):
            trace, gen = self._start(func_name, args, t, num_tiles, True)
            traces.append(trace)
            tiles.append([RUNNING, trace, gen])
        while any(entry[0] != DONE for entry in tiles):
            runnable = [e for e in tiles if e[0] in (RUNNING, BLOCKED)]
            all_were_blocked = bool(runnable) and \
                all(e[0] == BLOCKED for e in runnable)
            progress_before = self._progress
            finished_this_round = False
            for entry in runnable:
                try:
                    reason = next(entry[2])
                except StopIteration as stop:
                    entry[1].return_value = stop.value
                    entry[0] = DONE
                    finished_this_round = True
                    continue
                entry[0] = AT_BARRIER if reason == "barrier" else BLOCKED
            live = [e for e in tiles if e[0] != DONE]
            if live and all(e[0] == AT_BARRIER for e in live):
                for entry in live:
                    entry[0] = RUNNING  # barrier releases
                continue
            stuck = (all_were_blocked
                     and self._progress == progress_before
                     and not finished_this_round
                     and not any(e[0] == AT_BARRIER for e in runnable))
            if stuck:
                raise InterpreterError(
                    f"SPMD deadlock in {func_name}: tiles blocked on empty "
                    f"channels/queues (or waiting at a barrier that cannot "
                    f"release)")
        return traces

    def _start(self, func_name: str, args: Sequence, tile: int,
               num_tiles: int, collect: bool):
        func = self.module.get_function(func_name)
        if len(args) != len(func.args):
            raise InterpreterError(
                f"{func_name} expects {len(func.args)} args, got {len(args)}")
        bound = [a.base if isinstance(a, ArrayRef) else a for a in args]
        trace = KernelTrace(func_name, tile=tile, num_tiles=num_tiles)
        return trace, self._exec(func, bound, tile, num_tiles, trace,
                                 collect)

    # ------------------------------------------------------------------
    def _exec(self, func: Function, args: Sequence, tile: int,
              num_tiles: int, trace: KernelTrace, collect: bool):
        """Generator executing ``func`` through its rendered blocks.

        The function is rendered to Python source and compiled once per
        interpreter (:class:`_Renderer`); each run instantiates fresh
        block closures over its own register list. This loop records the
        taken block, accounts its instructions against the step limit,
        and enters generator blocks with ``yield from`` so barrier and
        queue waits suspend the whole kernel. Without ``collect`` the
        block functions record into a scratch trace that is dropped.
        """
        program = self._programs.get(func)
        if program is None:
            program = self._programs[func] = _Renderer(func).render()
        make, table = program
        sink = trace if collect else KernelTrace(func.name)
        registers, blocks = make(self, sink, tile, num_tiles)
        registers[:len(args)] = args
        record_block = sink.block_trace.append
        steps = 0
        limit = self.step_limit
        k = 0
        while k >= 0:
            bid, size, is_generator = table[k]
            record_block(bid)
            steps += size
            if steps > limit:
                raise StepLimitExceeded(
                    f"{func.name} exceeded {limit} dynamic instructions")
            k = (yield from blocks[k]()) if is_generator else blocks[k]()
        trace.dynamic_instructions = steps
        return registers[-1]

    # -- communication called from rendered blocks ------------------------
    def _send(self, tile: int, dest: int, value) -> None:
        self.channels.setdefault((tile, dest), deque()).append(value)
        self._progress += 1

    def _recv(self, src: int, tile: int):
        """Blocking pop from channel ``src -> tile``."""
        key = (src, tile)
        while not self.channels.get(key):
            yield "recv_wait"
        self._progress += 1
        return self.channels[key].popleft()

    def _pair_of(self, tile: int, num_tiles: int) -> int:
        """DAE queue key. Under run_dae_pair both slices share an explicit
        pair id; otherwise the convention is: with 2P tiles, tile t<P is
        the access core of pair t and tile P+t its execute core."""
        if self._dae_pair_override is not None:
            return self._dae_pair_override
        pairs = max(1, num_tiles // 2)
        return tile if tile < pairs else tile - pairs

    def _dae_push(self, queues: Dict[int, deque], value, tile: int,
                  num_tiles: int) -> None:
        queues.setdefault(self._pair_of(tile, num_tiles),
                          deque()).append(value)
        self._progress += 1

    def _dae_pop(self, name: str, tile: int, num_tiles: int):
        """Blocking DAE pop (``dae_consume*`` from the load queue,
        ``dae_store_take*`` from the store-value queue)."""
        queues = (self.dae_load_q if name.startswith("dae_consume")
                  else self.dae_store_q)
        while True:
            queue = queues.get(self._pair_of(tile, num_tiles))
            if queue:
                break
            yield "dae_wait"
        self._dae_pops += 1
        self._progress += 1
        return queue.popleft()

    def run_dae_pair(self, access_fn: str, execute_fn: str, args: Sequence,
                     *, pair: int = 0, pairs: int = 1):
        """Co-execute one access/execute slice pair (paper §VII-A).

        The two slices exchange values through the DAE queues, so neither
        can run to completion alone: each runs until it blocks on an empty
        queue, then control passes to its peer. Both slices observe
        ``tile_id() = pair`` over ``num_tiles() = pairs`` so they partition
        the work identically. Returns ``(access_trace, execute_trace)``.
        """
        self._dae_pair_override = pair
        access_trace, access_gen = self._start(
            access_fn, args, pair, pairs, True)
        execute_trace, execute_gen = self._start(
            execute_fn, args, pair, pairs, True)
        live = [(access_trace, access_gen), (execute_trace, execute_gen)]
        blocked_streak = 0
        index = 0
        while live:
            trace, gen = live[index % len(live)]
            pops_before = self._dae_pops
            try:
                next(gen)  # runs until a dae_wait/barrier yield
            except StopIteration as stop:
                trace.return_value = stop.value
                live.remove((trace, gen))
                blocked_streak = 0
                continue
            if self._dae_pops > pops_before:
                blocked_streak = 0  # the slice made progress before blocking
            else:
                blocked_streak += 1
                if blocked_streak > 2 * len(live):
                    raise InterpreterError(
                        f"DAE pair {pair} deadlocked: both slices blocked "
                        f"on empty queues")
            index += 1
        self._dae_pair_override = None
        return access_trace, execute_trace
