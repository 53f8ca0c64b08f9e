"""Scalar optimization passes: constant folding, algebraic
simplification, common-subexpression elimination, and loop-invariant code
motion.

MosaicSim's headline use case is hardware–software co-design: "the use of
LLVM IR allows natural additions of compiler passes" (paper §VIII). These
passes form the ``-O1`` pipeline used by the compiler-co-design ablation —
the same kernel simulated from unoptimized vs optimized IR shows how a
compiler change moves the hardware bottleneck, with no simulator changes.

All passes operate on SSA mini-IR after mem2reg and preserve semantics
for the interpreter and the timing model alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst, BranchInst, CallInst, CastInst, CmpInst, GEPInst,
    Instruction, LoadInst, Opcode, PhiInst, SelectInst,
)
from ..ir.values import Constant, Value
from ..trace.interpreter import _BINOPS, _FCMP, _ICMP, _cast_fn
from .dominators import DominatorTree
from .mem2reg import dead_code_elimination

#: instruction kinds that are pure (safe to fold, combine, or hoist)
_PURE_OPCODES = {
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.SHL, Opcode.LSHR, Opcode.ASHR, Opcode.FADD, Opcode.FSUB,
    Opcode.FMUL, Opcode.FDIV, Opcode.ICMP, Opcode.FCMP, Opcode.SELECT,
    Opcode.GEP, Opcode.SEXT, Opcode.ZEXT, Opcode.TRUNC, Opcode.SITOFP,
    Opcode.FPTOSI, Opcode.FPEXT, Opcode.FPTRUNC, Opcode.BITCAST,
}
# note: SDIV/SREM/FDIV-by-zero can trap; SDIV/SREM are excluded from
# folding and hoisting, FDIV folds only with a non-zero constant divisor
_TRAPPING = (Opcode.SDIV, Opcode.SREM)


def _replace_uses(func: Function, old: Value, new: Value) -> None:
    for inst in func.instructions():
        if inst is not new:
            inst.replace_operand(old, new)


def constant_fold(func: Function) -> int:
    """Fold pure instructions whose operands are all constants, plus the
    usual algebraic identities (x+0, x*1, x*0, x-x...)."""
    folded = 0
    changed = True
    while changed:
        changed = False
        for block in func.blocks:
            for inst in list(block.instructions):
                replacement = _fold_one(inst)
                if replacement is not None:
                    _replace_uses(func, inst, replacement)
                    block.remove(inst)
                    folded += 1
                    changed = True
    return folded


def _fold_one(inst: Instruction) -> Optional[Value]:
    if isinstance(inst, BinaryInst):
        lhs, rhs = inst.operands
        lhs_const = isinstance(lhs, Constant)
        rhs_const = isinstance(rhs, Constant)
        if lhs_const and rhs_const and inst.opcode not in _TRAPPING \
                and not (inst.opcode is Opcode.FDIV and rhs.value == 0):
            # the interpreter's own semantics: 64-bit wrap, masked shifts
            return Constant(inst.type,
                            _BINOPS[inst.opcode](lhs.value, rhs.value))
        # algebraic identities
        opcode = inst.opcode
        if rhs_const:
            if rhs.value == 0 and opcode in (Opcode.ADD, Opcode.SUB,
                                             Opcode.OR, Opcode.XOR,
                                             Opcode.SHL, Opcode.ASHR,
                                             Opcode.FADD, Opcode.FSUB):
                return lhs
            if rhs.value == 1 and opcode in (Opcode.MUL, Opcode.FMUL,
                                             Opcode.SDIV, Opcode.FDIV):
                return lhs
            if rhs.value == 0 and opcode in (Opcode.MUL, Opcode.AND):
                return Constant(inst.type, 0)
        if lhs_const:
            if lhs.value == 0 and opcode in (Opcode.ADD, Opcode.OR,
                                             Opcode.FADD):
                return rhs
            if lhs.value == 1 and opcode in (Opcode.MUL, Opcode.FMUL):
                return rhs
            if lhs.value == 0 and opcode in (Opcode.MUL, Opcode.AND):
                return Constant(inst.type, 0)
        if lhs is rhs and opcode in (Opcode.SUB, Opcode.XOR):
            return Constant(inst.type, 0)
    if isinstance(inst, CmpInst):
        lhs, rhs = inst.operands
        if isinstance(lhs, Constant) and isinstance(rhs, Constant):
            table = _ICMP if inst.opcode is Opcode.ICMP else _FCMP
            return Constant(inst.type,
                            int(table[inst.predicate](lhs.value, rhs.value)))
    if isinstance(inst, SelectInst):
        condition = inst.operands[0]
        if isinstance(condition, Constant):
            return inst.operands[1] if condition.value else inst.operands[2]
        if inst.operands[1] is inst.operands[2]:
            return inst.operands[1]
    if isinstance(inst, CastInst) and isinstance(inst.operands[0], Constant):
        return Constant(inst.type, _cast_fn(inst)(inst.operands[0].value))
    return None


def _cse_key(inst: Instruction) -> Optional[Tuple]:
    if inst.opcode not in _PURE_OPCODES:
        return None
    if isinstance(inst, PhiInst):
        return None
    extra: Tuple = ()
    if isinstance(inst, CmpInst):
        extra = (inst.predicate,)
    operands = tuple(
        id(op) if isinstance(op, Instruction) or not isinstance(op, Constant)
        else ("const", str(op.type), op.value)
        for op in inst.operands)
    return (inst.opcode, str(inst.type), extra, operands)


def common_subexpression_elimination(func: Function) -> int:
    """Dominator-scoped CSE over pure instructions."""
    dom = DominatorTree(func)
    removed = 0

    def walk(block: BasicBlock, available: Dict[Tuple, Instruction]) -> None:
        nonlocal removed
        scope = dict(available)
        for inst in list(block.instructions):
            key = _cse_key(inst)
            if key is None:
                continue
            existing = scope.get(key)
            if existing is not None:
                _replace_uses(func, inst, existing)
                block.remove(inst)
                removed += 1
            else:
                scope[key] = inst
        for child in dom.children[id(block)]:
            walk(child, scope)

    walk(func.entry, {})
    return removed


# ---------------------------------------------------------------------------
# loop-invariant code motion
# ---------------------------------------------------------------------------

def _natural_loops(func: Function, dom: DominatorTree
                   ) -> List[Tuple[BasicBlock, Set[int]]]:
    """Find (header, loop-body block ids) for each back edge."""
    loops: List[Tuple[BasicBlock, Set[int]]] = []
    for block in dom.order:
        for successor in block.successors:
            if dom.dominates(successor, block):      # back edge
                header = successor
                body: Set[int] = {id(header), id(block)}
                stack = [block]
                while stack:
                    node = stack.pop()
                    if node is header:
                        continue
                    for pred in node.predecessors:
                        if id(pred) not in body:
                            body.add(id(pred))
                            stack.append(pred)
                loops.append((header, body))
    return loops


def loop_invariant_code_motion(func: Function) -> int:
    """Hoist pure, loop-invariant instructions into a preheader.

    An instruction is invariant when every operand is a constant, an
    argument, or an instruction defined outside the loop (or already
    hoisted). Loads/stores/calls never move (memory behavior must be
    preserved for trace fidelity).
    """
    dom = DominatorTree(func)
    hoisted_total = 0
    for header, body in _natural_loops(func, dom):
        preheader = _find_preheader(header, body)
        if preheader is None:
            continue
        invariant: Set[int] = set()
        changed = True
        while changed:
            changed = False
            for block in func.blocks:
                if id(block) not in body:
                    continue
                for inst in list(block.instructions):
                    if (inst.opcode not in _PURE_OPCODES
                            or inst.opcode is Opcode.FDIV  # may trap on 0
                            or isinstance(inst, PhiInst)
                            or id(inst) in invariant):
                        continue
                    if all(_defined_outside(op, body, invariant)
                           for op in inst.operands):
                        # hoist before the preheader's terminator
                        block.remove(inst)
                        inst.parent = preheader
                        preheader.instructions.insert(
                            len(preheader.instructions) - 1, inst)
                        invariant.add(id(inst))
                        hoisted_total += 1
                        changed = True
    return hoisted_total


def _defined_outside(value: Value, body: Set[int],
                     hoisted: Set[int]) -> bool:
    if not isinstance(value, Instruction):
        return True
    if id(value) in hoisted:
        return True
    return id(value.parent) not in body


def _find_preheader(header: BasicBlock,
                    body: Set[int]) -> Optional[BasicBlock]:
    outside = [p for p in header.predecessors if id(p) not in body]
    if len(outside) != 1:
        return None
    preheader = outside[0]
    if len(preheader.successors) != 1:
        return None  # would execute hoisted code on a path skipping the loop
    return preheader


def optimize(func: Function, *, verify: bool = True) -> Dict[str, int]:
    """The -O1 pipeline: fold -> CSE -> LICM -> fold -> CSE -> DCE.

    Returns per-pass work counts. The function is re-finalized (fresh
    instruction ids), so DDGs must be rebuilt afterwards.
    """
    report = {
        "constant_fold": constant_fold(func),
        "cse": common_subexpression_elimination(func),
        "licm": loop_invariant_code_motion(func),
    }
    report["constant_fold"] += constant_fold(func)
    report["cse"] += common_subexpression_elimination(func)
    report["dce"] = dead_code_elimination(func)
    func.finalize()
    if verify:
        from ..ir.verifier import verify_function
        verify_function(func)
    return report
