"""Kernel front-end: compile a restricted Python dialect to mini-IR.

This plays the role of Clang in the original MosaicSim stack: kernels are
written as Python functions with type annotations, parsed with :mod:`ast`,
and lowered to the SSA mini-IR. Lowering follows the Clang ``-O0`` strategy
— every local scalar becomes an ``alloca`` with ``load``/``store`` traffic —
and the mem2reg pass then promotes those slots to SSA registers, so the
final IR contains phi nodes at loop headers exactly like the LLVM IR in the
paper's Figure 3.

Supported dialect
-----------------
* parameters annotated ``int``/``float``/``"i64"``/``"f64"``/``"i64*"``/
  ``"f64*"``/``"i32*"`` (pointers are flat arrays);
* ``for i in range(...)`` (any start/stop/step), ``while``, ``if``/``elif``/
  ``else``, ``break``/``continue``, ``return``;
* scalar assignment and augmented assignment, array subscript reads and
  writes (``A[i]``), arithmetic (``+ - * // % / << >> & | ^``), comparisons,
  ``and``/``or``/``not`` (evaluated eagerly as bitwise ops on ``i1``),
  conditional expressions;
* builtin-like helpers ``float()``, ``int()``, ``min``/``max``/``abs``;
* simulator intrinsics (:mod:`repro.frontend.intrinsics`) including the
  SPMD queries ``tile_id()``/``num_tiles()``, message passing, DAE queues,
  atomics (``atomic_add(A, i, v)``), math functions, and the accelerator
  invocation API.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..ir import (
    F64, I1, I64, VOID, BasicBlock, Constant, Function, IRBuilder, IRType,
    Module, Opcode, PointerType, Value, parse_type, verify_function,
)
from ..passes.mem2reg import dead_code_elimination, promote_allocas
from . import intrinsics as intrin
from .errors import CompileError

_ANNOTATION_TYPES = {
    "int": I64, "float": F64, "bool": I1,
}

_ATOMIC_OPS = {
    "atomic_add": "add", "atomic_sub": "sub", "atomic_min": "min",
    "atomic_max": "max", "atomic_xchg": "xchg",
}

_BINOP_INT = {
    ast.Add: Opcode.ADD, ast.Sub: Opcode.SUB, ast.Mult: Opcode.MUL,
    ast.FloorDiv: Opcode.SDIV, ast.Mod: Opcode.SREM,
    ast.LShift: Opcode.SHL, ast.RShift: Opcode.ASHR,
    ast.BitAnd: Opcode.AND, ast.BitOr: Opcode.OR, ast.BitXor: Opcode.XOR,
}

_BINOP_FLOAT = {
    ast.Add: Opcode.FADD, ast.Sub: Opcode.FSUB, ast.Mult: Opcode.FMUL,
    ast.Div: Opcode.FDIV,
}

_CMP_PRED = {
    ast.Eq: "eq", ast.NotEq: "ne", ast.Lt: "slt", ast.LtE: "sle",
    ast.Gt: "sgt", ast.GtE: "sge",
}

_FCMP_PRED = {
    ast.Eq: "oeq", ast.NotEq: "one", ast.Lt: "olt", ast.LtE: "ole",
    ast.Gt: "ogt", ast.GtE: "oge",
}


def _annotation_to_type(node: ast.AST, func_name: str) -> IRType:
    if isinstance(node, ast.Name) and node.id in _ANNOTATION_TYPES:
        return _ANNOTATION_TYPES[node.id]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return parse_type(node.value)
        except ValueError as exc:
            raise CompileError(str(exc), node, func_name) from None
    raise CompileError(
        "parameter annotations must be int, float, or a type string like "
        "'f64*'", node, func_name)


class _Lowering:
    """Lowers one Python function AST to an IR function."""

    def __init__(self, tree: ast.FunctionDef, name: str):
        self.tree = tree
        self.name = name
        arg_types: List[Tuple[str, IRType]] = []
        for arg in tree.args.args:
            if arg.annotation is None:
                raise CompileError(
                    f"parameter {arg.arg!r} needs a type annotation",
                    arg, name)
            arg_types.append((arg.arg, _annotation_to_type(arg.annotation,
                                                           name)))
        return_type = VOID
        if tree.returns is not None and not (
                isinstance(tree.returns, ast.Constant)
                and tree.returns.value is None):
            return_type = _annotation_to_type(tree.returns, name)
        self.func = Function(name, arg_types, return_type)
        self.builder = IRBuilder()
        #: local name -> alloca instruction
        self.slots: Dict[str, Value] = {}
        #: (continue_target, break_target) stack
        self.loops: List[Tuple[BasicBlock, BasicBlock]] = []

    # ------------------------------------------------------------------
    def run(self) -> Function:
        entry = self.func.add_block("entry")
        self.builder.position_at_end(entry)
        # copy arguments into slots so they behave like mutable locals
        for arg in self.func.args:
            slot = self.builder.alloca(arg.type, name=f"{arg.name}.slot")
            self.builder.store(arg, slot)
            self.slots[arg.name] = slot
        self._lower_body(self.tree.body)
        if not self.builder.block.is_terminated:
            if self.func.return_type.is_void:
                self.builder.ret()
            else:
                raise CompileError(
                    "control reaches end of non-void kernel", self.tree,
                    self.name)
        return self.func

    # -- statements ------------------------------------------------------
    def _lower_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if self.builder.block.is_terminated:
                # unreachable code after break/continue/return
                dead = self.func.add_block("dead")
                self.builder.position_at_end(dead)
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.AnnAssign):
            self._lower_ann_assign(stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._lower_aug_assign(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.Return):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.loops:
                raise CompileError("break outside loop", stmt, self.name)
            self.builder.branch(self.loops[-1][1])
        elif isinstance(stmt, ast.Continue):
            if not self.loops:
                raise CompileError("continue outside loop", stmt, self.name)
            self.builder.branch(self.loops[-1][0])
        elif isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, ast.Call):
                self._lower_call(stmt.value, statement=True)
            elif isinstance(stmt.value, ast.Constant):
                pass  # docstring
            else:
                raise CompileError("expression statements must be calls",
                                   stmt, self.name)
        elif isinstance(stmt, ast.Pass):
            pass
        else:
            raise CompileError(
                f"unsupported statement {type(stmt).__name__}", stmt,
                self.name)

    def _store_local(self, name: str, value: Value,
                     node: ast.AST) -> None:
        slot = self.slots.get(name)
        if slot is None:
            slot = self._new_slot(name, value.type)
        elif slot.type.pointee != value.type:
            value = self._coerce(value, slot.type.pointee, node)
        self.builder.store(value, slot)

    def _new_slot(self, name: str, ty: IRType) -> Value:
        # allocas belong in the entry block so they dominate all uses
        entry = self.func.entry
        saved = self.builder.block
        insert_index = 0
        for i, inst in enumerate(entry.instructions):
            if inst.opcode is Opcode.ALLOCA:
                insert_index = i + 1
        from ..ir.instructions import AllocaInst
        slot = AllocaInst(ty)
        slot.name = self.func.unique_name(f"{name}.slot")
        slot.parent = entry
        entry.instructions.insert(insert_index, slot)
        self.builder.position_at_end(saved)
        self.slots[name] = slot
        return slot

    def _lower_assign(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1:
            raise CompileError("chained assignment unsupported", stmt,
                               self.name)
        target = stmt.targets[0]
        value = self._expr(stmt.value)
        if isinstance(target, ast.Name):
            self._store_local(target.id, value, stmt)
        elif isinstance(target, ast.Subscript):
            pointer = self._element_pointer(target)
            value = self._coerce(value, pointer.type.pointee, stmt)
            self.builder.store(value, pointer)
        else:
            raise CompileError("assignment target must be a name or "
                               "subscript", stmt, self.name)

    def _lower_ann_assign(self, stmt: ast.AnnAssign) -> None:
        if not isinstance(stmt.target, ast.Name):
            raise CompileError("annotated target must be a name", stmt,
                               self.name)
        ty = _annotation_to_type(stmt.annotation, self.name)
        if stmt.value is None:
            self._new_slot(stmt.target.id, ty)
            return
        value = self._coerce(self._expr(stmt.value), ty, stmt)
        self._store_local(stmt.target.id, value, stmt)

    def _lower_aug_assign(self, stmt: ast.AugAssign) -> None:
        if isinstance(stmt.target, ast.Name):
            current = self._expr(ast.copy_location(
                ast.Name(id=stmt.target.id, ctx=ast.Load()), stmt))
            result = self._binop(stmt.op, current, self._expr(stmt.value),
                                 stmt)
            self._store_local(stmt.target.id, result, stmt)
        elif isinstance(stmt.target, ast.Subscript):
            pointer = self._element_pointer(stmt.target)
            current = self.builder.load(pointer, name="ld")
            result = self._binop(stmt.op, current, self._expr(stmt.value),
                                 stmt)
            result = self._coerce(result, pointer.type.pointee, stmt)
            self.builder.store(result, pointer)
        else:
            raise CompileError("augmented target must be name or subscript",
                               stmt, self.name)

    def _lower_for(self, stmt: ast.For) -> None:
        if stmt.orelse:
            raise CompileError("for/else unsupported", stmt, self.name)
        call = stmt.iter
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "range"):
            raise CompileError("for loops must iterate over range()", stmt,
                               self.name)
        if not isinstance(stmt.target, ast.Name):
            raise CompileError("loop variable must be a simple name", stmt,
                               self.name)
        args = [self._coerce(self._expr(a), I64, stmt) for a in call.args]
        zero, one = Constant(I64, 0), Constant(I64, 1)
        if len(args) == 1:
            start, stop, step = zero, args[0], one
        elif len(args) == 2:
            start, stop, step = args[0], args[1], one
        elif len(args) == 3:
            start, stop, step = args
        else:
            raise CompileError("range() takes 1-3 arguments", stmt, self.name)

        var = stmt.target.id
        self._store_local(var, start, stmt)
        header = self.func.add_block("for.header")
        body = self.func.add_block("for.body")
        latch = self.func.add_block("for.latch")
        exit_block = self.func.add_block("for.exit")

        self.builder.branch(header)
        self.builder.position_at_end(header)
        current = self._load_local(var, stmt)
        if isinstance(step, Constant):
            pred = "slt" if step.value > 0 else "sgt"
            cond = self.builder.icmp(pred, current, stop, name="loopcond")
        else:
            up = self.builder.icmp("slt", current, stop, name="up")
            down = self.builder.icmp("sgt", current, stop, name="down")
            positive = self.builder.icmp("sgt", step, zero, name="steppos")
            cond = self.builder.select(positive, up, down, name="loopcond")
        self.builder.cbranch(cond, body, exit_block)

        self.builder.position_at_end(body)
        self.loops.append((latch, exit_block))
        self._lower_body(stmt.body)
        self.loops.pop()
        if not self.builder.block.is_terminated:
            self.builder.branch(latch)

        self.builder.position_at_end(latch)
        bumped = self.builder.add(self._load_local(var, stmt), step,
                                  name=f"{var}.next")
        self._store_local(var, bumped, stmt)
        self.builder.branch(header)
        self.builder.position_at_end(exit_block)

    def _lower_while(self, stmt: ast.While) -> None:
        if stmt.orelse:
            raise CompileError("while/else unsupported", stmt, self.name)
        header = self.func.add_block("while.header")
        body = self.func.add_block("while.body")
        exit_block = self.func.add_block("while.exit")
        self.builder.branch(header)
        self.builder.position_at_end(header)
        cond = self._condition(stmt.test)
        self.builder.cbranch(cond, body, exit_block)
        self.builder.position_at_end(body)
        self.loops.append((header, exit_block))
        self._lower_body(stmt.body)
        self.loops.pop()
        if not self.builder.block.is_terminated:
            self.builder.branch(header)
        self.builder.position_at_end(exit_block)

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self._condition(stmt.test)
        then_block = self.func.add_block("if.then")
        merge = self.func.add_block("if.end")
        else_block = self.func.add_block("if.else") if stmt.orelse else merge
        self.builder.cbranch(cond, then_block, else_block)
        self.builder.position_at_end(then_block)
        self._lower_body(stmt.body)
        if not self.builder.block.is_terminated:
            self.builder.branch(merge)
        if stmt.orelse:
            self.builder.position_at_end(else_block)
            self._lower_body(stmt.orelse)
            if not self.builder.block.is_terminated:
                self.builder.branch(merge)
        self.builder.position_at_end(merge)

    def _lower_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            if not self.func.return_type.is_void:
                raise CompileError("missing return value", stmt, self.name)
            self.builder.ret()
            return
        value = self._coerce(self._expr(stmt.value), self.func.return_type,
                             stmt)
        self.builder.ret(value)

    # -- expressions -----------------------------------------------------
    def _expr(self, node: ast.expr) -> Value:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return Constant(I1, int(node.value))
            if isinstance(node.value, int):
                return Constant(I64, node.value)
            if isinstance(node.value, float):
                return Constant(F64, node.value)
            raise CompileError(f"unsupported constant {node.value!r}", node,
                               self.name)
        if isinstance(node, ast.Name):
            return self._load_local(node.id, node)
        if isinstance(node, ast.BinOp):
            return self._binop(node.op, self._expr(node.left),
                               self._expr(node.right), node)
        if isinstance(node, ast.UnaryOp):
            return self._unary(node)
        if isinstance(node, ast.Compare):
            return self._compare(node)
        if isinstance(node, ast.BoolOp):
            values = [self._condition(v) for v in node.values]
            op = (self.builder.and_ if isinstance(node.op, ast.And)
                  else self.builder.or_)
            result = values[0]
            for value in values[1:]:
                result = op(result, value, name="bool")
            return result
        if isinstance(node, ast.Subscript):
            pointer = self._element_pointer(node)
            return self.builder.load(pointer, name="ld")
        if isinstance(node, ast.Call):
            result = self._lower_call(node, statement=False)
            if result is None:
                raise CompileError("void call used as a value", node,
                                   self.name)
            return result
        if isinstance(node, ast.IfExp):
            cond = self._condition(node.test)
            a = self._expr(node.body)
            b = self._expr(node.orelse)
            a, b = self._promote_pair(a, b, node)
            return self.builder.select(cond, a, b, name="sel")
        raise CompileError(f"unsupported expression {type(node).__name__}",
                           node, self.name)

    def _load_local(self, name: str, node: ast.AST) -> Value:
        slot = self.slots.get(name)
        if slot is None:
            raise CompileError(f"use of undefined variable {name!r}", node,
                               self.name)
        return self.builder.load(slot, name=name)

    def _element_pointer(self, node: ast.Subscript) -> Value:
        base = self._expr(node.value)
        if not base.type.is_pointer:
            raise CompileError("subscript on non-pointer value", node,
                               self.name)
        index = self._coerce(self._expr(node.slice), I64, node)
        return self.builder.gep(base, index, name="elem")

    def _condition(self, node: ast.expr) -> Value:
        value = self._expr(node)
        if value.type == I1:
            return value
        if value.type.is_integer:
            return self.builder.icmp("ne", value, Constant(value.type, 0),
                                     name="tobool")
        if value.type.is_float:
            return self.builder.fcmp("one", value, Constant(value.type, 0.0),
                                     name="tobool")
        raise CompileError("condition must be scalar", node, self.name)

    def _unary(self, node: ast.UnaryOp) -> Value:
        operand = self._expr(node.operand)
        if isinstance(node.op, ast.USub):
            if operand.type.is_float:
                return self.builder.fsub(Constant(operand.type, 0.0), operand,
                                         name="neg")
            return self.builder.sub(Constant(operand.type, 0), operand,
                                    name="neg")
        if isinstance(node.op, ast.UAdd):
            return operand
        if isinstance(node.op, ast.Not):
            cond = (operand if operand.type == I1
                    else self._condition(node.operand))
            return self.builder.xor(cond, Constant(I1, 1), name="not")
        if isinstance(node.op, ast.Invert):
            return self.builder.xor(operand, Constant(operand.type, -1),
                                    name="inv")
        raise CompileError("unsupported unary operator", node, self.name)

    def _compare(self, node: ast.Compare) -> Value:
        if len(node.ops) != 1:
            raise CompileError("chained comparisons unsupported", node,
                               self.name)
        lhs = self._expr(node.left)
        rhs = self._expr(node.comparators[0])
        lhs, rhs = self._promote_pair(lhs, rhs, node)
        op = node.ops[0]
        if lhs.type.is_float:
            pred = _FCMP_PRED.get(type(op))
            if pred is None:
                raise CompileError("unsupported float comparison", node,
                                   self.name)
            return self.builder.fcmp(pred, lhs, rhs, name="cmp")
        pred = _CMP_PRED.get(type(op))
        if pred is None:
            raise CompileError("unsupported comparison", node, self.name)
        return self.builder.icmp(pred, lhs, rhs, name="cmp")

    def _binop(self, op: ast.operator, lhs: Value, rhs: Value,
               node: ast.AST) -> Value:
        if isinstance(op, ast.Div):
            lhs = self._coerce(lhs, F64, node)
            rhs = self._coerce(rhs, F64, node)
            return self.builder.fdiv(lhs, rhs, name="div")
        lhs, rhs = self._promote_pair(lhs, rhs, node)
        if lhs.type.is_float:
            opcode = _BINOP_FLOAT.get(type(op))
            if opcode is None:
                raise CompileError(
                    f"operator {type(op).__name__} not valid on floats",
                    node, self.name)
            return self.builder.binop(opcode, lhs, rhs, name="f")
        if lhs.type.is_pointer:
            if isinstance(op, ast.Add):
                raise CompileError("use subscripts, not pointer arithmetic",
                                   node, self.name)
            raise CompileError("invalid pointer operation", node, self.name)
        opcode = _BINOP_INT.get(type(op))
        if opcode is None:
            raise CompileError(
                f"operator {type(op).__name__} not valid on integers",
                node, self.name)
        return self.builder.binop(opcode, lhs, rhs, name="i")

    def _promote_pair(self, a: Value, b: Value,
                      node: ast.AST) -> Tuple[Value, Value]:
        if a.type == b.type:
            return a, b
        if a.type.is_float or b.type.is_float:
            return (self._coerce(a, F64, node), self._coerce(b, F64, node))
        if a.type.is_integer and b.type.is_integer:
            return (self._coerce(a, I64, node), self._coerce(b, I64, node))
        raise CompileError(f"incompatible types {a.type} and {b.type}", node,
                           self.name)

    def _coerce(self, value: Value, ty: IRType, node: ast.AST) -> Value:
        if value.type == ty:
            return value
        if isinstance(value, Constant):
            if ty.is_float and value.type.is_integer:
                return Constant(ty, float(value.value))
            if ty.is_integer and value.type.is_integer:
                return Constant(ty, value.value)
        if ty.is_float and value.type.is_integer:
            return self.builder.sitofp(value, ty, name="tofp")
        if ty.is_integer and value.type.is_float:
            return self.builder.fptosi(value, ty, name="toint")
        if ty.is_integer and value.type.is_integer:
            opcode = (Opcode.SEXT if ty.size > value.type.size
                      else Opcode.TRUNC)
            if value.type == I1:
                opcode = Opcode.ZEXT
            return self.builder.cast(opcode, value, ty, name="cast")
        raise CompileError(f"cannot convert {value.type} to {ty}", node,
                           self.name)

    # -- calls -------------------------------------------------------------
    def _lower_call(self, node: ast.Call,
                    statement: bool) -> Optional[Value]:
        if not isinstance(node.func, ast.Name):
            raise CompileError("only direct calls are supported", node,
                               self.name)
        name = node.func.id
        args = [self._expr(a) for a in node.args]

        if name == "float":
            return self._coerce(args[0], F64, node)
        if name == "int":
            return self._coerce(args[0], I64, node)
        if name == "bool":
            return self._condition(node.args[0])
        if name in ("min", "max"):
            a, b = self._promote_pair(args[0], args[1], node)
            pred = ("olt" if name == "min" else "ogt") if a.type.is_float \
                else ("slt" if name == "min" else "sgt")
            cmp_fn = self.builder.fcmp if a.type.is_float else self.builder.icmp
            cond = cmp_fn(pred, a, b, name=name)
            return self.builder.select(cond, a, b, name=name)
        if name == "abs":
            value = args[0]
            if value.type.is_float:
                return self.builder.call("fabsf", F64, [value], name="abs")
            neg = self.builder.sub(Constant(value.type, 0), value, name="neg")
            cond = self.builder.icmp("slt", value, Constant(value.type, 0),
                                     name="isneg")
            return self.builder.select(cond, neg, value, name="abs")
        if name in _ATOMIC_OPS:
            base, index, value = args[0], args[1], args[2]
            if not base.type.is_pointer:
                raise CompileError("atomic op on non-pointer", node, self.name)
            index = self._coerce(index, I64, node)
            value = self._coerce(value, base.type.pointee, node)
            pointer = self.builder.gep(base, index, name="aelem")
            return self.builder.atomicrmw(_ATOMIC_OPS[name], pointer, value,
                                          name="old")
        if name in ("send", "recv"):
            raise CompileError(
                f"use typed message intrinsics (send_i64/send_f64/"
                f"recv_i64/recv_f64), not {name}()", node, self.name)
        info = intrin.lookup(name)
        if info is None:
            raise CompileError(f"unknown function {name!r}", node, self.name)
        if not info.variadic:
            if len(args) != len(info.arg_types):
                raise CompileError(
                    f"{name} expects {len(info.arg_types)} args, got "
                    f"{len(args)}", node, self.name)
            args = [self._coerce(a, ty, node)
                    for a, ty in zip(args, info.arg_types)]
        call = self.builder.call(name, info.return_type, args, name=name)
        if info.return_type.is_void:
            return None
        return call


def _parse_function(source_or_fn: Union[str, Callable],
                    name: Optional[str]) -> Tuple[ast.FunctionDef, str]:
    if callable(source_or_fn):
        source = textwrap.dedent(inspect.getsource(source_or_fn))
        default_name = source_or_fn.__name__
    else:
        source = textwrap.dedent(source_or_fn)
        default_name = name or ""
    tree = ast.parse(source)
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if not defs:
        raise CompileError("no function definition found")
    if name:
        for d in defs:
            if d.name == name:
                return d, name
        raise CompileError(f"no function named {name!r} in source")
    return defs[0], default_name or defs[0].name


def compile_kernel(source_or_fn: Union[str, Callable], *,
                   name: Optional[str] = None,
                   optimize: bool = True,
                   verify: bool = True) -> Function:
    """Compile one kernel to a finalized, verified IR function.

    ``source_or_fn`` may be a Python function object or source text. With
    ``optimize`` (the default), mem2reg and dead-code elimination run so the
    result is in proper SSA form with phi nodes.
    """
    tree, resolved = _parse_function(source_or_fn, name)
    func = _Lowering(tree, resolved).run()
    _remove_unreachable_blocks(func)
    if optimize:
        promote_allocas(func)
        dead_code_elimination(func)
    func.finalize()
    if verify:
        verify_function(func)
    func.attributes["kernel"] = True
    return func


def compile_module(kernels: Sequence[Union[str, Callable]],
                   name: str = "module", *,
                   optimize: bool = True) -> Module:
    """Compile several kernels into one module."""
    module = Module(name)
    for kernel in kernels:
        module.add_function(compile_kernel(kernel, optimize=optimize))
    return module


def _remove_unreachable_blocks(func: Function) -> None:
    reachable = set()
    stack = [func.entry]
    while stack:
        block = stack.pop()
        if id(block) in reachable:
            continue
        reachable.add(id(block))
        stack.extend(block.successors)
    dead = [b for b in func.blocks if id(b) not in reachable]
    for block in dead:
        func.blocks.remove(block)
    # drop phi incomings that referenced removed blocks
    dead_ids = {id(b) for b in dead}
    for block in func.blocks:
        for phi in block.phis:
            keep = [(v, b) for v, b in zip(phi.operands, phi.incoming_blocks)
                    if id(b) not in dead_ids]
            phi.operands = [v for v, _ in keep]
            phi.incoming_blocks = [b for _, b in keep]
