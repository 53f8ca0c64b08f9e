"""Optimizer pipeline tests: constant folding, CSE, LICM — semantics
preserved, work actually removed."""

import numpy as np
import pytest

from repro.frontend import compile_kernel
from repro.harness import prepare, simulate, xeon_core, xeon_hierarchy
from repro.ir import F64, Opcode, verify_function
from repro.ir.function import Module
from repro.passes import (
    build_ddg, common_subexpression_elimination, constant_fold,
    loop_invariant_code_motion, optimize,
)
from repro.trace import Interpreter, SimMemory
from repro.workloads import build_parboil

from . import kernels


def _run(func, args, memory=None):
    module = Module(func.name)
    module.add_function(func)
    interp = Interpreter(module, memory if memory is not None
                         else SimMemory())
    return interp.run(func.name, args)


class TestConstantFold:
    def test_folds_constant_expression(self):
        source = ("def f(x: int) -> int:\n"
                  "    return x + (2 * 3 + 4)\n")
        func = compile_kernel(source)
        folded = constant_fold(func)
        assert folded >= 2
        assert _run(func.finalize(), [5]).return_value == 15

    def test_identities(self):
        source = ("def f(x: int) -> int:\n"
                  "    a = x + 0\n"
                  "    b = a * 1\n"
                  "    c = b - b\n"
                  "    return b + c\n")
        func = compile_kernel(source)
        constant_fold(func)
        from repro.passes import dead_code_elimination
        dead_code_elimination(func)
        # everything reduces to returning x
        arith = [i for i in func.instructions()
                 if i.opcode in (Opcode.ADD, Opcode.SUB, Opcode.MUL)]
        assert not arith
        assert _run(func.finalize(), [9]).return_value == 9

    def test_comparison_folding(self):
        source = ("def f(x: int) -> int:\n"
                  "    if 3 > 5:\n        return 111\n"
                  "    return x\n")
        func = compile_kernel(source)
        folded = constant_fold(func)
        assert folded >= 1
        assert _run(func.finalize(), [4]).return_value == 4

    def test_never_folds_trapping_division(self):
        source = ("def f(x: int) -> int:\n"
                  "    return x // (3 - 3)\n")
        func = compile_kernel(source)
        constant_fold(func)  # must not crash or fold 1//0
        sdivs = [i for i in func.instructions()
                 if i.opcode is Opcode.SDIV]
        assert sdivs

    @pytest.mark.parametrize("source,args,expected", [
        # i64 overflow wraps, as the interpreter computes it
        ("def f() -> int:\n"
         "    if 9223372036854775807 + 1 < 0:\n        return 1\n"
         "    return 0\n", [], 1),
        ("def f() -> int:\n"
         "    return 9223372036854775807 + 1\n", [], -(1 << 63)),
        # the shift amount is masked to 6 bits: 1 << 64 == 1
        ("def f(x: int) -> int:\n"
         "    return x + (1 << 64)\n", [0], 1),
        # an out-of-range fptosi wraps like every other i64 result
        ("def f() -> int:\n"
         "    if int(1e19) < 0:\n        return 1\n"
         "    return 0\n", [], 1),
    ], ids=["overflow-compare", "overflow-return", "shift-mask",
            "fptosi-wrap"])
    def test_folding_matches_interpreter(self, source, args, expected):
        unfolded = _run(compile_kernel(source).finalize(), args)
        func = compile_kernel(source)
        assert constant_fold(func) >= 1
        folded = _run(func.finalize(), args)
        assert unfolded.return_value == expected
        assert folded.return_value == expected


class TestCSE:
    def test_removes_duplicate_geps(self):
        func = compile_kernel(kernels.saxpy)
        geps_before = sum(1 for i in func.instructions()
                          if i.opcode is Opcode.GEP)
        removed = common_subexpression_elimination(func)
        geps_after = sum(1 for i in func.instructions()
                         if i.opcode is Opcode.GEP)
        # B[i] is addressed twice in the original
        assert geps_after < geps_before
        assert removed >= 1
        func.finalize()
        verify_function(func)

    def test_respects_dominance(self):
        """Identical expressions in sibling branches must NOT merge."""
        source = ("def f(x: int, c: int) -> int:\n"
                  "    if c > 0:\n        y = x * 7\n"
                  "    else:\n        y = x * 7\n"
                  "    return y\n")
        func = compile_kernel(source)
        removed = common_subexpression_elimination(func)
        assert removed == 0

    def test_never_merges_loads(self):
        source = ("def f(A: 'f64*') -> float:\n"
                  "    a = A[0]\n"
                  "    A[0] = a + 1.0\n"
                  "    b = A[0]\n"
                  "    return a + b\n")
        func = compile_kernel(source)
        common_subexpression_elimination(func)
        loads = [i for i in func.instructions()
                 if i.opcode is Opcode.LOAD]
        assert len(loads) == 2
        mem = SimMemory()
        A = mem.alloc(1, F64, "A", init=[5.0])
        assert _run(func.finalize(), [A], mem).return_value == 11.0


class TestLICM:
    def test_hoists_invariant_multiply(self):
        source = ("def f(A: 'f64*', n: int, a: float, b: float):\n"
                  "    for i in range(n):\n"
                  "        A[i] = A[i] + a * b\n")
        func = compile_kernel(source)
        hoisted = loop_invariant_code_motion(func)
        assert hoisted >= 1
        body = func.block_by_name("for.body")
        assert Opcode.FMUL not in [i.opcode for i in body.instructions]
        mem = SimMemory()
        A = mem.alloc(4, F64, "A", init=[0.0] * 4)
        _run(func.finalize(), [A, 4, 2.0, 3.0], mem)
        assert list(A.data) == [6.0] * 4

    def test_does_not_hoist_variant_code(self):
        func = compile_kernel(kernels.vector_sum)
        before = [i.opcode for i in func.block_by_name(
            "for.body").instructions]
        loop_invariant_code_motion(func)
        after = [i.opcode for i in func.block_by_name(
            "for.body").instructions]
        assert Opcode.LOAD in after  # loads never move
        assert before.count(Opcode.FADD) == after.count(Opcode.FADD)

    def test_zero_trip_loop_safe(self):
        source = ("def f(A: 'f64*', n: int, a: float, b: float):\n"
                  "    for i in range(n):\n"
                  "        A[i] = a * b\n")
        func = compile_kernel(source)
        loop_invariant_code_motion(func)
        mem = SimMemory()
        A = mem.alloc(2, F64, "A", init=[7.0, 7.0])
        _run(func.finalize(), [A, 0, 1.0, 2.0], mem)
        assert list(A.data) == [7.0, 7.0]  # untouched


class TestPipeline:
    @pytest.mark.parametrize("name", ["sgemm", "stencil", "lbm", "mri-q"])
    def test_optimized_kernels_stay_correct(self, name):
        workload = build_parboil(name)
        func = compile_kernel(workload.kernel)
        optimize(func)
        verify_function(func)
        prepare(func, workload.args, memory=workload.memory)
        workload.verify()

    def test_optimization_reduces_simulated_cycles(self):
        """The co-design claim: a compiler change shows up in hardware
        metrics with no simulator change."""
        baseline_w = build_parboil("lbm")
        baseline_p = prepare(baseline_w.kernel, baseline_w.args,
                             memory=baseline_w.memory)
        baseline = simulate(baseline_p.function, [], prepared=baseline_p,
                            core=xeon_core(), hierarchy=xeon_hierarchy())

        optimized_w = build_parboil("lbm")
        func = compile_kernel(optimized_w.kernel)
        report = optimize(func)
        optimized_p = prepare(func, optimized_w.args,
                              memory=optimized_w.memory)
        optimized = simulate(func, [], prepared=optimized_p,
                             core=xeon_core(), hierarchy=xeon_hierarchy())
        assert sum(report.values()) > 0
        assert optimized.cycles < baseline.cycles
        assert optimized.instructions < baseline.instructions

    def test_report_keys(self):
        func = compile_kernel(kernels.saxpy)
        report = optimize(func)
        assert set(report) == {"constant_fold", "cse", "licm", "dce"}
