"""Core tile model tests: the microarchitectural resource limits of
paper §III (issue width, ROB/window, LSQ/MAO, FU limits, live DBBs) and
the speculation options of §III-C."""

import dataclasses

import numpy as np
import pytest

from repro.harness import (
    build_system, dae_hierarchy, fold_for_x86, inorder_core, ooo_core,
    prepare, simulate,
)
from repro.ir import F64, I64, OpClass
from repro.sim.config import CoreConfig
from repro.trace import SimMemory

from . import kernels


def _saxpy_prepared(n=64, num_tiles=1):
    mem = SimMemory()
    A = mem.alloc(n, F64, "A", init=np.ones(n))
    B = mem.alloc(n, F64, "B", init=np.ones(n))
    return prepare(kernels.saxpy, [A, B, n, 2.0], num_tiles=num_tiles,
                   memory=mem)


def _cycles(prepared, core, **kwargs):
    stats = simulate(prepared.function, [], core=core, prepared=prepared,
                     num_tiles=len(prepared.traces), **kwargs)
    return stats


class TestResourceLimits:
    def test_wider_issue_is_faster(self):
        prepared = _saxpy_prepared()
        narrow = _cycles(prepared, CoreConfig(issue_width=1, rob_size=64,
                                              lsq_size=64))
        wide = _cycles(prepared, CoreConfig(issue_width=4, rob_size=64,
                                            lsq_size=64))
        assert wide.cycles < narrow.cycles

    def test_bigger_window_is_faster(self):
        prepared = _saxpy_prepared()
        small = _cycles(prepared, CoreConfig(issue_width=4, rob_size=2,
                                             lsq_size=64))
        big = _cycles(prepared, CoreConfig(issue_width=4, rob_size=64,
                                           lsq_size=64))
        assert big.cycles < small.cycles

    def test_window_of_one_serializes(self):
        prepared = _saxpy_prepared(n=16)
        stats = _cycles(prepared, inorder_core())
        # serial execution: at least 1 cycle per instruction
        assert stats.cycles >= stats.instructions

    def test_ipc_bounded_by_issue_width(self):
        prepared = _saxpy_prepared()
        stats = _cycles(prepared, ooo_core())
        assert stats.ipc <= 4.0 + 1e-9

    def test_fu_limit_throttles(self):
        prepared = _saxpy_prepared()
        free = _cycles(prepared, CoreConfig(issue_width=4, rob_size=64,
                                            lsq_size=64))
        throttled = _cycles(prepared, CoreConfig(
            issue_width=4, rob_size=64, lsq_size=64,
            fu_counts={OpClass.FPMUL: 1, OpClass.FPALU: 1,
                       OpClass.IALU: 1}))
        assert throttled.cycles > free.cycles

    def test_fu_limit_holds_with_folded_nodes(self):
        # regression: ISA-folded nodes complete free, never pass issue,
        # yet used to release an FU slot on completion, driving the
        # in-use count negative and silently lifting the limit
        prepared = _saxpy_prepared()
        folded = dataclasses.replace(prepared,
                                     ddg=fold_for_x86(prepared.ddg))
        assert any(n.folded and n.opclass is OpClass.IALU
                   for n in folded.ddg.nodes)
        limit = 1

        class InUse(dict):
            """FU in-use counts that must stay within [0, limit]."""
            peak = 0

            def __setitem__(self, opclass, count):
                assert 0 <= count <= limit, (opclass, count)
                InUse.peak = max(InUse.peak, count)
                super().__setitem__(opclass, count)

        def run(fu_counts):
            core = CoreConfig(issue_width=4, rob_size=64, lsq_size=64,
                              fu_counts=fu_counts)
            system = build_system(folded.function, [], core=core,
                                  prepared=folded)
            tile = system.tiles[0]
            tile._fu_used = InUse()
            stats = system.run()
            return stats, tile._fu_used

        free, _ = run({})
        throttled, in_use = run({OpClass.IALU: limit})
        assert in_use == {OpClass.IALU: 0}
        assert InUse.peak == limit
        assert throttled.cycles > free.cycles

    def test_lsq_limit_throttles(self):
        prepared = _saxpy_prepared()
        small = _cycles(prepared, CoreConfig(issue_width=4, rob_size=64,
                                             lsq_size=1))
        big = _cycles(prepared, CoreConfig(issue_width=4, rob_size=64,
                                           lsq_size=64))
        assert small.cycles >= big.cycles

    def test_live_dbb_limit(self):
        prepared = _saxpy_prepared()
        unlimited = simulate(prepared.function, [], prepared=prepared,
                             core=CoreConfig(issue_width=8, rob_size=256,
                                             lsq_size=256))
        limited = simulate(prepared.function, [], prepared=prepared,
                           core=CoreConfig(issue_width=8, rob_size=256,
                                           lsq_size=256, live_dbb_limit=1))
        assert limited.tiles[0].max_live_dbbs <= \
            unlimited.tiles[0].max_live_dbbs
        assert limited.cycles >= unlimited.cycles

    def test_instruction_count_matches_trace(self):
        prepared = _saxpy_prepared()
        stats = _cycles(prepared, ooo_core())
        from repro.ir import Opcode
        phis = sum(
            1 for bid in prepared.traces[0].block_trace
            for iid in prepared.ddg.blocks[bid].node_iids
            if prepared.ddg.nodes[iid].opcode is Opcode.PHI)
        assert stats.instructions == \
            prepared.traces[0].dynamic_instructions - phis


class TestSpeculation:
    def test_branch_speculation_helps(self):
        prepared = _saxpy_prepared()
        non_spec = _cycles(prepared, CoreConfig(
            issue_width=4, rob_size=64, lsq_size=64,
            branch_predictor="none"))
        perfect = _cycles(prepared, CoreConfig(
            issue_width=4, rob_size=64, lsq_size=64,
            branch_predictor="perfect"))
        assert perfect.cycles < non_spec.cycles

    def test_static_between_none_and_perfect(self):
        prepared = _saxpy_prepared()
        results = {}
        for mode in ("none", "static", "perfect"):
            results[mode] = _cycles(prepared, CoreConfig(
                issue_width=4, rob_size=64, lsq_size=64,
                branch_predictor=mode)).cycles
        # loops are backward-taken: static prediction is mostly right
        assert results["perfect"] <= results["static"] <= results["none"]

    def test_static_counts_mispredictions(self):
        prepared = _saxpy_prepared()
        stats = _cycles(prepared, CoreConfig(
            issue_width=4, rob_size=64, lsq_size=64,
            branch_predictor="static", mispredict_penalty=10))
        # the loop exit is mispredicted at least once
        assert stats.tiles[0].mispredictions >= 1

    def test_perfect_alias_helps_memory_order(self):
        mem = SimMemory()
        n = 64
        A = mem.alloc(n, F64, "A", init=np.zeros(n))
        prepared = prepare(kernels.store_forward, [A, n], memory=mem)
        base = CoreConfig(issue_width=4, rob_size=64, lsq_size=64)
        plain = simulate(prepared.function, [], prepared=prepared,
                         core=base)
        spec = simulate(prepared.function, [], prepared=prepared,
                        core=base.scaled(perfect_alias=True))
        assert spec.cycles <= plain.cycles


class TestMAOOrdering:
    def test_store_forward_chain_is_serial(self):
        """A[i] = A[i-1] + 1 must serialize through memory."""
        mem = SimMemory()
        n = 32
        A = mem.alloc(n, F64, "A", init=np.zeros(n))
        prepared = prepare(kernels.store_forward, [A, n], memory=mem)
        stats = simulate(prepared.function, [], prepared=prepared,
                         core=ooo_core().scaled(store_buffer=False))
        assert np.allclose(prepared.memory.segments[0].data,
                           np.arange(n, dtype=float))
        # each iteration's load waits for the previous store: the chain
        # costs at least a couple of cycles per element
        assert stats.cycles > 2 * n


class TestEnergyAccounting:
    def test_energy_scales_with_work(self):
        small = _saxpy_prepared(n=16)
        large = _saxpy_prepared(n=64)
        core = ooo_core()
        e_small = _cycles(small, core).total_energy_nj
        e_large = _cycles(large, core).total_energy_nj
        assert e_large > 2 * e_small

    def test_phis_are_free(self):
        prepared = _saxpy_prepared(n=8)
        stats = _cycles(prepared, ooo_core())
        assert stats.instructions < prepared.traces[0].dynamic_instructions


class TestAtomicPenalty:
    def test_penalty_slows_atomic_kernels(self):
        from repro.workloads import build_parboil
        w = build_parboil("histo", n=512)
        prepared = prepare(w.kernel, w.args, memory=w.memory)
        base = simulate(prepared.function, [], prepared=prepared,
                        core=ooo_core(), hierarchy=dae_hierarchy()).cycles
        slowed = simulate(prepared.function, [], prepared=prepared,
                          core=ooo_core().scaled(atomic_penalty=30),
                          hierarchy=dae_hierarchy()).cycles
        assert slowed > base

    def test_penalty_ignores_plain_memory_kernels(self):
        mem = SimMemory()
        n = 64
        A = mem.alloc(n, F64, "A", init=np.ones(n))
        B = mem.alloc(n, F64, "B", init=np.ones(n))
        prepared = prepare(kernels.saxpy, [A, B, n, 1.0], memory=mem)
        base = simulate(prepared.function, [], prepared=prepared,
                        core=ooo_core(), hierarchy=dae_hierarchy()).cycles
        same = simulate(prepared.function, [], prepared=prepared,
                        core=ooo_core().scaled(atomic_penalty=50),
                        hierarchy=dae_hierarchy()).cycles
        assert same == base
