"""DAE slicing and simulation tests (paper §VII-A)."""

import numpy as np
import pytest

from repro.frontend import compile_kernel
from repro.harness import (
    build_dae, dae_hierarchy, inorder_core, ooo_core, prepare_dae,
    prepare_dae_sliced, simulate, simulate_dae, xeon_core,
)
from repro.ir import F64, I64, Opcode, verify_function
from repro.passes import build_ddg
from repro.passes.dae_slicing import DAESliceError, mark_decoupled, slice_dae
from repro.trace import SimMemory
from repro.workloads.sinkhorn import build_ewsd

from . import kernels


@pytest.fixture
def ewsd():
    return build_ewsd(nnz=256, dense_len=512)


def _callees(func):
    return [i.callee for i in func.instructions()
            if i.opcode is Opcode.CALL]


class TestSlicingPass:
    def test_slices_verify(self):
        func = compile_kernel(kernels.dae_friendly)
        access, execute = slice_dae(func)
        verify_function(access)
        verify_function(execute)
        assert access.attributes["dae_slice"] == "access"
        assert execute.attributes["dae_slice"] == "execute"

    def test_access_keeps_all_memory_ops(self):
        func = compile_kernel(kernels.dae_friendly)
        access, execute = slice_dae(func)
        original_mem = sum(1 for i in func.instructions() if i.is_memory)
        access_mem = sum(1 for i in access.instructions() if i.is_memory)
        execute_mem = sum(1 for i in execute.instructions() if i.is_memory)
        assert access_mem == original_mem
        assert execute_mem == 0

    def test_produce_consume_pairing(self):
        func = compile_kernel(kernels.dae_friendly)
        access, execute = slice_dae(func)
        produces = [c for c in _callees(access) if c.startswith("dae_produce")]
        consumes = [c for c in _callees(execute)
                    if c.startswith("dae_consume")]
        assert len(produces) == len(consumes) == 1  # only src[idx[i]]

    def test_terminal_load_stays_access_side(self):
        """idx[i] feeds only address computation: no produce for it."""
        func = compile_kernel(kernels.dae_friendly)
        access, execute = slice_dae(func)
        loads = [i for i in access.instructions()
                 if i.opcode is Opcode.LOAD]
        assert len(loads) == 2  # idx[i] and src[idx[i]]
        produces = [c for c in _callees(access)
                    if c.startswith("dae_produce")]
        assert len(produces) == 1

    def test_store_value_roundtrip(self):
        func = compile_kernel(kernels.dae_friendly)
        access, execute = slice_dae(func)
        assert any(c.startswith("dae_store_take") for c in _callees(access))
        assert any(c.startswith("dae_store_value")
                   for c in _callees(execute))

    def test_execute_has_value_computation(self):
        func = compile_kernel(kernels.dae_friendly)
        _, execute = slice_dae(func)
        opcodes = [i.opcode for i in execute.instructions()]
        assert Opcode.FMUL in opcodes and Opcode.FADD in opcodes

    def test_access_drops_value_computation(self):
        func = compile_kernel(kernels.dae_friendly)
        access, _ = slice_dae(func)
        opcodes = [i.opcode for i in access.instructions()]
        assert Opcode.FMUL not in opcodes

    def test_control_flow_duplicated(self):
        func = compile_kernel(kernels.dae_friendly)
        access, execute = slice_dae(func)
        assert len(access.blocks) == len(func.blocks)
        assert len(execute.blocks) == len(func.blocks)

    def test_atomics_rejected(self):
        func = compile_kernel(kernels.scatter_add)
        with pytest.raises(DAESliceError, match="atomic"):
            slice_dae(func)

    def test_accel_calls_rejected(self):
        func = compile_kernel(kernels.accel_sgemm_wrapper)
        with pytest.raises(DAESliceError, match="accel_sgemm"):
            slice_dae(func)


class TestDecoupling:
    def test_mark_decoupled_counts(self):
        func = compile_kernel(kernels.dae_friendly)
        access, _ = slice_dae(func)
        ddg = build_ddg(access)
        count = mark_decoupled(ddg)
        # one produce-fed load + one take/store pair
        assert count == 2
        assert sum(1 for n in ddg.nodes if n.decoupled) == 1
        assert sum(1 for n in ddg.nodes if n.decoupled_store) == 1

    def test_terminal_load_not_decoupled(self):
        func = compile_kernel(kernels.dae_friendly)
        access, _ = slice_dae(func)
        ddg = build_ddg(access)
        mark_decoupled(ddg)
        decoupled = [n for n in ddg.nodes if n.decoupled]
        coupled_loads = [n for n in ddg.nodes
                         if n.opcode is Opcode.LOAD and not n.decoupled]
        assert len(decoupled) == 1 and len(coupled_loads) == 1


class TestFunctionalEquivalence:
    def test_sliced_ewsd_matches_reference(self, ewsd):
        specs = prepare_dae_sliced(ewsd.kernel, ewsd.args, pairs=1)
        ewsd.verify()
        assert len(specs) == 1

    def test_multi_pair_slicing(self):
        w = build_ewsd(nnz=256, dense_len=512)
        prepare_dae_sliced(w.kernel, w.args, pairs=4)
        w.verify()

    def test_traces_have_expected_volume(self, ewsd):
        specs = prepare_dae_sliced(ewsd.kernel, ewsd.args, pairs=1)
        spec = specs[0]
        nnz = ewsd.params["nnz"]
        # access does 3 loads... 2 decoupled produces + 1 terminal
        assert spec.access_trace.num_memory_accesses == 4 * nnz
        assert spec.execute_trace.num_memory_accesses == 0


class TestDAETiming:
    def test_dae_tolerates_latency(self, ewsd):
        """The headline §VII-A result: an InO DAE pair beats one InO core
        on an irregular, latency-bound kernel."""
        specs = prepare_dae_sliced(ewsd.kernel, ewsd.args, pairs=1)
        dae = simulate_dae(specs, access_core=inorder_core(),
                           execute_core=inorder_core(),
                           hierarchy=dae_hierarchy())
        baseline_w = build_ewsd(nnz=256, dense_len=512)
        baseline = simulate(baseline_w.kernel, baseline_w.args,
                            core=inorder_core(), hierarchy=dae_hierarchy())
        assert dae.cycles < baseline.cycles / 1.5

    def test_queue_backpressure_respected(self, ewsd):
        """With a tiny queue, the access slice cannot run ahead: runtime
        degrades but the simulation still completes."""
        specs = prepare_dae_sliced(ewsd.kernel, ewsd.args, pairs=1)
        big_queue = simulate_dae(specs, access_core=inorder_core(),
                                 execute_core=inorder_core(),
                                 hierarchy=dae_hierarchy(),
                                 queue_entries=512)
        small_queue = simulate_dae(specs, access_core=inorder_core(),
                                   execute_core=inorder_core(),
                                   hierarchy=dae_hierarchy(),
                                   queue_entries=2)
        assert small_queue.cycles > big_queue.cycles

    def test_pairs_scale(self):
        w = build_ewsd(nnz=512, dense_len=1024)
        specs1 = prepare_dae_sliced(w.kernel, w.args, pairs=1)
        one = simulate_dae(specs1, access_core=inorder_core(),
                           execute_core=inorder_core(),
                           hierarchy=dae_hierarchy())
        w4 = build_ewsd(nnz=512, dense_len=1024)
        specs4 = prepare_dae_sliced(w4.kernel, w4.args, pairs=4)
        four = simulate_dae(specs4, access_core=inorder_core(),
                            execute_core=inorder_core(),
                            hierarchy=dae_hierarchy())
        assert four.cycles < one.cycles

    def test_execute_core_clock_counts(self, ewsd):
        """DAE systems follow the one clock rule: a 3.2 GHz execute core
        sets the global clock and the 2 GHz access core gets period 2."""
        specs = prepare_dae_sliced(ewsd.kernel, ewsd.args, pairs=1)
        system = build_dae(specs, access_core=inorder_core(),
                           execute_core=xeon_core(),
                           hierarchy=dae_hierarchy())
        assert [(t.name, t.period) for t in system.tiles] \
            == [("access0", 2), ("execute0", 1)]
        stats = system.run()
        assert stats.frequency_ghz == 3.2
        ewsd.verify()

    def test_explicit_slices_accepted(self, ewsd):
        """prepare_dae also takes hand-written access/execute kernels."""
        func = compile_kernel(ewsd.kernel)
        access, execute = slice_dae(func)
        specs = prepare_dae(access, execute, ewsd.args, pairs=1)
        stats = simulate_dae(specs, access_core=inorder_core(),
                             execute_core=ooo_core(),
                             hierarchy=dae_hierarchy())
        assert stats.cycles > 0
