"""Tests for heterogeneous multi-core simulation and whole-model NN
lowering."""

import hashlib
import json

import numpy as np
import pytest

from repro.harness import (
    build_dae, build_heterogeneous, build_system, dae_hierarchy,
    inorder_core, ooo_core, prepare_dae_sliced, run_supervised, simulate,
    simulate_dae, simulate_heterogeneous, xeon_hierarchy,
)
from repro.ir import F64, Opcode
from repro.nn import (
    Conv2D, Dense, LoweringError, ReLU, Sequential, convnet_inference,
    lower_inference,
)
from repro.telemetry import stats_to_dict
from repro.trace import SimMemory
from repro.workloads.sinkhorn import build_ewsd

from . import kernels


def _saxpy_setup(n=512):
    mem = SimMemory()
    A = mem.alloc(n, F64, "A", init=np.ones(n))
    B = mem.alloc(n, F64, "B", init=np.ones(n))
    return mem, A, B, n


class TestHeterogeneousSimulation:
    def test_requires_cores(self):
        with pytest.raises(ValueError):
            simulate_heterogeneous(kernels.saxpy_blocked, [], cores=[])

    def test_rejects_unknown_keywords(self):
        """Run options pass through ``**options`` to the Interleaver, so
        a misspelled one still fails loudly, from every entry point; and
        no builder picked up another builder's keywords."""
        def spmd():
            _, A, B, n = _saxpy_setup(16)
            return (kernels.saxpy_blocked, [A, B, n, 2.0])

        def dae():
            w = build_ewsd(nnz=16, dense_len=32)
            return (prepare_dae_sliced(w.kernel, w.args, pairs=1),)

        cores = dict(access_core=inorder_core(), execute_core=inorder_core())
        cases = [(build_system, spmd, {}), (simulate, spmd, {}),
                 (run_supervised, spmd, {}),
                 (build_heterogeneous, spmd, {"cores": [ooo_core()]}),
                 (simulate_heterogeneous, spmd, {"cores": [ooo_core()]}),
                 (build_dae, dae, cores), (simulate_dae, dae, cores)]
        for runner, positional, required in cases:
            for bad in ("tracr", "frequency_ghz", "queue_entries"):
                if bad == "queue_entries" and positional is dae:
                    continue
                with pytest.raises(TypeError, match=bad):
                    runner(*positional(), **required, **{bad: None})

    @pytest.mark.parametrize("tiles", [1, 2, 4])
    @pytest.mark.parametrize("core", [ooo_core, inorder_core])
    def test_homogeneous_is_heterogeneous_on_identical_cores(self, core,
                                                              tiles):
        def digest(builder, **system):
            mem, A, B, n = _saxpy_setup(128)
            stats = builder(kernels.saxpy_blocked, [A, B, n, 2.0],
                            hierarchy=dae_hierarchy(), memory=mem,
                            **system).run()
            assert np.allclose(B.data, 3.0)
            return hashlib.sha256(json.dumps(
                stats_to_dict(stats), sort_keys=True).encode()).hexdigest()

        assert digest(build_system, core=core(), num_tiles=tiles) \
            == digest(build_heterogeneous, cores=[core()] * tiles)

    def test_mixed_cores_run_correctly(self):
        mem, A, B, n = _saxpy_setup()
        cores = [ooo_core(), inorder_core()]
        stats = simulate_heterogeneous(
            kernels.saxpy_blocked, [A, B, n, 2.0], cores=cores,
            hierarchy=dae_hierarchy(), memory=mem)
        assert np.allclose(B.data, 3.0)
        assert len(stats.tiles) == 2
        assert stats.tiles[0].name.startswith("OoO")
        assert stats.tiles[1].name.startswith("InO")

    def test_big_core_finishes_first_on_equal_partition(self):
        mem, A, B, n = _saxpy_setup(1024)
        stats = simulate_heterogeneous(
            kernels.saxpy_blocked, [A, B, n, 2.0],
            cores=[ooo_core(), inorder_core(), inorder_core(),
                   inorder_core()],
            hierarchy=dae_hierarchy(), memory=mem)
        big, little = stats.tiles[0], stats.tiles[1]
        assert big.cycles < 0.7 * little.cycles

    def test_clock_scaling_across_tiles(self):
        """A 1 GHz little core gets period 2 against a 2 GHz big core."""
        mem, A, B, n = _saxpy_setup(256)
        slow = inorder_core().scaled(frequency_ghz=1.0, name="Little")
        stats = simulate_heterogeneous(
            kernels.saxpy_blocked, [A, B, n, 2.0],
            cores=[ooo_core(), slow], hierarchy=dae_hierarchy(),
            memory=mem)
        mem2, A2, B2, n2 = _saxpy_setup(256)
        same_speed = simulate_heterogeneous(
            kernels.saxpy_blocked, [A2, B2, n2, 2.0],
            cores=[ooo_core(), inorder_core()],
            hierarchy=dae_hierarchy(), memory=mem2)
        # slower clock costs real time, but memory latency (in global
        # cycles) is clock-independent, so the slowdown is sub-2x on a
        # memory-leaning kernel
        assert stats.tiles[1].cycles > 1.15 * same_speed.tiles[1].cycles

    def test_barriers_work_across_heterogeneous_tiles(self):
        from repro.ir import I64
        mem = SimMemory()
        A = mem.alloc(32, I64, "A")
        stats = simulate_heterogeneous(
            kernels.barrier_phases, [A, 32, 2],
            cores=[ooo_core(), inorder_core()],
            hierarchy=dae_hierarchy(), memory=mem)
        assert np.array_equal(A.data, np.full(32, 2))
        assert stats.cycles > 0


class TestNNLowering:
    @pytest.fixture(scope="class")
    def lowered(self):
        return lower_inference(convnet_inference(), seed=1)

    def test_generates_one_call_per_costed_layer(self, lowered):
        calls = [i for i in lowered.function.instructions()
                 if i.opcode is Opcode.CALL]
        assert len(calls) == 9
        assert all(c.callee.startswith("accel_") for c in calls)

    def test_forward_pass_matches_reference(self, lowered):
        x = np.random.default_rng(4).uniform(-1, 1, 12 * 12 * 3)
        lowered.input_buffer.data[:] = x
        stats = simulate(lowered.function, lowered.args, core=ooo_core(),
                         hierarchy=xeon_hierarchy(),
                         accelerators=lowered.farm(),
                         memory=lowered.memory)
        assert np.allclose(lowered.output_buffer.data,
                           lowered.reference(x), atol=1e-9)
        assert stats.tiles[0].accel_invocations == 9

    def test_invocations_serialize_through_driver(self, lowered):
        """Layer n+1 consumes layer n's output through memory, which the
        IR cannot express — the driver model serializes invocations, so
        total time ~ sum of accelerator time."""
        x = np.random.default_rng(5).uniform(-1, 1, 12 * 12 * 3)
        lowered.input_buffer.data[:] = x
        stats = simulate(lowered.function, lowered.args, core=ooo_core(),
                         hierarchy=xeon_hierarchy(),
                         accelerators=lowered.farm(),
                         memory=lowered.memory)
        tile = stats.tiles[0]
        assert tile.accel_cycles <= stats.cycles + 9

    def test_padded_conv_rejected(self):
        model = Sequential("bad", [Conv2D(4, padded=True)], (8, 8, 3))
        with pytest.raises(LoweringError, match="padded=False"):
            lower_inference(model)

    def test_unsupported_layer_rejected(self):
        from repro.nn import Embedding
        model = Sequential("bad", [Embedding(16, 4)], (4,))
        with pytest.raises(LoweringError, match="no inference lowering"):
            lower_inference(model)

    def test_dense_only_model(self):
        model = Sequential("mlp", [Dense(16), ReLU(), Dense(4)], (32,))
        lowered = lower_inference(model, seed=2)
        x = np.random.default_rng(6).uniform(-1, 1, 32)
        lowered.input_buffer.data[:] = x
        simulate(lowered.function, lowered.args, core=inorder_core(),
                 hierarchy=dae_hierarchy(), accelerators=lowered.farm(),
                 memory=lowered.memory)
        assert np.allclose(lowered.output_buffer.data,
                           lowered.reference(x), atol=1e-9)
