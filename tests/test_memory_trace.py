"""SimMemory and trace-file tests."""

import numpy as np
import pytest

from repro.ir import F64, I64
from repro.trace import (
    KernelTrace, MemoryError_, SimMemory, load_traces, save_traces,
)
from repro.trace.tracefile import AccelInvocation


class TestSimMemory:
    def test_alloc_returns_aligned_bases(self, mem):
        a = mem.alloc(10, F64, "a")
        b = mem.alloc(10, I64, "b")
        assert a.base % 64 == 0
        assert b.base % 64 == 0
        assert b.base >= a.end

    def test_load_store_roundtrip(self, mem):
        a = mem.alloc(4, F64, "a")
        mem.store(a.address_of(2), 3.25)
        assert mem.load(a.address_of(2), F64) == 3.25

    def test_int_load_returns_python_int(self, mem):
        a = mem.alloc(4, I64, "a", init=[1, 2, 3, 4])
        value = mem.load(a.address_of(1), I64)
        assert value == 2 and isinstance(value, int)

    def test_init_values(self, mem):
        a = mem.alloc(3, F64, "a", init=[1.0, 2.0, 3.0])
        assert list(a.data) == [1.0, 2.0, 3.0]

    def test_init_shape_checked(self, mem):
        with pytest.raises(ValueError):
            mem.alloc(3, F64, "a", init=[1.0, 2.0])

    def test_unmapped_address_raises(self, mem):
        with pytest.raises(MemoryError_, match="unmapped"):
            mem.load(0x10, F64)

    def test_past_end_raises(self, mem):
        a = mem.alloc(2, F64, "a")
        with pytest.raises(MemoryError_, match="past end"):
            mem.load(a.end, F64)

    def test_past_end_raises_after_segment_resolved(self, mem):
        """The last-resolved segment is checked before bisecting; a load
        from the alignment padding just past its end must still fault."""
        a = mem.alloc(3, F64, "a")
        mem.alloc(2, F64, "b")
        assert a.end % 64  # 24 bytes: the padding up to b is unmapped
        assert mem.load(a.address_of(2), F64) == 0.0
        with pytest.raises(MemoryError_, match="past end"):
            mem.load(a.end, F64)
        with pytest.raises(MemoryError_, match="past end"):
            mem.store(a.end + 8, 1.0)

    def test_misaligned_access_raises(self, mem):
        a = mem.alloc(2, F64, "a")
        with pytest.raises(MemoryError_, match="misaligned"):
            mem.load(a.base + 3, F64)

    def test_zero_alloc_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.alloc(0, F64)

    def test_view(self, mem):
        a = mem.alloc(8, F64, "a", init=np.arange(8.0))
        view = mem.view(a.address_of(2), 3)
        assert list(view) == [2.0, 3.0, 4.0]
        view[0] = 99.0
        assert a[2] == 99.0

    def test_view_overflow_rejected(self, mem):
        a = mem.alloc(4, F64, "a")
        with pytest.raises(MemoryError_):
            mem.view(a.base, 5)

    def test_footprint(self, mem):
        mem.alloc(10, F64)
        mem.alloc(10, I64)
        assert mem.footprint_bytes == 160

    def test_array_ref_helpers(self, mem):
        a = mem.alloc(5, I64, "a", init=[9, 8, 7, 6, 5])
        assert len(a) == 5
        assert a[0] == 9
        a[0] = 1
        assert a.data[0] == 1
        assert a.address_of(4) == a.base + 32


class TestTraceFiles:
    def test_roundtrip(self, tmp_path):
        trace = KernelTrace("k", tile=1, num_tiles=4)
        trace.record_block(0)
        trace.record_block(2)
        trace.record_address(5, 0x1000)
        trace.record_address(5, 0x1008)
        trace.record_peer(9, 3)
        trace.accel_calls.append(AccelInvocation(7, "accel_sgemm",
                                                 (1, 2, 3)))
        trace.dynamic_instructions = 42
        path = tmp_path / "trace.bin"
        size = save_traces([trace], path)
        assert size > 0
        loaded = load_traces(path)[0]
        assert loaded.block_trace == [0, 2]
        assert loaded.addr_trace == {5: [0x1000, 0x1008]}
        assert loaded.comm_trace == {9: [3]}
        assert loaded.accel_calls[0].name == "accel_sgemm"
        assert loaded.dynamic_instructions == 42

    def test_bad_payload_rejected(self, tmp_path):
        import pickle
        import zlib
        path = tmp_path / "junk.bin"
        path.write_bytes(zlib.compress(pickle.dumps({"not": "traces"})))
        with pytest.raises(ValueError):
            load_traces(path)

    def test_summary_mentions_counts(self):
        trace = KernelTrace("k")
        trace.record_block(0)
        trace.dynamic_instructions = 7
        text = trace.summary()
        assert "1 DBBs" in text and "7 dynamic" in text
