"""Unit tests for the instrumented TracedMemory."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.common.errors import MemoryError_
from repro.mem.traced import LOAD_CYCLES, MUL_CYCLES, STORE_CYCLES, TracedMemory
from repro.trace.access import READ, WRITE
from repro.trace.trace import COLUMNS
from tests.traced_oracle import OracleMemory


def fresh(name="t"):
    return TracedMemory(name, compute_overhead=2)


class TestAllocation:
    def test_alloc_bumps_within_segment(self):
        mem = fresh()
        a = mem.alloc(16, segment="data")
        b = mem.alloc(16, segment="data")
        assert b == a + 16
        assert mem.memory_map.segment_of(a).name == "data"

    def test_alloc_alignment(self):
        mem = fresh()
        mem.alloc(3, segment="heap", align=1)
        b = mem.alloc(4, segment="heap", align=8)
        assert b % 8 == 0

    def test_alloc_exhaustion_raises(self):
        mem = fresh()
        with pytest.raises(MemoryError_):
            mem.alloc(1 << 30, segment="data")

    def test_text_alloc_tracks_usage(self):
        mem = fresh()
        mem.alloc(100, segment="text")
        assert mem.text_bytes_used() >= 100


class TestTracing:
    def test_load_store_roundtrip(self):
        mem = fresh()
        a = mem.alloc(8)
        mem.sw(a, 0x12345678)
        assert mem.lw(a) == 0x12345678
        assert mem.lb(a) == 0x78
        assert mem.lh(a + 2) == 0x1234

    def test_trace_records_word_values(self):
        mem = fresh()
        a = mem.alloc(4)
        mem.sb(a, 0xAA)
        trace = mem.finish()
        assert trace.accesses[0].kind == WRITE
        # Sub-word store recorded as the full resulting word.
        assert trace.accesses[0].value == 0xAA

    def test_cycle_accounting(self):
        mem = fresh()
        a = mem.alloc(4)
        mem.tick(10)
        mem.sw(a, 1)
        mem.lw(a)
        trace = mem.finish()
        assert trace.accesses[0].cycles == 10 + STORE_CYCLES + 2
        assert trace.accesses[1].cycles == LOAD_CYCLES + 2

    def test_mul_tick(self):
        mem = fresh()
        a = mem.alloc(4)
        mem.mul_tick()
        mem.sw(a, 1)
        assert mem.finish().accesses[0].cycles == MUL_CYCLES + STORE_CYCLES + 2

    def test_float_ticks(self):
        mem = fresh()
        a = mem.alloc(4)
        mem.fmul_tick(2)
        mem.fadd_tick(3)
        mem.sw(a, 1)
        assert mem.finish().accesses[0].cycles == 2 * 50 + 3 * 30 + STORE_CYCLES + 2

    def test_initial_image_captures_preaccess_values(self):
        mem = fresh()
        a = mem.alloc(8)
        mem.init_words(a, [7, 9])
        assert mem.lw(a) == 7
        mem.sw(a + 4, 1)
        trace = mem.finish()
        assert trace.initial_image[a >> 2] == 7
        assert trace.initial_image[(a >> 2) + 1] == 9

    def test_init_after_access_rejected(self):
        # Silent re-initialization of live memory would poison the trace.
        mem = fresh()
        a = mem.alloc(4)
        mem.sw(a, 1)
        with pytest.raises(MemoryError_):
            mem.init_words(a, [2])
        with pytest.raises(MemoryError_):
            mem.init_bytes(a, b"\x01")

    def test_misaligned_access_rejected(self):
        mem = fresh()
        a = mem.alloc(8)
        with pytest.raises(MemoryError_):
            mem.lw(a + 2)
        with pytest.raises(MemoryError_):
            mem.lh(a + 1)

    def test_finish_twice_rejected(self):
        mem = fresh()
        mem.finish()
        with pytest.raises(MemoryError_):
            mem.finish()

    def test_markers(self):
        mem = fresh()
        a = mem.alloc(4)
        mem.call("f")
        mem.sw(a, 1)
        mem.ret("f")
        trace = mem.finish()
        assert [(m.kind, m.index) for m in trace.markers] == [("call", 0), ("ret", 1)]

    def test_out_writes_mmio(self):
        mem = fresh()
        mem.out(0, 0xCAFE)
        trace = mem.finish()
        acc = trace.accesses[0]
        assert trace.memory_map.is_output(acc.waddr << 2)

    def test_out_port_range_checked(self):
        mem = fresh()
        with pytest.raises(MemoryError_):
            mem.out(1 << 20, 0)

    def test_bulk_helpers(self):
        mem = fresh()
        a = mem.alloc(16)
        mem.store_words(a, [1, 2, 3, 4])
        assert mem.load_words(a, 4) == [1, 2, 3, 4]
        b = mem.alloc(4)
        mem.store_bytes(b, b"\x01\x02")
        assert mem.lb(b + 1) == 2

    def test_trace_validates(self):
        mem = fresh()
        a = mem.alloc(16)
        mem.init_words(a, [5, 6, 7, 8])
        total = sum(mem.load_words(a, 4))
        mem.sw(a, total)
        trace = mem.finish(checksum=total)
        trace.validate()
        assert trace.checksum == total


# ---- differential capture against the per-call oracle ------------------ #

TEXT, DATA, UNMAPPED, MMIO = 0x0, 0x2000_0000, 0x6000_0000, 0x4000_0000
_bases = st.sampled_from([DATA, DATA, TEXT, UNMAPPED, MMIO])
_words = st.integers(0, 5)
_offsets = st.integers(0, 3)  # any byte lane: misaligned ones included
_values = st.integers(0, 0xFFFF_FFFF) | st.integers(-(1 << 40), 1 << 40)
_steps = st.one_of(
    st.tuples(st.sampled_from(["lw", "lh", "lb"]), _bases, _words, _offsets),
    st.tuples(st.sampled_from(["sw", "sh", "sb"]), _bases, _words, _offsets,
              _values),
    st.tuples(st.just("load"), _bases, _words, _offsets,
              st.sampled_from([1, 2, 4, 3])),
    st.tuples(st.just("store"), _bases, _words, _offsets,
              st.sampled_from([1, 2, 4, 3]), _values),
    st.tuples(st.just("tick"), st.integers(0, 60)),
    st.tuples(st.just("mul_tick")),
    st.tuples(st.sampled_from(["fmul_tick", "fadd_tick"]), st.integers(0, 3)),
    st.tuples(st.just("out"), st.sampled_from([0, 1, 16383, 16384, 1 << 20, -1]),
              _values),
    st.tuples(st.sampled_from(["call", "ret"]), st.sampled_from(["f", "g", ""])),
    st.tuples(st.just("init_words"), _bases, _words,
              st.lists(_values, max_size=3)),
    st.tuples(st.just("init_bytes"), _bases, _words, _offsets,
              st.binary(max_size=6)),
)


def _apply(mem, step):
    """Run one step; its return value or ``(error type, message)``."""
    op, args = step[0], step[1:]
    if op in ("lw", "lh", "lb", "sw", "sh", "sb", "load", "store",
              "init_words", "init_bytes"):
        base, word, *rest = args
        addr = base + 4 * word
        if op != "init_words":
            addr += rest.pop(0)  # byte offset
        if op == "store":
            rest.reverse()  # (size, value) -> store(addr, value, size)
        args = (addr, *rest)
    try:
        return getattr(mem, op)(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(program=st.lists(_steps, max_size=60), overhead=st.integers(0, 4),
       checksum=st.integers(0, 1 << 33))
def test_capture_matches_per_call_oracle(program, overhead, checksum):
    """The closure path records exactly what the per-call path does."""
    mem = TracedMemory("gen", compute_overhead=overhead)
    ref = OracleMemory("gen", compute_overhead=overhead)
    for step in program:
        assert _apply(mem, step) == _apply(ref, step), step
    got, want = mem.finish(checksum), ref.finish(checksum)
    for name, _ in COLUMNS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert getattr(got, name).typecode == getattr(want, name).typecode
    assert got.initial_image == want.initial_image
    assert got.markers == want.markers
    assert (got.final_cycles, got.checksum, got.code_bytes) == (
        want.final_cycles, want.checksum, want.code_bytes)
    assert got.digest == want.digest
    assert _apply(mem, ("finish",)) == _apply(ref, ("finish",))
