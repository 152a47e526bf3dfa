"""Unit tests for Trace, Access, and trace statistics."""

import pytest

from repro.common.errors import TraceError
from repro.trace.access import READ, WRITE, Access, kind_name
from repro.trace.stats import compute_stats
from repro.trace.trace import Trace

from tests.conftest import DATA_WORD, make_trace, rmw_trace, stream_trace


class TestAccess:
    def test_repr_and_names(self):
        acc = Access(READ, 0x10, 5, 4)
        assert "R" in repr(acc)
        assert kind_name(READ) == "R"
        assert kind_name(WRITE) == "W"

    def test_equality_and_hash(self):
        a = Access(READ, 1, 2, 3)
        b = Access(READ, 1, 2, 3)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Access(WRITE, 1, 2, 3)


class TestTrace:
    def test_total_cycles(self):
        trace = make_trace([(WRITE, 0, 1), (READ, 0)], cycles=4)
        assert trace.total_cycles == 8

    def test_final_memory_applies_writes(self):
        trace = make_trace([(WRITE, 0, 5), (WRITE, 0, 9), (WRITE, 1, 3)])
        final = trace.final_memory()
        assert final[DATA_WORD] == 9
        assert final[DATA_WORD + 1] == 3

    def test_validate_accepts_consistent(self):
        rmw_trace(50).validate()
        stream_trace(50).validate()

    def test_validate_rejects_wrong_read_value(self):
        trace = Trace.from_accesses(
            "bad", [Access(WRITE, DATA_WORD, 5, 4), Access(READ, DATA_WORD, 6, 4)],
            initial_image={DATA_WORD: 0},
        )
        with pytest.raises(TraceError):
            trace.validate()

    def test_validate_rejects_missing_initial(self):
        trace = Trace.from_accesses("bad", [Access(READ, 0x999, 0, 4)], initial_image={})
        with pytest.raises(TraceError):
            trace.validate()

    def test_validate_rejects_nonpositive_cycles(self):
        trace = Trace.from_accesses(
            "bad", [Access(WRITE, DATA_WORD, 5, 0)], initial_image={DATA_WORD: 0}
        )
        with pytest.raises(TraceError):
            trace.validate()

    def test_slice_is_replayable(self):
        trace = rmw_trace(40)
        sub = trace.slice(20, 60)
        sub.validate()
        assert len(sub) == 40

    def test_slice_bounds_checked(self):
        with pytest.raises(TraceError):
            rmw_trace(10).slice(5, 1000)

    def test_counts(self):
        trace = make_trace([(READ, 0), (WRITE, 0, 1), (WRITE, 1, 2)])
        assert trace.counts() == (1, 2)

    def test_footprint(self):
        trace = make_trace([(READ, 0), (WRITE, 0, 1), (WRITE, 5, 2)])
        assert trace.footprint_words == 2


class TestStats:
    def test_read_write_mix(self):
        stats = compute_stats(rmw_trace(100))
        assert stats.reads == stats.writes == 100
        assert stats.read_fraction == pytest.approx(0.5)

    def test_program_idempotent_words_stream(self):
        # A pure read-input/write-output program is entirely W*->R*.
        stats = compute_stats(stream_trace(30))
        assert stats.program_idempotent_words == stats.footprint_words

    def test_program_idempotent_words_rmw(self):
        # Read-modify-write addresses are never Program Idempotent.
        stats = compute_stats(rmw_trace(100, addrs=4))
        assert stats.program_idempotent_words == 0

    def test_prefix_counting(self):
        trace = make_trace([(WRITE, 0, 1), (WRITE, 64, 1), (WRITE, 1, 1)])
        stats = compute_stats(trace, prefix_low_bits=6)
        assert stats.distinct_prefixes == 2
