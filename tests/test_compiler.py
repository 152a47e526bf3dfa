"""Unit tests for the compiler component."""

import pytest

from repro.compiler.codesize import code_size_increase
from repro.compiler.program_idempotence import (
    ignorable_access_count,
    profile_program_idempotent,
)
from repro.core.config import ClankConfig
from repro.trace.access import READ, WRITE, Access
from repro.trace.trace import Trace

from tests.conftest import DATA_WORD, make_trace, rmw_trace, stream_trace


class TestProgramIdempotence:
    def test_read_only_addresses_qualify(self):
        trace = make_trace([(READ, 0), (READ, 0), (READ, 1)])
        pi = profile_program_idempotent(trace)
        assert DATA_WORD in pi and DATA_WORD + 1 in pi

    def test_write_then_reads_qualifies(self):
        # W*->R* (Section 4.3): initial writes followed by only reads.
        trace = make_trace([(WRITE, 0, 5), (WRITE, 0, 6), (READ, 0), (READ, 0)])
        assert DATA_WORD in profile_program_idempotent(trace)

    def test_write_after_read_disqualifies(self):
        trace = make_trace([(READ, 0), (WRITE, 0, 5)])
        assert DATA_WORD not in profile_program_idempotent(trace)

    def test_disqualification_is_whole_program(self):
        # Even if the write-after-read happens late, every access to the
        # address is unmarkable (re-execution could cross it).
        trace = make_trace([(WRITE, 0, 1), (READ, 0), (WRITE, 0, 2)])
        assert DATA_WORD not in profile_program_idempotent(trace)

    def test_outputs_never_marked(self):
        mmio = 0x4000_0000 >> 2
        trace = Trace.from_accesses(
            "o", [Access(WRITE, mmio, 1, 4)], initial_image={mmio: 0}
        )
        assert mmio not in profile_program_idempotent(trace)

    def test_stream_trace_fully_markable(self):
        trace = stream_trace(40)
        pi = profile_program_idempotent(trace)
        non_output = {
            a.waddr for a in trace.accesses
            if not trace.memory_map.is_output(a.waddr << 2)
        }
        assert non_output <= pi

    def test_rmw_trace_unmarkable(self):
        trace = rmw_trace(60, addrs=4)
        pi = profile_program_idempotent(trace)
        assert ignorable_access_count(trace, pi) == 0

    def test_ignorable_count(self):
        trace = make_trace([(READ, 0), (READ, 0), (READ, 1), (WRITE, 1, 2)])
        pi = profile_program_idempotent(trace)
        assert ignorable_access_count(trace, pi) == 2  # the two reads of 0


class TestCodeSize:
    def test_small_constant_addition(self):
        cfg = ClankConfig.from_tuple((16, 8, 4, 4))
        report = code_size_increase(100_000, cfg)
        # Clank adds a small constant: large binaries see tiny increases
        # (Table 1: 0.00%-0.39% for the big benchmarks).
        assert report.increase < 0.01
        assert report.total_bytes == 100_000 + report.added_bytes

    def test_tiny_binaries_see_large_relative_increase(self):
        cfg = ClankConfig.from_tuple((16, 8, 4, 4))
        report = code_size_increase(800, cfg)
        assert report.increase > 0.10  # like randmath's 28.84%

    def test_wbb_scratchpad_scales(self):
        small = code_size_increase(1000, ClankConfig.from_tuple((16, 8, 0, 0)))
        big = code_size_increase(1000, ClankConfig.from_tuple((16, 8, 8, 0)))
        assert big.added_bytes == small.added_bytes + 8 * 8

    def test_watchdogs_add_bytes(self):
        cfg = ClankConfig.from_tuple((1, 0, 0, 0))
        with_wdt = code_size_increase(1000, cfg, watchdogs=True)
        without = code_size_increase(1000, cfg, watchdogs=False)
        assert with_wdt.added_bytes > without.added_bytes
