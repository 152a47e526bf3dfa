"""Descriptive statistics over memory-access traces.

These are the program properties Clank exploits: read/write mix, text-segment
access asymmetry (Section 3.2.4), address-prefix locality (Section 3.1.3),
and the supply of Program-Idempotent accesses (Section 4.3).
"""

from dataclasses import dataclass
from itertools import compress
from typing import Set

from repro.trace.access import READ, WRITE
from repro.trace.trace import Trace


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of one trace.

    Attributes:
        name: Workload name.
        accesses: Total logged accesses.
        reads: Number of reads.
        writes: Number of writes.
        total_cycles: Continuous-execution cycle count.
        footprint_words: Distinct words touched.
        text_reads: Reads that fall inside the text segment.
        text_writes: Writes that fall inside the text segment.
        output_writes: Writes that fall outside physical memory (outputs).
        distinct_prefixes: Distinct values of the upper address bits given a
            6-bit in-buffer low field (the configuration the paper builds,
            Section 3.1.3) — the working set of the Address Prefix Buffer.
        program_idempotent_words: Words whose whole-program access pattern is
            ``W*->R*`` (never a write after a read) — the accesses the Clank
            compiler may mark ignorable.
    """

    name: str
    accesses: int
    reads: int
    writes: int
    total_cycles: int
    footprint_words: int
    text_reads: int
    text_writes: int
    output_writes: int
    distinct_prefixes: int
    program_idempotent_words: int

    @property
    def read_fraction(self) -> float:
        """Fraction of accesses that are reads."""
        return self.reads / self.accesses if self.accesses else 0.0


def compute_stats(trace: Trace, prefix_low_bits: int = 6) -> TraceStats:
    """Compute :class:`TraceStats` for ``trace``.

    Args:
        trace: The trace to summarize.
        prefix_low_bits: Number of low word-address bits kept inside each
            Clank buffer entry; the rest form the prefix (default matches the
            paper's built configuration: 6 low bits + prefix tag).
    """
    text_lo, text_hi = trace.memory_map.text_word_range
    mmap = trace.memory_map
    touched = set(trace.waddrs)
    writes = trace.kinds.count(WRITE)
    written = list(compress(trace.waddrs, trace.kinds))
    text_writes = sum(text_lo <= w < text_hi for w in written)
    text_reads = sum(text_lo <= w < text_hi for w in trace.waddrs) - text_writes
    output_writes = sum(mmap.is_output(w << 2) for w in written)
    prefixes = {w >> prefix_low_bits for w in touched}
    read_seen: Set[int] = set()
    written_after_read: Set[int] = set()
    for k, w in zip(trace.kinds, trace.waddrs):
        if k == READ:
            read_seen.add(w)
        elif w in read_seen:
            written_after_read.add(w)

    program_idempotent = len(touched) - len(written_after_read)
    return TraceStats(
        name=trace.name,
        accesses=len(trace),
        reads=len(trace) - writes,
        writes=writes,
        total_cycles=trace.total_cycles,
        footprint_words=len(touched),
        text_reads=text_reads,
        text_writes=text_writes,
        output_writes=output_writes,
        distinct_prefixes=len(prefixes),
        program_idempotent_words=program_idempotent,
    )
