"""Program-Idempotence profiling (Section 4.3).

A memory access is Program Idempotent when no possible re-execution can make
it participate in an idempotency violation.  The profile-level criterion the
paper uses: the address's whole-program access pattern is ``W*->R*`` — zero
or more writes followed only by reads, i.e. never a write after a read.
Read-only locations (e.g. text-segment tables) and write-once data both
qualify.

Output addresses are excluded: writes outside physical memory must still
flow through the output-commit machinery (Section 3.3) even when their
access pattern looks idempotent.
"""

from typing import FrozenSet, Iterable, Set

from repro.mem.map import MemoryMap
from repro.trace.access import READ
from repro.trace.trace import Trace


def not_w_star_r_star(kinds: Iterable[int], waddrs: Iterable[int],
                      memory_map: MemoryMap) -> Set[int]:
    """Words of one pass over the columns whose pattern is not ``W*->R*``:
    written after a read, or written at an output (MMIO/unmapped)
    address."""
    read_seen: Set[int] = set()
    written: Set[int] = set()
    disqualified: Set[int] = set()
    for k, w in zip(kinds, waddrs):
        if k == READ:
            read_seen.add(w)
        elif w in read_seen:
            disqualified.add(w)  # a write after a read: not W*->R*
        else:
            written.add(w)
    disqualified.update(w for w in written if memory_map.is_output(w << 2))
    return disqualified


def profile_program_idempotent(trace: Trace) -> FrozenSet[int]:
    """Word addresses whose accesses the hardware may ignore.

    Args:
        trace: A complete profiling run of the program.

    Returns:
        The set of word addresses with a ``W*->R*`` whole-program access
        pattern, excluding output (MMIO/unmapped) addresses.
    """
    return frozenset(set(trace.waddrs) - not_w_star_r_star(
        trace.kinds, trace.waddrs, trace.memory_map))


def ignorable_access_count(trace: Trace, pi_words: FrozenSet[int]) -> int:
    """How many of the trace's accesses the marking removes from the
    hardware's view — the buffer-pressure relief the compiler buys."""
    return sum(w in pi_words for w in trace.waddrs)
