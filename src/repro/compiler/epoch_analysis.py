"""Epoch-scoped Program-Idempotence analysis (Section 4.3's future work).

The paper's shipped analysis marks an address ignorable only when its
*whole-program* pattern is ``W*->R*`` — very conservative, because one late
write-after-read disqualifies every access to the address.  Section 4.3
sketches the next step: "a compiler that inserts checkpoints ... to break
the relationship between memory accesses before and after the checkpoint to
make it possible to ignore more accesses."

This module implements that compiler: it places explicit checkpoint calls
at *epoch boundaries* (preferring natural function boundaries), then marks
every access whose address is ``W*->R*`` *within its epoch*.

Soundness: re-execution can never cross a committed epoch-boundary
checkpoint backwards, and if the boundary checkpoint did not commit, none
of the epoch executed; so the window any access can be replayed in is
confined to its epoch, where its address has no write-after-read — hence no
possible idempotency violation.  (Exercised under injected power failures
by the test suite's dynamic verifier.)
"""

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Set

from repro.compiler.program_idempotence import not_w_star_r_star
from repro.trace.trace import Trace


@dataclass(frozen=True)
class EpochPlan:
    """The compiler's output for one program.

    Attributes:
        boundaries: Trace indices where a checkpoint call is inserted
            (epoch k covers ``[boundaries[k], boundaries[k+1])``; index 0
            is an implicit boundary and is not listed).
        ignorable: Trace indices of accesses marked ignorable.
    """

    boundaries: FrozenSet[int]
    ignorable: FrozenSet[int]

    @property
    def num_epochs(self) -> int:
        return len(self.boundaries) + 1

    def coverage(self, trace: Trace) -> float:
        """Fraction of the trace's accesses marked ignorable."""
        return len(self.ignorable) / max(1, len(trace))


def plan_boundaries(trace: Trace, target_epoch_cycles: int) -> List[int]:
    """Choose epoch boundaries roughly every ``target_epoch_cycles``,
    snapped to the nearest function marker when one is close (the inserted
    call is cheapest at a call boundary: registers are already split by the
    ABI)."""
    markers = sorted({m.index for m in trace.markers if 0 < m.index < len(trace)})
    boundaries: List[int] = []
    elapsed = 0
    next_marker = 0
    cycles = trace.cycles
    for i, c in enumerate(cycles):
        elapsed += c
        if elapsed >= target_epoch_cycles and i + 1 < len(trace):
            cut = i + 1
            # Snap to a marker within a quarter-epoch of the cut.
            while next_marker < len(markers) and markers[next_marker] < cut:
                next_marker += 1
            if next_marker < len(markers):
                marker = markers[next_marker]
                if sum(cycles[cut:marker]) <= target_epoch_cycles // 4:
                    cut = marker
            if not boundaries or cut > boundaries[-1]:
                boundaries.append(cut)
            elapsed = 0
    return boundaries


def epoch_program_idempotence(
    trace: Trace, boundaries: Sequence[int]
) -> EpochPlan:
    """Mark every access that is ``W*->R*`` within its epoch.

    Output (MMIO/unmapped) addresses are never marked — they must flow
    through the output-commit machinery regardless.
    """
    edges = [0] + sorted(boundaries) + [len(trace)]
    ignorable: Set[int] = set()
    for lo, hi in zip(edges, edges[1:]):
        waddrs = trace.waddrs[lo:hi]
        disqualified = not_w_star_r_star(
            trace.kinds[lo:hi], waddrs, trace.memory_map)
        ignorable.update(
            i for i, w in zip(range(lo, hi), waddrs) if w not in disqualified
        )
    return EpochPlan(
        boundaries=frozenset(boundaries), ignorable=frozenset(ignorable)
    )


def compile_with_epochs(trace: Trace, target_epoch_cycles: int = 2000) -> EpochPlan:
    """The full pass: place boundaries, then mark epoch-idempotent
    accesses."""
    return epoch_program_idempotence(trace, plan_boundaries(trace, target_epoch_cycles))
