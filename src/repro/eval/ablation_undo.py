"""Ablation: volatile redo buffering (Clank's WBB) vs non-volatile undo
logging (Section 8.3's design lineage).

Both designs avoid a checkpoint per idempotency violation.  Clank buffers
the *new* value in a small volatile Write-back Buffer — rollback is free,
but the buffer is scarce SRAM and overflows force checkpoints.  The undo
alternative logs the *old* value to plentiful non-volatile memory and lets
the write through — sections stretch much further, but every first
violating write pays extra NV writes at run time and every power failure
pays a rollback pass.

Who wins depends on violation density versus power-cycle rate, which is
why this is a per-benchmark table.
"""

from dataclasses import dataclass
from typing import List

from repro.eval.parallel import SimJob, run_jobs
from repro.eval.runner import average
from repro.eval.settings import DEFAULT_SETTINGS, EvalSettings
from repro.workloads.registry import mibench2_names

#: Clank side: the paper's 8,4,2,0 build (2-entry volatile WBB).
CLANK_SPEC = (8, 4, 2, 0)
#: Undo side: same detector buffers, violations go to a 64-entry NV log.
UNDO_SPEC = (8, 4, 0, 0)
UNDO_LOG_ENTRIES = 64


@dataclass(frozen=True)
class UndoAblationRow:
    """One benchmark's comparison."""

    benchmark: str
    clank_overhead: float
    undo_overhead: float
    clank_checkpoints: int
    undo_checkpoints: int
    undo_entries: int


def run(
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> List[UndoAblationRow]:
    """Compare the two designs on every benchmark."""
    names = mibench2_names()
    jobs = []
    for salt, name in enumerate(names):
        jobs.append(
            SimJob(
                workload=name,
                config=CLANK_SPEC,
                size=settings.sweep_size,
                salt=salt,
            )
        )
        jobs.append(
            SimJob(
                workload=name,
                config=UNDO_SPEC,
                size=settings.sweep_size,
                salt=salt,
                engine="undo",
                log_entries=UNDO_LOG_ENTRIES,
            )
        )
    results = iter(run_jobs(jobs, settings))
    rows = []
    for name in names:
        clank = next(results)
        undo = next(results)
        rows.append(
            UndoAblationRow(
                benchmark=name,
                clank_overhead=clank.run_time_overhead,
                undo_overhead=undo.run_time_overhead,
                clank_checkpoints=clank.num_checkpoints,
                undo_checkpoints=undo.num_checkpoints,
                undo_entries=undo.wbb_words_flushed,
            )
        )
    return rows


def render(rows: List[UndoAblationRow]) -> str:
    """Text rendering with averages."""
    out = [
        f"Ablation: volatile redo (Clank WBB, {CLANK_SPEC}) vs NV undo log "
        f"({UNDO_SPEC} + {UNDO_LOG_ENTRIES}-entry log)"
    ]
    out.append(
        f"{'benchmark':14s} {'clank ovh':>10s} {'undo ovh':>10s} "
        f"{'clank ckpts':>12s} {'undo ckpts':>11s} {'log appends':>12s}"
    )
    for r in rows:
        out.append(
            f"{r.benchmark:14s} {r.clank_overhead:10.1%} {r.undo_overhead:10.1%} "
            f"{r.clank_checkpoints:12d} {r.undo_checkpoints:11d} "
            f"{r.undo_entries:12d}"
        )
    out.append(
        f"average: clank {average(r.clank_overhead for r in rows):.1%}, "
        f"undo {average(r.undo_overhead for r in rows):.1%}"
    )
    wins = sum(1 for r in rows if r.undo_overhead < r.clank_overhead)
    out.append(f"undo logging wins on {wins}/{len(rows)} benchmarks")
    return "\n".join(out)
