"""Ablation: Address Prefix Buffer geometry (Section 3.1.3).

The built configuration keeps 6 low word-address bits in each entry with a
2-bit tag into 4 prefix entries.  The low-bit width trades reach against
entry size: fewer low bits make entries smaller but each prefix covers a
smaller window (more prefixes needed); more low bits widen the window but
fatten every buffer entry.  This sweep measures checkpoint overhead and
total storage for ``prefix_low_bits`` in {4, 6, 8} at a 16,8,4,2
composition (a 2-entry APB keeps prefix pressure visible).
"""

import dataclasses
from dataclasses import dataclass
from typing import List

from repro.core.config import ClankConfig, PolicyOptimizations
from repro.eval.parallel import SimJob, run_jobs
from repro.eval.runner import average
from repro.eval.settings import DEFAULT_SETTINGS, EvalSettings
from repro.workloads.registry import mibench2_names

#: Entry counts held fixed across the sweep; a 2-entry APB keeps prefix
#: pressure visible.  Latest-checkpoint is disabled so APB fills appear as
#: their own checkpoint cause instead of deferred "latest_write" ones.
BASE_SPEC = (16, 8, 4, 2)
_OPTS = PolicyOptimizations(
    ignore_false_writes=True, remove_duplicates=True,
    no_wf_overflow=True, ignore_text=True, latest_checkpoint=False,
)

LOW_BITS = (4, 6, 8)


@dataclass(frozen=True)
class ApbAblationRow:
    """One geometry point."""

    prefix_low_bits: int
    buffer_bits: int
    avg_checkpoint_overhead: float
    apb_full_fraction: float  # share of checkpoints caused by APB fills


def run(
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> List[ApbAblationRow]:
    """Sweep the prefix split across the benchmark suite."""
    names = mibench2_names()
    jobs = [
        SimJob(
            workload=name,
            config=BASE_SPEC,
            size=settings.sweep_size,
            salt=salt,
            opts=_OPTS,
            prefix_low_bits=low,
        )
        for low in LOW_BITS
        for salt, name in enumerate(names)
    ]
    results = iter(run_jobs(jobs, settings))
    rows = []
    for low in LOW_BITS:
        config = dataclasses.replace(
            ClankConfig.from_tuple(BASE_SPEC, _OPTS), prefix_low_bits=low
        )
        overheads = []
        apb_full = total_ckpt = 0
        for name in names:
            result = next(results)
            overheads.append(result.checkpoint_overhead)
            apb_full += result.checkpoints_by_cause.get("apb_full", 0)
            total_ckpt += result.num_checkpoints
        rows.append(
            ApbAblationRow(
                prefix_low_bits=low,
                buffer_bits=config.buffer_bits,
                avg_checkpoint_overhead=average(overheads),
                apb_full_fraction=apb_full / max(1, total_ckpt),
            )
        )
    return rows


def render(rows: List[ApbAblationRow]) -> str:
    """Text rendering."""
    out = [
        f"Ablation: APB prefix split at {','.join(map(str, BASE_SPEC))} "
        f"(entry low bits vs prefix reach)"
    ]
    out.append(
        f"{'low bits':>9s} {'storage bits':>13s} {'avg ckpt ovh':>13s} "
        f"{'apb-full share':>15s}"
    )
    for r in rows:
        out.append(
            f"{r.prefix_low_bits:9d} {r.buffer_bits:13d} "
            f"{r.avg_checkpoint_overhead:13.2%} {r.apb_full_fraction:15.2%}"
        )
    return "\n".join(out)
