"""Table 3: total run-time overhead of prior approaches vs Clank on fft,
at the same 100 ms average power-on time.

DINO appears as "not ported" (as in the paper: DINO requires manual task
decomposition of the benchmark).  Clank's number uses the largest Table 2
composition with compiler support and the Performance Watchdog, plus the
modeled hardware energy overhead.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.baselines.models import (
    HibernusBaseline,
    HibernusPlusPlusBaseline,
    MementosBaseline,
    RatchetBaseline,
)
from repro.eval.parallel import SimJob, run_jobs
from repro.eval.settings import DEFAULT_SETTINGS, EvalSettings
from repro.hw.cost_model import hardware_overhead
from repro.workloads.cache import get_trace

#: The paper's published Table 3 numbers (total overhead, %).
PAPER_TABLE3 = {
    "dino": None,
    "mementos": (117.0, 145.0),
    "hibernus": (38.0, 38.0),
    "hibernus++": (36.0, 36.0),
    "ratchet": (32.0, 32.0),
    "clank": (6.0, 6.0),
}

#: Burden column, verbatim from the paper.
BURDENS = {
    "dino": "programmer",
    "mementos": "V measurement",
    "hibernus": "V measurement",
    "hibernus++": "V measurement",
    "ratchet": "compiler",
    "clank": "architecture",
}


@dataclass(frozen=True)
class Table3Row:
    """One approach row: measured and published total overhead."""

    approach: str
    total_overhead: Optional[float]  # percent; None = not ported
    burden: str
    paper_range: Optional[Tuple[float, float]]


def run(settings: EvalSettings = DEFAULT_SETTINGS) -> List[Table3Row]:
    """Measure every approach on the fft trace."""
    trace = get_trace("fft", size=settings.size)
    rows: List[Table3Row] = [
        Table3Row("dino", None, BURDENS["dino"], PAPER_TABLE3["dino"])
    ]
    for baseline in (
        MementosBaseline(),
        HibernusBaseline(),
        HibernusPlusPlusBaseline(),
        RatchetBaseline(),
    ):
        result = baseline.run(trace, settings.schedule(salt=7))
        rows.append(
            Table3Row(
                baseline.name,
                100 * (result.total_overhead - 1.0),
                BURDENS[baseline.name],
                PAPER_TABLE3[baseline.name],
            )
        )
    job = SimJob(
        workload="fft", config=(16, 8, 4, 4), size=settings.size, salt=7,
        use_compiler=True, perf_watchdog="auto",
    )
    [clank] = run_jobs([job], settings, n_workers=1)
    hw = hardware_overhead(job.clank_config(), watchdogs=True).power_fraction
    rows.append(
        Table3Row(
            "clank",
            100 * (clank.total_overhead(hw) - 1.0),
            BURDENS["clank"],
            PAPER_TABLE3["clank"],
        )
    )
    return rows


def render(rows: List[Table3Row]) -> str:
    """Text rendering in the paper's layout."""
    out = ["Table 3: total run-time overhead on fft (100 ms avg power-on)"]
    out.append(f"{'Approach':12s} {'Total overhead':>15s} {'Burden':>15s} {'Paper':>12s}")
    for r in rows:
        measured = "not ported" if r.total_overhead is None else f"{r.total_overhead:.1f}%"
        if r.paper_range is None:
            paper = "not ported"
        elif r.paper_range[0] == r.paper_range[1]:
            paper = f"{r.paper_range[0]:.0f}%"
        else:
            paper = f"{r.paper_range[0]:.0f}-{r.paper_range[1]:.0f}%"
        out.append(f"{r.approach:12s} {measured:>15s} {r.burden:>15s} {paper:>12s}")
    return "\n".join(out)
