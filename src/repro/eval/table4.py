"""Table 4: Clank on mixed-volatility systems vs DINO (Section 7.6).

The DS benchmark runs under three memory compositions:

* **DINO mixed** — the DinoBaseline task/versioning model.
* **Clank mixed** — the stack segment is volatile SRAM: accesses there are
  untracked and modified stack words ride along with each checkpoint
  (the stack-depth register of Section 7.6).
* **Clank wholly NV** — everything tracked, as in the main evaluation.

Clank rows are reported at three buffer budgets, as in the paper: 30 bits
(a sole Read-first entry), under 100 bits, and under 400 bits.  Rows whose
overhead is dominated by re-execution are starred, as in the paper.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.baselines.models import DinoBaseline
from repro.eval.parallel import SimJob, run_jobs
from repro.eval.settings import DEFAULT_SETTINGS, EvalSettings
from repro.workloads.cache import get_trace

#: Buffer budgets and the compositions chosen for them.  30 bits is the
#: single Read-first entry the paper names; the others are the best
#: compositions fitting the budget on the DS workload.
BUDGET_CONFIGS: Tuple[Tuple[str, Tuple[int, int, int, int]], ...] = (
    ("30", (1, 0, 0, 0)),
    ("<100", (1, 0, 1, 1)),
    ("<400", (16, 4, 4, 2)),
)

#: The paper's published Table 4 percentages (None = n/a); True marks the
#: asterisk (re-execution dominated).
PAPER_TABLE4 = {
    ("dino", "mixed", "-"): (170.0, False),
    ("clank", "mixed", "30"): (3.0, True),
    ("clank", "mixed", "<100"): (3.0, True),
    ("clank", "mixed", "<400"): (3.0, True),
    ("clank", "wholly-nv", "30"): (24.0, False),
    ("clank", "wholly-nv", "<100"): (5.0, False),
    ("clank", "wholly-nv", "<400"): (3.0, True),
}


@dataclass(frozen=True)
class Table4Row:
    """One composition/budget row."""

    system: str
    composition: str
    budget: str
    buffer_bits: Optional[int]
    overhead: float  # percent
    reexec_dominated: bool
    paper: Optional[Tuple[float, bool]]


def run(settings: EvalSettings = DEFAULT_SETTINGS) -> List[Table4Row]:
    """Measure all Table 4 rows on the DS benchmark."""
    trace = get_trace("ds", size=settings.size)
    rows: List[Table4Row] = []

    dino = DinoBaseline().run(trace, settings.schedule(salt=4))
    rows.append(
        Table4Row(
            "dino", "mixed", "-", None,
            100 * (dino.total_overhead - 1.0), False,
            PAPER_TABLE4[("dino", "mixed", "-")],
        )
    )
    # The Performance Watchdog is on, as in every headline Clank result:
    # without it the near-checkpoint-free compositions invert into
    # re-execution-dominated overhead (Section 7.4).
    cells = [
        (composition, budget, SimJob(
            workload="ds", config=spec, size=settings.size, salt=4,
            perf_watchdog="auto", volatile_segments=volatile,
        ))
        for composition, volatile in (("mixed", ("stack",)),
                                      ("wholly-nv", ()))
        for budget, spec in BUDGET_CONFIGS
    ]
    results = run_jobs([job for _, _, job in cells], settings)
    for (composition, budget, job), result in zip(cells, results):
        reexec_dom = (
            result.reexec_overhead + result.restart_overhead
            > result.checkpoint_overhead
        )
        rows.append(
            Table4Row(
                "clank", composition, budget, job.clank_config().buffer_bits,
                100 * result.run_time_overhead, reexec_dom,
                PAPER_TABLE4.get(("clank", composition, budget)),
            )
        )
    return rows


def render(rows: List[Table4Row]) -> str:
    """Text rendering in the paper's layout (asterisk = re-execution
    dominated)."""
    out = ["Table 4: DS benchmark overhead by memory composition "
           "(100 ms avg power-on)"]
    out.append(
        f"{'System':7s} {'Composition':12s} {'Budget':>7s} {'Bits':>5s} "
        f"{'Overhead':>9s} {'Paper':>8s}"
    )
    for r in rows:
        star = "*" if r.reexec_dominated else " "
        bits = str(r.buffer_bits) if r.buffer_bits is not None else "-"
        paper = "-"
        if r.paper:
            paper = f"{r.paper[0]:.0f}%{'*' if r.paper[1] else ''}"
        out.append(
            f"{r.system:7s} {r.composition:12s} {r.budget:>7s} {bits:>5s} "
            f"{r.overhead:8.1f}%{star} {paper:>8s}"
        )
    return "\n".join(out)
