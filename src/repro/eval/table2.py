"""Table 2: hardware overheads and average software run-time overhead of
the four Pareto-optimal buffer compositions (plus the compiler+Performance-
Watchdog variant of the largest).

Hardware columns come from the analytic FPGA model (with the paper's
published Vivado numbers shown alongside); the software column is measured
by running all 23 benchmarks through the policy simulator.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import ClankConfig, TABLE2_CONFIGS
from repro.eval.parallel import SimJob, run_jobs
from repro.eval.runner import average
from repro.eval.settings import DEFAULT_SETTINGS, EvalSettings
from repro.hw.cost_model import (
    PAPER_TABLE2,
    PAPER_TABLE2_SOFTWARE,
    hardware_overhead,
)
from repro.workloads.registry import mibench2_names


@dataclass(frozen=True)
class Table2Row:
    """One composition row.

    Attributes:
        label: ``R,W,WB,AP`` composition (with ``+C+WDT`` for the variant).
        lut/ff/mem/power: Modeled hardware overhead percentages.
        avg_software: Measured average software run-time overhead.
        paper_hw: The paper's published (LUT, FF, Mem, Avg) percentages.
        paper_software: The paper's published Avg SW percentage.
    """

    label: str
    lut: float
    ff: float
    mem: float
    power: float
    avg_software: float
    paper_hw: Optional[Tuple[float, float, float, float]]
    paper_software: Optional[float]


def run(
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> List[Table2Row]:
    """Measure all five rows."""
    names = mibench2_names()
    rows: List[Table2Row] = []
    variants = [(spec, False, 0) for spec in TABLE2_CONFIGS]
    variants.append((TABLE2_CONFIGS[-1], True, "auto"))
    jobs = [
        SimJob(
            workload=name,
            config=spec,
            size=settings.size,
            salt=salt,
            use_compiler=use_compiler,
            perf_watchdog=wdt,
        )
        for spec, use_compiler, wdt in variants
        for salt, name in enumerate(names)
    ]
    results = iter(run_jobs(jobs, settings))
    for spec, use_compiler, wdt in variants:
        config = ClankConfig.from_tuple(spec)
        label = config.label() + ("+C+WDT" if use_compiler else "")
        hw = hardware_overhead(config, watchdogs=use_compiler)
        overheads = [next(results).run_time_overhead for _ in names]
        lut, ff, mem, power = hw.row()
        rows.append(
            Table2Row(
                label=label,
                lut=lut,
                ff=ff,
                mem=mem,
                power=power,
                avg_software=100 * average(overheads),
                paper_hw=PAPER_TABLE2.get(config.label()),
                paper_software=PAPER_TABLE2_SOFTWARE.get(label),
            )
        )
    return rows


def render(rows: List[Table2Row]) -> str:
    """Text rendering: model vs paper, side by side."""
    out = ["Table 2: hardware overheads and average software overhead"]
    out.append(
        f"{'R,W,WB,AP':18s} {'LUT':>6s} {'FF':>6s} {'Mem':>6s} {'Avg':>6s} "
        f"{'AvgSW':>7s} | {'paper LUT/FF/Mem/Avg':>22s} {'paperSW':>8s}"
    )
    for r in rows:
        paper_hw = (
            "/".join(f"{v:.2f}" for v in r.paper_hw) if r.paper_hw else "-"
        )
        paper_sw = f"{r.paper_software:.2f}%" if r.paper_software else "-"
        out.append(
            f"{r.label:18s} {r.lut:5.2f}% {r.ff:5.2f}% {r.mem:5.2f}% "
            f"{r.power:5.2f}% {r.avg_software:6.2f}% | {paper_hw:>22s} {paper_sw:>8s}"
        )
    return "\n".join(out)
