"""Ablation: the Progress Watchdog under runt power cycles (Section 3.1.4).

Harvested supplies produce *runt* power cycles too short for a long
idempotent section to finish.  This experiment mixes runts into the supply
at increasing rates and compares three designs on a long, violation-sparse
workload (whose natural sections exceed the runt length):

* ``off``      — no Progress Watchdog: the paper's failure mode — the
  program may stop making forward progress entirely (reported as stalled);
* ``fixed``    — a watchdog with a fixed period (no halving);
* ``adaptive`` — the paper's design: the period halves across
  checkpoint-free power cycles, automatically adapting to conditions.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.eval.parallel import SimJob, run_jobs
from repro.eval.settings import DEFAULT_SETTINGS, EvalSettings

#: A long, violation-free workload (table-driven CRC-32 never writes what
#: it read): its natural idempotent section is the whole program, so
#: forward progress across runts depends entirely on the watchdog.
WORKLOAD = "crc"

#: Runt mean on-time (cycles) and the fractions swept; 1.0 = every power
#: cycle is a runt.
RUNT_MEAN = 400
RUNT_FRACTIONS = (0.0, 0.5, 0.8, 1.0)

VARIANTS = ("off", "fixed", "adaptive")


@dataclass(frozen=True)
class ProgressAblationRow:
    """Overhead multiplier per variant at one runt fraction.

    ``None`` means the run made no forward progress (stalled).
    """

    runt_fraction: float
    overhead: Dict[str, Optional[float]]
    wasted_power_cycles: Dict[str, int]


def run(
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> List[ProgressAblationRow]:
    """Sweep runt fractions across the three watchdog designs."""
    jobs = [
        SimJob(
            workload=WORKLOAD,
            config=(16, 8, 4, 4),
            size=settings.size,
            schedule="runt",
            runt_mean=RUNT_MEAN,
            runt_fraction=fraction,
            # The fixed variant is provisioned for the *nominal*
            # (runt-free) supply; only the adaptive design can shrink
            # its period when conditions degrade.
            progress_watchdog=0 if variant == "off"
            else settings.avg_on_cycles // 2,
            progress_watchdog_adaptive=(variant == "adaptive"),
            max_power_cycles=30_000,
            allow_stall=True,  # stalling *is* the measured failure mode
        )
        for fraction in RUNT_FRACTIONS
        for variant in VARIANTS
    ]
    results = iter(run_jobs(jobs, settings))
    rows = []
    for fraction in RUNT_FRACTIONS:
        overhead: Dict[str, Optional[float]] = {}
        wasted: Dict[str, int] = {}
        for variant in VARIANTS:
            result = next(results)
            if result is None:  # stalled: no forward progress
                overhead[variant] = None
                wasted[variant] = -1
            else:
                overhead[variant] = 1.0 + result.run_time_overhead
                wasted[variant] = result.wasted_power_cycles
        rows.append(ProgressAblationRow(fraction, overhead, wasted))
    return rows


def render(rows: List[ProgressAblationRow]) -> str:
    """Text rendering."""
    out = [
        f"Ablation: Progress Watchdog under runt power cycles "
        f"({WORKLOAD}, runt mean {RUNT_MEAN} cycles)"
    ]
    out.append(
        f"{'runt frac':>10s} {'off':>12s} {'fixed':>12s} {'adaptive':>12s} "
        f"{'wasted cycles (off/fixed/adaptive)':>36s}"
    )
    for r in rows:
        cells = []
        for variant in VARIANTS:
            v = r.overhead[variant]
            cells.append("stalled" if v is None else f"x{v:.3f}")
        wasted = "/".join(
            "-" if r.wasted_power_cycles[v] < 0 else str(r.wasted_power_cycles[v])
            for v in VARIANTS
        )
        out.append(
            f"{r.runt_fraction:10.1f} {cells[0]:>12s} {cells[1]:>12s} "
            f"{cells[2]:>12s} {wasted:>36s}"
        )
    return "\n".join(out)
