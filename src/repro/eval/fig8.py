"""Figure 8: checkpoint vs re-execution overhead against the Performance
Watchdog value (Section 7.4).

With near-infinite buffers there are no program-induced checkpoints, so
every checkpoint comes from the Performance Watchdog.  Small load values
checkpoint too often (checkpoint overhead dominates); large values leave
too much re-execution per power failure (overhead inversion).  The combined
curve is U-shaped with its minimum where the two overheads balance — at
the analytic ``P* = sqrt(2·C·T)`` (see
:func:`repro.core.watchdogs.optimal_watchdog_value`).
"""

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import ClankConfig
from repro.core.watchdogs import optimal_watchdog_value
from repro.eval.parallel import FIXED_COST_MODEL, SimJob, run_jobs
from repro.eval.runner import ci95
from repro.eval.settings import DEFAULT_SETTINGS, EvalSettings

#: Fixed-cost checkpoints, as the paper's Section 7.4 analysis assumes
#: ("it is possible to calculate the optimal watchdog value given the
#: average on time, restart overhead, and the average number of cycles
#: required to save a checkpoint").  With infinite buffers a real flush
#: would grow linearly with section length and hide the 1/P decay of the
#: checkpoint curve.
FIG8_COST_MODEL = FIXED_COST_MODEL

#: Workload used for the sweep: a long benchmark, so each run spans many
#: power cycles; with infinite buffers no checkpoint is program-induced
#: (matching the experiment's "ideal scenario" premise).
SWEEP_WORKLOAD = "fft"

#: Watchdog values swept (cycles).
SWEEP_VALUES = (200, 400, 700, 1000, 1500, 2200, 3200, 4700, 7000,
                10000, 15000, 22000, 33000, 47000)


@dataclass(frozen=True)
class Fig8Point:
    """One sweep point (CI half-widths are 0 outside ``--seeds`` mode)."""

    watchdog: int
    checkpoint: float
    reexec: float
    checkpoint_ci: float = 0.0
    reexec_ci: float = 0.0

    @property
    def combined(self) -> float:
        """Combined overhead multiplier (the paper's third curve)."""
        return 1.0 + self.checkpoint + self.reexec


@dataclass
class Fig8Data:
    """The full sweep plus the analytic optimum.

    ``seeds`` is 0 for the standard sweep; a positive value marks a
    ``--seeds N`` run whose points carry 95% confidence half-widths.
    """

    points: List[Fig8Point]
    analytic_optimum: int
    seeds: int = 0

    def best(self) -> Fig8Point:
        """The sweep point with minimal combined overhead."""
        return min(self.points, key=lambda p: p.combined)


def run(
    settings: EvalSettings = DEFAULT_SETTINGS,
    repeats: int = 6,
    seeds: Optional[int] = None,
) -> Fig8Data:
    """Sweep the Performance Watchdog with infinite buffers.

    When ``repeats > 1`` the sweep issues one batched seed-repeat job per
    watchdog value (``SimJob.n_seeds``): row ``r`` replays power salt
    ``1000*value + r``, exactly the salts of the historical per-repeat
    job list, so the batched engine changes wall-clock but not a single
    output digit.

    Args:
        settings: Experiment settings.
        repeats: Runs (with different power seeds) averaged per point.
        seeds: When given, overrides ``repeats`` and annotates every
            point with 95% confidence half-widths (``--seeds N`` mode).
    """
    if seeds is not None:
        repeats = max(1, seeds)
    spec = ClankConfig.infinite().as_tuple()
    points = []
    if repeats > 1:
        jobs = [
            SimJob(
                workload=SWEEP_WORKLOAD,
                config=spec,
                size=settings.size,
                salt=1000 * value,
                perf_watchdog=value,
                cost_model="fixed",
                n_seeds=repeats,
            )
            for value in SWEEP_VALUES
        ]
        for value, batch in zip(SWEEP_VALUES, run_jobs(jobs, settings)):
            cks = [r.checkpoint_overhead for r in batch.results]
            rxs = [
                r.reexec_overhead + r.restart_overhead for r in batch.results
            ]
            # Accumulate in row order so the mean is float-identical to
            # the historical scalar per-repeat loop.
            ck = rx = 0.0
            for c in cks:
                ck += c
            for x in rxs:
                rx += x
            points.append(
                Fig8Point(
                    value,
                    ck / repeats,
                    rx / repeats,
                    checkpoint_ci=ci95(cks),
                    reexec_ci=ci95(rxs),
                )
            )
    else:
        jobs = [
            SimJob(
                workload=SWEEP_WORKLOAD,
                config=spec,
                size=settings.size,
                salt=1000 * value,
                perf_watchdog=value,
                cost_model="fixed",
            )
            for value in SWEEP_VALUES
        ]
        for value, result in zip(SWEEP_VALUES, run_jobs(jobs, settings)):
            points.append(
                Fig8Point(
                    value,
                    result.checkpoint_overhead,
                    result.reexec_overhead + result.restart_overhead,
                )
            )
    analytic = optimal_watchdog_value(
        settings.avg_on_cycles, FIG8_COST_MODEL.checkpoint_cycles()
    )
    return Fig8Data(
        points=points,
        analytic_optimum=analytic,
        seeds=repeats if seeds is not None else 0,
    )


def render(data: Fig8Data) -> str:
    """Text rendering of the three curves (CI columns in ``--seeds`` mode
    only, so the default rendering is byte-identical to earlier releases).
    A zero-variance CI column renders ``determ.`` rather than a
    meaningless ±0.00% interval (the numeric field stays 0.0).
    """
    if data.seeds:
        out = [
            "Figure 8: Performance Watchdog sweep (infinite buffers) — "
            f"{data.seeds} seeds, mean ± 95% CI"
        ]
        out.append(
            f"{'WDT value':>10s} {'ckpt':>8s} {'±ci':>7s} "
            f"{'reexec':>8s} {'±ci':>7s} {'combined':>9s}"
        )

        def ci_cell(half: float) -> str:
            if half == 0.0:
                return f"{'determ.':>7s}"
            if half < 0.00005:  # would print as a misleading 0.00%
                return f"{'<0.01%':>7s}"
            return f"{half:7.2%}"

        for p in data.points:
            out.append(
                f"{p.watchdog:10d} {p.checkpoint:8.2%} "
                f"{ci_cell(p.checkpoint_ci)} "
                f"{p.reexec:8.2%} {ci_cell(p.reexec_ci)} x{p.combined:8.4f}"
            )
        best = data.best()
        out.append(
            f"minimum at {best.watchdog} "
            f"(analytic P* = {data.analytic_optimum}); "
            f"checkpoint {best.checkpoint:.2%} vs re-execution {best.reexec:.2%}"
        )
        return "\n".join(out)
    out = ["Figure 8: Performance Watchdog sweep (infinite buffers)"]
    out.append(f"{'WDT value':>10s} {'ckpt':>8s} {'reexec':>8s} {'combined':>9s}")
    for p in data.points:
        out.append(
            f"{p.watchdog:10d} {p.checkpoint:8.2%} {p.reexec:8.2%} "
            f"x{p.combined:8.4f}"
        )
    best = data.best()
    out.append(
        f"minimum at {best.watchdog} (analytic P* = {data.analytic_optimum}); "
        f"checkpoint {best.checkpoint:.2%} vs re-execution {best.reexec:.2%}"
    )
    return "\n".join(out)
