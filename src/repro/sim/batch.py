"""The one dispatcher: rows of (configuration, power schedule) over a trace.

A sweep replays one trace under many configurations and schedules.
:func:`simulate_batch` takes such a *group*: one trace and marking, and
rows that may differ in configuration as well as in schedule seed.  Each
row walks its configuration's :class:`~repro.sim.sections.SectionMap`
through the C section walk (``section_walk`` in ``_chainscan.c``, driven
by :func:`repro.sim.fast.section_walk`), one row after another over the
:class:`~repro.power.schedules.ScheduleBatch`'s on-time arrays.  Rows that
share a seed share one array, drawn once and grown in place.  The walk is
*bit-identical* to one :func:`~repro.sim.fast.simulate_fast` call per row
— ``tests/test_batch_replay.py`` pins this on fixed grids and
``tests/test_row_engine.py`` on generated sweeps.
:func:`~repro.sim.fast.simulate_fast` is itself a one-row call.

Fallback.  A row the C walk cannot carry runs on the Python walker
(:meth:`~repro.sim.fast.FastReplaySimulator.run`): every row without the
C kernel (``REPRO_CEXT=0`` or no compiler) or under a live architecture
collector, and a row whose walk hit ``max_power_cycles`` or overflowed its
reach buffer.  A row no section walk may carry runs on the reference
simulator, with the typed reason: ``verify``, a live recorder, volatile
ranges, its config's static PI hazard, or an unprovable watchdog cut
(:meth:`SectionMap.watchdog_cut_safe`).  Either rerun starts from a fresh
row schedule, which re-seeds and consumes the identical on-time
sequence.  A row is therefore served by the row walk (provably
identical) or by the very engines a scalar run would have used.
"""

from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.core import cext
from repro.core.config import ClankConfig
from repro.obs.analyze import COLLECTOR as ARCH_COLLECTOR
from repro.obs.metrics import COUNTERS, by_prefix
from repro.obs.telemetry import FallbackReason
from repro.sim.fast import (
    _C_WALK,
    _FAST,
    _REASONS,
    _ST_INIT,
    _SW_NEED_CUT,
    FastPathIneligible,
    FastReplaySimulator,
    section_walk,
    walk_result,
)
from repro.sim.result import SimulationResult
from repro.sim.simulator import IntermittentSimulator

__all__ = [
    "BatchResult",
    "batch_stats",
    "simulate_batch",
]

#: 95% normal-approximation half-width multiplier.
_Z95 = 1.959963984540054


# --------------------------------------------------------------------- #
# Result container.
# --------------------------------------------------------------------- #


@dataclass
class BatchResult:
    """Per-schedule results of one batched replay, plus reduced aggregates.

    Attributes:
        name: Workload name.
        config_label: Clank configuration label.
        results: One :class:`SimulationResult` per schedule row, in row
            order; ``None`` marks a row that stalled (no forward progress)
            under ``allow_stall``.
        engines: What served each row — ``"batch"`` (the row walker),
            ``"fast"``/``"reference"`` (per-row or whole-batch scalar
            fallback), or ``"stalled"``.
        reasons: Typed fallback reason per non-batch row (``None`` for
            batch-served rows).
        kernels: Which walker served each row — ``"c"``, ``"python"``,
            or ``None`` for the reference simulator and stalls.  Run
            provenance only: not part of :meth:`to_dict`.
        seconds: Wall-clock seconds of each row: its walk, or its
            scalar rerun.  Provenance only, like ``kernels``.
    """

    name: str
    config_label: str
    results: List[Optional[SimulationResult]] = field(default_factory=list)
    engines: List[str] = field(default_factory=list)
    reasons: List[Optional[str]] = field(default_factory=list)
    kernels: List[Optional[str]] = field(default_factory=list)
    seconds: List[float] = field(default_factory=list)

    @property
    def rows(self) -> int:
        return len(self.results)

    @property
    def batch_rows(self) -> int:
        """Rows served by the row walker."""
        return sum(1 for e in self.engines if e == "batch")

    def column(self, metric: str) -> List[float]:
        """One derived metric across all completed rows, in row order."""
        return [
            getattr(r, metric) for r in self.results if r is not None
        ]

    def mean_ci(self, metric: str):
        """``(mean, ci95)`` of a derived metric across completed rows.

        The half-width is the normal-approximation 95% interval
        (``1.96 * s / sqrt(n)``, sample standard deviation); 0 when fewer
        than two rows completed.
        """
        col = self.column(metric)
        if not col:
            return (float("nan"), 0.0)
        mean = sum(col) / len(col)
        if len(col) < 2:
            return (mean, 0.0)
        var = sum((x - mean) ** 2 for x in col) / (len(col) - 1)
        return (mean, _Z95 * (var ** 0.5) / (len(col) ** 0.5))

    def summary_stats(self) -> Dict[str, tuple]:
        """``{metric: (mean, ci95)}`` for the overhead metrics the
        figures report."""
        return {
            metric: self.mean_ci(metric)
            for metric in (
                "checkpoint_overhead", "reexec_overhead",
                "restart_overhead", "run_time_overhead",
            )
        }

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "config_label": self.config_label,
            "results": [
                None if r is None else r.to_dict(include_derived=False)
                for r in self.results
            ],
            "engines": list(self.engines),
            "reasons": list(self.reasons),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BatchResult":
        return cls(
            name=d["name"],
            config_label=d["config_label"],
            results=[
                None if r is None else SimulationResult.from_dict(r)
                for r in d["results"]
            ],
            engines=list(d["engines"]),
            reasons=list(d["reasons"]),
        )


# --------------------------------------------------------------------- #
# Dispatch.
# --------------------------------------------------------------------- #

#: Seed-repeat counters in the process-wide registry: rows served by the
#: row walk, rows handed to the scalar engines, and why
#: (``batch.reasons.<reason>``).  Rows stamped as scalar runs
#: (``engine="fast"``) count under ``dispatch.*`` instead.
_ROWS = COUNTERS.counter("batch.rows_batched")
_ROWS_FALLBACK = COUNTERS.counter("batch.rows_fallback")
_REASON_PREFIX = "batch.reasons."


def batch_stats() -> dict:
    """Batch dispatch counts since the last ``COUNTERS.reset()``:
    ``{"rows_batched", "rows_fallback": int, "reasons":
    {reason: rows}}`` (reasons that moved only)."""
    return {
        "rows_batched": _ROWS.value,
        "rows_fallback": _ROWS_FALLBACK.value,
        "reasons": by_prefix(COUNTERS.snapshot(), _REASON_PREFIX),
    }


def _rerun(trace, config, schedule, kwargs, reason):
    """One run off the C walk: the Python walker, unless ``reason``
    already names why the reference must serve it.  Returns ``(result,
    (engine, fallback_reason, kernel))``; a stall raises."""
    if reason is None:
        try:
            result = FastReplaySimulator(trace, config, schedule,
                                         **kwargs).run()
        except FastPathIneligible as exc:
            reason = exc.reason.value
        else:
            _FAST.inc()
            return result, ("fast", None, "python")
    _REASONS[reason].inc()
    result = IntermittentSimulator(trace, config, schedule, **kwargs).run()
    return result, ("reference", reason, None)


def simulate_batch(
    trace, config, schedules, allow_stall: bool = False,
    engine: str = "batch", **kwargs,
) -> BatchResult:
    """Replay every schedule row: the C row walk when it can carry the
    row, the scalar engines otherwise (see the module docstring).

    Args:
        config: One :class:`~repro.core.config.ClankConfig` for every row
            (the result's ``config_label``), or one per row (the label is
            the first row's); all share ``kwargs`` and the trace.
        schedules: A :class:`~repro.power.schedules.ScheduleBatch`, or a
            :class:`~repro.power.schedules.ScheduleRow` for one run.
        allow_stall: Return ``None`` (engine ``"stalled"``) for rows whose
            rerun aborts without forward progress, instead of raising.
        engine: The stamp of rows the C walk serves: ``"batch"`` (rows of
            seed-repeat jobs, counted under ``batch.*``) or ``"fast"``
            (scalar runs, counted under ``dispatch.*`` like every rerun).
    """
    n = schedules.rows
    configs = [config] * n if isinstance(config, ClankConfig) else config
    batch = BatchResult(
        name=trace.name,
        config_label=configs[0].label(),
        results=[None] * n,
        engines=[engine] * n,
        reasons=[None] * n,
        kernels=["c"] * n,
        seconds=[0.0] * n,
    )
    lib = cext.chain_scan_lib()
    if lib is None:
        off = "no_cext"
    elif ARCH_COLLECTOR.enabled:
        # Introspection folds per run in dispatch order; the row walk
        # has no per-section commit record to attribute, so the Python
        # walker (which reconciles exactly) serves instead.
        off = "arch_collector"
    else:
        off = None
    counted = engine == "batch"
    # The rows' schedules share a mean on-time, so ``schedules`` stands in
    # for each: it resolves the "auto" watchdog loads and the default
    # max_power_cycles every row walks with.
    sim = FastReplaySimulator(trace, configs[0], schedules, **kwargs)
    plans = {}  # config -> (map, walk parameters, label), or a reason
    ontimes = schedules.ontimes
    name, baseline = trace.name, trace.total_cycles
    results, seconds = batch.results, batch.seconds
    walked = 0

    def more():
        schedules.ensure_columns(max(8, 2 * schedules.columns))

    for r in range(n):
        t0 = perf_counter()
        cfg = configs[r]
        reason, rerun = off, None
        if off is None:
            plan = plans.get(cfg)
            if plan is None:
                try:
                    smap = sim._section_map(cfg)
                    plan = (smap, sim._walk_params(cfg), cfg.label())
                except FastPathIneligible as exc:
                    plan = exc.reason.value
                plans[cfg] = plan
            if isinstance(plan, str):
                reason = rerun = plan
            else:
                smap, prm, label = plan
                if schedules.columns < smap.walk_draws:
                    schedules.ensure_columns(smap.walk_draws)
                st = array("q", _ST_INIT)
                rc = section_walk(smap, lib, prm, ontimes[r], more, st)
                if not rc:
                    results[r] = walk_result(st, name, label, baseline)
                    seconds[r] = perf_counter() - t0
                    walked += 1
                    continue
                reason = "row_rerun"
                rerun = (FallbackReason.WATCHDOG_CUT.value
                         if rc == _SW_NEED_CUT else None)
        if counted:
            _ROWS_FALLBACK.inc()
            COUNTERS.counter(_REASON_PREFIX + reason).inc()
        try:
            results[r], (batch.engines[r], batch.reasons[r],
                         batch.kernels[r]) = _rerun(
                trace, cfg, schedules.row_schedule(r), kwargs, rerun
            )
        except SimulationError:
            if not allow_stall:
                raise
            results[r] = None
            batch.engines[r] = "stalled"
            batch.kernels[r] = None
        seconds[r] = perf_counter() - t0
    if counted:
        _ROWS.inc(walked)
    else:
        _FAST.inc(walked)
        _C_WALK.inc(walked)
    return batch
