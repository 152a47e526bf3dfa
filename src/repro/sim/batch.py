"""Batched schedule-vector replay: N power schedules against one SectionMap.

The fast path (:mod:`repro.sim.fast`) replays exactly one schedule per
call, so a Monte Carlo sweep pays per-schedule dispatch (simulator set-up,
schedule object, result) for every seed.  This module replays a whole
:class:`~repro.power.schedules.ScheduleBatch` against one shared
:class:`~repro.sim.sections.SectionMap` through the same C section walk
scalar runs use (``section_walk`` in ``_chainscan.c``, driven by
:func:`repro.sim.fast.section_walk`), one row after another over the
batch's on-time arrays.  The walk is *bit-identical* to N scalar
:func:`~repro.sim.fast.simulate_fast` calls — the equivalence grid in
``tests/test_batch_replay.py`` pins this across configurations, policy
optimizations, PI marking, and both chain-scan kernels.

Fallback.  Whole-batch ineligibility (no C kernel — ``REPRO_CEXT=0`` or
no compiler —, ``verify=True``, volatile ranges, the static PI hazard,
or a live architecture collector) routes every row through scalar
:func:`simulate_fast`; *per-row* conditions — an
unprovable watchdog cut (:meth:`SectionMap.watchdog_cut_safe`) or a
no-forward-progress abort — rerun just that row scalar (schedules fully
re-seed from their row seed, so the rerun consumes the identical on-time
sequence).  A row is therefore either served by the row walker (provably
identical) or by the very engines the scalar path would have used.
"""

import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.core import cext
from repro.obs.analyze import COLLECTOR as ARCH_COLLECTOR
from repro.obs.metrics import COUNTERS, by_prefix
from repro.power.schedules import ScheduleBatch
from repro.sim.fast import (
    _ST_INIT,
    FastPathIneligible,
    FastReplaySimulator,
    last_dispatch,
    section_walk,
    simulate_fast,
    walk_result,
)
from repro.sim.result import SimulationResult

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
        seconds: Wall-clock seconds of each row's scalar rerun (0 for
            rows the row walker served).  Provenance only, like
            ``kernels``.
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
# The row walker.
# --------------------------------------------------------------------- #


def _walk_rows(sim: FastReplaySimulator, sbatch: ScheduleBatch, lib):
    """Walk every row of ``sbatch`` through the C section walk.

    ``sim`` carries the run's trace, config and walk parameters: build
    it with ``sbatch.row_schedule(0)``, so its ``"auto"`` watchdog loads
    and ``max_power_cycles`` default derive from the batch's
    ``mean_on_time``, which every row shares.  Returns ``(results,
    needs_scalar)``: ``results[r]`` is the row's
    :class:`SimulationResult` (``None`` when flagged) and
    ``needs_scalar`` lists the rows the walk could not carry (an unsafe
    watchdog cut or a ``max_power_cycles`` abort — the scalar engines
    reproduce both exactly).

    Raises :class:`~repro.sim.fast.FastPathIneligible` for a batch no
    row of which the section walk may carry.
    """
    smap = sim._section_map()
    prm = sim._walk_params()
    trace = sim.trace
    name = trace.name
    label = sim.config.label()
    baseline = trace.total_cycles
    results: List[Optional[SimulationResult]] = [None] * sbatch.rows
    needs_scalar: List[int] = []
    for r, ontimes in enumerate(sbatch.ontimes):
        def more(ontimes=ontimes):
            sbatch.ensure_columns(max(8, len(ontimes) * 2))

        st = array("q", _ST_INIT)
        if section_walk(smap, lib, prm, ontimes, more, st):
            needs_scalar.append(r)
        else:
            results[r] = walk_result(st, name, label, baseline)
    return results, needs_scalar


# --------------------------------------------------------------------- #
# Dispatch.
# --------------------------------------------------------------------- #

#: Batch dispatch counters in the process-wide registry: batches walked,
#: rows served by the row walker, rows handed to the scalar engines, and
#: why (``batch.reasons.<reason>``).
_BATCHES = COUNTERS.counter("batch.batches")
_ROWS = COUNTERS.counter("batch.rows_batched")
_ROWS_FALLBACK = COUNTERS.counter("batch.rows_fallback")
_REASON_PREFIX = "batch.reasons."


def batch_stats() -> dict:
    """Batch dispatch counts since the last ``COUNTERS.reset()``:
    ``{"batches", "rows_batched", "rows_fallback": int, "reasons":
    {reason: rows}}`` (reasons that moved only)."""
    return {
        "batches": _BATCHES.value,
        "rows_batched": _ROWS.value,
        "rows_fallback": _ROWS_FALLBACK.value,
        "reasons": by_prefix(COUNTERS.snapshot(), _REASON_PREFIX),
    }


def _count_fallback(reason: str, rows: int = 1) -> None:
    _ROWS_FALLBACK.inc(rows)
    COUNTERS.counter(_REASON_PREFIX + reason).inc(rows)


def simulate_batch(
    trace, config, schedules: ScheduleBatch, allow_stall: bool = False,
    **kwargs,
) -> BatchResult:
    """Replay every schedule row; row walker when eligible, scalar otherwise.

    Whole-batch ineligibility (no C kernel, ``verify``, volatile ranges,
    PI hazard, live architecture collector) routes all rows through
    :func:`simulate_fast`; rows the walker flags mid-flight
    (unprovable watchdog cut, no-forward-progress abort) rerun scalar
    individually — their fresh row schedule consumes the identical on-time
    sequence, so the outcome is bit-identical to never having batched.

    Args:
        allow_stall: Return ``None`` (engine ``"stalled"``) for rows whose
            scalar rerun aborts without forward progress, instead of
            propagating :class:`SimulationError`.
    """
    N = schedules.rows
    batch = BatchResult(
        name=trace.name,
        config_label=config.label(),
        results=[None] * N,
        engines=["batch"] * N,
        reasons=[None] * N,
        kernels=["c"] * N,
        seconds=[0.0] * N,
    )
    lib = cext.chain_scan_lib()
    if lib is None:
        whole_batch_reason = "no_cext"
    elif ARCH_COLLECTOR.enabled:
        # Introspection folds per run in dispatch order; the row walker
        # has no per-section commit record to attribute, so the scalar
        # engines (which reconcile exactly) serve instead.
        whole_batch_reason = "arch_collector"
    else:
        # verify (IntermittentSimulator's default, as in simulate_fast),
        # a live recorder, volatile ranges and the PI hazard raise here.
        sim = FastReplaySimulator(
            trace, config, schedules.row_schedule(0), **kwargs
        )
        try:
            batch.results, needs_scalar = _walk_rows(sim, schedules, lib)
            whole_batch_reason = None
        except FastPathIneligible as exc:
            whole_batch_reason = exc.reason.value

    if whole_batch_reason is None:
        _BATCHES.inc()
        _ROWS.inc(N - len(needs_scalar))
        if needs_scalar:
            _count_fallback("row_rerun", len(needs_scalar))
    else:
        needs_scalar = list(range(N))
        _count_fallback(whole_batch_reason, N)

    for r in needs_scalar:
        schedule = schedules.row_schedule(r)
        start = time.perf_counter()
        try:
            batch.results[r] = simulate_fast(
                trace, config, schedule, **kwargs
            )
        except SimulationError:
            if not allow_stall:
                raise
            batch.results[r] = None
            batch.engines[r] = "stalled"
            batch.reasons[r] = None
            batch.kernels[r] = None
        else:
            batch.engines[r], batch.reasons[r], batch.kernels[r] = (
                last_dispatch()
            )
        batch.seconds[r] = time.perf_counter() - start
    return batch
