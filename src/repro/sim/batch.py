"""The one dispatcher: rows of (configuration, power schedule) over a trace.

A sweep replays one trace under many configurations and schedules.
:func:`simulate_batch` takes such a *group*: one trace and marking, and
rows that may differ in configuration as well as in schedule seed.  One
C call walks every walkable row over its configuration's
:class:`~repro.sim.sections.SectionMap` (``group_walk`` in
``_chainscan.c``, driven by :func:`repro.sim.fast.walk_group`): the rows'
map tables, walk parameters, on-time arrays and run states sit in one
in-place buffer, and the walk returns to Python only for what a map or
schedule still lacks.  Rows that share a seed share one on-time array of
the :class:`~repro.power.schedules.ScheduleBatch`, drawn once and grown
in place.  Before the walk, the cold maps of the walkable rows' distinct
configurations are family-built together
(:func:`~repro.sim.sections.prefetch_family`), so a group's rows decide
which maps enumerate in one pass.  The rows' results are then built from
the buffer in one pass, in row order.
:func:`~repro.sim.fast.simulate_fast` is a one-row call.  The walk is
*bit-identical* to the reference simulator —
``tests/test_fast_replay.py`` and ``tests/test_batch_replay.py`` pin this
on fixed grids and ``tests/test_row_engine.py`` on generated sweeps —
down to its no-forward-progress error: a row that exceeds
``max_power_cycles`` ends in the walk, and comes back stalled (``None``
under ``allow_stall``) or raises the reference's
:class:`~repro.common.errors.SimulationError`.

Under a live architecture collector (:mod:`repro.obs.analyze`) the walk
stops after each commit with its record — cause, section, cut, WBB
entries and checkpoint cycles — and :class:`_ArchFold` derives the
commit-instant occupancy from one Python scan of the section's growth
steps (:func:`~repro.core.detector.scan_section`), the numbers the
reference snapshots from its live detector.

Fallback.  A row the walk cannot carry runs on the reference simulator
(:meth:`~repro.sim.simulator.IntermittentSimulator.run`) with its typed
:class:`~repro.obs.telemetry.FallbackReason`: every row without the C
kernel (``no_cext``: ``REPRO_CEXT=0`` or no compiler), ``verify``, a
live recorder, volatile ranges, its config's static PI hazard, and the
rows the walk ended with an unsafe watchdog cut (``watchdog_cut``) or a
reach-buffer overflow (``reach_overflow``).  The rerun starts from a
fresh row schedule, which re-seeds and consumes the identical on-time
sequence.  A row is therefore served by the row walk (provably
identical) or by the reference itself.
"""

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.core import cext
from repro.core.cext import WALK_CAUSE_NAMES, _addr
from repro.core.config import ClankConfig
from repro.core.detector import kernel_params, scan_section
from repro.obs.analyze import COLLECTOR as ARCH_COLLECTOR, HAZARD_CAUSES
from repro.obs.metrics import COUNTERS, by_prefix
from repro.obs.recorder import live_recorder
from repro.obs.telemetry import FallbackReason
from repro.sim import fast
from repro.sim.fast import (
    _FAST,
    _R_END,
    _R_LEN,
    _R_NS,
    _REASONS,
    _ST_COMMIT,
    _SW_CUT_UNSAFE,
    _SW_REACH_FULL,
    _SW_STALL,
    _walk_table,
    row_state,
    stall_message,
    walk_group,
    walk_result,
)
from repro.sim.result import SimulationResult
from repro.sim.sections import get_section_map, prefetch_family
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
        engines: What served each row — ``"batch"`` or ``"fast"`` (the
            section walk, by the caller's stamp), ``"reference"``, or
            ``"stalled"``.
        reasons: Typed fallback reason per reference row (``None`` for
            the others).
        kernels: ``"c"`` for each row the section walk served, ``None``
            for the reference simulator and stalls.  Run provenance
            only: not part of :meth:`to_dict`.
        seconds: Wall-clock seconds of each row: its walk (timed by the
            C walk from the row's first step to its end, the Python
            stops it needed included), plus its reference rerun.  The
            group's set-up and result building are in no row.
            Provenance only, like ``kernels``.
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
#: row walk, rows handed to the reference, and why
#: (``batch.reasons.<reason>``).  Rows stamped as scalar runs
#: (``engine="fast"``) count under ``dispatch.*`` instead.
_ROWS = COUNTERS.counter("batch.rows_batched")
_ROWS_FALLBACK = COUNTERS.counter("batch.rows_fallback")
_REASON_PREFIX = "batch.reasons."

#: How a reported commit was made (``CM_*`` in ``_chainscan.c``), when
#: not at its section's boundary: a watchdog cut inside the section, or
#: an output's post-checkpoint.
_CM_CUT = 0
_CM_POST = 2

#: The walk's row end codes that hand a row to the reference.
_STOP_REASONS = {
    _SW_CUT_UNSAFE: FallbackReason.WATCHDOG_CUT.value,
    _SW_REACH_FULL: FallbackReason.REACH_OVERFLOW.value,
}


def batch_stats() -> dict:
    """Batch dispatch counts since the last ``COUNTERS.reset()``:
    ``{"rows_batched", "rows_fallback": int, "reasons":
    {reason: rows}}`` (reasons that moved only)."""
    return {
        "rows_batched": _ROWS.value,
        "rows_fallback": _ROWS_FALLBACK.value,
        "reasons": by_prefix(COUNTERS.snapshot(), _REASON_PREFIX),
    }


def _plan(sim: IntermittentSimulator, config: ClankConfig, walk: bool,
          arch: bool):
    """``[map, walk parameters, label]`` for the rows of ``config`` (the
    walk adds the addresses of the map's walk table and of the
    parameters), or the :class:`FallbackReason` value that sends them to
    the reference.

    ``sim`` holds the rows' shared keyword arguments as the reference
    resolves them ("auto" watchdog loads, the default
    ``max_power_cycles``); ``walk`` says whether the C kernel is loaded.
    A reason the run itself carries wins over ``no_cext``.
    """
    if sim.verify:
        return FallbackReason.VERIFY.value
    if live_recorder(sim.recorder) is not None:
        return FallbackReason.LIVE_RECORDER.value
    if sim.volatile_ranges:
        return FallbackReason.VOLATILE_RANGES.value
    smap = get_section_map(sim.trace, config, sim.pi_words,
                           sim.pi_access_indices, sim.forced_checkpoints)
    if smap.pi_hazard:
        return FallbackReason.PI_HAZARD.value
    if not walk:
        return FallbackReason.NO_CEXT.value
    cost = sim.cost_model
    # The C walk's parameters (``P_*`` in ``_chainscan.c``).
    prm = array("q", (
        cost.register_checkpoint_cycles, cost.wbb_flush_base_cycles,
        cost.wbb_entry_flush_cycles, cost.restart_cycles(0),
        sim.perf_watchdog_load, sim.progress_watchdog_load,
        1 if sim.progress_watchdog_adaptive else 0,
        1 if config.optimizations.ignore_false_writes else 0,
        sim.max_power_cycles, fast._REACH_CAP, 1 if arch else 0,
    ))
    return [smap, prm, config.label()]


class _ArchFold:
    """Folds one walked run's commit records into an accumulator.

    Each commit scans its section once (:func:`scan_section`) and takes
    its occupancy by bisect arithmetic over the section's growth steps;
    its section peaks are recorded once per section key.  These are the
    numbers the reference snapshots from its live detector at each
    commit.
    """

    __slots__ = ("scan", "acc", "rm_dup", "waddrs", "last")

    def __init__(self, smap, config: ClankConfig, acc):
        #: ``scan_section``'s leading arguments: the map's trace,
        #: configuration and marking.
        self.scan = (smap.ct, kernel_params(config), config.prefix_low_bits,
                     smap._forced_sorted, smap.pi_words, smap.pi_indices)
        self.acc = acc
        self.rm_dup = config.optimizations.remove_duplicates
        self.waddrs = smap.ct.waddrs
        self.last = 0  # cycles elapsed at the previous commit

    def commit(self, rows: array, st: int) -> None:
        """Fold the commit the run state at ``rows[st:]`` describes
        (``ST_COMMIT`` slots, ``CM_*`` in ``_chainscan.c``), made ``e``
        cycles into the run."""
        how, cid, s, variant, at, nwbb, c = rows[st + _ST_COMMIT:
                                                 st + _ST_COMMIT + 7]
        e = sum(rows[st + 7:st + 12])  # every cycle bucket
        cause = WALK_CAUSE_NAMES[cid]
        acc = self.acc
        if how == _CM_POST:
            # GO-phase post-commit: the buffers were reset by the
            # pre-checkpoint and the output bypasses the detector.
            acc.record_commit(cause, (0, 0, 0, 0), None, 1,
                              (e - c) - self.last, c)
            self.last = e
            return
        _, _, wbb_s, _, rf_s, wf_s, apb_s, rf_peak = scan_section(
            *self.scan, s, variant)
        if how == _CM_CUT:
            nrf = bisect_left(rf_s, at)
            nwf = bisect_left(wf_s, at)
            napb = bisect_left(apb_s, at)
            addr = None
        else:
            nrf, nwf, napb = len(rf_s), len(wf_s), len(apb_s)
            addr = self.waddrs[at] if cause in HAZARD_CAUSES else None
        acc.record_commit(
            cause, (nrf - (nwbb if self.rm_dup else 0), nwf, nwbb, napb),
            addr, at - s, (e - c) - self.last, c,
        )
        acc.record_section((s << 2) | variant,
                           (rf_peak, len(wf_s), len(wbb_s), len(apb_s)))
        self.last = e


def simulate_batch(
    trace, config, schedules, allow_stall: bool = False,
    engine: str = "batch", **kwargs,
) -> BatchResult:
    """Replay every schedule row: the C row walk when it can carry the
    row, the reference simulator otherwise (see the module docstring).

    Args:
        config: One :class:`~repro.core.config.ClankConfig` for every row
            (the result's ``config_label``), or one per row (the label is
            the first row's); all share ``kwargs`` and the trace.
        schedules: A :class:`~repro.power.schedules.ScheduleBatch`, or a
            :class:`~repro.power.schedules.ScheduleRow` for one run.
        allow_stall: Return ``None`` (engine ``"stalled"``) for rows that
            make no forward progress, instead of raising.
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
    arch = ARCH_COLLECTOR.enabled
    counted = engine == "batch"
    # The rows' schedules share a mean on-time, so ``schedules`` stands in
    # for each: it resolves the "auto" watchdog loads and the default
    # max_power_cycles every row walks with.
    sim = IntermittentSimulator(trace, configs[0], schedules, **kwargs)
    plans = {}  # config -> a _plan
    row_plans = []
    for cfg in configs:
        plan = plans.get(cfg)
        if plan is None:
            plan = plans[cfg] = _plan(sim, cfg, lib is not None, arch)
        row_plans.append(plan)
    walkable = [plan for plan in plans.values() if type(plan) is list]
    walked = [r for r, plan in enumerate(row_plans) if type(plan) is list]
    # The walk reads only flat tables: family-build the cold maps of the
    # walkable rows' configs before it starts.
    cold = [plan[0].config for plan in walkable if plan[0]._flat is None]
    if cold:
        prefetch_family(trace, cold, sim.pi_words, sim.pi_access_indices,
                        sim.forced_checkpoints)
    name, baseline = trace.name, trace.total_cycles
    results, seconds = batch.results, batch.seconds
    if walked:
        draws = 0
        for plan in walkable:
            plan += (_addr(_walk_table(plan[0])), _addr(plan[1]))
            draws = max(draws, plan[0].walk_draws)
        if schedules.columns < draws:
            schedules.ensure_columns(draws)
        wplans = [row_plans[r] for r in walked]
        folds = [
            _ArchFold(plan[0], configs[r], ARCH_COLLECTOR.run_accumulator())
            for plan, r in zip(wplans, walked)
        ] if arch else None
        rows = walk_group(lib, wplans,
                          array("q", [schedules.slots[r] for r in walked]),
                          schedules, folds)
        ends = rows[_R_END::_R_LEN].tolist()
        for k, (r, ns) in enumerate(zip(walked, rows[_R_NS::_R_LEN])):
            seconds[r] = ns * 1e-9
            if not ends[k]:
                results[r] = walk_result(rows, k, name, wplans[k][2],
                                         baseline)
    k = 0
    for r, plan in enumerate(row_plans):
        if type(plan) is str:
            reason = plan
        else:
            end = ends[k]
            k += 1
            if not end:
                if arch:
                    ARCH_COLLECTOR.fold_run(name, plan[2], folds[k - 1].acc,
                                            "fast")
                continue
            if end == _SW_STALL:
                if not allow_stall:
                    raise SimulationError(stall_message(
                        row_state(rows, k - 1), name, plan[1], plan[0].n))
                batch.engines[r] = "stalled"
                batch.kernels[r] = None
                continue
            reason = _STOP_REASONS[end]
        if counted:
            _ROWS_FALLBACK.inc()
            COUNTERS.counter(_REASON_PREFIX + reason).inc()
        _REASONS[reason].inc()
        t0 = perf_counter()
        try:
            results[r] = IntermittentSimulator(
                trace, configs[r], schedules.row_schedule(r), **kwargs
            ).run()
        except SimulationError:
            if not allow_stall:
                raise
            batch.engines[r] = "stalled"
            batch.kernels[r] = None
        else:
            batch.engines[r] = "reference"
            batch.reasons[r] = reason
            batch.kernels[r] = None
        seconds[r] += perf_counter() - t0
    walked_done = ends.count(0) if walked else 0
    if counted:
        _ROWS.inc(walked_done)
    else:
        _FAST.inc(walked_done)
    return batch
