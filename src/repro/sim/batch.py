"""Batched schedule-vector replay: N power schedules against one SectionMap.

The fast path (:mod:`repro.sim.fast`) replays exactly one schedule per
call — a Python ``bisect`` walk over the section cycle prefix sums — so a
Monte Carlo sweep pays per-schedule Python dispatch for every seed.  This
module replays a whole :class:`~repro.power.schedules.ScheduleBatch`
against one shared :class:`~repro.sim.sections.SectionMap` through the C
row walker (``batch_walk`` in ``_chainscan.c``): one foreign call runs a
row to completion, returning to Python only for an unmaterialized
section, more schedule on-times, or a ``watchdog_cut_safe`` verdict.  The
walk is *bit-identical* to N scalar :func:`~repro.sim.fast.simulate_fast`
calls — the equivalence grid in ``tests/test_batch_replay.py`` pins this
across configurations, policy optimizations, PI marking, and both
chain-scan kernels.

Fallback.  Whole-batch ineligibility (no C kernel — ``REPRO_CEXT=0`` or
no compiler —, ``REPRO_FAST=0``, ``verify=True``, volatile ranges, the
static PI hazard, or a live architecture collector) routes every row
through scalar :func:`simulate_fast`; *per-row* conditions — an
unprovable watchdog cut (:meth:`SectionMap.watchdog_cut_safe`) or a
no-forward-progress abort — rerun just that row scalar (schedules fully
re-seed from their row seed, so the rerun consumes the identical on-time
sequence).  A row is therefore either served by the row walker (provably
identical) or by the very engines the scalar path would have used.
"""

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.core import cext
from repro.core.cext import _addr
from repro.obs.analyze import COLLECTOR as ARCH_COLLECTOR
from repro.obs.recorder import live_recorder
from repro.power.schedules import ScheduleBatch
from repro.sim.fast import fast_path_enabled, simulate_fast
from repro.sim.result import SimulationResult
from repro.sim.sections import get_section_map
from repro.sim.simulator import IntermittentSimulator

__all__ = [
    "BatchResult",
    "BatchReplaySimulator",
    "batch_stats",
    "merge_batch_stats",
    "reset_batch_stats",
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
    """

    name: str
    config_label: str
    results: List[Optional[SimulationResult]] = field(default_factory=list)
    engines: List[str] = field(default_factory=list)
    reasons: List[Optional[str]] = field(default_factory=list)

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
# Trace prefix sums as kernel buffers (content-keyed).
# --------------------------------------------------------------------- #

_ARRAY_CACHE: Dict[tuple, tuple] = {}
_MAX_CACHED_ARRAYS = 64


def _trace_arrays(ct):
    """``(cum_cycles, cycles)`` as ``array('q')`` copies, cached by trace
    content."""
    key = ct.content_key
    arrays = _ARRAY_CACHE.get(key)
    if arrays is None:
        arrays = (array("q", ct.cum_cycles), array("q", ct.cycles))
        if len(_ARRAY_CACHE) >= _MAX_CACHED_ARRAYS:
            _ARRAY_CACHE.pop(next(iter(_ARRAY_CACHE)))
        _ARRAY_CACHE[key] = arrays
    return arrays


# --------------------------------------------------------------------- #
# The row walker.
# --------------------------------------------------------------------- #

#: Per-row checkpoint counter columns: every section cause
#: (``cext.CAUSE_NAMES``) plus the two watchdog causes, which bounds the
#: distinct causes one walk can meet.
_NCAUSES = len(cext.CAUSE_NAMES) + 2

#: Fresh row state, laid out as the ST_* slots in ``_chainscan.c``:
#: ``forced_done = -1``, one power cycle, first boot pending
#: (``PH_RESTART``).
_ST_INIT = array("q", [0] * 19)
_ST_INIT[3] = -1   # ST_FORCED_DONE
_ST_INIT[12] = 1   # ST_PC
_ST_INIT[18] = 1   # ST_PHASE


class BatchReplaySimulator(IntermittentSimulator):
    """Replay a :class:`ScheduleBatch` row by row over one SectionMap.

    Construction mirrors the reference simulator (same ``"auto"`` watchdog
    resolution, same ``max_power_cycles`` default — both derive from the
    batch's ``mean_on_time``, which every row shares).  :meth:`run_batch`
    walks all rows; rows it cannot carry exactly come back flagged for a
    scalar rerun (:func:`simulate_batch` performs it transparently).
    """

    def __init__(self, trace, config, schedules: ScheduleBatch, **kwargs):
        if not isinstance(schedules, ScheduleBatch):
            raise TypeError("BatchReplaySimulator needs a ScheduleBatch")
        super().__init__(trace, config, schedules.row_schedule(0), **kwargs)
        self.schedules = schedules

    def run_batch(self):
        """Walk every row through ``batch_walk``; returns ``(results,
        needs_scalar)`` where ``results[r]`` is the row's
        :class:`SimulationResult` (``None`` when flagged) and
        ``needs_scalar`` lists the row indices the walk could not carry
        (an unsafe watchdog cut or a ``max_power_cycles`` abort — the
        scalar engines reproduce both exactly).

        Each row runs to completion inside the kernel (one foreign call
        per row in the steady state).  Requires the C kernel;
        :func:`simulate_batch` checks before constructing the walk.
        """
        trace = self.trace
        smap = get_section_map(
            trace, self.config, self.pi_words, self.pi_access_indices,
            self.forced_checkpoints,
        )
        sbatch = self.schedules
        N = sbatch.rows
        ct = smap.ct
        n = ct.n
        gcum, acc = _trace_arrays(ct)
        cost = self.cost_model
        ig_fw = self.config.optimizations.ignore_false_writes

        forced_mask = array("B", bytes(n + 1))
        for f in smap.forced:
            if f <= n:
                forced_mask[f] = 1

        # Cause ids in order of first appearance, as the scalar engines
        # fill ``checkpoints_by_cause``.
        cause_names: List[str] = []
        cause_ids: Dict[str, int] = {}

        def cid(name: str) -> int:
            k = cause_ids.get(name)
            if k is None:
                k = len(cause_names)
                if k >= _NCAUSES:  # the kernel indexes counts[k]
                    raise SimulationError(f"unknown checkpoint cause {name!r}")
                cause_ids[name] = k
                cause_names.append(name)
            return k

        prog_cid = cid("progress_wdt")
        perf_cid = cid("perf_wdt")
        out_cid = cid("output")

        # Flat section tables for the kernel, appended per lazy discovery.
        # Appends may move a buffer, so the addresses are re-read after
        # each one.
        slot_of = array("i", [-1]) * ((n + 1) << 2)
        sec_end = array("i")
        sec_cause = array("i")
        sec_kind = array("i")
        sec_nsteps = array("i")
        steps_off = array("q", [0])
        steps_val = array("i")

        def add_slot(key: int) -> None:
            end_, cause_, kind_, steps_ = smap.section(key >> 2, key & 3)
            slot_of[key] = len(sec_end)
            sec_end.append(end_)
            sec_cause.append(cid(cause_))
            sec_kind.append(kind_)
            sec_nsteps.append(len(steps_))
            steps_val.extend(steps_)
            steps_off.append(len(steps_val))

        def table_ptrs():
            return (
                _addr(slot_of), _addr(sec_end), _addr(sec_cause),
                _addr(sec_kind), _addr(sec_nsteps), _addr(steps_off),
                _addr(steps_val),
            )

        fn = cext.chain_scan_lib().batch_walk
        base_args = (_addr(gcum), _addr(acc), n, _addr(forced_mask))
        consts = (
            cost.register_checkpoint_cycles, cost.wbb_flush_base_cycles,
            cost.wbb_entry_flush_cycles, cost.restart_cycles(0),
            self.perf_watchdog_load, self.progress_watchdog_load,
            1 if self.progress_watchdog_adaptive else 0,
            1 if ig_fw else 0,
            self.max_power_cycles,
            prog_cid, perf_cid, out_cid,
        )
        cut_safe = smap.watchdog_cut_safe
        tp = table_ptrs()
        # The reach buffer only holds a row's live ``(reach, start)``
        # pairs (count in ST_NREACH), so rows share one.
        reach_cap = 256
        reach = array("q", bytes(16 * reach_cap))
        out = array("q", bytes(64))
        shared = (_addr(reach), reach_cap, _addr(out))

        name = trace.name
        label = self.config.label()
        baseline = trace.total_cycles
        results: List[Optional[SimulationResult]] = [None] * N
        needs_scalar: List[int] = []
        for r in range(N):
            ontimes = sbatch.ontimes[r]
            on_ptr, n_on = _addr(ontimes), len(ontimes)
            st = array("q", _ST_INIT)
            fl = array("B", bytes(4))
            counts = array("q", bytes(8 * _NCAUSES))
            row = (_addr(st), _addr(fl), _addr(counts))
            cut_ok = -1
            while True:
                rc = fn(*base_args, *tp, on_ptr, n_on, *consts, cut_ok,
                        *row, *shared)
                cut_ok = -1
                if rc == 0:        # BW_DONE
                    results[r] = SimulationResult(
                        name=name,
                        config_label=label,
                        baseline_cycles=baseline,
                        useful_cycles=st[7],
                        checkpoint_cycles=st[10],
                        restart_cycles=st[11],
                        reexec_cycles=st[8],
                        wasted_cycles=st[9],
                        checkpoints_by_cause={
                            cause_names[k]: counts[k]
                            for k in range(len(cause_names)) if counts[k]
                        },
                        power_cycles=st[12],
                        wasted_power_cycles=st[13],
                        outputs=st[14],
                        duplicate_outputs=st[15],
                        wbb_words_flushed=st[16],
                        verified=False,
                        completed=True,
                        metrics={},
                    )
                    break
                if rc == 1:        # BW_NEED_SECTION
                    add_slot(out[0])
                    tp = table_ptrs()
                    continue
                if rc == 2:        # BW_NEED_ONTIMES
                    sbatch.ensure_columns(max(8, n_on * 2))
                    on_ptr, n_on = _addr(ontimes), len(ontimes)
                    continue
                if rc == 3:        # BW_NEED_CUT
                    reaches = [(reach[2 * k], reach[2 * k + 1])
                               for k in range(st[17])]
                    if cut_safe(out[0], out[1], out[2], out[3], reaches):
                        cut_ok = 1
                        continue
                needs_scalar.append(r)   # unsafe cut or BW_FALLBACK
                break
        return results, needs_scalar


# --------------------------------------------------------------------- #
# Dispatch.
# --------------------------------------------------------------------- #

#: Process-wide batch dispatch counters: batches walked, rows served by
#: the row walker, rows handed to the scalar engines, and why.
_BSTATS = {
    "batches": 0,
    "rows_batched": 0,
    "rows_fallback": 0,
    "reasons": {},
}


def batch_stats() -> dict:
    """Batch dispatch counts since reset (see :data:`_BSTATS` shape)."""
    return {
        "batches": _BSTATS["batches"],
        "rows_batched": _BSTATS["rows_batched"],
        "rows_fallback": _BSTATS["rows_fallback"],
        "reasons": dict(_BSTATS["reasons"]),
    }


def reset_batch_stats() -> None:
    _BSTATS["batches"] = 0
    _BSTATS["rows_batched"] = 0
    _BSTATS["rows_fallback"] = 0
    _BSTATS["reasons"] = {}


def merge_batch_stats(delta: dict) -> None:
    """Fold a worker's batch-counter delta into this process's counters."""
    _BSTATS["batches"] += delta.get("batches", 0)
    _BSTATS["rows_batched"] += delta.get("rows_batched", 0)
    _BSTATS["rows_fallback"] += delta.get("rows_fallback", 0)
    reasons = _BSTATS["reasons"]
    for reason, count in delta.get("reasons", {}).items():
        reasons[reason] = reasons.get(reason, 0) + count


def _count_fallback(reason: str, rows: int = 1) -> None:
    _BSTATS["rows_fallback"] += rows
    reasons = _BSTATS["reasons"]
    reasons[reason] = reasons.get(reason, 0) + rows


def simulate_batch(
    trace, config, schedules: ScheduleBatch, allow_stall: bool = False,
    **kwargs,
) -> BatchResult:
    """Replay every schedule row; row walker when eligible, scalar otherwise.

    Whole-batch ineligibility (no C kernel, ``verify``, volatile ranges,
    PI hazard, ``REPRO_FAST=0``, live architecture collector) routes all
    rows through :func:`simulate_fast`; rows the walker flags mid-flight
    (unprovable watchdog cut, no-forward-progress abort) rerun scalar
    individually — their fresh row schedule consumes the identical on-time
    sequence, so the outcome is bit-identical to never having batched.

    Args:
        allow_stall: Return ``None`` (engine ``"stalled"``) for rows whose
            scalar rerun aborts without forward progress, instead of
            propagating :class:`SimulationError`.
    """
    from repro.sim import fast as fast_dispatch

    N = schedules.rows
    whole_batch_reason = None
    sim = None
    if cext.chain_scan_lib() is None:
        whole_batch_reason = "no_cext"
    elif not fast_path_enabled():
        whole_batch_reason = "fast_disabled"
    elif ARCH_COLLECTOR.enabled:
        # Introspection folds per run in dispatch order; the row walker
        # has no per-section commit record to attribute, so the scalar
        # engines (which reconcile exactly) serve instead.
        whole_batch_reason = "arch_collector"
    elif kwargs.get("verify", True):
        # Mirrors IntermittentSimulator's verify=True default: a caller
        # that never opted out of the dynamic verifier gets the verifying
        # reference engine, exactly as simulate_fast would dispatch.
        whole_batch_reason = "verify"
    elif live_recorder(kwargs.get("recorder")) is not None:
        whole_batch_reason = "live_recorder"
    elif kwargs.get("volatile_ranges"):
        whole_batch_reason = "volatile_ranges"
    else:
        sim = BatchReplaySimulator(trace, config, schedules, **kwargs)
        smap = get_section_map(
            trace, config, sim.pi_words, sim.pi_access_indices,
            sim.forced_checkpoints,
        )
        if smap.pi_hazard:
            whole_batch_reason = "pi_hazard"
            sim = None

    batch = BatchResult(
        name=trace.name,
        config_label=config.label(),
        results=[None] * N,
        engines=["batch"] * N,
        reasons=[None] * N,
    )

    needs_scalar: List[int] = list(range(N))
    if sim is not None:
        results, needs_scalar = sim.run_batch()
        batch.results = results
        _BSTATS["batches"] += 1
        _BSTATS["rows_batched"] += N - len(needs_scalar)
        if needs_scalar:
            _count_fallback("row_rerun", len(needs_scalar))
    else:
        _count_fallback(whole_batch_reason, N)

    for r in needs_scalar:
        schedule = schedules.row_schedule(r)
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
            continue
        engine, reason = fast_dispatch.last_dispatch()
        batch.engines[r] = engine
        batch.reasons[r] = reason
    return batch
