"""Section-memoized replay: simulate a power schedule as a section walk.

The reference :class:`~repro.sim.simulator.IntermittentSimulator` replays a
trace access-by-access for every run, re-deriving the same idempotent
sections under every power schedule.  The section walk (``group_walk``
in ``_chainscan.c``, driven by :func:`walk_group`) instead walks the
schedule over the precomputed :class:`~repro.sim.sections.SectionMap`:
within one section attempt the only schedule-dependent questions are
*which access the remaining on-time cannot complete* and *which access a
watchdog fires after*, both a bisection over the trace's cycle prefix
sums.  Useful/re-executed cycles split at the furthest-ever-completed
index by interval arithmetic; the checkpoint's WBB flush size is a
bisection over the section's recorded buffer-growth steps.  The result is
bit-identical to the reference simulator — same cycle buckets,
``checkpoints_by_cause``, power-cycle and output counts, and the same
no-forward-progress error at the same power cycle — at a per-run cost
proportional to the number of *section attempts* rather than the number
of accesses.

The walk models forced checkpoints, PI marking, the output-commit
protocol, text writes, and both watchdogs (including the adaptive
Progress Watchdog's non-volatile halving state machine) exactly.  One
C call (``group_walk``) walks every row of a group, its rows' inputs and
run states in one in-place ``int64`` buffer (:func:`walk_group`).  It
reads the map's flat canonical-chain tables in place and returns to
Python only for off-chain sections (:func:`_resolve`), more schedule
on-times, the direct writes of a section a watchdog cut is decided in
(:func:`_load_dw`, once per section), and — under a live architecture
collector — each commit's record, which :mod:`repro.sim.batch` folds
into the run's statistics.

Eligibility.  A run the walk cannot carry runs on the reference
simulator, with its typed :class:`~repro.obs.telemetry.FallbackReason`:

* no C kernel (``REPRO_CEXT=0`` or no compiler),
* ``verify=True`` (the dynamic verifier checks every read value),
* a live recorder (events fire per access, not per section),
* mixed-volatility ranges (per-checkpoint dirty-word costs),
* the static PI false-write hazard
  (:attr:`~repro.sim.sections.SectionMap.pi_hazard`),
* at run time: a watchdog checkpoint that commits *below* the furthest
  executed index while ignore-false-writes is on AND the stale
  directly-committed value some failed power cycle left ahead of the cut
  would flip the word's next false-write classification (``sw_cut_safe``
  in ``_chainscan.c`` decides this exactly from the section's
  direct-commit writes and the walk's record of failed-cycle reaches),
  or more live failed-cycle reaches than the walk's reach buffer holds.
  The walk marks the row's end code, goes on with the next row, and the
  reference re-runs the schedule afterwards (bit-identical: every
  schedule re-seeds itself on ``reset()``).

Dispatch.  :func:`repro.sim.batch.simulate_batch` is the one dispatcher
between the C walk and :meth:`IntermittentSimulator.run`;
:func:`simulate_fast` is its one-row call, and :func:`last_dispatch`
reports which engine served the most recent one.
"""

from array import array
from bisect import bisect_left

from repro.core.cext import CAUSE_OPEN, WALK_CAUSE_NAMES, _addr
from repro.obs.metrics import COUNTERS
from repro.obs.telemetry import FallbackReason
from repro.power.schedules import ScheduleRow
from repro.sim.result import SimulationResult


# --------------------------------------------------------------------- #
# The C section walk over a group's rows.
# --------------------------------------------------------------------- #

#: ``group_walk`` stop codes and row end codes (``SW_*`` in
#: ``_chainscan.c``).
_SW_NEED_SECTION = 1
_SW_NEED_ONTIMES = 2
_SW_NEED_DW = 3
_SW_REACH_FULL = 4
_SW_STALL = 5
_SW_COMMIT = 6
_SW_CUT_UNSAFE = 7

#: Slots of a row's run state (``ST_*``).
_ST_POS = 4
_ST_PC = 12
_ST_OUT = 24
_ST_NORDER = 28
_ST_COUNTS = 29
_ST_ORDER = 41
_ST_COMMIT = 53
_ST_LEN = 60

#: Slots of a group row (``R_*``): map table, walk parameters, on-time
#: array (a slot of the group's on-time table), end code (-1 while
#: walking), wall-clock nanoseconds from the row's first step to its
#: end, run state.
_R_ON = 2
_R_END = 3
_R_NS = 4
_R_ST = 5
_R_LEN = _R_ST + _ST_LEN

#: A fresh row: walking, ``forced_done = -1``, one power cycle, first boot
#: pending (``PH_RESTART``).
_ROW_INIT = array("q", bytes(8 * _R_LEN))
_ROW_INIT[_R_END] = -1
_ROW_INIT[_R_ST + 3] = -1   # ST_FORCED_DONE
_ROW_INIT[_R_ST + 12] = 1   # ST_PC
_ROW_INIT[_R_ST + 18] = 1   # ST_PHASE

#: Failed-cycle ``(reach, start)`` pairs the walk keeps live.  A group
#: walks one row at a time and a row holds only its live pairs, so every
#: row shares one buffer (one simulating thread per process, like the
#: chain-scan staging buffers).
_REACH_CAP = 256
_REACH = array("q", bytes(16 * _REACH_CAP))
_REACH_ADDR = _addr(_REACH)

#: C walk entries (``group_walk`` calls), and watchdog cuts the walk
#: decided safe, in the process-wide registry.
_CALLS = COUNTERS.counter("walk.calls")
_SAFE_CUTS = COUNTERS.counter("walk.safe_cuts")


def _walk_table(smap) -> array:
    """``smap``'s walk table (``T_*`` slots in ``_chainscan.c``), built
    on the map's first C-walked run.

    The table points at the trace's cycle prefix sums and
    forced-checkpoint mask (shared per trace and forced set), the map's
    flat canonical chain — read in place — its overlay of the off-chain
    sections resolved so far (:func:`_resolve`), and the cut decision's
    buffers (:func:`_load_dw`).  The map holds every buffer the table
    points at, through itself or its compiled trace, for as long as it
    holds the table.
    """
    tab = smap._tab
    if tab is None:
        ct = smap.ct
        gcum, acc = ct.cum_cycles, ct.cycles
        keys, ends, causes, soff, steps = smap._flat
        tab = smap._tab = array("q", (
            _addr(gcum), _addr(acc), ct.n, _addr(ct.forced_mask(smap.forced)),
            _addr(keys), len(keys), _addr(ends), _addr(causes),
            _addr(soff), _addr(steps),
        ) + (0,) * 20)  # the overlay's and the cut decision's slots
    return tab


def _set(tab: array, first: int, values) -> None:
    """Store ``values`` in ``tab`` from slot ``first`` on, in place."""
    for slot, value in enumerate(values, first):
        tab[slot] = value


def _resolve(smap, key: int, perf_load: int) -> None:
    """Add the section at ``key`` to ``smap``'s overlay, with the rest of
    its chain up to where it rejoins the flat canonical chain.

    The overlay is sorted parallel arrays — keys, ends, cause ids, step
    offsets, step counts, steps — that the kernel searches like the
    flat keys, created on the map's first off-chain section.  With the
    Performance Watchdog on, the scan leaves each section open at the
    access that fires it and follows the chain of cuts
    (:meth:`SectionMap.scan_chain`).  A run with a longer watchdog that
    gets past an open section's end rescans it.
    """
    if smap._ov is None:
        smap._ov = (array("q"), array("i"), array("B"), array("q"),
                    array("i"), array("i"))
    okeys, oends, ocauses, osoff, onst, osteps = smap._ov
    for key, end, cid, steps in smap.scan_chain(key >> 2, key & 3, perf_load):
        j = bisect_left(okeys, key)
        if j < len(okeys) and okeys[j] == key:
            if ocauses[j] != CAUSE_OPEN or (
                cid == CAUSE_OPEN and end <= oends[j]
            ):
                continue
            oends[j] = end
            ocauses[j] = cid
            osoff[j] = len(osteps)
            onst[j] = len(steps)
        else:
            okeys.insert(j, key)
            oends.insert(j, end)
            ocauses.insert(j, cid)
            osoff.insert(j, len(osteps))
            onst.insert(j, len(steps))
        osteps.extend(steps)
    _set(smap._tab, 10, (
        _addr(okeys), len(okeys), _addr(oends), _addr(ocauses),
        _addr(osoff), _addr(onst), _addr(osteps),
    ))


def _load_dw(smap, key: int) -> None:
    """Add the direct writes of the section at ``key``
    (:meth:`SectionMap.direct_writes`) to ``smap``'s table for the
    walk's watchdog-cut decision: sorted keys, offsets and counts into
    one flat index array.  The map's first also points the table at the
    trace's cut buffers (:meth:`CompiledTrace.cut_buffers`), its value
    columns and its access-marked PI mask.
    """
    tab = smap._tab
    if smap._dw is None:
        ct = smap.ct
        wids, woff, widx, seen = ct.cut_buffers()
        pi_acc = (ct.pi_mask_buffer(None, smap.pi_indices)
                  if smap.pi_indices else None)
        smap._dw = (array("q"), array("q"), array("i"), array("i"))
        _set(tab, 22, (
            _addr(wids), _addr(woff), _addr(widx), _addr(ct.values),
            _addr(ct.false_writes), _addr(ct.out_writes),
            0 if pi_acc is None else _addr(pi_acc), _addr(seen),
        ))
    keys, off, cnt, idx = smap._dw
    dw = smap.direct_writes(key >> 2, key & 3)
    j = bisect_left(keys, key)
    keys.insert(j, key)
    off.insert(j, len(idx))
    cnt.insert(j, len(dw))
    idx.extend(dw)
    _set(tab, 17, (_addr(keys), len(keys), _addr(off), _addr(cnt),
                   _addr(idx)))


#: ``group_walk``'s cursor over a group's rows, and its count of the
#: watchdog cuts it decided safe.
_HDR = array("q", (0, 0))
_HDR_ADDR = _addr(_HDR)


def walk_group(lib, plans, slots: array, schedules,
               folds=None) -> array:
    """Walk a group's rows to their end codes in one C call (more only
    when a row needs Python); returns the rows (``R_*`` slots).

    Row ``k`` walks ``plans[k]`` — its map, walk parameters, label, and
    the addresses of its map's walk table (:func:`_walk_table`) and of
    its parameters — over ``schedules.arrays[slots[k]]``.  The arrays
    grow in place when a row outruns them.  With ``P_ARCH`` set,
    ``folds[k].commit(rows, st)`` sees each of row ``k``'s commits as it
    lands.
    """
    n = len(plans)
    rows = _ROW_INIT * n
    rows[0::_R_LEN] = array("q", [plan[3] for plan in plans])
    rows[1::_R_LEN] = array("q", [plan[4] for plan in plans])
    rows[_R_ON::_R_LEN] = slots
    arrays = schedules.arrays
    table = array("q", [schedules.columns, *map(_addr, arrays)])
    walk = lib.group_walk
    _HDR[0] = _HDR[1] = 0
    args = (_addr(rows), n, _HDR_ADDR, _REACH_ADDR, _addr(table))
    rc = walk(*args)
    calls = 1
    while rc:
        k = _HDR[0]
        st = k * _R_LEN + _R_ST
        if rc == _SW_NEED_SECTION:  # plans[k][1][4] is P_PERF_LOAD
            _resolve(plans[k][0], rows[st + _ST_OUT], plans[k][1][4])
        elif rc == _SW_NEED_ONTIMES:
            schedules.ensure_columns(max(8, 2 * schedules.columns))
            _set(table, 0, [schedules.columns] + list(map(_addr, arrays)))
        elif rc == _SW_NEED_DW:
            _load_dw(plans[k][0], rows[st + _ST_OUT])
        else:
            folds[k].commit(rows, st)
        rc = walk(*args)
        calls += 1
    _CALLS.inc(calls)
    _SAFE_CUTS.inc(_HDR[1])
    for plan, pos in zip(plans, rows[_R_ST + _ST_POS::_R_LEN]):
        plan[0].walk_draws = pos
    return rows


def row_state(rows: array, k: int) -> array:
    """Row ``k``'s run state (``ST_*`` slots)."""
    return rows[k * _R_LEN + _R_ST:(k + 1) * _R_LEN]


def stall_message(st: array, name: str, prm: array, n: int) -> str:
    """The reference's :class:`~repro.common.errors.SimulationError`
    text for a run the walk ended with ``_SW_STALL``."""
    at = st[_ST_OUT]
    if at < 0:  # in the boot loop; prm[3] is P_RCOST
        return (f"{name}: no forward progress after {st[_ST_PC]} power "
                f"cycles (restart cost {prm[3]} exceeds on-times)")
    # At a power loss; prm[8] is P_MAX_PC.
    return (f"{name}: exceeded {prm[8]} power cycles at trace position "
            f"{at}/{n}")


def walk_result(rows: array, k: int, name: str, label: str,
                baseline: int) -> SimulationResult:
    """The :class:`SimulationResult` of row ``k``, which completed."""
    st = rows[k * _R_LEN + _R_ST:(k + 1) * _R_LEN]
    counts = st[_ST_COUNTS:_ST_COUNTS + 12]
    return SimulationResult(
        name, label, baseline, st[7], st[10], st[11], st[8], st[9],
        {WALK_CAUSE_NAMES[c]: counts[c]
         for c in st[_ST_ORDER:_ST_ORDER + st[_ST_NORDER]]},
        st[12], st[13], st[14], st[15], st[16], False, True, {},
    )


# --------------------------------------------------------------------- #
# Dispatch.
# --------------------------------------------------------------------- #

#: Dispatch counters in the process-wide registry: runs completed on the
#: section walk, and runs handed to the reference simulator broken out
#: by typed reason.
_FAST = COUNTERS.counter("dispatch.fast")
_REASONS = {
    reason.value: COUNTERS.counter("dispatch.reasons." + reason.value)
    for reason in FallbackReason
}

#: (engine, fallback_reason, kernel) of the most recent simulate_fast
#: run, for callers that stamp provenance without sweep context.
_LAST = ("fast", None, "c")


def dispatch_stats() -> dict:
    """Dispatch counts since the last ``COUNTERS.reset()``, with the
    fallback-reason breakdown.

    ``{"fast": int, "fallback": int, "reasons": {reason: int}}`` —
    ``fast`` counts the runs the section walk served, and ``fallback``
    is the sum over reasons.
    """
    reasons = {reason: c.value for reason, c in _REASONS.items()}
    return {
        "fast": _FAST.value,
        "fallback": sum(reasons.values()),
        "reasons": reasons,
    }


def last_dispatch():
    """``(engine, fallback_reason, kernel)`` of the most recent
    :func:`simulate_fast` run.

    ``engine`` is ``"fast"``, ``"reference"`` or ``"stalled"``;
    ``fallback_reason`` the :class:`~repro.obs.telemetry.FallbackReason`
    value of a reference run (else ``None``); ``kernel`` is ``"c"`` for a
    run the section walk served and ``None`` otherwise.
    """
    return _LAST


def simulate_fast(trace, config, schedule, **kwargs) -> SimulationResult:
    """Run on the section walk when eligible, else on the reference
    simulator.

    One run is a one-row :func:`repro.sim.batch.simulate_batch` (the one
    dispatcher) over ``schedule``'s on-times, stamped and counted as a
    scalar run.  The fallback is exact: power schedules fully re-seed on
    ``reset()``, so a rerun consumes the identical on-time sequence.
    """
    global _LAST
    from repro.sim.batch import simulate_batch

    batch = simulate_batch(
        trace, config, ScheduleRow(schedule), engine="fast", **kwargs
    )
    _LAST = (batch.engines[0], batch.reasons[0], batch.kernels[0])
    return batch.results[0]
