"""Section-memoized replay: simulate a power schedule as a section walk.

The reference :class:`~repro.sim.simulator.IntermittentSimulator` replays a
trace access-by-access for every run, re-deriving the same idempotent
sections under every power schedule.  The section walk (``section_walk``
in ``_chainscan.c``, driven by :func:`section_walk`) instead walks the
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
Progress Watchdog's non-volatile halving state machine) exactly.  It
reads the map's flat canonical-chain tables in place and returns to
Python only for off-chain sections (:func:`_resolve`), more schedule
on-times, ``watchdog_cut_safe`` verdicts, and — under a live
architecture collector — each commit's record, which
:mod:`repro.sim.batch` folds into the run's statistics.

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
  would flip the word's next false-write classification
  (:meth:`~repro.sim.sections.SectionMap.watchdog_cut_safe` decides this
  exactly from the section's direct-commit writes and the walk's record
  of failed-cycle reaches), or more live failed-cycle reaches than the
  walk's reach buffer holds.  The reference then re-runs the schedule
  (bit-identical: every schedule re-seeds itself on ``reset()``).

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
# The C section walk over a map's tables.
# --------------------------------------------------------------------- #

#: ``section_walk`` stop codes (``SW_*`` in ``_chainscan.c``).
_SW_NEED_SECTION = 1
_SW_NEED_ONTIMES = 2
_SW_NEED_CUT = 3
_SW_REACH_FULL = 4
_SW_STALL = 5
_SW_COMMIT = 6

#: Slots of ``section_walk``'s run-state array (``ST_*``).
_ST_POS = 4
_ST_PC = 12
_ST_NREACH = 17
_ST_OUT = 24
_ST_NORDER = 28
_ST_COUNTS = 29
_ST_ORDER = 41
_ST_COMMIT = 53

#: How a reported commit was made (``CM_*``), when not at its section's
#: boundary: a watchdog cut inside the section, or an output's
#: post-checkpoint.
_CM_CUT = 0
_CM_POST = 2

#: A fresh run: ``forced_done = -1``, one power cycle, first boot pending
#: (``PH_RESTART``).
_ST_INIT = array("q", bytes(8 * (_ST_COMMIT + 7)))
_ST_INIT[3] = -1   # ST_FORCED_DONE
_ST_INIT[12] = 1   # ST_PC
_ST_INIT[18] = 1   # ST_PHASE

#: Failed-cycle ``(reach, start)`` pairs the walk keeps live.  A run holds
#: only its live pairs, so every run shares one buffer (one simulating
#: thread per process, like the chain-scan staging buffers).
_REACH_CAP = 256
_REACH = array("q", bytes(16 * _REACH_CAP))


def _walk_table(smap) -> array:
    """``smap``'s ``section_walk`` table (``T_*`` slots in
    ``_chainscan.c``), built on the map's first C-walked run.

    The table points at the trace's cycle prefix sums and
    forced-checkpoint mask (shared per trace and forced set), the map's
    flat canonical chain — read in place — and its overlay of the
    off-chain sections resolved so far (:func:`_resolve`).  The map
    holds every buffer the table points at, through itself or its
    compiled trace, for as long as it holds the table.
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
            0, 0, 0, 0, 0, 0, 0,
        ))
    return tab


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
    tab = smap._tab
    for slot, value in enumerate((
        _addr(okeys), len(okeys), _addr(oends), _addr(ocauses),
        _addr(osoff), _addr(onst), _addr(osteps),
    ), 10):
        tab[slot] = value


def section_walk(smap, lib, prm: array, ontimes: array, more,
                 st: array, commit=None) -> int:
    """Walk one schedule over ``smap`` in the C kernel, state in ``st``
    (from :data:`_ST_INIT`).

    Start ``ontimes`` with ``smap.walk_draws`` draws; ``more()`` must
    grow it in place.  With ``P_ARCH`` set in ``prm``, ``commit(st)``
    sees each commit's record (``st[_ST_COMMIT:]``) as it lands.
    Returns 0 when the run completed, ``_SW_STALL`` where the reference
    raises its no-forward-progress error (:func:`stall_message`),
    ``_SW_NEED_CUT`` for a watchdog cut ``watchdog_cut_safe`` rejects,
    or ``_SW_REACH_FULL`` when the live failed-cycle reaches outgrow
    their buffer.
    """
    fn = lib.section_walk
    tab = _addr(_walk_table(smap))
    prm_a = _addr(prm)
    st_a = _addr(st)
    reach_a = _addr(_REACH)
    cut_ok = -1
    while True:
        rc = fn(tab, prm_a, _addr(ontimes), len(ontimes), cut_ok, st_a,
                reach_a)
        cut_ok = -1
        if rc == _SW_NEED_SECTION:
            _resolve(smap, st[_ST_OUT], prm[4])
        elif rc == _SW_NEED_ONTIMES:
            more()
        elif rc == _SW_NEED_CUT:
            r = _REACH
            reaches = [(r[2 * k], r[2 * k + 1])
                       for k in range(st[_ST_NREACH])]
            o = _ST_OUT
            if not smap.watchdog_cut_safe(
                st[o], st[o + 1], st[o + 2], st[o + 3], reaches
            ):
                return rc
            cut_ok = 1
        elif rc == _SW_COMMIT:
            commit(st)
        else:
            smap.walk_draws = st[_ST_POS]
            return rc


def stall_message(st: array, name: str, prm: array, n: int) -> str:
    """The reference's :class:`~repro.common.errors.SimulationError`
    text for a run the walk stopped with ``_SW_STALL``."""
    at = st[_ST_OUT]
    if at < 0:  # in the boot loop; prm[3] is P_RCOST
        return (f"{name}: no forward progress after {st[_ST_PC]} power "
                f"cycles (restart cost {prm[3]} exceeds on-times)")
    # At a power loss; prm[8] is P_MAX_PC.
    return (f"{name}: exceeded {prm[8]} power cycles at trace position "
            f"{at}/{n}")


def walk_result(st: array, name: str, label: str,
                baseline: int) -> SimulationResult:
    """The :class:`SimulationResult` of a completed run's state."""
    order = st[_ST_ORDER:_ST_ORDER + st[_ST_NORDER]]
    return SimulationResult(
        name=name,
        config_label=label,
        baseline_cycles=baseline,
        useful_cycles=st[7],
        checkpoint_cycles=st[10],
        restart_cycles=st[11],
        reexec_cycles=st[8],
        wasted_cycles=st[9],
        checkpoints_by_cause={
            WALK_CAUSE_NAMES[c]: st[_ST_COUNTS + c] for c in order
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
