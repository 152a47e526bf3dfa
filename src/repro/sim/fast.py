"""Section-memoized replay: simulate a power schedule as a section walk.

The reference :class:`~repro.sim.simulator.IntermittentSimulator` replays a
trace access-by-access for every run, re-deriving the same idempotent
sections under every power schedule.  :class:`FastReplaySimulator` instead
walks the schedule over the precomputed
:class:`~repro.sim.sections.SectionMap`: within one section attempt the
only schedule-dependent questions are *which access the remaining on-time
cannot complete* and *which access a watchdog fires after*, and both are a
``bisect`` over the trace's cycle prefix sums.  Useful/re-executed cycles
split at the furthest-ever-completed index by interval arithmetic; the
checkpoint's WBB flush size is a ``bisect`` over the section's recorded
buffer-growth steps.  The result is bit-identical to the reference
simulator — same cycle buckets, ``checkpoints_by_cause``, power-cycle and
output counts — at a per-run cost proportional to the number of *section
attempts* rather than the number of accesses.

Eligibility.  The fast path models forced checkpoints, PI marking, the
output-commit protocol, text writes, and both watchdogs (including the
adaptive Progress Watchdog's non-volatile halving state machine) exactly.
It refuses — by raising :class:`FastPathIneligible`, which
:func:`simulate_fast` turns into a reference-simulator rerun — when a run
needs state the section walk does not carry:

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
  exactly from the section's direct-commit writes — derived lazily for
  just the sections such cuts actually hit — and the walker's record of
  failed-cycle reaches) — the walk then aborts and the reference
  simulator re-runs the schedule (bit-identical: every schedule re-seeds
  itself on ``reset()``).

Walkers.  When the C kernel is loaded (:mod:`repro.core.cext`) and the
architecture collector is off, a run walks as ``section_walk`` in
``_chainscan.c`` (:func:`section_walk`), which reads the map's flat
canonical-chain tables in place and returns to Python only for off-chain
sections, more schedule on-times and ``watchdog_cut_safe`` verdicts.
:meth:`FastReplaySimulator.run` is the same walk in Python: the engine
without a kernel, the engine that feeds the architecture collector, and
the oracle the C walk is pinned against (``run_c`` drives the C walk
alone for that).

Dispatch.  :func:`repro.sim.batch.simulate_batch` is the one dispatcher
among the C walk, the Python walker and :meth:`IntermittentSimulator.run`;
:func:`simulate_fast` is its one-row call, and :func:`last_dispatch`
reports which engine served the most recent one.
"""

from array import array
from bisect import bisect_left, bisect_right
from typing import Optional

from repro.common.errors import SimulationError
from repro.core import cext
from repro.core.cext import CAUSE_OPEN, WALK_CAUSE_NAMES, _addr
from repro.obs.analyze import COLLECTOR as ARCH_COLLECTOR, HAZARD_CAUSES
from repro.obs.metrics import COUNTERS
from repro.obs.recorder import live_recorder
from repro.obs.telemetry import FallbackReason
from repro.power.schedules import ScheduleRow
from repro.sim.result import SimulationResult
from repro.sim.sections import (
    SEC_DETECTOR,
    SEC_FINAL,
    SEC_FORCED,
    SEC_OUTPUT,
    SEC_TEXT,
    VARIANT_DIRECT,
    VARIANT_FORCED_DONE,
    VARIANT_NORMAL,
    get_section_map,
)
from repro.sim.simulator import IntermittentSimulator


class FastPathIneligible(Exception):
    """This run needs the reference simulator (see module docstring).

    Carries the typed :class:`~repro.obs.telemetry.FallbackReason` so the
    dispatch point can count *why* — not just *that* — a run fell back.
    """

    def __init__(self, reason: FallbackReason, detail: str = ""):
        self.reason = reason
        super().__init__(detail or reason.value)


class FastReplaySimulator(IntermittentSimulator):
    """Drop-in :class:`IntermittentSimulator` running the section walk.

    Construction is identical to the reference simulator (it *is* the
    reference ``__init__``: same ``"auto"`` watchdog resolution, same
    ``max_power_cycles`` default).  :meth:`run` raises
    :class:`FastPathIneligible` instead of silently degrading; use
    :func:`simulate_fast` for transparent fallback.
    """

    def _section_map(self, config=None):
        """The SectionMap of ``config`` (default: the run's own) over the
        run's trace and marking, once the eligibility checks pass."""
        if self.verify:
            raise FastPathIneligible(
                FallbackReason.VERIFY,
                "dynamic verification replays per access",
            )
        if live_recorder(self.recorder) is not None:
            raise FastPathIneligible(
                FallbackReason.LIVE_RECORDER,
                "event recording replays per access",
            )
        if self.volatile_ranges:
            raise FastPathIneligible(
                FallbackReason.VOLATILE_RANGES,
                "mixed-volatility is not section-memoized",
            )
        smap = get_section_map(
            self.trace,
            config or self.config,
            self.pi_words,
            self.pi_access_indices,
            self.forced_checkpoints,
        )
        if smap.pi_hazard:
            raise FastPathIneligible(
                FallbackReason.PI_HAZARD,
                "access-marked PI writes alias tracked writes under "
                "ignore-false-writes",
            )
        return smap

    def _walk_params(self, config=None) -> array:
        """The C walk's parameters (``P_*`` in ``_chainscan.c``) for
        ``config`` (default: the run's own)."""
        cost = self.cost_model
        config = config or self.config
        return array("q", (
            cost.register_checkpoint_cycles, cost.wbb_flush_base_cycles,
            cost.wbb_entry_flush_cycles, cost.restart_cycles(0),
            self.perf_watchdog_load, self.progress_watchdog_load,
            1 if self.progress_watchdog_adaptive else 0,
            1 if config.optimizations.ignore_false_writes else 0,
            self.max_power_cycles, _REACH_CAP,
        ))

    def run_c(self, lib) -> Optional[SimulationResult]:
        """The section walk in the C kernel (``section_walk``).

        Raises :class:`FastPathIneligible` exactly where :meth:`run`
        does.  Returns ``None`` when :meth:`run` must replay the run
        instead — a ``max_power_cycles`` abort or a reach-buffer
        overflow, both of which the Python walker reproduces exactly.
        """
        smap = self._section_map()
        # Start from the on-time count the map's previous run consumed.
        draws = ScheduleRow(self.schedule)
        draws.ensure_columns(smap.walk_draws)
        st = array("q", _ST_INIT)
        rc = section_walk(
            smap, lib, self._walk_params(), draws.ontimes[0],
            lambda: draws.ensure_columns(max(8, 2 * draws.columns)), st,
        )
        if rc == _SW_NEED_CUT:
            raise FastPathIneligible(
                FallbackReason.WATCHDOG_CUT,
                "watchdog checkpoint below the furthest executed index "
                "with ignore-false-writes",
            )
        if rc:
            return None
        trace = self.trace
        return walk_result(
            st, trace.name, self.config.label(), trace.total_cycles
        )

    def run(self) -> SimulationResult:
        """The section walk in Python (no kernel, or the architecture
        collector is on; the C walk's oracle)."""
        smap = self._section_map()
        trace = self.trace
        ct = smap.ct
        n = ct.n
        gcum = ct.cum_cycles
        acc_cycles = ct.cycles
        cost = self.cost_model
        base_ck = cost.register_checkpoint_cycles
        flush_base = cost.wbb_flush_base_cycles
        per_entry = cost.wbb_entry_flush_cycles
        rcost = cost.restart_cycles(0)
        schedule = self.schedule
        schedule.reset()
        next_on = schedule.next_on_time
        secs_get = smap._sections.get
        section_of = smap.section
        cut_safe = smap.watchdog_cut_safe
        forced = smap.forced
        max_pc = self.max_power_cycles
        name = trace.name
        ig_fw = self.config.optimizations.ignore_false_writes

        # Architectural introspection (repro.obs.analyze): one flag check
        # per run.  When enabled, each *commit* (never each access) does
        # bisect arithmetic over the section's memoized growth steps —
        # the schedule-independent stats ride the section walk for free.
        arch = ARCH_COLLECTOR.run_accumulator()
        if arch is not None:
            arch_stats = smap.arch_stats
            arch_waddrs = ct.waddrs
            rm_dup = self.config.optimizations.remove_duplicates
            arch_last = [0]  # cycles elapsed at the previous commit
            record_commit = arch.record_commit
            record_section = arch.record_section

            def arch_commit(cause, s, variant, cut, nwbb, nsteps, addr,
                            span, e, c):
                """Record a commit of section ``(s, variant)`` cut before
                access ``cut`` (``None``: the whole section), ``e``
                cycles into the run."""
                rf_s, wf_s, apb_s, rf_peak = arch_stats(s, variant)
                if cut is None:
                    nrf, nwf, napb = len(rf_s), len(wf_s), len(apb_s)
                else:
                    nrf = bisect_left(rf_s, cut)
                    nwf = bisect_left(wf_s, cut)
                    napb = bisect_left(apb_s, cut)
                record_commit(
                    cause, (nrf - (nwbb if rm_dup else 0), nwf, nwbb, napb),
                    addr, span, (e - c) - arch_last[0], c,
                )
                record_section((s << 2) | variant,
                               (rf_peak, len(wf_s), nsteps, len(apb_s)))
                arch_last[0] = e

        perf_load = self.perf_watchdog_load
        perf_on = perf_load > 0
        prog_default = self.progress_watchdog_load
        prog_configured = prog_default > 0
        prog_adaptive = self.progress_watchdog_adaptive
        # The Progress Watchdog's non-volatile state (Section 4.2).
        prog_nv_load = 0
        prog_no_ckpt = False
        prog_enabled = False
        prog_remaining = 0

        useful = reexec = wasted = ckpt_cycles = restart_cycles = 0
        ckpt_counts = {}
        power_cycles = 1
        wasted_power_cycles = 0
        outputs = duplicate_outputs = 0
        wbb_flushed = 0
        furthest = 0  # number of accesses ever completed
        progress = False  # any commit / new furthest this power cycle
        forced_done = -1  # index whose compiler checkpoint committed
        direct = False  # next section starts with a direct text write
        i = 0  # trace position of the last committed checkpoint
        # Failed power cycles that got past their committed start, as
        # time-ordered (reach, section_start) pairs: exactly the state
        # watchdog_cut_safe needs to resolve each stale word's surviving
        # value.  Only consulted under ignore-false-writes; a same-start
        # entry at or below a new reach replays the identical prefix and
        # is fully shadowed by it, so it is popped on append.
        reaches = []

        # --- helpers (mirroring the reference simulator exactly) ----------

        def restart_sequence() -> int:
            nonlocal restart_cycles, power_cycles, wasted_power_cycles
            nonlocal progress, prog_enabled, prog_nv_load, prog_no_ckpt
            nonlocal prog_remaining
            while True:
                on_left = next_on()
                progress = False
                prog_enabled = False
                if prog_configured:
                    if not prog_no_ckpt:
                        prog_no_ckpt = True
                    else:
                        if prog_nv_load > 0 and prog_adaptive:
                            prog_nv_load = max(1, prog_nv_load // 2)
                        elif prog_nv_load == 0:
                            prog_nv_load = prog_default
                        prog_enabled = True
                        prog_remaining = prog_nv_load
                if on_left >= rcost:
                    restart_cycles += rcost
                    return on_left - rcost
                restart_cycles += on_left
                power_cycles += 1
                wasted_power_cycles += 1
                if power_cycles > max_pc:
                    raise SimulationError(
                        f"{name}: no forward progress after "
                        f"{power_cycles} power cycles (restart cost {rcost} "
                        f"exceeds on-times)"
                    )

        def power_loss(at_i: int) -> int:
            nonlocal power_cycles, wasted_power_cycles
            if ig_fw and at_i > i:
                while reaches and reaches[-1][1] == i and reaches[-1][0] <= at_i:
                    reaches.pop()
                reaches.append((at_i, i))
                if len(reaches) > 64:
                    reaches[:] = [e for e in reaches if e[0] > i]
            if not progress:
                wasted_power_cycles += 1
            power_cycles += 1
            if power_cycles > max_pc:
                raise SimulationError(
                    f"{name}: exceeded {max_pc} power "
                    f"cycles at trace position {at_i}/{n}"
                )
            return restart_sequence()

        # --- section walk -------------------------------------------------
        # Accounting of executed spans (split at ``furthest``) and commits
        # is inlined below rather than in helpers: both happen exactly once
        # per section attempt, and for small-buffer configurations whose
        # sections span a handful of accesses the two closure calls were
        # the walker's single largest cost.

        ckpt_get = ckpt_counts.get
        on_left = restart_sequence()  # first boot
        while True:
            s = i
            if direct:
                variant = VARIANT_DIRECT
            elif forced_done == s and s in forced:
                variant = VARIANT_FORCED_DONE
            else:
                variant = VARIANT_NORMAL
            sec = secs_get((s << 2) | variant)
            if sec is None:
                sec = section_of(s, variant)
            end, cause, kind, steps = sec
            base = gcum[s]

            # Watchdog firing inside the span [s, end): the earliest access
            # m whose completion expires a timer (ties: progress wins, as in
            # the reference's if/elif).
            fire_m = -1
            fire_cause = ""
            if prog_enabled:
                j = bisect_left(gcum, base + prog_remaining, s + 1, end + 1)
                if j <= end:
                    fire_m = j - 1
                    fire_cause = "progress_wdt"
            if perf_on:
                j = bisect_left(gcum, base + perf_load, s + 1, end + 1)
                if j <= end and (fire_m < 0 or j - 1 < fire_m):
                    fire_m = j - 1
                    fire_cause = "perf_wdt"

            # First span access the on-time cannot complete (power fails
            # mid-access).  A same-index watchdog firing loses: it needs the
            # access to have completed.
            u = bisect_right(gcum, base + on_left, s + 1, end + 1)
            if u <= end and (fire_m < 0 or u - 1 <= fire_m):
                mf = u - 1
                if mf <= furthest:
                    reexec += gcum[mf] - base
                elif s >= furthest:
                    useful += gcum[mf] - base
                    furthest = mf
                    progress = True
                else:
                    reexec += gcum[furthest] - base
                    useful += gcum[mf] - gcum[furthest]
                    furthest = mf
                    progress = True
                wasted += on_left - (gcum[mf] - base)
                if not (direct and mf == s):
                    # The compiler-inserted call re-executes on replay; the
                    # direct text write (first access after its checkpoint)
                    # is the one failure site that keeps the latch.
                    forced_done = -1
                on_left = power_loss(mf)
                direct = False
                continue

            if fire_m >= 0:
                m1 = fire_m + 1
                if m1 <= furthest:
                    reexec += gcum[m1] - base
                elif s >= furthest:
                    useful += gcum[m1] - base
                    furthest = m1
                    progress = True
                else:
                    reexec += gcum[furthest] - base
                    useful += gcum[m1] - gcum[furthest]
                    furthest = m1
                    progress = True
                on_left -= gcum[m1] - base
                nwbb = bisect_left(steps, m1)
                c = base_ck + (flush_base + nwbb * per_entry if nwbb else 0)
                if on_left < c:
                    wasted += on_left
                    on_left = power_loss(m1)
                    direct = False
                    continue
                if (
                    ig_fw
                    and furthest > m1
                    and not cut_safe(s, variant, m1, furthest, reaches)
                ):
                    # Stale-view hazard: this checkpoint lands inside a span
                    # an earlier power cycle executed past, and the stale
                    # directly-committed value would flip a false-write
                    # classification on re-execution.  Only the reference's
                    # live memory view decides those; hand the whole run
                    # back to it.
                    raise FastPathIneligible(
                        FallbackReason.WATCHDOG_CUT,
                        "watchdog checkpoint below the furthest executed "
                        "index with ignore-false-writes",
                    )
                on_left -= c
                ckpt_cycles += c
                wbb_flushed += nwbb
                ckpt_counts[fire_cause] = ckpt_get(fire_cause, 0) + 1
                if arch is not None:
                    arch_commit(fire_cause, s, variant, m1, nwbb, len(steps),
                                None, m1 - s, useful + reexec + wasted
                                + ckpt_cycles + restart_cycles, c)
                if prog_configured:
                    prog_enabled = False
                    prog_nv_load = 0
                    prog_no_ckpt = False
                progress = True
                i = m1
                direct = False
                continue

            # The whole span executes; handle the boundary.
            if end <= furthest:
                reexec += gcum[end] - base
            elif s >= furthest:
                useful += gcum[end] - base
                furthest = end
                progress = True
            else:
                reexec += gcum[furthest] - base
                useful += gcum[end] - gcum[furthest]
                furthest = end
                progress = True
            on_left -= gcum[end] - base

            if kind == SEC_DETECTOR or kind == SEC_TEXT or kind == SEC_OUTPUT:
                # The boundary access is fetched first — power can fail on
                # the access itself before the checkpoint is attempted (the
                # reference's pre-classification affordability check).
                ce = acc_cycles[end]
                if on_left < ce:
                    wasted += on_left
                    forced_done = -1
                    on_left = power_loss(end)
                    direct = False
                    continue
                nwbb = len(steps)
                c = base_ck + (flush_base + nwbb * per_entry if nwbb else 0)
                if on_left < c:
                    wasted += on_left
                    on_left = power_loss(end)
                    direct = False
                    continue
                on_left -= c
                ckpt_cycles += c
                wbb_flushed += nwbb
                ckpt_counts[cause] = ckpt_get(cause, 0) + 1
                if arch is not None:
                    arch_commit(cause, s, variant, None, nwbb, nwbb,
                                arch_waddrs[end] if cause in HAZARD_CAUSES
                                else None, end - s, useful + reexec + wasted
                                + ckpt_cycles + restart_cycles, c)
                if prog_configured:
                    prog_enabled = False
                    prog_nv_load = 0
                    prog_no_ckpt = False
                progress = True
                i = end

                if kind == SEC_DETECTOR:
                    direct = False
                    continue
                if kind == SEC_TEXT:
                    # The text write commits directly as the first access of
                    # the next section (scanned from end+1); its failure
                    # semantics — forced_done survives — ride on the direct
                    # flag.
                    direct = True
                    continue

                # SEC_OUTPUT: the GO phase.  The output access executes
                # between its two checkpoints and never ticks the watchdogs;
                # any power loss forgets the pre-checkpoint (output_ready is
                # volatile), so a retry re-runs the whole protocol from the
                # committed start.
                direct = False
                if on_left < ce:
                    wasted += on_left
                    forced_done = -1
                    on_left = power_loss(end)
                    continue
                on_left -= ce
                outputs += 1
                if end < furthest:
                    duplicate_outputs += 1
                    reexec += ce
                else:
                    useful += ce
                    furthest = end + 1
                    progress = True
                if on_left < base_ck:
                    wasted += on_left
                    on_left = power_loss(end + 1)
                    continue
                on_left -= base_ck
                ckpt_cycles += base_ck
                ckpt_counts["output"] = ckpt_get("output", 0) + 1
                if arch is not None:
                    # GO-phase post-commit: the buffers were reset by the
                    # pre-checkpoint and the output bypasses the detector.
                    e = useful + reexec + wasted + ckpt_cycles + restart_cycles
                    arch.record_commit(
                        "output", (0, 0, 0, 0), None, 1,
                        (e - base_ck) - arch_last[0], base_ck,
                    )
                    arch_last[0] = e
                if prog_configured:
                    prog_enabled = False
                    prog_nv_load = 0
                    prog_no_ckpt = False
                progress = True
                i = end + 1
                continue

            if kind == SEC_FORCED:
                nwbb = len(steps)
                c = base_ck + (flush_base + nwbb * per_entry if nwbb else 0)
                if on_left < c:
                    wasted += on_left
                    forced_done = -1
                    on_left = power_loss(end)
                    direct = False
                    continue
                on_left -= c
                ckpt_cycles += c
                wbb_flushed += nwbb
                ckpt_counts[cause] = ckpt_get(cause, 0) + 1
                if arch is not None:
                    arch_commit(cause, s, variant, None, nwbb, nwbb, None,
                                end - s, useful + reexec + wasted
                                + ckpt_cycles + restart_cycles, c)
                if prog_configured:
                    prog_enabled = False
                    prog_nv_load = 0
                    prog_no_ckpt = False
                progress = True
                forced_done = end
                i = end
                direct = False
                continue

            # SEC_FINAL.
            nwbb = len(steps)
            c = base_ck + (flush_base + nwbb * per_entry if nwbb else 0)
            if on_left < c:
                wasted += on_left
                on_left = power_loss(n)
                direct = False
                continue
            on_left -= c
            ckpt_cycles += c
            wbb_flushed += nwbb
            ckpt_counts[cause] = ckpt_get(cause, 0) + 1
            if arch is not None:
                arch_commit(cause, s, variant, None, nwbb, nwbb, None, n - s,
                            useful + reexec + wasted + ckpt_cycles
                            + restart_cycles, c)
            if prog_configured:
                prog_enabled = False
                prog_nv_load = 0
                prog_no_ckpt = False
            break

        if arch is not None:
            ARCH_COLLECTOR.fold_run(name, self.config.label(), arch, "fast")

        return SimulationResult(
            name=name,
            config_label=self.config.label(),
            baseline_cycles=trace.total_cycles,
            useful_cycles=useful,
            checkpoint_cycles=ckpt_cycles,
            restart_cycles=restart_cycles,
            reexec_cycles=reexec,
            wasted_cycles=wasted,
            checkpoints_by_cause=ckpt_counts,
            power_cycles=power_cycles,
            wasted_power_cycles=wasted_power_cycles,
            outputs=outputs,
            duplicate_outputs=duplicate_outputs,
            wbb_words_flushed=wbb_flushed,
            verified=False,
            completed=True,
            metrics={},
        )


# --------------------------------------------------------------------- #
# The C section walk over a map's tables.
# --------------------------------------------------------------------- #

#: ``section_walk`` stop codes (``SW_*`` in ``_chainscan.c``).
_SW_NEED_SECTION = 1
_SW_NEED_ONTIMES = 2
_SW_NEED_CUT = 3

#: Slots of ``section_walk``'s run-state array (``ST_*``).
_ST_POS = 4
_ST_NREACH = 17
_ST_OUT = 24
_ST_NORDER = 28
_ST_COUNTS = 29
_ST_ORDER = 41

#: A fresh run: ``forced_done = -1``, one power cycle, first boot pending
#: (``PH_RESTART``).
_ST_INIT = array("q", bytes(8 * (_ST_ORDER + len(WALK_CAUSE_NAMES))))
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
        smap.ensure_flat()
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
                 st: array) -> int:
    """Walk one schedule over ``smap`` in the C kernel, state in ``st``
    (from :data:`_ST_INIT`).

    Start ``ontimes`` with ``smap.walk_draws`` draws; ``more()`` must
    grow it in place.  Returns 0 when the run completed,
    ``_SW_NEED_CUT`` for a watchdog cut ``watchdog_cut_safe`` rejects,
    or ``SW_FALLBACK`` (4) for a run the Python walker must replay.
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
        else:
            smap.walk_draws = st[_ST_POS]
            return rc


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
#: section walk (``c_walk`` of them by the C walk), and runs handed to the
#: reference simulator broken out by typed reason.
_FAST = COUNTERS.counter("dispatch.fast")
_C_WALK = COUNTERS.counter("dispatch.c_walk")
_REASONS = {
    reason.value: COUNTERS.counter("dispatch.reasons." + reason.value)
    for reason in FallbackReason
}

#: (engine, fallback_reason, walker) of the most recent simulate_fast
#: run, for callers that stamp provenance without sweep context.
_LAST = ("fast", None, "python")


def dispatch_stats() -> dict:
    """Dispatch counts since the last ``COUNTERS.reset()``, with the
    fallback-reason breakdown.

    ``{"fast": int, "c_walk": int, "fallback": int, "reasons": {reason:
    int}}`` — ``c_walk`` counts the ``fast`` runs the C walk served, and
    ``fallback`` is the sum over reasons.
    """
    reasons = {reason: c.value for reason, c in _REASONS.items()}
    return {
        "fast": _FAST.value,
        "c_walk": _C_WALK.value,
        "fallback": sum(reasons.values()),
        "reasons": reasons,
    }


def last_dispatch():
    """``(engine, fallback_reason, kernel)`` of the most recent
    :func:`simulate_fast` run.

    ``engine`` is ``"fast"`` or ``"reference"``; ``fallback_reason`` the
    :class:`~repro.obs.telemetry.FallbackReason` value of a reference
    run (else ``None``); ``kernel`` the walker that served a fast run —
    ``"c"`` (the C walk) or ``"python"``
    (:meth:`FastReplaySimulator.run`) — and ``None`` for a reference run.
    """
    return _LAST


def simulate_fast(trace, config, schedule, **kwargs) -> SimulationResult:
    """Run on the fast path when eligible, else on the reference simulator.

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
