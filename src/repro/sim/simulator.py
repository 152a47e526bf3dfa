"""Trace-driven intermittent-execution simulator.

Replays a memory-access trace with power failures, modeling everything the
Clank hardware + compiler-inserted routines do at run time:

* idempotency tracking and Write-back buffering (``repro.core``),
* checkpoints with double-buffered commit semantics — a power failure
  before the commit instant discards the attempt (Section 4.1),
* restart from the last committed checkpoint (re-execution), with the
  start-up routine's Progress Watchdog bookkeeping (Section 4.2),
* the Performance Watchdog (Section 3.1.4),
* the output-commit rule for writes outside physical memory (Section 3.3),
* compiler-marked Program Idempotent accesses the hardware ignores
  (Section 4.3),
* mixed-volatility mode where a volatile range is untracked and instead
  saved incrementally with each checkpoint (Section 7.6).

Every run can execute under dynamic verification (the paper verifies *every
experimental trial* this way): each replayed read must observe exactly the
value the continuous oracle observed, and the final non-volatile state must
equal the oracle's final memory.
"""

from typing import FrozenSet, Optional, Sequence, Tuple

from repro.common.errors import SimulationError, VerificationError
from repro.core.config import ClankConfig
from repro.core.detector import (
    CHECKPOINT,
    CHECKPOINT_THEN_WRITE,
    PROCEED,
    IdempotencyDetector,
)
from repro.core.watchdogs import (
    PerformanceWatchdog,
    ProgressWatchdog,
    optimal_watchdog_value,
)
from repro.obs.analyze import COLLECTOR as ARCH_COLLECTOR, HAZARD_CAUSES
from repro.obs.events import (
    CheckpointAborted,
    CheckpointCommitted,
    OutputCommitted,
    PowerFailure,
    Rollback,
    SectionClosed,
    WatchdogFired,
)
from repro.obs.metrics import (
    FLUSH_BUCKETS,
    MetricsRegistry,
    SECTION_ACCESS_BUCKETS,
    SECTION_CYCLE_BUCKETS,
)
from repro.obs.recorder import Recorder, live_recorder
from repro.power.schedules import PowerSchedule
from repro.runtime.costs import DEFAULT_COST_MODEL, CostModel
from repro.sim.result import SimulationResult
from repro.trace.access import READ
from repro.trace.trace import Trace


class IntermittentSimulator:
    """Simulates one intermittent execution of a trace under Clank.

    Args:
        trace: The memory-access log to replay.
        config: Clank hardware configuration.
        schedule: Power schedule supplying power-on durations; it is
            ``reset()`` at the start of every :meth:`run`.
        cost_model: Cycle costs of the checkpoint/start-up routines.
        perf_watchdog: Performance Watchdog load value in cycles; 0 disables
            it; ``"auto"`` uses the analytic optimum
            (:func:`~repro.core.watchdogs.optimal_watchdog_value`).
        progress_watchdog: Progress Watchdog default load value in cycles;
            0 disables it; ``"auto"`` starts at half the schedule's mean
            on-time (the watchdog then halves itself across checkpoint-free
            power cycles, Section 3.1.4).  Without it, a workload whose
            natural idempotent sections outgrow the on-time distribution
            makes no forward progress — the paper's runt-power-cycle
            failure mode.
        pi_words: Word addresses the compiler marked Program Idempotent —
            the hardware ignores accesses to them (Section 4.3).
        pi_access_indices: Trace indices of individual accesses the
            compiler marked ignorable (the epoch-scoped analysis of
            :mod:`repro.compiler.epoch_analysis` — the paper's future-work
            direction of Section 4.3).
        forced_checkpoints: Trace indices before which the compiler
            inserted an explicit checkpoint call (epoch boundaries).  The
            call re-executes after a rollback, exactly like the real
            inserted routine would.
        volatile_ranges: Half-open word-address ranges of volatile memory
            (mixed-volatility mode); accesses inside are untracked and the
            modified words ride along with each checkpoint.
        verify: Run the dynamic verifier (read-value and final-state
            checks).  Disable only for large design-space sweeps.
        max_power_cycles: Abort threshold; None picks a generous default.
        recorder: Optional event recorder (:mod:`repro.obs`).  When set,
            the run emits typed events (power failures, rollbacks,
            checkpoint commits/aborts, buffer overflows, watchdog firings,
            output commits, section closures) and aggregates metrics into
            :attr:`SimulationResult.metrics`.  ``None`` — or a
            :class:`~repro.obs.recorder.NullRecorder` — adds strictly zero
            work to the per-access hot path.
    """

    def __init__(
        self,
        trace: Trace,
        config: ClankConfig,
        schedule: PowerSchedule,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        perf_watchdog=0,
        progress_watchdog=0,
        pi_words: Optional[FrozenSet[int]] = None,
        pi_access_indices: Optional[FrozenSet[int]] = None,
        forced_checkpoints: Optional[FrozenSet[int]] = None,
        volatile_ranges: Optional[Sequence[Tuple[int, int]]] = None,
        verify: bool = True,
        max_power_cycles: Optional[int] = None,
        progress_watchdog_adaptive: bool = True,
        recorder: Optional[Recorder] = None,
    ):
        self.trace = trace
        self.config = config
        self.schedule = schedule
        self.cost_model = cost_model
        if perf_watchdog == "auto":
            perf_watchdog = optimal_watchdog_value(
                schedule.mean_on_time, cost_model.checkpoint_cycles()
            )
        self.perf_watchdog_load = int(perf_watchdog)
        if progress_watchdog == "auto":
            progress_watchdog = max(100, int(schedule.mean_on_time / 2))
        self.progress_watchdog_load = int(progress_watchdog)
        self.progress_watchdog_adaptive = progress_watchdog_adaptive
        self.pi_words = pi_words or frozenset()
        self.pi_access_indices = pi_access_indices or frozenset()
        self.forced_checkpoints = forced_checkpoints or frozenset()
        self.volatile_ranges = tuple(volatile_ranges or ())
        self.verify = verify
        if max_power_cycles is None:
            expected = trace.total_cycles / max(1.0, schedule.mean_on_time)
            max_power_cycles = int(1000 + 200 * expected)
        self.max_power_cycles = max_power_cycles
        self.recorder = recorder

    # ------------------------------------------------------------------ #

    def _in_volatile(self, waddr: int) -> bool:
        for lo, hi in self.volatile_ranges:
            if lo <= waddr < hi:
                return True
        return False

    def run(self) -> SimulationResult:
        """Execute the trace intermittently and return the accounting.

        Raises:
            VerificationError: A replayed read observed a value different
                from the oracle, or the final state diverged (only with
                ``verify=True``; never happens if Clank is correct).
            SimulationError: No forward progress within
                ``max_power_cycles`` power cycles.
        """
        trace = self.trace
        # Column replay from per-run list copies of the trace's columns:
        # CPython indexes a list about 3x faster than an array, and one
        # copy per run costs less than the indexing it saves.
        ct = trace.compiled()
        n = ct.n
        kinds = ct.kinds.tolist()
        waddrs = ct.waddrs.tolist()
        acc_values = ct.values.tolist()
        acc_cycles = ct.cycles.tolist()
        out_writes = ct.out_writes.tolist()
        mmap = trace.memory_map
        cost = self.cost_model
        verify = self.verify
        schedule = self.schedule
        schedule.reset()

        # Observability: normalize the recorder once so the hot loop only
        # ever checks a cached `rec is not None`; with recording off every
        # emission site below is the untouched original code path.
        rec = live_recorder(self.recorder)
        metrics = MetricsRegistry() if rec is not None else None
        # Architectural introspection (repro.obs.analyze): one flag check
        # per run; None keeps every commit site on its original path.
        arch = ARCH_COLLECTOR.run_accumulator()

        detector = IdempotencyDetector(
            self.config, mmap.text_word_range, recorder=rec
        )
        wbb = detector.wbb
        perf_wdt = PerformanceWatchdog(self.perf_watchdog_load)
        prog_wdt = ProgressWatchdog(
            self.progress_watchdog_load,
            adaptive=self.progress_watchdog_adaptive,
            recorder=rec,
        )

        # Memory state. Volatile words are split out of the NV image.
        has_vol = bool(self.volatile_ranges)
        # Per-access volatile classification, precomputed (and memoized on
        # the compiled trace) so the hot loop does one indexed fetch instead
        # of a per-access range-scan method call.
        vol_mask = ct.volatile_mask(self.volatile_ranges) if has_vol else None
        nv = {}
        vol_base = {}
        for w, v in trace.initial_image.items():
            if has_vol and self._in_volatile(w):
                vol_base[w] = v
            else:
                nv[w] = v
        vol_mem = dict(vol_base)
        vol_snapshot = {}  # modified volatile words as of the last ckpt
        vol_dirty = set()

        pi_words = self.pi_words
        pi_indices = self.pi_access_indices
        forced = self.forced_checkpoints
        forced_done = -1  # index whose compiler checkpoint committed

        # Cycle accounting buckets.
        useful = reexec = wasted = ckpt_cycles = restart_cycles = 0
        ckpt_counts = {}
        power_cycles = 1
        wasted_power_cycles = 0
        outputs = duplicate_outputs = 0
        wbb_flushed = 0

        i = 0  # next access to execute
        ckpt_i = 0  # trace position of the last committed checkpoint
        furthest = 0  # number of accesses ever completed
        output_ready = -1  # index whose output pre-checkpoint committed
        progress_this_cycle = False
        last_commit_t = 0  # consumed-cycle clock at the last commit (recording)

        # --- helpers bound over the local state --------------------------

        def elapsed() -> int:
            """Consumed cycles since the start of the run — the event
            timestamp clock.  Every on-time cycle lands in exactly one
            accounting bucket, so consecutive power-on periods tile this
            timeline without gaps."""
            return useful + reexec + wasted + ckpt_cycles + restart_cycles

        def restart_sequence() -> int:
            """Start a power cycle: sample on-time, run the start-up
            routine (repeating across failures), return remaining
            on-time."""
            nonlocal restart_cycles, power_cycles, wasted_power_cycles
            nonlocal progress_this_cycle
            while True:
                on_left = schedule.next_on_time()
                progress_this_cycle = False
                prog_wdt.on_restart()
                rcost = cost.restart_cycles(len(vol_snapshot) if has_vol else 0)
                if on_left >= rcost:
                    restart_cycles += rcost
                    perf_wdt.reload()
                    return on_left - rcost
                restart_cycles += on_left
                if rec is not None:
                    rec.emit(
                        PowerFailure(
                            t=elapsed(),
                            power_cycle=power_cycles,
                            phase="restart",
                        )
                    )
                    metrics.counter("power_failures").inc()
                power_cycles += 1
                wasted_power_cycles += 1
                if power_cycles > self.max_power_cycles:
                    raise SimulationError(
                        f"{trace.name}: no forward progress after "
                        f"{power_cycles} power cycles (restart cost {rcost} "
                        f"exceeds on-times)"
                    )

        def power_loss() -> int:
            """Volatile state vanishes; resume from the last checkpoint."""
            nonlocal i, power_cycles, wasted_power_cycles, output_ready
            nonlocal vol_mem
            if rec is not None:
                t = elapsed()
                rec.emit(
                    PowerFailure(
                        t=t,
                        power_cycle=power_cycles,
                        index=i,
                        progress=progress_this_cycle,
                    )
                )
                if i != ckpt_i:
                    rec.emit(Rollback(t=t, from_index=i, to_index=ckpt_i))
                    metrics.counter("rollbacks").inc()
                metrics.counter("power_failures").inc()
            if not progress_this_cycle:
                wasted_power_cycles += 1
            power_cycles += 1
            if power_cycles > self.max_power_cycles:
                raise SimulationError(
                    f"{trace.name}: exceeded {self.max_power_cycles} power "
                    f"cycles at trace position {i}/{n}"
                )
            detector.power_fail()
            if has_vol:
                vol_mem = dict(vol_base)
                vol_mem.update(vol_snapshot)
                # Words dirtied by the rolled-back section revert with the
                # volatile memory itself; leaving them marked would inflate
                # the next checkpoint's incremental-save cost.
                vol_dirty.clear()
            i = ckpt_i
            output_ready = -1
            return restart_sequence()

        def do_checkpoint(on_left: int, cause: str):
            """Attempt a checkpoint; returns (success, remaining on-time)."""
            nonlocal ckpt_cycles, wasted, ckpt_i, wbb_flushed
            nonlocal vol_snapshot, progress_this_cycle, last_commit_t
            c = cost.checkpoint_cycles(
                len(wbb), len(vol_dirty) if has_vol else 0
            )
            if on_left < c:
                # Power failed before the commit instant: the double
                # buffering discards the attempt.
                wasted += on_left
                if rec is not None:
                    rec.emit(
                        CheckpointAborted(
                            t=elapsed(),
                            cause=cause,
                            needed_cycles=c,
                            available_cycles=on_left,
                            index=i,
                        )
                    )
                    metrics.counter("checkpoints_aborted").inc()
                return False, power_loss()
            if rec is not None or arch is not None:
                # Commit-instant architectural snapshot, taken before the
                # reset below empties the buffers.  The hazard address is
                # the word whose access tripped the boundary — defined
                # only for the detector-attributed causes.
                occ = detector.occupancy()
                hazard = (
                    waddrs[i] if cause in HAZARD_CAUSES and i < n else None
                )
            flushed = detector.reset_section()
            if flushed:
                nv.update(flushed)
                wbb_flushed += len(flushed)
            if has_vol and vol_dirty:
                for w in vol_dirty:
                    vol_snapshot[w] = vol_mem[w]
                vol_dirty.clear()
            ckpt_cycles += c
            if rec is not None or arch is not None:
                t = elapsed()
                section_cycles = (t - c) - last_commit_t
                if rec is not None:
                    rec.emit(
                        SectionClosed(
                            t=t - c,
                            cause=cause,
                            accesses=i - ckpt_i,
                            cycles=section_cycles,
                            occ_rf=occ["rf"],
                            occ_wf=occ["wf"],
                            occ_wbb=occ["wbb"],
                            occ_apb=occ["apb"],
                            hazard_waddr=hazard,
                        )
                    )
                    rec.emit(
                        CheckpointCommitted(
                            t=t,
                            cause=cause,
                            cycles=c,
                            index=i,
                            flushed_words=len(flushed),
                            power_cycle=power_cycles,
                        )
                    )
                    metrics.counter("checkpoints_committed").inc()
                    metrics.histogram(
                        "section_accesses", SECTION_ACCESS_BUCKETS
                    ).observe(i - ckpt_i)
                    metrics.histogram(
                        "section_cycles", SECTION_CYCLE_BUCKETS
                    ).observe(section_cycles)
                    metrics.histogram(
                        "wbb_flush_words", FLUSH_BUCKETS
                    ).observe(len(flushed))
                if arch is not None:
                    arch.record_commit(
                        cause,
                        (occ["rf"], occ["wf"], occ["wbb"], occ["apb"]),
                        hazard,
                        i - ckpt_i,
                        section_cycles,
                        c,
                    )
                last_commit_t = t
            ckpt_i = i
            ckpt_counts[cause] = ckpt_counts.get(cause, 0) + 1
            perf_wdt.reload()
            prog_wdt.on_checkpoint()
            progress_this_cycle = True
            return True, on_left - c

        # --- main loop ----------------------------------------------------

        on_left = restart_sequence()  # first boot
        nv_get = nv.get
        # Bind the WBB's backing dict directly: drain()/clear() mutate it in
        # place, so the reference stays valid across checkpoints.
        wbb_get = wbb._entries.get
        det_read = detector.on_read
        det_write = detector.on_write
        prog_advance = prog_wdt.advance
        perf_advance = perf_wdt.advance
        # Disabled watchdogs never fire; hoist the checks out of the loop.
        perf_enabled = perf_wdt.load_value > 0
        prog_configured = prog_wdt.configured
        has_pi = bool(pi_words) or bool(pi_indices)

        while True:
            if i >= n:
                ok, on_left = do_checkpoint(on_left, "final")
                if ok:
                    break
                continue

            w = waddrs[i]
            kind = kinds[i]
            c = acc_cycles[i]
            value = acc_values[i]

            if forced and i in forced and forced_done != i:
                # Compiler-inserted checkpoint call (epoch boundary).
                ok, on_left = do_checkpoint(on_left, "compiler")
                if ok:
                    forced_done = i
                else:
                    forced_done = -1
                continue

            if on_left < c:
                wasted += on_left
                forced_done = -1  # the inserted call re-executes on replay
                on_left = power_loss()
                continue

            # Classify the access.
            direct_write = False
            if has_vol and vol_mask[i]:
                # Volatile accesses are untracked; writes ride along with
                # the next checkpoint.
                if kind == READ:
                    if verify and vol_mem.get(w, 0) != value:
                        raise VerificationError(
                            f"{trace.name}@{i}: volatile read of word "
                            f"{w:#x} saw {vol_mem.get(w, 0):#x}, oracle "
                            f"read {value:#x}"
                        )
                else:
                    vol_mem[w] = value
                    vol_dirty.add(w)
                on_left -= c
            elif out_writes[i]:
                # Output-commit: surround the output with checkpoints.
                if output_ready != i:
                    ok, on_left = do_checkpoint(on_left, "output")
                    if ok:
                        output_ready = i
                    continue
                nv[w] = value
                outputs += 1
                if i < furthest:
                    duplicate_outputs += 1
                if rec is not None:
                    rec.emit(
                        OutputCommitted(
                            t=elapsed(), index=i, waddr=w, duplicate=i < furthest
                        )
                    )
                    metrics.counter("outputs").inc()
                on_left -= c
                output_ready = -1
                if i < furthest:
                    reexec += c
                else:
                    useful += c
                    furthest = i + 1
                    progress_this_cycle = True
                i += 1
                ok, on_left = do_checkpoint(on_left, "output")
                continue
            elif has_pi and (w in pi_words or (pi_indices and i in pi_indices)):
                # Compiler-marked Program Idempotent: hardware ignores it.
                if kind == READ:
                    if verify:
                        got = wbb_get(w)
                        if got is None:
                            got = nv_get(w, 0)
                        if got != value:
                            raise VerificationError(
                                f"{trace.name}@{i}: PI read of word {w:#x} "
                                f"saw {got:#x}, oracle read {value:#x}"
                            )
                else:
                    nv[w] = value
                on_left -= c
            else:
                # The tracked path: consult the detector.
                if kind == READ:
                    action, cause = det_read(w)
                else:
                    cur = wbb_get(w)
                    if cur is None:
                        cur = nv_get(w, 0)
                    action, cause = det_write(w, value, cur)
                if action == CHECKPOINT:
                    ok, on_left = do_checkpoint(on_left, cause)
                    continue  # retry the access with fresh buffers
                if action == CHECKPOINT_THEN_WRITE:
                    ok, on_left = do_checkpoint(on_left, cause)
                    if not ok:
                        continue
                    direct_write = True
                    if on_left < c:
                        wasted += on_left
                        on_left = power_loss()
                        continue
                if kind == READ:
                    if verify:
                        got = wbb_get(w)
                        if got is None:
                            got = nv_get(w, 0)
                        if got != value:
                            raise VerificationError(
                                f"{trace.name}@{i}: read of word {w:#x} saw "
                                f"{got:#x}, oracle read {value:#x}"
                            )
                elif action == PROCEED or direct_write:
                    nv[w] = value
                # PROCEED_WBB: the detector already captured the value.
                on_left -= c

            # The access completed.
            if i < furthest:
                reexec += c
            else:
                useful += c
                furthest = i + 1
                progress_this_cycle = True
            i += 1

            # Watchdogs tick at access granularity.
            prog_fired = prog_configured and prog_advance(c)
            perf_fired = perf_enabled and perf_advance(c)
            if prog_fired:
                if rec is not None:
                    rec.emit(
                        WatchdogFired(
                            t=elapsed(),
                            watchdog="progress",
                            index=i,
                            load_value=prog_wdt.nv_load_value,
                        )
                    )
                    metrics.counter("watchdog_fired.progress").inc()
                ok, on_left = do_checkpoint(on_left, "progress_wdt")
            elif perf_fired:
                if rec is not None:
                    rec.emit(
                        WatchdogFired(
                            t=elapsed(),
                            watchdog="performance",
                            index=i,
                            load_value=perf_wdt.load_value,
                        )
                    )
                    metrics.counter("watchdog_fired.performance").inc()
                ok, on_left = do_checkpoint(on_left, "perf_wdt")

        # --- final verification -------------------------------------------
        verified = False
        if verify:
            oracle = trace.final_memory()
            for w, v in oracle.items():
                if has_vol and self._in_volatile(w):
                    got = vol_snapshot.get(w, vol_base.get(w, 0))
                else:
                    got = nv.get(w, 0)
                if got != v:
                    raise VerificationError(
                        f"{trace.name}: final state of word {w:#x} is "
                        f"{got:#x}, oracle has {v:#x}"
                    )
            verified = True

        if arch is not None:
            ARCH_COLLECTOR.fold_run(
                trace.name, self.config.label(), arch, "reference"
            )

        return SimulationResult(
            name=trace.name,
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
            verified=verified,
            completed=True,
            metrics=metrics.to_dict() if metrics is not None else {},
        )


def simulate(
    trace: Trace,
    config: ClankConfig,
    schedule: PowerSchedule,
    **kwargs,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`IntermittentSimulator`."""
    return IntermittentSimulator(trace, config, schedule, **kwargs).run()
