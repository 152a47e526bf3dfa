"""An undo-logging alternative to Clank's volatile redo Write-back Buffer.

Section 8.3 traces the lineage: deterministic-replay systems log *loads*;
ReVive-style recovery logs *stores* (an undo log); Clank and Ratchet log
only the stores that alias prior loads — and Clank stashes them in a
*volatile* buffer so power loss rolls them back for free.

This module implements the nearest architectural alternative, for the
design-space comparison: idempotency-violating writes commit straight to
non-volatile memory, but the *old* value is first appended to a
**non-volatile undo log**.  The trade:

* no checkpoint needed per violation (the log can be main-memory-sized,
  so idempotent sections stretch much further than a small WBB allows);
* but every first violating write costs two extra NV writes at run time,
  and every power failure pays a rollback pass over the log before
  execution can resume (Clank's WBB rollback is free by volatility).

The simulator shares the real :class:`IdempotencyDetector` (configured
without a WBB) and the dynamic-verification discipline of the main
simulator.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.common.errors import SimulationError, VerificationError
from repro.core.config import ClankConfig
from repro.core.detector import (
    CHECKPOINT,
    CHECKPOINT_THEN_WRITE,
    PROCEED,
    IdempotencyDetector,
)
from repro.core.watchdogs import ProgressWatchdog
from repro.power.schedules import PowerSchedule
from repro.runtime.costs import DEFAULT_COST_MODEL, CostModel
from repro.sim.result import SimulationResult
from repro.trace.access import READ
from repro.trace.trace import Trace

#: Cycles to append one (address, old value) tuple to the NV log.
LOG_APPEND_CYCLES = 4
#: Cycles to apply one undo entry during rollback.
LOG_APPLY_CYCLES = 4
#: Cycles to reset the log pointer at a checkpoint.
LOG_RESET_CYCLES = 2


class UndoLogSimulator:
    """Intermittent execution with NV undo logging of violating writes.

    Args:
        trace: Memory-access log to replay.
        config: Buffer composition; the WBB entry count is reinterpreted
            as unused (violations go to the log), and ``log_entries``
            bounds the undo log instead.
        schedule: Power schedule.
        log_entries: Undo-log capacity (entries); overflowing forces a
            checkpoint, like a full WBB does in Clank.
        cost_model: Checkpoint/start-up costs (shared with Clank).
        progress_watchdog: Progress Watchdog default load (0/"auto").
        verify: Dynamic verification against the continuous oracle.
    """

    def __init__(
        self,
        trace: Trace,
        config: ClankConfig,
        schedule: PowerSchedule,
        log_entries: int = 64,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        progress_watchdog=0,
        verify: bool = True,
        max_power_cycles: Optional[int] = None,
    ):
        self.trace = trace
        self.config = config
        self.schedule = schedule
        self.log_entries = log_entries
        self.cost = cost_model
        if progress_watchdog == "auto":
            progress_watchdog = max(100, int(schedule.mean_on_time / 2))
        self.progress_watchdog = int(progress_watchdog)
        self.verify = verify
        if max_power_cycles is None:
            expected = trace.total_cycles / max(1.0, schedule.mean_on_time)
            max_power_cycles = int(1000 + 200 * expected)
        self.max_power_cycles = max_power_cycles

    def run(self) -> SimulationResult:
        """Execute the trace; returns Clank-comparable accounting.

        ``wbb_words_flushed`` reports total undo entries appended.
        """
        trace = self.trace
        # Per-run list copies of the columns, as in the reference simulator.
        kinds, waddrs, values, cycles, outs = (col.tolist() for col in (
            trace.kinds, trace.waddrs, trace.values, trace.cycles, trace.outs))
        n = len(trace)
        cost = self.cost
        verify = self.verify
        schedule = self.schedule
        schedule.reset()
        detector = IdempotencyDetector(self.config, trace.memory_map.text_word_range)
        prog_wdt = ProgressWatchdog(self.progress_watchdog)

        nv: Dict[int, int] = dict(trace.initial_image)
        undo_log: List[Tuple[int, int]] = []  # NV: survives power loss
        logged: Set[int] = set()  # volatile dedup of logged addresses

        useful = reexec = wasted = ckpt_cycles = restart_cycles = 0
        ckpt_counts: Dict[str, int] = {}
        power_cycles = 1
        wasted_power_cycles = 0
        entries_total = 0
        outputs = duplicate_outputs = 0
        i = ckpt_i = furthest = 0
        output_ready = -1
        progress = False

        def restart() -> int:
            nonlocal restart_cycles, power_cycles, wasted_power_cycles, progress
            nonlocal undo_log
            while True:
                on = schedule.next_on_time()
                progress = False
                prog_wdt.on_restart()
                rcost = cost.restart_cycles() + LOG_APPLY_CYCLES * len(undo_log)
                if on >= rcost:
                    # Roll back: apply the undo log in reverse.
                    for waddr, old in reversed(undo_log):
                        nv[waddr] = old
                    undo_log = []
                    restart_cycles += rcost
                    return on - rcost
                restart_cycles += on
                power_cycles += 1
                wasted_power_cycles += 1
                if power_cycles > self.max_power_cycles:
                    raise SimulationError(
                        f"{trace.name}: undo-log restart cannot fit on-times"
                    )

        def power_loss() -> int:
            nonlocal i, power_cycles, wasted_power_cycles, output_ready
            if not progress:
                wasted_power_cycles += 1
            power_cycles += 1
            if power_cycles > self.max_power_cycles:
                raise SimulationError(
                    f"{trace.name}: exceeded power budget at {i}/{n}"
                )
            detector.power_fail()
            logged.clear()
            i = ckpt_i
            output_ready = -1
            return restart()

        def checkpoint(on_left: int, cause: str):
            nonlocal ckpt_cycles, wasted, ckpt_i, progress, undo_log
            c = cost.register_checkpoint_cycles + LOG_RESET_CYCLES
            if on_left < c:
                wasted += on_left
                return False, power_loss()
            # Commit: the logged values are now permanent; drop the log.
            undo_log = []
            logged.clear()
            detector.reset_section()
            ckpt_cycles += c
            ckpt_i = i
            ckpt_counts[cause] = ckpt_counts.get(cause, 0) + 1
            prog_wdt.on_checkpoint()
            progress = True
            return True, on_left - c

        on_left = restart()
        while True:
            if i >= n:
                ok, on_left = checkpoint(on_left, "final")
                if ok:
                    break
                continue
            w = waddrs[i]
            c = cycles[i]
            v = values[i]
            if on_left < c:
                wasted += on_left
                on_left = power_loss()
                continue

            post_output = False
            if outs[i]:
                if output_ready != i:
                    ok, on_left = checkpoint(on_left, "output")
                    if ok:
                        output_ready = i
                    continue
                nv[w] = v
                outputs += 1
                if i < furthest:
                    duplicate_outputs += 1
                output_ready = -1
                on_left -= c
                post_output = True
            elif kinds[i] == READ:
                action, cause = detector.on_read(w)
                if action == CHECKPOINT:
                    ok, on_left = checkpoint(on_left, cause)
                    continue
                if verify and nv.get(w, 0) != v:
                    raise VerificationError(
                        f"{trace.name}@{i}: undo-log read of {w:#x} saw "
                        f"{nv.get(w, 0):#x}, oracle {v:#x}"
                    )
                on_left -= c
            else:
                cur = nv.get(w, 0)
                action, cause = detector.on_write(w, v, cur)
                if action == CHECKPOINT and cause == "violation":
                    # The architectural difference: log the old value to
                    # NV and commit the write in place, no checkpoint.
                    if w not in logged:
                        if len(undo_log) >= self.log_entries:
                            ok, on_left = checkpoint(on_left, "undo_full")
                            continue
                        extra = LOG_APPEND_CYCLES
                        if on_left < c + extra:
                            wasted += on_left
                            on_left = power_loss()
                            continue
                        undo_log.append((w, cur))
                        logged.add(w)
                        entries_total += 1
                        on_left -= extra
                        # Log-append cycles are run-time overhead: book
                        # them as checkpoint-class cycles.
                        ckpt_cycles += extra
                    nv[w] = v
                    on_left -= c
                elif action in (CHECKPOINT, CHECKPOINT_THEN_WRITE):
                    ok, on_left = checkpoint(on_left, cause)
                    if action == CHECKPOINT_THEN_WRITE and ok:
                        if on_left < c:
                            wasted += on_left
                            on_left = power_loss()
                            continue
                        nv[w] = v
                        on_left -= c
                    else:
                        continue
                else:
                    if action == PROCEED:
                        nv[w] = v
                    on_left -= c

            if i < furthest:
                reexec += c
            else:
                useful += c
                furthest = i + 1
                progress = True
            i += 1
            if post_output:
                ok, on_left = checkpoint(on_left, "output")
                continue
            if prog_wdt.advance(c):
                ok, on_left = checkpoint(on_left, "progress_wdt")

        verified = False
        if verify:
            for w, v in trace.final_memory().items():
                if nv.get(w, 0) != v:
                    raise VerificationError(
                        f"{trace.name}: undo-log final {w:#x} = "
                        f"{nv.get(w, 0):#x}, oracle {v:#x}"
                    )
            verified = True

        return SimulationResult(
            name=trace.name,
            config_label=f"undo:{self.config.label()}/log{self.log_entries}",
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
            wbb_words_flushed=entries_total,
            verified=verified,
        )
