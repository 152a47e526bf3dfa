"""Implementations of the prior-approach models (see package docstring)."""

from dataclasses import dataclass
from typing import Set

from repro.common.errors import SimulationError
from repro.power.schedules import PowerSchedule
from repro.trace.access import WRITE
from repro.trace.trace import Trace

#: Cycles to write one word to non-volatile memory (as in repro.runtime).
_NV_WORD = 2


@dataclass
class BaselineResult:
    """Overheads of a baseline system on one trace.

    Attributes:
        name: System name.
        trace_name: Workload name.
        baseline_cycles: Continuous-execution cycles.
        checkpoint_cycles: Cycles spent saving state.
        restore_cycles: Cycles spent restoring state at boot.
        reexec_cycles: Re-executed + power-truncated cycles.
        energy_fraction: Added energy drain of the approach's hardware use
            (ADC/comparator polling), as a fraction of useful energy.
        checkpoints: Checkpoints taken.
        power_cycles: Power-on periods consumed.
    """

    name: str
    trace_name: str
    baseline_cycles: int
    checkpoint_cycles: int = 0
    restore_cycles: int = 0
    reexec_cycles: int = 0
    energy_fraction: float = 0.0
    checkpoints: int = 0
    power_cycles: int = 1

    @property
    def run_time_overhead(self) -> float:
        """Software overhead as a fraction of baseline."""
        return (
            self.checkpoint_cycles + self.restore_cycles + self.reexec_cycles
        ) / self.baseline_cycles

    @property
    def total_overhead(self) -> float:
        """Total overhead (Section 2.1): software plus energy, as a
        multiplier over baseline — the Table 3 metric."""
        return 1.0 + self.run_time_overhead + self.energy_fraction


class _PeriodicCheckpointModel:
    """Shared engine: checkpoint every ``interval`` cycles, re-execute from
    the last committed checkpoint on power loss.

    A checkpoint commits only if it fits in the remaining on-time (the
    double-buffering assumption all of these systems share).
    """

    def __init__(
        self,
        name: str,
        interval: int,
        checkpoint_cost: int,
        restore_cost: int,
        energy_fraction: float,
    ):
        self.name = name
        self.interval = interval
        self.checkpoint_cost = checkpoint_cost
        self.restore_cost = restore_cost
        self.energy_fraction = energy_fraction

    def run(self, trace: Trace, schedule: PowerSchedule, max_power_cycles: int = 2_000_000) -> BaselineResult:
        """Simulate the trace intermittently under this model."""
        schedule.reset()
        total = trace.total_cycles
        res = BaselineResult(self.name, trace.name, total, energy_fraction=self.energy_fraction)
        pos = 0  # useful cycles completed and committed
        frontier = 0  # useful cycles completed since last commit
        on_left = schedule.next_on_time() - self.restore_cost
        since_ckpt = 0
        while pos + frontier < total:
            step = min(self.interval - since_ckpt, total - pos - frontier)
            if step > on_left:
                # Power dies mid-section: everything since the commit is lost.
                res.reexec_cycles += frontier + on_left
                frontier = 0
                since_ckpt = 0
                res.power_cycles += 1
                if res.power_cycles > max_power_cycles:
                    raise SimulationError(f"{self.name}: no forward progress")
                on_left = schedule.next_on_time() - self.restore_cost
                res.restore_cycles += self.restore_cost
                continue
            on_left -= step
            frontier += step
            since_ckpt += step
            if since_ckpt >= self.interval:
                if self.checkpoint_cost > on_left:
                    res.reexec_cycles += frontier + on_left
                    frontier = 0
                    since_ckpt = 0
                    res.power_cycles += 1
                    if res.power_cycles > max_power_cycles:
                        raise SimulationError(f"{self.name}: no forward progress")
                    on_left = schedule.next_on_time() - self.restore_cost
                    res.restore_cycles += self.restore_cost
                    continue
                on_left -= self.checkpoint_cost
                res.checkpoint_cycles += self.checkpoint_cost
                res.checkpoints += 1
                pos += frontier
                frontier = 0
                since_ckpt = 0
        # Final commit of the tail.
        res.checkpoint_cycles += self.checkpoint_cost
        res.checkpoints += 1
        return res


class MementosBaseline(_PeriodicCheckpointModel):
    """Mementos (ASPLOS'11) ported to FRAM: loop-granularity voltage polls;
    when the poll trips, save registers + the active stack.

    The poll itself is cheap in cycles but the ADC burns a large share of
    the harvested energy (the paper cites 40%, Section 2.1); Mementos also
    checkpoints aggressively because a poll only *estimates* remaining
    energy, which the paper's Table 3 reflects as 117-145% total overhead.

    Args:
        trace_stack_words: Modeled live volatile state per checkpoint.
        poll_interval: Cycles between voltage polls (loop-latch granularity).
    """

    def __init__(self, trace_stack_words: int = 100, poll_interval: int = 320):
        state_words = 17 + trace_stack_words
        super().__init__(
            name="mementos",
            interval=poll_interval,
            checkpoint_cost=state_words * _NV_WORD + 10,
            restore_cost=state_words * _NV_WORD + 10,
            energy_fraction=0.40,
        )


class HibernusBaseline:
    """Hibernus (ESL'14): hibernate once per power cycle at a low-voltage
    warning — save the whole in-use RAM — and restore it at boot.

    Args:
        monitor_energy_fraction: Energy drain of the voltage comparator and
            the conservatively early hibernate threshold.
    """

    name = "hibernus"

    def __init__(self, monitor_energy_fraction: float = 0.30):
        self.monitor_energy_fraction = monitor_energy_fraction

    def run(self, trace: Trace, schedule: PowerSchedule, max_power_cycles: int = 2_000_000) -> BaselineResult:
        """Simulate: every power cycle ends with a hibernate (if it fits)
        and begins with a restore; execution itself is never rolled back
        unless the hibernate window was missed."""
        schedule.reset()
        ram_words = trace.footprint_words + 17
        save = ram_words * _NV_WORD + 10
        res = BaselineResult(
            self.name, trace.name, trace.total_cycles,
            energy_fraction=self.monitor_energy_fraction,
        )
        done = 0
        total = trace.total_cycles
        first = True
        while done < total:
            if not first:
                res.power_cycles += 1
                if res.power_cycles > max_power_cycles:
                    raise SimulationError(f"{self.name}: no forward progress")
            first = False
            on = schedule.next_on_time()
            # Restore at boot, and reserve room to hibernate at the end.
            budget = on - 2 * save
            if budget <= 0:
                continue  # too short to restore + hibernate: cycle wasted
            res.restore_cycles += save
            useful = min(budget, total - done)
            done += useful
            if done < total:
                res.checkpoint_cycles += save
                res.checkpoints += 1
        return res


class HibernusPlusPlusBaseline(HibernusBaseline):
    """Hibernus++ (2016): adaptive thresholds shave some monitoring margin."""

    name = "hibernus++"

    def __init__(self, monitor_energy_fraction: float = 0.28):
        super().__init__(monitor_energy_fraction)


class RatchetBaseline:
    """Ratchet (OSDI'16): compiler-only idempotency.

    Static, intraprocedural alias analysis bounds every idempotent section:
    a register checkpoint (~40 cycles) at every function boundary (the
    best case the paper credits to intraprocedural analysis) and at every
    potential in-function alias, modeled as a cycle cap per section
    (Ratchet's published sections average tens of instructions).

    Args:
        max_section_cycles: Conservative static section cap in cycles.
    """

    name = "ratchet"

    def __init__(self, max_section_cycles: int = 120, checkpoint_cost: int = 40):
        self.max_section_cycles = max_section_cycles
        self.checkpoint_cost = checkpoint_cost

    def run(self, trace: Trace, schedule: PowerSchedule, max_power_cycles: int = 2_000_000) -> BaselineResult:
        """Replay with static checkpoint placement."""
        schedule.reset()
        # Precompute checkpoint positions: function markers + access cap.
        marker_at: Set[int] = {m.index for m in trace.markers}
        res = BaselineResult(self.name, trace.name, trace.total_cycles)
        restore = 17 * _NV_WORD + 10
        cycles = trace.cycles
        n = len(trace)
        i = 0
        ckpt_i = 0
        since = 0
        on_left = schedule.next_on_time() - restore
        def power_fail(cur_i: int) -> int:
            nonlocal i, since
            res.reexec_cycles += on_left
            res.reexec_cycles += sum(cycles[ckpt_i:cur_i])
            i = ckpt_i
            since = 0
            res.power_cycles += 1
            if res.power_cycles > max_power_cycles:
                raise SimulationError("ratchet: no forward progress")
            res.restore_cycles += restore
            return schedule.next_on_time() - restore

        while i < n:
            # Static section boundaries: function calls/returns, plus the
            # alias-conservatism cap.  Long register-only runs (soft-float
            # emulation) split too: the emulation library's own spills are
            # alias-bounded, so one big access can carry several
            # checkpoints' worth of section budget.
            pending = 1 if i in marker_at else 0
            pending += since // self.max_section_cycles
            failed = False
            while pending > 0:
                if self.checkpoint_cost > on_left:
                    on_left = power_fail(i)
                    failed = True
                    break
                on_left -= self.checkpoint_cost
                res.checkpoint_cycles += self.checkpoint_cost
                res.checkpoints += 1
                ckpt_i = i
                since = 0
                pending -= 1
            if failed:
                continue
            c = cycles[i]
            if c > on_left:
                on_left = power_fail(i)
                continue
            on_left -= c
            i += 1
            since += c
        res.checkpoint_cycles += self.checkpoint_cost
        res.checkpoints += 1
        return res


class DinoBaseline:
    """DINO (PLDI'15): programmer tasks with data versioning.

    Task boundaries are the workload's function markers; at every boundary
    DINO versions (double-buffers) every non-volatile word the finished
    task wrote, plus saves registers.  On power loss, execution rolls back
    to the task boundary.
    """

    name = "dino"

    def __init__(self, boundary_cost: int = 50):
        self.boundary_cost = boundary_cost

    def run(self, trace: Trace, schedule: PowerSchedule, max_power_cycles: int = 2_000_000) -> BaselineResult:
        """Replay with task-boundary versioning."""
        schedule.reset()
        marker_at: Set[int] = {m.index for m in trace.markers}
        res = BaselineResult(self.name, trace.name, trace.total_cycles)
        restore = 17 * _NV_WORD + 10
        kinds, waddrs, cycles = trace.kinds, trace.waddrs, trace.cycles
        n = len(trace)
        i = 0
        task_i = 0
        written: Set[int] = set()
        on_left = schedule.next_on_time() - restore

        def fail(cur_i: int) -> int:
            nonlocal i, written
            res.reexec_cycles += on_left
            res.reexec_cycles += sum(cycles[task_i:cur_i])
            i = task_i
            written = set()
            res.power_cycles += 1
            if res.power_cycles > max_power_cycles:
                raise SimulationError("dino: no forward progress")
            res.restore_cycles += restore
            return schedule.next_on_time() - restore

        while i < n:
            if i in marker_at and i > task_i:
                cost = self.boundary_cost + 2 * _NV_WORD * len(written)
                if cost > on_left:
                    on_left = fail(i)
                    continue
                on_left -= cost
                res.checkpoint_cycles += cost
                res.checkpoints += 1
                task_i = i
                written = set()
            c = cycles[i]
            if c > on_left:
                on_left = fail(i)
                continue
            on_left -= c
            if kinds[i] == WRITE:
                written.add(waddrs[i])
            i += 1
        res.checkpoint_cycles += self.boundary_cost + 2 * _NV_WORD * len(written)
        res.checkpoints += 1
        return res
