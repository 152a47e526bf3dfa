"""Integration tests for the intermittent policy simulator."""

import pytest

from repro.common.errors import SimulationError, VerificationError
from repro.core.config import ClankConfig, PolicyOptimizations
from repro.power.schedules import (
    ContinuousPower,
    ExponentialPower,
    FixedPower,
    ReplayPower,
)
from repro.sim.simulator import IntermittentSimulator, simulate
from repro.trace.access import READ, WRITE, Access
from repro.trace.trace import Trace

from tests.conftest import DATA_WORD, make_trace, rmw_trace, stream_trace

CFG = ClankConfig.from_tuple((4, 2, 2, 0))


def run(trace, config=CFG, schedule=None, **kw):
    schedule = schedule or ExponentialPower(800, seed=5)
    kw.setdefault("progress_watchdog", 300)
    return simulate(trace, config, schedule, **kw)


class TestContinuousExecution:
    def test_no_power_failures_minimal_overhead(self):
        trace = stream_trace(100)
        res = run(trace, schedule=ContinuousPower())
        assert res.power_cycles == 1
        assert res.reexec_cycles == 0
        assert res.useful_cycles == trace.total_cycles
        assert res.verified

    def test_stream_trace_needs_no_program_checkpoints(self):
        # No read-then-write: nothing violates while buffers suffice.
        trace = stream_trace(20)
        res = run(trace, ClankConfig.infinite(), ContinuousPower())
        assert res.checkpoints_by_cause == {"final": 1}

    def test_accounting_identity(self):
        trace = rmw_trace(150)
        res = run(trace)
        assert res.total_cycles == (
            res.useful_cycles
            + res.checkpoint_cycles
            + res.restart_cycles
            + res.reexec_cycles
            + res.wasted_cycles
        )
        assert res.useful_cycles == trace.total_cycles


class TestCheckpointCauses:
    def test_violation_cause_without_wbb(self):
        trace = rmw_trace(40)
        cfg = ClankConfig.from_tuple((8, 8, 0, 0), PolicyOptimizations.none())
        res = run(trace, cfg, ContinuousPower())
        assert res.checkpoints_by_cause.get("violation", 0) > 0

    def test_wbb_full_cause(self):
        trace = rmw_trace(60, addrs=8)
        cfg = ClankConfig.from_tuple((16, 8, 1, 0), PolicyOptimizations.none())
        res = run(trace, cfg, ContinuousPower())
        assert res.checkpoints_by_cause.get("wbb_full", 0) > 0

    def test_rf_full_cause(self):
        trace = make_trace([(READ, i) for i in range(20)])
        cfg = ClankConfig.from_tuple((2, 0, 0, 0), PolicyOptimizations.none())
        res = run(trace, cfg, ContinuousPower())
        assert res.checkpoints_by_cause.get("rf_full", 0) > 0

    def test_latest_checkpoint_defers_rf_full(self):
        trace = make_trace([(READ, i) for i in range(20)] + [(WRITE, 50, 1)])
        cfg = ClankConfig.from_tuple(
            (2, 0, 0, 0), PolicyOptimizations.only("latest_checkpoint")
        )
        res = run(trace, cfg, ContinuousPower())
        assert res.checkpoints_by_cause.get("rf_full", 0) == 0
        assert res.checkpoints_by_cause.get("latest_write", 0) == 1

    def test_perf_watchdog_cause(self):
        trace = stream_trace(500)
        res = run(trace, ClankConfig.infinite(), ContinuousPower(), perf_watchdog=500)
        assert res.checkpoints_by_cause.get("perf_wdt", 0) > 0

    def test_final_checkpoint_always_taken(self):
        res = run(stream_trace(5), schedule=ContinuousPower())
        assert res.checkpoints_by_cause.get("final") == 1


class TestPowerFailures:
    def test_reexecution_counted(self):
        trace = stream_trace(200)  # 1600 cycles
        res = run(trace, schedule=FixedPower(500))
        assert res.power_cycles > 1
        assert res.reexec_cycles + res.wasted_cycles > 0
        assert res.verified

    def test_deterministic_given_seed(self):
        trace = rmw_trace(120)
        r1 = run(trace, schedule=ExponentialPower(700, seed=9))
        r2 = run(trace, schedule=ExponentialPower(700, seed=9))
        assert r1.total_cycles == r2.total_cycles
        assert r1.checkpoints_by_cause == r2.checkpoints_by_cause

    def test_progress_watchdog_rescues_long_sections(self):
        # A violation-free program longer than any on-time needs the
        # Progress Watchdog to make forward progress at all.
        trace = stream_trace(400)  # 3200 cycles
        res = run(
            trace,
            ClankConfig.infinite(),
            ReplayPower([1000] * 10_000),
            progress_watchdog=400,
        )
        assert res.checkpoints_by_cause.get("progress_wdt", 0) > 0
        assert res.verified

    def test_unworkable_conditions_raise(self):
        # On-times below restart cost can never make progress.
        trace = stream_trace(50)
        with pytest.raises(SimulationError):
            simulate(
                trace, CFG, FixedPower(20),
                progress_watchdog=100, max_power_cycles=200,
            )

    def test_wasted_power_cycles_counted(self):
        trace = stream_trace(400)
        res = run(trace, ClankConfig.infinite(), ReplayPower([1000] * 10_000),
                  progress_watchdog=400)
        assert res.wasted_power_cycles >= 0
        assert res.power_cycles > res.wasted_power_cycles


class TestOutputCommit:
    def _trace_with_output(self):
        mmio_word = 0x4000_0000 >> 2
        accesses = [
            Access(WRITE, DATA_WORD, 1, 4),
            Access(WRITE, mmio_word, 0xBEEF, 4),
            Access(WRITE, DATA_WORD + 1, 2, 4),
        ]
        image = {DATA_WORD: 0, DATA_WORD + 1: 0, mmio_word: 0}
        return Trace.from_accesses("out", accesses, image)

    def test_output_surrounded_by_checkpoints(self):
        res = run(self._trace_with_output(), schedule=ContinuousPower())
        assert res.checkpoints_by_cause.get("output") == 2
        assert res.outputs == 1
        assert res.duplicate_outputs == 0

    def test_output_duplicates_counted_under_power_loss(self):
        # Die right after the output commits but before the trailing
        # checkpoint: the output is re-emitted on replay.
        trace = self._trace_with_output()
        res = simulate(
            trace, CFG,
            ReplayPower([44 + 40 + 4 + 40 + 4 + 2] + [10_000] * 50),
            progress_watchdog=0,
        )
        assert res.outputs >= 1
        assert res.verified


class TestDynamicVerification:
    def test_all_policy_settings_verify(self):
        trace = rmw_trace(80, addrs=5)
        for opts in PolicyOptimizations.all_settings():
            cfg = ClankConfig.from_tuple((2, 1, 1, 1), opts)
            res = run(trace, cfg, ExponentialPower(600, seed=11))
            assert res.verified

    def test_verification_catches_injected_corruption(self):
        trace = rmw_trace(30)
        # Corrupt the oracle: claim a read observed a different value.
        bad = Access(READ, trace.accesses[0].waddr, 0xDEAD, 4)
        trace = Trace.from_accesses(
            trace.name, [bad, *trace.accesses], trace.initial_image
        )
        with pytest.raises(VerificationError):
            run(trace, schedule=ContinuousPower())

    def test_verify_flag_off_skips_checks(self):
        res = run(rmw_trace(30), verify=False, schedule=ContinuousPower())
        assert not res.verified

    def test_untracked_wbb_owned_write_stays_buffered(self):
        """Regression (hypothesis-found): in latest-checkpoint untracked
        mode, a write to a WBB-owned address must update the buffer in
        place — never pass the false-write test against the buffered
        (not-yet-durable) value and commit straight to NV.  Before the
        fix, NV held the buffered value after a rollback to a checkpoint
        that never flushed it, and replay diverged from the oracle."""
        # R@1, R@3 fill the RF; W@1 is a WAR violation captured by the
        # WBB; R@0, R@2 overflow the RF into untracked mode; the second
        # W@1 then matches the WBB entry's value exactly.
        program = [(READ, 1), (READ, 3), (WRITE, 1, 1),
                   (READ, 0), (READ, 2), (WRITE, 1, 1)]
        trace = make_trace(program)
        cfg = ClankConfig.from_tuple((2, 2, 1, 0))
        # A 72-cycle on-time dies during the final checkpoint, forcing a
        # full rollback with the WBB still unflushed.
        res = simulate(trace, cfg, ReplayPower([72, 2000]),
                       progress_watchdog=150, verify=True)
        assert res.verified
        assert res.useful_cycles == trace.total_cycles


class TestProgramIdempotentMarking:
    def test_pi_words_bypass_tracking(self):
        trace = stream_trace(50)
        pi = frozenset(a.waddr for a in trace.accesses)
        cfg = ClankConfig.from_tuple((1, 0, 0, 0), PolicyOptimizations.none())
        res = run(trace, cfg, ContinuousPower(), pi_words=pi)
        # Everything marked: the sole RF entry never fills.
        assert res.checkpoints_by_cause == {"final": 1}
        assert res.verified


class TestMixedVolatility:
    def _mixed_trace(self):
        # Volatile stack scratch + NV accumulator.
        stack_word = 0x2003_0000 >> 2
        ops = []
        for i in range(30):
            ops.append((WRITE, stack_word - DATA_WORD + (i % 4), i))
            ops.append((READ, stack_word - DATA_WORD + (i % 4)))
            ops.append((READ, 0))
            ops.append((WRITE, 0, i * 3))
        return make_trace(ops, name="mixed")

    def test_volatile_accesses_untracked(self):
        trace = self._mixed_trace()
        vol = (trace.memory_map.word_range("stack"),)
        cfg = ClankConfig.from_tuple((2, 1, 1, 0))
        res_mixed = run(trace, cfg, ExponentialPower(900, seed=3), volatile_ranges=vol)
        res_nv = run(trace, cfg, ExponentialPower(900, seed=3))
        assert res_mixed.verified and res_nv.verified
        # Untracked stack traffic means fewer checkpoints in mixed mode.
        assert res_mixed.num_checkpoints <= res_nv.num_checkpoints

    def test_mixed_final_state_verified(self):
        trace = self._mixed_trace()
        vol = (trace.memory_map.word_range("stack"),)
        res = run(trace, CFG, FixedPower(700), volatile_ranges=vol)
        assert res.verified


class TestResultReporting:
    def test_summary_mentions_key_numbers(self):
        res = run(stream_trace(50), schedule=ContinuousPower())
        text = res.summary()
        assert "stream50" in text
        assert "checkpoints" in text

    def test_overhead_properties(self):
        res = run(rmw_trace(100), schedule=ExponentialPower(900, seed=2))
        assert res.run_time_overhead >= 0
        total = res.total_overhead(0.02)
        assert total == pytest.approx(1 + res.run_time_overhead + 0.02)

    def test_auto_watchdogs(self):
        trace = stream_trace(300)
        sim = IntermittentSimulator(
            trace, CFG, ExponentialPower(1000, seed=1),
            perf_watchdog="auto", progress_watchdog="auto",
        )
        assert sim.perf_watchdog_load > 0
        assert sim.progress_watchdog_load == 500
