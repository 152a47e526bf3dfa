"""Event emission from the instrumented simulator, detector, and watchdogs.

The key contracts:

* every cause counted in ``checkpoints_by_cause`` has exactly that many
  matching ``CheckpointCommitted`` events,
* the dynamic verifier still passes with recording enabled,
* attaching a ``NullRecorder`` (or nothing) leaves the simulation result
  bit-for-bit identical to a recorded run's accounting.
"""

from collections import Counter

from repro.core.config import ClankConfig, PolicyOptimizations
from repro.core.detector import IdempotencyDetector
from repro.core.watchdogs import ProgressWatchdog
from repro.obs.recorder import MemoryRecorder, NullRecorder
from repro.power.schedules import ContinuousPower, ExponentialPower
from repro.sim.simulator import simulate
from repro.trace.access import READ, WRITE

from tests.conftest import make_trace, rmw_trace, stream_trace

CFG = ClankConfig.from_tuple((4, 2, 2, 0))


def run_recorded(trace, config=CFG, seed=5, **kw):
    rec = MemoryRecorder()
    kw.setdefault("progress_watchdog", 300)
    result = simulate(
        trace,
        config,
        ExponentialPower(800, seed=seed),
        verify=True,
        recorder=rec,
        **kw,
    )
    return result, rec


class TestCheckpointEvents:
    def test_committed_events_match_cause_counts(self):
        result, rec = run_recorded(rmw_trace(400, addrs=16))
        by_cause = Counter(
            e.cause for e in rec.of_kind("checkpoint_committed")
        )
        assert by_cause == Counter(result.checkpoints_by_cause)
        assert result.verified  # the dynamic verifier ran and passed

    def test_one_section_closed_per_commit(self):
        result, rec = run_recorded(rmw_trace(300, addrs=12))
        assert len(rec.of_kind("section_closed")) == result.num_checkpoints
        # SectionClosed precedes its CheckpointCommitted at the same cause.
        kinds = [e.kind for e in rec
                 if e.kind in ("section_closed", "checkpoint_committed")]
        assert kinds[::2] == ["section_closed"] * (len(kinds) // 2)

    def test_power_failures_match_power_cycles(self):
        result, rec = run_recorded(rmw_trace(400, addrs=16))
        # Every period except the final one ends in a failure event
        # (run-phase or restart-phase).
        assert len(rec.of_kind("power_failure")) == result.power_cycles - 1

    def test_continuous_power_emits_no_failures(self):
        trace = stream_trace(60)
        rec = MemoryRecorder()
        result = simulate(
            trace, CFG, ContinuousPower(), verify=True, recorder=rec,
            progress_watchdog=300,
        )
        assert result.power_cycles == 1
        assert rec.of_kind("power_failure") == []
        assert rec.of_kind("rollback") == []
        assert len(rec.of_kind("checkpoint_committed")) == result.num_checkpoints

    def test_timestamps_monotonic_and_within_total(self):
        result, rec = run_recorded(rmw_trace(400, addrs=16))
        stamped = [e.t for e in rec if e.t is not None]
        assert stamped == sorted(stamped)
        assert stamped[-1] <= result.total_cycles


class TestMetricsAggregation:
    def test_result_metrics_populated_when_recording(self):
        result, rec = run_recorded(rmw_trace(300, addrs=12))
        counters = result.metrics["counters"]
        assert counters["checkpoints_committed"] == result.num_checkpoints
        hist = result.metrics["histograms"]["section_accesses"]
        assert hist["count"] == result.num_checkpoints
        flush = result.metrics["histograms"]["wbb_flush_words"]
        assert flush["sum"] == result.wbb_words_flushed

    def test_metrics_empty_without_recorder(self):
        result = simulate(
            rmw_trace(100), CFG, ExponentialPower(800, seed=5),
            progress_watchdog=300,
        )
        assert result.metrics == {}


class TestNullRecorderParity:
    def test_null_recorder_identical_to_no_recorder(self):
        trace = rmw_trace(400, addrs=16)
        kw = dict(progress_watchdog=300, verify=True)
        plain = simulate(trace, CFG, ExponentialPower(800, seed=5), **kw)
        null = simulate(
            trace, CFG, ExponentialPower(800, seed=5),
            recorder=NullRecorder(), **kw,
        )
        assert plain == null

    def test_memory_recorder_does_not_change_accounting(self):
        trace = rmw_trace(400, addrs=16)
        kw = dict(progress_watchdog=300, verify=True)
        plain = simulate(trace, CFG, ExponentialPower(800, seed=5), **kw)
        recorded, _ = run_recorded(trace)
        # metrics differ by construction; everything else must match
        assert recorded.to_dict(include_derived=False) | {"metrics": {}} == \
            plain.to_dict(include_derived=False)


class TestBufferOverflowEvents:
    def test_detector_emits_per_buffer_overflows(self):
        rec = MemoryRecorder()
        det = IdempotencyDetector(
            ClankConfig(rf_entries=1, wf_entries=1, wbb_entries=1,
                        apb_entries=0,
                        optimizations=PolicyOptimizations.none()),
            recorder=rec,
        )
        det.on_read(1)
        det.on_read(2)  # RF full
        det.on_write(10, 1, 0)
        det.on_write(11, 1, 0)  # WF full
        det.on_write(1, 5, 0)  # violation -> WBB
        overflows = {e.buffer for e in rec.of_kind("buffer_overflow")}
        assert overflows == {"rf", "wf"}

    def test_wbb_overflow_event_carries_address(self):
        rec = MemoryRecorder()
        det = IdempotencyDetector(
            ClankConfig(rf_entries=4, wf_entries=0, wbb_entries=1,
                        apb_entries=0),
            recorder=rec,
        )
        det.on_read(1)
        det.on_read(2)
        det.on_write(1, 9, 0)  # buffered
        det.on_write(2, 9, 0)  # WBB full
        events = rec.of_kind("buffer_overflow")
        assert [(e.buffer, e.waddr) for e in events] == [("wbb", 2)]

    def test_overflow_events_in_simulation(self):
        # One RF entry against a read-heavy stream: every second distinct
        # read fills the Read-first Buffer.
        result, rec = run_recorded(
            stream_trace(100), ClankConfig.from_tuple((1, 0, 0, 0))
        )
        overflows = rec.of_kind("buffer_overflow")
        assert overflows and all(e.buffer == "rf" for e in overflows)
        assert result.verified


class TestWatchdogEvents:
    def test_progress_watchdog_halving_emits_events(self):
        rec = MemoryRecorder()
        wdt = ProgressWatchdog(default_load=100, recorder=rec)
        wdt.on_restart()  # arms the no-checkpoint flag
        wdt.on_restart()  # enables at default load (no halving yet)
        wdt.on_restart()  # halves: 50
        wdt.on_restart()  # halves: 25
        loads = [e.load_value for e in rec.of_kind("watchdog_halved")]
        assert loads == [50, 25]

    def test_watchdog_fired_events_match_cause_counts(self):
        # Long violation-free stretches + tiny watchdog => wdt checkpoints.
        # Continuous power keeps every fired attempt committable.
        ops = [(WRITE, i, i + 1) for i in range(200)]
        trace = make_trace(ops, name="wdtload")
        rec = MemoryRecorder()
        result = simulate(
            trace, ClankConfig.infinite(), ContinuousPower(), verify=True,
            recorder=rec, perf_watchdog=64,
        )
        fired = rec.of_kind("watchdog_fired")
        assert len(fired) == result.checkpoints_by_cause.get("perf_wdt", 0)
        assert fired and all(e.watchdog == "performance" for e in fired)

    def test_output_commit_events(self):
        # A write into the MMIO segment commits under the output rule.
        from repro.mem.map import default_memory_map
        from repro.trace.access import Access
        from repro.trace.trace import Trace

        mmap = default_memory_map()
        mmio_word = mmap.word_range("mmio")[0]
        data_word = 0x2000_0000 >> 2
        accesses = [
            Access(WRITE, data_word, 7, 4),
            Access(WRITE, mmio_word, 42, 4),
        ]
        trace = Trace.from_accesses(
            "out", accesses,
            initial_image={data_word: 0, mmio_word: 0}, memory_map=mmap,
        )
        rec = MemoryRecorder()
        result = simulate(
            trace, CFG, ContinuousPower(), verify=True, recorder=rec,
            progress_watchdog=300,
        )
        outs = rec.of_kind("output_committed")
        assert [(e.waddr, e.duplicate) for e in outs] == [(mmio_word, False)]
        assert result.outputs == 1
