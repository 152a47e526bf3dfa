"""Sweep profiling: the Profiler's driver marks, and the run profile
(:func:`repro.obs.report.render_text`) of the ledger they join —
its driver and simulator sections and the sweep-counter lines."""

import re

import pytest

from repro.core import cext
from repro.core.config import PolicyOptimizations
from repro.eval.parallel import SimJob, run_jobs
from repro.eval.settings import EvalSettings
from repro.obs.metrics import COUNTERS
from repro.obs.profile import Profiler
from repro.obs.report import render_text
from repro.obs.telemetry import LEDGER, Ledger, RunRecord, tally
from repro.workloads.cache import cache_stats, clear_trace_cache, get_trace


def _rec(workload, wall_s, engine="fast", **kw):
    return RunRecord(workload=workload, config="4,2,2,0", engine=engine,
                     wall_s=wall_s, **kw)


def profile(records=(), marks=(), counters=None, top=10) -> str:
    """The run profile of a ledger holding ``records``, ``marks`` and
    (when given) a ``counters`` snapshot."""
    footer = {} if counters is None else {"counters": counters}
    return render_text(Ledger(records=list(records), drivers=list(marks),
                              footer=footer), top=top)


class TestProfiler:
    def test_phase_accumulates(self):
        p = Profiler()
        with p.phase("fig5"):
            pass
        with p.phase("fig5"):
            pass
        assert [m["name"] for m in p.marks] == ["fig5", "fig5"]
        assert all(m["t1"] >= m["t0"] for m in p.marks)
        # The profile folds a driver's marks into one line.
        [line] = [line for line in profile(marks=p.marks).splitlines()
                  if "fig5" in line]
        total = sum(m["t1"] - m["t0"] for m in p.marks)
        assert line.startswith(f"   {'fig5':<20s} {total:9.3f}s  100.0%")

    def test_phase_marks_use_ledger_timebase(self):
        p = Profiler()
        before = LEDGER.now()
        with p.phase("fig5"):
            pass
        [mark] = p.marks
        assert before <= mark["t0"] <= mark["t1"] <= LEDGER.now()

    def test_phase_opens_driver_span(self):
        from repro.obs.tracing import TRACER

        TRACER.reset()
        TRACER.enable()
        try:
            with Profiler().phase("fig5"):
                pass
            [span] = TRACER.drain()
        finally:
            TRACER.disable()
            TRACER.reset()
        assert span["name"] == "driver fig5"

    def test_phase_records_on_exception(self):
        p = Profiler()
        try:
            with p.phase("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        assert [m["name"] for m in p.marks] == ["boom"]
        assert p.marks[0]["t1"] is not None

    def test_sim_totals_from_ledger_records(self):
        text = profile(records=[
            _rec("crc", 0.5), _rec("crc", 0.25), _rec("fft", 1.0),
        ])
        assert "simulator time by workload (3 runs, 1.750s total)" in text
        assert f"   {'fft':<20s} {1.0:9.3f}s  {1:6d} runs" in text
        assert f"   {'crc':<20s} {0.75:9.3f}s  {2:6d} runs" in text
        # Ranked by seconds: fft before crc.
        assert text.index("fft") < text.index("crc")

    def test_table_renders_batch_served_and_stalled_records(self):
        text = profile(records=[
            # A seed-repeat job: the walked rows in one record, a rerun
            # row in its own.
            _rec("crc", 0.3, engine="batch", rows=60, kernel="c"),
            _rec("crc", 0.1),
            # Served jobs: computed carries its server-side seconds,
            # a memory-tier replay none.
            _rec("fft", 0.2, engine="served", result_cache="computed",
                 rows=4),
            _rec("fft", 0.0, engine="served", result_cache="memory",
                 rows=4),
            _rec("aes", 0.05, engine="stalled", stalled=True),
        ])
        assert "(70 runs, 0.650s total)" in text
        assert (f"   {'crc':<20s} {0.4:9.3f}s  {61:6d} runs  "
                f"{1000 * 0.4 / 61:8.2f} ms/run") in text
        assert (f"   {'fft':<20s} {0.2:9.3f}s  {8:6d} runs  "
                f"{25.0:8.2f} ms/run") in text
        assert (f"   {'aes':<20s} {0.05:9.3f}s  {1:6d} runs  "
                f"{50.0:8.2f} ms/run") in text

    def test_table_folds_workloads_past_top(self):
        text = profile(
            records=[_rec("crc", 0.5), _rec("fft", 0.25), _rec("aes", 0.125)],
            top=1,
        )
        by_workload = text.split("-- engine mix")[0]
        assert "crc" in by_workload and "fft" not in by_workload
        assert "(2 more workloads, 0.375s)" in text

    def test_table_renders_all_sections(self):
        p = Profiler()
        with p.phase("fig5"):
            pass
        text = profile([
            _rec("crc", 0.5, kernel="c", driver="fig5"),
            _rec("crc", 0.5, engine="batch", kernel="c", rows=8),
            _rec("fft", 0.25, engine="reference", fallback_reason="verify"),
        ], p.marks, {
            "traces.hits": 3, "traces.misses": 1,
            "traces.build_seconds": 0.25,
            "dispatch.fast": 9, "dispatch.reasons.verify": 1,
            "walk.calls": 2,
            "sections.hits": 6, "sections.misses": 4,
            "sections.family_passes": 1, "sections.family_maps": 3,
            "sections.scalar_maps": 1,
            "sections.family_by_trace.crc": 3,
            "cache.hits": 1, "cache.misses": 1, "cache.puts": 2,
        })
        assert "experiment drivers" in text
        assert f"   {'fig5':<20s} " in text
        assert "simulator time by workload (10 runs, 1.250s total)" in text
        assert "75.0% hit rate); misses built in 0.250s" in text
        # Walked rows are the fast and batch engines' rows.
        assert ("-- section walk: 9 walked / 1 fallback (90.0% walked); "
                "2 C walk calls") in text
        assert "-- fallback reasons (1 reference runs via simulate_batch)" \
            in text
        assert f"   {'verify':<22s} {1:7d}  {1.0:6.1%}" in text
        assert "6 warm from memory, 4 cold" in text
        assert "3 maps in 1 trace passes (3.0 maps/pass)" in text
        assert "(3.0 maps/pass); 1 built scalar" in text
        assert "by trace: crc 3" in text
        assert "1 hits / 1 misses (50.0% hit rate), 2 puts" in text

    def test_built_scalar_counts_enumerated_maps_only(self):
        # Section-map misses that no pass enumerates (the maps of runs
        # that never walk) are not counted as built scalar.
        text = profile(counters={
            "sections.hits": 0, "sections.misses": 20,
            "sections.family_passes": 2, "sections.family_maps": 10,
            "sections.scalar_maps": 3,
        })
        assert ("10 maps in 2 trace passes (5.0 maps/pass); "
                "3 built scalar") in text

    def test_table_empty_profiler(self):
        assert profile() == "run profile\n-- engine mix (0 runs)"

    def test_reset(self):
        p = Profiler()
        with p.phase("x"):
            pass
        p.reset()
        assert not p.marks
        assert profile(marks=p.marks) == profile()


class TestRunnerIntegration:
    JOB = SimJob(workload="crc", config=(4, 2, 2, 0), size="tiny")

    def test_run_jobs_records_sim_time(self):
        LEDGER.reset()
        LEDGER.enable()
        try:
            run_jobs([self.JOB], EvalSettings(size="tiny"), 1)
            [rec] = LEDGER.records
            text = profile(records=LEDGER.records)
        finally:
            LEDGER.disable()
            LEDGER.reset()
        assert (rec.workload, rec.rows) == ("crc", 1)
        assert rec.wall_s > 0.0
        assert "(1 runs," in text and "crc" in text

    def test_seed_repeat_sweep_reads_walked_rows(self):
        """Seed-repeat jobs walk their rows as the ``batch`` engine, and a
        row the walk ends with an unsafe watchdog cut reruns on the
        reference: the walk line counts the batch rows as walked (the
        scalar dispatch counter alone read 0.0% walked here)."""
        if cext.chain_scan_lib() is None:
            pytest.skip("C kernel unavailable")
        jobs = [
            SimJob(workload=name, config=config, size="tiny",
                   opts=PolicyOptimizations(ignore_false_writes=True),
                   salt=salt, progress_watchdog=150, allow_stall=True,
                   n_seeds=3)
            for name in ("crc", "rc4", "qsort")
            for config in ((1, 0, 0, 0), (2, 1, 1, 0), (16, 1, 1, 0))
            for salt in range(2)
        ]
        settings = EvalSettings(size="tiny", sweep_size="tiny", seed=1,
                                avg_on_ms=0.15)
        LEDGER.reset()
        LEDGER.enable()
        COUNTERS.reset()
        try:
            run_jobs(jobs, settings)
            ledger = LEDGER.finish(footer={"counters": COUNTERS.snapshot()})
        finally:
            LEDGER.disable()
            LEDGER.reset()
        counts = tally(ledger)
        assert counts["fallback_reasons"].get("watchdog_cut"), counts
        assert "fast" not in counts["engines"]
        walked = counts["engines"]["batch"]
        fallback = sum(counts["fallback_reasons"].values())
        line = re.search(
            r"-- section walk: (\d+) walked / (\d+) fallback "
            r"\(([\d.]+)% walked\)", render_text(ledger))
        assert (int(line[1]), int(line[2])) == (walked, fallback)
        assert float(line[3]) > 0.0

    def test_ledger_off_records_nothing(self):
        LEDGER.disable()
        LEDGER.reset()
        run_jobs([self.JOB], EvalSettings(size="tiny"), 1)
        assert LEDGER.records == []
        assert "simulator time" not in profile(records=LEDGER.records)


class TestCacheStats:
    def test_hit_miss_accounting(self):
        clear_trace_cache()
        COUNTERS.reset()
        get_trace("crc", size="tiny")
        built = cache_stats()["build_seconds"]
        get_trace("crc", size="tiny")
        stats = cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1
        # Only the miss built, so only it is timed.
        assert built > 0.0
        assert stats["build_seconds"] == built
        assert f"misses built in {built:.3f}s" in profile(
            counters=COUNTERS.snapshot())

    def test_clear_cache_forces_miss(self):
        clear_trace_cache()
        COUNTERS.reset()
        get_trace("crc", size="tiny")
        clear_trace_cache()
        get_trace("crc", size="tiny")
        assert cache_stats()["misses"] == 2
