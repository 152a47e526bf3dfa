"""Sweep profiling: the Profiler, its ledger-fed simulator section,
trace-cache stats."""

from repro.eval.parallel import SimJob, run_jobs
from repro.eval.settings import EvalSettings
from repro.obs.metrics import COUNTERS
from repro.obs.profile import PROFILER, Profiler
from repro.obs.telemetry import LEDGER, RunRecord
from repro.workloads.cache import cache_stats, clear_trace_cache, get_trace


def _rec(workload, wall_s, engine="fast", **kw):
    return RunRecord(workload=workload, config="4,2,2,0", engine=engine,
                     wall_s=wall_s, **kw)


class TestProfiler:
    def test_phase_accumulates(self):
        p = Profiler()
        with p.phase("fig5"):
            pass
        with p.phase("fig5"):
            pass
        assert p.phase_calls["fig5"] == 2
        assert p.phases["fig5"] >= 0.0

    def test_phase_records_on_exception(self):
        p = Profiler()
        try:
            with p.phase("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        assert "boom" in p.phases

    def test_sim_totals_from_ledger_records(self):
        text = Profiler().table(records=[
            _rec("crc", 0.5), _rec("crc", 0.25), _rec("fft", 1.0),
        ])
        assert "simulator time by workload (3 runs, 1.750s total)" in text
        assert f"   {'fft':<20s} {1.0:9.3f}s  {1:6d} runs" in text
        assert f"   {'crc':<20s} {0.75:9.3f}s  {2:6d} runs" in text
        # Ranked by seconds: fft before crc.
        assert text.index("fft") < text.index("crc")

    def test_table_renders_batch_served_and_stalled_records(self):
        text = Profiler().table(records=[
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
        text = Profiler().table(
            records=[_rec("crc", 0.5), _rec("fft", 0.25), _rec("aes", 0.125)],
            top=1,
        )
        assert "crc" in text and "fft" not in text
        assert "(2 more workloads, 0.375s)" in text

    def test_table_renders_all_sections(self):
        p = Profiler()
        with p.phase("fig5"):
            pass
        text = p.table({
            "traces.hits": 3, "traces.misses": 1,
            "dispatch.fast": 9, "dispatch.reasons.verify": 1,
            "sections.hits": 6, "sections.misses": 4,
            "sections.disk_loads": 1, "sections.rebuilds": 1,
            "sections.family_passes": 1, "sections.family_maps": 3,
            "sections.family_by_trace.crc": 3,
            "cache.hits": 1, "cache.misses": 1, "cache.puts": 2,
        }, [_rec("crc", 0.5)])
        assert "experiment drivers" in text
        assert "fig5" in text
        assert "simulator time by workload (1 runs, 0.500s total)" in text
        assert "75.0% hit rate" in text
        assert "9 fast / 1 fallback (90.0% fast)" in text
        assert "fallback reasons: verify 1" in text
        assert "1 warm from disk, 3 cold, 1 rebuilds" in text
        assert "LRU thrash" in text
        assert "3 maps in 1 trace passes (3.0 maps/pass)" in text
        assert "1 built scalar" in text
        assert "by trace: crc 3" in text
        assert "1 hits / 1 misses (50.0% hit rate), 2 puts" in text

    def test_table_empty_profiler(self):
        assert Profiler().table() == "run profile"

    def test_reset(self):
        p = Profiler()
        with p.phase("x"):
            pass
        p.reset()
        assert not p.phases and not p.phase_calls


class TestRunnerIntegration:
    JOB = SimJob(workload="crc", config=(4, 2, 2, 0), size="tiny")

    def test_run_jobs_records_sim_time(self):
        LEDGER.reset()
        LEDGER.enable()
        try:
            run_jobs([self.JOB], EvalSettings(size="tiny"), 1)
            [rec] = LEDGER.records
            text = PROFILER.table(records=LEDGER.records)
        finally:
            LEDGER.disable()
            LEDGER.reset()
        assert (rec.workload, rec.rows) == ("crc", 1)
        assert rec.wall_s > 0.0
        assert "(1 runs," in text and "crc" in text

    def test_ledger_off_records_nothing(self):
        LEDGER.disable()
        LEDGER.reset()
        run_jobs([self.JOB], EvalSettings(size="tiny"), 1)
        assert LEDGER.records == []
        assert "simulator time" not in PROFILER.table(records=LEDGER.records)


class TestCacheStats:
    def test_hit_miss_accounting(self):
        clear_trace_cache()
        COUNTERS.reset()
        get_trace("crc", size="tiny")
        get_trace("crc", size="tiny")
        stats = cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1

    def test_clear_cache_forces_miss(self):
        clear_trace_cache()
        COUNTERS.reset()
        get_trace("crc", size="tiny")
        clear_trace_cache()
        get_trace("crc", size="tiny")
        assert cache_stats()["misses"] == 2
