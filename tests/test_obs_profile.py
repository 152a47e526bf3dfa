"""Sweep profiling: the Profiler, runner integration, trace-cache stats."""

from repro.core.config import ClankConfig
from repro.eval.runner import run_clank
from repro.eval.settings import EvalSettings
from repro.obs.metrics import COUNTERS
from repro.obs.profile import PROFILER, Profiler
from repro.workloads.cache import cache_stats, clear_trace_cache, get_trace


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

    def test_record_sim_totals(self):
        p = Profiler()
        p.record_sim("crc", 0.5)
        p.record_sim("crc", 0.25)
        p.record_sim("fft", 1.0)
        assert p.total_sim_runs == 3
        assert p.total_sim_seconds == 1.75

    def test_table_renders_all_sections(self):
        p = Profiler()
        with p.phase("fig5"):
            pass
        p.record_sim("crc", 0.5)
        text = p.table({
            "traces.hits": 3, "traces.misses": 1,
            "dispatch.fast": 9, "dispatch.reasons.verify": 1,
            "sections.hits": 6, "sections.misses": 4,
            "sections.disk_loads": 1, "sections.rebuilds": 1,
            "sections.family_passes": 1, "sections.family_maps": 3,
            "sections.family_by_trace.crc": 3,
            "cache.hits": 1, "cache.misses": 1, "cache.puts": 2,
        })
        assert "experiment drivers" in text
        assert "fig5" in text
        assert "crc" in text
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
        p.record_sim("crc", 1.0)
        with p.phase("x"):
            pass
        p.reset()
        assert not p.phases and not p.sim_seconds


class TestRunnerIntegration:
    def test_run_clank_records_sim_time(self):
        PROFILER.reset()
        settings = EvalSettings(size="tiny")
        trace = get_trace("crc", size="tiny")
        run_clank(trace, ClankConfig.from_tuple((4, 2, 2, 0)), settings)
        assert PROFILER.sim_runs.get("crc") == 1
        assert PROFILER.sim_seconds["crc"] > 0.0

    def test_profile_off_records_nothing(self):
        PROFILER.reset()
        settings = EvalSettings(size="tiny", profile=False)
        trace = get_trace("crc", size="tiny")
        run_clank(trace, ClankConfig.from_tuple((4, 2, 2, 0)), settings)
        assert PROFILER.sim_runs == {}


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
