"""Architectural introspection (:mod:`repro.obs.analyze`).

The load-bearing contract: the statistics are computed two entirely
different ways — the reference simulator snapshots the live detector at
each commit, the C section walk reports each commit and
:mod:`repro.sim.batch` derives its occupancy from the growth steps of
one Python scan of the committed section
(:func:`repro.core.detector.scan_section`) — and the two must reconcile
*exactly*, with cause totals
equal to each run's ``checkpoints_by_cause``.  The collector must be off by
default and bounded in memory.
"""

import json

import pytest

from repro.core import cext
from repro.core.config import ClankConfig, PolicyOptimizations
from repro.eval.parallel import SimJob, execute_job, run_jobs
from repro.eval.runner import pi_words_for
from repro.eval.settings import EvalSettings
from repro.obs import analyze
from repro.obs.analyze import (
    COLLECTOR,
    HIST_BINS,
    MAX_HAZARDS,
    MAX_SECTIONS,
    ArchAccumulator,
    ArchCollector,
    accumulate_events,
    summary_from_accumulator,
)
from repro.obs.recorder import MemoryRecorder
from repro.power.schedules import ExponentialPower
from repro.sim.fast import simulate_fast
from repro.sim.simulator import IntermittentSimulator
from repro.workloads import get_trace

CONFIGS = [(1, 0, 0, 0), (8, 4, 2, 0), (16, 8, 4, 4)]

#: Slot fields both engines must agree on.  ``occ_peak``/``sections_seen``
#: are deliberately absent: section peaks come from the section walk's
#: per-section scans only (DESIGN decision 11).
ENGINE_INDEPENDENT = (
    "causes", "checkpoint_cycles_by_cause", "commits", "occ_commit",
    "hazards_top", "hazards_dropped", "section_accesses", "section_cycles",
)


@pytest.fixture(autouse=True)
def clean_collector():
    """Every test starts and ends with the shared collector off."""
    COLLECTOR.disable()
    COLLECTOR.reset()
    yield
    COLLECTOR.disable()
    COLLECTOR.reset()


def collected(engine, trace, config, seed=1, on=800, pi=False):
    """(result, one-slot summary) for one run with the collector on."""
    COLLECTOR.reset()
    COLLECTOR.enable()
    kw = dict(verify=False, perf_watchdog="auto", progress_watchdog="auto")
    if pi:
        kw["pi_words"] = pi_words_for(trace)
    try:
        if engine == "reference":
            result = IntermittentSimulator(
                trace, config, ExponentialPower(on, seed), **kw
            ).run()
        else:
            result = simulate_fast(
                trace, config, ExponentialPower(on, seed), **kw
            )
    finally:
        COLLECTOR.disable()
    summary = COLLECTOR.to_summary()
    [(config_label, slot)] = [
        (c, s)
        for configs in summary["workloads"].values()
        for c, s in configs.items()
    ]
    return result, slot


class TestDisabledByDefault:
    def test_module_collector_starts_disabled(self):
        assert not ArchCollector().enabled

    def test_run_accumulator_is_none_when_off(self):
        assert COLLECTOR.run_accumulator() is None
        COLLECTOR.enable()
        assert COLLECTOR.run_accumulator() is not None

    def test_disabled_folds_are_noops(self):
        COLLECTOR.fold_run("crc", "c", ArchAccumulator(), "fast")
        COLLECTOR.fold_causes("crc", "c", {"final": 1}, "undo")
        COLLECTOR.fold_stalled("crc", "c")
        assert COLLECTOR.to_summary()["totals"]["runs"] == 0


class TestEngineReconciliation:
    """Fast-vs-reference equality on the shapes the evaluation sweeps."""

    @pytest.mark.parametrize("name", ["crc", "qsort"])
    @pytest.mark.parametrize("spec", CONFIGS)
    @pytest.mark.parametrize("pi", [False, True])
    def test_grid(self, name, spec, pi):
        trace = get_trace(name, "small")
        config = ClankConfig.from_tuple(spec)
        ref, a = collected("reference", trace, config, pi=pi)
        fast, b = collected("fast", trace, config, pi=pi)
        assert ref.to_dict(include_derived=False) == fast.to_dict(
            include_derived=False
        )
        for field in ENGINE_INDEPENDENT:
            assert a[field] == b[field], field
        assert a["runs_by_engine"] == {"reference": 1}
        # Without the kernel the fast-path run goes to the reference.
        walked = "fast" if cext.chain_scan_lib() is not None else "reference"
        assert b["runs_by_engine"] == {walked: 1}

    @pytest.mark.parametrize("spec", CONFIGS)
    def test_causes_match_result_exactly(self, spec):
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple(spec)
        for engine in ("reference", "fast"):
            result, slot = collected(engine, trace, config)
            nonzero = {
                k: v for k, v in result.checkpoints_by_cause.items() if v
            }
            assert slot["causes"] == dict(sorted(nonzero.items()))
            assert slot["commits"] == result.num_checkpoints

    @pytest.mark.parametrize("opts", [
        PolicyOptimizations.none(),
        PolicyOptimizations.all(),
        PolicyOptimizations(latest_checkpoint=True),
    ])
    def test_policy_optimizations(self, opts):
        trace = get_trace("qsort", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0), optimizations=opts)
        _, a = collected("reference", trace, config)
        _, b = collected("fast", trace, config)
        for field in ENGINE_INDEPENDENT:
            assert a[field] == b[field], field

    def test_reference_without_kernel_matches_c(self, monkeypatch):
        # Without the kernel the same run is the reference's: every
        # engine-independent field agrees, and only the walk has section
        # peaks to report.
        if cext.chain_scan_lib() is None:
            pytest.skip(f"C kernel unavailable: {cext.cext_status()}")
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        _, with_c = collected("fast", trace, config)
        monkeypatch.setenv("REPRO_CEXT", "0")
        cext.reset_for_tests()
        try:
            _, pure = collected("fast", trace, config)
        finally:
            monkeypatch.delenv("REPRO_CEXT")
            cext.reset_for_tests()
        for field in ENGINE_INDEPENDENT:
            assert with_c[field] == pure[field], field
        assert with_c["runs_by_engine"] == {"fast": 1}
        assert pure["runs_by_engine"] == {"reference": 1}
        assert with_c["sections_seen"] > 0 == pure["sections_seen"]

    def test_hazard_addresses_attributed(self):
        # A 1-entry RF with no other buffers trips constantly; the
        # tripping word address must surface identically in both engines.
        trace = get_trace("qsort", "small")
        config = ClankConfig.from_tuple((1, 0, 0, 0))
        _, a = collected("reference", trace, config)
        _, b = collected("fast", trace, config)
        assert a["hazards_top"], "expected hazard attribution"
        assert a["hazards_top"] == b["hazards_top"]
        for h in a["hazards_top"]:
            assert h["waddr"].startswith("0x")
            assert h["cause"] in analyze.HAZARD_CAUSES


class TestEventSeam:
    def test_recorder_stream_reproduces_direct_fold(self):
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        _, direct = collected("reference", trace, config)
        rec = MemoryRecorder()
        IntermittentSimulator(
            trace, config, ExponentialPower(800, 1), verify=False,
            perf_watchdog="auto", progress_watchdog="auto", recorder=rec,
        ).run()
        acc = accumulate_events(rec.events)
        summary = summary_from_accumulator(acc, "crc", config.label())
        [slot] = [
            s
            for configs in summary["workloads"].values()
            for s in configs.values()
        ]
        for field in ENGINE_INDEPENDENT:
            assert slot[field] == direct[field], field


class TestParallelDeterminism:
    def jobs(self):
        return [
            SimJob(workload=w, config=c, size="tiny", salt=s)
            for w in ("crc", "qsort")
            for c in ((1, 0, 0, 0), (8, 4, 2, 0))
            for s in (0, 1)
        ]

    def sweep(self):
        settings = EvalSettings(size="small", sweep_size="tiny", seed=2)
        COLLECTOR.reset()
        COLLECTOR.enable()
        try:
            results = run_jobs(self.jobs(), settings)
        finally:
            COLLECTOR.disable()
        return results, COLLECTOR.to_summary()

    def test_cause_totals_match_summed_results(self):
        results, summary = self.sweep()
        assert summary["totals"]["runs"] == len(self.jobs())
        expected = {}
        for result in results:
            for cause, n in result.checkpoints_by_cause.items():
                if n:
                    expected[cause] = expected.get(cause, 0) + n
        assert summary["totals"]["causes"] == dict(sorted(expected.items()))

    def test_undo_engine_folds_cause_totals(self):
        settings = EvalSettings(size="small", sweep_size="tiny", seed=2)
        job = SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny",
                     engine="undo", log_entries=8)
        COLLECTOR.reset()
        COLLECTOR.enable()
        try:
            result, _ = execute_job(job, settings)
        finally:
            COLLECTOR.disable()
        totals = COLLECTOR.cause_totals()
        nonzero = {k: v for k, v in result.checkpoints_by_cause.items() if v}
        assert totals == nonzero
        assert COLLECTOR.run_totals() == {"undo": 1}

    def test_disk_cached_results_fold_cause_totals(self, tmp_path,
                                                   monkeypatch):
        import repro.cache as artifact_cache
        from repro.sim.sections import clear_cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        artifact_cache.reset_for_tests()
        clear_cache()
        try:
            settings = EvalSettings(size="small", sweep_size="tiny", seed=2)
            job = SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny")
            cold, _ = execute_job(job, settings)
            COLLECTOR.reset()
            COLLECTOR.enable()
            try:
                warm, _ = execute_job(job, settings)
            finally:
                COLLECTOR.disable()
            assert warm.to_dict() == cold.to_dict()
            assert COLLECTOR.run_totals() == {"disk-cached-result": 1}
            nonzero = {
                k: v for k, v in warm.checkpoints_by_cause.items() if v
            }
            assert COLLECTOR.cause_totals() == nonzero
        finally:
            artifact_cache.reset_for_tests()
            clear_cache()


class TestBoundedMemory:
    def test_histogram_overflow_bin(self):
        acc = ArchAccumulator()
        acc.record_commit("violation", (200, 0, 0, 0), None, 1, 1, 1)
        assert acc.occ_commit["rf"][HIST_BINS - 1] == 1
        stats = analyze._hist_stats(acc.occ_commit["rf"])
        assert stats["max"] == f"{HIST_BINS - 1}+"

    def test_hazard_table_caps_with_dropped_counter(self):
        acc = ArchAccumulator()
        for waddr in range(MAX_HAZARDS + 10):
            acc.record_commit("rf_full", (0, 0, 0, 0), waddr, 1, 1, 1)
        assert len(acc.hazards) == MAX_HAZARDS
        assert acc.hazards_dropped == 10
        # Existing keys still count after the cap.
        acc.record_commit("rf_full", (0, 0, 0, 0), 0, 1, 1, 1)
        assert acc.hazards[(0, "rf_full")] == 2

    def test_section_table_caps_with_dropped_counter(self):
        acc = ArchAccumulator()
        for key in range(MAX_SECTIONS + 5):
            acc.record_section(key, (1, 0, 0, 0))
        assert len(acc.sections) == MAX_SECTIONS
        assert acc.sections_dropped == 5
        # Re-recording a seen key is idempotent, not a drop.
        acc.record_section(0, (1, 0, 0, 0))
        assert acc.sections_dropped == 5

    def test_merge_and_round_trip(self):
        a = ArchAccumulator()
        a.record_commit("violation", (3, 1, 0, 2), 0x40, 7, 50, 40)
        a.record_section(12, (4, 1, 0, 2))
        b = ArchAccumulator()
        b.record_commit("violation", (2, 0, 0, 1), 0x40, 5, 30, 40)
        b.record_commit("final", (0, 0, 0, 0), None, 1, 10, 40)
        b.record_section(12, (4, 1, 0, 2))
        b.record_section(16, (1, 0, 0, 0))
        a.merge(b)
        assert a.commits == 3
        assert a.causes == {"violation": 2, "final": 1}
        assert a.hazards == {(0x40, "violation"): 2}
        assert set(a.sections) == {12, 16}


class TestCli:
    def summary_path(self, tmp_path, workload="crc"):
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple((1, 0, 0, 0))
        COLLECTOR.reset()
        COLLECTOR.enable()
        try:
            simulate_fast(trace, config, ExponentialPower(800, 1),
                          verify=False, perf_watchdog="auto",
                          progress_watchdog="auto")
        finally:
            COLLECTOR.disable()
        summary = COLLECTOR.to_summary()
        if workload != "crc":
            summary["workloads"][workload] = summary["workloads"].pop("crc")
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(summary))
        return str(path)

    def test_text_report(self, tmp_path, capsys):
        assert analyze.main([self.summary_path(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "architecture report" in out
        assert "crc" in out

    def test_json_round_trip(self, tmp_path, capsys):
        assert analyze.main([self.summary_path(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == analyze.SCHEMA
        assert doc["totals"]["runs"] == 1

    def test_html_escapes_workload_names(self, tmp_path):
        path = self.summary_path(tmp_path, workload="<script>x</script>")
        html_path = tmp_path / "arch.html"
        assert analyze.main([path, "--html", str(html_path)]) == 0
        html_out = html_path.read_text()
        assert "<script>" not in html_out
        assert "&lt;script&gt;" in html_out

    def test_event_log_input(self, tmp_path, capsys):
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        rec = MemoryRecorder()
        result = IntermittentSimulator(
            trace, config, ExponentialPower(800, 1), verify=False,
            perf_watchdog="auto", progress_watchdog="auto", recorder=rec,
        ).run()
        path = tmp_path / "events.jsonl"
        with path.open("w") as fh:
            for event in rec.events:
                fh.write(json.dumps(event.to_dict()) + "\n")
        assert analyze.main([str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["commits"] == result.num_checkpoints

    def test_bad_input_is_error(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text('{"not": "a summary"}\n')
        assert analyze.main([str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_error(self, tmp_path, capsys):
        assert analyze.main([str(tmp_path / "absent.json")]) == 2
        assert "error" in capsys.readouterr().err
