"""Run-provenance telemetry: records, determinism, non-interference.

The contract under test (see :mod:`repro.obs.telemetry`):

* one record per run at the dispatch point, carrying engine / typed
  fallback reason / kernel / cache-tier outcome;
* a sweep's ledger is identical at any worker count, modulo the
  wall-time fields (``wall_s``, ``t_start``, ``worker``);
* enabling the ledger never changes which engine runs or what it
  returns;
* the ledger's engine counts reconcile exactly with the fast-path
  dispatch counters and the disk-cache hit counts.
"""

import dataclasses
import importlib
import json
import re

import pytest

import repro.cache as artifact_cache
from repro.core import cext
from repro.core.config import ClankConfig
from repro.eval.parallel import SimJob, run_jobs
from repro.eval.settings import EvalSettings
from repro.obs import telemetry
from repro.obs.metrics import COUNTERS
from repro.obs.telemetry import LEDGER, FallbackReason, RunRecord
from repro.sim import fast, sections
from repro.sim.fast import dispatch_stats, simulate_fast
from repro.workloads.cache import get_trace

QUICK = EvalSettings(size="small", sweep_size="tiny", seed=2)

WORKLOADS = ("crc", "qsort")
CONFIGS = ((1, 0, 0, 0), (8, 4, 2, 0))
SALTS = (0, 1)


def grid_jobs():
    return [
        SimJob(workload=w, config=c, size="tiny", salt=s)
        for w in WORKLOADS
        for c in CONFIGS
        for s in SALTS
    ]


@pytest.fixture(autouse=True)
def _clean_telemetry(monkeypatch):
    """Every test gets a quiet ledger, fresh counters, and no disk cache."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    artifact_cache.reset_for_tests()
    LEDGER.disable()
    LEDGER.reset()
    COUNTERS.reset()
    yield
    LEDGER.disable()
    LEDGER.reset()
    artifact_cache.reset_for_tests()
    COUNTERS.reset()


class TestRunRecord:
    def test_dict_round_trip(self):
        rec = RunRecord(
            workload="crc", config="8,4,2,0", engine="fast", kernel="c",
            size="tiny", salt=3, driver="fig5", wall_s=0.25,
            t_start=1.5, worker=1234, index=7,
        )
        d = rec.to_dict()
        assert d["type"] == "run"
        assert RunRecord.from_dict(d) == rec

    def test_from_dict_ignores_unknown_fields(self):
        rec = RunRecord.from_dict(
            {"type": "run", "workload": "crc", "config": "1,0,0,0",
             "engine": "fast", "added_in_v2": "ignored"}
        )
        assert rec.workload == "crc"

    def test_stable_dict_drops_wall_time_fields(self):
        rec = RunRecord(
            workload="crc", config="1,0,0,0", engine="fast",
            wall_s=0.5, t_start=2.0, worker=999,
        )
        stable = rec.stable_dict()
        for key in telemetry.WALL_TIME_FIELDS:
            assert key not in stable
        assert stable["workload"] == "crc"


class TestRunLedger:
    def test_disabled_record_is_a_noop(self):
        LEDGER.record(RunRecord(workload="w", config="c", engine="fast"))
        assert LEDGER.records == []

    def test_record_assigns_submission_index(self):
        LEDGER.enable()
        for _ in range(3):
            LEDGER.record(RunRecord(workload="w", config="c", engine="fast"))
        assert [r.index for r in LEDGER.records] == [0, 1, 2]

    def test_driver_phase_tags_records_and_marks(self):
        LEDGER.enable()
        with LEDGER.driver_phase("fig9"):
            LEDGER.record(RunRecord(workload="w", config="c", engine="fast",
                                    driver=LEDGER.driver))
        assert LEDGER.records[0].driver == "fig9"
        assert LEDGER.driver is None
        [mark] = LEDGER.driver_marks
        assert mark["name"] == "fig9"
        assert mark["t1"] >= mark["t0"]

    def test_counts(self):
        LEDGER.enable()
        LEDGER.record(RunRecord(workload="a", config="c", engine="fast",
                                kernel="c"))
        LEDGER.record(RunRecord(workload="b", config="c", engine="reference",
                                fallback_reason="verify"))
        assert LEDGER.engine_counts() == {"fast": 1, "reference": 1}
        assert LEDGER.fallback_counts() == {"verify": 1}
        assert LEDGER.kernel_counts() == {"c": 1}
        assert LEDGER.result_cache_counts() == {"off": 2}


class TestLedgerFile:
    def _populate(self):
        LEDGER.enable()
        with LEDGER.driver_phase("fig5"):
            LEDGER.record(RunRecord(workload="crc", config="1,0,0,0",
                                    engine="fast", kernel="c",
                                    driver=LEDGER.driver))

    def test_write_read_round_trip(self, tmp_path):
        self._populate()
        path = str(tmp_path / "ledger.jsonl")
        LEDGER.write_jsonl(path, header={"jobs": 2}, footer={"wall_clock_s": 1})
        loaded = telemetry.read_ledger(path)
        assert loaded.header["jobs"] == 2
        assert loaded.header["version"] == 1
        assert loaded.footer["wall_clock_s"] == 1
        assert loaded.footer["engines"] == {"fast": 1}
        assert [m["name"] for m in loaded.drivers] == ["fig5"]
        assert loaded.stable_records() == LEDGER.stable_records()

    def test_read_rejects_event_logs_with_line_number(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "power_failure", "t": 3}\n')
        with pytest.raises(ValueError, match="events.jsonl:1"):
            telemetry.read_ledger(str(path))

    def test_read_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"type": "sweep_start", "version": 1}\nnot json\n')
        with pytest.raises(ValueError, match="broken.jsonl:2"):
            telemetry.read_ledger(str(path))

    def test_is_ledger_file(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text('{"type": "sweep_start", "version": 1}\n')
        events = tmp_path / "events.jsonl"
        events.write_text('{"kind": "power_failure"}\n')
        assert telemetry.is_ledger_file(str(ledger))
        assert not telemetry.is_ledger_file(str(events))
        assert not telemetry.is_ledger_file(str(tmp_path / "missing.jsonl"))


class TestDispatchCounters:
    def _run(self, verify=False):
        trace = get_trace("crc", size="tiny")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        return simulate_fast(trace, config, QUICK.schedule(0), verify=verify)

    def test_fast_run_ticks_fast_and_sets_last(self):
        self._run()
        stats = dispatch_stats()
        assert stats["fast"] == 1
        assert stats["fallback"] == 0
        assert fast.last_dispatch() == ("fast", None)

    def test_verify_fallback_is_typed(self):
        self._run(verify=True)
        stats = dispatch_stats()
        assert stats["reasons"][FallbackReason.VERIFY.value] == 1
        assert stats["fallback"] == 1
        assert fast.last_dispatch() == ("reference", "verify")

    def test_merge_dispatch_stats(self):
        self._run()
        COUNTERS.merge({"dispatch.fast": 2, "dispatch.reasons.verify": 3})
        stats = dispatch_stats()
        assert stats["fast"] == 3
        assert stats["reasons"]["verify"] == 3


class TestSweepTelemetry:
    @pytest.mark.slow
    def test_ledger_deterministic_across_worker_counts(self):
        """The tentpole contract: jobs=1 and jobs=4 produce identical
        ledgers modulo the wall-time fields."""
        jobs = grid_jobs()
        LEDGER.reset()
        LEDGER.enable()
        run_jobs(jobs, QUICK, n_workers=1)
        serial = LEDGER.stable_records()
        LEDGER.reset()
        run_jobs(jobs, QUICK, n_workers=4)
        pooled = LEDGER.stable_records()
        assert len(serial) == len(jobs)
        assert serial == pooled

    @pytest.mark.slow
    def test_telemetry_never_flips_engine_decisions(self):
        """Same jobs with the ledger off and on: identical results and
        identical dispatch deltas."""
        jobs = grid_jobs()
        off = run_jobs(jobs, QUICK, n_workers=2)
        stats_off = dispatch_stats()
        COUNTERS.reset()
        LEDGER.reset()
        LEDGER.enable()
        on = run_jobs(jobs, QUICK, n_workers=2)
        stats_on = dispatch_stats()
        assert [r.to_dict() for r in off] == [r.to_dict() for r in on]
        assert stats_off == stats_on
        assert [r.engine for r in LEDGER.records].count("fast") == \
            stats_on["fast"]

    def test_ledger_reconciles_with_dispatch_stats(self):
        jobs = grid_jobs()
        LEDGER.enable()
        run_jobs(jobs, QUICK, n_workers=1)
        stats = dispatch_stats()
        engines = LEDGER.engine_counts()
        assert engines.get("fast", 0) == stats["fast"]
        assert engines.get("reference", 0) == stats["fallback"]
        assert sum(engines.values()) == len(jobs)

    def test_records_carry_kernel_and_salt(self):
        LEDGER.enable()
        run_jobs(grid_jobs()[:2], QUICK, n_workers=1)
        for rec in LEDGER.records:
            assert rec.size == "tiny"
            if rec.engine == "fast":
                assert rec.kernel in ("c", "python")


class TestDiskCacheProvenance:
    def test_cache_hit_recorded_as_cached_engine(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        artifact_cache.reset_for_tests()
        sections.clear_cache()
        jobs = grid_jobs()[:2]
        try:
            LEDGER.enable()
            run_jobs(jobs, QUICK, n_workers=1)
            artifact_cache.persist_caches()
            cold = [(r.engine, r.result_cache) for r in LEDGER.records]
            assert all(cache == "miss" for _, cache in cold)

            LEDGER.reset()
            warm = run_jobs(jobs, QUICK, n_workers=1)
            hits = [(r.engine, r.result_cache) for r in LEDGER.records]
            assert hits == [("disk-cached-result", "hit")] * len(jobs)
            assert all(r is not None for r in warm)
            # Ledger reconciliation: cached runs never tick dispatch.
            stats = artifact_cache.stats()
            assert LEDGER.engine_counts()["disk-cached-result"] <= \
                stats["hits"]
        finally:
            sections.clear_cache()

    def test_verify_runs_bypass_result_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        artifact_cache.reset_for_tests()
        sections.clear_cache()
        try:
            LEDGER.enable()
            run_jobs(grid_jobs()[:1],
                     dataclasses.replace(QUICK, verify=True), n_workers=1)
            [rec] = LEDGER.records
            assert rec.result_cache == "off"
            assert rec.engine == "reference"
            assert rec.fallback_reason == "verify"
        finally:
            sections.clear_cache()


class TestCliLedger:
    def test_eval_writes_reconciled_ledger(self, tmp_path, capsys):
        """`python -m repro.eval` emits a ledger whose counts reconcile
        with the dispatch counters it prints."""
        from repro.eval.__main__ import main

        path = str(tmp_path / "ledger.jsonl")
        assert main(["table3", "--quick", "--ledger", path]) == 0
        out = capsys.readouterr().out
        assert "[ledger:" in out
        loaded = telemetry.read_ledger(path)
        assert loaded.header["experiments"] == ["table3"]
        assert loaded.footer["runs"] == len(loaded.records) > 0
        dispatch = loaded.footer["dispatch"]
        engines = loaded.footer["engines"]
        assert engines.get("fast", 0) == dispatch["fast"]
        assert engines.get("reference", 0) == dispatch["fallback"]
        assert [m["name"] for m in loaded.drivers] == ["table3"]
        # The shared ledger is switched back off after the CLI run.
        assert not LEDGER.enabled

    def test_quick_run_without_flag_writes_no_ledger(self, tmp_path,
                                                     monkeypatch, capsys):
        from repro.eval.__main__ import main

        monkeypatch.chdir(tmp_path)
        assert main(["table3", "--quick"]) == 0
        assert not (tmp_path / "results").exists()

    def test_profile_runs_equal_ledger_rows(self, tmp_path, capsys):
        """The profile's simulator section is summed from the ledger, so
        its run count is the ledger's row count."""
        from repro.eval.__main__ import main

        path = str(tmp_path / "ledger.jsonl")
        assert main(["table4", "--quick", "--ledger", path]) == 0
        out = capsys.readouterr().out
        runs = re.search(r"simulator time by workload \((\d+) runs", out)
        loaded = telemetry.read_ledger(path)
        assert runs is not None
        assert int(runs.group(1)) == loaded.footer["rows"] == 6


#: The Clank cells of Tables 3 and 4 at ``--quick`` settings, one ledger
#: record each, in row order: (workload, config, engine, fallback
#: reason, salt).  Table 4's mixed-volatility rows fall back to the
#: reference simulator; every other cell takes the fast path.
TABLE_CELLS = {
    "table3": [("fft", "16,8,4,4", "fast", None, 7)],
    "table4": [
        ("ds", "1,0,0,0", "reference", "volatile_ranges", 4),
        ("ds", "1,0,1,1", "reference", "volatile_ranges", 4),
        ("ds", "16,4,4,2", "reference", "volatile_ranges", 4),
        ("ds", "1,0,0,0", "fast", None, 4),
        ("ds", "1,0,1,1", "fast", None, 4),
        ("ds", "16,4,4,2", "fast", None, 4),
    ],
}


class TestTableDriverLedgers:
    @pytest.mark.parametrize("name", sorted(TABLE_CELLS))
    def test_clank_cells_recorded_in_order(self, name):
        module = importlib.import_module(f"repro.eval.{name}")
        LEDGER.enable()
        with LEDGER.driver_phase(name):
            module.run(EvalSettings().quick())
        kernel = "c" if cext.chain_scan_lib() is not None else "python"
        assert LEDGER.stable_records() == [
            {
                "workload": workload, "config": config, "engine": engine,
                "fallback_reason": reason,
                "kernel": kernel if engine == "fast" else None,
                "result_cache": "off", "size": "small", "salt": salt,
                "driver": name, "stalled": False, "rows": 1, "index": i,
            }
            for i, (workload, config, engine, reason, salt)
            in enumerate(TABLE_CELLS[name])
        ]
        assert all(rec.wall_s > 0.0 for rec in LEDGER.records)
