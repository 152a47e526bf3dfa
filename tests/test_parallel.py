"""Sweep engine: submission order, ledger accounting, stall handling."""

import pytest

from repro.core.config import ClankConfig, PolicyOptimizations
from repro.eval.parallel import SimJob, execute_job, run_jobs
from repro.eval.settings import EvalSettings
from repro.obs.metrics import COUNTERS
from repro.obs.telemetry import LEDGER
from repro.workloads import cache as trace_cache

QUICK = EvalSettings(size="small", sweep_size="tiny", seed=2)

WORKLOADS = ("crc", "qsort", "aes")
CONFIGS = ((1, 0, 0, 0), (8, 8, 0, 0), (8, 4, 2, 0), (16, 8, 4, 4))
SALTS = (0, 1)


def grid_jobs():
    """The 3 workloads x 4 configs x 2 salts determinism grid."""
    return [
        SimJob(workload=w, config=c, size="tiny", salt=s)
        for w in WORKLOADS
        for c in CONFIGS
        for s in SALTS
    ]


class TestSimJob:
    def test_clank_config_round_trip(self):
        job = SimJob(workload="crc", config=(8, 4, 2, 0))
        assert job.clank_config() == ClankConfig.from_tuple((8, 4, 2, 0))

    def test_opts_and_prefix_bits(self):
        opts = PolicyOptimizations.none()
        job = SimJob(
            workload="crc", config=(16, 8, 4, 2), opts=opts, prefix_low_bits=4
        )
        config = job.clank_config()
        assert config.optimizations == opts
        assert config.prefix_low_bits == 4

    def test_descriptors_are_tiny(self):
        import pickle

        blob = pickle.dumps(SimJob(workload="aes", config=(16, 8, 4, 4)))
        assert len(blob) < 1024  # a trace would be megabytes


class TestDeterminism:
    def test_results_in_submission_order(self):
        jobs = [
            SimJob(workload="crc", config=(1, 0, 0, 0), size="tiny", salt=s)
            for s in range(4)
        ]
        results = run_jobs(jobs, QUICK)
        # Different salts give different schedules, hence different runs;
        # order must follow submission.
        expected = [execute_job(j, QUICK)[0] for j in jobs]
        assert [r.to_dict() for r in results] == [
            e.to_dict() for e in expected
        ]


class TestSerialFallback:
    def test_serial_matches_execute_job(self):
        job = SimJob(workload="qsort", config=(8, 4, 2, 0), size="tiny")
        [from_engine] = run_jobs([job], QUICK)
        direct, _ = execute_job(job, QUICK)
        assert from_engine.to_dict() == direct.to_dict()


def _ledger_runs(jobs, settings):
    """The ledger records one ``run_jobs`` call appends, as
    ``{workload: [Σ rows, Σ wall_s]}``."""
    LEDGER.reset()
    LEDGER.enable()
    try:
        run_jobs(jobs, settings)
        by_workload = {}
        for rec in LEDGER.records:
            acc = by_workload.setdefault(rec.workload, [0, 0.0])
            acc[0] += rec.rows
            acc[1] += rec.wall_s
        return by_workload
    finally:
        LEDGER.disable()
        LEDGER.reset()


class TestProfilerMerge:
    def test_run_records_sim_time_and_trace_cache(self):
        COUNTERS.reset()
        jobs = [
            SimJob(workload="crc", config=(1, 0, 0, 0), size="tiny", salt=s)
            for s in range(4)
        ]
        runs = _ledger_runs(jobs, QUICK)
        assert runs["crc"][0] == len(jobs)
        assert runs["crc"][1] > 0.0
        # Every job resolved its trace through the trace cache.
        traces = trace_cache.cache_stats()
        assert traces["hits"] + traces["misses"] == len(jobs)

    def test_ledger_off_skips_sim_accounting(self):
        jobs = [
            SimJob(workload="crc", config=(1, 0, 0, 0), size="tiny", salt=s)
            for s in range(2)
        ]
        LEDGER.disable()
        LEDGER.reset()
        run_jobs(jobs, QUICK)
        assert LEDGER.records == []

    def test_run_counts_match_jobs(self):
        jobs = grid_jobs()[:8] + [
            SimJob(workload="qsort", config=(8, 4, 2, 0), size="tiny",
                   salt=5, n_seeds=3),
            SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny",
                   volatile_segments=("stack",)),
        ]
        runs = _ledger_runs(jobs, QUICK)
        expected = {}
        for job in jobs:
            expected[job.workload] = expected.get(job.workload, 0) + \
                max(1, job.n_seeds)
        assert {w: acc[0] for w, acc in runs.items()} == expected
        assert all(acc[1] > 0.0 for acc in runs.values())

class TestStallHandling:
    def test_allow_stall_returns_none(self):
        # An impossible supply: restart can never fit in the on-time.
        job = SimJob(
            workload="crc",
            config=(16, 8, 4, 4),
            size="tiny",
            schedule="runt",
            runt_mean=2,
            runt_fraction=1.0,
            max_power_cycles=50,
            allow_stall=True,
        )
        [result] = run_jobs([job], QUICK)
        assert result is None

    def test_stall_raises_without_flag(self):
        from repro.common.errors import SimulationError

        job = SimJob(
            workload="crc",
            config=(16, 8, 4, 4),
            size="tiny",
            schedule="runt",
            runt_mean=2,
            runt_fraction=1.0,
            max_power_cycles=50,
        )
        with pytest.raises(SimulationError):
            run_jobs([job], QUICK)
