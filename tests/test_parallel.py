"""Parallel sweep engine: determinism, serial fallback, payload merge."""

import pytest

import repro.cache as artifact_cache
from repro.core import cext
from repro.core.config import ClankConfig, PolicyOptimizations
from repro.eval import parallel
from repro.eval.parallel import SimJob, execute_job, resolve_workers, run_jobs
from repro.eval.settings import EvalSettings
from repro.obs.metrics import COUNTERS
from repro.obs.telemetry import LEDGER
from repro.sim import sections
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

    def test_heavy_workloads_outweigh_default(self):
        heavy = SimJob(workload="aes", config=(1, 0, 0, 0))
        unknown = SimJob(workload="crc", config=(1, 0, 0, 0))
        assert heavy.weight() > unknown.weight()

    def test_descriptors_are_tiny(self):
        import pickle

        blob = pickle.dumps(SimJob(workload="aes", config=(16, 8, 4, 4)))
        assert len(blob) < 1024  # a trace would be megabytes


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_workers(None) == 5

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_workers(None) == 1

    def test_zero_means_all_cpus(self):
        import os

        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_garbage_env_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        assert resolve_workers(None) == 1


class TestDeterminism:
    @pytest.mark.slow
    def test_parallel_bit_identical_to_serial(self):
        """The satellite contract: 3 workloads x 4 configs x 2 salts,
        every SimulationResult field equal between jobs=1 and jobs=2."""
        jobs = grid_jobs()
        serial = run_jobs(jobs, QUICK, n_workers=1)
        par = run_jobs(jobs, QUICK, n_workers=2)
        assert len(serial) == len(par) == len(jobs)
        for a, b in zip(serial, par):
            assert a.to_dict() == b.to_dict()

    def test_results_in_submission_order(self):
        jobs = [
            SimJob(workload="crc", config=(1, 0, 0, 0), size="tiny", salt=s)
            for s in range(4)
        ]
        results = run_jobs(jobs, QUICK, n_workers=2)
        # Different salts give different schedules, hence different runs;
        # order must follow submission, not completion.
        expected = [execute_job(j, QUICK)[0] for j in jobs]
        assert [r.to_dict() for r in results] == [
            e.to_dict() for e in expected
        ]


class TestSerialFallback:
    def test_jobs1_never_creates_a_pool(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("serial path must not build a pool")

        monkeypatch.setattr(parallel, "_make_pool", boom)
        jobs = grid_jobs()[:3]
        results = run_jobs(jobs, QUICK, n_workers=1)
        assert all(r is not None for r in results)

    def test_single_job_stays_serial_even_with_workers(self, monkeypatch):
        monkeypatch.setattr(
            parallel,
            "_make_pool",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("pool")),
        )
        [result] = run_jobs(grid_jobs()[:1], QUICK, n_workers=4)
        assert result is not None

    def test_serial_matches_execute_job(self):
        job = SimJob(workload="qsort", config=(8, 4, 2, 0), size="tiny")
        [from_engine] = run_jobs([job], QUICK, n_workers=1)
        direct, _ = execute_job(job, QUICK)
        assert from_engine.to_dict() == direct.to_dict()


def _ledger_runs(jobs, settings, n_workers):
    """The ledger records one ``run_jobs`` call appends, as
    ``{workload: [Σ rows, Σ wall_s]}``."""
    LEDGER.reset()
    LEDGER.enable()
    try:
        run_jobs(jobs, settings, n_workers=n_workers)
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
    def test_parallel_run_merges_sim_time_and_worker_cache(self):
        COUNTERS.reset()
        jobs = [
            SimJob(workload="crc", config=(1, 0, 0, 0), size="tiny", salt=s)
            for s in range(4)
        ]
        runs = _ledger_runs(jobs, QUICK, 2)
        assert runs["crc"][0] == len(jobs)
        assert runs["crc"][1] > 0.0
        # Every job resolved its trace through a worker's cache.
        traces = trace_cache.cache_stats()
        assert traces["hits"] + traces["misses"] == len(jobs)

    def test_ledger_off_skips_sim_accounting(self):
        jobs = [
            SimJob(workload="crc", config=(1, 0, 0, 0), size="tiny", salt=s)
            for s in range(2)
        ]
        LEDGER.disable()
        LEDGER.reset()
        for n_workers in (1, 2):
            run_jobs(jobs, QUICK, n_workers=n_workers)
            assert LEDGER.records == []

    def test_run_counts_equal_pooled_and_serial(self):
        jobs = grid_jobs()[:8] + [
            SimJob(workload="qsort", config=(8, 4, 2, 0), size="tiny",
                   salt=5, n_seeds=3),
            SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny",
                   volatile_segments=("stack",)),
        ]
        serial = _ledger_runs(jobs, QUICK, 1)
        pooled = _ledger_runs(jobs, QUICK, 2)
        expected = {}
        for job in jobs:
            expected[job.workload] = expected.get(job.workload, 0) + \
                max(1, job.n_seeds)
        assert {w: acc[0] for w, acc in serial.items()} == expected
        assert {w: acc[0] for w, acc in pooled.items()} == expected
        assert all(acc[1] > 0.0 for acc in serial.values())
        assert all(acc[1] > 0.0 for acc in pooled.values())

    def test_counters_equal_pooled_and_serial(self, monkeypatch, tmp_path):
        # Every pooled job's counter delta folds into the parent, so the
        # registry totals match a serial run (trace-cache counts and
        # seconds aside: each worker builds its own traces).
        jobs = grid_jobs()[:8] + [
            SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny",
                   salt=5, n_seeds=3),
            SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny",
                   volatile_segments=("stack",)),
        ]
        names = ("sections.hits", "sections.misses",
                 "sections.family_passes", "sections.family_maps",
                 "dispatch.fast", "batch.rows_batched", "cache.puts")
        totals = []
        try:
            for n_workers in (1, 2):
                monkeypatch.setenv("REPRO_CACHE_DIR",
                                   str(tmp_path / str(n_workers)))
                artifact_cache.reset_for_tests()
                sections.clear_cache()
                COUNTERS.reset()
                run_jobs(jobs, QUICK, n_workers=n_workers)
                artifact_cache.persist_caches()
                snap = COUNTERS.snapshot()
                totals.append({
                    name: value for name, value in snap.items()
                    if name in names or name.startswith("dispatch.reasons.")
                })
        finally:
            monkeypatch.delenv("REPRO_CACHE_DIR")
            artifact_cache.reset_for_tests()
            sections.clear_cache()
        serial, pooled = totals
        assert serial["dispatch.fast"] and serial["cache.puts"]
        assert serial["dispatch.reasons.volatile_ranges"] == 1
        if cext.chain_scan_lib() is not None:
            assert serial["batch.rows_batched"]
            assert serial["sections.family_maps"]
        assert pooled == serial


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
        [result] = run_jobs([job], QUICK, n_workers=1)
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
            run_jobs([job], QUICK, n_workers=1)
