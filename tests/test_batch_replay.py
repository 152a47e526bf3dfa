"""The batched schedule-vector replay: equivalence, fallback, dispatch.

The contract mirrors (and builds on) ``test_fast_replay.py``: a batch of
N schedules through :func:`repro.sim.batch.simulate_batch` must be
*bit-identical*, row for row, to N scalar :func:`repro.sim.fast.
simulate_fast` calls at the same seeds — across buffer configurations,
policy optimizations, PI marking, both chain-scan kernels, and every
fallback route (whole-batch ineligibility, no C kernel, per-row reruns).
The schedules themselves are pinned to the scalar generators: row ``i``
of a :class:`~repro.power.schedules.ScheduleBatch` must equal, draw for
draw, the ``ExponentialPower`` seeded ``base + i*stride``.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.core import cext
from repro.core.config import ClankConfig, PolicyOptimizations
from repro.eval.parallel import SimJob, execute_job, run_jobs
from repro.eval.runner import pi_words_for
from repro.eval.settings import EvalSettings
from repro.obs import telemetry
from repro.obs.analyze import COLLECTOR as ARCH_COLLECTOR
from repro.obs.metrics import COUNTERS
from repro.power.schedules import ExponentialPower
from repro.sim.batch import (
    BatchResult,
    batch_stats,
    simulate_batch,
)
from repro.sim.fast import simulate_fast
from repro.workloads import get_trace

CONFIGS = [(1, 0, 0, 0), (8, 4, 0, 0), (8, 4, 2, 0), (16, 8, 4, 4)]

OPT_COMBOS = [
    PolicyOptimizations.none(),
    PolicyOptimizations.all(),
    PolicyOptimizations(ignore_false_writes=True),
    PolicyOptimizations(latest_checkpoint=True),
    PolicyOptimizations(no_wf_overflow=True, ignore_false_writes=True),
]

_WDTS = dict(perf_watchdog="auto", progress_watchdog="auto")


def _rows(trace, config, mean, base_seed, n, stride=1, **kw):
    """N scalar fast-path result dicts at the batch's row seeds."""
    out = []
    for i in range(n):
        res = simulate_fast(
            trace, config,
            ExponentialPower(mean, seed=base_seed + i * stride),
            verify=False, **kw,
        )
        out.append(res.to_dict(include_derived=False))
    return out


def _batch(trace, config, mean, base_seed, n, stride=1, **kw):
    """The same N rows through one batched replay."""
    schedules = ExponentialPower(mean, seed=base_seed).batch(
        n, 8, seed_stride=stride
    )
    return simulate_batch(trace, config, schedules, verify=False, **kw)


def _batch_dicts(batch):
    return [
        None if r is None else r.to_dict(include_derived=False)
        for r in batch.results
    ]


class TestEquivalence:
    """Batch-of-N vs N scalar calls, across the evaluation's shapes."""

    @pytest.mark.parametrize("name", ["crc", "fft", "rc4", "qsort"])
    def test_buffer_grid(self, name):
        trace = get_trace(name, "small")
        for spec in CONFIGS:
            config = ClankConfig.from_tuple(spec)
            for mean in (800, 2000):
                batch = _batch(trace, config, mean, 11, 4, stride=7, **_WDTS)
                scalar = _rows(trace, config, mean, 11, 4, stride=7, **_WDTS)
                assert _batch_dicts(batch) == scalar, (name, spec, mean)

    def test_optimization_combos(self):
        trace = get_trace("qsort", "small")
        for opts in OPT_COMBOS:
            config = ClankConfig(8, 4, 2, 4, optimizations=opts)
            batch = _batch(trace, config, 1200, 3, 3, **_WDTS)
            scalar = _rows(trace, config, 1200, 3, 3, **_WDTS)
            assert _batch_dicts(batch) == scalar, opts

    def test_pi_marking(self):
        trace = get_trace("rc4", "small")
        piw = pi_words_for(trace)
        config = ClankConfig(8, 4, 2, 0,
                             optimizations=PolicyOptimizations.all())
        kw = dict(pi_words=piw, **_WDTS)
        batch = _batch(trace, config, 1000, 5, 3, **kw)
        scalar = _rows(trace, config, 1000, 5, 3, **kw)
        assert _batch_dicts(batch) == scalar

    def test_tiny_buffers_heavy_watchdog_cuts(self):
        # rf=1 under ignore-false-writes: long sections, frequent
        # watchdog cuts — the shape that exercises the per-row cut-safety
        # check (and its scalar fallback) hardest.
        trace = get_trace("crc", "small")
        config = ClankConfig(
            1, 0, 0, 0,
            optimizations=PolicyOptimizations(ignore_false_writes=True),
        )
        kw = dict(perf_watchdog=0, progress_watchdog="auto")
        batch = _batch(trace, config, 800, 1, 4, **kw)
        scalar = _rows(trace, config, 800, 1, 4, **kw)
        assert _batch_dicts(batch) == scalar

    def test_kernel_toggle_identical(self, monkeypatch):
        # The C row walker and the no-kernel per-row fallback must agree
        # with each other, not just with the scalar engines.
        trace = get_trace("fft", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        monkeypatch.setenv("REPRO_CEXT", "0")
        cext.reset_for_tests()
        try:
            no_c = _batch_dicts(_batch(trace, config, 900, 2, 3, **_WDTS))
            monkeypatch.setenv("REPRO_CEXT", "1")
            cext.reset_for_tests()
            via_c = _batch_dicts(_batch(trace, config, 900, 2, 3, **_WDTS))
        finally:
            cext.reset_for_tests()
        assert no_c == via_c
        assert no_c == _rows(trace, config, 900, 2, 3, **_WDTS)


class TestScheduleBatch:
    """Row ``i`` must be the scalar generator at ``base + i*stride``."""

    def test_rows_pin_to_scalar_generators(self):
        sb = ExponentialPower(900, seed=42).batch(4, 8, seed_stride=3)
        assert sb.seeds == [42, 45, 48, 51]
        for i in range(4):
            scalar = ExponentialPower(900, seed=42 + i * 3)
            draws = [scalar.next_on_time() for _ in range(8)]
            assert list(sb.ontimes[i]) == draws, i

    def test_growth_preserves_draw_order(self):
        sb = ExponentialPower(700, seed=9).batch(3, 4)
        first = [list(row) for row in sb.ontimes]
        sb.ensure_columns(16)
        assert sb.columns == 16
        assert [list(row[:4]) for row in sb.ontimes] == first
        for i in range(3):
            scalar = ExponentialPower(700, seed=9 + i)
            draws = [scalar.next_on_time() for _ in range(16)]
            assert list(sb.ontimes[i]) == draws, i

    def test_salted_seeding_matches_evaluation(self):
        # The evaluation seeds schedules ``seed*1000003 + salt``; row i of
        # a batch with stride s must reproduce the schedule at salt+i*s.
        settings = EvalSettings()
        base = settings.schedule(7)
        sb = base.batch(3, 6, seed_stride=23)
        for i in range(3):
            scalar = settings.schedule(7 + i * 23)
            draws = [scalar.next_on_time() for _ in range(6)]
            assert list(sb.ontimes[i]) == draws, i


class TestFallback:
    """Every route off the row walker must stay bit-exact."""

    def _setup(self):
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        return trace, config

    def test_verify_default_routes_to_reference(self):
        # simulate_batch with no verify kwarg mirrors simulate_fast's
        # dispatch: the reference engine runs, with verification on.
        trace, config = self._setup()
        schedules = ExponentialPower(900, seed=1).batch(2, 8)
        batch = simulate_batch(trace, config, schedules, **_WDTS)
        assert batch.engines == ["reference", "reference"]
        assert all(r.verified for r in batch.results)

    def test_no_cext_falls_back_per_row(self, monkeypatch):
        # Without the C kernel every row runs as a scalar simulate_fast
        # call, counted under one whole-batch reason.
        trace, config = self._setup()
        scalar = _rows(trace, config, 900, 4, 3, **_WDTS)
        monkeypatch.setenv("REPRO_CEXT", "0")
        cext.reset_for_tests()
        try:
            COUNTERS.reset()
            batch = _batch(trace, config, 900, 4, 3, **_WDTS)
            stats = batch_stats()
        finally:
            cext.reset_for_tests()
        assert batch.batch_rows == 0
        assert batch.engines == ["fast"] * 3
        assert _batch_dicts(batch) == scalar
        assert stats["rows_fallback"] == 3
        assert stats["reasons"] == {"no_cext": 3}

    def test_arch_collector_forces_scalar(self):
        # A live architecture collector needs the instrumented engines;
        # the batch must fall back whole and still agree row for row.
        trace, config = self._setup()
        scalar = _rows(trace, config, 900, 2, 2, **_WDTS)
        ARCH_COLLECTOR.reset()
        ARCH_COLLECTOR.enable()
        try:
            batch = _batch(trace, config, 900, 2, 2, **_WDTS)
        finally:
            ARCH_COLLECTOR.disable()
            ARCH_COLLECTOR.reset()
        assert batch.batch_rows == 0
        assert _batch_dicts(batch) == scalar

    def test_stats_account_every_row(self):
        trace, config = self._setup()
        COUNTERS.reset()
        batch = _batch(trace, config, 900, 6, 4, **_WDTS)
        stats = batch_stats()
        assert stats["rows_batched"] + stats["rows_fallback"] == 4
        if cext.chain_scan_lib() is not None:
            assert batch.batch_rows == stats["rows_batched"] > 0


class TestBatchResult:
    def _result(self):
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple((8, 4, 0, 0))
        return _batch(trace, config, 900, 1, 4, **_WDTS)

    def test_round_trip(self):
        batch = self._result()
        clone = BatchResult.from_dict(batch.to_dict())
        assert clone.name == batch.name
        assert clone.config_label == batch.config_label
        assert clone.engines == batch.engines
        assert clone.reasons == batch.reasons
        assert _batch_dicts(clone) == _batch_dicts(batch)
        assert clone.summary_stats() == batch.summary_stats()

    def test_mean_ci(self):
        batch = self._result()
        col = batch.column("checkpoint_overhead")
        mean, half = batch.mean_ci("checkpoint_overhead")
        assert mean == pytest.approx(sum(col) / len(col))
        assert half >= 0.0
        one = BatchResult(name="x", config_label="y",
                          results=batch.results[:1],
                          engines=batch.engines[:1],
                          reasons=batch.reasons[:1])
        assert one.mean_ci("checkpoint_overhead")[1] == 0.0
        empty = BatchResult(name="x", config_label="y")
        nan_mean, nan_half = empty.mean_ci("checkpoint_overhead")
        assert nan_mean != nan_mean and nan_half == 0.0  # NaN mean, 0 CI


class TestSeedRepeatJobs:
    """``SimJob.n_seeds`` through the sweep engine, serial and pooled."""

    def _jobs(self, n_seeds):
        return [
            SimJob(workload=name, config=(8, 4, 2, 0), size="small",
                   salt=5, n_seeds=n_seeds, seed_stride=3)
            for name in ("crc", "rc4")
        ]

    def test_rows_match_scalar_jobs(self):
        settings = EvalSettings(size="small", verify=False)
        batches = run_jobs(self._jobs(3), settings, None)
        for job, batch in zip(self._jobs(3), batches):
            assert isinstance(batch, BatchResult)
            assert batch.rows == 3
            scalar = run_jobs(
                [SimJob(workload=job.workload, config=job.config,
                        size="small", salt=5 + r * 3) for r in range(3)],
                settings, None,
            )
            assert _batch_dicts(batch) == [
                r.to_dict(include_derived=False) for r in scalar
            ]

    def test_parallel_matches_serial(self):
        settings = EvalSettings(size="small", verify=False)
        serial = run_jobs(self._jobs(4), settings, None)
        pooled = run_jobs(self._jobs(4), settings, 2)
        assert [b.to_dict() for b in serial] == [
            b.to_dict() for b in pooled
        ]

    @pytest.mark.parametrize("route", ["kernel", "no_cext", "arch"])
    def test_records_sum_to_job_seconds(self, monkeypatch, route):
        # Whichever engine serves the rows (the C row walker, or every
        # row rerun scalar without the kernel or under a live arch
        # collector), the job's ledger records carry all of its rows
        # and sum to the seconds execute_job returns.
        job = SimJob(workload="crc", config=(8, 4, 2, 0), size="small",
                     salt=5, n_seeds=16)
        if route == "no_cext":
            monkeypatch.setenv("REPRO_CEXT", "0")
        cext.reset_for_tests()
        if route == "arch":
            ARCH_COLLECTOR.reset()
            ARCH_COLLECTOR.enable()
        telemetry.LEDGER.reset()
        telemetry.LEDGER.enable()
        try:
            batch, seconds = execute_job(
                job, EvalSettings(size="small", verify=False)
            )
            records = list(telemetry.LEDGER.records)
        finally:
            telemetry.LEDGER.disable()
            telemetry.LEDGER.reset()
            ARCH_COLLECTOR.disable()
            ARCH_COLLECTOR.reset()
            cext.reset_for_tests()
        assert sum(rec.rows for rec in records) == 16
        assert seconds > 0.0
        assert all(rec.wall_s >= 0.0 for rec in records)
        assert sum(rec.wall_s for rec in records) == pytest.approx(
            seconds, rel=1e-9, abs=1e-12
        )
        if batch.batch_rows:
            assert route == "kernel"
            assert records[0].engine == "batch"
        else:
            # Every row reran scalar: one timed record per row.
            assert route != "kernel" or cext.chain_scan_lib() is None
            assert len(records) == 16
            assert all(rec.wall_s > 0.0 for rec in records)

    def test_rows_batched_without_numpy(self):
        # NumPy is not a dependency: with it blocked, a seed-repeat job
        # still runs every row through the C row walker and lands in one
        # engine="batch" ledger record.
        if cext.chain_scan_lib() is None:
            pytest.skip("C kernel unavailable")
        script = textwrap.dedent("""
            import sys
            sys.modules["numpy"] = None
            import repro.serve
            from repro.eval.parallel import SimJob, run_jobs
            from repro.eval.settings import EvalSettings
            from repro.obs import telemetry

            telemetry.LEDGER.reset()
            telemetry.LEDGER.enable()
            job = SimJob(workload="crc", config=(8, 4, 2, 0), size="small",
                         salt=5, n_seeds=8)
            [batch] = run_jobs(
                [job], EvalSettings(size="small", verify=False), 1)
            records = [(r.engine, r.rows) for r in telemetry.LEDGER.records]
            assert batch.engines == ["batch"] * 8, batch.reasons
            assert records == [("batch", 8)], records
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("REPRO_CEXT", None)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
