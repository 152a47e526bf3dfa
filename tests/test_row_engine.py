"""The sweep engine against the engines it dispatches to.

``run_jobs`` may execute a job list in any internal order and share any
work between jobs, but what it hands back must be indistinguishable from
running each job alone.  Two properties pin that:

* **Differential.**  Hypothesis generates seeded, bounded job lists over
  small and micro workloads: mixed configurations and policy
  optimizations, repeated and distinct schedule salts, both watchdogs,
  PI and epoch marking, stalls (some forced by a tiny
  ``max_power_cycles``), volatile segments and seed-repeat jobs, and
  templates of one-and-two-entry buffers under ignore-false-writes,
  whose watchdog cuts the walk decides safe or hands to the reference
  (``watchdog_cut``).  Every
  result's ``to_dict`` must equal a reference
  :class:`~repro.sim.simulator.IntermittentSimulator` run with
  verification off, and the run ledger's ``stable_records`` must equal
  those of a one-job-at-a-time :func:`~repro.eval.parallel.execute_job`
  loop.  Both run with the C kernel, where the section walk serves every
  row it can carry, and with ``REPRO_CEXT=0``, where the reference
  serves every row.
* **Order and store.**  One interleaved list over several traces, with a
  partly filled result store and undo, volatile, runt and stalled jobs:
  results, the store's segment bytes, ledger indices and the profile's
  run count all equal the per-job path's.
"""

import contextlib
import dataclasses
import os
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.cache as artifact_cache
from repro.common.errors import SimulationError
from repro.compiler.epoch_analysis import compile_with_epochs
from repro.core import cext
from repro.core.config import PolicyOptimizations
from repro.eval import parallel
from repro.eval.parallel import SimJob, execute_job, run_jobs
from repro.eval.runner import pi_words_for
from repro.eval.settings import EvalSettings
from repro.obs import analyze
from repro.obs.analyze import COLLECTOR as ARCH_COLLECTOR
from repro.obs.metrics import COUNTERS
from repro.obs.profile import Profiler
from repro.obs.telemetry import LEDGER
from repro.power.schedules import RuntPower
from repro.sim.batch import BatchResult
from repro.sim.simulator import IntermittentSimulator
from repro.workloads.cache import get_trace

#: Small MiBench2 kernels and the micro regression benchmarks.
WORKLOADS = ("crc", "qsort", "rc4", "limits", "overflow", "regress",
             "vcflags")

#: ``(use_compiler, epoch_cycles)``: unmarked, whole-program PI, epochs.
MARKINGS = ((False, 0), (True, 0), (False, 300))


@contextlib.contextmanager
def kernel(enabled: bool):
    """Run the body with the C kernel loaded or gated off."""
    old = os.environ.get("REPRO_CEXT")
    if enabled:
        os.environ.pop("REPRO_CEXT", None)
    else:
        os.environ["REPRO_CEXT"] = "0"
    cext.reset_for_tests()
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("REPRO_CEXT", None)
        else:
            os.environ["REPRO_CEXT"] = old
        cext.reset_for_tests()


@contextlib.contextmanager
def ledger():
    LEDGER.reset()
    LEDGER.enable()
    try:
        yield LEDGER
    finally:
        LEDGER.disable()
        LEDGER.reset()


# ---- strategies -------------------------------------------------------- #

configs = st.tuples(
    st.integers(1, 16), st.integers(0, 8), st.integers(0, 4),
    st.integers(0, 4),
)
opts = st.one_of(
    st.none(), st.sampled_from(PolicyOptimizations.all_settings())
)
watchdog = st.sampled_from((0, "auto", 150, 600))

#: Buffers small enough, under ignore-false-writes, that watchdog cuts
#: land below the furthest executed index, some safe and some not.
CUT_CONFIGS = ((1, 0, 0, 0), (2, 1, 1, 0), (16, 1, 1, 0))
CUT_OPTS = PolicyOptimizations(ignore_false_writes=True)


@st.composite
def job_lists(draw):
    """1–10 jobs over 1–3 templates (trace, marking and watchdogs), so
    a list holds jobs that share a trace and differ in config, opts,
    salt and shape, as sweeps do."""
    templates = draw(st.lists(st.fixed_dictionaries(dict(
        workload=st.sampled_from(WORKLOADS),
        marking=st.sampled_from(MARKINGS),
        perf_watchdog=watchdog,
        progress_watchdog=watchdog,
        progress_watchdog_adaptive=st.booleans(),
        cuts=st.booleans(),
    )), min_size=1, max_size=3))
    jobs = []
    for _ in range(draw(st.integers(1, 10))):
        t = draw(st.sampled_from(templates))
        use_compiler, epoch_cycles = t["marking"]
        job = SimJob(
            workload=t["workload"],
            config=draw(st.sampled_from(CUT_CONFIGS) if t["cuts"]
                        else configs),
            size="tiny",
            opts=CUT_OPTS if t["cuts"] else draw(opts),
            salt=draw(st.integers(0, 2)),
            use_compiler=use_compiler,
            epoch_cycles=epoch_cycles,
            perf_watchdog=t["perf_watchdog"],
            progress_watchdog=t["progress_watchdog"],
            progress_watchdog_adaptive=t["progress_watchdog_adaptive"],
            # Without a progress watchdog, short on-times can starve a
            # run.
            allow_stall=True,
        )
        shape = draw(st.sampled_from(
            ("plain", "plain", "plain", "stall", "seeds", "volatile")
        ))
        if shape == "stall":
            job = dataclasses.replace(
                job, max_power_cycles=draw(st.sampled_from((2, 4, 12))),
            )
        elif shape == "seeds":
            job = dataclasses.replace(
                job, n_seeds=draw(st.integers(2, 3)),
                seed_stride=draw(st.sampled_from((1, 5))),
            )
        elif shape == "volatile":
            job = dataclasses.replace(job, volatile_segments=("stack",))
        jobs.append(job)
    return jobs


eval_settings = st.builds(
    EvalSettings, size=st.just("tiny"), sweep_size=st.just("tiny"),
    seed=st.integers(1, 3), avg_on_ms=st.sampled_from((0.15, 0.4, 1.0)),
)


# ---- the engines a job stands for --------------------------------------- #


def _engine_kwargs(job: SimJob, trace) -> dict:
    """A Clank job's simulator keyword arguments, built from scratch."""
    kw = dict(
        cost_model=parallel._COST_MODELS[job.cost_model],
        perf_watchdog=job.perf_watchdog,
        progress_watchdog=job.progress_watchdog,
        progress_watchdog_adaptive=job.progress_watchdog_adaptive,
        max_power_cycles=job.max_power_cycles,
        verify=False,
    )
    if job.epoch_cycles > 0:
        plan = compile_with_epochs(trace, job.epoch_cycles)
        kw.update(pi_access_indices=plan.ignorable,
                  forced_checkpoints=plan.boundaries)
    elif job.use_compiler:
        kw.update(pi_words=pi_words_for(trace))
    if job.volatile_segments:
        kw.update(volatile_ranges=tuple(
            trace.memory_map.word_range(name)
            for name in job.volatile_segments
        ))
    return kw


def _row_salts(job: SimJob):
    return [job.salt + r * job.seed_stride for r in range(job.n_seeds)]


def _reference(job: SimJob, settings: EvalSettings) -> list:
    """Per-row ``to_dict`` of the reference simulator at the job's salts
    (``None`` for a stall)."""
    trace = get_trace(job.workload, size=job.size, seed=job.trace_seed)
    kw = _engine_kwargs(job, trace)
    rows = []
    for salt in _row_salts(job):
        try:
            result = IntermittentSimulator(
                trace, job.clank_config(), settings.schedule(salt), **kw
            ).run()
        except SimulationError:
            assert job.allow_stall
            rows.append(None)
        else:
            rows.append(result.to_dict(include_derived=False))
    return rows


def _check_stamps(records: list, with_kernel: bool) -> None:
    """Every row went to the section walk or the reference: ``no_cext``
    only without the kernel, and a reason only a walk can find only
    with it."""
    for rec in records:
        engine, reason = rec["engine"], rec["fallback_reason"]
        assert rec["kernel"] == ("c" if engine in ("fast", "batch")
                                 else None), rec
        if engine in ("fast", "batch"):
            assert with_kernel and reason is None, rec
        elif engine == "reference" and with_kernel:
            assert reason != "no_cext", rec
        elif engine == "reference":
            assert reason not in ("watchdog_cut", "reach_overflow"), rec


def _rows(job: SimJob, result) -> list:
    if isinstance(result, BatchResult):
        assert job.n_seeds > 1 and result.rows == job.n_seeds
        results = result.results
    else:
        assert job.n_seeds == 1
        results = [result]
    return [None if r is None else r.to_dict(include_derived=False)
            for r in results]


def _check_differential(jobs, settings_, with_kernel):
    with ledger() as led:
        got = run_jobs(jobs, settings_)
        grouped = led.stable_records()
    with ledger() as led:
        alone = [execute_job(job, settings_)[0] for job in jobs]
        one_by_one = led.stable_records()
    assert grouped == one_by_one
    _check_stamps(grouped, with_kernel)
    for job, result, single in zip(jobs, got, alone):
        rows = _rows(job, result)
        assert rows == _rows(job, single), job
        assert rows == _reference(job, settings_), job


@settings(max_examples=100, deadline=None, derandomize=True)
@given(jobs=job_lists(), settings_=eval_settings)
def test_matches_reference_with_kernel(jobs, settings_):
    with kernel(True):
        if cext.chain_scan_lib() is None:
            pytest.skip("C kernel unavailable")
        _check_differential(jobs, settings_, True)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(jobs=job_lists(), settings_=eval_settings)
def test_matches_reference_without_kernel(jobs, settings_):
    with kernel(False):
        _check_differential(jobs, settings_, False)


def test_watchdog_cut_groups_match_reference():
    # A fixed cut-heavy list: the walk decides safe cuts itself and
    # ends unsafe ones for the reference; grouped rows still equal
    # one-by-one rows and the reference.
    if cext.chain_scan_lib() is None:
        pytest.skip("C kernel unavailable")
    jobs = [
        SimJob(workload=name, config=config, size="tiny", opts=CUT_OPTS,
               salt=salt, perf_watchdog=perf, progress_watchdog=progress,
               allow_stall=True, n_seeds=n_seeds)
        for name in ("crc", "rc4", "qsort")
        for config in CUT_CONFIGS
        for salt in range(2)
        for perf, progress in ((0, "auto"), ("auto", 150))
        for n_seeds in (1, 3)
    ]
    settings_ = EvalSettings(size="tiny", sweep_size="tiny", seed=1,
                             avg_on_ms=0.15)
    COUNTERS.reset()
    with kernel(True):
        _check_differential(jobs, settings_, True)
        with ledger() as led:
            run_jobs(jobs, settings_)
            reasons = led.fallback_counts()
    assert COUNTERS.snapshot().get("walk.safe_cuts"), "no safe cut"
    assert reasons.get("watchdog_cut"), reasons


# ---- order and store ---------------------------------------------------- #

ORDER_SETTINGS = EvalSettings(size="tiny", sweep_size="tiny", seed=2,
                              avg_on_ms=0.4)


def _order_jobs() -> list:
    """One list interleaving traces and every job shape."""
    base = [
        SimJob(workload=name, config=config, size="tiny", salt=salt)
        for config in ((1, 0, 0, 0), (8, 4, 2, 0), (16, 8, 4, 4))
        for salt, name in enumerate(("crc", "qsort", "rc4", "limits"))
    ]
    crc = base[0]
    extra = [
        dataclasses.replace(crc, engine="undo", log_entries=16),
        dataclasses.replace(crc, volatile_segments=("stack",)),
        dataclasses.replace(crc, schedule="runt", runt_mean=60,
                            runt_fraction=0.5),
        dataclasses.replace(crc, schedule="runt", runt_mean=2,
                            runt_fraction=1.0, max_power_cycles=20,
                            allow_stall=True),
        dataclasses.replace(base[5], n_seeds=3, seed_stride=4),
        dataclasses.replace(base[2], use_compiler=True),
        base[7],  # a repeat: a store hit once its twin is stored
    ]
    jobs = []
    for i, job in enumerate(base):
        jobs.append(job)
        if i % 2 and extra:
            jobs.append(extra.pop(0))
    return jobs + extra


def _segment_bytes(root) -> bytes:
    """Every store segment's bytes, oldest first."""
    return b"".join(
        (root / name).read_bytes() for name in sorted(os.listdir(root))
    )


def _run_path(root, monkeypatch, grouped: bool):
    """Pre-fill a store at ``root`` with every third job, then run the
    list ``grouped`` (one ``run_jobs`` call) or job by job."""
    jobs = _order_jobs()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    artifact_cache.reset_for_tests()
    try:
        for job in jobs[::3]:
            execute_job(job, ORDER_SETTINGS)
        with ledger() as led:
            if grouped:
                results = run_jobs(jobs, ORDER_SETTINGS)
            else:
                results = [execute_job(job, ORDER_SETTINGS)[0]
                           for job in jobs]
            records = led.stable_records()
            profile = Profiler().table(records=led.records)
    finally:
        artifact_cache.reset_for_tests()
    rendered = [None if r is None else r.to_dict() for r in results]
    runs = re.findall(r"\((\d+) runs,", profile)
    return rendered, records, runs, _segment_bytes(root)


@pytest.mark.parametrize("with_kernel", [True, False],
                         ids=["cext", "no_cext"])
def test_order_and_store_match_per_job_path(tmp_path, monkeypatch,
                                            with_kernel):
    with kernel(with_kernel):
        grouped = _run_path(tmp_path / "grouped", monkeypatch, True)
        single = _run_path(tmp_path / "single", monkeypatch, False)
    results, records, runs, segments = grouped
    assert results == single[0]
    assert records == single[1]
    assert [r["index"] for r in records] == list(range(len(records)))
    assert {r["result_cache"] for r in records} == {"hit", "miss"}
    assert {r["engine"] for r in records} >= {
        "disk-cached-result", "undo", "reference", "stalled",
    }
    assert runs == single[2] and runs
    assert segments == single[3] and segments


# ---- architecture folds --------------------------------------------------- #


def _arch_summary(root, monkeypatch, grouped: bool) -> dict:
    """The collector summary of one interleaved list, run ``grouped``
    (one ``run_jobs`` call) or job by job, with one job a store hit.

    The list alternates one (workload, config) between two Performance
    Watchdog settings, so one collector slot is fed by two groups.  The
    collector's caps are lowered so that the slot's section table
    overflows: which section peaks it keeps then depends on fold order
    (crc trips no hazard address, so the hazard table stays small).
    """
    base = SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny")
    jobs = [dataclasses.replace(base, salt=salt, perf_watchdog=load)
            for salt in range(3) for load in (0, "auto")]
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    monkeypatch.setattr(analyze, "MAX_SECTIONS", 8)
    monkeypatch.setattr(analyze, "MAX_HAZARDS", 4)
    artifact_cache.reset_for_tests()
    try:
        execute_job(jobs[0], ORDER_SETTINGS)
        ARCH_COLLECTOR.reset()
        ARCH_COLLECTOR.enable()
        if grouped:
            run_jobs(jobs, ORDER_SETTINGS)
        else:
            for job in jobs:
                execute_job(job, ORDER_SETTINGS)
        return ARCH_COLLECTOR.to_summary()
    finally:
        ARCH_COLLECTOR.disable()
        ARCH_COLLECTOR.reset()
        artifact_cache.reset_for_tests()


@pytest.mark.parametrize("with_kernel", [True, False],
                         ids=["cext", "no_cext"])
def test_arch_folds_in_submission_order(tmp_path, monkeypatch, with_kernel):
    # A grouped --arch sweep folds each job's runs where the job stands
    # in the list, exactly as running the jobs one by one does.
    with kernel(with_kernel):
        grouped = _arch_summary(tmp_path / "grouped", monkeypatch, True)
        single = _arch_summary(tmp_path / "single", monkeypatch, False)
    [slot] = grouped["workloads"]["crc"].values()
    # Only walked rows record section peaks.
    assert bool(slot["sections_dropped"]) == with_kernel
    assert slot["runs_by_engine"].get("disk-cached-result") == 1
    assert grouped == single
