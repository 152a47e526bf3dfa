"""CI micro-benchmark guard: recording-off must cost nothing, and
compiled-trace replay must be stable run-to-run.

Times a Figure 5-style sweep of :func:`repro.sim.fast.simulate_fast`
runs (several buffer configurations x several benchmarks x
:data:`SWEEP_SALTS` power schedules, ``verify=False``, progress watchdog
on — the shape of the paper's design-space runs) with no recorder and
with a :class:`repro.obs.recorder.NullRecorder` attached.  The simulator
normalizes a NullRecorder to "no recorder" before its hot loop, so the two
must be within noise of each other; the guard fails if the NullRecorder
sweep exceeds the baseline by more than the threshold (default 5%).

A second check guards the array-compiled replay path: the simulator's hot
loop runs over ``Trace.compiled()`` arrays that are built lazily once and
cached on the trace.  The guard asserts the cache is actually hit (the
same object comes back) and that back-to-back sweeps over compiled
traces land within the threshold of each other — a regression that
recompiled per run, or fell back to per-``Access`` attribute lookups on
some runs, shows up as run-to-run spread.

These two checks and the ledger, arch and tracing checks alternate their
two sides in pairs (:func:`paired_ratio`; :data:`TIMED_PAIRS` at least,
:data:`LEDGER_PAIRS` for the ledger check) and gate on the median of the
per-pair ratios, over sweeps of 100 ms or more (the ledger check's take
tens of milliseconds): on a shared machine, drift then hits both sides
of a pair alike, where best-of timing of millisecond sweeps resolves no
2% budget.

A third check guards the section-memoized fast path: the sweep above runs
eligible jobs (``verify=False``, no live recorder) through
:func:`repro.sim.fast.simulate_fast`, whose whole payoff is that the
per-``(trace, config)`` :class:`~repro.sim.sections.SectionMap` is built
once and then shared by every schedule.  The guard resets the cache
counters, times one more sweep, and fails if any job missed the (warm)
cache or if the fast path stopped carrying the bulk of the runs.

A fourth check guards run-provenance telemetry: with the shared
:data:`repro.obs.telemetry.LEDGER` enabled,
:func:`repro.eval.parallel.execute_job` appends one record per run at
the dispatch point — never per access — so a sweep of ``execute_job``
calls must stay within the telemetry threshold (default 2%) of the same
sweep with the ledger off, and must actually have recorded (and timed)
every run.  The sweep repeats each configuration over
:data:`LEDGER_SALTS` power schedules.

A fifth check guards architectural introspection
(:mod:`repro.obs.analyze`): the shared :data:`~repro.obs.analyze.COLLECTOR`
must be disabled by default, introspection-off ``execute_job`` sweeps
(:data:`ARCH_SALTS` schedules per configuration) must stay within the
arch threshold (default 2%) of the baseline sweeps they alternate with,
which run the same jobs with the collector swapped for
:class:`NoCollector` (both engines pay exactly one flag check per run
when it is off), and a collector-on grouped ``run_jobs`` sweep (the path
``--arch`` sweeps take) must fold every run and reconcile its cause
totals exactly against the per-run ``checkpoints_by_cause``.

A sixth check guards the persistent result store
(``REPRO_CACHE_DIR``), which holds whole results only: an
``execute_job`` sweep over the ledger check's jobs fills a fresh store,
every in-memory SectionMap is then dropped, and the repeat sweep must
answer every job from the store — each ledger record a
``disk-cached-result`` hit, with no fast-path or fallback dispatch —
while reproducing the cold sweep's results exactly.

A seventh check guards the batched Monte Carlo engine
(:mod:`repro.sim.batch`): a seed-repeat sweep (``SimJob.n_seeds > 1``,
the shape of the ``--seeds N`` figure variants) must actually be served
by the batched engine — at least 90% of its schedule rows, per the run
ledger — and the ledger's row accounting must reconcile exactly with the
job list.  A regression that silently dropped every row to the scalar
fallback would still produce correct numbers, just at per-run cost.

An eighth check guards config-family enumeration amortization: a cold
Figure 5-shaped ``run_jobs`` sweep walks each trace's jobs as the rows
of one group, whose cold maps enumerate together, so nearly every
:class:`~repro.sim.sections.SectionMap` it builds must come out of
batched family chain scans (``family_maps`` in
:func:`repro.sim.sections.cache_stats`) rather than one scalar scan per
config — at least 80% of the cold builds, at more than one map per
trace pass.  A regression that quietly dropped every config back to
scalar scans would still be bit-identical, just N times the enumeration
cost.  The same sweep must serve at least 90% of its runs through the
C section walk (``fast`` in :func:`repro.sim.fast.dispatch_stats`), not
the reference simulator.

A ninth check guards distributed tracing (:mod:`repro.obs.tracing`): the
shared :data:`~repro.obs.tracing.TRACER` must be disabled by default, a
``run_jobs`` sweep of :data:`TRACING_SALTS` schedules per configuration,
run with tracing off right after a ``TRACER.reset()``, must stay within
the tracing threshold (default 2%) of the same sweep without the reset
(instrumented call sites pay one attribute check and share one no-op
span), and the off sweep must buffer no spans.

Every check runs and prints its verdict; the guard exits non-zero at
the end if any failed, naming them.

Run:  PYTHONPATH=src python benchmarks/null_recorder_guard.py
"""

import argparse
import os
import statistics
import sys
import tempfile
import time

import repro.cache as artifact_cache
import repro.eval.parallel as parallel_mod
import repro.sim.batch as batch_mod
from repro.core.config import ClankConfig
from repro.eval.parallel import SimJob, execute_job, run_jobs
from repro.eval.settings import EvalSettings
from repro.obs.analyze import COLLECTOR
from repro.obs.metrics import COUNTERS
from repro.obs.recorder import NullRecorder
from repro.obs.telemetry import ENGINE_BATCH, ENGINE_CACHED, LEDGER
from repro.obs.tracing import TRACER
from repro.sim.fast import dispatch_stats, simulate_fast
from repro.sim.sections import cache_stats, clear_cache
from repro.workloads.cache import get_trace

CONFIGS = [(1, 0, 0, 0), (8, 4, 0, 0), (8, 4, 2, 0), (16, 8, 4, 4)]
WORKLOADS = ("crc", "fft", "rc4", "qsort")

#: Power schedules per (workload, config) in the ``execute_job`` sweeps
#: of the ledger check: 4 x 4 x 32 = 512 runs per sweep.
LEDGER_SALTS = 32

#: Power schedules per (workload, config) in the arch check's
#: ``execute_job`` sweeps: 4 x 4 x 128 = 2,048 runs, 0.10-0.15 s per
#: sweep on a 2-vCPU guest.
ARCH_SALTS = 128

#: Minimum alternating ledger-off/ledger-on sweep pairs.
LEDGER_PAIRS = 30

#: Power schedules per (workload, config) in the ``simulate_fast`` sweeps
#: of the NullRecorder and compiled-replay checks: 4 x 4 x 128 = 2,048
#: runs, 0.09-0.15 s per sweep on a 2-vCPU guest.
SWEEP_SALTS = 128

#: Power schedules per (workload, config) in the tracing check's
#: ``run_jobs`` sweep: 4 x 4 x 384 = 6,144 jobs, 0.10-0.19 s on warm
#: section maps on a 2-vCPU guest.
TRACING_SALTS = 384

#: Minimum alternating pairs of the NullRecorder, compiled-replay and
#: tracing checks.
TIMED_PAIRS = 25


class NoCollector:
    """The arch check's baseline stand-in for the collector: ``enabled``
    is a plain ``False`` class attribute, so the baseline sweep pays
    nothing for introspection being off."""

    enabled = False


def without_collector(sweep):
    """``sweep`` with :class:`NoCollector` in place of the collector
    where the walk path asks it (``repro.sim.batch`` and
    ``repro.eval.parallel``)."""
    def run():
        saved = batch_mod.ARCH_COLLECTOR, parallel_mod.ARCH_COLLECTOR
        batch_mod.ARCH_COLLECTOR = parallel_mod.ARCH_COLLECTOR = NoCollector
        try:
            return sweep()
        finally:
            batch_mod.ARCH_COLLECTOR, parallel_mod.ARCH_COLLECTOR = saved
    return run


def run_one(trace, spec, settings, salt, recorder=None):
    """One policy-simulator run as the sweep drivers issue it (Progress
    Watchdog on, no compiler marking)."""
    return simulate_fast(
        trace, ClankConfig.from_tuple(spec), settings.schedule(salt),
        progress_watchdog="auto", verify=settings.verify, recorder=recorder,
    )


def sweep_seconds(traces, settings, recorder=None,
                  salts: int = SWEEP_SALTS) -> float:
    """Wall-clock of one sweep over ``salts`` schedules per (trace,
    config)."""
    start = time.perf_counter()
    for salt in range(salts):
        for trace in traces:
            for spec in CONFIGS:
                run_one(trace, spec, settings, salt, recorder)
    return time.perf_counter() - start


def paired_ratio(off, on, pairs: int) -> tuple:
    """``(median, q1, q3, best off, best on)`` of ``on() / off()`` over
    ``pairs`` alternating timings (each callable returns seconds)."""
    offs, ons, ratios = [], [], []
    for _ in range(pairs):
        offs.append(off())
        ons.append(on())
        ratios.append(ons[-1] / offs[-1])
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return statistics.median(ratios), q1, q3, min(offs), min(ons)


def execute_seconds(jobs, settings) -> float:
    """Wall-clock of one ``execute_job`` sweep over ``jobs``."""
    start = time.perf_counter()
    for job in jobs:
        execute_job(job, settings)
    return time.perf_counter() - start


def result_store_check(jobs, settings) -> int:
    """The sixth check: a repeat ``execute_job`` sweep over ``jobs``
    against the store its cold sweep filled, with every in-memory
    SectionMap dropped in between, is served wholly from the store and
    reproduces the cold results.  0 on success, 1 on failure."""
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        try:
            artifact_cache.reset_for_tests()
            clear_cache()
            cold = [execute_job(job, settings)[0] for job in jobs]
            clear_cache()
            COUNTERS.reset()
            LEDGER.reset()
            LEDGER.enable()
            before = dispatch_stats()
            warm = [execute_job(job, settings)[0] for job in jobs]
            after = dispatch_stats()
            served = sum(
                1 for rec in LEDGER.records
                if rec.engine == ENGINE_CACHED and rec.result_cache == "hit"
            )
            recorded = len(LEDGER.records)
        finally:
            LEDGER.disable()
            LEDGER.reset()
            del os.environ["REPRO_CACHE_DIR"]
            artifact_cache.reset_for_tests()
            clear_cache()
    print(f"result-store warm sweep: {served} of {recorded} records "
          f"served from the store ({len(jobs)} jobs); dispatch "
          f"{before['fast'] + before['fallback']} -> "
          f"{after['fast'] + after['fallback']}")
    if [r.to_dict() for r in warm] != [r.to_dict() for r in cold]:
        print("FAIL: store-served sweep diverged from the cold sweep")
        return 1
    if served != len(jobs) or recorded != len(jobs):
        print("FAIL: warm sweep simulated jobs the store should hold")
        return 1
    if after != before:
        print("FAIL: warm sweep dispatched simulations")
        return 1
    print("OK: repeat sweep served whole from the result store, identical")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=float, default=1.05,
                        help="max allowed NullRecorder/baseline ratio")
    parser.add_argument("--telemetry-threshold", type=float, default=1.02,
                        help="max allowed ledger-on/ledger-off ratio")
    parser.add_argument("--arch-threshold", type=float, default=1.02,
                        help="max allowed introspection-off/baseline ratio")
    parser.add_argument("--tracing-threshold", type=float, default=1.02,
                        help="max allowed tracing-off/baseline ratio")
    parser.add_argument("--repeats", type=int, default=5,
                        help="minimum alternating off/on timing pairs")
    parser.add_argument("--size", default="small", help="workload size preset")
    args = parser.parse_args(argv)

    settings = EvalSettings(size=args.size, verify=False)
    traces = [get_trace(name, size=args.size) for name in WORKLOADS]
    failed = []

    def fail(check: str, why: str) -> None:
        print(f"FAIL: {why}")
        failed.append(check)

    # Warm-up pass so trace building and imports are off the clock.
    sweep_seconds(traces, settings, salts=8)

    pairs = max(args.repeats, TIMED_PAIRS)
    null_recorder = NullRecorder()
    ratio, q1, q3, base, null = paired_ratio(
        lambda: sweep_seconds(traces, settings),
        lambda: sweep_seconds(traces, settings, null_recorder),
        pairs,
    )
    sweep_runs = SWEEP_SALTS * len(traces) * len(CONFIGS)
    print(f"baseline (no recorder):  {base:.3f}s "
          f"(best of {pairs} sweeps of {sweep_runs} runs)")
    print(f"NullRecorder attached:   {null:.3f}s")
    print(f"ratio: {ratio:.4f} median of {pairs} pairs "
          f"(quartiles {q1:.4f}-{q3:.4f}; threshold {args.threshold:.2f})")
    if ratio > args.threshold:
        fail("null-recorder",
             "NullRecorder added measurable per-access overhead")
    else:
        print("OK: recording off is free")

    # Compiled-replay guard: the lazy compile must be cached (same object
    # back every time) and repeat sweeps over compiled traces must agree
    # run-to-run within the same threshold.
    rebuilt = [trace.name for trace in traces
               if trace.compiled() is not trace.compiled()]
    if rebuilt:
        fail("compiled-replay",
             f"{', '.join(rebuilt)}: Trace.compiled() rebuilt on reuse")
    # Identical sweeps in alternating pairs: the median ratio of the
    # second to the first, either way round, is the run-to-run spread.
    ratio, q1, q3, first, second = paired_ratio(
        lambda: sweep_seconds(traces, settings),
        lambda: sweep_seconds(traces, settings),
        pairs,
    )
    spread = max(ratio, 1.0 / ratio)
    print(f"compiled replay, sweep 1: {first:.3f}s (best of {pairs})")
    print(f"compiled replay, sweep 2: {second:.3f}s (best of {pairs})")
    print(f"run-to-run spread: {spread:.4f} from the median of {pairs} "
          f"pairs (quartiles {q1:.4f}-{q3:.4f}; "
          f"threshold {args.threshold:.2f})")
    if spread > args.threshold:
        fail("compiled-replay",
             "compiled-trace replay is unstable run-to-run")
    elif not rebuilt:
        print("OK: compiled replay cached and stable")

    # Fast-path guard: with every SectionMap already built by the sweeps
    # above, a repeat sweep must be all cache hits, and the fast path
    # must carry (nearly) all of the runs — a handful of watchdog-cut
    # fallbacks is expected, wholesale fallback is a regression.
    COUNTERS.reset()
    sweep_seconds(traces, settings, salts=1)
    sections = cache_stats()
    runs = dispatch_stats()
    print(f"SectionMap cache: {sections}")
    print(f"fast-path runs:   {runs}")
    total = runs["fast"] + runs["fallback"]
    if sections["misses"]:
        fail("fast-path", "warm sweep rebuilt SectionMaps (cache misses)")
    elif total == 0 or runs["fast"] < 0.9 * total:
        fail("fast-path", "fast path no longer carries the sweep")
    else:
        print("OK: section maps cached, fast path engaged")

    # Telemetry guard: execute_job records once per run, at the dispatch
    # point; enabling the ledger must not slow an execute_job sweep
    # beyond the telemetry threshold, and every run must land in it with
    # its wall time.  Ledger-off and ledger-on sweeps alternate, so drift
    # on the machine hits both sides of a pair alike, and the ledger is
    # emptied before each on-sweep, so every sweep pays the same
    # per-record cost.
    tele_pairs = max(args.repeats, LEDGER_PAIRS)
    ledger_jobs = [
        SimJob(workload=name, config=spec, size=args.size, salt=salt)
        for name in WORKLOADS
        for spec in CONFIGS
        for salt in range(LEDGER_SALTS)
    ]
    LEDGER.disable()
    LEDGER.reset()
    for _ in range(2):  # warm-up
        execute_seconds(ledger_jobs, settings)
    recorded = untimed = 0

    def ledger_off_seconds() -> float:
        LEDGER.disable()
        return execute_seconds(ledger_jobs, settings)

    def ledger_on_seconds() -> float:
        nonlocal recorded, untimed
        LEDGER.reset()
        LEDGER.enable()
        seconds = execute_seconds(ledger_jobs, settings)
        recorded += len(LEDGER.records)
        untimed += sum(1 for rec in LEDGER.records if rec.wall_s <= 0.0)
        return seconds

    try:
        ratio, q1, q3, ledger_off, _ = paired_ratio(
            ledger_off_seconds, ledger_on_seconds, tele_pairs)
    finally:
        LEDGER.disable()
        LEDGER.reset()
    runs_per_sweep = len(traces) * len(CONFIGS)
    print(f"ledger disabled: {ledger_off:.3f}s "
          f"(best of {tele_pairs} sweeps of {len(ledger_jobs)} runs)")
    print(f"ledger enabled:  {recorded} records over {tele_pairs} sweeps")
    print(f"ratio: {ratio:.4f} median of {tele_pairs} pairs "
          f"(quartiles {q1:.4f}-{q3:.4f}; "
          f"threshold {args.telemetry_threshold:.2f})")
    if recorded != tele_pairs * len(ledger_jobs):
        fail("ledger", f"ledger recorded {recorded} runs, expected "
                       f"{tele_pairs * len(ledger_jobs)}")
    elif untimed:
        fail("ledger", f"{untimed} ledger records carry no wall time")
    elif ratio > args.telemetry_threshold:
        fail("ledger", "run-ledger telemetry added measurable overhead")
    else:
        print("OK: telemetry records every run within the overhead budget")

    # Architectural-introspection guard.  Off is the default and must
    # stay free: the engines ask the collector once per run and get None.
    # Its sweeps alternate with no-collector baseline sweeps in pairs,
    # like the checks above, over 100 ms or more each.
    arch_ok = not COLLECTOR.enabled
    if not arch_ok:
        fail("arch", "arch collector is enabled by default")
    arch_jobs = [
        SimJob(workload=name, config=spec, size=args.size, salt=salt)
        for name in WORKLOADS
        for spec in CONFIGS
        for salt in range(ARCH_SALTS)
    ]
    execute_seconds(arch_jobs, settings)  # warm-up: the new schedules

    # The baseline runs the same sweep with the collector swapped for a
    # stub whose ``enabled`` is a plain False, so the ratio measures what
    # the real, disabled collector costs the walk path.
    LEDGER.disable()
    ratio, q1, q3, arch_base, arch_off = paired_ratio(
        without_collector(lambda: execute_seconds(arch_jobs, settings)),
        lambda: execute_seconds(arch_jobs, settings),
        pairs,
    )
    print(f"no-collector baseline: {arch_base:.3f}s "
          f"(best of {pairs} sweeps of {len(arch_jobs)} runs)")
    print(f"arch collector off:  {arch_off:.3f}s")
    print(f"ratio: {ratio:.4f} median of {pairs} pairs "
          f"(quartiles {q1:.4f}-{q3:.4f}; "
          f"threshold {args.arch_threshold:.2f})")
    if ratio > args.arch_threshold:
        arch_ok = False
        fail("arch", "introspection-off sweep exceeds the overhead budget")
    # Collector on: every run of one grouped run_jobs sweep (the path
    # --arch sweeps take) must fold, and the aggregated cause totals
    # must reconcile exactly with the per-run results.
    sweep_jobs = [
        SimJob(workload=name, config=spec, size=args.size, salt=salt)
        for salt, name in enumerate(WORKLOADS)
        for spec in CONFIGS
    ]
    COLLECTOR.reset()
    COLLECTOR.enable()
    try:
        arch_on_start = time.perf_counter()
        results = [r.to_dict() for r in run_jobs(sweep_jobs, settings, None)]
        arch_on = time.perf_counter() - arch_on_start
        folded = sum(COLLECTOR.run_totals().values())
        totals = COLLECTOR.cause_totals()
    finally:
        COLLECTOR.disable()
        COLLECTOR.reset()
    expected = {}
    for result in results:
        for cause, n in result["checkpoints_by_cause"].items():
            if n:
                expected[cause] = expected.get(cause, 0) + n
    print(f"arch collector on:  {arch_on:.3f}s for one sweep "
          f"({folded} runs folded)")
    if folded != runs_per_sweep:
        arch_ok = False
        fail("arch", f"collector folded {folded} runs, "
                     f"expected {runs_per_sweep}")
    if totals != expected:
        arch_ok = False
        fail("arch", f"collector cause totals {totals} != per-run "
                     f"checkpoint totals {expected}")
    if arch_ok:
        print("OK: introspection off is free, on reconciles exactly")

    # Result-store guard: a store-backed repeat sweep simulates nothing.
    if result_store_check(ledger_jobs, settings):
        failed.append("result-store")

    # Batch-engaged guard: a seed-repeat sweep (the --seeds N figure
    # shape) must route its rows through the batched engine.  The scalar
    # fallback is bit-identical, so a dispatch regression would only
    # show up as cost — catch it by row accounting instead.
    n_seeds = 8
    batch_jobs = [
        SimJob(workload=name, config=spec, size=args.size, salt=salt,
               n_seeds=n_seeds)
        for salt, name in enumerate(WORKLOADS)
        for spec in CONFIGS
    ]
    LEDGER.reset()
    LEDGER.enable()
    try:
        batch_results = run_jobs(batch_jobs, settings, None)
        batch_rows = sum(
            rec.rows for rec in LEDGER.records if rec.engine == ENGINE_BATCH
        )
        ledger_rows = LEDGER.total_rows()
    finally:
        LEDGER.disable()
        LEDGER.reset()
    expected_rows = len(batch_jobs) * n_seeds
    print(f"seed-repeat sweep: {expected_rows} rows over "
          f"{len(batch_jobs)} jobs; {batch_rows} rows via batch engine")
    if ledger_rows != expected_rows:
        fail("seed-repeat", f"ledger accounts {ledger_rows} rows, "
                            f"expected {expected_rows}")
    elif any(result.rows != n_seeds for result in batch_results):
        fail("seed-repeat", "a seed-repeat job returned the wrong row count")
    elif batch_rows < 0.9 * expected_rows:
        fail("seed-repeat",
             "batched engine no longer carries seed-repeat sweeps")
    else:
        print("OK: seed-repeat rows served by the batched engine")

    # Family-amortization guard: a cold fig5-shaped run_jobs sweep must
    # enumerate (nearly) all of its SectionMaps through batched family
    # chain scans — each group family-builds its rows' cold maps, so only
    # a group's lone cold map may get a one-member pass.
    clear_cache()
    COUNTERS.reset()
    run_jobs(sweep_jobs, settings, None)
    stats = cache_stats()
    walks = dispatch_stats()
    print(f"cold sweep maps: {stats['misses']} built, "
          f"{stats['family_maps']} via {stats['family_passes']} family "
          f"passes")
    walked = walks["fast"] + walks["fallback"]
    print(f"cold sweep walks: {walks['fast']} of {walked} runs via the C "
          f"section walk")
    if stats["misses"] == 0:
        fail("family", "cold sweep built no SectionMaps (stale cache?)")
    elif stats["family_maps"] < 0.8 * stats["misses"]:
        fail("family", "family scans no longer amortize the sweep's "
                       "section enumeration")
    elif stats["family_maps"] <= stats["family_passes"]:
        fail("family", "family passes stopped batching (one map per pass)")
    else:
        print("OK: section maps enumerated by batched family scans")
    if walks["fast"] == 0 or walks["fast"] < 0.9 * walked:
        fail("c-walk", "the C section walk no longer serves the sweep")
    else:
        print("OK: runs served by the C section walk")

    # Tracing guard: spans are per job, behind one enabled check; the
    # default-off sweep must pay nothing and buffer nothing.  The family
    # guard warmed the section maps these jobs walk.
    if TRACER.enabled:
        fail("tracing", "tracer is enabled by default")
    tracing_jobs = [
        SimJob(workload=name, config=spec, size=args.size, salt=salt)
        for salt in range(TRACING_SALTS)
        for name in WORKLOADS
        for spec in CONFIGS
    ]

    def jobs_seconds() -> float:
        start = time.perf_counter()
        run_jobs(tracing_jobs, settings, 1)
        return time.perf_counter() - start

    def tracing_off_seconds() -> float:
        TRACER.reset()
        return jobs_seconds()

    jobs_seconds()  # warm-up
    ratio, q1, q3, trace_base, trace_off = paired_ratio(
        jobs_seconds, tracing_off_seconds, pairs)
    print(f"run_jobs baseline:    {trace_base:.3f}s "
          f"(best of {pairs} sweeps of {len(tracing_jobs)} jobs)")
    print(f"run_jobs tracing off: {trace_off:.3f}s")
    print(f"ratio: {ratio:.4f} median of {pairs} pairs "
          f"(quartiles {q1:.4f}-{q3:.4f}; "
          f"threshold {args.tracing_threshold:.2f})")
    if TRACER.spans or TRACER.dropped:
        fail("tracing", f"tracing-off sweep buffered {len(TRACER.spans)} "
                        f"spans ({TRACER.dropped} dropped)")
    elif ratio > args.tracing_threshold:
        fail("tracing", "tracing-off sweep exceeds the overhead budget")
    elif not TRACER.enabled:
        print("OK: tracing off buffers nothing within the overhead budget")

    if failed:
        print(f"FAILED checks: {', '.join(dict.fromkeys(failed))}")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
