"""CI micro-benchmark guard: recording-off must cost nothing, and
compiled-trace replay must be stable run-to-run.

Times a Figure 5-style sweep of :func:`repro.sim.fast.simulate_fast`
runs (several buffer configurations x several benchmarks,
``verify=False``, progress watchdog on — the shape of the paper's
design-space runs) twice: once with no recorder and once with a
:class:`repro.obs.recorder.NullRecorder` attached.  The simulator
normalizes a NullRecorder to "no recorder" before its hot loop, so the two
must be within noise of each other; the guard fails if the NullRecorder
sweep exceeds the baseline by more than the threshold (default 5%).

A second check guards the array-compiled replay path: the simulator's hot
loop runs over ``Trace.compiled()`` arrays that are built lazily once and
cached on the trace.  The guard asserts the cache is actually hit (the
same object comes back) and that two back-to-back sweeps over compiled
traces land within the threshold of each other — a regression that
recompiled per run, or fell back to per-``Access`` attribute lookups on
some runs, shows up as run-to-run spread.

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
:data:`LEDGER_SALTS` power schedules so that it runs for tens of
milliseconds, and ledger-off and ledger-on sweeps alternate in
:data:`LEDGER_PAIRS` pairs; the median of the per-pair ratios resolves a
2% budget on a shared machine where best-of timing of millisecond
sweeps does not.

A fifth check guards architectural introspection
(:mod:`repro.obs.analyze`): the shared :data:`~repro.obs.analyze.COLLECTOR`
must be disabled by default, an introspection-off ``execute_job`` sweep
must stay within the arch threshold (default 2%) of the ledger-off
baseline (both engines pay exactly one flag check per run when it is
off), and a collector-on sweep must fold every run and reconcile its
cause totals exactly against the per-run ``checkpoints_by_cause``.

A sixth check guards the persistent artifact cache
(``REPRO_CACHE_DIR``): a sweep against a fresh store populates it, every
in-memory SectionMap is then dropped, and the repeat sweep must seed its
maps from disk (no cold re-enumeration) while reproducing bit-identical
results.

A seventh check guards the batched Monte Carlo engine
(:mod:`repro.sim.batch`): a seed-repeat sweep (``SimJob.n_seeds > 1``,
the shape of the ``--seeds N`` figure variants) must actually be served
by the batched engine — at least 90% of its schedule rows, per the run
ledger — and the ledger's row accounting must reconcile exactly with the
job list.  A regression that silently dropped every row to the scalar
fallback would still produce correct numbers, just at per-run cost.

An eighth check guards config-family enumeration amortization: a cold
Figure 5-shaped ``run_jobs`` sweep registers its config plans up front,
so nearly every :class:`~repro.sim.sections.SectionMap` it builds must
come out of batched family chain scans (``family_maps`` in
:func:`repro.sim.sections.cache_stats`) rather than one scalar scan per
config — at least 80% of the cold builds, at more than one map per
trace pass.  A regression that quietly dropped every config back to
scalar scans would still be bit-identical, just N times the enumeration
cost.  The same sweep must serve at least 90% of its fast-path runs
through the C section walk (``c_walk`` in
:func:`repro.sim.fast.dispatch_stats`), not the Python walker.

A ninth check guards distributed tracing (:mod:`repro.obs.tracing`): the
shared :data:`~repro.obs.tracing.TRACER` must be disabled by default, a
tracing-off sweep must stay within the tracing threshold (default 2%)
of the ledger-off baseline (instrumented call sites pay one attribute
check and share one no-op span), and the off sweep must buffer no spans.

Run:  PYTHONPATH=src python benchmarks/null_recorder_guard.py
"""

import argparse
import os
import statistics
import sys
import tempfile
import time

import repro.cache as artifact_cache
from repro.core.config import ClankConfig
from repro.eval.parallel import SimJob, execute_job, run_jobs
from repro.eval.settings import EvalSettings
from repro.obs.analyze import COLLECTOR
from repro.obs.metrics import COUNTERS
from repro.obs.recorder import NullRecorder
from repro.obs.telemetry import ENGINE_BATCH, LEDGER
from repro.obs.tracing import TRACER
from repro.sim.fast import dispatch_stats, simulate_fast
from repro.sim.sections import cache_stats, clear_cache
from repro.workloads.cache import get_trace

CONFIGS = [(1, 0, 0, 0), (8, 4, 0, 0), (8, 4, 2, 0), (16, 8, 4, 4)]
WORKLOADS = ("crc", "fft", "rc4", "qsort")

#: Power schedules per (workload, config) in the ``execute_job`` sweeps
#: of the ledger and arch checks: 4 x 4 x 32 = 512 runs per sweep.
LEDGER_SALTS = 32

#: Minimum alternating ledger-off/ledger-on sweep pairs.
LEDGER_PAIRS = 30


def run_one(trace, spec, settings, salt, recorder=None):
    """One policy-simulator run as the sweep drivers issue it (Progress
    Watchdog on, no compiler marking)."""
    return simulate_fast(
        trace, ClankConfig.from_tuple(spec), settings.schedule(salt),
        progress_watchdog="auto", verify=settings.verify, recorder=recorder,
    )


def sweep_results(traces, settings):
    """Every result dict of one full sweep, in sweep order."""
    return [
        run_one(trace, spec, settings, salt).to_dict()
        for salt, trace in enumerate(traces)
        for spec in CONFIGS
    ]


def sweep_seconds(traces, settings, recorder, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock of the full sweep."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for salt, trace in enumerate(traces):
            for spec in CONFIGS:
                run_one(trace, spec, settings, salt, recorder)
        best = min(best, time.perf_counter() - start)
    return best


def execute_seconds(jobs, settings) -> float:
    """Wall-clock of one ``execute_job`` sweep over ``jobs``."""
    start = time.perf_counter()
    for job in jobs:
        execute_job(job, settings)
    return time.perf_counter() - start


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
                        help="sweep repetitions (best-of timing)")
    parser.add_argument("--size", default="small", help="workload size preset")
    args = parser.parse_args(argv)

    settings = EvalSettings(size=args.size, verify=False)
    traces = [get_trace(name, size=args.size) for name in WORKLOADS]

    # Warm-up pass so trace building and imports are off the clock.
    sweep_seconds(traces, settings, None, 1)

    base = sweep_seconds(traces, settings, None, args.repeats)
    null = sweep_seconds(traces, settings, NullRecorder(), args.repeats)
    ratio = null / base
    print(f"baseline (no recorder):  {base:.3f}s")
    print(f"NullRecorder attached:   {null:.3f}s")
    print(f"ratio: {ratio:.4f} (threshold {args.threshold:.2f})")
    if ratio > args.threshold:
        print("FAIL: NullRecorder added measurable per-access overhead")
        return 1
    print("OK: recording off is free")

    # Compiled-replay guard: the lazy compile must be cached (same object
    # back every time) and repeat sweeps over compiled traces must agree
    # run-to-run within the same threshold.
    for trace in traces:
        if trace.compiled() is not trace.compiled():
            print(f"FAIL: {trace.name}: Trace.compiled() rebuilt on reuse")
            return 1
    # Best-of-N on both sides; extra repeats keep the tiny sweep times
    # from turning scheduler noise into a spurious failure.
    stability_repeats = max(args.repeats, 5)
    first = sweep_seconds(traces, settings, None, stability_repeats)
    second = sweep_seconds(traces, settings, None, stability_repeats)
    spread = max(first, second) / min(first, second)
    print(f"compiled replay, sweep 1: {first:.3f}s")
    print(f"compiled replay, sweep 2: {second:.3f}s")
    print(f"run-to-run spread: {spread:.4f} (threshold {args.threshold:.2f})")
    if spread > args.threshold:
        print("FAIL: compiled-trace replay is unstable run-to-run")
        return 1
    print("OK: compiled replay cached and stable")

    # Fast-path guard: with every SectionMap already built by the sweeps
    # above, a repeat sweep must be all cache hits, and the fast path
    # must carry (nearly) all of the runs — a handful of watchdog-cut
    # fallbacks is expected, wholesale fallback is a regression.
    COUNTERS.reset()
    sweep_seconds(traces, settings, None, 1)
    sections = cache_stats()
    runs = dispatch_stats()
    print(f"SectionMap cache: {sections}")
    print(f"fast-path runs:   {runs}")
    if sections["misses"]:
        print("FAIL: warm sweep rebuilt SectionMaps (cache misses)")
        return 1
    total = runs["fast"] + runs["fallback"]
    if total == 0 or runs["fast"] < 0.9 * total:
        print("FAIL: fast path no longer carries the sweep")
        return 1
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
    offs, ratios = [], []
    recorded = untimed = 0
    try:
        for _ in range(tele_pairs):
            LEDGER.disable()
            off = execute_seconds(ledger_jobs, settings)
            LEDGER.reset()
            LEDGER.enable()
            ratios.append(execute_seconds(ledger_jobs, settings) / off)
            offs.append(off)
            recorded += len(LEDGER.records)
            untimed += sum(1 for rec in LEDGER.records if rec.wall_s <= 0.0)
    finally:
        LEDGER.disable()
        LEDGER.reset()
    ledger_off = min(offs)
    ratio = statistics.median(ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    runs_per_sweep = len(traces) * len(CONFIGS)
    print(f"ledger disabled: {ledger_off:.3f}s "
          f"(best of {tele_pairs} sweeps of {len(ledger_jobs)} runs)")
    print(f"ledger enabled:  {recorded} records over {tele_pairs} sweeps")
    print(f"ratio: {ratio:.4f} median of {tele_pairs} pairs "
          f"(quartiles {q1:.4f}-{q3:.4f}; "
          f"threshold {args.telemetry_threshold:.2f})")
    if recorded != tele_pairs * len(ledger_jobs):
        print(f"FAIL: ledger recorded {recorded} runs, expected "
              f"{tele_pairs * len(ledger_jobs)}")
        return 1
    if untimed:
        print(f"FAIL: {untimed} ledger records carry no wall time")
        return 1
    if ratio > args.telemetry_threshold:
        print("FAIL: run-ledger telemetry added measurable overhead")
        return 1
    print("OK: telemetry records every run within the overhead budget")

    # Architectural-introspection guard.  Off is the default and must
    # stay free: the engines ask the collector once per run and get None.
    if COLLECTOR.enabled:
        print("FAIL: arch collector is enabled by default")
        return 1
    arch_off = min(
        execute_seconds(ledger_jobs, settings) for _ in range(tele_pairs)
    )
    ratio = arch_off / ledger_off
    print(f"arch collector off: {arch_off:.3f}s")
    print(f"ratio vs ledger-off baseline: {ratio:.4f} "
          f"(threshold {args.arch_threshold:.2f})")
    if ratio > args.arch_threshold:
        print("FAIL: introspection-off sweep exceeds the overhead budget")
        return 1
    # Collector on: every run must fold, and the aggregated cause totals
    # must reconcile exactly with the per-run results.
    COLLECTOR.reset()
    COLLECTOR.enable()
    try:
        arch_on_start = time.perf_counter()
        results = sweep_results(traces, settings)
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
        print(f"FAIL: collector folded {folded} runs, "
              f"expected {runs_per_sweep}")
        return 1
    if totals != expected:
        print(f"FAIL: collector cause totals {totals} != per-run "
              f"checkpoint totals {expected}")
        return 1
    print("OK: introspection off is free, on reconciles exactly")

    # Warm-disk-cache guard: populate a fresh store, drop every
    # in-memory map, and demand the repeat sweep seeds from disk — no
    # cold re-enumeration — with bit-identical results.
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        try:
            artifact_cache.reset_for_tests()
            clear_cache()
            cold = sweep_results(traces, settings)
            artifact_cache.persist_caches()
            clear_cache()
            COUNTERS.reset()
            warm = sweep_results(traces, settings)
            stats = cache_stats()
        finally:
            del os.environ["REPRO_CACHE_DIR"]
            artifact_cache.reset_for_tests()
            clear_cache()
    print(f"disk-cache warm sweep: {stats['disk_loads']} maps from disk, "
          f"{stats['misses']} in-memory misses")
    if warm != cold:
        print("FAIL: warm-from-disk sweep diverged from the cold sweep")
        return 1
    if stats["disk_loads"] < stats["misses"]:
        print("FAIL: warm sweep re-enumerated maps the store should hold")
        return 1
    print("OK: warm-from-disk sweep is bit-identical, no cold enumeration")

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
        print(f"FAIL: ledger accounts {ledger_rows} rows, "
              f"expected {expected_rows}")
        return 1
    if any(result.rows != n_seeds for result in batch_results):
        print("FAIL: a seed-repeat job returned the wrong row count")
        return 1
    if batch_rows < 0.9 * expected_rows:
        print("FAIL: batched engine no longer carries seed-repeat sweeps")
        return 1
    print("OK: seed-repeat rows served by the batched engine")

    # Family-amortization guard: a cold fig5-shaped run_jobs sweep must
    # enumerate (nearly) all of its SectionMaps through batched family
    # chain scans — the sweep plan is registered up front, so only
    # plan-ineligible stragglers may fall back to scalar scans.
    family_jobs = [
        SimJob(workload=name, config=spec, size=args.size, salt=salt)
        for salt, name in enumerate(WORKLOADS)
        for spec in CONFIGS
    ]
    clear_cache()
    COUNTERS.reset()
    run_jobs(family_jobs, settings, None)
    stats = cache_stats()
    walks = dispatch_stats()
    print(f"cold sweep maps: {stats['misses']} built, "
          f"{stats['family_maps']} via {stats['family_passes']} family "
          f"passes")
    print(f"cold sweep walks: {walks['c_walk']} of {walks['fast']} fast "
          f"runs via the C section walk")
    if stats["misses"] == 0:
        print("FAIL: cold sweep built no SectionMaps (stale cache?)")
        return 1
    if stats["family_maps"] < 0.8 * stats["misses"]:
        print("FAIL: family scans no longer amortize the sweep's "
              "section enumeration")
        return 1
    if stats["family_maps"] <= stats["family_passes"]:
        print("FAIL: family passes stopped batching (one map per pass)")
        return 1
    print("OK: section maps enumerated by batched family scans")
    if walks["fast"] == 0 or walks["c_walk"] < 0.9 * walks["fast"]:
        print("FAIL: the C section walk no longer serves the fast path")
        return 1
    print("OK: fast runs served by the C section walk")

    # Tracing guard: spans are per job, behind one enabled check; the
    # default-off sweep must pay nothing and buffer nothing.  The warm
    # section caches from the family guard keep this sweep tiny, so
    # best-of-many absorbs scheduler noise in the 2% budget.
    if TRACER.enabled:
        print("FAIL: tracer is enabled by default")
        return 1

    def jobs_seconds(repeats: int) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            run_jobs(family_jobs, settings, 1)
            best = min(best, time.perf_counter() - start)
        return best

    trace_repeats = max(args.repeats, 10)
    jobs_seconds(1)  # warm-up
    trace_base = jobs_seconds(trace_repeats)
    TRACER.reset()
    trace_off = jobs_seconds(trace_repeats)
    ratio = trace_off / trace_base
    print(f"run_jobs baseline:    {trace_base:.3f}s")
    print(f"run_jobs tracing off: {trace_off:.3f}s")
    print(f"ratio: {ratio:.4f} (threshold {args.tracing_threshold:.2f})")
    if TRACER.spans or TRACER.dropped:
        print(f"FAIL: tracing-off sweep buffered {len(TRACER.spans)} spans "
              f"({TRACER.dropped} dropped)")
        return 1
    if ratio > args.tracing_threshold:
        print("FAIL: tracing-off sweep exceeds the overhead budget")
        return 1
    print("OK: tracing off buffers nothing within the overhead budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
