"""Shared simulation plumbing for the experiment drivers."""

import os
import time
from typing import Dict, Iterable, List, Optional, Tuple

import repro.cache as artifact_cache
from repro.compiler.program_idempotence import profile_program_idempotent
from repro.core.config import ClankConfig
from repro.eval.settings import EvalSettings
from repro.obs import telemetry
from repro.obs.profile import PROFILER
from repro.sim import fast as fast_dispatch
from repro.sim.fast import simulate_fast
from repro.sim.result import SimulationResult
from repro.trace.trace import Trace
from repro.workloads.cache import get_trace
from repro.workloads.registry import mibench2_names

#: Cache of per-trace Program-Idempotence profiles, keyed by trace *content*
#: (name, access count, total cycles, checksum).  Keying by ``id(trace)``
#: would be wrong twice over: a garbage-collected trace's id can be reused
#: by a fresh object (silently returning another trace's profile), and the
#: mapping would grow without bound across sweeps.
_PI_CACHE: Dict[Tuple[str, int, int, int], frozenset] = {}


def _trace_key(trace: Trace) -> Tuple[str, int, int, int]:
    """A content-derived cache key for ``trace``."""
    return (trace.name, len(trace.accesses), trace.total_cycles, trace.checksum)


def pi_words_for(trace: Trace) -> frozenset:
    """Cached Program-Idempotence word set of a trace.

    Backed by the persistent artifact store when ``REPRO_CACHE_DIR`` is
    set: the profile is a pure function of trace content, so a warm
    worker skips the whole-trace idempotence walk."""
    key = _trace_key(trace)
    words = _PI_CACHE.get(key)
    if words is None:
        disk_key = None
        st = artifact_cache.store()
        if st is not None:
            disk_key = artifact_cache.content_key("pi_words", key)
            loaded = st.get("pi", disk_key)
            if isinstance(loaded, (set, frozenset)):
                words = frozenset(loaded)
        if words is None:
            words = profile_program_idempotent(trace)
            if disk_key is not None:
                st.put("pi", disk_key, words)
        _PI_CACHE[key] = words
    return _PI_CACHE[key]


def run_clank(
    trace: Trace,
    config: ClankConfig,
    settings: EvalSettings,
    salt: int = 0,
    use_compiler: bool = False,
    perf_watchdog=0,
    volatile_ranges=None,
    recorder=None,
) -> SimulationResult:
    """One policy-simulator run under the experiment's standard conditions.

    The Progress Watchdog is always configured (every Clank deployment has
    it — Table 1's code-size column includes both watchdog timers); the
    Performance Watchdog and the compiler's Program-Idempotent marking are
    per-experiment choices (the ``+C+WDT`` rows).

    With ``settings.profile`` on (the default), wall-clock time inside the
    simulator is accounted per workload into the shared
    :data:`~repro.obs.profile.PROFILER`.

    Runs go through :func:`repro.sim.fast.simulate_fast`: eligible ones
    (no verification, no recorder, no volatile ranges) take the
    section-memoized walk, the rest fall back to the reference simulator —
    the results are bit-identical either way.

    With the shared :data:`repro.obs.telemetry.LEDGER` enabled, each run
    appends one provenance record (engine, fallback reason, kernel, wall
    time) — read off the dispatch point after the run, so telemetry never
    influences which engine runs.
    """
    schedule = settings.schedule(salt)
    kwargs = dict(
        perf_watchdog=perf_watchdog,
        progress_watchdog="auto",
        pi_words=pi_words_for(trace) if use_compiler else None,
        volatile_ranges=volatile_ranges,
        verify=settings.verify,
        recorder=recorder,
    )
    ledger = telemetry.LEDGER
    if not settings.profile and not ledger.enabled:
        return simulate_fast(trace, config, schedule, **kwargs)
    start = time.perf_counter()
    result = simulate_fast(trace, config, schedule, **kwargs)
    elapsed = time.perf_counter() - start
    if settings.profile:
        PROFILER.record_sim(trace.name, elapsed)
    if ledger.enabled:
        engine, reason = fast_dispatch.last_dispatch()
        ledger.record(telemetry.RunRecord(
            workload=trace.name,
            config=config.label(),
            engine=engine,
            fallback_reason=reason,
            kernel=fast_dispatch.last_kernel(),
            result_cache="off",
            size=settings.size,
            salt=salt,
            driver=ledger.driver,
            wall_s=elapsed,
            t_start=start - ledger.epoch,
            worker=os.getpid(),
        ))
    return result


def benchmark_traces(settings: EvalSettings, size: Optional[str] = None) -> List[Tuple[str, Trace]]:
    """(name, trace) for the 23 MiBench2 benchmarks at the given size."""
    size = size or settings.size
    return [(name, get_trace(name, size=size)) for name in mibench2_names()]


def average(values: Iterable[float]) -> float:
    """Arithmetic mean (the paper's cross-benchmark averages)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ci95(values: Iterable[float]) -> float:
    """Normal-approximation 95% confidence half-width of the mean.

    ``1.96 * s / sqrt(n)`` with the sample standard deviation; 0 for
    fewer than two values.  Matches
    :meth:`repro.sim.batch.BatchResult.mean_ci` so figure-level and
    batch-level intervals agree.
    """
    values = list(values)
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return 1.96 * (var ** 0.5) / (n ** 0.5)
