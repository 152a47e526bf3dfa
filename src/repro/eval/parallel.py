"""Parallel sweep engine for the experiment drivers.

The paper's design-space exploration is embarrassingly parallel — "several
million configurations" across "over eight CPU-months" (Section 7.1) — and
so are this repo's scaled-down sweeps: every simulator run is a pure
function of (workload, configuration, power schedule).  This module turns
that purity into a process-parallel executor with three invariants:

* **Determinism** — results are bit-identical to the serial path.  Every
  run's power schedule is seeded from the settings and the job's salt, and
  results are merged in submission order regardless of completion order.
* **Tiny job descriptors** — a :class:`SimJob` names its workload; it never
  carries a trace.  Workers materialize traces from the in-process cache
  (:mod:`repro.workloads.cache`), so a descriptor pickles in ~tens of
  bytes while a trace would pickle in megabytes.  Each worker's trace and
  Program-Idempotence caches (:data:`repro.eval.runner._PI_CACHE`) warm up
  on first use and amortize across all jobs it drains.
* **Cost-aware dispatch** — jobs are handed to workers heaviest-workload
  first (aes, rsa, blowfish lead; weights from measured ms/run), so a
  straggling heavy job cannot serialize the tail of a sweep.

``run_jobs(jobs, settings, n_workers=1)`` is the single entry point; with
``n_workers=1`` (the default) it executes in-process on the exact serial
path — no pool, no pickling — which is also the fallback when a platform
lacks ``fork``-ed multiprocessing.
"""

import functools
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import repro.cache as artifact_cache
from repro.common.errors import ConfigError, SimulationError
from repro.core import detector
from repro.core.config import ClankConfig, PolicyOptimizations
from repro.eval.settings import EvalSettings
from repro.obs import telemetry
from repro.obs.analyze import COLLECTOR as ARCH_COLLECTOR
from repro.obs.metrics import COUNTERS
from repro.obs.tracing import TRACER
from repro.power.schedules import RuntPower
from repro.runtime.costs import DEFAULT_COST_MODEL, CostModel
from repro.sim import fast as fast_dispatch
from repro.sim import sections
from repro.sim.batch import BatchResult, simulate_batch
from repro.sim.fast import simulate_fast
from repro.sim.result import SimulationResult
from repro.sim.undo_log import UndoLogSimulator
from repro.workloads.cache import get_trace

#: Initial on-times drawn per row for batched seed-repeat jobs.  Small on
#: purpose: most runs span a handful of power cycles at the default mean
#: on-time, and the batch engine doubles columns on demand — over-drawing
#: here costs real time (one Python expovariate call per cell per row).
_BATCH_SEGMENTS = 8

#: Fixed-cost checkpoints (no per-word flush cost), as Section 7.4's
#: analytic treatment assumes.  Lives here (not in fig8) so job descriptors
#: can name it with a string and fig8 can reuse it without a cycle.
FIXED_COST_MODEL = CostModel(wbb_entry_flush_cycles=0, wbb_flush_base_cycles=0)

_COST_MODELS: Dict[str, CostModel] = {
    "default": DEFAULT_COST_MODEL,
    "fixed": FIXED_COST_MODEL,
}

#: Static dispatch weights: measured simulator ms/run per workload from a
#: full-size evaluation (results/profile.txt).  Only the *ordering*
#: matters — heavy workloads leave the queue first so no worker is left
#: finishing an aes run alone while the others idle.
_WORKLOAD_WEIGHTS: Dict[str, float] = {
    "aes": 18.1,
    "rsa": 16.8,
    "blowfish": 15.4,
    "picojpeg": 14.5,
    "fft": 12.3,
    "rc4": 12.2,
    "adpcm_encode": 10.1,
    "susan": 9.2,
    "adpcm_decode": 8.6,
    "qsort": 7.1,
}
_DEFAULT_WEIGHT = 8.0


@dataclass(frozen=True)
class SimJob:
    """One policy-simulator run, described by value (picklable, ~50 bytes).

    Attributes:
        workload: Workload name (resolved via the worker's trace cache).
        config: ``(R, W, WB, AP)`` entry counts (Table 2 notation).
        size: Workload size preset the trace is built at.
        trace_seed: Workload-input seed passed to the trace builder.
        opts: Policy-optimization setting; ``None`` means all enabled
            (mirroring :meth:`ClankConfig.from_tuple`).
        prefix_low_bits: APB geometry (the APB ablation sweeps this).
        salt: Power-schedule salt (``settings.schedule(salt)``).
        use_compiler: Mark whole-program Program-Idempotent accesses.
        epoch_cycles: When > 0, use the epoch-scoped compiler plan with
            this target epoch length (inserted checkpoints + epoch-scoped
            marking) instead of whole-program marking.
        perf_watchdog: Performance Watchdog load (0 off, int, or "auto").
        progress_watchdog: Progress Watchdog load (0 off, int, or "auto").
            On (``"auto"``) by default: every Clank deployment has it, and
            Table 1's code-size column counts both watchdog timers.
        progress_watchdog_adaptive: The paper's halving behavior.
        volatile_segments: Memory-map segment names treated as volatile
            (mixed-volatility mode); workers resolve them to word ranges.
        schedule: ``"exp"`` (exponential, seeded from settings + salt) or
            ``"runt"`` (runt mixture, seeded from settings only — matching
            the progress-watchdog ablation).
        runt_mean: Mean runt on-time in cycles (``schedule="runt"``).
        runt_fraction: Fraction of runt cycles (``schedule="runt"``).
        engine: ``"clank"`` or ``"undo"`` (the undo-log alternative).
        log_entries: Undo-log capacity (``engine="undo"``).
        cost_model: ``"default"`` or ``"fixed"`` (Figure 8's analytic one).
        max_power_cycles: Abort threshold override (None = generous default).
        allow_stall: Treat a no-forward-progress abort as a ``None`` result
            instead of an error (the progress ablation's "stalled" cells).
        n_seeds: Power-schedule seed repeats.  1 (the default) is the
            classic scalar job; > 1 makes this a *seed-repeat* job executed
            as one batched replay (:mod:`repro.sim.batch`) whose
            row ``i`` is exactly the scalar job at salt
            ``salt + i*seed_stride`` — ``execute_job`` then returns a
            :class:`~repro.sim.batch.BatchResult` instead of one
            :class:`SimulationResult`.  Only ``engine="clank"`` with the
            exponential schedule supports seed repeats.
        seed_stride: Salt distance between consecutive seed-repeat rows
            (drivers that interleave salts across workloads set this to
            their interleave stride so row salts never collide).
    """

    workload: str
    config: Tuple[int, int, int, int]
    size: str = "default"
    trace_seed: int = 0
    opts: Optional[PolicyOptimizations] = None
    prefix_low_bits: int = 6
    salt: int = 0
    use_compiler: bool = False
    epoch_cycles: int = 0
    perf_watchdog: Union[int, str] = 0
    progress_watchdog: Union[int, str] = "auto"
    progress_watchdog_adaptive: bool = True
    volatile_segments: Tuple[str, ...] = ()
    schedule: str = "exp"
    runt_mean: int = 400
    runt_fraction: float = 0.0
    engine: str = "clank"
    log_entries: int = 64
    cost_model: str = "default"
    max_power_cycles: Optional[int] = None
    allow_stall: bool = False
    n_seeds: int = 1
    seed_stride: int = 1

    def clank_config(self) -> ClankConfig:
        """The job's hardware configuration object."""
        config = ClankConfig.from_tuple(self.config, self.opts)
        if self.prefix_low_bits != 6:
            import dataclasses

            config = dataclasses.replace(
                config, prefix_low_bits=self.prefix_low_bits
            )
        return config

    def weight(self) -> float:
        """Dispatch weight (expected relative cost)."""
        base = _WORKLOAD_WEIGHTS.get(self.workload, _DEFAULT_WEIGHT)
        return base * max(1, self.n_seeds)


#: Installed by :func:`repro.serve.client.install`: when set, ``run_jobs``
#: routes whole job batches through a sweep server instead of executing
#: locally (results stay bit-identical; provenance records
#: ``engine="served"``).  Never consulted under ``settings.verify`` —
#: served results must not claim a verification that did not execute.
SERVED_EXECUTOR = None


def result_key(job: SimJob, settings: EvalSettings) -> Tuple[str, str]:
    """The whole-result cache address of one job: ``(kind, sha256 key)``.

    This is the *dedupe discipline* shared by the local result cache and
    the sweep server (:mod:`repro.serve`): the key covers every input
    that determines the simulation outcome — trace content (via the
    compiled-trace content key), memory-map ranges, every behaviour-
    affecting job field, the cost model, and the schedule-determining
    settings fields (seed, mean on-time, clock).  Identical requests from
    any number of clients are identical keys, so N users' sweeps cost one
    simulation.  Fields that *cannot* affect the result (worker counts,
    ledger state) are deliberately excluded; ``verify`` is excluded too
    because verified runs never consult this cache at all.
    """
    trace = get_trace(job.workload, size=job.size, seed=job.trace_seed)
    kind = "batch-result" if job.n_seeds > 1 else "result"
    return "result", artifact_cache.content_key(
        kind, detector.POLICY_REV, trace.compiled().content_key,
        trace.memory_map.text_word_range,
        trace.memory_map.word_range("mmio"),
        job, _COST_MODELS[job.cost_model],
        settings.seed, settings.avg_on_ms, settings.clock_hz,
    )


#: Cache of epoch compilation plans, content-keyed like ``_PI_CACHE``.
_EPOCH_CACHE: Dict[tuple, object] = {}


def _epoch_plan(trace, epoch_cycles: int):
    from repro.compiler.epoch_analysis import compile_with_epochs
    from repro.eval.runner import _trace_key

    key = _trace_key(trace) + (epoch_cycles,)
    if key not in _EPOCH_CACHE:
        _EPOCH_CACHE[key] = compile_with_epochs(trace, epoch_cycles)
    return _EPOCH_CACHE[key]


#: Family sweep plans: every run_jobs call registers, per shared
#: enumeration context (one trace + one PI/forced marking), the ordered
#: distinct configs its jobs will sweep.  ``execute_job`` consults the
#: plan right before simulating, so a cold SectionMap triggers one
#: batched family pass over the next ``_FAMILY_CHUNK`` plan members
#: instead of a scalar chain scan per config.  The registry persists
#: across run_jobs calls (fork-pool workers inherit it at pool creation)
#: and only ever grows — its total size also drives the SectionMap LRU
#: auto-sizing, so a sweep's whole working set stays resident.
_FAMILY_PLANS: Dict[tuple, Tuple[list, dict]] = {}

#: Configs per batched family pass.  Matches the C kernel's budget
#: (≤ FAMILY_MAX = 64) while keeping the prefetch wave small enough
#: that pool groups stay well under a straggler's worth of work.
_FAMILY_CHUNK = 32

#: Slack added to the auto-sized SectionMap LRU capacity (maps built
#: outside any plan: tests, ad-hoc simulate_fast calls).
_FAMILY_LRU_SLACK = 256


def _family_plan_key(job: SimJob) -> tuple:
    """The enumeration context a job's SectionMap family shares.

    Everything that changes the *trace walk* (trace identity, PI
    marking, forced checkpoints) is in here; everything that only
    changes buffer occupancy (the config tuple, APB geometry, policy
    opts) deliberately is not — those vary within one family.
    """
    return (job.workload, job.size, job.trace_seed, job.use_compiler,
            job.epoch_cycles)


def _family_eligible(job: SimJob) -> bool:
    """Jobs whose simulation path consumes SectionMaps at all."""
    return job.engine == "clank" and not job.volatile_segments


def _register_family_plans(jobs: List[SimJob],
                           settings: EvalSettings) -> None:
    """Register ``jobs``'s config families and auto-size the LRU.

    Verified runs never touch the section-memoized path, so they
    register nothing.  The LRU is raised to the registry's total
    distinct (context, config) count plus slack — the ISSUE's "family
    size × in-flight traces" sweep working set — unless the
    ``REPRO_SECTIONMAP_LRU`` override pins it.
    """
    if settings.verify:
        return
    for job in jobs:
        if not _family_eligible(job):
            continue
        plan = _FAMILY_PLANS.get(_family_plan_key(job))
        if plan is None:
            plan = ([], {})
            _FAMILY_PLANS[_family_plan_key(job)] = plan
        configs, pos = plan
        config = job.clank_config()
        if config not in pos:
            pos[config] = len(configs)
            configs.append(config)
    total = sum(len(configs) for configs, _ in _FAMILY_PLANS.values())
    if total:
        sections.ensure_lru_capacity(total + _FAMILY_LRU_SLACK)


def family_window(job: SimJob) -> list:
    """The registered plan configs a worker needs to prefetch for
    ``job``: its own config and up to ``_FAMILY_CHUNK - 1`` successors
    (empty when no plan covers the job)."""
    plan = _FAMILY_PLANS.get(_family_plan_key(job))
    if plan is None:
        return []
    configs, pos = plan
    p = pos.get(job.clank_config())
    return [] if p is None else configs[p:p + _FAMILY_CHUNK]


def adopt_family_window(job: SimJob, window: list) -> None:
    """Make ``window`` (a parent's :func:`family_window`) this process's
    plan for ``job``'s enumeration context — how a fork-pool worker
    created before the plan was registered still family-scans."""
    if window:
        _FAMILY_PLANS[_family_plan_key(job)] = (
            list(window), {c: i for i, c in enumerate(window)}
        )


def _family_prefetch(job: SimJob, trace, config, pi_words,
                     pi_access_indices, forced_checkpoints) -> None:
    """Run the job's family prefetch if a plan covers it (see
    :func:`repro.sim.sections.prefetch_family`)."""
    plan = _FAMILY_PLANS.get(_family_plan_key(job))
    if plan is None:
        return
    configs, pos = plan
    p = pos.get(config)
    if p is None:
        return
    sections.prefetch_family(
        trace, config, configs, p,
        pi_words=pi_words,
        pi_access_indices=pi_access_indices,
        forced_checkpoints=forced_checkpoints,
        chunk=_FAMILY_CHUNK,
    )


#: ``_cache_lookup``'s "not in the result cache" marker (a cached
#: allowed stall restores as ``None``).
_MISS = object()


def _ledger_record(job: SimJob, config: ClankConfig, engine: str,
                   reason=None, result_cache="off", rows=1, salt=None,
                   stalled=False, wall_s=0.0, t_start=None,
                   kernel=None) -> None:
    """Append one provenance record for ``job`` (no-op with the ledger
    off); ``salt`` defaults to the job's own."""
    ledger = telemetry.LEDGER
    if not ledger.enabled:
        return
    ledger.record(telemetry.RunRecord(
        workload=job.workload,
        config=config.label(),
        engine=engine,
        fallback_reason=reason,
        kernel=kernel,
        result_cache=result_cache,
        size=job.size,
        salt=job.salt if salt is None else salt,
        driver=ledger.driver,
        stalled=stalled,
        rows=rows,
        wall_s=wall_s,
        t_start=ledger.now() if t_start is None else t_start,
        worker=os.getpid(),
    ))


def _cache_lookup(job: SimJob, settings: EvalSettings, config: ClankConfig,
                  key: Optional[str] = None):
    """``(rkey, result)`` from the persistent result cache.

    ``rkey`` is ``None`` when the store is off or the run verifies
    (verified runs never read or write it); otherwise it is ``key``, or
    :func:`result_key` when the caller holds none.  ``result`` is
    :data:`_MISS` unless the store held the job; a hit is already
    accounted in the ledger and the architecture collector.
    """
    st = artifact_cache.store()
    if st is None or settings.verify:
        return None, _MISS
    rkey = key if key is not None else result_key(job, settings)[1]
    cached = st.get("result", rkey)
    label = config.label()
    if isinstance(cached, dict):
        _ledger_record(job, config, telemetry.ENGINE_CACHED,
                       result_cache="hit", rows=max(1, job.n_seeds))
        if job.n_seeds > 1:
            result = BatchResult.from_dict(cached)
            rows = result.results
        else:
            result = SimulationResult.from_dict(cached)
            rows = [result]
        # A warm run skips the simulation, so attribution folds from the
        # cached cause counts (occupancy detail only exists for
        # simulated runs).
        for row in rows:
            if row is None:
                ARCH_COLLECTOR.fold_stalled(job.workload, label)
            else:
                ARCH_COLLECTOR.fold_causes(
                    job.workload, label, row.checkpoints_by_cause,
                    telemetry.ENGINE_CACHED,
                )
        return rkey, result
    if cached == "stalled" and job.allow_stall:
        _ledger_record(job, config, telemetry.ENGINE_CACHED,
                       result_cache="hit", stalled=True)
        ARCH_COLLECTOR.fold_stalled(job.workload, label)
        return rkey, None
    return rkey, _MISS


def _clank_kwargs(job: SimJob, trace, config: ClankConfig,
                  settings: EvalSettings) -> dict:
    """The ``simulate_fast``/``simulate_batch`` keyword arguments of a
    Clank job: PI or epoch marking, volatile ranges, watchdogs.  Runs
    the job's family prefetch when a sweep plan covers it."""
    from repro.eval.runner import pi_words_for

    pi_words = pi_access_indices = forced_checkpoints = None
    if job.epoch_cycles > 0:
        plan = _epoch_plan(trace, job.epoch_cycles)
        pi_access_indices = plan.ignorable
        forced_checkpoints = plan.boundaries
    elif job.use_compiler:
        pi_words = pi_words_for(trace)
    volatile_ranges = None
    if job.volatile_segments:
        volatile_ranges = tuple(
            trace.memory_map.word_range(name)
            for name in job.volatile_segments
        )
    elif not settings.verify:
        _family_prefetch(job, trace, config, pi_words,
                         pi_access_indices, forced_checkpoints)
    return dict(
        cost_model=_COST_MODELS[job.cost_model],
        perf_watchdog=job.perf_watchdog,
        progress_watchdog=job.progress_watchdog,
        progress_watchdog_adaptive=job.progress_watchdog_adaptive,
        pi_words=pi_words,
        pi_access_indices=pi_access_indices,
        forced_checkpoints=forced_checkpoints,
        volatile_ranges=volatile_ranges,
        verify=settings.verify,
        max_power_cycles=job.max_power_cycles,
    )


def execute_job(
    job: SimJob, settings: EvalSettings, key: Optional[str] = None,
) -> Tuple[Optional[SimulationResult], float]:
    """Run one job; returns ``(result, simulator_seconds)``.

    ``result`` is ``None`` only when the run stalled and the job allows it.
    Pure with respect to the job and settings: this is the function whose
    outputs the parallel path must reproduce bit-identically.

    That purity makes whole results cacheable: with ``REPRO_CACHE_DIR``
    set, the result is stored under a key derived from the *trace
    content* plus every behavior-affecting job and settings field, so a
    warm run skips the simulation outright.  Runs under ``--verify`` are
    never served from cache — a cached ``verified`` flag would claim a
    check that did not execute.

    With the shared :data:`repro.obs.telemetry.LEDGER` enabled, one
    provenance record per job is appended: which engine produced the
    result (including ``disk-cached-result`` for cache hits), the typed
    fallback reason, the chain-scan kernel, the result-cache tier
    outcome, and the run's wall time (a job's records sum to the
    seconds returned; 0 for a cache hit).  Recording happens strictly
    after dispatch, so telemetry cannot change which engine runs.

    Seed-repeat jobs (``n_seeds > 1``) return a
    :class:`~repro.sim.batch.BatchResult` instead — see
    :func:`_execute_batch`.

    ``key`` is the job's :func:`result_key` when the caller already
    holds it (the sweep server keys each job once per batch).
    """
    if job.n_seeds > 1 and (job.engine != "clank" or job.schedule != "exp"):
        raise ConfigError(
            "seed-repeat jobs (n_seeds > 1) require engine='clank' with "
            "the exponential schedule"
        )
    trace = get_trace(job.workload, size=job.size, seed=job.trace_seed)
    config = job.clank_config()
    rkey, cached = _cache_lookup(job, settings, config, key)
    if cached is not _MISS:
        return cached, 0.0
    result_cache = "miss" if rkey is not None else "off"
    if job.n_seeds > 1:
        return _execute_batch(job, settings, trace, config, rkey,
                              result_cache)

    if job.schedule == "runt":
        schedule = RuntPower(
            settings.avg_on_cycles,
            job.runt_mean,
            runt_fraction=job.runt_fraction,
            seed=settings.seed,
        )
    else:
        schedule = settings.schedule(job.salt)

    if job.engine == "undo":
        run_one = UndoLogSimulator(
            trace,
            config,
            schedule,
            log_entries=job.log_entries,
            cost_model=_COST_MODELS[job.cost_model],
            progress_watchdog=job.progress_watchdog,
            verify=settings.verify,
            max_power_cycles=job.max_power_cycles,
        ).run
    else:
        # Clank jobs go through the section-memoized fast path when
        # eligible (verify off, no volatile ranges); ineligible ones fall
        # back to the reference simulator inside simulate_fast.
        run_one = functools.partial(
            simulate_fast, trace, config, schedule,
            **_clank_kwargs(job, trace, config, settings),
        )

    start = time.perf_counter()
    t_start = start - telemetry.LEDGER.epoch
    try:
        result = run_one()
    except SimulationError:
        if not job.allow_stall:
            raise
        if rkey is not None:
            artifact_cache.store().put("result", rkey, "stalled")
        elapsed = time.perf_counter() - start
        # The abort can come from either simulator mid-run (dispatch
        # counters never tick), so the stall is its own engine value.
        _ledger_record(job, config, "stalled", result_cache=result_cache,
                       stalled=True, wall_s=elapsed, t_start=t_start)
        ARCH_COLLECTOR.fold_stalled(job.workload, config.label())
        return None, elapsed
    if rkey is not None:
        artifact_cache.store().put(
            "result", rkey, result.to_dict(include_derived=False)
        )
    elapsed = time.perf_counter() - start
    if job.engine == "undo":
        engine, reason = "undo", None
        # The undo-log engine has no section enumeration to derive
        # occupancy from; cause totals still reconcile.
        ARCH_COLLECTOR.fold_causes(
            job.workload, config.label(),
            result.checkpoints_by_cause, "undo",
        )
    else:
        engine, reason = fast_dispatch.last_dispatch()
    _ledger_record(job, config, engine, reason=reason,
                   result_cache=result_cache, wall_s=elapsed,
                   t_start=t_start,
                   kernel=fast_dispatch.last_kernel()
                   if engine == "fast" else None)
    return result, elapsed


def _execute_batch(
    job: SimJob, settings: EvalSettings, trace, config: ClankConfig,
    rkey: Optional[str], result_cache: str,
) -> Tuple[BatchResult, float]:
    """Run one seed-repeat job (a result-cache miss) as a single
    batched replay.

    Row ``i`` of the returned :class:`~repro.sim.batch.BatchResult` is
    bit-identical to the scalar job at salt ``salt + i*seed_stride``
    (rows the batch engine cannot carry rerun through ``simulate_fast``
    transparently), so a driver can swap N scalar repeats for one
    seed-repeat job without changing a single result.

    Telemetry folds the whole batch into one ``engine="batch"`` record
    carrying ``rows=<walked rows>``; rows served scalar get their own
    records, so the ledger's row-weighted totals still reconcile
    run-for-run.  Each rerun row's record carries that row's seconds;
    the rest of the job's time (map build, schedule draws, the row walk)
    goes to the batch record, or to the first rerun row when the walk
    served none, so the job's records sum to the seconds returned.
    Whole ``BatchResult``s participate in the persistent result cache
    under their own key namespace.
    """
    kwargs = _clank_kwargs(job, trace, config, settings)
    schedules = settings.schedule(job.salt).batch(
        job.n_seeds, _BATCH_SEGMENTS, seed_stride=job.seed_stride
    )
    start = time.perf_counter()
    t_start = start - telemetry.LEDGER.epoch
    batch = simulate_batch(
        trace, config, schedules, allow_stall=job.allow_stall, **kwargs
    )
    elapsed = time.perf_counter() - start
    if rkey is not None:
        artifact_cache.store().put("result", rkey, batch.to_dict())

    reruns = [r for r, engine in enumerate(batch.engines)
              if engine != "batch"]
    rest = elapsed - sum(batch.seconds[r] for r in reruns)
    batch_rows = batch.batch_rows
    if batch_rows:
        _ledger_record(job, config, telemetry.ENGINE_BATCH,
                       result_cache=result_cache, rows=batch_rows,
                       wall_s=rest, t_start=t_start, kernel="c")
        rest = 0.0
    for r in reruns:
        engine = batch.engines[r]
        _ledger_record(
            job, config, engine,
            reason=batch.reasons[r],
            result_cache=result_cache,
            salt=job.salt + r * job.seed_stride,
            stalled=engine == "stalled",
            wall_s=batch.seconds[r] + rest,
            t_start=t_start,
            kernel=batch.kernels[r],
        )
        rest = 0.0
    return batch, elapsed


# --------------------------------------------------------------------- #
# Job payloads: one job's outcome, packaged to cross a process boundary.
# --------------------------------------------------------------------- #


def job_payload(job: SimJob, settings: EvalSettings,
                span: Optional[dict] = None,
                key: Optional[str] = None) -> dict:
    """Execute ``job`` and package everything its caller's process must
    fold (never a pickled trace or simulator).

    ``result`` is the result's ``to_dict`` form (``batch`` says which
    kind), ``records`` the ledger records the job appended (moved out
    of this process's ledger; they carry its rows and wall time), and
    ``arch`` the architecture-collector folds.  ``span`` (if given) is
    closed and shipped in ``spans``; ``key`` is passed to
    :func:`execute_job`.  Counters are the caller's: a fork-pool worker
    adds the job's :data:`~repro.obs.metrics.COUNTERS` delta as
    ``counters`` (:func:`_worker_run`), the sweep server ships one delta
    per chunk.  The fork pool folds a payload with :func:`fold_payload`;
    the sweep server streams it.
    """
    ledger = telemetry.LEDGER
    n_records = len(ledger.records)
    # Architecture-stats folds mirror into a per-job capture list so the
    # parent can replay them in submission order (determinism at any
    # worker count); an empty list costs nothing when collection is off.
    arch: list = []
    if ARCH_COLLECTOR.enabled:
        ARCH_COLLECTOR.capture = arch
    try:
        result, _ = execute_job(job, settings, key)
    finally:
        ARCH_COLLECTOR.capture = None
        if span is not None:
            span["t1"] = time.perf_counter()
    records = [rec.to_dict() for rec in ledger.records[n_records:]]
    del ledger.records[n_records:]
    # Pool children exit via os._exit (no atexit), so flush newly
    # enumerated artifacts to the shared store now.  Dirty tracking in
    # repro.sim.sections makes this O(maps this job grew) — usually one.
    artifact_cache.persist_caches()
    is_batch = isinstance(result, BatchResult)
    if is_batch:
        raw = result.to_dict()
    else:
        raw = None if result is None else result.to_dict(include_derived=False)
    return {
        "result": raw,
        "batch": is_batch,
        "records": records,
        "arch": arch,
        "spans": [span] if span is not None else [],
    }


def decode_result(payload: dict) -> Union[SimulationResult, BatchResult,
                                          None]:
    """The result object a :func:`job_payload` (or an SSE event) carries."""
    raw = payload["result"]
    if payload["batch"]:
        return BatchResult.from_dict(raw)
    return None if raw is None else SimulationResult.from_dict(raw)


def fold_payload(payload: dict, ambient: Optional[tuple] = None):
    """Merge one :func:`job_payload` into this process; returns its result.

    Called in strict submission order — the determinism contract:
    ledger indices and counters fold in the same order a serial run
    would produce them.  Worker spans ship rootless and hang under
    ``ambient``, the span active at dispatch.
    """
    COUNTERS.merge(payload["counters"])
    for rec in payload["records"]:
        telemetry.LEDGER.record(telemetry.RunRecord.from_dict(rec))
    ARCH_COLLECTOR.merge_entries(payload["arch"])
    if TRACER.enabled:
        for span in payload["spans"]:
            if ambient is not None and not span.get("parent_id"):
                span["trace_id"], span["parent_id"] = ambient
            TRACER.add(span)
    return decode_result(payload)


# --------------------------------------------------------------------- #
# Worker side.
# --------------------------------------------------------------------- #

_WORKER_SETTINGS: Optional[EvalSettings] = None


def _worker_init(settings: EvalSettings) -> None:
    global _WORKER_SETTINGS
    _WORKER_SETTINGS = settings


def _worker_run(item: Tuple[int, SimJob]) -> Tuple[int, dict]:
    """Execute one job in a worker; returns its submission index and
    its :func:`job_payload` plus the job's ``counters`` delta."""
    idx, job = item
    # Tracing state is inherited across the pool fork; a per-job worker
    # span ships back in the payload (rootless — the parent re-parents
    # it under its ambient span when folding).
    span = None
    if TRACER.enabled:
        from repro.obs.tracing import make_span

        span = make_span(
            f"job {job.workload}", "worker",
            attrs={"workload": job.workload, "config": job.config},
        )
    before = COUNTERS.snapshot()
    payload = job_payload(job, _WORKER_SETTINGS, span)
    payload["counters"] = COUNTERS.delta(before)
    return idx, payload


def _worker_run_group(
    items: List[Tuple[int, SimJob]]
) -> List[Tuple[int, dict]]:
    """Execute one family group's jobs back-to-back in this worker.

    The group shares a family-plan chunk, so the first cold job's
    prefetch enumerates the whole chunk in one batched pass and the
    rest replay from the worker's SectionMap cache; payloads stay
    per-job so the parent's submission-order merge is unchanged.
    """
    return [_worker_run(item) for item in items]


# --------------------------------------------------------------------- #
# Parent side.
# --------------------------------------------------------------------- #


def resolve_workers(n_workers: Optional[int] = None) -> int:
    """Worker-count resolution: explicit argument, then the ``REPRO_JOBS``
    environment variable, then 1 (serial).  0 means "all CPUs"."""
    if n_workers is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                n_workers = int(env)
            except ValueError:
                n_workers = 1
        else:
            n_workers = 1
    if n_workers == 0:
        n_workers = os.cpu_count() or 1
    return max(1, n_workers)


def _make_pool(n_workers: int, settings: EvalSettings):
    """A worker pool (separated out so tests can intercept creation)."""
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        ctx = multiprocessing.get_context()
    return ctx.Pool(
        processes=n_workers, initializer=_worker_init, initargs=(settings,)
    )


def run_jobs(
    jobs: List[SimJob],
    settings: EvalSettings,
    n_workers: Optional[int] = None,
) -> List[Union[SimulationResult, BatchResult, None]]:
    """Execute ``jobs`` and return their results in submission order.

    A seed-repeat job (``n_seeds > 1``) yields one
    :class:`~repro.sim.batch.BatchResult` in its slot; everything else
    yields a :class:`SimulationResult` (or ``None`` for allowed stalls).

    With ``n_workers`` resolving to 1 every job runs in-process — the
    exact serial path the drivers always had.  Otherwise jobs are
    dispatched (heaviest workload first) to a pool of fork-ed workers and
    the payloads are merged back in submission order, so the returned list
    is bit-identical either way.

    Each worker job comes back as one :func:`job_payload` —
    :data:`~repro.obs.telemetry.LEDGER` records (each run's one timer)
    and a :data:`~repro.obs.metrics.COUNTERS` delta — folded here in
    **submission order** (:func:`fold_payload`), so the parent's ledger
    and counters are deterministic and identical (modulo wall-time
    fields, and trace-cache counts: each worker builds its own traces)
    at any worker count.
    """
    if SERVED_EXECUTOR is not None and not settings.verify:
        return SERVED_EXECUTOR.run_jobs(jobs, settings)
    n_workers = resolve_workers(n_workers)
    _register_family_plans(jobs, settings)
    if n_workers <= 1 or len(jobs) <= 1:
        results = []
        for job in jobs:
            with TRACER.span(f"job {job.workload}", workload=job.workload,
                             config=job.config):
                result, _ = execute_job(job, settings)
            results.append(result)
        return results

    # Family-aware grouping: jobs sharing a family-plan chunk form one
    # group task so a single worker enumerates the chunk once and its
    # groupmates replay warm; every other job is its own singleton
    # group.  Groups leave the queue heaviest-total-weight first (the
    # original cost-aware ordering, lifted from jobs to groups), ties
    # keeping submission order.
    groups: Dict[tuple, List[int]] = {}
    for i, job in enumerate(jobs):
        gkey: tuple = ("solo", i)
        if not settings.verify and _family_eligible(job):
            plan = _FAMILY_PLANS.get(_family_plan_key(job))
            if plan is not None:
                pos = plan[1].get(job.clank_config())
                if pos is not None:
                    gkey = (_family_plan_key(job), pos // _FAMILY_CHUNK)
        groups.setdefault(gkey, []).append(i)
    ordered = sorted(
        groups.values(),
        key=lambda idxs: (-sum(jobs[i].weight() for i in idxs), idxs[0]),
    )
    ambient = TRACER.current() if TRACER.enabled else None

    # Payloads are folded *eagerly* over the longest contiguous
    # submission-order prefix as they arrive, so live observers (a
    # streaming ledger tailed by ``repro.obs.watch``) see progress
    # mid-sweep; out-of-order arrivals wait in ``pending``.  Fold order
    # is unchanged from the all-at-the-end merge, so every downstream
    # aggregate stays bit-identical.
    results: List[Union[SimulationResult, BatchResult, None]] = []
    pending: Dict[int, dict] = {}
    pool = _make_pool(n_workers, settings)
    try:
        for group_payloads in pool.imap_unordered(
            _worker_run_group,
            [[(i, jobs[i]) for i in idxs] for idxs in ordered],
            chunksize=1,
        ):
            pending.update(group_payloads)
            while len(results) in pending:
                i = len(results)
                results.append(
                    fold_payload(pending.pop(i), ambient)
                )
    finally:
        pool.close()
        pool.join()
    if len(results) != len(jobs):
        raise SimulationError(
            f"pool returned {len(results)} of {len(jobs)} payloads"
        )
    return results
