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


def _cache_lookup(job: SimJob, settings: EvalSettings,
                  key: Optional[str] = None):
    """``(rkey, stored)`` from the persistent result cache.

    ``rkey`` is ``None`` when the store is off or the run verifies
    (verified runs never read or write it); otherwise it is ``key``, or
    :func:`result_key` when the caller holds none.  ``stored`` is the
    job's stored form (a ``to_dict``, or ``"stalled"`` for a job that
    allows stalls), or ``None`` on a miss.
    """
    st = artifact_cache.store()
    if st is None or settings.verify:
        return None, None
    rkey = key if key is not None else result_key(job, settings)[1]
    stored = st.get("result", rkey)
    if isinstance(stored, dict) or (stored == "stalled" and job.allow_stall):
        return rkey, stored
    return rkey, None


def _restore(job: SimJob, label: str, stored):
    """The result a stored form encodes, folded into the architecture
    collector.  A warm run skips the simulation, so attribution folds
    from the cached cause counts (occupancy detail only exists for
    simulated runs)."""
    if stored == "stalled":
        result, rows = None, [None]
    elif job.n_seeds > 1:
        result = BatchResult.from_dict(stored)
        rows = result.results
    else:
        result = SimulationResult.from_dict(stored)
        rows = [result]
    for row in rows:
        if row is None:
            ARCH_COLLECTOR.fold_stalled(job.workload, label)
        else:
            ARCH_COLLECTOR.fold_causes(
                job.workload, label, row.checkpoints_by_cause,
                telemetry.ENGINE_CACHED,
            )
    return result


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


def _engine_call(job: SimJob, trace, config: ClankConfig,
                 settings: EvalSettings):
    """The zero-argument call that simulates ``job``: ``simulate_batch``
    for a seed-repeat job, the undo-log simulator for ``engine="undo"``,
    ``simulate_fast`` otherwise (which falls back to the reference
    simulator inside when the section walk cannot carry the run)."""
    if job.n_seeds > 1:
        schedules = settings.schedule(job.salt).batch(
            job.n_seeds, _BATCH_SEGMENTS, seed_stride=job.seed_stride
        )
        return functools.partial(
            simulate_batch, trace, config, schedules,
            allow_stall=job.allow_stall,
            **_clank_kwargs(job, trace, config, settings),
        )
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
        return UndoLogSimulator(
            trace,
            config,
            schedule,
            log_entries=job.log_entries,
            cost_model=_COST_MODELS[job.cost_model],
            progress_watchdog=job.progress_watchdog,
            verify=settings.verify,
            max_power_cycles=job.max_power_cycles,
        ).run
    return functools.partial(
        simulate_fast, trace, config, schedule,
        **_clank_kwargs(job, trace, config, settings),
    )


def _batch_rows(job: SimJob, batch: BatchResult, seconds: float) -> list:
    """The provenance rows of a simulated seed-repeat job.

    The rows the walk served fold into one ``engine="batch"`` row
    carrying ``rows=<walked rows>``; each row served scalar gets its own
    row, so the ledger's row-weighted totals still reconcile run-for-run.
    Each rerun row carries that row's seconds; the rest of the job's time
    (map build, schedule draws, the row walk) goes to the first row, so
    the job's rows sum to ``seconds``.
    """
    reruns = [r for r, engine in enumerate(batch.engines)
              if engine != "batch"]
    rest = seconds - sum(batch.seconds[r] for r in reruns)
    rows = []
    if batch.batch_rows:
        rows.append((telemetry.ENGINE_BATCH, None, "c", batch.batch_rows,
                     job.salt, False, rest))
        rest = 0.0
    for r in reruns:
        engine = batch.engines[r]
        rows.append((engine, batch.reasons[r], batch.kernels[r], 1,
                     job.salt + r * job.seed_stride,
                     engine == telemetry.ENGINE_STALLED,
                     batch.seconds[r] + rest))
        rest = 0.0
    return rows


def _provenance(job: SimJob, result, seconds: float, cached: bool) -> list:
    """The job's provenance rows, ``(engine, fallback_reason, kernel,
    rows, salt, stalled, wall_s)`` each (read right after the run, so
    :func:`repro.sim.fast.last_dispatch` still names its engine)."""
    if cached:
        return [(telemetry.ENGINE_CACHED, None, None, max(1, job.n_seeds),
                 job.salt, result is None, 0.0)]
    if isinstance(result, BatchResult):
        return _batch_rows(job, result, seconds)
    if result is None:
        # The abort can come from either simulator mid-run (dispatch
        # counters never tick), so the stall is its own engine value.
        engine, reason, kernel = telemetry.ENGINE_STALLED, None, None
    elif job.engine == "undo":
        engine, reason, kernel = telemetry.ENGINE_UNDO, None, None
    else:
        engine, reason, kernel = fast_dispatch.last_dispatch()
    return [(engine, reason, kernel, 1, job.salt, result is None, seconds)]


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

    Seed-repeat jobs (``n_seeds > 1``) run as one batched replay
    (:func:`~repro.sim.batch.simulate_batch`) and return a
    :class:`~repro.sim.batch.BatchResult`.  Row ``i`` is bit-identical to
    the scalar job at salt ``salt + i*seed_stride``, so a driver can swap
    N scalar repeats for one seed-repeat job without changing a single
    result.

    With the shared :data:`repro.obs.telemetry.LEDGER` enabled, the job's
    provenance records are appended (one per scalar job): which engine
    produced the result (including ``disk-cached-result`` for cache hits),
    the typed fallback reason, the section walker, the result-cache tier
    outcome, and the run's wall time (a job's records sum to the seconds
    returned; 0 for a cache hit).  Recording happens strictly after
    dispatch, so telemetry cannot change which engine runs.

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
    rkey, stored = _cache_lookup(job, settings, key)
    if stored is not None:
        result = _restore(job, config.label(), stored)
        seconds = 0.0
        start = None
        tier = "hit"
    else:
        call = _engine_call(job, trace, config, settings)
        start = time.perf_counter()
        try:
            result = call()
        except SimulationError:
            if not job.allow_stall:
                raise
            result = None
        if rkey is not None:
            if result is None:
                stored = "stalled"
            elif job.n_seeds > 1:
                stored = result.to_dict()
            else:
                stored = result.to_dict(include_derived=False)
            artifact_cache.store().put("result", rkey, stored)
        seconds = time.perf_counter() - start
        tier = "off" if rkey is None else "miss"
        if result is None:
            ARCH_COLLECTOR.fold_stalled(job.workload, config.label())
        elif job.engine == "undo":
            # The undo-log engine has no section enumeration to derive
            # occupancy from; cause totals still reconcile.
            ARCH_COLLECTOR.fold_causes(
                job.workload, config.label(), result.checkpoints_by_cause,
                telemetry.ENGINE_UNDO,
            )
    ledger = telemetry.LEDGER
    if ledger.enabled:
        label = config.label()
        t_start = ledger.now() if start is None else start - ledger.epoch
        worker = os.getpid()
        for engine, reason, kernel, rows, salt, stalled, wall_s in (
            _provenance(job, result, seconds, tier == "hit")
        ):
            ledger.record(telemetry.RunRecord(
                workload=job.workload,
                config=label,
                engine=engine,
                fallback_reason=reason,
                kernel=kernel,
                result_cache=tier,
                size=job.size,
                salt=salt,
                driver=ledger.driver,
                stalled=stalled,
                rows=rows,
                wall_s=wall_s,
                t_start=t_start,
                worker=worker,
            ))
    return result, seconds


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
    # The parent is the ledger file's one writer: drop the inherited
    # stream (its buffer is empty, the parent flushes every line), so
    # worker records reach the file only through the parent's fold.
    telemetry.LEDGER.stop_stream()


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
