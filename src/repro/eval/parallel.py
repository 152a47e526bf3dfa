"""Sweep engine for the experiment drivers.

The paper's design-space exploration is embarrassingly parallel — "several
million configurations" across "over eight CPU-months" (Section 7.1) — and
so are this repo's scaled-down sweeps: every simulator run is a pure
function of (workload, configuration, power schedule).  This module runs
them in-process, one job after another, with two invariants:

* **Determinism** — every run's power schedule is seeded from the
  settings and the job's salt, so a job's result depends on nothing but
  its descriptor, and results come back in submission order.
* **Tiny job descriptors** — a :class:`SimJob` names its workload; it never
  carries a trace.  Traces come from the in-process cache
  (:mod:`repro.workloads.cache`), so a descriptor pickles in ~tens of
  bytes while a trace would pickle in megabytes — which is what lets the
  sweep server (:mod:`repro.serve`) take jobs over the wire.

``run_jobs(jobs, settings)`` is the single entry point for a sweep and
:func:`execute_job` runs one job; the sweep server calls the same
:func:`execute_job` through :func:`job_payload`.
"""

import functools
import os
import time
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple, Union, get_origin

import repro.cache as artifact_cache
from repro.common.errors import ConfigError, SimulationError
from repro.core import detector
from repro.core.config import ClankConfig, PolicyOptimizations
from repro.eval.settings import EvalSettings
from repro.obs import telemetry
from repro.obs.analyze import COLLECTOR as ARCH_COLLECTOR
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

@dataclass(frozen=True)
class SimJob:
    """One policy-simulator run, described by value (picklable, ~50 bytes).

    Attributes:
        workload: Workload name (resolved via the trace cache).
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
            (mixed-volatility mode), resolved to word ranges at run time.
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
    that determines the simulation outcome — trace content and memory
    map (:attr:`~repro.trace.trace.Trace.digest`), every behaviour-
    affecting job field, the cost model, and the schedule-determining
    settings fields (seed, mean on-time, clock).  Identical requests from
    any number of clients are identical keys, so N users' sweeps cost one
    simulation.  State that *cannot* affect the result (ledger,
    tracing) is deliberately excluded; ``verify`` is excluded too
    because verified runs never consult this cache at all.
    """
    trace = get_trace(job.workload, size=job.size, seed=job.trace_seed)
    kind = "batch-result" if job.n_seeds > 1 else "result"
    return "result", artifact_cache.content_key(
        kind, detector.POLICY_REV, trace.digest, job,
        _COST_MODELS[job.cost_model], settings.seed, settings.avg_on_ms, settings.clock_hz,
    )


#: Cache of epoch compilation plans, keyed by trace digest like
#: ``_PI_CACHE``.
_EPOCH_CACHE: Dict[tuple, object] = {}


def _epoch_plan(trace, epoch_cycles: int):
    from repro.compiler.epoch_analysis import compile_with_epochs

    key = (trace.digest, epoch_cycles)
    if key not in _EPOCH_CACHE:
        _EPOCH_CACHE[key] = compile_with_epochs(trace, epoch_cycles)
    return _EPOCH_CACHE[key]


#: Family sweep plans: every run_jobs call registers, per shared
#: enumeration context (one trace + one PI/forced marking), the ordered
#: distinct configs its jobs will sweep.  ``execute_job`` consults the
#: plan right before simulating, so a cold SectionMap triggers one
#: batched family pass over the next ``_FAMILY_CHUNK`` plan members
#: instead of a scalar chain scan per config.  The registry persists
#: across run_jobs calls and only ever grows — its total size also
#: drives the SectionMap LRU auto-sizing, so a sweep's whole working set
#: stays resident.
_FAMILY_PLANS: Dict[tuple, Tuple[list, dict]] = {}

#: Configs per batched family pass, within the C kernel's budget
#: (≤ FAMILY_MAX = 64).  The sweep server also sends owned misses to
#: its bridge in chunks of this many jobs.
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
    job's ``(result, rows)`` decoded from its stored form, or ``None``
    on a miss.  A stored form that does not decode for this job is
    counted as a store error and read as a miss, so the job simulates
    again and its put repairs the entry.
    """
    st = artifact_cache.store()
    if st is None or settings.verify:
        return None, None
    rkey = key if key is not None else result_key(job, settings)[1]
    return rkey, st.get("result", rkey, functools.partial(_decode, job))


#: ``(field, type)`` of every :class:`SimulationResult` field, checked
#: on each decoded row so a stored form with a field of the wrong type
#: is refused at the store instead of failing later in the sweep.
_ROW_TYPES = tuple(
    (f.name, get_origin(f.type) or f.type) for f in fields(SimulationResult)
)


def _decode(job: SimJob, stored) -> tuple:
    """``(result, rows)`` of a stored form (a ``to_dict``, or
    ``"stalled"`` for a job that allows stalls); raises on a form that
    does not fit the job."""
    if stored == "stalled" and job.allow_stall:
        return None, [None]
    if job.n_seeds > 1:
        result = BatchResult.from_dict(stored)
        rows = result.results
    else:
        result = SimulationResult.from_dict(stored)
        rows = [result]
    for row in rows:
        if row is not None and not all(
            isinstance(getattr(row, name), kind) for name, kind in _ROW_TYPES
        ):
            raise TypeError("stored result has a field of the wrong type")
    return result, rows


def _restore(job: SimJob, label: str, stored):
    """The result of a decoded stored form, folded into the architecture
    collector.  A warm run skips the simulation, so attribution folds
    from the cached cause counts (occupancy detail only exists for
    simulated runs)."""
    result, rows = stored
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
    Pure with respect to the job and settings: the sweep server runs
    this same function, so served results are bit-identical to local
    ones.

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
# Job payloads: one job's outcome, packaged for the sweep server's wire.
# --------------------------------------------------------------------- #


def job_payload(job: SimJob, settings: EvalSettings,
                span: Optional[dict] = None,
                key: Optional[str] = None) -> dict:
    """Execute ``job`` and package what the sweep server streams for it
    (never a pickled trace or simulator).

    ``result`` is the result's ``to_dict`` form (``batch`` says which
    kind) and ``records`` the ledger records the job appended (moved out
    of this process's ledger; they carry its rows and wall time).
    ``span`` (if given) is closed and shipped in ``spans``; ``key`` is
    passed to :func:`execute_job`.
    """
    ledger = telemetry.LEDGER
    n_records = len(ledger.records)
    try:
        result, _ = execute_job(job, settings, key)
    finally:
        if span is not None:
            span["t1"] = time.perf_counter()
    records = [rec.to_dict() for rec in ledger.records[n_records:]]
    del ledger.records[n_records:]
    is_batch = isinstance(result, BatchResult)
    if is_batch:
        raw = result.to_dict()
    else:
        raw = None if result is None else result.to_dict(include_derived=False)
    return {
        "result": raw,
        "batch": is_batch,
        "records": records,
        "spans": [span] if span is not None else [],
    }


def decode_result(payload: dict) -> Union[SimulationResult, BatchResult,
                                          None]:
    """The result object a :func:`job_payload` (or an SSE event) carries."""
    raw = payload["result"]
    if payload["batch"]:
        return BatchResult.from_dict(raw)
    return None if raw is None else SimulationResult.from_dict(raw)


def run_jobs(
    jobs: List[SimJob],
    settings: EvalSettings,
    n_workers: Optional[int] = None,
) -> List[Union[SimulationResult, BatchResult, None]]:
    """Execute ``jobs`` in-process and return their results in
    submission order.

    A seed-repeat job (``n_seeds > 1``) yields one
    :class:`~repro.sim.batch.BatchResult` in its slot; everything else
    yields a :class:`SimulationResult` (or ``None`` for allowed stalls).
    With a sweep server installed (:data:`SERVED_EXECUTOR`) and
    ``settings.verify`` off, the batch is resolved by the server instead.

    ``n_workers`` must be ``None`` or 1: sweeps run serially, and a
    request for more workers is refused rather than silently ignored.
    """
    if n_workers not in (None, 1):
        raise ConfigError(
            f"run_jobs executes serially; n_workers must be None or 1, "
            f"got {n_workers!r}"
        )
    if SERVED_EXECUTOR is not None and not settings.verify:
        return SERVED_EXECUTOR.run_jobs(jobs, settings)
    _register_family_plans(jobs, settings)
    results = []
    for job in jobs:
        with TRACER.span(f"job {job.workload}", workload=job.workload,
                         config=job.config):
            result, _ = execute_job(job, settings)
        results.append(result)
    return results
