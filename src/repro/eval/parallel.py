"""Sweep engine for the experiment drivers.

The paper's design-space exploration is embarrassingly parallel — "several
million configurations" across "over eight CPU-months" (Section 7.1) — and
so are this repo's scaled-down sweeps: every simulator run is a pure
function of (workload, configuration, power schedule).  This module runs
them in-process, one group of jobs after another, with two invariants:

* **Determinism** — every run's power schedule is seeded from the
  settings and the job's salt, so a job's result depends on nothing but
  its descriptor, and results come back in submission order.
* **Tiny job descriptors** — a :class:`SimJob` names its workload; it never
  carries a trace.  Traces come from the in-process cache
  (:mod:`repro.workloads.cache`), so a descriptor pickles in ~tens of
  bytes while a trace would pickle in megabytes — which is what lets the
  sweep server (:mod:`repro.serve`) take jobs over the wire.

``run_jobs(jobs, settings)`` is the single entry point for a sweep.  It
walks each trace's jobs as one group, the rows of one
:func:`repro.sim.batch.simulate_batch` call: they share the trace, its
marking, and one on-time array per schedule salt.  :func:`execute_job`
is a group of one.  The sweep server's bridge runs its owned misses
through :func:`_execute` too, one call per chunk of one group.
The group's rows also decide which SectionMaps enumerate together:
``simulate_batch`` family-builds the cold maps of its rows' distinct
configs in passes of :data:`repro.sim.sections.FAMILY_CHUNK`
(:func:`repro.sim.sections.prefetch_family`) before it walks.
"""

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple, Union, get_origin

import repro.cache as artifact_cache
from repro.cache.store import encode_json
from repro.common.errors import ConfigError, SimulationError
from repro.core import detector
from repro.core.config import ClankConfig, PolicyOptimizations
from repro.eval.settings import EvalSettings
from repro.obs import telemetry
from repro.obs.analyze import COLLECTOR as ARCH_COLLECTOR
from repro.obs.tracing import TRACER
from repro.power.schedules import RuntPower, ScheduleBatch, ScheduleRow
from repro.runtime.costs import DEFAULT_COST_MODEL, CostModel
from repro.sim.batch import BatchResult, simulate_batch
from repro.sim.result import SimulationResult
from repro.sim.undo_log import UndoLogSimulator
from repro.workloads.cache import get_trace

#: Initial on-times drawn per schedule seed of a group.  One on purpose:
#: the row walk first grows the arrays to what its map's previous run
#: consumed, then on demand — over-drawing costs real time (one Python
#: expovariate call per cell).
_BATCH_SEGMENTS = 1

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
        """The job's hardware configuration object (one shared object
        per distinct ``(config, opts, prefix_low_bits)``)."""
        return _clank_config(self.config, self.opts, self.prefix_low_bits)


@functools.lru_cache(maxsize=None)
def _clank_config(spec, opts, prefix_low_bits: int) -> ClankConfig:
    config = ClankConfig.from_tuple(spec, opts)
    if prefix_low_bits != 6:
        config = dataclasses.replace(config, prefix_low_bits=prefix_low_bits)
    return config


#: Installed by :func:`repro.serve.client.install`: when set, ``run_jobs``
#: routes whole job batches through a sweep server instead of executing
#: locally (results stay bit-identical; provenance records
#: ``engine="served"``).  Never consulted under ``settings.verify`` —
#: served results must not claim a verification that did not execute.
SERVED_EXECUTOR = None


#: The packages a trace build runs: the workload programs, the traced
#: memory, the trace columns and the helpers they share.  Their source
#: stands in for trace content in :func:`result_key`;
#: ``tests/test_disk_cache.py`` checks that they import no other
#: ``repro`` package.
TRACE_SOURCES = tuple(
    os.path.join(os.path.dirname(os.path.dirname(__file__)), package)
    for package in ("workloads", "mem", "trace", "common")
)

#: The result classes whose fields the stored and wire forms carry.
RESULT_TYPES = (SimulationResult, BatchResult)


def source_fingerprint(roots) -> str:
    """sha256 over every ``.py`` file under each directory of ``roots``:
    its path relative to that root, then its bytes."""
    digest = hashlib.sha256()
    for root in roots:
        digest.update(b"\0root\0")
        paths = sorted(
            os.path.relpath(os.path.join(dirpath, name), root)
            for dirpath, _dirnames, names in os.walk(root)
            for name in names if name.endswith(".py")
        )
        for rel in paths:
            with open(os.path.join(root, rel), "rb") as fh:
                data = fh.read()
            digest.update(b"%s\0%d\0" % (rel.encode("utf-8"), len(data)))
            digest.update(data)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _key_salt() -> str:
    """What every result key folds in besides the job, computed once
    per process: the trace packages' source fingerprint, the
    interpreter version that runs their seeded generators, and the
    result schema (each class's field names and types)."""
    schema = tuple(
        (cls.__name__, tuple((f.name, repr(f.type)) for f in fields(cls)))
        for cls in RESULT_TYPES
    )
    return artifact_cache.content_key(
        source_fingerprint(TRACE_SOURCES), tuple(sys.version_info[:2]),
        schema,
    )


def result_key(job: SimJob, settings: EvalSettings) -> Tuple[str, str]:
    """The whole-result cache address of one job: ``(kind, sha256 key)``.

    This is the *dedupe discipline* shared by the local result cache and
    the sweep server (:mod:`repro.serve`).  The key covers every input
    that determines the simulation outcome, and it needs no trace:

    * the job itself, whose workload name, size and trace seed name its
      trace, and every behaviour-affecting field;
    * :func:`_key_salt`: one sha256 over the source of the packages a
      trace build runs (:data:`TRACE_SOURCES`), so editing a workload
      orphans its old results, plus the result schema, so a changed
      result class does too;
    * the policy revision, the cost model and the schedule-determining
      settings fields (seed, mean on-time, clock).

    Identical requests from any number of clients are identical keys, so
    N users' sweeps cost one simulation.  State that *cannot* affect the
    result (ledger, tracing) is deliberately excluded; ``verify`` is
    excluded too because verified runs never consult this cache at all.
    """
    kind = "batch-result" if job.n_seeds > 1 else "result"
    return "result", artifact_cache.content_key(
        kind, detector.POLICY_REV, _key_salt(), job,
        _COST_MODELS[job.cost_model], settings.seed, settings.avg_on_ms,
        settings.clock_hz,
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


#: The architecture-collector folds of a group simulated with the
#: collector off: none.
_NO_FOLDS = contextlib.nullcontext(())


def _marking_key(job: SimJob) -> tuple:
    """The trace and marking a job's SectionMap shares with its family.

    Everything that changes the *trace walk* (trace identity, PI
    marking, forced checkpoints) is in here; everything that only
    changes buffer occupancy (the config tuple, APB geometry, policy
    opts) deliberately is not — those vary within one family.
    """
    return (job.workload, job.size, job.trace_seed, job.use_compiler,
            job.epoch_cycles)


#: ``(field, type)`` of every :class:`SimulationResult` field, checked
#: on each decoded row so a stored form with a field of the wrong type
#: is refused at the store instead of failing later in the sweep.
_ROW_TYPES = tuple(
    (f.name, get_origin(f.type) or f.type) for f in fields(SimulationResult)
)


def _decode(job: SimJob, stored) -> tuple:
    """``(result, rows)`` of a parsed stored form (a ``to_dict``, or
    ``"stalled"`` for a job that allows stalls); raises on a form that
    does not fit the job.  The local store path and the sweep client's
    merge of served results both decode through here."""
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


def _load(job: SimJob, payload: bytes) -> tuple:
    """:func:`_decode` of a stored payload's JSON bytes (the store's
    ``decode`` on the local path)."""
    return _decode(job, json.loads(payload))


#: A stalled job's stored form, as JSON bytes.
_STALLED = b'"stalled"'


def _encode(job: SimJob, result) -> bytes:
    """The stored form of a job's result as JSON bytes: the result's
    ``to_dict`` (a scalar one without derived fields), or ``"stalled"``.
    These bytes go to the store and, on the sweep server, to the wire."""
    if result is None:
        return _STALLED
    if job.n_seeds > 1:
        return encode_json(result.to_dict())
    return encode_json(result.to_dict(include_derived=False))


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


def _clank_kwargs(job: SimJob, trace, settings: EvalSettings) -> dict:
    """The ``simulate_batch`` keyword arguments of a Clank job: its PI or
    epoch marking, volatile ranges, watchdogs, cost model and limits."""
    from repro.eval.runner import pi_words_for

    pi_words = pi_access_indices = forced_checkpoints = None
    if job.epoch_cycles > 0:
        plan = _epoch_plan(trace, job.epoch_cycles)
        pi_access_indices = plan.ignorable
        forced_checkpoints = plan.boundaries
    elif job.use_compiler:
        pi_words = pi_words_for(trace)
    return dict(
        cost_model=_COST_MODELS[job.cost_model],
        perf_watchdog=job.perf_watchdog,
        progress_watchdog=job.progress_watchdog,
        progress_watchdog_adaptive=job.progress_watchdog_adaptive,
        pi_words=pi_words,
        pi_access_indices=pi_access_indices,
        forced_checkpoints=forced_checkpoints,
        volatile_ranges=tuple(
            trace.memory_map.word_range(name)
            for name in job.volatile_segments
        ) or None,
        verify=settings.verify,
        max_power_cycles=job.max_power_cycles,
    )


def _group_key(job: SimJob, index: int) -> tuple:
    """What the rows of one ``simulate_batch`` call share: one trace and
    marking, one set of walk parameters, one stall policy and one row
    stamp.  An undo-log or runt-schedule job is a group of its own."""
    if job.engine != "clank" or job.schedule != "exp":
        return (index,)
    return (_marking_key(job), job.n_seeds > 1, job.volatile_segments,
            job.cost_model, job.perf_watchdog, job.progress_watchdog,
            job.progress_watchdog_adaptive, job.max_power_cycles,
            job.allow_stall)


def _simulate_group(group: list, settings: EvalSettings) -> list:
    """Simulate one group's ``(job, config)`` pairs as the rows of one
    :func:`~repro.sim.batch.simulate_batch` call; returns ``(result,
    stamp, seconds, start, folds)`` per job.  ``stamp`` is a scalar job's
    ``(engine, fallback_reason, kernel)`` (``None`` for a seed-repeat
    job: its ``BatchResult`` stamps its rows).  Each job's seconds are
    its rows' own, and the first job's also carry the group's set-up,
    which includes the family passes over its cold section maps.
    ``folds`` are the job's queued architecture-collector folds
    (:meth:`~repro.obs.analyze.ArchCollector.deferred`), for the caller
    to fold in submission order.
    """
    for job, _ in group:  # one trace-cache lookup per job, as run alone
        trace = get_trace(job.workload, size=job.size, seed=job.trace_seed)
    job, config = group[0]
    if job.engine == "undo":
        start = time.perf_counter()
        try:
            result = UndoLogSimulator(
                trace,
                config,
                settings.schedule(job.salt),
                log_entries=job.log_entries,
                cost_model=_COST_MODELS[job.cost_model],
                progress_watchdog=job.progress_watchdog,
                verify=settings.verify,
                max_power_cycles=job.max_power_cycles,
            ).run()
        except SimulationError:
            if not job.allow_stall:
                raise
            result = None
        stamp = (telemetry.ENGINE_STALLED if result is None
                 else telemetry.ENGINE_UNDO,
                 None, None)
        return [(result, stamp, time.perf_counter() - start, start, ())]
    kwargs = _clank_kwargs(job, trace, settings)
    start = time.perf_counter()
    if job.schedule == "runt":
        schedules = ScheduleRow(RuntPower(
            settings.avg_on_cycles,
            job.runt_mean,
            runt_fraction=job.runt_fraction,
            seed=settings.seed,
        ))
        configs = [config]
    else:
        configs, seeds = [], []
        for member, cfg in group:
            configs += [cfg] * member.n_seeds
            seeds += [
                settings.schedule_seed(member.salt + r * member.seed_stride)
                for r in range(member.n_seeds)
            ]
        schedules = ScheduleBatch(settings.avg_on_cycles, seeds,
                                  _BATCH_SEGMENTS)
    seed_repeat = job.n_seeds > 1
    engine = telemetry.ENGINE_BATCH if seed_repeat else telemetry.ENGINE_FAST
    with (ARCH_COLLECTOR.deferred() if ARCH_COLLECTOR.enabled
          else _NO_FOLDS) as folds:
        batch = simulate_batch(trace, configs, schedules, engine=engine,
                               allow_stall=job.allow_stall, **kwargs)
    rest = time.perf_counter() - start - sum(batch.seconds)
    out = []
    r = f = 0
    for member, cfg in group:
        k = member.n_seeds
        # Each completed row folded one run, the walk's or the reference's.
        mine = ()
        if folds:
            done = sum(row is not None for row in batch.results[r:r + k])
            mine = folds[f:f + done]
            f += done
        seconds = sum(batch.seconds[r:r + k]) + rest
        if seed_repeat:
            result = BatchResult(
                name=trace.name,
                config_label=cfg.label(),
                results=batch.results[r:r + k],
                engines=batch.engines[r:r + k],
                reasons=batch.reasons[r:r + k],
                kernels=batch.kernels[r:r + k],
                seconds=batch.seconds[r:r + k],
            )
            stamp = None
        else:
            result = batch.results[r]
            stamp = (batch.engines[r], batch.reasons[r], batch.kernels[r])
        out.append((result, stamp, seconds, start, mine))
        start += seconds
        rest = 0.0
        r += k
    return out


def _batch_rows(job: SimJob, batch: BatchResult, seconds: float) -> list:
    """The provenance rows of a simulated seed-repeat job.

    The rows the walk served fold into one ``engine="batch"`` row
    carrying ``rows=<walked rows>``; each row served scalar gets its own
    row, so the ledger's row-weighted totals still reconcile run-for-run.
    Each rerun row carries that row's seconds; the rest of the job's time
    (the walked rows and the job's share of set-up) goes to the first
    row, so the job's rows sum to ``seconds``.
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


def _execute(jobs: List[SimJob], settings: EvalSettings,
             keys: Optional[list] = None, raw: bool = False,
             ledger: Optional[telemetry.RunLedger] = None) -> list:
    """Run ``jobs``; ``[(value, seconds, end)]`` in submission order.

    Three passes.  The first validates every job and probes the store
    in submission order; a job whose key an earlier job of the list
    missed is probed again when its turn comes, as it would be run
    alone.  The second simulates the misses, one
    :func:`_simulate_group` per group (:func:`_group_key`), groups in
    order of first appearance.  The third stores, folds and records
    each job in submission order, its simulated runs' architecture folds
    included, so a grouped sweep folds exactly as job-by-job execution
    does.  A job that raises aborts the call before anything is stored
    or recorded.

    ``keys`` are the jobs' :func:`result_key` when the caller holds
    them.  With ``raw`` each value is its stored form's JSON bytes
    (:func:`_encode`) for the sweep server to splice into its reply: a
    hit returns the store's payload unparsed, and a miss encodes once
    for the store and the caller.  Records go to ``ledger`` (default
    :data:`telemetry.LEDGER`); ``end`` is the job's record boundary, the
    length of ``ledger.records`` once the job's records are in, so a
    caller can split them by job.
    """
    st = None if settings.verify else artifact_cache.store()
    n = len(jobs)
    configs = [None] * n
    rkeys = [None] * n
    slots = [None] * n  # ("hit", stored), a _simulate_group entry, or None
    groups: Dict[tuple, List[int]] = {}
    missed = set()

    def probe(i: int):
        stored = st.get("result", rkeys[i], None if raw
                        else functools.partial(_load, jobs[i]))
        return None if stored is None else ("hit", stored)

    for i, job in enumerate(jobs):
        if job.n_seeds > 1 and (job.engine != "clank"
                                or job.schedule != "exp"):
            raise ConfigError(
                "seed-repeat jobs (n_seeds > 1) require engine='clank' "
                "with the exponential schedule"
            )
        configs[i] = job.clank_config()
        if st is not None:
            rkey = rkeys[i] = (keys[i] if keys and keys[i] is not None
                               else result_key(job, settings)[1])
            if rkey in missed:
                continue
            slots[i] = probe(i)
            if slots[i] is not None:
                continue
            missed.add(rkey)
        groups.setdefault(_group_key(job, i), []).append(i)
    for members in groups.values():
        job = jobs[members[0]]
        with TRACER.span(f"group {job.workload}", workload=job.workload,
                         jobs=len(members)):
            done = _simulate_group([(jobs[i], configs[i]) for i in members],
                                   settings)
        for i, entry in zip(members, done):
            slots[i] = entry

    ledger = ledger or telemetry.LEDGER
    record = ledger.record if ledger.enabled else None
    worker, driver, epoch = os.getpid(), ledger.driver, ledger.epoch
    out = []
    for i, job in enumerate(jobs):
        slot, rkey, label = slots[i], rkeys[i], configs[i].label()
        if slot is None:
            slot = (probe(i)
                    or _simulate_group([(job, configs[i])], settings)[0])
        if len(slot) == 2:
            stored = slot[1]
            if raw:
                value = stored
                result = None if stored == _STALLED else stored
            else:
                value = result = _restore(job, label, stored)
            seconds, start, tier = 0.0, None, "hit"
            rows = [(telemetry.ENGINE_CACHED, None, None, max(1, job.n_seeds),
                     job.salt, result is None, 0.0)]
        else:
            result, stamp, seconds, start, folds = slot
            value = result
            if rkey is not None or raw:
                t0 = time.perf_counter()
                encoded = _encode(job, result)
                if rkey is not None:
                    st.put("result", rkey, encoded)
                if raw:
                    value = encoded
                seconds += time.perf_counter() - t0
            tier = "off" if rkey is None else "miss"
            for queued in folds:
                ARCH_COLLECTOR.fold_run(*queued)
            if result is None:
                ARCH_COLLECTOR.fold_stalled(job.workload, label)
            elif job.engine == "undo":
                # The undo-log engine has no section enumeration to
                # derive occupancy from; cause totals still reconcile.
                ARCH_COLLECTOR.fold_causes(
                    job.workload, label, result.checkpoints_by_cause,
                    telemetry.ENGINE_UNDO,
                )
            if stamp is None:
                rows = _batch_rows(job, result, seconds)
            else:
                rows = [stamp + (1, job.salt, result is None, seconds)]
        if record is not None:
            t_start = ledger.now() if start is None else start - epoch
            for engine, reason, kernel, n_rows, salt, stalled, wall_s in rows:
                record(telemetry.RunRecord(
                    job.workload, label, engine, reason, kernel, tier,
                    job.size, salt, driver, stalled, n_rows, wall_s,
                    t_start, worker,
                ))
        out.append((value, seconds, len(ledger.records)))
    return out


def execute_job(
    job: SimJob, settings: EvalSettings,
) -> Tuple[Union[SimulationResult, BatchResult, None], float]:
    """Run one job, a group of one; returns ``(result, seconds)``.

    ``result`` is ``None`` only when the run stalled and the job allows
    it; a seed-repeat job (``n_seeds > 1``) returns a
    :class:`~repro.sim.batch.BatchResult` whose row ``i`` is the scalar
    job at salt ``salt + i*seed_stride``.  Pure with respect to the job
    and settings; the sweep server's bridge runs the same
    :func:`_execute`, so its results are bit-identical to local ones.

    With ``REPRO_CACHE_DIR`` set, the result is stored under
    :func:`result_key`, which needs no trace: a warm hit builds no trace
    and skips the simulation.  Runs under ``--verify`` never use the
    store — a cached ``verified`` flag would claim a check that did not
    execute.  With :data:`repro.obs.telemetry.LEDGER` enabled, the job's
    provenance records are appended: the engine (``disk-cached-result``
    for a hit), typed fallback reason, walker, store tier and wall time;
    they sum to the seconds returned (0 for a hit).
    """
    return _execute([job], settings)[0][:2]


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
    return [value for value, _, _ in _execute(jobs, settings)]
