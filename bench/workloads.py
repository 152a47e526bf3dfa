"""The benchmark's workloads: what one unit of each does.

A *unit* is one fresh interpreter doing a workload's whole job once,
cold.  The parent (:mod:`bench.run`) repeats units until the run's
``--seconds`` are used.  This module is imported by both sides.  Only
the functions the unit child calls import ``repro``, so the parent
never loads the program it measures.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

#: ``python -m repro.eval all`` order.
ALL_DRIVERS = (
    "table1", "fig5", "fig6", "table2", "fig7", "fig8", "table3", "table4",
    "ablation_compiler", "ablation_progress", "ablation_apb", "ablation_undo",
)

#: The drivers that are not design-space sweeps (run with ``verify``).
VERIFIED_DRIVERS = ALL_DRIVERS[3:]

#: Seed-repeat shape: every ``SEED_REPEAT_KEY_STRIDE``-th distinct fig5
#: ``(config, use_compiler)`` key x 23 workloads x ``SEED_REPEAT_SEEDS``
#: schedule rows (fig5's frontier-refinement job shape).
SEED_REPEAT_KEY_STRIDE = 12
SEED_REPEAT_SEEDS = 64

#: Jobs (or batch rows) per run re-run through the other engine.
CHECK_SAMPLE = 32


@dataclass(frozen=True)
class Workload:
    name: str
    drivers: Tuple[str, ...]
    verify: bool = False
    #: ``"warm"``: through a fresh server whose cache a local run filled;
    #: ``"cold"``: through a fresh server on an empty cache.
    served: Optional[str] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("eval_cold", ALL_DRIVERS),
        Workload("seed_repeat", ()),
        Workload("verified", VERIFIED_DRIVERS, verify=True),
        Workload("served_warm", ("fig6",), served="warm"),
        Workload("served_cold", ("fig6",), served="cold"),
    )
}


# --------------------------------------------------------------------- #
# Unit side (imports repro).
# --------------------------------------------------------------------- #


def settings_for(workload: Workload, seed: int, smoke: bool):
    from repro.eval.settings import EvalSettings

    settings = EvalSettings(seed=seed, verify=workload.verify)
    return settings.quick() if smoke else settings


def prepare(workload: Workload) -> list:
    """Import everything the unit's timed phase runs; returns the driver
    modules in run order."""
    import importlib

    importlib.import_module("repro.eval.parallel")
    if workload.name == "seed_repeat":
        importlib.import_module("repro.eval.fig5")
    if workload.served:
        importlib.import_module("repro.serve.client")
    return [importlib.import_module(f"repro.eval.{name}")
            for name in workload.drivers]


def run_drivers(modules, settings, tracer) -> str:
    """Run and render each driver the way ``python -m repro.eval`` does
    (serially, inside the profiler and ledger driver phases)."""
    import inspect

    from repro.obs import telemetry
    from repro.obs.profile import PROFILER

    rendered = []
    for module in modules:
        name = module.__name__.rpartition(".")[2]
        parallel = "n_workers" in inspect.signature(module.run).parameters
        with PROFILER.phase(name), telemetry.LEDGER.driver_phase(name), \
                tracer.span(f"driver {name}", "eval.driver_s"):
            if parallel:
                data = module.run(settings, n_workers=1)
            else:
                data = module.run(settings)
        with tracer.span(f"render {name}", "eval.render_s"):
            rendered.append(module.render(data))
    return "\n".join(rendered)


def seed_repeat_keys(smoke: bool) -> list:
    """fig5's distinct ``(R, W, B, A, use_compiler)`` keys in the
    driver's own enumeration order, thinned to the seed-repeat stride."""
    from repro.eval import fig5

    keys, seen = [], set()
    for family in fig5.FAMILIES:
        use_compiler = family.endswith("+C")
        for config in fig5.family_configs(family.replace("+C", "")):
            key = config.as_tuple() + (use_compiler,)
            if key not in seen:
                seen.add(key)
                keys.append(key)
    return keys[::96 if smoke else SEED_REPEAT_KEY_STRIDE]


def run_seed_repeat(settings, smoke: bool) -> str:
    """Batched seed-repeat jobs through ``run_jobs``; renders each key's
    cross-benchmark mean checkpoint overhead and its 95% CI half-width
    (full ``repr`` precision, so any changed row changes the digest)."""
    from repro.eval.parallel import SimJob, run_jobs
    from repro.eval.runner import average, ci95
    from repro.workloads.registry import mibench2_names

    names = mibench2_names()
    keys = seed_repeat_keys(smoke)
    jobs = [
        SimJob(
            workload=name, config=key[:4], size=settings.sweep_size,
            salt=salt, use_compiler=key[4],
            n_seeds=4 if smoke else SEED_REPEAT_SEEDS,
            seed_stride=len(names),
        )
        for key in keys
        for salt, name in enumerate(names)
    ]
    results = iter(run_jobs(jobs, settings, 1))
    lines = []
    for key in keys:
        columns = [next(results).column("checkpoint_overhead") for _ in names]
        rows = min(len(column) for column in columns)
        per_seed = [average(column[r] for column in columns)
                    for r in range(rows)]
        lines.append(f"{key} {average(per_seed)!r} {ci95(per_seed)!r}")
    return "\n".join(lines)


def run_unit(workload: Workload, modules, settings, smoke: bool,
             tracer) -> str:
    if workload.name == "seed_repeat":
        return run_seed_repeat(settings, smoke)
    return run_drivers(modules, settings, tracer)


def collect_counters() -> dict:
    """The program's own public counters (read after the timed phase)."""
    import repro.cache as artifact_cache
    from repro.obs import telemetry
    from repro.sim import batch, fast, sections
    from repro.workloads import cache as trace_cache

    return {
        "sections": sections.cache_stats(),
        "dispatch": fast.dispatch_stats(),
        "batch": batch.batch_stats(),
        "cache": artifact_cache.stats(),
        "traces": trace_cache.cache_stats(),
        "ledger_rows": telemetry.LEDGER.total_rows(),
    }
