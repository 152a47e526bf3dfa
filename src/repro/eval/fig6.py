"""Figure 6: effect of the checkpoint-policy optimizations (Section 7.2).

Eight settings, as in the paper: no optimizations, all optimizations, each
of the five alone, and ``profiled`` — per benchmark, the best of all 32
possible settings (energy-harvesting binaries are static, so per-program
profiling is realistic).  Each setting sweeps the same buffer grid and is
reduced to a Pareto frontier of buffer bits vs average checkpoint
overhead.
"""

from dataclasses import dataclass
from typing import Dict, List

from repro.core.config import (
    ClankConfig,
    OPTIMIZATION_NAMES,
    PolicyOptimizations,
)
from repro.eval.parallel import SimJob, run_jobs
from repro.eval.pareto import Point, pareto_frontier
from repro.eval.runner import average
from repro.eval.settings import DEFAULT_SETTINGS, EvalSettings
from repro.workloads.registry import mibench2_names

#: Buffer grid for the policy sweep (Pareto-relevant sizes).
_GRID = ((1, 0, 0, 0), (2, 1, 0, 0), (4, 2, 1, 0), (8, 4, 2, 0),
         (8, 4, 2, 4), (16, 8, 4, 4))

SETTING_LABELS = ("none", "all") + OPTIMIZATION_NAMES + ("profiled",)


@dataclass
class Fig6Data:
    """Pareto frontier per policy setting."""

    frontiers: Dict[str, List[Point]]


def run(
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> Fig6Data:
    """Sweep the 32 policy settings over the buffer grid.

    ``profiled`` picks, per benchmark and per buffer composition, the best
    of all 32 settings before averaging — exactly the paper's definition.
    """
    names = mibench2_names()
    all_opts = PolicyOptimizations.all_settings()
    jobs = [
        SimJob(
            workload=name,
            config=spec,
            size=settings.sweep_size,
            salt=salt,
            opts=opts,
        )
        for spec in _GRID
        for opts in all_opts
        for salt, name in enumerate(names)
    ]
    results = iter(run_jobs(jobs, settings))
    # overhead[(spec, opt_label)][benchmark] -> checkpoint overhead
    per_bench: Dict[tuple, List[float]] = {}
    for spec in _GRID:
        for opts in all_opts:
            per_bench[(spec, opts.label())] = [
                next(results).checkpoint_overhead for _ in names
            ]

    frontiers: Dict[str, List[Point]] = {}
    nbench = len(names)
    for label in SETTING_LABELS:
        points: List[Point] = []
        for spec in _GRID:
            bits = ClankConfig.from_tuple(spec).buffer_bits
            if label == "profiled":
                # Best setting per benchmark, then average.
                best = [
                    min(per_bench[(spec, o.label())][b] for o in all_opts)
                    for b in range(nbench)
                ]
                value = average(best)
            else:
                key = PolicyOptimizations.none() if label == "none" else (
                    PolicyOptimizations.all() if label == "all"
                    else PolicyOptimizations.only(label)
                )
                value = average(per_bench[(spec, key.label())])
            points.append((bits, value, f"{spec}"))
        frontiers[label] = pareto_frontier(points)
    return Fig6Data(frontiers=frontiers)


def render(data: Fig6Data) -> str:
    """Text rendering: one frontier per policy setting."""
    out = ["Figure 6: policy-optimization Pareto frontiers "
           "(buffer bits vs avg checkpoint overhead)"]
    for label in SETTING_LABELS:
        out.append(f"-- {label}")
        for bits, overhead, cfg in data.frontiers[label]:
            out.append(f"   {int(bits):5d} bits  {overhead:7.2%}  {cfg}")
    return "\n".join(out)
