"""Figure 5: Pareto frontiers of buffer size vs average checkpoint overhead
for five increasingly capable versions of Clank.

Families (cumulative capability, as in the paper):

* ``R``         — only a Read-first Buffer.
* ``R+W``       — adds the Write-first Buffer.
* ``R+W+B``     — adds the Write-back Buffer.
* ``R+W+B+A``   — adds the Address Prefix Buffer.
* ``R+W+B+A+C`` — additionally ignores Program Idempotent accesses.

For every configuration in a family's grid, the driver averages checkpoint
overhead across all 23 benchmarks (the paper's y-axis), then takes the
Pareto frontier over total buffer bits (the x-axis).  The dashed vertical
line of the paper — one Read-first entry, 30 bits — is the first point of
the ``R`` family.
"""

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.config import ClankConfig
from repro.eval.parallel import SimJob, run_jobs
from repro.eval.pareto import Point, pareto_frontier
from repro.eval.runner import average, ci95
from repro.eval.settings import DEFAULT_SETTINGS, EvalSettings
from repro.workloads.registry import mibench2_names

#: Entry-count grids per buffer.  Kept modest: the full cross product over
#: five families and 23 benchmarks is the shape of the paper's 8-CPU-month
#: sweep; these grids preserve the frontier structure at tractable cost.
_R_GRID = (1, 2, 4, 8, 16, 24)
_W_GRID = (0, 1, 4, 8)
_B_GRID = (0, 1, 2, 4)
_A_GRID = (0, 2, 4)


def family_configs(family: str) -> List[ClankConfig]:
    """The configuration grid of one Figure 5 family."""
    r_grid, w_grid, b_grid, a_grid = _R_GRID, (0,), (0,), (0,)
    if "W" in family:
        w_grid = _W_GRID
    if "B" in family:
        b_grid = _B_GRID
    if "A" in family:
        a_grid = _A_GRID
    configs = []
    for r, w, b, a in itertools.product(r_grid, w_grid, b_grid, a_grid):
        configs.append(ClankConfig.from_tuple((r, w, b, a)))
    return configs


FAMILIES = ("R", "R+W", "R+W+B", "R+W+B+A", "R+W+B+A+C")


@dataclass
class Fig5Data:
    """Per-family Pareto frontiers of (buffer bits, avg checkpoint
    overhead, config label).

    In ``--seeds N`` mode (``seeds > 1``), ``ci`` maps ``(family, label)``
    of every frontier point to ``(multi-seed mean, 95% half-width)`` of
    the cross-benchmark average overhead.
    """

    frontiers: Dict[str, List[Point]]
    ci: Dict[Tuple[str, str], Tuple[float, float]] = field(default_factory=dict)
    seeds: int = 1


def run(
    settings: EvalSettings = DEFAULT_SETTINGS,
    seeds: int = 1,
) -> Fig5Data:
    """Sweep all families over the benchmark suite (sweep-size traces).

    Families share grid points, so the sweep first de-duplicates the
    (composition, compiler) pairs — keyed by the entry-count *tuple*, not
    the label string, so distinct compositions can never collide — then
    runs one benchmark-suite job batch per unique pair through the
    sweep engine.

    With ``seeds > 1`` a *frontier refinement* pass follows: the full
    grid at 100 seeds would be ~1.3M simulator runs, so the standard
    one-seed sweep locates the Pareto frontiers exactly as before, and
    only the frontier configurations are re-run as batched seed-repeat
    jobs (:class:`SimJob` ``n_seeds``) to attach mean ± 95% CI of the
    cross-benchmark average.  Row 0 of every batch replays the original
    per-benchmark salt, so the one-seed sweep value is always one of the
    samples behind each interval.
    """
    names = mibench2_names()
    keys: List[Tuple[int, int, int, int, bool]] = []
    seen = set()
    for family in FAMILIES:
        use_compiler = family.endswith("+C")
        for config in family_configs(family.replace("+C", "")):
            key = config.as_tuple() + (use_compiler,)
            if key not in seen:
                seen.add(key)
                keys.append(key)
    jobs = [
        SimJob(
            workload=name,
            config=key[:4],
            size=settings.sweep_size,
            salt=salt,
            use_compiler=key[4],
        )
        for key in keys
        for salt, name in enumerate(names)
    ]
    results = iter(run_jobs(jobs, settings))
    overhead: Dict[Tuple[int, int, int, int, bool], float] = {}
    for key in keys:
        overhead[key] = average(
            next(results).checkpoint_overhead for _ in names
        )

    frontiers: Dict[str, List[Point]] = {}
    for family in FAMILIES:
        use_compiler = family.endswith("+C")
        points: List[Point] = []
        for config in family_configs(family.replace("+C", "")):
            value = overhead[config.as_tuple() + (use_compiler,)]
            points.append((config.buffer_bits, value, config.label()))
        frontiers[family] = pareto_frontier(points)
    data = Fig5Data(frontiers=frontiers)
    if seeds <= 1:
        return data

    # Frontier refinement: batched seed-repeat jobs for the frontier
    # configurations only.  ``seed_stride=len(names)`` keeps every
    # (benchmark, seed-row) salt distinct within a configuration while
    # row 0 reuses the original name-indexed salt of the one-seed sweep.
    label_to_key: Dict[Tuple[str, str], Tuple[int, int, int, int, bool]] = {}
    refine: List[Tuple[int, int, int, int, bool]] = []
    seen_refine = set()
    for family in FAMILIES:
        use_compiler = family.endswith("+C")
        by_label = {
            config.label(): config.as_tuple()
            for config in family_configs(family.replace("+C", ""))
        }
        for _bits, _value, label in frontiers[family]:
            key = by_label[label] + (use_compiler,)
            label_to_key[(family, label)] = key
            if key not in seen_refine:
                seen_refine.add(key)
                refine.append(key)
    jobs = [
        SimJob(
            workload=name,
            config=key[:4],
            size=settings.sweep_size,
            salt=salt,
            use_compiler=key[4],
            n_seeds=seeds,
            seed_stride=len(names),
        )
        for key in refine
        for salt, name in enumerate(names)
    ]
    results = iter(run_jobs(jobs, settings))
    stats: Dict[Tuple[int, int, int, int, bool], Tuple[float, float]] = {}
    for key in refine:
        columns = [
            next(results).column("checkpoint_overhead") for _ in names
        ]
        rows = min(len(column) for column in columns)
        # Per-seed cross-benchmark averages: the statistic the figure
        # plots, sampled once per power-schedule seed.
        averaged = [
            average(column[row] for column in columns) for row in range(rows)
        ]
        stats[key] = (average(averaged), ci95(averaged))
    data.seeds = seeds
    for pair, key in label_to_key.items():
        data.ci[pair] = stats[key]
    return data


def render(data: Fig5Data) -> str:
    """Text rendering: one frontier per family.  CI mode swaps each
    frontier value for its multi-seed mean ± 95% half-width — rendered
    as ``deterministic`` when the sample variance is exactly zero (a
    ±0.00% interval is not a tight estimate, it is the absence of any
    spread), and as ``±<0.01%`` when a nonzero half-width would round
    to the self-contradictory ``±0.00%``.  The numeric half-width in
    ``data.ci`` is unrounded either way for downstream consumers.  The
    default (seedless) rendering is unchanged."""
    title = "Figure 5: buffer bits vs average checkpoint overhead (Pareto frontiers)"
    if data.seeds > 1:
        title += f" — {data.seeds} seeds, mean ± 95% CI"
    out = [title]
    for family in FAMILIES:
        out.append(f"-- {family}")
        for bits, overhead, label in data.frontiers[family]:
            stats = data.ci.get((family, label))
            if stats is not None:
                mean, half = stats
                if half == 0.0:
                    spread = "deterministic"
                elif half < 0.00005:
                    # Would print as the self-contradictory "±0.00%".
                    spread = "±<0.01%"
                else:
                    spread = f"±{half:5.2%}"
                out.append(
                    f"   {int(bits):5d} bits  {mean:7.2%} {spread}  ({label})"
                )
            else:
                out.append(f"   {int(bits):5d} bits  {overhead:7.2%}  ({label})")
    return "\n".join(out)
