"""Ablation: compiler analysis depth (Section 4.3 and its future work).

Three compiler variants at a small hardware budget, where marking matters
most (Figure 5 shows +C helps most at small buffers):

* ``none`` — hardware only;
* ``whole-program`` — the paper's shipped ``W*->R*`` profile;
* ``epoch`` — the future-work analysis: inserted checkpoint calls at epoch
  boundaries, then epoch-scoped ``W*->R*`` marking
  (:mod:`repro.compiler.epoch_analysis`).

Reported per benchmark: marking coverage (fraction of accesses the
hardware may ignore) and checkpoint overhead.  Epoch marking strictly
increases coverage but pays for its inserted checkpoints — on some
programs (sha-like: long write-once phases) it wins big, on others the
boundary cost dominates; exactly the tradeoff the paper flags as an "area
of future exploration".
"""

from dataclasses import dataclass
from typing import Dict, List

from repro.compiler.epoch_analysis import compile_with_epochs
from repro.compiler.program_idempotence import ignorable_access_count
from repro.eval.parallel import SimJob, run_jobs
from repro.eval.runner import average, benchmark_traces, pi_words_for
from repro.eval.settings import DEFAULT_SETTINGS, EvalSettings

#: Small budget where marking matters (Figure 5's left region).
ABLATION_CONFIG = (2, 1, 1, 1)

#: Epoch target in cycles for the inserted-checkpoint variant.
EPOCH_CYCLES = 2000

VARIANTS = ("none", "whole-program", "epoch")


@dataclass(frozen=True)
class CompilerAblationRow:
    """One benchmark's results across the three compiler variants."""

    benchmark: str
    coverage: Dict[str, float]  # variant -> ignorable access fraction
    checkpoint_overhead: Dict[str, float]  # variant -> fraction


def run(
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> List[CompilerAblationRow]:
    """Measure every benchmark under the three variants.

    Coverage is a pure static-analysis figure computed in-process; the
    simulations go through the sweep engine, which re-derives the same
    (cached) compiler plans from the job descriptors.
    """
    traces = benchmark_traces(settings, size=settings.sweep_size)
    jobs = [
        SimJob(
            workload=name,
            config=ABLATION_CONFIG,
            size=settings.sweep_size,
            salt=salt,
            use_compiler=(variant == "whole-program"),
            epoch_cycles=EPOCH_CYCLES if variant == "epoch" else 0,
        )
        for salt, (name, trace) in enumerate(traces)
        for variant in VARIANTS
    ]
    results = iter(run_jobs(jobs, settings))
    rows = []
    for name, trace in traces:
        pi_words = pi_words_for(trace)
        plan = compile_with_epochs(trace, EPOCH_CYCLES)
        coverage = {
            "none": 0.0,
            "whole-program": ignorable_access_count(trace, pi_words) / max(1, len(trace)),
            "epoch": plan.coverage(trace),
        }
        overheads = {
            variant: next(results).checkpoint_overhead for variant in VARIANTS
        }
        rows.append(CompilerAblationRow(name, coverage, overheads))
    return rows


def render(rows: List[CompilerAblationRow]) -> str:
    """Text rendering with the cross-benchmark averages."""
    out = [
        f"Ablation: compiler analysis depth at config "
        f"{','.join(map(str, ABLATION_CONFIG))} "
        f"(coverage = ignorable accesses)"
    ]
    out.append(
        f"{'benchmark':14s} {'cov wp':>8s} {'cov ep':>8s} "
        f"{'ck none':>9s} {'ck wp':>9s} {'ck epoch':>9s}"
    )
    for r in rows:
        out.append(
            f"{r.benchmark:14s} {r.coverage['whole-program']:8.1%} "
            f"{r.coverage['epoch']:8.1%} "
            f"{r.checkpoint_overhead['none']:9.1%} "
            f"{r.checkpoint_overhead['whole-program']:9.1%} "
            f"{r.checkpoint_overhead['epoch']:9.1%}"
        )
    for variant in VARIANTS:
        avg = average(r.checkpoint_overhead[variant] for r in rows)
        out.append(f"average checkpoint overhead [{variant}]: {avg:.1%}")
    avg_cov = {
        v: average(r.coverage[v] for r in rows) for v in ("whole-program", "epoch")
    }
    out.append(
        f"average coverage: whole-program {avg_cov['whole-program']:.1%}, "
        f"epoch {avg_cov['epoch']:.1%}"
    )
    return "\n".join(out)
