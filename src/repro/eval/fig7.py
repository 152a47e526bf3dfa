"""Figure 7: total run-time overhead per benchmark and configuration.

Total overhead (Section 2.1) stacks three components over the 1.0
baseline: re-execution cycles (incl. start-up), checkpoint cycles, and the
energy cost of the added hardware.  Five configurations per benchmark, as
in Table 2; benchmarks that reliably complete within a single power cycle
are starred, as in the paper.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.config import ClankConfig, TABLE2_CONFIGS
from repro.eval.parallel import SimJob, run_jobs
from repro.eval.settings import DEFAULT_SETTINGS, EvalSettings
from repro.hw.cost_model import hardware_overhead
from repro.workloads.registry import mibench2_names


@dataclass(frozen=True)
class Fig7Bar:
    """One stacked bar.

    Attributes:
        benchmark: Workload name.
        config: Configuration label.
        reexec: Re-execution + restart overhead fraction.
        checkpoint: Checkpoint overhead fraction.
        hardware: Hardware (energy) overhead fraction.
        single_cycle: True when the benchmark completed within one power
            cycle in this run (the paper's asterisk).
    """

    benchmark: str
    config: str
    reexec: float
    checkpoint: float
    hardware: float
    single_cycle: bool

    @property
    def total(self) -> float:
        """Total overhead multiplier (the bar height)."""
        return 1.0 + self.reexec + self.checkpoint + self.hardware


@dataclass
class Fig7Data:
    """All bars, benchmark-major."""

    bars: List[Fig7Bar]

    def by_benchmark(self) -> Dict[str, List[Fig7Bar]]:
        grouped: Dict[str, List[Fig7Bar]] = {}
        for bar in self.bars:
            grouped.setdefault(bar.benchmark, []).append(bar)
        return grouped

    def averages(self) -> List[Tuple[str, float]]:
        """Average total per configuration (the paper's final group)."""
        grouped: Dict[str, List[float]] = {}
        for bar in self.bars:
            grouped.setdefault(bar.config, []).append(bar.total)
        return [(cfg, sum(v) / len(v)) for cfg, v in grouped.items()]


def run(
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> Fig7Data:
    """Simulate every benchmark under the five Table 2 configurations."""
    names = mibench2_names()
    variants = [(spec, False, 0) for spec in TABLE2_CONFIGS]
    variants.append((TABLE2_CONFIGS[-1], True, "auto"))
    jobs = [
        SimJob(
            workload=name,
            config=spec,
            size=settings.size,
            salt=salt,
            use_compiler=use_compiler,
            perf_watchdog=wdt,
        )
        for spec, use_compiler, wdt in variants
        for salt, name in enumerate(names)
    ]
    results = iter(run_jobs(jobs, settings))
    bars: List[Fig7Bar] = []
    for spec, use_compiler, wdt in variants:
        config = ClankConfig.from_tuple(spec)
        label = config.label() + ("+C+WDT" if use_compiler else "")
        hw = hardware_overhead(config, watchdogs=use_compiler).power_fraction
        for name in names:
            result = next(results)
            bars.append(
                Fig7Bar(
                    benchmark=name,
                    config=label,
                    reexec=result.reexec_overhead + result.restart_overhead,
                    checkpoint=result.checkpoint_overhead,
                    hardware=hw,
                    single_cycle=result.power_cycles == 1,
                )
            )
    return Fig7Data(bars=bars)


def render(data: Fig7Data) -> str:
    """Text rendering: one line per bar, grouped by benchmark."""
    out = ["Figure 7: total run-time overhead (x baseline) per benchmark"]
    for benchmark, bars in data.by_benchmark().items():
        star = "*" if all(b.single_cycle for b in bars) else " "
        parts = [
            f"{b.config}: x{b.total:.3f} (rx {b.reexec:.1%}, ck {b.checkpoint:.1%}, hw {b.hardware:.1%})"
            for b in bars
        ]
        out.append(f"{benchmark}{star}")
        for part in parts:
            out.append(f"    {part}")
    out.append("averages:")
    for cfg, avg in data.averages():
        out.append(f"    {cfg}: x{avg:.3f}")
    return "\n".join(out)
