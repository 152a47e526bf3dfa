"""Shared experiment settings."""

from dataclasses import dataclass, replace

from repro.common.constants import DEFAULT_AVG_ON_MS, DEFAULT_CLOCK_HZ, ms_to_cycles
from repro.power.schedules import ExponentialPower


@dataclass(frozen=True)
class EvalSettings:
    """Knobs shared by all experiment drivers.

    Attributes:
        size: Workload size preset for per-benchmark experiments.
        sweep_size: Smaller preset for the million-configuration design-
            space sweeps (Figures 5-6), as the paper does by splitting ISS
            runs from policy-simulator runs.
        seed: Base RNG seed for power schedules (workload inputs are
            seeded separately and deterministically).
        avg_on_ms: Average power-on time; the paper's default is 100 ms.
        clock_hz: Scaled clock (see :mod:`repro.common.constants`).
        verify: Run the dynamic verifier inside each simulation.  The
            paper verifies every trial; the sweeps disable it for speed
            after the verification suite has covered the same configs.

    Simulator wall-clock is not a setting: every run is timed once, into
    its :class:`repro.obs.telemetry.RunRecord` when the run ledger is on.
    """

    size: str = "default"
    sweep_size: str = "small"
    seed: int = 1
    avg_on_ms: float = DEFAULT_AVG_ON_MS
    clock_hz: int = DEFAULT_CLOCK_HZ
    verify: bool = False

    @property
    def avg_on_cycles(self) -> int:
        """Mean power-on duration in cycles."""
        return ms_to_cycles(self.avg_on_ms, self.clock_hz)

    def schedule_seed(self, salt: int = 0) -> int:
        """The seed of :meth:`schedule` at ``salt``."""
        return self.seed * 1000003 + salt

    def schedule(self, salt: int = 0) -> ExponentialPower:
        """A fresh exponential power schedule for one simulation run."""
        return ExponentialPower(self.avg_on_cycles,
                                seed=self.schedule_seed(salt))

    def quick(self) -> "EvalSettings":
        """A cheaper variant for smoke tests."""
        return replace(self, size="small", sweep_size="tiny")


#: Settings used when an experiment driver is invoked without arguments.
DEFAULT_SETTINGS = EvalSettings()
