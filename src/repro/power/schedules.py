"""Concrete power-on time generators."""

import random
from abc import ABC, abstractmethod
from array import array
from typing import Iterable, List

from repro.common.constants import DEFAULT_AVG_ON_MS, DEFAULT_CLOCK_HZ, ms_to_cycles
from repro.common.errors import ConfigError


class PowerSchedule(ABC):
    """Supplies successive power-on durations in clock cycles."""

    @abstractmethod
    def next_on_time(self) -> int:
        """Duration, in cycles, of the next power-on period (>= 1)."""

    @abstractmethod
    def reset(self) -> None:
        """Rewind the schedule so a run can be repeated exactly."""

    @property
    @abstractmethod
    def mean_on_time(self) -> float:
        """Average power-on duration in cycles (used to seed the
        Performance Watchdog, Section 3.1.4)."""


class ContinuousPower(PowerSchedule):
    """Never fails — the continuous-execution baseline."""

    _FOREVER = 1 << 62

    def next_on_time(self) -> int:
        return self._FOREVER

    def reset(self) -> None:
        pass

    @property
    def mean_on_time(self) -> float:
        return float(self._FOREVER)


class FixedPower(PowerSchedule):
    """Every power-on period lasts exactly ``on_cycles`` cycles."""

    def __init__(self, on_cycles: int):
        if on_cycles < 1:
            raise ConfigError("on_cycles must be >= 1")
        self.on_cycles = on_cycles

    def next_on_time(self) -> int:
        return self.on_cycles

    def reset(self) -> None:
        pass

    @property
    def mean_on_time(self) -> float:
        return float(self.on_cycles)


class ExponentialPower(PowerSchedule):
    """Exponentially distributed on-times — the classic model for harvested
    RF energy, and the reproduction's default.

    Args:
        mean_cycles: Mean on-time in cycles.
        seed: RNG seed; runs are exactly repeatable for a given seed.
        min_cycles: Floor applied to each sample (a device that cannot
            execute a single cycle never turned on).
    """

    def __init__(self, mean_cycles: int, seed: int = 0, min_cycles: int = 1):
        if mean_cycles < 1:
            raise ConfigError("mean_cycles must be >= 1")
        self._mean = mean_cycles
        self._min = min_cycles
        self._seed = seed
        self._rng = random.Random(seed)

    def next_on_time(self) -> int:
        return max(self._min, int(self._rng.expovariate(1.0 / self._mean)))

    def reset(self) -> None:
        self._rng = random.Random(self._seed)

    @property
    def mean_on_time(self) -> float:
        return float(self._mean)

    def batch(self, n: int, segments: int,
              seed_stride: int = 1) -> "ScheduleBatch":
        """A :class:`ScheduleBatch` of ``n`` schedules seeded from this one.

        Row ``i`` is seeded ``self.seed + i*seed_stride``, so with the
        evaluation's salted seeding (``seed*1000003 + salt``) row ``i``
        reproduces the scalar schedule at salt ``salt + i*stride`` — row 0
        is always this very schedule.
        """
        return ScheduleBatch(
            self._mean,
            [self._seed + i * seed_stride for i in range(n)],
            segments,
            min_cycles=self._min,
        )


class ScheduleBatch:
    """A batch of exponential power schedules (rows) for batched replay.

    Row ``i`` reproduces, draw for draw, the scalar
    :class:`ExponentialPower` seeded ``seeds[i]``: each row has its own
    ``random.Random`` and fills its on-times in the exact order
    ``next_on_time()`` would consume them, so a batch replay and N scalar
    replays see identical schedules.  Columns grow on demand
    (:meth:`ensure_columns`) when a row outlives the initial guess.

    ``ontimes[i]`` is row ``i``'s on-times as one ``array('q')``,
    so the C batch walker reads a row straight from its buffer address.
    """

    def __init__(self, mean_cycles: int, seeds, segments: int,
                 min_cycles: int = 1):
        if mean_cycles < 1:
            raise ConfigError("mean_cycles must be >= 1")
        if segments < 1:
            raise ConfigError("segments must be >= 1")
        self._mean = mean_cycles
        self._min = min_cycles
        self.seeds = [int(s) for s in seeds]
        if not self.seeds:
            raise ConfigError("need at least one seed")
        self.rows = len(self.seeds)
        self._rngs = [random.Random(s) for s in self.seeds]
        self.columns = 0
        self.ontimes = [array("q") for _ in self.seeds]
        self.ensure_columns(segments)

    def ensure_columns(self, columns: int) -> None:
        """Grow every row to at least ``columns`` on-times.

        Every row advances its own RNG in draw order, so previously
        generated columns are never re-drawn and row ``i`` stays equal to
        the scalar generator's first ``columns`` samples.
        """
        have = self.columns
        if columns <= have:
            return
        mean = 1.0 / self._mean
        floor = self._min
        for row, rng in zip(self.ontimes, self._rngs):
            expo = rng.expovariate
            row.extend([
                max(floor, int(expo(mean))) for _ in range(columns - have)
            ])
        self.columns = columns

    @property
    def mean_on_time(self) -> float:
        return float(self._mean)

    def row_schedule(self, i: int) -> "ExponentialPower":
        """A fresh scalar schedule replaying row ``i`` from its seed —
        the exact schedule a per-row fallback must consume."""
        return ExponentialPower(
            self._mean, seed=self.seeds[i], min_cycles=self._min
        )


class UniformPower(PowerSchedule):
    """On-times drawn uniformly from ``[lo_cycles, hi_cycles]``."""

    def __init__(self, lo_cycles: int, hi_cycles: int, seed: int = 0):
        if not (1 <= lo_cycles <= hi_cycles):
            raise ConfigError("need 1 <= lo_cycles <= hi_cycles")
        self._lo = lo_cycles
        self._hi = hi_cycles
        self._seed = seed
        self._rng = random.Random(seed)

    def next_on_time(self) -> int:
        return self._rng.randint(self._lo, self._hi)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)

    @property
    def mean_on_time(self) -> float:
        return (self._lo + self._hi) / 2.0


class ReplayPower(PowerSchedule):
    """Replays a recorded list of on-times; repeats the last one forever.

    Useful for regression tests and for replaying measured harvester traces.
    """

    def __init__(self, on_times: Iterable[int]):
        self._times: List[int] = [int(t) for t in on_times]
        if not self._times or any(t < 1 for t in self._times):
            raise ConfigError("need a non-empty list of positive on-times")
        self._pos = 0

    def next_on_time(self) -> int:
        t = self._times[min(self._pos, len(self._times) - 1)]
        self._pos += 1
        return t

    def reset(self) -> None:
        self._pos = 0

    @property
    def mean_on_time(self) -> float:
        return sum(self._times) / len(self._times)


class RuntPower(PowerSchedule):
    """A mixture of normal and *runt* power cycles (Section 3.1.4).

    With probability ``runt_fraction`` the on-time is drawn from a short
    exponential (mean ``runt_mean``); otherwise from the normal one.  Used to
    exercise the Progress Watchdog: runt cycles are too short for a long
    idempotent section to reach its checkpoint.
    """

    def __init__(
        self,
        mean_cycles: int,
        runt_mean: int,
        runt_fraction: float = 0.5,
        seed: int = 0,
    ):
        if not (0.0 <= runt_fraction <= 1.0):
            raise ConfigError("runt_fraction must be in [0, 1]")
        self._normal = mean_cycles
        self._runt = runt_mean
        self._fraction = runt_fraction
        self._seed = seed
        self._rng = random.Random(seed)

    def next_on_time(self) -> int:
        mean = self._runt if self._rng.random() < self._fraction else self._normal
        return max(1, int(self._rng.expovariate(1.0 / mean)))

    def reset(self) -> None:
        self._rng = random.Random(self._seed)

    @property
    def mean_on_time(self) -> float:
        return self._fraction * self._runt + (1 - self._fraction) * self._normal


def default_power_schedule(
    seed: int = 0,
    avg_on_ms: float = DEFAULT_AVG_ON_MS,
    clock_hz: int = DEFAULT_CLOCK_HZ,
) -> ExponentialPower:
    """The paper's experimental condition: exponentially distributed power-on
    times averaging 100 ms (at the scaled clock, 100,000 cycles)."""
    return ExponentialPower(ms_to_cycles(avg_on_ms, clock_hz), seed=seed)
