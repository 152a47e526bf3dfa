"""repro — a reproduction of *Clank: Architectural Support for Intermittent
Computation* (Matthew Hicks, ISCA 2017).

Clank stretches unmodified programs across frequent, random power cycles by
dynamically tracking memory-access idempotency in small hardware buffers and
checkpointing volatile state only when tracking resources run out.

Quickstart::

    from repro import (
        ClankConfig, simulate, default_power_schedule, get_workload,
    )

    trace = get_workload("crc").build()
    result = simulate(trace, ClankConfig.from_tuple((16, 8, 4, 4)),
                      default_power_schedule(seed=1))
    print(result.summary())

Package layout:

* :mod:`repro.core` — the Clank hardware (buffers, detector, watchdogs).
* :mod:`repro.sim` — the trace-driven intermittent policy simulator.
* :mod:`repro.mem`, :mod:`repro.trace`, :mod:`repro.power` — substrates.
* :mod:`repro.runtime` — checkpoint/start-up routine cost model.
* :mod:`repro.compiler` — Program-Idempotence marking, code-size model.
* :mod:`repro.verify` — reference monitor, dynamic + bounded verification.
* :mod:`repro.hw` — FPGA-resource model (Table 2).
* :mod:`repro.isa` — ARMv6-M Thumb-subset ISS with live Clank attachment.
* :mod:`repro.workloads` — the 23 MiBench2-class kernels + DINO's DS.
* :mod:`repro.baselines` — Mementos/Hibernus/Ratchet/DINO models.
* :mod:`repro.eval` — drivers regenerating every table and figure.
* :mod:`repro.obs` — event recording, metrics, Chrome-trace export,
  sweep profiling, and ``python -m repro.obs.report``, which renders a
  sweep's run ledger as its run profile or summarizes an event log.
"""

from repro.core.config import ClankConfig, PolicyOptimizations, table2_configs
from repro.core.detector import IdempotencyDetector
from repro.core.watchdogs import (
    PerformanceWatchdog,
    ProgressWatchdog,
    optimal_watchdog_value,
)
from repro.mem.map import MemoryMap, Segment, default_memory_map
from repro.mem.main_memory import MainMemory
from repro.mem.traced import TracedMemory
from repro.power.schedules import (
    ContinuousPower,
    ExponentialPower,
    FixedPower,
    PowerSchedule,
    ReplayPower,
    RuntPower,
    UniformPower,
    default_power_schedule,
)
from repro.power.harvester import (
    MarkovPower,
    RfHarvesterPower,
    SolarHarvesterPower,
)
from repro.runtime.costs import CostModel, DEFAULT_COST_MODEL
from repro.sim.result import SimulationResult
from repro.sim.simulator import IntermittentSimulator, simulate
from repro.sim.undo_log import UndoLogSimulator
from repro.trace.access import READ, WRITE, Access
from repro.trace.trace import Marker, Trace
from repro.trace.stats import TraceStats, compute_stats
from repro.compiler.program_idempotence import profile_program_idempotent
from repro.compiler.codesize import code_size_increase
from repro.hw.cost_model import HardwareOverhead, hardware_overhead
from repro.obs.chrome_trace import to_chrome_trace, write_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import (
    JsonlRecorder,
    MemoryRecorder,
    NullRecorder,
    Recorder,
    read_events,
)
from repro.verify.monitor import ReferenceMonitor
from repro.verify.bounded import BoundedChecker

__version__ = "1.0.0"

__all__ = [
    "ClankConfig",
    "PolicyOptimizations",
    "table2_configs",
    "IdempotencyDetector",
    "PerformanceWatchdog",
    "ProgressWatchdog",
    "optimal_watchdog_value",
    "MemoryMap",
    "Segment",
    "default_memory_map",
    "MainMemory",
    "TracedMemory",
    "PowerSchedule",
    "ContinuousPower",
    "ExponentialPower",
    "FixedPower",
    "UniformPower",
    "ReplayPower",
    "RuntPower",
    "default_power_schedule",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "SimulationResult",
    "IntermittentSimulator",
    "simulate",
    "UndoLogSimulator",
    "MarkovPower",
    "RfHarvesterPower",
    "SolarHarvesterPower",
    "READ",
    "WRITE",
    "Access",
    "Trace",
    "Marker",
    "TraceStats",
    "compute_stats",
    "profile_program_idempotent",
    "code_size_increase",
    "HardwareOverhead",
    "hardware_overhead",
    "ReferenceMonitor",
    "BoundedChecker",
    "Recorder",
    "NullRecorder",
    "MemoryRecorder",
    "JsonlRecorder",
    "read_events",
    "MetricsRegistry",
    "to_chrome_trace",
    "write_chrome_trace",
    "get_workload",
    "workload_names",
]


def get_workload(name: str):
    """Look up a workload by name (lazy import; see :mod:`repro.workloads`)."""
    from repro.workloads.registry import get_workload as _get

    return _get(name)


def workload_names():
    """All registered workload names (lazy import)."""
    from repro.workloads.registry import workload_names as _names

    return _names()
