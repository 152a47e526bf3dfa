"""Extract a policy-simulator trace from an ISS run.

The paper's flow validates the simulators against the hardware
implementation (Section 6).  This module provides the reproduction's
equivalent: run a program once, uninterrupted, on the Thumb CPU with a
recording memory port; the resulting :class:`~repro.trace.trace.Trace` can
be replayed through the policy simulator, and its checkpoint behaviour
compared against the live full-system run of the same binary
(see ``benchmarks/test_live_crossvalidation.py``).
"""

from typing import Dict

from repro.isa.assembler import Program
from repro.isa.cpu import Cpu
from repro.mem.main_memory import MainMemory
from repro.mem.map import MemoryMap
from repro.trace.access import READ, WRITE
from repro.trace.trace import AccessLog, Trace


class RecordingPort:
    """Memory port that logs accesses with inter-access cycle costs."""

    def __init__(self, memory: MainMemory, memory_map: MemoryMap):
        self.memory = memory
        self.log = AccessLog(memory_map)
        self.initial: Dict[int, int] = {}
        self._cpu: Cpu = None  # attached after construction
        self._last_cycle = 0

    def attach(self, cpu: Cpu) -> None:
        self._cpu = cpu

    def _cycles_since_last(self) -> int:
        # The CPU updates cycle_count after the instruction completes, so
        # mid-instruction accesses use the running count plus a 2-cycle
        # data access; clamp to at least 1.
        now = self._cpu.cycle_count + 2
        delta = max(1, now - self._last_cycle)
        self._last_cycle = now
        return delta

    def _touch(self, waddr: int) -> int:
        value = self.memory.read_word(waddr)
        self.initial.setdefault(waddr, value)
        return value

    def read(self, addr: int, size: int) -> int:
        waddr = addr >> 2
        word = self._touch(waddr)
        self.log.append(READ, waddr, word, self._cycles_since_last())
        return self.memory.read(addr, size)

    def write(self, addr: int, value: int, size: int) -> None:
        waddr = addr >> 2
        self._touch(waddr)
        self.memory.write(addr, value, size)
        self.log.append(
            WRITE, waddr, self.memory.read_word(waddr), self._cycles_since_last()
        )


def extract_trace(program: Program, name: str = "iss") -> Trace:
    """Run ``program`` to completion and return its memory-access trace."""
    memory = MainMemory(program.initial_word_image())
    port = RecordingPort(memory, program.memory_map)
    cpu = Cpu(program, port)
    port.attach(cpu)
    cpu.run()
    return Trace(
        name=name,
        log=port.log,
        initial_image=port.initial,
        final_cycles=cpu.cycle_count,
    )
