"""Instrumented memory that records the access log workloads produce.

This plays the role of the paper's cycle-accurate instruction-set simulator
as a *trace source*: workloads (re-implementations of the MiBench2 kernels)
perform their loads and stores through a ``TracedMemory``, which logs every
access with word address, observed/produced word value, and a cycle cost
into the columns of an :class:`~repro.trace.trace.AccessLog`.

Cycle model (ARM Cortex-M0+, two-stage pipeline):

* a load costs 2 cycles, a store costs 2 cycles;
* each access additionally carries ``compute_overhead`` cycles of
  surrounding non-memory instructions (address generation, masks/shifts,
  compares, loop control).  About one third of executed instructions are
  memory operations on this class of core (Section 8.3), but one
  kernel-level load/store here typically stands for a short run of source
  expressions, so the default of 4 charges two ALU/branch pairs per access;
* workloads add extra compute with :meth:`tick` (e.g. 32 cycles for the
  M0+'s iterative multiplier).
"""

from typing import Dict, List, Optional, Sequence

from repro.common.errors import MemoryError_
from repro.common.words import extract_bytes, insert_bytes, mask_value
from repro.mem.map import MemoryMap, default_memory_map
from repro.trace.access import READ, WRITE
from repro.trace.trace import AccessLog, Marker, Trace

#: Cortex-M0+ data-access latencies (cycles).
LOAD_CYCLES = 2
STORE_CYCLES = 2

#: Extra compute cycles per multiply on the 32-cycle iterative multiplier.
MUL_CYCLES = 32

#: Software floating-point costs: the Cortex-M0+ has no FPU, so the
#: float-based MiBench2 kernels (fft, basicmath, susan) run library
#: emulation — tens of register-only cycles per operation.  These rates
#: match AEABI soft-float on ARMv6-M.
FLOAT_MUL_CYCLES = 50
FLOAT_ADD_CYCLES = 30


class TracedMemory:
    """A word-organized memory that logs accesses for the policy simulator.

    Args:
        name: Workload name recorded in the produced :class:`Trace`.
        memory_map: Device memory map; defaults to
            :func:`~repro.mem.map.default_memory_map`.
        compute_overhead: Compute cycles charged alongside every access (see
            module docstring).
    """

    def __init__(
        self,
        name: str,
        memory_map: Optional[MemoryMap] = None,
        compute_overhead: int = 4,
    ):
        self.name = name
        self.memory_map = memory_map or default_memory_map()
        self.compute_overhead = compute_overhead
        self._words: Dict[int, int] = {}
        self._initial: Dict[int, int] = {}
        self._log = AccessLog(self.memory_map)
        self._append = self._log.append
        self._markers: List[Marker] = []
        self._pending_cycles = 0
        self._alloc_cursor = {
            name: seg.base for name, seg in self.memory_map.segments.items()
        }
        self._finished = False

    # ------------------------------------------------------------------ #
    # Allocation and silent initialization (link/load time, not traced).
    # ------------------------------------------------------------------ #

    def alloc(self, nbytes: int, segment: str = "data", align: int = 4) -> int:
        """Reserve ``nbytes`` in ``segment`` and return the base address.

        A bump allocator standing in for the linker's section layout.  Use
        ``segment="text"`` for read-only tables (rodata lives with code on
        these devices, which is what makes ignore-TEXT profitable).
        """
        seg = self.memory_map.segment(segment)
        cursor = self._alloc_cursor[segment]
        cursor = (cursor + align - 1) // align * align
        if cursor + nbytes > seg.end:
            raise MemoryError_(
                f"{self.name}: segment {segment!r} exhausted allocating "
                f"{nbytes} bytes"
            )
        self._alloc_cursor[segment] = cursor + nbytes
        return cursor

    def init_words(self, addr: int, values: Sequence[int]) -> None:
        """Install word values at load time — not part of the access log.

        Only legal before the first traced access to the affected words:
        silent initialization of live memory would make the log
        unreplayable.
        """
        if addr % 4 != 0:
            raise MemoryError_(f"init_words: misaligned address {addr:#x}")
        waddr = addr >> 2
        for i, value in enumerate(values):
            self._check_uninitialized(waddr + i)
            self._words[waddr + i] = value & 0xFFFF_FFFF

    def init_bytes(self, addr: int, data: bytes) -> None:
        """Install raw bytes at load time — not part of the access log.

        Only legal before the first traced access to the affected words.
        """
        for i, byte in enumerate(data):
            a = addr + i
            waddr = a >> 2
            self._check_uninitialized(waddr)
            old = self._words.get(waddr, 0)
            self._words[waddr] = insert_bytes(old, byte, a & 3, 1)

    def _check_uninitialized(self, waddr: int) -> None:
        if waddr in self._initial:
            raise MemoryError_(
                f"{self.name}: init of word {waddr:#x} after it was already "
                f"accessed at run time; use traced stores instead"
            )

    # ------------------------------------------------------------------ #
    # Traced accesses (run time).
    # ------------------------------------------------------------------ #

    def tick(self, cycles: int) -> None:
        """Charge ``cycles`` of pure compute to the next access."""
        self._pending_cycles += cycles

    def mul_tick(self) -> None:
        """Charge one iterative-multiplier multiply (32 cycles)."""
        self._pending_cycles += MUL_CYCLES

    def fmul_tick(self, count: int = 1) -> None:
        """Charge ``count`` software-emulated float multiplies."""
        self._pending_cycles += FLOAT_MUL_CYCLES * count

    def fadd_tick(self, count: int = 1) -> None:
        """Charge ``count`` software-emulated float adds/subtracts."""
        self._pending_cycles += FLOAT_ADD_CYCLES * count

    def _record(self, kind: int, waddr: int, value: int, latency: int) -> None:
        cycles = self._pending_cycles + latency + self.compute_overhead
        self._pending_cycles = 0
        self._append(kind, waddr, value, cycles)

    def _touch(self, waddr: int) -> int:
        value = self._words.get(waddr, 0)
        if waddr not in self._initial:
            self._initial[waddr] = value
        return value

    def load(self, addr: int, size: int = 4) -> int:
        """Traced load of ``size`` bytes at ``addr`` (aligned)."""
        self._check(addr, size)
        waddr = addr >> 2
        word = self._touch(waddr)
        self._record(READ, waddr, word, LOAD_CYCLES)
        return extract_bytes(word, addr & 3, size)

    def store(self, addr: int, value: int, size: int = 4) -> None:
        """Traced store of ``size`` bytes at ``addr`` (aligned)."""
        self._check(addr, size)
        waddr = addr >> 2
        old = self._touch(waddr)
        new = insert_bytes(old, mask_value(value, size), addr & 3, size)
        self._words[waddr] = new
        self._record(WRITE, waddr, new, STORE_CYCLES)

    # Convenience aliases matching assembly mnemonics.
    def lw(self, addr: int) -> int:
        """Traced 32-bit load."""
        return self.load(addr, 4)

    def sw(self, addr: int, value: int) -> None:
        """Traced 32-bit store."""
        self.store(addr, value, 4)

    def lb(self, addr: int) -> int:
        """Traced 8-bit load."""
        return self.load(addr, 1)

    def sb(self, addr: int, value: int) -> None:
        """Traced 8-bit store."""
        self.store(addr, value, 1)

    def lh(self, addr: int) -> int:
        """Traced 16-bit load."""
        return self.load(addr, 2)

    def sh(self, addr: int, value: int) -> None:
        """Traced 16-bit store."""
        self.store(addr, value, 2)

    def out(self, port: int, value: int) -> None:
        """Traced output: a word write into the MMIO segment.

        Subject to Clank's output-commit rule (Section 3.3).
        """
        mmio = self.memory_map.segment("mmio")
        addr = mmio.base + 4 * port
        if addr >= mmio.end:
            raise MemoryError_(f"{self.name}: MMIO port {port} out of range")
        self.sw(addr, value)

    # ------------------------------------------------------------------ #
    # Program structure markers (consumed by static baselines).
    # ------------------------------------------------------------------ #

    def call(self, label: str) -> None:
        """Mark a function-call boundary at the current trace position."""
        self._markers.append(Marker(len(self._log), "call", label))

    def ret(self, label: str = "") -> None:
        """Mark a function-return boundary at the current trace position."""
        self._markers.append(Marker(len(self._log), "ret", label))

    # ------------------------------------------------------------------ #
    # Bulk helpers used by several kernels.
    # ------------------------------------------------------------------ #

    def store_words(self, addr: int, values: Sequence[int]) -> None:
        """Traced store of a run of words."""
        for i, value in enumerate(values):
            self.sw(addr + 4 * i, value)

    def load_words(self, addr: int, count: int) -> List[int]:
        """Traced load of a run of words."""
        return [self.lw(addr + 4 * i) for i in range(count)]

    def store_bytes(self, addr: int, data: bytes) -> None:
        """Traced store of raw bytes."""
        for i, byte in enumerate(data):
            self.sb(addr + i, byte)

    # ------------------------------------------------------------------ #
    # Finalization.
    # ------------------------------------------------------------------ #

    def text_bytes_used(self) -> int:
        """Bytes allocated in the text segment (tables/rodata)."""
        return self._alloc_cursor["text"] - self.memory_map.segment("text").base

    def finish(self, checksum: int = 0, code_bytes: int = 0) -> Trace:
        """Seal the log and return the :class:`Trace`.

        Args:
            checksum: The workload's self-check result, stored for test
                assertions against the kernel's known-good value.
            code_bytes: Modeled binary size; defaults to text-segment usage
                plus a fixed 4 KB of code if not given.
        """
        if self._finished:
            raise MemoryError_(f"{self.name}: finish() called twice")
        self._finished = True
        if code_bytes == 0:
            code_bytes = self.text_bytes_used() + 4096
        return Trace(
            name=self.name,
            log=self._log,
            initial_image=self._initial,
            markers=self._markers,
            checksum=checksum & 0xFFFF_FFFF,
            code_bytes=code_bytes,
        )

    @staticmethod
    def _check(addr: int, size: int) -> None:
        if size not in (1, 2, 4):
            raise MemoryError_(f"unsupported access size {size}")
        if addr % size != 0:
            raise MemoryError_(f"misaligned {size}-byte access at {addr:#x}")
