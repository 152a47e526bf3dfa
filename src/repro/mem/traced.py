"""Instrumented memory that records the access log workloads produce.

This plays the role of the paper's cycle-accurate instruction-set simulator
as a *trace source*: workloads (re-implementations of the MiBench2 kernels)
perform their loads and stores through a ``TracedMemory``.  Each access is
one Python call that appends its kind, word address, observed/produced word
value and cycle cost to a flat list; :meth:`TracedMemory.finish` seals the
list into the typed columns of an :class:`~repro.trace.trace.AccessLog`,
one stride slice per column.

Cycle model (ARM Cortex-M0+, two-stage pipeline):

* a load costs 2 cycles, a store costs 2 cycles;
* each access additionally carries ``compute_overhead`` cycles of
  surrounding non-memory instructions (address generation, masks/shifts,
  compares, loop control).  About one third of executed instructions are
  memory operations on this class of core (Section 8.3), but one
  kernel-level load/store here typically stands for a short run of source
  expressions, so the default of 4 charges two ALU/branch pairs per access;
* workloads add extra compute with ``tick`` (e.g. 32 cycles for the
  M0+'s iterative multiplier).
"""

from typing import Dict, List, Optional, Sequence

from repro.common.errors import MemoryError_
from repro.common.words import insert_bytes
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

    The traced accesses are ``lw``/``lh``/``lb(addr)`` and
    ``sw``/``sh``/``sb(addr, value)`` (32/16/8-bit, aligned), plus the
    generic :meth:`load`/:meth:`store`.  ``tick(count)`` charges
    ``count`` compute cycles to the next access; ``mul_tick``,
    ``fmul_tick`` and ``fadd_tick(count=1)`` charge ``count`` multiplies
    or software-float multiplies or adds.

    Args:
        name: Workload name recorded in the produced :class:`Trace`.
        memory_map: Device memory map; defaults to
            :func:`~repro.mem.map.default_memory_map`.
        compute_overhead: Compute cycles charged alongside every access (see
            module docstring); fixed at construction.
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
        self._flat: List[int] = []
        self._outs: List[int] = []
        self._markers: List[Marker] = []
        self._alloc_cursor = {
            name: seg.base for name, seg in self.memory_map.segments.items()
        }
        self._finished = False
        # The accessors and ticks are closures over this state.  An access
        # checks alignment, keeps the word's initial value on first touch,
        # inserts or extracts its bytes, and appends ``(kind, waddr, word,
        # cycles)`` to ``_flat`` in one ``extend``; a write into MMIO also
        # notes its index in ``_outs``.
        words, initial, flat = self._words, self._initial, self._flat
        get, extend, out = words.get, flat.extend, self._outs.append
        lo, hi = self.memory_map.word_range("mmio")
        load_cost = LOAD_CYCLES + self.compute_overhead
        store_cost = STORE_CYCLES + self.compute_overhead
        pending = 0

        def charge(unit: int):
            def tick(count: int = 1) -> None:
                nonlocal pending
                pending += unit * count
            return tick

        def lw(addr: int) -> int:
            nonlocal pending
            if addr & 3:
                raise MemoryError_(f"misaligned 4-byte access at {addr:#x}")
            waddr = addr >> 2
            word = get(waddr, 0)
            if waddr not in initial:
                initial[waddr] = word
            extend((READ, waddr, word, pending + load_cost))
            pending = 0
            return word

        def sw(addr: int, value: int) -> None:
            nonlocal pending
            if addr & 3:
                raise MemoryError_(f"misaligned 4-byte access at {addr:#x}")
            waddr = addr >> 2
            if waddr not in initial:
                initial[waddr] = get(waddr, 0)
            words[waddr] = value = value & 0xFFFF_FFFF
            if lo <= waddr < hi:
                out(len(flat) >> 2)
            extend((WRITE, waddr, value, pending + store_cost))
            pending = 0

        def subword(size: int):
            align, mask = size - 1, (1 << 8 * size) - 1

            def load(addr: int) -> int:
                nonlocal pending
                if addr & align:
                    raise MemoryError_(
                        f"misaligned {size}-byte access at {addr:#x}")
                waddr = addr >> 2
                word = get(waddr, 0)
                if waddr not in initial:
                    initial[waddr] = word
                extend((READ, waddr, word, pending + load_cost))
                pending = 0
                return word >> ((addr & 3) << 3) & mask

            def store(addr: int, value: int) -> None:
                nonlocal pending
                if addr & align:
                    raise MemoryError_(
                        f"misaligned {size}-byte access at {addr:#x}")
                waddr = addr >> 2
                old = get(waddr, 0)
                if waddr not in initial:
                    initial[waddr] = old
                shift = (addr & 3) << 3
                words[waddr] = value = (
                    old & ~(mask << shift) | (value & mask) << shift)
                if lo <= waddr < hi:
                    out(len(flat) >> 2)
                extend((WRITE, waddr, value, pending + store_cost))
                pending = 0
            return load, store

        self.lw, self.sw = lw, sw
        (self.lh, self.sh), (self.lb, self.sb) = subword(2), subword(1)
        self.tick, self.mul_tick = charge(1), charge(MUL_CYCLES)
        self.fmul_tick = charge(FLOAT_MUL_CYCLES)
        self.fadd_tick = charge(FLOAT_ADD_CYCLES)

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

    def load(self, addr: int, size: int = 4) -> int:
        """Traced load of ``size`` bytes at ``addr`` (aligned)."""
        return self._sized(size, self.lw, self.lh, self.lb)(addr)

    def store(self, addr: int, value: int, size: int = 4) -> None:
        """Traced store of ``size`` bytes at ``addr`` (aligned)."""
        self._sized(size, self.sw, self.sh, self.sb)(addr, value)

    @staticmethod
    def _sized(size: int, word, half, byte):
        if size not in (1, 2, 4):
            raise MemoryError_(f"unsupported access size {size}")
        return word if size == 4 else half if size == 2 else byte

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
        self._markers.append(Marker(len(self._flat) >> 2, "call", label))

    def ret(self, label: str = "") -> None:
        """Mark a function-return boundary at the current trace position."""
        self._markers.append(Marker(len(self._flat) >> 2, "ret", label))

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
            log=AccessLog.sealed(self.memory_map, self._flat, self._outs),
            initial_image=self._initial,
            markers=self._markers,
            checksum=checksum & 0xFFFF_FFFF,
            code_bytes=code_bytes,
        )
