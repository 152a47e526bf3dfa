"""The per-call trace-capture path, kept as an oracle for ``TracedMemory``.

:class:`repro.mem.traced.TracedMemory` records each access with one
closure call and seals its columns in bulk.  :class:`OracleMemory` is
the straightforward form it replaced: every access goes through
``load``/``store`` -> ``_check`` -> ``_touch`` -> ``_record`` and is
appended to the :class:`~repro.trace.trace.AccessLog` one column at a
time.  Tests drive both with the same programs and require identical
traces and identical errors.
"""

from repro.common.errors import MemoryError_
from repro.common.words import extract_bytes, insert_bytes, mask_value
from repro.mem.map import default_memory_map
from repro.mem.traced import (
    FLOAT_ADD_CYCLES,
    FLOAT_MUL_CYCLES,
    LOAD_CYCLES,
    MUL_CYCLES,
    STORE_CYCLES,
)
from repro.trace.access import READ, WRITE
from repro.trace.trace import AccessLog, Marker, Trace


class OracleMemory:
    """``TracedMemory``'s access, marker and seal API, one step at a time.

    Subclasses may override :meth:`_record`, which every access passes
    through with its kind, word address, word value and latency.  It
    has no allocator, so ``finish`` counts an empty text segment.
    """

    def __init__(self, name, memory_map=None, compute_overhead=4):
        self.name = name
        self.memory_map = memory_map or default_memory_map()
        self.compute_overhead = compute_overhead
        self._words = {}
        self._initial = {}
        self._log = AccessLog(self.memory_map)
        self._markers = []
        self._pending_cycles = 0
        self._finished = False

    def init_words(self, addr, values):
        if addr % 4 != 0:
            raise MemoryError_(f"init_words: misaligned address {addr:#x}")
        waddr = addr >> 2
        for i, value in enumerate(values):
            self._check_uninitialized(waddr + i)
            self._words[waddr + i] = value & 0xFFFF_FFFF

    def init_bytes(self, addr, data):
        for i, byte in enumerate(data):
            a = addr + i
            waddr = a >> 2
            self._check_uninitialized(waddr)
            old = self._words.get(waddr, 0)
            self._words[waddr] = insert_bytes(old, byte, a & 3, 1)

    def _check_uninitialized(self, waddr):
        if waddr in self._initial:
            raise MemoryError_(
                f"{self.name}: init of word {waddr:#x} after it was already "
                f"accessed at run time; use traced stores instead"
            )

    def tick(self, cycles):
        self._pending_cycles += cycles

    def mul_tick(self):
        self._pending_cycles += MUL_CYCLES

    def fmul_tick(self, count=1):
        self._pending_cycles += FLOAT_MUL_CYCLES * count

    def fadd_tick(self, count=1):
        self._pending_cycles += FLOAT_ADD_CYCLES * count

    def _record(self, kind, waddr, value, latency):
        cycles = self._pending_cycles + latency + self.compute_overhead
        self._pending_cycles = 0
        self._log.append(kind, waddr, value, cycles)

    def _touch(self, waddr):
        value = self._words.get(waddr, 0)
        if waddr not in self._initial:
            self._initial[waddr] = value
        return value

    def load(self, addr, size=4):
        self._check(addr, size)
        waddr = addr >> 2
        word = self._touch(waddr)
        self._record(READ, waddr, word, LOAD_CYCLES)
        return extract_bytes(word, addr & 3, size)

    def store(self, addr, value, size=4):
        self._check(addr, size)
        waddr = addr >> 2
        old = self._touch(waddr)
        new = insert_bytes(old, mask_value(value, size), addr & 3, size)
        self._words[waddr] = new
        self._record(WRITE, waddr, new, STORE_CYCLES)

    def lw(self, addr):
        return self.load(addr, 4)

    def sw(self, addr, value):
        self.store(addr, value, 4)

    def lb(self, addr):
        return self.load(addr, 1)

    def sb(self, addr, value):
        self.store(addr, value, 1)

    def lh(self, addr):
        return self.load(addr, 2)

    def sh(self, addr, value):
        self.store(addr, value, 2)

    def out(self, port, value):
        mmio = self.memory_map.segment("mmio")
        addr = mmio.base + 4 * port
        if addr >= mmio.end:
            raise MemoryError_(f"{self.name}: MMIO port {port} out of range")
        self.sw(addr, value)

    def call(self, label):
        self._markers.append(Marker(len(self._log.kinds), "call", label))

    def ret(self, label=""):
        self._markers.append(Marker(len(self._log.kinds), "ret", label))

    def finish(self, checksum=0, code_bytes=0):
        if self._finished:
            raise MemoryError_(f"{self.name}: finish() called twice")
        self._finished = True
        if code_bytes == 0:
            code_bytes = 4096
        return Trace(
            name=self.name,
            log=self._log,
            initial_image=self._initial,
            markers=self._markers,
            checksum=checksum & 0xFFFF_FFFF,
            code_bytes=code_bytes,
        )

    @staticmethod
    def _check(addr, size):
        if size not in (1, 2, 4):
            raise MemoryError_(f"unsupported access size {size}")
        if addr % size != 0:
            raise MemoryError_(f"misaligned {size}-byte access at {addr:#x}")
