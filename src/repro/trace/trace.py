"""The memory-access log of one program execution, stored as columns."""

import hashlib
from array import array
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.common.errors import TraceError
from repro.mem.map import MemoryMap, default_memory_map
from repro.trace.access import READ, WRITE, Access, AccessView

#: The access log's columns and their ``array`` typecodes: the access
#: kind, the word address, the word value, the cycles since the previous
#: access, and whether the access is a write into the MMIO segment.
COLUMNS = (("kinds", "B"), ("waddrs", "I"), ("values", "I"),
           ("cycles", "q"), ("outs", "B"))


class AccessLog:
    """The column writer every trace producer records through.

    One typed ``array`` per access attribute (:data:`COLUMNS`); each
    access costs five C-level appends and no Python object.  The output
    flag is classified here, against the memory map the log is recorded
    under, so no later pass re-tests addresses.

    Args:
        memory_map: The device memory map the accesses are made under.
        columns: Existing columns to wrap, in :data:`COLUMNS` order
            (default: empty ones).
    """

    __slots__ = ("memory_map", "append") + tuple(n for n, _ in COLUMNS)

    def __init__(self, memory_map: MemoryMap, columns=None):
        self.memory_map = memory_map
        cols = columns or [array(code) for _, code in COLUMNS]
        for (name, _), col in zip(COLUMNS, cols):
            setattr(self, name, col)
        k, w, v, c, o = (col.append for col in cols)
        lo, hi = memory_map.word_range("mmio")

        def append(kind: int, waddr: int, value: int, cycles: int) -> None:
            k(kind)
            w(waddr)
            v(value)
            c(cycles)
            o(kind != READ and lo <= waddr < hi)

        #: ``append(kind, waddr, value, cycles)`` logs one access.
        self.append = append

    def __len__(self) -> int:
        return len(self.kinds)


class CompiledTrace:
    """The replay form of a :class:`Trace`: its columns plus derived ones.

    ``kinds``/``waddrs``/``values``/``cycles``/``out_writes`` are the
    trace's own column buffers, not copies.  The derived columns are
    built once, straight into ``array`` buffers that the C kernels
    (:mod:`repro.core.cext`) read in place:

    Attributes:
        n: Number of accesses.
        kinds: Access kinds (``READ``/``WRITE``), ``uint8``.
        waddrs: Word addresses, ``uint32``.
        values: Word values, ``uint32``.
        cycles: Per-access cycle costs, ``int64``.
        out_writes: 1 where access ``i`` is a write into the MMIO/output
            region (the output-commit rule of Section 3.3) — the only
            memory-map test the simulator's hot loop needs per access.
        text_range: The memory map's text-segment word range (the
            ignore-TEXT bounds of every detector and chain scan).
        cum_cycles: Cycle prefix sums (``int64``), length ``n + 1``:
            ``cum_cycles[k]`` is the total cycles of accesses ``[0, k)``.
            Strictly increasing (every access costs >= 1 cycle), so the
            section-memoized fast path can place power failures and
            watchdog firings inside any contiguous access span with one
            ``bisect`` instead of an access-by-access walk.
        false_writes: 1 where access ``i`` is a *false write* — a write
            whose value equals what the program already observes at that
            word (the last write before ``i``, else the initial image,
            else 0).  This is exactly the ``new_value == cur_value``
            comparison the ignore-false-writes optimization performs at
            run time; replay is value-deterministic, so it is a trace
            property and can be evaluated once.
        digest: The trace's :attr:`Trace.digest`.
        section_tables: The distinct flat canonical-chain tables of every
            :class:`~repro.sim.sections.SectionMap` over this trace, which
            maps with equal tables share (``None`` until the first family
            pass creates it).  It lives here, like the
            forced-checkpoint masks, so it is freed with the trace.
    """

    __slots__ = (
        "n", "kinds", "waddrs", "values", "cycles", "out_writes",
        "cum_cycles", "false_writes", "digest", "_vol_masks",
        "_scan_arrays", "_prefix_ids", "_pi_masks", "_c_scratch", "_c_out",
        "_pi_hazards", "_windex", "_forced_masks", "text_range",
        "section_tables",
    )

    def __init__(self, trace: "Trace"):
        self.n = n = len(trace)
        self.kinds = kinds = trace.kinds
        self.waddrs = trace.waddrs
        self.values = trace.values
        self.cycles = trace.cycles
        self.out_writes = trace.outs
        self.text_range = trace.memory_map.text_word_range
        self.cum_cycles = array("q", accumulate(trace.cycles, initial=0))
        self.false_writes = false_writes = array("B", bytes(n))
        view = dict(trace.initial_image)
        view_get = view.get
        for i, w, v in zip(compress(range(n), kinds),
                           compress(trace.waddrs, kinds),
                           compress(trace.values, kinds)):
            if view_get(w, 0) == v:
                false_writes[i] = 1
            view[w] = v
        self.digest = trace.digest
        self._vol_masks: Dict[Tuple[Tuple[int, int], ...], bytes] = {}
        self._scan_arrays: Dict[Tuple[int, int], tuple] = {}
        self._prefix_ids: Dict[int, tuple] = {}
        self._pi_masks: Dict[tuple, array] = {}
        self._c_scratch: Dict[int, tuple] = {}
        self._c_out: Optional[tuple] = None
        self._pi_hazards: Dict[tuple, bool] = {}
        self._windex: Optional[Dict[int, list]] = None
        self._forced_masks: Dict[frozenset, array] = {}
        self.section_tables = None

    def volatile_mask(self, volatile_ranges: Sequence[Tuple[int, int]]) -> bytes:
        """Per-access mask: 1 where the access falls in a volatile range
        (mixed-volatility mode).  Memoized per range tuple so the simulator
        hot loop does one indexed fetch instead of a per-access range scan.
        """
        key = tuple(volatile_ranges)
        mask = self._vol_masks.get(key)
        if mask is None:
            mask = bytes(any(lo <= w < hi for lo, hi in key)
                         for w in self.waddrs)
            self._vol_masks[key] = mask
        return mask

    def scan_arrays(self, text_lo: int, text_hi: int) -> Tuple[array, array, int]:
        """``(ops, word_ids, n_words)`` for the section-structure scan.

        ``ops[i]`` (``uint8``) folds every per-access classification the
        straight-line scan branches on into one small int (bit 0: write,
        bit 1: in the text range, bit 2: output write, bit 3: false
        write), and ``word_ids[i]`` (``int32``) maps ``waddrs[i]`` onto
        dense ids ``[0, n_words)`` so buffer membership becomes a
        flat-array generation check instead of a hash probe.  Both are
        properties of the trace (plus the text range) alone, so one build
        amortizes over every configuration a sweep replays the trace
        under.  Memoized per ``(text_lo, text_hi)``.
        """
        key = (text_lo, text_hi)
        cached = self._scan_arrays.get(key)
        if cached is None:
            ids: Dict[int, int] = {}
            intern = ids.setdefault
            wids = array("i", [intern(w, len(ids)) for w in self.waddrs])
            ops = array("B", [
                k | (text_lo <= w < text_hi) << 1 | o << 2 | f << 3
                for k, w, o, f in zip(self.kinds, self.waddrs,
                                      self.out_writes, self.false_writes)
            ])
            cached = self._scan_arrays[key] = (ops, wids, len(ids))
        return cached

    def prefix_ids(self, shift: int) -> Tuple[array, int]:
        """``(prefix_ids, n_prefixes)``: dense ``int32`` ids of
        ``waddr >> shift``.

        The Address Prefix Buffer tracks address prefixes; the scan needs
        membership over them, so they get the same dense-id treatment as
        :meth:`scan_arrays`.  Memoized per ``shift``.
        """
        cached = self._prefix_ids.get(shift)
        if cached is None:
            ids: Dict[int, int] = {}
            intern = ids.setdefault
            pids = array("i", [intern(w >> shift, len(ids))
                               for w in self.waddrs])
            cached = self._prefix_ids[shift] = (pids, len(ids))
        return cached

    def pi_write_hazard(self, pi_words, pi_indices) -> bool:
        """Whether an access-marked PI write shares a word with a tracked
        (non-PI, non-output) write — the static false-write hazard of
        :mod:`repro.sim.sections`.  A property of the trace and marking
        alone, so it is memoized here and shared by every configuration
        a sweep replays the trace under.
        """
        key = (pi_words, pi_indices)
        hazard = self._pi_hazards.get(key)
        if hazard is None:
            kinds = self.kinds
            waddrs = self.waddrs
            pi_written = {
                waddrs[j]
                for j in pi_indices
                if j < self.n and kinds[j] != READ
            } - set(pi_words or ())
            hazard = bool(pi_written) and any(
                k and not o and w in pi_written and m not in pi_indices
                for m, k, w, o in zip(range(self.n), kinds, waddrs,
                                      self.out_writes)
            )
            self._pi_hazards[key] = hazard
        return hazard

    def write_index(self) -> Dict[int, list]:
        """Ascending write indices per word address (memoized).

        Used by the fast path's watchdog-cut staleness check; built once
        per trace instead of once per
        :class:`~repro.sim.sections.SectionMap`.
        """
        windex = self._windex
        if windex is None:
            windex = {}
            waddrs = self.waddrs
            for j in compress(range(self.n), self.kinds):
                windex.setdefault(waddrs[j], []).append(j)
            self._windex = windex
        return windex

    # ----------------------------------------------------------------- #
    # C-kernel buffers (repro.core.cext).  All memoized: built once per
    # trace, shared by every configuration's ChainScanEngine.
    # ----------------------------------------------------------------- #

    def forced_mask(self, forced: frozenset) -> array:
        """Compiler-checkpoint mask (``uint8``, length ``n + 1``) of the C
        section walk: ``mask[f]`` is 1 for each ``f <= n`` in ``forced``.
        Memoized per forced set, so every map of one marking shares it."""
        mask = self._forced_masks.get(forced)
        if mask is None:
            mask = array("B", bytes(self.n + 1))
            for f in forced:
                if f <= self.n:
                    mask[f] = 1
            self._forced_masks[forced] = mask
        return mask

    def pi_mask_buffer(self, pi_words, pi_indices) -> array:
        """Per-access Program-Idempotent membership mask (``uint8``).

        ``mask[i]`` is 1 exactly when the straight-line scan's
        ``waddrs[i] in pi_words or i in pi_indices`` test passes, so the
        C kernel replaces two hash probes per access with one byte load.
        Memoized per ``(pi_words, pi_indices)`` — a trace sees at most a
        handful of distinct markings across a whole sweep.
        """
        key = (pi_words, pi_indices)
        mask = self._pi_masks.get(key)
        if mask is None:
            words = pi_words or ()
            mask = array("B", [w in words for w in self.waddrs])
            for i in pi_indices or ():
                if 0 <= i < self.n:
                    mask[i] = 1
            self._pi_masks[key] = mask
        return mask

    def c_chain_scratch(
        self, n_words: int, shift: int, n_prefixes: int
    ) -> tuple:
        """Generation-stamp scratch buffers for the C chain scan.

        ``(gen, rf, wf, wbb, apb)`` int32 arrays, shared by every engine
        on this trace with the same APB ``shift`` (``-1`` when the APB is
        off): the generation counter lives in ``gen[0]`` and persists
        across calls, so sharing is exactly as safe as the Python
        :class:`~repro.core.detector.ChainScratch` it mirrors.
        """
        cached = self._c_scratch.get(shift)
        if cached is None:
            cached = (
                array("i", [0]),
                array("i", bytes(4 * n_words)),
                array("i", bytes(4 * n_words)),
                array("i", bytes(4 * n_words)),
                array("i", bytes(4 * max(n_prefixes, 1))),
            )
            self._c_scratch[shift] = cached
        return cached

    def c_family_scratch(
        self, n_words: int, shift: int, n_prefixes: int, nk: int
    ) -> tuple:
        """Blocked membership scratch for the C family chain scan.

        ``(gen, rf, wf, wbb, apb)`` int32 arrays with ``nk`` members in
        contiguous member-major blocks (member ``c`` owns
        ``buf[c * n_words : (c + 1) * n_words]``), matching the scalar
        kernel's access locality; the family kernel's persistent
        generation counter lives in ``gen[0]`` and is written back
        after every pass, so the blocks are shared by every family
        engine on this trace with the same ``(shift, nk)`` and never
        re-zeroed.
        """
        key = ("family", shift, nk)
        cached = self._c_scratch.get(key)
        if cached is None:
            cached = (
                array("i", [0]),
                array("i", bytes(4 * n_words * nk)),
                array("i", bytes(4 * n_words * nk)),
                array("i", bytes(4 * n_words * nk)),
                array("i", bytes(4 * max(n_prefixes, 1) * nk)),
            )
            self._c_scratch[key] = cached
        return cached

    def c_chain_outputs(self) -> tuple:
        """Staging buffers the C kernel writes section records into.

        Sized for the worst-case chain: every index can contribute at
        most a boundary section plus a zero-length forced section, and
        the WBB can grow at most once per access.  Shared per trace and
        overwritten by each scan; callers copy out what they keep.
        """
        cached = self._c_out
        if cached is None:
            max_secs = 3 * self.n + 16
            cached = (
                array("i", bytes(4 * max_secs)),
                array("B", bytes(max_secs)),
                array("i", bytes(4 * max_secs)),
                array("B", bytes(max_secs)),
                array("i", bytes(4 * (max_secs + 1))),
                array("i", bytes(4 * (self.n + 1))),
                array("i", bytes(4 * (self.n + 2))),
            )
            self._c_out = cached
        return cached

#: Marker kinds emitted by the tracing memory at function boundaries.  The
#: Ratchet baseline (compiler-only idempotency, Section 2.2 / Table 3)
#: checkpoints at these static section boundaries.
CALL = "call"
RET = "ret"


@dataclass(frozen=True)
class Marker:
    """A static program-structure marker attached to a trace position.

    Attributes:
        index: Position in the access list the marker precedes.
        kind: ``"call"`` or ``"ret"``.
        label: Function name (best effort; for diagnostics).
    """

    index: int
    kind: str
    label: str


class Trace:
    """A complete memory access log plus the context needed to replay it.

    The log is the sealed columns of the :class:`AccessLog` it was
    recorded through (``kinds``, ``waddrs``, ``values``, ``cycles``,
    ``outs``; see :data:`COLUMNS`).  Nothing writes them afterwards, so
    the compiled form and every memoized derivation stay valid for the
    trace's lifetime.

    Attributes:
        name: Workload name.
        initial_image: Word values, before execution, of every word the
            program touches.  Replaying the log against this image with
            a correct intermittence scheme must end in the same final memory
            as a single continuous replay.
        memory_map: The device memory map the trace was produced under.
        markers: Function-boundary markers (used by static baselines).
        final_cycles: Total cycles of the continuous (baseline) execution.
        checksum: Self-check value the workload computed; lets tests confirm
            the kernel itself is a correct implementation of its algorithm.
        code_bytes: Modeled code + read-only data footprint in bytes
            (Table 1's Size column).
    """

    __slots__ = ("name", "initial_image", "memory_map", "markers",
                 "final_cycles", "checksum", "code_bytes", "_compiled",
                 "_digest", "_final") + tuple(n for n, _ in COLUMNS)

    def __init__(
        self,
        name: str,
        log: AccessLog,
        initial_image: Dict[int, int],
        markers: Iterable[Marker] = (),
        final_cycles: int = 0,
        checksum: int = 0,
        code_bytes: int = 0,
    ):
        self.name = name
        for col, _ in COLUMNS:
            setattr(self, col, getattr(log, col))
        self.initial_image = initial_image
        self.memory_map = log.memory_map
        self.markers = list(markers)
        self.final_cycles = final_cycles or sum(self.cycles)
        self.checksum = checksum
        self.code_bytes = code_bytes
        self._compiled: Optional[CompiledTrace] = None
        self._digest: Optional[str] = None
        self._final: Optional[Dict[int, int]] = None

    @classmethod
    def from_accesses(cls, name: str, accesses: Iterable[Access],
                      initial_image: Dict[int, int],
                      memory_map: Optional[MemoryMap] = None,
                      **kwargs) -> "Trace":
        """A trace of explicit :class:`Access` entries (tests and examples;
        producers record through an :class:`AccessLog`)."""
        log = AccessLog(memory_map or default_memory_map())
        for a in accesses:
            log.append(a.kind, a.waddr, a.value, a.cycles)
        return cls(name, log, initial_image, **kwargs)

    @property
    def accesses(self) -> AccessView:
        """The log as a read-only sequence of :class:`Access` entries,
        each built on demand."""
        return AccessView(self.kinds, self.waddrs, self.values, self.cycles)

    def compiled(self) -> CompiledTrace:
        """The replay form of this trace, built on first use."""
        if self._compiled is None:
            self._compiled = CompiledTrace(self)
        return self._compiled

    @property
    def digest(self) -> str:
        """sha256 hex over everything a replay of this trace depends on.

        Covers the name, checksum, total cycles, text and MMIO word
        ranges, markers and the sorted initial image, then the raw bytes
        of the kind, address, value and cycle columns (the output flags
        follow from those).  It keys every per-trace cache, in memory and
        in the persistent store, so two traces share an entry only when
        their contents are equal.
        """
        if self._digest is None:
            mmap = self.memory_map
            h = hashlib.sha256()
            h.update(repr((
                self.name, self.checksum, self.final_cycles,
                mmap.text_word_range, mmap.word_range("mmio"),
                [(m.index, m.kind) for m in self.markers],
                COLUMNS,
                sorted(self.initial_image.items()),
            )).encode())
            for col, _ in COLUMNS[:4]:
                h.update(getattr(self, col))
            self._digest = h.hexdigest()
        return self._digest

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def total_cycles(self) -> int:
        """Cycles of one continuous execution (the overhead baseline)."""
        return self.final_cycles

    @property
    def footprint_words(self) -> int:
        """Number of distinct words the program touches."""
        return len(set(self.waddrs))

    def _image_at(self, stop: int) -> Dict[int, int]:
        """Memory image after accesses ``[0, stop)``."""
        image = dict(self.initial_image)
        image.update(zip(compress(self.waddrs[:stop], self.kinds),
                         compress(self.values[:stop], self.kinds)))
        return image

    def final_memory(self) -> Dict[int, int]:
        """Memory image after one continuous execution (the oracle): a
        copy of an image built once per trace, since every verified run
        compares against it."""
        if self._final is None:
            self._final = self._image_at(len(self))
        return dict(self._final)

    def validate(self) -> None:
        """Check internal consistency: reads observe the value produced by
        the most recent write (or the initial image).  Raises
        :class:`TraceError` on the first inconsistency.

        A trace that fails validation cannot come from a deterministic
        single-threaded execution and would poison every experiment built on
        it, so workload tests validate every generated trace.
        """
        image = dict(self.initial_image)
        for i, k, w, v, c in zip(range(len(self)), self.kinds, self.waddrs,
                                 self.values, self.cycles):
            if c <= 0:
                raise TraceError(f"{self.name}: access {i} has cycles <= 0")
            if k == READ:
                expect = image.get(w)
                if expect is None:
                    raise TraceError(
                        f"{self.name}: access {i} reads word {w:#x} "
                        f"absent from the initial image"
                    )
                if expect != v:
                    raise TraceError(
                        f"{self.name}: access {i} read {v:#x} from "
                        f"word {w:#x} but memory holds {expect:#x}"
                    )
            elif k == WRITE:
                image[w] = v
            else:
                raise TraceError(f"{self.name}: access {i} has bad kind")

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace covering accesses ``[start, stop)``.

        The initial image is advanced to position ``start`` so the slice is
        replayable on its own.  Markers are re-indexed; those outside the
        window are dropped.
        """
        if not (0 <= start <= stop <= len(self)):
            raise TraceError(f"bad slice [{start}:{stop}] of {len(self)}")
        markers = [
            Marker(m.index - start, m.kind, m.label)
            for m in self.markers
            if start <= m.index < stop
        ]
        log = AccessLog(self.memory_map, [
            getattr(self, col)[start:stop] for col, _ in COLUMNS
        ])
        return Trace(
            name=f"{self.name}[{start}:{stop}]",
            log=log,
            initial_image=self._image_at(start),
            markers=markers,
            checksum=self.checksum,
            code_bytes=self.code_bytes,
        )

    def counts(self) -> Tuple[int, int]:
        """(number of reads, number of writes)."""
        writes = self.kinds.count(WRITE)
        return len(self) - writes, writes
