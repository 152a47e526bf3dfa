"""The memory-access log of one program execution."""

from array import array
from itertools import accumulate
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import repro.cache as artifact_cache
from repro.common.errors import TraceError
from repro.mem.map import MemoryMap, default_memory_map
from repro.trace.access import Access, READ, WRITE


class CompiledTrace:
    """A :class:`Trace` flattened into parallel tuples for hot-loop replay.

    The policy simulator replays a trace hundreds of times per sweep; per-
    :class:`~repro.trace.access.Access` attribute lookups dominate its inner
    loop.  The compiled form stores one immutable tuple per attribute so the
    loop does a single indexed fetch instead, plus precomputed per-access
    classifications that are properties of the trace alone:

    Attributes:
        n: Number of accesses.
        kinds: ``accesses[i].kind`` (``READ``/``WRITE``).
        waddrs: ``accesses[i].waddr``.
        values: ``accesses[i].value``.
        cycles: ``accesses[i].cycles``.
        out_writes: True where access ``i`` is a write into the MMIO/output
            region (the output-commit rule of Section 3.3) — the only
            memory-map test the simulator's hot loop needs per access.
        text_range: The memory map's text-segment word range (the
            ignore-TEXT bounds of every detector and chain scan).
        cum_cycles: Cycle prefix sums, length ``n + 1``: ``cum_cycles[k]``
            is the total cycles of accesses ``[0, k)``.  Strictly
            increasing (every access costs >= 1 cycle), so the
            section-memoized fast path can place power failures and
            watchdog firings inside any contiguous access span with one
            ``bisect`` instead of an access-by-access walk.
        false_writes: True where access ``i`` is a *false write* — a write
            whose value equals what the program already observes at that
            word (the last write before ``i``, else the initial image,
            else 0).  This is exactly the ``new_value == cur_value``
            comparison the ignore-false-writes optimization performs at
            run time; replay is value-deterministic, so it is a trace
            property and can be evaluated once.
        section_tables: The distinct flat canonical-chain tables of every
            :class:`~repro.sim.sections.SectionMap` over this trace, which
            maps with equal tables share (``None`` until the first family
            pass or disk load creates it).  It lives here, like the
            forced-checkpoint masks, so it is freed with the trace.

    The compiled form is a pure view: replaying it is bit-identical to
    replaying ``accesses`` (the dynamic verifier and the event stream see
    exactly the same values in the same order).
    """

    __slots__ = (
        "n", "kinds", "waddrs", "values", "cycles", "out_writes",
        "cum_cycles", "false_writes", "content_key", "_first", "_last",
        "_vol_masks", "_scan_arrays", "_prefix_ids", "_scan_bufs",
        "_prefix_bufs", "_pi_masks", "_c_scratch", "_c_out",
        "_pi_hazards", "_windex", "_cycle_bufs", "_forced_masks",
        "text_range", "section_tables",
    )

    def __init__(self, trace: "Trace"):
        accesses = trace.accesses
        self.n = len(accesses)
        self.kinds = tuple(a.kind for a in accesses)
        self.waddrs = tuple(a.waddr for a in accesses)
        self.values = tuple(a.value for a in accesses)
        self.cycles = tuple(a.cycles for a in accesses)
        mmio_lo, mmio_hi = trace.memory_map.word_range("mmio")
        self.text_range = trace.memory_map.text_word_range
        self.out_writes = tuple(
            a.kind != READ and mmio_lo <= a.waddr < mmio_hi for a in accesses
        )
        self.cum_cycles = tuple(accumulate(self.cycles, initial=0))
        view = dict(trace.initial_image)
        view_get = view.get
        false_writes = []
        for a in accesses:
            if a.kind == READ:
                false_writes.append(False)
            else:
                false_writes.append(view_get(a.waddr, 0) == a.value)
                view[a.waddr] = a.value
        self.false_writes = tuple(false_writes)
        #: Content fingerprint addressing this trace in the persistent
        #: artifact store (:mod:`repro.cache`).  Tuple hashes over int
        #: sequences are process-stable (PYTHONHASHSEED only perturbs str
        #: and bytes), and the access-stream hashes distinguish traces
        #: that share a name/length/cycle count but differ in content —
        #: a collision the cheap in-memory keys never face within one
        #: process but a shared on-disk store must rule out.
        self.content_key = (
            trace.name, self.n, trace.final_cycles, trace.checksum,
            hash(self.kinds), hash(self.waddrs), hash(self.values),
            hash(self.cycles),
            hash(tuple(sorted(trace.initial_image.items()))),
        )
        # Staleness sentinels: identity of the boundary Access objects lets
        # Trace.compiled() catch same-length edge mutations for free.
        self._first = accesses[0] if accesses else None
        self._last = accesses[-1] if accesses else None
        self._vol_masks: Dict[Tuple[Tuple[int, int], ...], Tuple[bool, ...]] = {}
        self._scan_arrays: Dict[Tuple[int, int], tuple] = {}
        self._prefix_ids: Dict[int, tuple] = {}
        self._scan_bufs: Dict[Tuple[int, int], tuple] = {}
        self._prefix_bufs: Dict[int, tuple] = {}
        self._pi_masks: Dict[tuple, array] = {}
        self._c_scratch: Dict[int, tuple] = {}
        self._c_out: Optional[tuple] = None
        self._pi_hazards: Dict[tuple, bool] = {}
        self._windex: Optional[Dict[int, list]] = None
        self._cycle_bufs: Optional[Tuple[array, array]] = None
        self._forced_masks: Dict[frozenset, array] = {}
        self.section_tables = None

    def volatile_mask(
        self, volatile_ranges: Sequence[Tuple[int, int]]
    ) -> Tuple[bool, ...]:
        """Per-access mask: True where the access falls in a volatile range
        (mixed-volatility mode).  Memoized per range tuple so the simulator
        hot loop does one indexed fetch instead of a per-access range scan.
        """
        key = tuple(volatile_ranges)
        mask = self._vol_masks.get(key)
        if mask is None:
            mask = tuple(
                any(lo <= w < hi for lo, hi in key) for w in self.waddrs
            )
            self._vol_masks[key] = mask
        return mask

    def scan_arrays(
        self, text_lo: int, text_hi: int
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
        """``(ops, word_ids, n_words)`` for the section-structure scan.

        ``ops[i]`` folds every per-access classification the straight-line
        scan branches on into one small int (bit 0: write, bit 1: in the
        text range, bit 2: output write, bit 3: false write), and
        ``word_ids[i]`` maps ``waddrs[i]`` onto dense ids ``[0, n_words)``
        so buffer membership becomes a flat-array generation check instead
        of a hash probe.  Both are properties of the trace (plus the text
        range) alone, so one build amortizes over every configuration a
        sweep replays the trace under.  Memoized per ``(text_lo, text_hi)``.
        """
        key = (text_lo, text_hi)
        cached = self._scan_arrays.get(key)
        if cached is None:
            st = artifact_cache.store()
            dkey = None
            if st is not None:
                dkey = artifact_cache.content_key(
                    "scan_arrays", self.content_key, key
                )
                loaded = st.get("compiled", dkey)
                if (
                    isinstance(loaded, tuple) and len(loaded) == 3
                    and len(loaded[0]) == self.n
                ):
                    cached = loaded
            if cached is None:
                ids: Dict[int, int] = {}
                wids = []
                ops = []
                for i in range(self.n):
                    w = self.waddrs[i]
                    vid = ids.get(w)
                    if vid is None:
                        vid = len(ids)
                        ids[w] = vid
                    wids.append(vid)
                    op = 0 if self.kinds[i] == READ else 1
                    if text_lo <= w < text_hi:
                        op |= 2
                    if self.out_writes[i]:
                        op |= 4
                    if self.false_writes[i]:
                        op |= 8
                    ops.append(op)
                cached = (tuple(ops), tuple(wids), len(ids))
                if dkey is not None:
                    st.put("compiled", dkey, cached)
            self._scan_arrays[key] = cached
        return cached

    def prefix_ids(self, shift: int) -> Tuple[Tuple[int, ...], int]:
        """``(prefix_ids, n_prefixes)``: dense ids of ``waddr >> shift``.

        The Address Prefix Buffer tracks address prefixes; the scan needs
        membership over them, so they get the same dense-id treatment as
        :meth:`scan_arrays`.  Memoized per ``shift``.
        """
        cached = self._prefix_ids.get(shift)
        if cached is None:
            st = artifact_cache.store()
            dkey = None
            if st is not None:
                dkey = artifact_cache.content_key(
                    "prefix_ids", self.content_key, shift
                )
                loaded = st.get("compiled", dkey)
                if (
                    isinstance(loaded, tuple) and len(loaded) == 2
                    and len(loaded[0]) == self.n
                ):
                    cached = loaded
            if cached is None:
                ids: Dict[int, int] = {}
                pids = []
                for w in self.waddrs:
                    p = w >> shift
                    pid = ids.get(p)
                    if pid is None:
                        pid = len(ids)
                        ids[p] = pid
                    pids.append(pid)
                cached = (tuple(pids), len(ids))
                if dkey is not None:
                    st.put("compiled", dkey, cached)
            self._prefix_ids[shift] = cached
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
            hazard = False
            kinds = self.kinds
            waddrs = self.waddrs
            out_writes = self.out_writes
            pi_written = {
                waddrs[j]
                for j in pi_indices
                if j < self.n and kinds[j] != READ
            } - set(pi_words or ())
            if pi_written:
                for m in range(self.n):
                    if (
                        kinds[m] != READ
                        and waddrs[m] in pi_written
                        and m not in pi_indices
                        and not out_writes[m]
                    ):
                        hazard = True
                        break
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
            kinds = self.kinds
            waddrs = self.waddrs
            for j in range(self.n):
                if kinds[j] != READ:
                    windex.setdefault(waddrs[j], []).append(j)
            self._windex = windex
        return windex

    # ----------------------------------------------------------------- #
    # C-kernel buffer forms (repro.core.cext).  All memoized: built once
    # per trace, shared by every configuration's ChainScanEngine.
    # ----------------------------------------------------------------- #

    def scan_buffers(
        self, text_lo: int, text_hi: int
    ) -> Tuple[array, array, int]:
        """:meth:`scan_arrays` as C-addressable ``array`` buffers."""
        key = (text_lo, text_hi)
        cached = self._scan_bufs.get(key)
        if cached is None:
            ops, wids, n_words = self.scan_arrays(text_lo, text_hi)
            cached = (array("B", ops), array("i", wids), n_words)
            self._scan_bufs[key] = cached
        return cached

    def cycle_buffers(self) -> Tuple[array, array]:
        """``(cum_cycles, cycles)`` as ``int64`` buffers (the C section
        walk and watchdog-cut chain scans)."""
        if self._cycle_bufs is None:
            self._cycle_bufs = (array("q", self.cum_cycles),
                                array("q", self.cycles))
        return self._cycle_bufs

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

    def prefix_buffers(self, shift: int) -> Tuple[array, int]:
        """:meth:`prefix_ids` as a C-addressable ``array`` buffer."""
        cached = self._prefix_bufs.get(shift)
        if cached is None:
            pids, n_prefixes = self.prefix_ids(shift)
            cached = (array("i", pids), n_prefixes)
            self._prefix_bufs[shift] = cached
        return cached

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
            mask = array("B", bytes(self.n))
            if pi_words:
                waddrs = self.waddrs
                for i in range(self.n):
                    if waddrs[i] in pi_words:
                        mask[i] = 1
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


@dataclass
class Trace:
    """A complete memory access log plus the context needed to replay it.

    Attributes:
        name: Workload name.
        accesses: The ordered access log.
        initial_image: Word values, before execution, of every word the
            program touches.  Replaying ``accesses`` against this image with
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

    name: str
    accesses: List[Access]
    initial_image: Dict[int, int]
    memory_map: MemoryMap = field(default_factory=default_memory_map)
    markers: List[Marker] = field(default_factory=list)
    final_cycles: int = 0
    checksum: int = 0
    code_bytes: int = 0
    _compiled: Optional[CompiledTrace] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.final_cycles == 0:
            self.final_cycles = sum(a.cycles for a in self.accesses)

    def compiled(self) -> CompiledTrace:
        """The lazily-built array form of this trace (cached).

        The access list must not be mutated after the first call; all trace
        producers in this repository build the list once and never touch it
        again.  Code that does mutate ``accesses`` afterwards must call
        :meth:`invalidate`.  As a safety net the cache also checks length
        and boundary-element identity, which catches appends, pops, and
        element replacement at either end — but not interior same-length
        edits, hence the explicit ``invalidate()``.
        """
        cached = self._compiled
        accesses = self.accesses
        if (
            cached is None
            or cached.n != len(accesses)
            or (cached.n > 0 and (
                cached._first is not accesses[0]
                or cached._last is not accesses[-1]
            ))
        ):
            self._compiled = CompiledTrace(self)
        return self._compiled

    def invalidate(self) -> None:
        """Drop the cached compiled form after mutating ``accesses`` (or
        ``initial_image``/``memory_map``).  The next :meth:`compiled` call
        rebuilds from current contents."""
        self._compiled = None

    def __len__(self) -> int:
        return len(self.accesses)

    @property
    def total_cycles(self) -> int:
        """Cycles of one continuous execution (the overhead baseline)."""
        return self.final_cycles

    @property
    def footprint_words(self) -> int:
        """Number of distinct words the program touches."""
        return len({a.waddr for a in self.accesses})

    def final_memory(self) -> Dict[int, int]:
        """Memory image after one continuous execution (the oracle)."""
        image = dict(self.initial_image)
        for acc in self.accesses:
            if acc.kind == WRITE:
                image[acc.waddr] = acc.value
        return image

    def validate(self) -> None:
        """Check internal consistency: reads observe the value produced by
        the most recent write (or the initial image).  Raises
        :class:`TraceError` on the first inconsistency.

        A trace that fails validation cannot come from a deterministic
        single-threaded execution and would poison every experiment built on
        it, so workload tests validate every generated trace.
        """
        image = dict(self.initial_image)
        for i, acc in enumerate(self.accesses):
            if acc.cycles <= 0:
                raise TraceError(f"{self.name}: access {i} has cycles <= 0")
            if acc.kind == READ:
                expect = image.get(acc.waddr)
                if expect is None:
                    raise TraceError(
                        f"{self.name}: access {i} reads word {acc.waddr:#x} "
                        f"absent from the initial image"
                    )
                if expect != acc.value:
                    raise TraceError(
                        f"{self.name}: access {i} read {acc.value:#x} from "
                        f"word {acc.waddr:#x} but memory holds {expect:#x}"
                    )
            elif acc.kind == WRITE:
                image[acc.waddr] = acc.value
            else:
                raise TraceError(f"{self.name}: access {i} has bad kind")

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace covering ``accesses[start:stop]``.

        The initial image is advanced to position ``start`` so the slice is
        replayable on its own.  Markers are re-indexed; those outside the
        window are dropped.
        """
        if not (0 <= start <= stop <= len(self.accesses)):
            raise TraceError(f"bad slice [{start}:{stop}] of {len(self)}")
        image = dict(self.initial_image)
        for acc in self.accesses[:start]:
            if acc.kind == WRITE:
                image[acc.waddr] = acc.value
        markers = [
            Marker(m.index - start, m.kind, m.label)
            for m in self.markers
            if start <= m.index < stop
        ]
        return Trace(
            name=f"{self.name}[{start}:{stop}]",
            accesses=self.accesses[start:stop],
            initial_image=image,
            memory_map=self.memory_map,
            markers=markers,
            checksum=self.checksum,
            code_bytes=self.code_bytes,
        )

    def counts(self) -> Tuple[int, int]:
        """(number of reads, number of writes)."""
        reads = sum(1 for a in self.accesses if a.kind == READ)
        return reads, len(self.accesses) - reads
