"""Memoized idempotent-section structure of a (trace, config) pair.

Clank decomposes every execution into restartable idempotent sections.
From a committed checkpoint the tracking buffers are empty, so the next
section boundary — and everything the simulator needs to account a
checkpoint there — is a pure function of the trace, the hardware
configuration, and the compiler marking.  The power schedule only decides
*where inside a section* power fails and how much re-executes.

A :class:`SectionMap` caches that schedule-independent structure: for each
section start (and variant, below) it runs the
:class:`~repro.core.detector.IdempotencyDetector` straight-line once and
records ``(end, cause, kind, wbb_steps)``:

* ``end`` — index of the boundary access (``n`` for the final checkpoint);
  the section executes exactly the accesses ``[start, end)``.
* ``cause`` — checkpoint cause charged at the boundary.
* ``kind`` — how the boundary behaves under power failure (see constants).
* ``wbb_steps`` — ascending trace indices where the Write-back Buffer
  grew (a tuple, or an ``array('i')`` when the C kernel enumerated it);
  ``bisect`` against a cut point yields the flush size of any
  checkpoint inside the section, keeping the map cost-model independent.

Section *variants* capture the three ways a start can be entered:

* ``VARIANT_NORMAL`` — fresh buffers, compiler-inserted checkpoints fire.
* ``VARIANT_FORCED_DONE`` — the compiler checkpoint at ``start`` already
  committed (the simulator's ``forced_done`` latch), so it must not fire
  again until a rollback clears the latch.
* ``VARIANT_DIRECT`` — entered right after a ``text_write`` checkpoint:
  the first access is the text write itself, which commits directly
  without consulting the detector (re-issuing it would checkpoint
  forever), so scanning starts one access later.

The map is exact except for one corner: the ignore-false-writes
optimization compares a write's value against the *current run-time view*
of memory, which the enumeration precomputes from the continuous oracle
(``CompiledTrace.false_writes``).  The two can diverge only when
non-volatile memory holds a write the current position has not reached —
i.e. after a rollback past a direct-committed write.  Two cases exist:

* a Program-Idempotent *access-marked* write (epoch-scoped marking) can be
  rolled over freely — detected statically here (:attr:`SectionMap.pi_hazard`)
  and the fast path refuses such jobs up front;
* a Progress-Watchdog checkpoint can commit *inside* a span that an
  earlier (checkpoint-free) power cycle executed further into, leaving
  stale directly-committed words ahead of the new start whose next
  false-write comparison can then disagree with the oracle — checked
  exactly at run time by the walker via :meth:`SectionMap.watchdog_cut_safe`
  whenever a watchdog commit lands below the furthest-executed index while
  ``ignore_false_writes`` is on; only a genuinely divergent cut bails out
  to the reference simulator.  See :mod:`repro.sim.fast`.
"""

import os
from array import array
from bisect import bisect_left
from collections import OrderedDict
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core import cext as _cext
from repro.core.cext import CAUSE_NAMES as _CAUSE_NAMES
from repro.core.config import ClankConfig
from repro.core.detector import (
    IdempotencyDetector,
    chain_scan_engine,
    kernel_params,
)
from repro.obs.metrics import COUNTERS
from repro.trace.trace import Trace

#: Boundary kinds — they differ in how power failure interacts with the
#: boundary access (see the walker in :mod:`repro.sim.fast`).
SEC_DETECTOR = 0  #: detector-demanded checkpoint; boundary access retries
SEC_TEXT = 1      #: text write: checkpoint, then the write commits directly
SEC_FORCED = 2    #: compiler-inserted checkpoint call (epoch boundary)
SEC_OUTPUT = 3    #: output write: pre-checkpoint (the GO phase follows)
SEC_FINAL = 4     #: end of trace

_KIND_BY_CAUSE = {
    "compiler": SEC_FORCED,
    "output": SEC_OUTPUT,
    "text_write": SEC_TEXT,
    "final": SEC_FINAL,
}

#: (cause name, kind) indexed by the C kernel's cause id — turns the
#: ingest copy loop's two dict lookups into one list index.
_NAME_KIND_BY_ID = [
    (name, _KIND_BY_CAUSE.get(name, SEC_DETECTOR)) for name in _CAUSE_NAMES
]

#: Section-entry variants.
VARIANT_NORMAL = 0
VARIANT_FORCED_DONE = 1
VARIANT_DIRECT = 2

#: A memoized section: (end, cause, kind, wbb_steps).
Section = Tuple[int, str, int, Sequence[int]]

#: The empty marking/forced set every unmarked map and key shares.
_EMPTY: FrozenSet[int] = frozenset()


class SectionMap:
    """Lazily-enumerated section structure of one (trace, config,
    pi_words, pi_access_indices, forced_checkpoints) tuple.

    Sections are enumerated on demand (power schedules visit only the
    starts they actually commit at) and memoized forever: the map object
    itself is cached per key by :func:`get_section_map`, so every schedule
    swept over the same structure reuses the same enumerations.

    A map holds only what is its own: the off-chain overlay and C walk
    table once a C walk needs them (:mod:`repro.sim.fast`) and memo
    dicts.  Its flat canonical-chain tables are shared by every map over
    the trace with equal tables (:class:`_Tables`).  Whatever depends
    only on the trace (scan buffers, cycle sums, the forced-checkpoint
    mask, the shared tables) lives on the compiled trace, and whatever
    depends only on the configuration (the kernels' capacity and flag
    ints) is derived from it on demand; an :class:`IdempotencyDetector`
    is built only for the pure-Python scans.  Nothing a map holds refers
    back to it, so an evicted map is freed by reference counting.
    """

    __slots__ = (
        "ct", "config", "n", "pi_words", "pi_indices", "forced",
        "_forced_sorted", "_sections", "pi_hazard", "_detector",
        "_scratch", "_dw_cache", "_dw_groups", "_arch_cache", "_engine",
        "_flat", "_ov", "_tab", "walk_draws", "__weakref__",
    )

    def __init__(
        self,
        trace: Trace,
        config: ClankConfig,
        pi_words: Optional[FrozenSet[int]] = None,
        pi_access_indices: Optional[FrozenSet[int]] = None,
        forced_checkpoints: Optional[FrozenSet[int]] = None,
    ):
        ct = trace.compiled()
        self.ct = ct
        self.config = config
        self.n = ct.n
        self.pi_words = pi_words or _EMPTY
        self.pi_indices = pi_access_indices or _EMPTY
        forced = forced_checkpoints or _EMPTY
        self.forced = forced
        # A compiler checkpoint at index n never fires: the final
        # checkpoint precedes the forced check in the replay loop.
        self._forced_sorted = tuple(sorted(f for f in forced if f < ct.n))
        self._detector = None  # pure-Python scans only (_python_scan)
        self._scratch = None
        #: Memoized sections, keyed ``(start << 2) | variant`` — one int
        #: probe in the fast path's hot loop instead of a tuple hash.
        self._sections: Dict[int, Section] = {}
        self._dw_cache: Dict[Tuple[int, int], array] = {}
        self._dw_groups: Dict[Tuple[int, int], Dict[int, array]] = {}
        self._arch_cache: Dict[int, tuple] = {}
        self._engine = None  # C ChainScanEngine, built on first scan
        opts = config.optimizations
        #: Static false-write hazard: an access-marked PI write commits to
        #: non-volatile memory mid-section and is not undone by rollback,
        #: so a later re-execution of an *earlier* tracked write to the
        #: same word could compare against the stale value instead of the
        #: oracle view.  Conservative: any word with both an access-marked
        #: PI write and a tracked write trips it.  A property of the trace
        #: and marking alone, so it is memoized on the compiled trace and
        #: shared by every configuration of a sweep.
        self.pi_hazard = (
            opts.ignore_false_writes
            and bool(self.pi_indices)
            and ct.pi_write_hazard(self.pi_words, self.pi_indices)
        )
        #: Flat canonical-chain storage installed by a family scan:
        #: ``(keys, ends, cause_ids, steps_off, steps)`` parallel arrays
        #: sorted by key, read-only and shared with every map over the
        #: trace that has equal tables (:class:`_Tables`).  The C section
        #: walk reads them in place; ``section()`` serves them per key
        #: into the dict memo.
        self._flat = None
        #: The C section walk's state (:mod:`repro.sim.fast`): the
        #: overlay of off-chain sections (built on the first off-chain
        #: resolve), the walk's table (built on the first C-walked run),
        #: and the on-time count the last run consumed.
        self._ov = None
        self._tab = None
        self.walk_draws = 1

    def section(self, start: int, variant: int) -> Section:
        """The memoized section beginning at ``start`` under ``variant``.

        Served from the dict memo, else from the flat canonical chain
        (per key), else enumerated: the failure-free chain from this
        entry is scanned into the memo up to where it rejoins sections
        already held.
        """
        key = (start << 2) | variant
        sec = self._sections.get(key)
        if sec is None:
            if self._flat is not None:
                sec = self._flat_get(key)
                if sec is not None:
                    return sec
            t0 = perf_counter()
            self._ingest_chain(start, variant)
            _ENUM_SECONDS.inc(perf_counter() - t0)
            sec = self._sections[key]
        return sec

    def _flat_has(self, key: int) -> bool:
        """Whether the flat canonical-chain storage covers ``key``."""
        flat = self._flat
        if flat is None:
            return False
        keys = flat[0]
        j = bisect_left(keys, key)
        return j < len(keys) and keys[j] == key

    def _flat_get(self, key: int) -> Optional[Section]:
        """Serve ``key`` from flat storage, materializing into the dict
        memo."""
        keys, ends, causes, soff, sval = self._flat
        j = bisect_left(keys, key)
        if j >= len(keys) or keys[j] != key:
            return None
        cause, kind = _NAME_KIND_BY_ID[causes[j]]
        a, b = soff[j], soff[j + 1]
        sec = (ends[j], cause, kind, sval[a:b] if b > a else ())
        self._sections[key] = sec
        return sec

    def ensure_flat(self) -> None:
        """Give the map flat canonical-chain storage if it has none.

        The C section walk reads only flat tables, so a map enumerated
        lazily outside any sweep plan gets its canonical chain from a
        one-member family pass (the C kernel must be loaded).
        """
        if self._flat is None:
            _family_scan_chunk(self.config.prefix_low_bits, [self])

    def _chain_engine(self):
        """The map's C chain-scan engine, or ``None`` without a kernel.

        Only a built engine is memoized: a map first scanned with the
        kernel gated off gets its engine once the kernel loads.
        """
        eng = self._engine
        if eng is None:
            eng = self._engine = chain_scan_engine(
                self.config, self.ct, self._forced_sorted, self.pi_words,
                self.pi_indices,
            )
        return eng

    def _python_scan(self):
        """``(detector, scratch)`` for the pure-Python scans — no kernel,
        :meth:`arch_stats`, or direct writes without the kernel — built
        on first use."""
        det = self._detector
        if det is None:
            det = self._detector = IdempotencyDetector(
                self.config, self.ct.text_range
            )
            self._scratch = det.chain_scratch(self.ct)
        return det, self._scratch

    def scan_chain(self, start: int, variant: int, perf_load: int = 0):
        """The failure-free chain from ``(start, variant)``, unmemoized.

        ``[(key, end, cause_id, wbb_steps), ...]`` up to where the chain
        rejoins the flat canonical chain (``ChainScanEngine.scan``; with
        ``perf_load`` > 0 a section is left open at the access that
        fires the Performance Watchdog, and the chain goes on from that
        cut).  The C kernel must be loaded.
        """
        eng = self._chain_engine()
        nsec = eng.scan(
            start,
            1 if variant == VARIANT_DIRECT else 0,
            start if variant == VARIANT_FORCED_DONE else -1,
            self._flat[0] if self._flat is not None else None,
            perf_load,
        )
        so, sf = eng.out_steps_off, eng.out_steps
        return [
            ((s << 2) | v, end, cid, sf[a:b] if b > a else ())
            for s, v, end, cid, a, b in zip(
                eng.out_start[:nsec].tolist(),
                eng.out_variant[:nsec].tolist(),
                eng.out_end[:nsec].tolist(),
                eng.out_cause[:nsec].tolist(),
                so[:nsec].tolist(),
                so[1:nsec + 1].tolist(),
            )
        ]

    def _ingest_chain(self, start: int, variant: int) -> None:
        """Enumerate the failure-free section chain from ``(start, variant)``.

        One scan enumerates every section from ``start`` to the final
        checkpoint, amortizing per-section overhead across the whole
        chain.  Consumption stops at the first already-held entry: the
        boundary sequence from any shared ``(start, variant)`` onward is
        identical, so the rest of the chain is guaranteed present (every
        stored entry's successor was either stored by the same chain or
        was the stop reason of the chain that stored it).  The C kernel
        (:meth:`scan_chain`) runs the scan when loaded; otherwise the
        pure-Python generator, the reference implementation, does.
        """
        secs = self._sections
        if self._chain_engine() is not None:
            chain = [
                (key, end) + _NAME_KIND_BY_ID[cid] + (steps,)
                for key, end, cid, steps in self.scan_chain(start, variant)
            ]
        else:
            det, scratch = self._python_scan()
            chain = (
                ((s << 2) | v, end, cause,
                 _KIND_BY_CAUSE.get(cause, SEC_DETECTOR), steps)
                for s, v, end, cause, steps, _ in det.straightline_chain(
                    self.ct,
                    start,
                    variant == VARIANT_DIRECT,
                    start if variant == VARIANT_FORCED_DONE else -1,
                    self._forced_sorted,
                    self.pi_words,
                    self.pi_indices,
                    scratch,
                )
            )
        for key, end, cause, kind, steps in chain:
            if key in secs or self._flat_has(key):
                break
            secs[key] = (end, cause, kind, steps)

    def _direct_writes(self, start: int, variant: int) -> array:
        """The section's direct-commit write indices (memoized, ascending
        ``array('i')``).

        Re-runs the straight-line scan of just this section with
        ``collect_dw`` on.  Only :meth:`watchdog_cut_safe` needs these,
        and only for the rare sections a watchdog checkpoint cuts below
        the furthest-executed index, so deriving them lazily keeps the
        bulk enumeration free of per-write bookkeeping.
        """
        key = (start, variant)
        dw = self._dw_cache.get(key)
        if dw is None:
            eng = self._chain_engine()
            direct = variant == VARIANT_DIRECT
            fd = start if variant == VARIANT_FORCED_DONE else -1
            if eng is not None:
                dw = eng.scan_first_dw(start, 1 if direct else 0, fd)
            else:
                det, scratch = self._python_scan()
                chain = det.straightline_chain(
                    self.ct,
                    start,
                    direct,
                    fd,
                    self._forced_sorted,
                    self.pi_words,
                    self.pi_indices,
                    scratch,
                    collect_dw=True,
                )
                dw = array("i", next(chain)[5])
                chain.close()
            self._dw_cache[key] = dw
        return dw

    def arch_stats(
        self, start: int, variant: int
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], int]:
        """The section's buffer growth steps and RF peak (memoized).

        ``(rf_steps, wf_steps, apb_steps, rf_peak)`` from
        :meth:`~repro.core.detector.IdempotencyDetector.section_arch_scan`
        — schedule-independent, like the ``wbb_steps`` already stored on
        the section record, so every schedule that commits this section
        shares one scan.  Only the introspection layer
        (:mod:`repro.obs.analyze`) asks for these, and only when enabled;
        the hot enumeration and replay paths never touch them.
        """
        key = (start << 2) | variant
        stats = self._arch_cache.get(key)
        if stats is None:
            det, scratch = self._python_scan()
            stats = det.section_arch_scan(
                self.ct,
                start,
                variant,
                self._forced_sorted,
                self.pi_words,
                self.pi_indices,
                scratch,
            )
            self._arch_cache[key] = stats
        return stats

    def watchdog_cut_safe(
        self, start: int, variant: int, p: int, f: int, reaches
    ) -> bool:
        """Whether the section walk stays exact after a watchdog cut at ``p``.

        A watchdog checkpoint that commits at ``p`` below the
        furthest-executed index ``f`` leaves the write-first-path commits
        of earlier, further-reaching power cycles at ``[p, f)`` ahead of
        the new position: non-volatile memory holds their (future) values,
        while the enumeration's ignore-false-writes comparisons used the
        continuous oracle view.  Given the walker's record of those failed
        cycles — ``reaches``, the time-ordered ``(reach, section_start)``
        of every power loss that got past its cycle's committed start —
        the stale value of each word is known exactly, and the cut is safe
        iff the word's next classification agrees with the oracle:

        * staleness needs a direct-commit write of the word at an index in
          ``[p, f)`` (``_direct_writes``); everything below ``p`` is
          re-executed and re-committed, in trace order, by the cycle
          committing this very checkpoint, so a word the section writes
          anywhere in ``[start, p)`` is back in sync the moment the
          checkpoint lands (a false-write pass leaves the identical value
          by definition);
        * otherwise the word's stale value comes from the *latest* cycle
          that reached past its first stale write ``d0``: within one
          section every attempt replays the same prefix, so a later cycle
          re-commits everything an earlier one did below its own reach,
          and the survivor is ``values[last direct write < r]`` for the
          most recent ``r > d0``;
        * a surviving reach from an *earlier* section (its tag differs
          from ``start``) is ignored: a reach can outlive a commit only
          when that commit was itself a below-furthest watchdog cut —
          every other commit lands at or above every reach — so the cut
          that created it already verified, with that section's own
          direct-write list, that each of its stale words' first future
          consult agrees with the oracle; a word this section's failed
          cycles also wrote is re-committed by them later in time and is
          judged against their (current-classification) value below;
        * reads never consult the stored value, output writes touch no
          program word, and an access-marked PI write re-commits directly,
          so the first consult that can diverge is the word's first
          ordinary write ``q`` at or above ``p``.  There the runtime
          false-write comparison sees the stale value; the cut is unsafe
          iff ``(values[q] == stale) != false_writes[q]``.  Whatever
          happens at a matching ``q`` (direct commit, WBB capture, or a
          false pass — whose stale value then equals ``values[q]``), the
          program's view of the word is ``values[q]`` afterwards — back in
          sync, so later consults cannot diverge.

        Intra-section rollback *without* a commit always re-executes from
        the same start with the same values, so this cut is the only place
        the stale-view question arises (``repro.sim.fast`` calls this
        under ``ignore_false_writes`` only; without that optimization no
        classification ever reads a stored value).

        Args:
            start: The current section's start index.
            variant: Its entry variant (``VARIANT_*``).
            p: The watchdog checkpoint's cut index (the new section start).
            f: The furthest-executed index (``> p``).
            reaches: Time-ordered ``(reach, section_start)`` pairs of the
                failed power cycles whose effects may still be live.

        Returns:
            True when every stale word re-classifies identically; False
            when the walker must hand the run to the reference simulator.
        """
        dw_idx = self._direct_writes(start, variant)
        lo = bisect_left(dw_idx, p)
        hi = bisect_left(dw_idx, f)
        if lo >= hi:
            return True
        rs = [r for r, tag in reaches if r > p and tag == start]
        if not rs:
            return True
        ct = self.ct
        values = ct.values
        waddrs = ct.waddrs
        false_writes = ct.false_writes
        out_writes = ct.out_writes
        windex = ct.write_index()
        gkey = (start, variant)
        groups = self._dw_groups.get(gkey)
        if groups is None:
            groups = {}
            for j in dw_idx:
                groups.setdefault(waddrs[j], array("i")).append(j)
            self._dw_groups[gkey] = groups
        pi_idx = self.pi_indices
        seen = set()
        for k in range(lo, hi):
            d0 = dw_idx[k]
            v = waddrs[d0]
            if v in seen:
                continue
            seen.add(v)
            r = 0
            for rr in reversed(rs):
                if rr > d0:
                    r = rr
                    break
            if not r:
                continue  # no failed cycle executed the word's stale write
            wlist = windex[v]
            qi = bisect_left(wlist, p)
            if qi > 0 and wlist[qi - 1] >= start:
                continue  # re-committed below p by the committing cycle
            nw = len(wlist)
            while qi < nw and out_writes[wlist[qi]]:
                qi += 1
            if qi == nw:
                continue  # the stale value is never consulted again
            q = wlist[qi]
            if q in pi_idx:
                continue  # PI write: value-independent, re-commits directly
            dwv = groups[v]
            stale = values[dwv[bisect_left(dwv, r) - 1]]
            if (values[q] == stale) != false_writes[q]:
                return False
        return True


# --------------------------------------------------------------------- #
# Map cache.
# --------------------------------------------------------------------- #

#: Bounded LRU of SectionMaps.  Sweeps revisit a (trace, config) key once
#: per schedule point (fig7's on-time sweep, fig8's watchdog x seed grid),
#: but job orders are config-major (fig5 revisits a trace only after a
#: full pass over the other 22), so the capacity must cover a sweep's
#: whole (trace, config) working set or the cache thrashes to 0%.
#: ``REPRO_SECTIONMAP_LRU`` overrides the default for machines where the
#: working set exceeds it (the profile table warns when evictions say it
#: does) or where memory is tighter than the default assumes.
_DEFAULT_MAX_CACHED_MAPS = 1024


def _resolve_max_cached_maps() -> int:
    raw = os.environ.get("REPRO_SECTIONMAP_LRU", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return _DEFAULT_MAX_CACHED_MAPS


_MAX_CACHED_MAPS = _resolve_max_cached_maps()

_CACHE: "OrderedDict[tuple, SectionMap]" = OrderedDict()

#: Cache counters in the process-wide registry (``sections.*``).
#: ``enum_seconds`` is time in section enumeration proper (chain and
#: family scans).  A *rebuild* is a miss on a key evicted earlier — the
#: only eviction that actually cost a re-enumeration.  Raw eviction
#: counts stay high even under a perfectly-ordered sweep (the working
#: set simply ends), so the thrash warning keys on rebuilds.
_HITS = COUNTERS.counter("sections.hits")
_MISSES = COUNTERS.counter("sections.misses")
_EVICTIONS = COUNTERS.counter("sections.evictions")
_REBUILDS = COUNTERS.counter("sections.rebuilds")
_ENUM_SECONDS = COUNTERS.counter("sections.enum_seconds")

#: Family-scan amortization: passes of the batched kernel, maps those
#: passes enumerated, and per-trace map counts
#: (``sections.family_by_trace.<trace>``; the profile shows them).
_FAMILY_PASSES = COUNTERS.counter("sections.family_passes")
_FAMILY_MAPS = COUNTERS.counter("sections.family_maps")
_BY_TRACE_PREFIX = "sections.family_by_trace."

#: Table sharing: maps that adopted a flat table already held for their
#: trace, and the bytes of the distinct tables installed.
_TABLES_SHARED = COUNTERS.counter("sections.tables_shared")
_TABLE_BYTES = COUNTERS.counter("sections.table_bytes")

#: Keys evicted from the LRU (rebuild detection).
_EVICTED_KEYS: set = set()


def _map_key(
    trace: Trace,
    config: ClankConfig,
    pi_words: Optional[FrozenSet[int]],
    pi_access_indices: Optional[FrozenSet[int]],
    forced_checkpoints: Optional[FrozenSet[int]],
) -> tuple:
    """Content-derived cache key (id-reuse safe, like ``_PI_CACHE``)."""
    return (
        trace.digest,
        config,
        pi_words or _EMPTY,
        pi_access_indices or _EMPTY,
        forced_checkpoints or _EMPTY,
    )


def get_section_map(
    trace: Trace,
    config: ClankConfig,
    pi_words: Optional[FrozenSet[int]] = None,
    pi_access_indices: Optional[FrozenSet[int]] = None,
    forced_checkpoints: Optional[FrozenSet[int]] = None,
) -> SectionMap:
    """The shared SectionMap for this key (LRU-cached per process)."""
    key = _map_key(
        trace, config, pi_words, pi_access_indices, forced_checkpoints
    )
    smap = _CACHE.get(key)
    if smap is not None:
        _HITS.inc()
        _CACHE.move_to_end(key)
        return smap
    _MISSES.inc()
    if key in _EVICTED_KEYS:
        _REBUILDS.inc()
    smap = SectionMap(
        trace, config, pi_words, pi_access_indices, forced_checkpoints
    )
    _CACHE[key] = smap
    while len(_CACHE) > _MAX_CACHED_MAPS:
        _EVICTIONS.inc()
        _EVICTED_KEYS.add(_CACHE.popitem(last=False)[0])
    return smap


def ensure_lru_capacity(n: int) -> None:
    """Raise the LRU capacity to at least ``n`` maps (sweep-plan sizing).

    The eval driver calls this with its sweep's (family chunk x
    in-flight traces) working-set estimate before dispatching jobs.
    Never shrinks, and defers to an explicit ``REPRO_SECTIONMAP_LRU``
    override.
    """
    global _MAX_CACHED_MAPS
    if os.environ.get("REPRO_SECTIONMAP_LRU", "").strip():
        return
    if n > _MAX_CACHED_MAPS:
        _MAX_CACHED_MAPS = n


# --------------------------------------------------------------------- #
# Shared flat tables: one copy per distinct table.
# --------------------------------------------------------------------- #


class _Tables:
    """The distinct flat canonical-chain tables of one compiled trace.

    Most configurations of a sweep reduce to the same canonical chain,
    so most maps over a trace hold a table another map already holds.
    :meth:`intern` hands such a map the table installed first; tables
    are read-only once installed, so sharing is exact.  Candidates are
    bucketed by ``(sections, steps)`` and confirmed with ``array ==``
    (newest first: adjacent family members agree most often), which
    keeps hashing off the enumeration path.

    The registry lives on :attr:`CompiledTrace.section_tables`, so it
    and its tables are freed with the trace; nothing in it refers back
    to a map or the trace.
    """

    __slots__ = ("by_shape",)

    def __init__(self):
        self.by_shape: Dict[Tuple[int, int], List[tuple]] = {}

    def intern(self, table: tuple) -> tuple:
        """The held table equal to ``table``, else ``table``, now held."""
        keys, ends, causes, soff, steps = table
        bucket = self.by_shape.setdefault((len(keys), len(steps)), [])
        for held in reversed(bucket):
            if (held[1] == ends and held[0] == keys and held[4] == steps
                    and held[2] == causes and held[3] == soff):
                _TABLES_SHARED.inc()
                return held
        bucket.append(table)
        _TABLE_BYTES.inc(sum(a.itemsize * len(a) for a in table))
        return table


def _tables(ct) -> _Tables:
    """``ct``'s table registry, created on first use."""
    tables = ct.section_tables
    if tables is None:
        tables = ct.section_tables = _Tables()
    return tables


# --------------------------------------------------------------------- #
# Config-family enumeration: one trace pass, a whole family of maps.
# --------------------------------------------------------------------- #


def _family_enabled() -> bool:
    """Whether batched family passes run: the C kernel is loaded."""
    return _cext.chain_scan_lib() is not None


def build_family(
    trace: Trace,
    configs: Sequence[ClankConfig],
    pi_words: Optional[FrozenSet[int]] = None,
    pi_access_indices: Optional[FrozenSet[int]] = None,
    forced_checkpoints: Optional[FrozenSet[int]] = None,
) -> List[SectionMap]:
    """Enumerate a whole config family's canonical chains in one pass.

    Every config shares ``(trace, PI marking, forced checkpoints)`` and
    differs only in buffer capacities and policy optimizations, so one
    batched kernel call (:mod:`repro.core` family chain scan)
    enumerates all of their section tables — bit-identical to the
    per-config scalar scans, by construction.  Members already
    enumerated are skipped; a single remaining member gets a one-member
    pass, which the family counters do not count.  Returns the maps in
    ``configs`` order (the LRU is populated either way).  Without the C
    kernel there is no pass here: maps then enumerate lazily per
    config.
    """
    maps = [
        get_section_map(
            trace, cfg, pi_words, pi_access_indices, forced_checkpoints
        )
        for cfg in configs
    ]
    if not _family_enabled():
        return maps
    pending: List[SectionMap] = []
    seen = set()
    for m in maps:
        if id(m) not in seen and m._flat is None:
            seen.add(id(m))
            pending.append(m)
    if not pending:
        return maps
    # The kernel shares one pids array across members, so group by the
    # APB prefix shift (family plans already hold it constant; ad-hoc
    # caller mixes still get correct, separate passes).
    by_shift: Dict[int, List[SectionMap]] = {}
    for m in pending:
        shift = m.config.prefix_low_bits
        by_shift.setdefault(shift, []).append(m)
    for shift, members in by_shift.items():
        for i in range(0, len(members), _cext.FAMILY_MAX):
            chunk = members[i:i + _cext.FAMILY_MAX]
            _family_scan_chunk(shift, chunk)
            if len(chunk) > 1:
                _FAMILY_PASSES.inc()
                _FAMILY_MAPS.inc(len(chunk))
                COUNTERS.counter(_BY_TRACE_PREFIX + trace.name).inc(
                    len(chunk)
                )
    return maps


def _family_scan_chunk(shift: int, maps: List[SectionMap]) -> None:
    """One family kernel call installing flat canonical chains in the
    given maps (<= FAMILY_MAX, all of one trace and marking)."""
    t0 = perf_counter()
    m0 = maps[0]
    ct = m0.ct
    text_lo, text_hi = ct.text_range
    eng = _cext.FamilyScanEngine(
        _cext.chain_scan_lib(), ct, text_lo, text_hi, shift,
        m0._forced_sorted, m0.pi_words, m0.pi_indices,
        [kernel_params(m.config) for m in maps],
    )
    _distribute_events(maps, *eng.scan(0))
    _ENUM_SECONDS.inc(perf_counter() - t0)


def _distribute_events(maps, nev, nst, ev_key, ev_end, ev_cause,
                       ev_soff, steps_out, ev_percap, st_percap) -> None:
    """Copy the C kernel's member-major output segments into per-map
    flat storage.

    The kernel pre-segments its output (member ``c`` owns event slots
    ``[c * ev_percap, ...)``, steps-offset slots ``[c * (ev_percap + 1),
    ...)`` and steps ``[c * st_percap, ...)``), so each flat array is a
    single slice copy, and a slice equal to a table already held for
    the trace is dropped for that table (:meth:`_Tables.intern`).
    """
    tables = _tables(maps[0].ct)
    for c, m in enumerate(maps):
        k = nev[c]
        base = c * ev_percap
        obase = c * (ev_percap + 1)
        sbase = c * st_percap
        m._flat = tables.intern((
            ev_key[base:base + k],
            ev_end[base:base + k],
            ev_cause[base:base + k],
            ev_soff[obase:obase + k + 1],
            steps_out[sbase:sbase + nst[c]],
        ))


def prefetch_family(
    trace: Trace,
    config: ClankConfig,
    plan_configs: Sequence[ClankConfig],
    plan_pos: int,
    pi_words: Optional[FrozenSet[int]] = None,
    pi_access_indices: Optional[FrozenSet[int]] = None,
    forced_checkpoints: Optional[FrozenSet[int]] = None,
    chunk: int = 32,
) -> None:
    """Family-build the next ``chunk`` un-enumerated plan members.

    Called by the eval executors right before a job's own
    ``get_section_map``: when the job's map still needs enumeration,
    take up to ``chunk`` configs forward from its position in the sweep
    plan that also need it and enumerate them in one family pass
    (earlier members were prefetched by earlier jobs — sweep job orders
    are config-major).  The common warmed case is one dict probe.
    """
    key = _map_key(
        trace, config, pi_words, pi_access_indices, forced_checkpoints
    )
    smap = _CACHE.get(key)
    if smap is not None and smap._flat is not None:
        return
    if not _family_enabled():
        return
    take = []
    for cfg in plan_configs[plan_pos:]:
        k2 = _map_key(
            trace, cfg, pi_words, pi_access_indices, forced_checkpoints
        )
        m2 = _CACHE.get(k2)
        if m2 is not None and m2._flat is not None:
            continue
        take.append(cfg)
        if len(take) >= chunk:
            break
    if take:
        build_family(
            trace, take, pi_words, pi_access_indices, forced_checkpoints
        )


def cache_stats() -> Dict[str, float]:
    """Counters of the per-process SectionMap cache (since the last
    ``COUNTERS.reset()``).

    ``evictions`` counts maps pushed out of the in-memory LRU (silent
    thrash past ``_MAX_CACHED_MAPS`` is otherwise invisible to the
    guards), and ``enum_seconds`` is the time spent in
    section *enumeration* proper (chain and family scans), separated
    from driver wall-clock for the profile table.  ``tables_shared``
    counts maps that adopted a flat table another map already held, and
    ``table_bytes`` the bytes of the distinct tables installed.
    """
    return {
        "hits": _HITS.value,
        "misses": _MISSES.value,
        "cached": len(_CACHE),
        "capacity": _MAX_CACHED_MAPS,
        "evictions": _EVICTIONS.value,
        "rebuilds": _REBUILDS.value,
        "enum_seconds": float(_ENUM_SECONDS.value),
        "family_passes": _FAMILY_PASSES.value,
        "family_maps": _FAMILY_MAPS.value,
        "tables_shared": _TABLES_SHARED.value,
        "table_bytes": _TABLE_BYTES.value,
    }


def clear_cache() -> None:
    """Drop all cached maps (tests)."""
    _CACHE.clear()
    _EVICTED_KEYS.clear()
