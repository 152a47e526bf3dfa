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
  grew; ``bisect`` against a cut point yields the flush size of any
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
from bisect import bisect_left
from collections import OrderedDict
from itertools import repeat
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import repro.cache as artifact_cache
from repro.core import cext as _cext
from repro.core.cext import CAUSE_NAMES as _CAUSE_NAMES
from repro.core.config import ClankConfig
from repro.core.detector import POLICY_REV, IdempotencyDetector
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

#: The same table split by column, for ``map(list.__getitem__, causes)``
#: pipelines that materialize whole flat stores without a Python loop.
_CAUSE_NAME_BY_ID = [name for name, _ in _NAME_KIND_BY_ID]
_CAUSE_KIND_BY_ID = [kind for _, kind in _NAME_KIND_BY_ID]

#: Section-entry variants.
VARIANT_NORMAL = 0
VARIANT_FORCED_DONE = 1
VARIANT_DIRECT = 2

#: A memoized section: (end, cause, kind, wbb_steps).
Section = Tuple[int, str, int, Tuple[int, ...]]

#: Sentinel for "C engine not resolved yet" (None means "unavailable").
_UNSET = object()


class SectionMap:
    """Lazily-enumerated section structure of one (trace, config,
    pi_words, pi_access_indices, forced_checkpoints) tuple.

    Sections are enumerated on demand (power schedules visit only the
    starts they actually commit at) and memoized forever: the map object
    itself is cached per key by :func:`get_section_map`, so every schedule
    swept over the same structure reuses the same enumerations.
    """

    __slots__ = (
        "ct", "n", "pi_words", "pi_indices", "forced", "_forced_sorted",
        "_detector", "_sections", "pi_hazard",
        "_scratch", "_dw_cache", "_dw_groups", "_arch_cache", "_engine",
        "_disk_key", "_loaded_n", "_flat", "_flat_idx", "_mat_n",
        "_mat_all", "_flat_persisted",
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
        self.n = ct.n
        self.pi_words = pi_words or frozenset()
        self.pi_indices = pi_access_indices or frozenset()
        forced = forced_checkpoints or frozenset()
        self.forced = forced
        # A compiler checkpoint at index n never fires: the final
        # checkpoint precedes the forced check in the replay loop.
        self._forced_sorted = sorted(f for f in forced if f < ct.n)
        self._detector = IdempotencyDetector(
            config, trace.memory_map.text_word_range
        )
        #: Memoized sections, keyed ``(start << 2) | variant`` — one int
        #: probe in the fast path's hot loop instead of a tuple hash.
        self._sections: Dict[int, Section] = {}
        self._scratch = None  # lazily built ChainScratch, reused per chain
        self._dw_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._dw_groups: Dict[Tuple[int, int], Dict[int, list]] = {}
        self._arch_cache: Dict[int, tuple] = {}
        self._engine = _UNSET  # lazily built C ChainScanEngine (or None)
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
        #: Flat canonical-chain storage installed by a family scan (or a
        #: disk load of one): ``(keys, ends, cause_ids, steps_off,
        #: steps)`` parallel arrays sorted by key.  The first ``section()``
        #: call that misses the dict memo materializes the whole table
        #: into it in one tight pass (sweep replays touch nearly every
        #: section exactly once, so per-key laziness would just move the
        #: same tuple-building into the replay loop with bisect overhead
        #: on top); ``_mat_n`` counts flat-covered dict entries so the
        #: dirty test sees only genuinely new enumerations.
        self._flat = None
        self._flat_idx = None
        self._mat_n = 0
        self._mat_all = False
        self._flat_persisted = False
        # Persistent artifact store: seed the memo from a previous run's
        # (or a sibling worker's) enumeration of this exact key.
        self._disk_key = None
        self._loaded_n = 0
        st = artifact_cache.store()
        if st is not None:
            self._disk_key = artifact_cache.content_key(
                "sections", POLICY_REV, ct.content_key,
                trace.memory_map.text_word_range,
                trace.memory_map.word_range("mmio"),
                config.as_tuple(), config.prefix_low_bits,
                (opts.ignore_false_writes, opts.remove_duplicates,
                 opts.no_wf_overflow, opts.ignore_text,
                 opts.latest_checkpoint),
                tuple(sorted(self.pi_words)),
                tuple(sorted(self.pi_indices)),
                tuple(self._forced_sorted),
            )
            loaded = st.get("sections", self._disk_key)
            global _DISK_LOADS
            if isinstance(loaded, dict):
                _DISK_LOADS += 1
                self._sections.update(loaded)
                self._loaded_n = len(self._sections)
            elif (
                isinstance(loaded, tuple) and len(loaded) == 7
                and loaded[0] == "flat1"
            ):
                _DISK_LOADS += 1
                self._flat = loaded[1:6]
                self._flat_persisted = True
                self._sections.update(loaded[6])
                self._loaded_n = len(self._sections)

    def section(self, start: int, variant: int) -> Section:
        """The memoized section beginning at ``start`` under ``variant``."""
        global _ENUM_SECONDS
        key = (start << 2) | variant
        sec = self._sections.get(key)
        if sec is None:
            if self._flat is not None and not self._mat_all:
                t0 = perf_counter()
                self._materialize_all()
                _ENUM_SECONDS += perf_counter() - t0
                sec = self._sections.get(key)
                if sec is not None:
                    return sec
            t0 = perf_counter()
            self._ingest_chain(start, variant)
            _ENUM_SECONDS += perf_counter() - t0
            sec = self._sections[key]
            if self._disk_key is not None:
                _DIRTY.add(self)
        return sec

    def chain_section(self, start: int, variant: int) -> Section:
        """:meth:`section` for flat-backed replays: serve one key.

        The fast replay walker reads the flat canonical-chain arrays
        directly (see :mod:`repro.sim.fast`) and only lands here for
        keys the flat store does not cover — off-chain resume variants
        a watchdog cut or direct re-entry created.  Those are rare, so
        this resolves *per key* (``_flat_get``) instead of triggering
        :meth:`_materialize_all`, which would rebuild every section
        tuple the walker is deliberately not asking for.
        """
        global _ENUM_SECONDS
        key = (start << 2) | variant
        sec = self._sections.get(key)
        if sec is None:
            if self._flat is not None:
                sec = self._flat_get(key)
                if sec is not None:
                    return sec
            t0 = perf_counter()
            self._ingest_chain(start, variant)
            _ENUM_SECONDS += perf_counter() - t0
            sec = self._sections[key]
            if self._disk_key is not None:
                _DIRTY.add(self)
        return sec

    def flat_index(self) -> dict:
        """Cached ``key -> row`` index over the flat section arrays.

        One dict build per (map, replay-sweep) — every schedule replayed
        against this map reuses it, turning the walker's per-section
        fetch into a dict probe plus four array reads, with no tuple
        construction at all.
        """
        idx = self._flat_idx
        if idx is None:
            keys = self._flat[0]
            idx = dict(zip(keys, range(len(keys))))
            self._flat_idx = idx
        return idx

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
        memo (not counted as growth by the persist dirty test)."""
        keys, ends, causes, soff, sval = self._flat
        j = bisect_left(keys, key)
        if j >= len(keys) or keys[j] != key:
            return None
        cause, kind = _NAME_KIND_BY_ID[causes[j]]
        a, b = soff[j], soff[j + 1]
        sec = (ends[j], cause, kind, tuple(sval[a:b]) if b > a else ())
        self._sections[key] = sec
        self._mat_n += 1
        return sec

    def _materialize_all(self) -> None:
        """Materialize every flat section into the dict memo, one pass.

        The timed equivalent of the scalar path's ingest loop, minus the
        per-map chain scan the family pass already amortized; after it
        the replay's ``section()`` calls are plain dict hits.
        """
        keys, ends, causes, soff, sval = self._flat
        # Column-at-a-time through C iterators: the zip/map/update
        # pipeline builds each (end, name, kind, steps) record without a
        # Python-level loop body; only the step tuples (rare — most
        # sections grow no WBB entries) take a comprehension, and a map
        # with no steps at all skips even that.
        if len(sval):
            empty = ()
            steps_col = [
                tuple(sval[a:b]) if b > a else empty
                for a, b in zip(soff, soff[1:])
            ]
        else:
            steps_col = repeat((), len(keys))
        self._sections.update(
            zip(keys,
                zip(ends,
                    map(_CAUSE_NAME_BY_ID.__getitem__, causes),
                    map(_CAUSE_KIND_BY_ID.__getitem__, causes),
                    steps_col))
        )
        self._mat_n = len(keys)
        self._mat_all = True

    def _needs_persist(self) -> bool:
        """Whether a persist would write anything new to the store."""
        if self._disk_key is None:
            return False
        if self._flat is not None and not self._flat_persisted:
            return True
        return len(self._sections) - self._mat_n > self._loaded_n

    def persist(self) -> None:
        """Write newly-enumerated sections to the artifact store (no-op
        when clean, never loaded against a store, or the store is gone)."""
        if not self._needs_persist():
            return
        st = artifact_cache.store()
        if st is None:
            return
        if self._flat is not None:
            # Flat canonical chain + the dict entries it does not cover
            # (non-canonical chains from watchdog-cut starts).
            extras = {
                k: v for k, v in self._sections.items()
                if not self._flat_has(k)
            }
            payload = ("flat1",) + tuple(self._flat) + (extras,)
            if st.put("sections", self._disk_key, payload):
                self._loaded_n = len(extras)
                self._mat_n = len(self._sections) - len(extras)
                self._flat_persisted = True
            return
        if st.put("sections", self._disk_key, self._sections):
            self._loaded_n = len(self._sections)

    def _ingest_chain(self, start: int, variant: int) -> None:
        """Enumerate the failure-free section chain from ``(start, variant)``.

        One :meth:`~repro.core.detector.IdempotencyDetector.straightline_chain`
        call enumerates every section from ``start`` to the final
        checkpoint, amortizing per-section overhead across the whole
        chain.  Consumption stops at the first already-memoized entry:
        the boundary sequence from any shared ``(start, variant)`` onward
        is identical, so the rest of the chain is guaranteed present
        (every stored entry's successor was either stored by the same
        chain or was the stop reason of the chain that stored it).

        When the optional C kernel is available
        (:mod:`repro.core.cext`), the scan runs there — one foreign call
        fills flat section records and this method only copies them into
        the memo dict (the copy loop is the dominant ingest cost, so it
        runs over ``tolist()`` snapshots with a single indexed
        cause/kind table); otherwise the pure-Python generator (the
        reference implementation) does the same walk.
        """
        secs = self._sections
        kind_of = _KIND_BY_CAUSE
        eng = self._engine
        if eng is _UNSET:
            eng = self._engine = self._detector.chain_scan_engine(
                self.ct, self._forced_sorted, self.pi_words, self.pi_indices
            )
        if eng is not None:
            nsec = eng.scan(
                start,
                1 if variant == VARIANT_DIRECT else 0,
                start if variant == VARIANT_FORCED_DONE else -1,
            )
            so = eng.out_steps_off
            sf = eng.out_steps
            name_kind = _NAME_KIND_BY_ID
            empty = ()
            for s_, v_, end, cid, a, b in zip(
                eng.out_start[:nsec].tolist(),
                eng.out_variant[:nsec].tolist(),
                eng.out_end[:nsec].tolist(),
                eng.out_cause[:nsec].tolist(),
                so[:nsec].tolist(),
                so[1:nsec + 1].tolist(),
            ):
                key = (s_ << 2) | v_
                if key in secs or self._flat_has(key):
                    break
                cause, kind = name_kind[cid]
                secs[key] = (
                    end, cause, kind, tuple(sf[a:b]) if b > a else empty
                )
            return
        if self._scratch is None:
            self._scratch = self._detector.chain_scratch(self.ct)
        for s, v, end, cause, steps, _ in (
            self._detector.straightline_chain(
                self.ct,
                start,
                variant == VARIANT_DIRECT,
                start if variant == VARIANT_FORCED_DONE else -1,
                self._forced_sorted,
                self.pi_words,
                self.pi_indices,
                self._scratch,
            )
        ):
            key = (s << 2) | v
            if key in secs or self._flat_has(key):
                break
            secs[key] = (end, cause, kind_of.get(cause, SEC_DETECTOR), steps)

    def _direct_writes(self, start: int, variant: int) -> Tuple[int, ...]:
        """The section's direct-commit write indices (memoized).

        Re-runs the straight-line scan of just this section with
        ``collect_dw`` on.  Only :meth:`watchdog_cut_safe` needs these,
        and only for the rare sections a watchdog checkpoint cuts below
        the furthest-executed index, so deriving them lazily keeps the
        bulk enumeration free of per-write bookkeeping.
        """
        key = (start, variant)
        dw = self._dw_cache.get(key)
        if dw is None:
            eng = self._engine
            if eng is _UNSET:
                eng = self._engine = self._detector.chain_scan_engine(
                    self.ct, self._forced_sorted, self.pi_words,
                    self.pi_indices,
                )
            direct = variant == VARIANT_DIRECT
            fd = start if variant == VARIANT_FORCED_DONE else -1
            if eng is not None:
                dw = eng.scan_first_dw(start, 1 if direct else 0, fd)
            else:
                if self._scratch is None:
                    self._scratch = self._detector.chain_scratch(self.ct)
                chain = self._detector.straightline_chain(
                    self.ct,
                    start,
                    direct,
                    fd,
                    self._forced_sorted,
                    self.pi_words,
                    self.pi_indices,
                    self._scratch,
                    collect_dw=True,
                )
                dw = next(chain)[5]
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
            if self._scratch is None:
                self._scratch = self._detector.chain_scratch(self.ct)
            stats = self._detector.section_arch_scan(
                self.ct,
                start,
                variant,
                self._forced_sorted,
                self.pi_words,
                self.pi_indices,
                self._scratch,
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
                groups.setdefault(waddrs[j], []).append(j)
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

    def __len__(self) -> int:
        return len(self._sections)


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
_HITS = 0
_MISSES = 0
_EVICTIONS = 0
_DISK_LOADS = 0
_ENUM_SECONDS = 0.0

#: Family-scan amortization counters: passes of the batched kernel,
#: maps those passes enumerated, and per-trace map counts (the profile
#: table shows amortization per trace).
_FAMILY_PASSES = 0
_FAMILY_MAPS = 0
_FAMILY_BY_TRACE: Dict[str, int] = {}

#: Keys evicted from the LRU; a later miss on one of them is a
#: *rebuild* — the only eviction that actually cost a re-enumeration.
#: Raw eviction counts stay high even under a perfectly-ordered sweep
#: (the working set simply ends), so the thrash warning keys on these.
_EVICTED_KEYS: set = set()
_REBUILDS = 0

#: Maps evicted from the LRU while dirty wait here for the next
#: :func:`repro.cache.persist_caches` flush — spilling to disk mid-run
#: would put file I/O on the enumeration hot path.  Bounded: overflow
#: simply drops the oldest spill (it re-enumerates on a future miss).
_SPILL: list = []
_MAX_SPILLED = 8192

#: Cached maps whose memo grew since their last persist.  The flush hook
#: walks only this set (plus the spill list), so the per-job flush a
#: fork-pool worker issues is O(maps that job actually dirtied), not
#: O(everything cached).
_DIRTY: set = set()


def _map_key(
    trace: Trace,
    config: ClankConfig,
    pi_words: Optional[FrozenSet[int]],
    pi_access_indices: Optional[FrozenSet[int]],
    forced_checkpoints: Optional[FrozenSet[int]],
) -> tuple:
    """Content-derived cache key (id-reuse safe, like ``_PI_CACHE``)."""
    return (
        trace.name,
        len(trace.accesses),
        trace.total_cycles,
        trace.checksum,
        trace.memory_map.text_word_range,
        trace.memory_map.word_range("mmio"),
        config,
        pi_words or frozenset(),
        pi_access_indices or frozenset(),
        forced_checkpoints or frozenset(),
    )


def get_section_map(
    trace: Trace,
    config: ClankConfig,
    pi_words: Optional[FrozenSet[int]] = None,
    pi_access_indices: Optional[FrozenSet[int]] = None,
    forced_checkpoints: Optional[FrozenSet[int]] = None,
) -> SectionMap:
    """The shared SectionMap for this key (LRU-cached per process)."""
    global _HITS, _MISSES, _EVICTIONS, _REBUILDS
    key = _map_key(
        trace, config, pi_words, pi_access_indices, forced_checkpoints
    )
    smap = _CACHE.get(key)
    if smap is not None:
        _HITS += 1
        _CACHE.move_to_end(key)
        return smap
    _MISSES += 1
    if key in _EVICTED_KEYS:
        _REBUILDS += 1
    smap = SectionMap(
        trace, config, pi_words, pi_access_indices, forced_checkpoints
    )
    _CACHE[key] = smap
    while len(_CACHE) > _MAX_CACHED_MAPS:
        _EVICTIONS += 1
        ekey, evicted = _CACHE.popitem(last=False)
        _EVICTED_KEYS.add(ekey)
        _DIRTY.discard(evicted)
        if evicted._needs_persist():
            if len(_SPILL) < _MAX_SPILLED:
                _SPILL.append(evicted)
            else:
                # Spill queue full: persist inline rather than silently
                # dropping the enumeration (a re-miss would rebuild it).
                evicted.persist()
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
# Config-family enumeration: one trace pass, a whole family of maps.
# --------------------------------------------------------------------- #


def _needs_family_scan(smap: SectionMap) -> bool:
    """Whether this map still wants its canonical chain enumerated.

    The canonical chain (entry ``(0, VARIANT_NORMAL)``) always begins at
    key 0 — whether or not index 0 is a forced checkpoint, the first
    emitted section is ``(0 << 2) | variant`` with variant 0 or the
    zero-length compiler form — so ``0 in _sections`` (or flat coverage)
    means the chain every schedule replays is already present.
    """
    return 0 not in smap._sections and smap._flat is None


def _family_enabled() -> bool:
    """Whether batched family passes run: the C kernel is loaded and
    ``REPRO_FAMILY`` is not ``0``."""
    return (os.environ.get("REPRO_FAMILY", "1") != "0"
            and _cext.chain_scan_lib() is not None)


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
    enumerated (memory- or disk-warm) are skipped; a single remaining
    member degrades to the scalar chain scan.  Returns the maps in
    ``configs`` order (the LRU and disk cache are populated either
    way).  Without the C kernel, or with ``REPRO_FAMILY=0``, there is no
    batched pass: maps then enumerate lazily per config.
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
        if id(m) not in seen and _needs_family_scan(m):
            seen.add(id(m))
            pending.append(m)
    if not pending:
        return maps
    # The kernel shares one pids array across members, so group by the
    # APB prefix shift (family plans already hold it constant; ad-hoc
    # caller mixes still get correct, separate passes).
    by_shift: Dict[int, List[SectionMap]] = {}
    for m in pending:
        shift = m._detector.apb.prefix_low_bits
        by_shift.setdefault(shift, []).append(m)
    for shift, members in by_shift.items():
        for i in range(0, len(members), _cext.FAMILY_MAX):
            _family_scan_chunk(trace, shift, members[i:i + _cext.FAMILY_MAX])
    return maps


def _family_scan_chunk(
    trace: Trace, shift: int, maps: List[SectionMap]
) -> None:
    """One batched kernel call over ``trace`` for the given maps
    (<= FAMILY_MAX).

    A single member degrades to the scalar chain scan — the family
    machinery would only add overhead around an identical walk.
    """
    global _ENUM_SECONDS, _FAMILY_PASSES, _FAMILY_MAPS
    if len(maps) == 1:
        maps[0].section(0, VARIANT_NORMAL)
        return
    t0 = perf_counter()
    m0 = maps[0]
    ct = m0.ct
    det0 = m0._detector
    params = [m._detector.family_params() for m in maps]
    eng = _cext.FamilyScanEngine(
        _cext.chain_scan_lib(), ct, det0._text_lo, det0._text_hi, shift,
        m0._forced_sorted, m0.pi_words, m0.pi_indices, params,
    )
    _distribute_events(maps, *eng.scan(0))
    for m in maps:
        if m._disk_key is not None:
            _DIRTY.add(m)
    _FAMILY_PASSES += 1
    _FAMILY_MAPS += len(maps)
    name = trace.name
    _FAMILY_BY_TRACE[name] = _FAMILY_BY_TRACE.get(name, 0) + len(maps)
    _ENUM_SECONDS += perf_counter() - t0


def _install_flat(m: SectionMap, keys, ends, causes, soff, sval) -> None:
    m._flat = (keys, ends, causes, soff, sval)
    m._flat_idx = None
    m._flat_persisted = False


def _distribute_events(maps, nev, nst, ev_key, ev_end, ev_cause,
                       ev_soff, steps_out, ev_percap, st_percap) -> None:
    """Copy the C kernel's member-major output segments into per-map
    flat storage.

    The kernel pre-segments its output (member ``c`` owns event slots
    ``[c * ev_percap, ...)``, steps-offset slots ``[c * (ev_percap + 1),
    ...)`` and steps ``[c * st_percap, ...)``), so each flat array is a
    single slice copy.
    """
    for c, m in enumerate(maps):
        k = nev[c]
        base = c * ev_percap
        obase = c * (ev_percap + 1)
        sbase = c * st_percap
        _install_flat(
            m,
            ev_key[base:base + k],
            ev_end[base:base + k],
            ev_cause[base:base + k],
            ev_soff[obase:obase + k + 1],
            steps_out[sbase:sbase + nst[c]],
        )


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
    if smap is not None and not _needs_family_scan(smap):
        return
    if not _family_enabled():
        return
    take = []
    for cfg in plan_configs[plan_pos:]:
        k2 = _map_key(
            trace, cfg, pi_words, pi_access_indices, forced_checkpoints
        )
        m2 = _CACHE.get(k2)
        if m2 is not None and not _needs_family_scan(m2):
            continue
        take.append(cfg)
        if len(take) >= chunk:
            break
    if take:
        build_family(
            trace, take, pi_words, pi_access_indices, forced_checkpoints
        )


def _flush_to_store() -> None:
    """Persist dirty maps (spilled and still-cached) to the artifact
    store.  Registered with :func:`repro.cache.persist_caches`, which
    the eval CLI invokes at exit and every fork-pool worker invokes
    after each job (pool children exit via ``os._exit`` and never run
    ``atexit`` hooks, so the flush must happen inline); warm runs are
    ~free because only maps whose memo actually grew are visited."""
    spilled, _SPILL[:] = _SPILL[:], []
    for smap in spilled:
        smap.persist()
    dirty = list(_DIRTY)
    _DIRTY.clear()
    for smap in dirty:
        smap.persist()


artifact_cache.register_persist(_flush_to_store)


def cache_stats() -> Dict[str, float]:
    """Counters of the per-process SectionMap cache.

    ``evictions`` counts maps pushed out of the in-memory LRU (silent
    thrash past ``_MAX_CACHED_MAPS`` is otherwise invisible to the
    guards), ``disk_loads`` counts maps/families seeded from the
    persistent artifact store, and ``enum_seconds`` is the time spent in
    section *enumeration* proper (chain and family scans), separated
    from driver wall-clock for the profile table.
    """
    return {
        "hits": _HITS,
        "misses": _MISSES,
        "cached": len(_CACHE),
        "capacity": _MAX_CACHED_MAPS,
        "evictions": _EVICTIONS,
        "rebuilds": _REBUILDS,
        "disk_loads": _DISK_LOADS,
        "enum_seconds": _ENUM_SECONDS,
        "family_passes": _FAMILY_PASSES,
        "family_maps": _FAMILY_MAPS,
    }


def family_trace_stats() -> Dict[str, int]:
    """Per-trace family-scan map counts (profile/telemetry)."""
    return dict(_FAMILY_BY_TRACE)


def reset_cache_stats() -> None:
    """Zero the counters (tests and per-sweep profiling)."""
    global _HITS, _MISSES, _EVICTIONS, _DISK_LOADS, _ENUM_SECONDS
    global _FAMILY_PASSES, _FAMILY_MAPS, _REBUILDS
    _HITS = 0
    _MISSES = 0
    _EVICTIONS = 0
    _DISK_LOADS = 0
    _ENUM_SECONDS = 0.0
    _FAMILY_PASSES = 0
    _FAMILY_MAPS = 0
    _REBUILDS = 0
    _FAMILY_BY_TRACE.clear()


def clear_cache() -> None:
    """Drop all cached maps and pending spills (tests)."""
    _CACHE.clear()
    _SPILL.clear()
    _DIRTY.clear()
    _EVICTED_KEYS.clear()
