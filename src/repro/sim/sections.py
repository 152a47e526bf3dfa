"""Memoized idempotent-section structure of a (trace, config) pair.

Clank decomposes every execution into restartable idempotent sections.
From a committed checkpoint the tracking buffers are empty, so the next
section boundary — and everything the simulator needs to account a
checkpoint there — is a pure function of the trace, the hardware
configuration, and the compiler marking.  The power schedule only decides
*where inside a section* power fails and how much re-executes.

A :class:`SectionMap` caches that schedule-independent structure: for each
section start (and variant, below) the C chain scan runs the idempotency
detector straight-line once and records ``(end, cause, wbb_steps)``:

* ``end`` — index of the boundary access (``n`` for the final checkpoint);
  the section executes exactly the accesses ``[start, end)``.
* ``cause`` — checkpoint cause charged at the boundary; it also decides
  how the boundary behaves under power failure.
* ``wbb_steps`` — ascending trace indices where the Write-back Buffer
  grew; bisecting a cut point yields the flush size of any checkpoint
  inside the section, keeping the map cost-model independent.

The canonical chain — every section a failure-free run from the start
commits — is held as flat parallel arrays installed by one family pass
(:func:`build_family`); the C section walk (:mod:`repro.sim.fast`) reads
them in place and resolves the off-chain sections it meets into a
per-map overlay.  Every scan is one C kernel call through
:class:`repro.core.cext.ChainScanEngine`: a family pass scans up to
:data:`FAMILY_CHUNK` configurations at once, and a map's off-chain and
direct-write scans are one-member calls on the engine the map caches.
The one dispatcher,
:func:`repro.sim.batch.simulate_batch`, family-builds the cold maps of
its walkable rows' distinct configs, :data:`FAMILY_CHUNK` per pass,
before it walks (:func:`prefetch_family`), so every walked map is flat.
The kernel ports the one Python section scan,
:func:`repro.core.detector.scan_section`, which is its test oracle and
which ``--arch`` runs once per commit (:mod:`repro.sim.batch`).

:func:`get_section_map` builds each map once per process and keeps it
in a plain dict under a content key; :func:`clear_cache` empties it.

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
  false-write comparison can then disagree with the oracle — decided
  exactly by the C walk itself (``sw_cut_safe`` in ``_chainscan.c``)
  whenever a watchdog commit lands below the furthest-executed index
  while ``ignore_false_writes`` is on, from the section's direct-commit
  writes (:meth:`SectionMap.direct_writes`, loaded once per section)
  and the walk's record of failed-cycle reaches; only a genuinely
  divergent cut hands the run to the reference simulator.  See
  :mod:`repro.sim.fast`.
"""

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core import cext as _cext
from repro.core.config import ClankConfig
from repro.core.detector import kernel_params
from repro.obs.metrics import COUNTERS
from repro.trace.trace import Trace

#: Section-entry variants.
VARIANT_NORMAL = 0
VARIANT_FORCED_DONE = 1
VARIANT_DIRECT = 2

#: The empty marking/forced set every unmarked map and key shares.
_EMPTY: FrozenSet[int] = frozenset()


def _engine(maps, shift: int):
    """A C chain-scan engine over ``maps`` — one trace, PI marking and
    forced set, APB prefix shift ``shift`` — one member per map."""
    m0 = maps[0]
    return _cext.ChainScanEngine(
        _cext.chain_scan_lib(), m0.ct, shift, m0._forced_sorted,
        m0.pi_words, m0.pi_indices,
        [kernel_params(m.config) for m in maps],
    )


class SectionMap:
    """Lazily-enumerated section structure of one (trace, config,
    pi_words, pi_access_indices, forced_checkpoints) tuple.

    The canonical chain comes from a family pass and off-chain sections
    are enumerated on demand (power schedules visit only the starts they
    actually commit at); both are kept forever, and the map object itself
    is cached per key by :func:`get_section_map`, so every schedule swept
    over the same structure reuses the same enumerations.

    A map holds only what is its own: the off-chain overlay and C walk
    table once a C walk needs them (:mod:`repro.sim.fast`) and memo
    dicts.  Its flat canonical-chain tables are shared by every map over
    the trace with equal tables (:class:`_Tables`).  Whatever depends
    only on the trace (scan buffers, cycle sums, the forced-checkpoint
    mask, the shared tables) lives on the compiled trace, and whatever
    depends only on the configuration (the kernels' capacity and flag
    ints) is derived from it on demand.  Nothing a map holds refers
    back to it, so an evicted map is freed by reference counting.
    """

    __slots__ = (
        "ct", "config", "n", "pi_words", "pi_indices", "forced",
        "_forced_sorted", "pi_hazard", "_engine", "_flat", "_ov", "_dw",
        "_tab", "walk_draws", "__weakref__",
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
        self._engine = None  # one-member ChainScanEngine, on first scan
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
        #: walk reads them in place.
        self._flat = None
        #: The C section walk's state (:mod:`repro.sim.fast`): the
        #: overlay of off-chain sections (built on the first off-chain
        #: resolve), the direct writes of the sections a watchdog cut
        #: was decided in (built on the first), the walk's table (built
        #: on the first C-walked run), and the on-time count the last
        #: run consumed.
        self._ov = None
        self._dw = None
        self._tab = None
        self.walk_draws = 1

    def _chain_engine(self):
        """The map's one-member C chain-scan engine, built on first use
        (the C kernel must be loaded)."""
        eng = self._engine
        if eng is None:
            eng = self._engine = _engine([self], self.config.prefix_low_bits)
        return eng

    def scan_chain(self, start: int, variant: int, perf_load: int = 0):
        """The failure-free chain from ``(start, variant)``, unmemoized.

        ``[(key, end, cause_id, wbb_steps), ...]`` up to where the chain
        rejoins the flat canonical chain (``ChainScanEngine.scan``; with
        ``perf_load`` > 0 a section is left open at the access that
        fires the Performance Watchdog, and the chain goes on from that
        cut).  The C kernel must be loaded.
        """
        eng = self._chain_engine()
        keys, ends, causes, soff, steps, _ = eng.scan(
            start, variant,
            self._flat[0] if self._flat is not None else None, perf_load,
        )
        k = eng.nev[0]
        return [
            (key, end, cid, steps[a:b] if b > a else ())
            for key, end, cid, a, b in zip(
                keys[:k].tolist(), ends[:k].tolist(), causes[:k].tolist(),
                soff[:k].tolist(), soff[1:k + 1].tolist(),
            )
        ]

    def direct_writes(self, start: int, variant: int):
        """The direct-commit write indices of the section at ``(start,
        variant)``, an ascending ``array('i')``, unmemoized (the C
        kernel must be loaded): what the C walk's watchdog-cut decision
        reads."""
        eng = self._chain_engine()
        steps = eng.scan(start, variant, None, 0, _cext.F_FIRST_DW)[4]
        return steps[:eng.nst[0]]


# --------------------------------------------------------------------- #
# Map cache.
# --------------------------------------------------------------------- #

#: Every SectionMap this process built, by content key.  Sweeps revisit
#: a (trace, config) key once per schedule point (fig7's on-time sweep,
#: fig8's watchdog x seed grid) and in config-major order (fig5 comes back
#: to a trace only after a pass over the other 22), so the cache holds a
#: sweep's whole working set.  It is unbounded: a full evaluation holds
#: about 16k maps, most of them sharing their flat table (``_Tables``).
_CACHE: Dict[tuple, SectionMap] = {}

#: Cache counters in the process-wide registry (``sections.*``).
#: ``enum_seconds`` is time in the C chain-scan engine, which counts it
#: itself (:class:`repro.core.cext.ChainScanEngine`).
_HITS = COUNTERS.counter("sections.hits")
_MISSES = COUNTERS.counter("sections.misses")
_ENUM_SECONDS = COUNTERS.counter("sections.enum_seconds")

#: Family-scan amortization: passes of the batched kernel, maps those
#: passes enumerated, maps enumerated alone in a one-member pass, and
#: per-trace map counts (``sections.family_by_trace.<trace>``; the
#: profile shows them).
_FAMILY_PASSES = COUNTERS.counter("sections.family_passes")
_FAMILY_MAPS = COUNTERS.counter("sections.family_maps")
_SCALAR_MAPS = COUNTERS.counter("sections.scalar_maps")
_BY_TRACE_PREFIX = "sections.family_by_trace."

#: Table sharing: maps that adopted a flat table already held for their
#: trace, and the bytes of the distinct tables installed.
_TABLES_SHARED = COUNTERS.counter("sections.tables_shared")
_TABLE_BYTES = COUNTERS.counter("sections.table_bytes")


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
    """The shared SectionMap for this key (built once per process)."""
    key = _map_key(
        trace, config, pi_words, pi_access_indices, forced_checkpoints
    )
    smap = _CACHE.get(key)
    if smap is not None:
        _HITS.inc()
        return smap
    _MISSES.inc()
    smap = _CACHE[key] = SectionMap(
        trace, config, pi_words, pi_access_indices, forced_checkpoints
    )
    return smap


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


#: Configs per batched family pass of a sweep group, within the C
#: kernel's budget (<= FAMILY_MAX = 64).  The sweep server also cuts
#: each group of its owned misses into chunks of this many jobs, one
#: bridge hop each.
FAMILY_CHUNK = 32


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
    kernel call (:class:`repro.core.cext.ChainScanEngine`) enumerates
    all of their section tables — bit-identical to one-member scans of
    each config, by construction.  Members already
    enumerated are skipped; a single remaining member gets a one-member
    pass, which counts as ``sections.scalar_maps``, not as a family
    pass.  Returns the maps in ``configs`` order (the map cache is
    populated either way).  Without the C kernel there is no pass here:
    no section walk runs, so nothing reads the maps' tables.
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
    # APB prefix shift (a mix of shifts gets correct, separate passes).
    by_shift: Dict[int, List[SectionMap]] = {}
    for m in pending:
        shift = m.config.prefix_low_bits
        by_shift.setdefault(shift, []).append(m)
    for shift, members in by_shift.items():
        for i in range(0, len(members), _cext.FAMILY_MAX):
            chunk = members[i:i + _cext.FAMILY_MAX]
            _family_scan_chunk(shift, chunk)
            if len(chunk) == 1:
                _SCALAR_MAPS.inc()
                continue
            _FAMILY_PASSES.inc()
            _FAMILY_MAPS.inc(len(chunk))
            COUNTERS.counter(_BY_TRACE_PREFIX + trace.name).inc(len(chunk))
    return maps


def _family_scan_chunk(shift: int, maps: List[SectionMap]) -> None:
    """One kernel call installing flat canonical chains in the given
    maps (<= FAMILY_MAX, all of one trace and marking)."""
    eng = _engine(maps, shift)
    _distribute_events(maps, eng.nev, eng.nst, *eng.scan())


def _distribute_events(maps, nev, nst, ev_key, ev_end, ev_cause,
                       ev_soff, steps_out, seg) -> None:
    """Copy the C kernel's member-major output segments into per-map
    flat storage.

    The kernel pre-segments its output (member ``c`` owns section slots
    ``[c * seg, ...)``, steps-offset slots ``[c * (seg + 1), ...)`` and
    steps ``[c * seg, ...)``), so each flat array is a single slice
    copy, and a slice equal to a table already held for the trace is
    dropped for that table (:meth:`_Tables.intern`).
    """
    tables = _tables(maps[0].ct)
    for c, m in enumerate(maps):
        k = nev[c]
        base = c * seg
        obase = base + c
        m._flat = tables.intern((
            ev_key[base:base + k],
            ev_end[base:base + k],
            ev_cause[base:base + k],
            ev_soff[obase:obase + k + 1],
            steps_out[base:base + nst[c]],
        ))


def prefetch_family(
    trace: Trace,
    configs: Sequence[ClankConfig],
    pi_words: Optional[FrozenSet[int]] = None,
    pi_access_indices: Optional[FrozenSet[int]] = None,
    forced_checkpoints: Optional[FrozenSet[int]] = None,
) -> None:
    """Family-build the maps of ``configs``, :data:`FAMILY_CHUNK` per pass.

    :func:`repro.sim.batch.simulate_batch` calls this right before it
    walks, with the distinct configs of its walkable rows whose maps are
    not yet enumerated, in row order: the section walk reads only flat
    tables.  A single config gets a one-member pass (:func:`build_family`).
    """
    for i in range(0, len(configs), FAMILY_CHUNK):
        build_family(trace, configs[i:i + FAMILY_CHUNK], pi_words,
                     pi_access_indices, forced_checkpoints)


def cache_stats() -> Dict[str, float]:
    """Counters of the per-process SectionMap cache (since the last
    ``COUNTERS.reset()``).

    ``cached`` is the number of maps held, and ``enum_seconds`` the
    time spent in section *enumeration* proper — building chain-scan
    engines and every kernel scan: family passes, off-chain and
    direct-write scans — separated from driver wall-clock for the
    profile table.  ``tables_shared``
    counts maps that adopted a flat table another map already held, and
    ``table_bytes`` the bytes of the distinct tables installed.
    """
    return {
        "hits": _HITS.value,
        "misses": _MISSES.value,
        "cached": len(_CACHE),
        "enum_seconds": float(_ENUM_SECONDS.value),
        "family_passes": _FAMILY_PASSES.value,
        "family_maps": _FAMILY_MAPS.value,
        "scalar_maps": _SCALAR_MAPS.value,
        "tables_shared": _TABLES_SHARED.value,
        "table_bytes": _TABLE_BYTES.value,
    }


def clear_cache() -> None:
    """Drop all cached maps (tests)."""
    _CACHE.clear()
