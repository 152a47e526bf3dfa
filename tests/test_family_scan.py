"""The C chain scan against its Python oracle, one member or a family.

One kernel (``chain_scan`` in ``_chainscan.c``) enumerates a whole
sweep family's section tables in one call, and a map's off-chain and
direct-write scans as a one-member call.  The fixed-trace tests build
the same family twice — once through
:func:`repro.sim.sections.build_family` and once config-by-config —
and require the canonical chains to match exactly, across PI markings,
forced-checkpoint resume variants, ragged member depths, and the
output-segment overflow retry.  The per-config oracle is a one-member
kernel scan (the ``cext`` parametrization) or the Python chain the
kernel ports (``python``: :func:`tests.chain_oracle.oracle_chain` over
:func:`repro.core.detector.scan_section`).  The generated-trace tests
check the kernel against that chain on short Hypothesis traces: every
member of a family pass, and one-member scans from any entry with the
rejoin stop, a Performance Watchdog limit and direct-write output.  On
the same traces the Python section scan is checked against the
per-access reference (``IdempotencyDetector.on_read``/``on_write``):
its boundary, its buffer growth steps and its RF peak.
Without the C kernel (``REPRO_CEXT=0``) ``build_family`` must make no
family pass at all: every run then goes to the reference simulator, and
no map grows a table.

The rows of one ``simulate_batch`` call decide which maps enumerate
together: a sweep of N cold configs makes ceil(N / FAMILY_CHUNK)
counted passes however it reaches the dispatcher (``run_jobs``, with or
without the architecture collector, or a sweep server's bridge), and a
one-row run makes one uncounted one-member pass.
"""

import gc
import hashlib
import itertools
import weakref
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro.cache as artifact_cache
from repro.compiler.epoch_analysis import compile_with_epochs
from repro.core import cext
from repro.core.config import ClankConfig, PolicyOptimizations
from repro.core.detector import (
    CHECKPOINT, CHECKPOINT_THEN_WRITE, PROCEED, IdempotencyDetector,
    kernel_params, scan_section,
)
from repro.eval.parallel import SimJob, run_jobs
from repro.eval.settings import EvalSettings
from repro.obs.analyze import COLLECTOR as ARCH_COLLECTOR
from repro.power.schedules import ExponentialPower
from repro.trace.access import READ, WRITE
from repro.serve import ServeClient, start_in_background
from repro.sim import fast, sections
from repro.sim.fast import simulate_fast
from repro.sim.sections import (
    SectionMap, build_family, clear_cache, get_section_map,
)
from repro.workloads import get_trace
from repro.workloads.registry import get_workload

from tests.chain_oracle import oracle_chain
from tests.conftest import DATA_WORD, make_trace


@pytest.fixture(autouse=True)
def _isolate():
    """Each test starts from an empty SectionMap cache and the kernel
    resolved afresh from ``REPRO_CEXT``."""
    cext.reset_for_tests()
    clear_cache()
    yield
    clear_cache()
    cext.reset_for_tests()


def _grid(rf=(1, 2, 8, 16), wf=(0, 1, 8), wbb=(0, 2), apb=(0, 2)):
    return [ClankConfig.from_tuple(t)
            for t in itertools.product(rf, wf, wbb, apb)]


def _python_chain(m):
    """The canonical chain of map ``m`` from the Python section scan."""
    return [sec[:4] for sec in oracle_chain(m)]


def _scalar_tables(trace, configs, oracle="cext", **kw):
    """Reference: per-config scalar scans of the canonical chain, on maps
    no family pass touched."""
    clear_cache()
    out = []
    for cfg in configs:
        m = get_section_map(trace, cfg, **kw)
        if oracle == "python":
            out.append(_python_chain(m))
        else:
            out.append([(key, end, cid, tuple(steps))
                        for key, end, cid, steps in m.scan_chain(0, 0)])
    clear_cache()
    return out


def _flat_chain(m):
    """Map ``m``'s flat canonical chain, one tuple per section."""
    keys, ends, causes, soff, steps = m._flat
    return [
        (keys[j], ends[j], causes[j], tuple(steps[soff[j]:soff[j + 1]]))
        for j in range(len(keys))
    ]


def _family_tables(trace, configs, **kw):
    return [_flat_chain(m) for m in build_family(trace, configs, **kw)]


def _assert_equal(scalar, family, configs):
    for cfg, a, b in zip(configs, scalar, family):
        assert a == b, cfg


@pytest.fixture
def c_kernel():
    if cext.chain_scan_lib() is None:
        pytest.skip("C kernel unavailable")


@pytest.mark.parametrize("oracle", ["cext", "python"])
@pytest.mark.usefixtures("c_kernel")
class TestFamilyEquivalence:
    def test_capacity_grid(self, oracle):
        trace = get_trace("crc", "small")
        grid = _grid()
        scalar = _scalar_tables(trace, grid, oracle)
        family = _family_tables(trace, grid)
        _assert_equal(scalar, family, grid)

    def test_pi_marking(self, oracle):
        trace = get_trace("crc", "small")
        grid = _grid(rf=(2, 8), wf=(0, 4), wbb=(0, 2), apb=(0, 2))
        pi = frozenset(range(0, trace.compiled().n, 7))
        kw = dict(pi_access_indices=pi)
        scalar = _scalar_tables(trace, grid, oracle, **kw)
        family = _family_tables(trace, grid, **kw)
        _assert_equal(scalar, family, grid)

    def test_forced_resume_variants(self, oracle):
        # Forced checkpoints at index 0 and mid-trace exercise the
        # zero-length compiler section and the variant-1 resume, plus
        # the variant-2 direct re-entry after text writes.
        trace = get_trace("qsort", "small")
        n = trace.compiled().n
        forced = frozenset({0, n // 3, n // 2})
        grid = _grid(rf=(1, 8), wf=(0, 4), wbb=(0, 2), apb=(0,))
        kw = dict(forced_checkpoints=forced)
        scalar = _scalar_tables(trace, grid, oracle, **kw)
        family = _family_tables(trace, grid, **kw)
        _assert_equal(scalar, family, grid)

    def test_ragged_depths(self, oracle):
        # rf=1/wbb=0 fragments into many short sections while rf=24
        # spans the trace in a few — one family, wildly different
        # member depths.
        trace = get_trace("fft", "small")
        grid = [ClankConfig.from_tuple(t)
                for t in ((1, 0, 0, 0), (1, 1, 1, 0), (4, 4, 4, 4),
                          (24, 8, 4, 0), (16, 0, 2, 2))]
        scalar = _scalar_tables(trace, grid, oracle)
        family = _family_tables(trace, grid)
        _assert_equal(scalar, family, grid)


def test_no_kernel_makes_no_family_pass(monkeypatch):
    # Without the kernel nothing walks a section map: build_family makes
    # no pass, and runs over its maps go to the reference untouched.
    monkeypatch.setenv("REPRO_CEXT", "0")
    cext.reset_for_tests()
    trace = get_trace("crc", "small")
    grid = _grid(rf=(2, 8), wf=(0, 4), wbb=(0, 2), apb=(0,))
    before = sections.cache_stats()
    maps = _walk_all(trace, grid)
    build_family(trace, grid)
    after = sections.cache_stats()
    assert fast.last_dispatch() == ("reference", "no_cext", None)
    assert after["family_passes"] == before["family_passes"]
    assert all(m._flat is None and m._tab is None for m in maps)


def test_overflow_retry_is_exact(monkeypatch):
    # Force the kernel's per-member output segments far below the
    # section count so scan() must double-and-retry; the persistent
    # generation write-back keeps the retried results identical.
    if cext.chain_scan_lib() is None:
        pytest.skip("C kernel unavailable")
    trace = get_trace("fft", "small")  # hundreds of sections per member
    grid = _grid(rf=(1, 2), wf=(0, 1), wbb=(0, 2), apb=(0,))
    scalar = _scalar_tables(trace, grid)
    saved = cext._SEG[0]
    cext._SEG[0] = 4
    try:
        family = _family_tables(trace, grid)
        assert cext._SEG[0] > 4  # the retry actually fired
    finally:
        cext._SEG[0] = saved
    _assert_equal(scalar, family, grid)


def test_single_member_degrades_to_scalar(monkeypatch):
    # A one-config family is a one-member pass (or, without the kernel,
    # no pass); the family counters must not claim a batched pass for
    # it, and the map counts as built scalar exactly when it is scanned.
    trace = get_trace("crc", "small")
    config = ClankConfig.from_tuple((8, 4, 2, 0))
    sections.clear_cache()
    before = sections.cache_stats()
    maps = build_family(trace, [config])
    after = sections.cache_stats()
    build_family(trace, [config])  # already enumerated: no second scan
    assert sections.cache_stats()["scalar_maps"] == after["scalar_maps"]
    if cext.chain_scan_lib() is None:
        assert maps[0]._flat is None
    else:
        assert _flat_chain(maps[0]) == _scalar_tables(trace, [config])[0]
    assert after["family_passes"] == before["family_passes"]
    assert after["family_maps"] == before["family_maps"]
    scanned = cext.chain_scan_lib() is not None
    assert after["scalar_maps"] == before["scalar_maps"] + scanned


def test_family_counters_and_cache_population(monkeypatch):
    if cext.chain_scan_lib() is None:
        pytest.skip("C kernel unavailable")
    trace = get_trace("crc", "small")
    grid = _grid(rf=(2, 8), wf=(0, 4), wbb=(0, 2), apb=(0,))
    before = sections.cache_stats()
    build_family(trace, grid)
    after = sections.cache_stats()
    assert after["family_passes"] == before["family_passes"] + 1
    assert after["family_maps"] == before["family_maps"] + len(grid)
    assert after["scalar_maps"] == before["scalar_maps"]
    # Every member is now cache-resident: no further scans needed.
    stats0 = sections.cache_stats()
    for cfg in grid:
        get_section_map(trace, cfg)
    stats1 = sections.cache_stats()
    assert stats1["misses"] == stats0["misses"]


def _walk_all(trace, grid, **kw):
    """One fast-path run per config, both watchdogs on (so C walks also
    resolve off-chain sections); returns the walked maps."""
    for cfg in grid:
        simulate_fast(trace, cfg, ExponentialPower(700, seed=3),
                      verify=False, perf_watchdog="auto",
                      progress_watchdog="auto", **kw)
    return [get_section_map(trace, cfg, **kw) for cfg in grid]


def test_c_paths_build_no_detector():
    # A family pass plus C walks read only the config-derived kernel
    # ints: no member may carry an IdempotencyDetector.
    if cext.chain_scan_lib() is None:
        pytest.skip("C kernel unavailable")
    trace = get_trace("crc", "small")
    grid = _grid(rf=(1, 8), wf=(0, 4), wbb=(0, 2), apb=(0, 2))
    build_family(trace, grid)
    maps = _walk_all(trace, grid)
    assert all(m._tab is not None for m in maps)  # the C walk ran
    assert any(m._ov is not None for m in maps)  # and went off-chain
    assert not any(isinstance(getattr(m, slot, None), IdempotencyDetector)
                   for m in maps for slot in SectionMap.__slots__)


def test_forced_mask_shared_per_trace_and_forced_set():
    # Every map of one (trace, forced set) walks over one mask object;
    # under epoch marking it equals the per-map mask a walk built before
    # the mask moved to the compiled trace.
    trace = get_trace("qsort", "small")
    ct = trace.compiled()
    plan = compile_with_epochs(trace)
    kw = dict(pi_access_indices=plan.ignorable,
              forced_checkpoints=plan.boundaries)
    assert plan.boundaries
    # Ignore-false-writes off: with it, access-marked PI writes are a
    # static hazard and the fast path would not walk these maps.
    opts = PolicyOptimizations(remove_duplicates=True)
    grid = [ClankConfig(*t, optimizations=opts)
            for t in itertools.product((2, 8), (0, 4), (0, 2), (0,))]
    build_family(trace, grid, **kw)
    maps = _walk_all(trace, grid, **kw)
    mask = ct.forced_mask(maps[0].forced)
    assert all(ct.forced_mask(m.forced) is mask for m in maps)
    expected = array("B", bytes(ct.n + 1))
    for f in plan.boundaries:
        if f <= ct.n:
            expected[f] = 1
    assert mask == expected
    if cext.chain_scan_lib() is not None:
        assert {m._tab[3] for m in maps} == {mask.buffer_info()[0]}


def test_walked_map_freed_without_cyclic_gc():
    # Nothing a map holds refers back to it, so dropping the cache frees
    # a walked map by reference counting alone.
    trace = get_trace("fft", "small")
    config = ClankConfig(
        2, 1, 1, 0,
        optimizations=PolicyOptimizations(ignore_false_writes=True),
    )
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        [smap] = _walk_all(trace, [config])
        if cext.chain_scan_lib() is not None:
            assert smap._tab is not None and smap._ov is not None
        ref = weakref.ref(smap)
        del smap
        clear_cache()
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


# --------------------------------------------------------------------- #
# Shared flat tables.
# --------------------------------------------------------------------- #


def _fresh_trace():
    """An fft trace no cache holds, so its table registry starts empty
    (small fft sections differ between ``rf=1`` and larger RFs)."""
    return get_workload("fft").build(size="small")


def _content(table):
    return tuple(a.tobytes() for a in table)


def _by_content(maps):
    groups = {}
    for m in maps:
        groups.setdefault(_content(m._flat), []).append(m)
    return list(groups.values())


def test_equal_chains_share_tables():
    # Members whose canonical chains are equal hold the very same
    # arrays; members whose chains differ do not share any.
    if cext.chain_scan_lib() is None:
        pytest.skip("C kernel unavailable")
    trace = _fresh_trace()
    grid = _grid(rf=(1, 8, 16), wf=(0, 4), wbb=(0, 2), apb=(0, 2))
    before = sections.cache_stats()
    maps = build_family(trace, grid)
    after = sections.cache_stats()
    groups = _by_content(maps)
    assert any(len(g) > 1 for g in groups) and len(groups) > 1
    for group in groups:
        assert all(m._flat is group[0]._flat for m in group)
        for a, b in zip(group[0]._flat, group[-1]._flat):
            assert a is b
    owners = [g[0]._flat for g in groups]
    for i, t in enumerate(owners):
        for u in owners[i + 1:]:
            assert all(a is not b for a, b in zip(t, u))
    assert (after["tables_shared"] - before["tables_shared"]
            == len(maps) - len(groups))
    assert after["table_bytes"] - before["table_bytes"] == sum(
        a.itemsize * len(a) for t in owners for a in t
    )


def test_watchdog_sweep_leaves_shared_tables_untouched(monkeypatch):
    # Off-chain resolves under Performance-Watchdog cuts and walks over
    # the flat tables must only read the shared arrays.
    if cext.chain_scan_lib() is None:
        pytest.skip("C kernel unavailable")
    trace = _fresh_trace()
    grid = _grid(rf=(1, 8, 16), wf=(0, 4), wbb=(0, 2), apb=(0, 2))
    shared = [g[0]._flat for g in _by_content(build_family(trace, grid))
              if len(g) > 1]
    assert shared

    def digests():
        return [hashlib.sha256(a).hexdigest() for t in shared for a in t]

    before = digests()
    perf_loads = []
    resolve = fast._resolve

    def counting_resolve(smap, key, perf_load):
        perf_loads.append(perf_load)
        return resolve(smap, key, perf_load)

    monkeypatch.setattr(fast, "_resolve", counting_resolve)
    _walk_all(trace, grid)
    assert any(p > 0 for p in perf_loads)
    assert digests() == before


def test_table_registry_freed_with_trace():
    # The registry lives on the compiled trace and refers to no map, so
    # dropping the trace and its maps frees the shared tables by
    # reference counting alone.
    if cext.chain_scan_lib() is None:
        pytest.skip("C kernel unavailable")
    trace = _fresh_trace()
    grid = _grid(rf=(1, 8, 16), wf=(0, 4), wbb=(0, 2), apb=(0,))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        maps = _walk_all(trace, grid)
        tables = trace.compiled().section_tables
        assert tables is not None and tables.by_shape
        refs = [weakref.ref(a) for m in maps for a in m._flat]
        del maps, tables, trace
        clear_cache()
        assert all(ref() is None for ref in refs)
    finally:
        if was_enabled:
            gc.enable()


# --------------------------------------------------------------------- #
# Family passes follow the rows of a sweep group.
# --------------------------------------------------------------------- #

#: 40 distinct configs over one trace: one pass of FAMILY_CHUNK and one
#: of the remaining 8.
SWEEP = [
    SimJob(workload="crc", config=spec, size="small", salt=salt)
    for salt, spec in enumerate(itertools.product(
        (1, 2, 4, 8, 16), (0, 1, 4, 8), (0, 2), (0,)))
]

SWEEP_SETTINGS = EvalSettings(size="small", verify=False)


@pytest.fixture
def no_store(monkeypatch):
    """Every job simulates: no ambient result store."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    artifact_cache.reset_for_tests()
    yield
    artifact_cache.reset_for_tests()


def _family_delta(run) -> tuple:
    """``(family_passes, family_maps)`` that ``run()`` added."""
    before = sections.cache_stats()
    run()
    after = sections.cache_stats()
    return (after["family_passes"] - before["family_passes"],
            after["family_maps"] - before["family_maps"])


def _sweep_passes() -> tuple:
    n = len(SWEEP)
    return (-(-n // sections.FAMILY_CHUNK), n)


@pytest.mark.usefixtures("c_kernel", "no_store")
class TestPassesFollowRows:
    def test_run_jobs(self):
        got = _family_delta(lambda: run_jobs(SWEEP, SWEEP_SETTINGS))
        assert got == _sweep_passes() == (2, 40)

    def test_run_jobs_under_arch_collector(self):
        # --arch sweeps run grouped too, so their maps come from the
        # same family passes.
        ARCH_COLLECTOR.reset()
        ARCH_COLLECTOR.enable()
        try:
            got = _family_delta(lambda: run_jobs(SWEEP, SWEEP_SETTINGS))
            folded = sum(ARCH_COLLECTOR.run_totals().values())
        finally:
            ARCH_COLLECTOR.disable()
            ARCH_COLLECTOR.reset()
        assert got == _sweep_passes()
        assert folded == len(SWEEP)

    def test_served_batch(self):
        # The bridge cuts the group into FAMILY_CHUNK-job chunks, each
        # one simulate_batch call whose cold maps make one pass.
        handle = start_in_background()
        try:
            got = _family_delta(lambda: ServeClient(handle.url).run_jobs(
                SWEEP, SWEEP_SETTINGS))
        finally:
            handle.stop()
        assert got == _sweep_passes()

    def test_one_row_run_makes_one_member_pass(self, monkeypatch):
        passes = []
        scan = sections._family_scan_chunk

        def counting_scan(shift, maps):
            passes.append(len(maps))
            return scan(shift, maps)

        monkeypatch.setattr(sections, "_family_scan_chunk", counting_scan)
        trace = get_trace("crc", "small")
        config = ClankConfig.from_tuple((8, 4, 2, 0))
        got = _family_delta(lambda: simulate_fast(
            trace, config, ExponentialPower(2000, seed=1), verify=False,
            progress_watchdog="auto"))
        assert passes == [1] and got == (0, 0)
        assert fast.last_dispatch() == ("fast", None, "c")
        assert get_section_map(trace, config)._flat is not None


# --------------------------------------------------------------------- #
# Generated traces: the kernel against the Python chain, and the Python
# section scan against the per-access reference.
# --------------------------------------------------------------------- #

#: Word offsets from the data segment of two data words, a text word
#: and an MMIO word.
DATA_OFFS = (0, 1)
TEXT_OFF = 0x100 - DATA_WORD
MMIO_OFF = (0x4000_0000 >> 2) - DATA_WORD


@st.composite
def configs(draw):
    """A configuration with small buffers, any policy optimizations, and
    a one-bit APB prefix (the data words share one, the text word has
    another)."""
    opts = PolicyOptimizations(*draw(st.lists(
        st.booleans(), min_size=5, max_size=5)))
    return ClankConfig(
        draw(st.sampled_from((1, 1, 2, 16))), draw(st.integers(0, 2)),
        draw(st.integers(0, 2)), draw(st.integers(0, 2)),
        optimizations=opts, prefix_low_bits=1,
    )


@st.composite
def scan_inputs(draw):
    """A short generated trace — data reads and writes, text reads and
    writes, MMIO output writes — with PI-marked accesses and words and
    forced checkpoints: ``(trace, map keywords)``."""
    value = st.integers(0, 2)
    data = st.sampled_from(DATA_OFFS)
    word = st.sampled_from(DATA_OFFS + (TEXT_OFF,))
    # Read-modify-writes make idempotency violations common; one motif
    # in five is a text write and one an output, each of which can end
    # a section.
    ops = [op for ops in draw(st.lists(st.one_of(
        st.tuples(st.just(READ), word).map(lambda op: [op]),
        st.tuples(data, value).map(
            lambda av: [(READ, av[0]), (WRITE, *av)]),
        st.tuples(st.just(WRITE), data, value).map(lambda op: [op]),
        st.tuples(st.just(WRITE), st.just(TEXT_OFF), value).map(
            lambda op: [op]),
        st.tuples(st.just(WRITE), st.just(MMIO_OFF), value).map(
            lambda op: [op]),
    ), min_size=8, max_size=32)) for op in ops]
    n = len(ops)
    indices = st.frozensets(st.integers(0, n - 1), max_size=n // 6)
    return make_trace(ops, name="scan"), dict(
        pi_access_indices=draw(indices) or None,
        # Now and then the last data word is marked PI.
        pi_words=draw(st.sampled_from(
            (None, None, None, frozenset({DATA_WORD + DATA_OFFS[-1]})))),
        forced_checkpoints=draw(st.frozensets(
            st.integers(0, n), max_size=4)) or None,
    )


#: Generated examples per test; the map cache is shared across them.
#: Family passes get more: the rarer branches (a WBB-owned write in the
#: untracked tail, say) need one member of the right shape.
GENERATED = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.usefixtures("c_kernel")
class TestGeneratedTraces:
    @settings(GENERATED, max_examples=300)
    @given(scan_inputs(), st.lists(configs(), min_size=2, max_size=8))
    def test_family_pass_matches_generator(self, inputs, family):
        # A K-member pass: every member's flat chain is the oracle's.
        trace, kw = inputs
        for m in build_family(trace, family, **kw):
            assert _flat_chain(m) == [
                sec[:4] for sec in oracle_chain(m, 0, 0)
            ], m.config

    @GENERATED
    @given(scan_inputs(), configs(), st.data())
    def test_one_member_entries_match_generator(self, inputs, config, data):
        # One-member scans from generated entries: a chain up to where it
        # rejoins the canonical chain, under a Performance Watchdog load,
        # and a section's direct writes.
        trace, kw = inputs
        [m] = build_family(trace, [config], **kw)
        start = data.draw(st.integers(0, m.n - 1))
        variant = data.draw(st.sampled_from((0, 1, 2)))
        perf_load = data.draw(st.sampled_from((0, 4, 9, 16, 40)))
        stop = m._flat[0]
        assert m.scan_chain(start, variant, perf_load) == [
            (key, end, cid, array("i", steps) if steps else ())
            for key, end, cid, steps, _ in oracle_chain(
                m, start, variant, set(stop), perf_load)
        ]
        dw = oracle_chain(m, start, variant)[0][4]
        assert list(m.direct_writes(start, variant)) == list(dw)


def _reference_section(m, start, variant):
    """The section of map ``m`` at ``(start, variant)``, stepped access by
    access through a fresh :class:`IdempotencyDetector` the way the
    reference simulator drives it, in :func:`scan_section`'s shape:
    ``(end, cause, wbb_steps, dw_steps, rf_steps, wf_steps, apb_steps,
    rf_peak)``."""
    ct = m.ct
    det = IdempotencyDetector(m.config, ct.text_range)
    forced = set(m._forced_sorted)
    grown = {"rf": [], "wf": [], "wbb": [], "apb": []}
    dw = []
    rf_peak = 0
    end, cause = ct.n, "final"
    i = start + 1 if variant == 2 else start
    while i < ct.n:
        w = ct.waddrs[i]
        if i in forced and not (variant == 1 and i == start):
            end, cause = i, "compiler"
            break
        if ct.out_writes[i]:
            end, cause = i, "output"
            break
        if w in m.pi_words or i in m.pi_indices:
            i += 1  # Program Idempotent: the hardware ignores it
            continue
        before = det.occupancy()
        if ct.kinds[i] == READ:
            action, why = det.on_read(w)
            direct = False
        else:
            # A write-first-path write: tracked, and not to a read-first
            # word (that write is a violation or a false write).
            direct = not det.untracked and w not in det.rf
            # A false write writes the value the word already holds.
            action, why = det.on_write(w, 1, ct.false_writes[i])
        if action in (CHECKPOINT, CHECKPOINT_THEN_WRITE):
            end, cause = i, why
            break
        after = det.occupancy()
        for buf, steps in grown.items():
            if after[buf] > before[buf]:
                steps.append(i)
        rf_peak = max(rf_peak, after["rf"])
        if direct and action == PROCEED:
            dw.append(i)
        i += 1
    return (end, cause, grown["wbb"], dw, grown["rf"], grown["wf"],
            grown["apb"], rf_peak)


class TestSectionScan:
    @GENERATED
    @given(scan_inputs(), configs(), st.data())
    def test_matches_reference_detector(self, inputs, config, data):
        # The one Python section scan against the per-access reference
        # over the same section, from a generated entry and from every
        # entry of the canonical chain: its boundary and cause, the
        # indices at which each buffer grew, its direct writes and its
        # RF peak.  Needs no C kernel.
        trace, kw = inputs
        m = get_section_map(trace, config, **kw)
        entries = {(data.draw(st.integers(0, m.n - 1)),
                    data.draw(st.sampled_from((0, 1, 2))))}
        entries.update((key >> 2, key & 3) for key, *_ in oracle_chain(m))
        for start, variant in sorted(entries):
            assert scan_section(
                m.ct, kernel_params(config), config.prefix_low_bits,
                m._forced_sorted, m.pi_words, m.pi_indices, start, variant,
            ) == _reference_section(m, start, variant), (start, variant)
