"""Config-family chain scans must be bit-identical to scalar scans.

The batched family kernel (C ``family_chain_scan``) enumerates a whole
sweep family's section tables in one kernel call.  Every test here
builds the same family twice — once through
:func:`repro.sim.sections.build_family` and once config-by-config
through lazy per-key chain scans — and requires the fully-materialized
section dictionaries to match exactly, across PI markings, forced-checkpoint
resume variants, ragged member depths, and the output-segment overflow
retry.  The scalar chain scan is the oracle.  Without the C kernel
(the ``python`` parametrization, or ``REPRO_CEXT=0`` for the whole
file) ``build_family`` must make no family pass at all and leave every
map to enumerate lazily, with the same tables.
"""

import gc
import hashlib
import itertools
import weakref
from array import array

import pytest

from repro.compiler.epoch_analysis import compile_with_epochs
from repro.core import cext
from repro.core.config import ClankConfig, PolicyOptimizations
from repro.power.schedules import ExponentialPower
from repro.sim import fast, sections
from repro.sim.fast import simulate_fast
from repro.sim.sections import (
    SectionMap, build_family, clear_cache, get_section_map,
)
from repro.workloads import get_trace
from repro.workloads.registry import get_workload


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


def _scalar_tables(trace, configs, **kw):
    """Reference: per-config scalar scans (``section()`` on a map no
    family pass touched enumerates lazily)."""
    clear_cache()
    out = []
    for cfg in configs:
        m = get_section_map(trace, cfg, **kw)
        m.section(0, 0)  # walk the whole canonical chain
        out.append(dict(m._sections))
    clear_cache()
    return out


def _family_tables(trace, configs, **kw):
    before = sections.cache_stats()["family_passes"]
    maps = build_family(trace, configs, **kw)
    if cext.chain_scan_lib() is None:
        # No kernel, no family pass: every map enumerates lazily.
        assert sections.cache_stats()["family_passes"] == before
    out = []
    for m in maps:
        m.section(0, 0)
        # Serve every flat-stored section through the per-key path.
        flat_keys = m._flat[0] if m._flat is not None else ()
        for key in flat_keys:
            m.section(key >> 2, key & 3)
        out.append(dict(m._sections))
    return out


def _assert_equal(scalar, family, configs):
    for cfg, a, b in zip(configs, scalar, family):
        assert a == b, cfg


def _set_cext(monkeypatch, enabled):
    monkeypatch.setenv("REPRO_CEXT", "1" if enabled else "0")
    cext.reset_for_tests()
    assert (cext.chain_scan_lib() is not None) == enabled


@pytest.mark.parametrize("use_cext", [True, False],
                         ids=["cext", "python"])
class TestFamilyEquivalence:
    def test_capacity_grid(self, monkeypatch, use_cext):
        _set_cext(monkeypatch, use_cext)
        trace = get_trace("crc", "small")
        grid = _grid()
        scalar = _scalar_tables(trace, grid)
        family = _family_tables(trace, grid)
        _assert_equal(scalar, family, grid)

    def test_pi_marking(self, monkeypatch, use_cext):
        _set_cext(monkeypatch, use_cext)
        trace = get_trace("crc", "small")
        grid = _grid(rf=(2, 8), wf=(0, 4), wbb=(0, 2), apb=(0, 2))
        pi = frozenset(range(0, trace.compiled().n, 7))
        kw = dict(pi_access_indices=pi)
        scalar = _scalar_tables(trace, grid, **kw)
        family = _family_tables(trace, grid, **kw)
        _assert_equal(scalar, family, grid)

    def test_forced_resume_variants(self, monkeypatch, use_cext):
        # Forced checkpoints at index 0 and mid-trace exercise the
        # zero-length compiler section and the variant-1 resume, plus
        # the variant-2 direct re-entry after text writes.
        _set_cext(monkeypatch, use_cext)
        trace = get_trace("qsort", "small")
        n = trace.compiled().n
        forced = frozenset({0, n // 3, n // 2})
        grid = _grid(rf=(1, 8), wf=(0, 4), wbb=(0, 2), apb=(0,))
        kw = dict(forced_checkpoints=forced)
        scalar = _scalar_tables(trace, grid, **kw)
        family = _family_tables(trace, grid, **kw)
        _assert_equal(scalar, family, grid)

    def test_ragged_depths(self, monkeypatch, use_cext):
        # rf=1/wbb=0 fragments into many short sections while rf=24
        # spans the trace in a few — one family, wildly different
        # member depths.
        _set_cext(monkeypatch, use_cext)
        trace = get_trace("fft", "small")
        grid = [ClankConfig.from_tuple(t)
                for t in ((1, 0, 0, 0), (1, 1, 1, 0), (4, 4, 4, 4),
                          (24, 8, 4, 0), (16, 0, 2, 2))]
        scalar = _scalar_tables(trace, grid)
        family = _family_tables(trace, grid)
        _assert_equal(scalar, family, grid)


def test_overflow_retry_is_exact(monkeypatch):
    # Force the kernel's per-member output segments far below the
    # section count so scan() must double-and-retry; the persistent
    # generation write-back keeps the retried results identical.
    if cext.chain_scan_lib() is None:
        pytest.skip("C kernel unavailable")
    trace = get_trace("fft", "small")  # hundreds of sections per member
    grid = _grid(rf=(1, 2), wf=(0, 1), wbb=(0, 2), apb=(0,))
    scalar = _scalar_tables(trace, grid)
    saved = cext._FAM_PERCAP[0]
    cext._FAM_PERCAP[0] = 4
    try:
        family = _family_tables(trace, grid)
        assert cext._FAM_PERCAP[0] > 4  # the retry actually fired
    finally:
        cext._FAM_PERCAP[0] = saved
    _assert_equal(scalar, family, grid)


def test_single_member_degrades_to_scalar(monkeypatch):
    # A one-config family is a one-member pass (or, without the kernel,
    # a lazy scalar scan); the family counters must not claim a batched
    # pass for it.
    trace = get_trace("crc", "small")
    before = sections.cache_stats()
    maps = build_family(trace, [ClankConfig.from_tuple((8, 4, 2, 0))])
    maps[0].section(0, 0)
    after = sections.cache_stats()
    assert maps[0]._sections
    assert after["family_passes"] == before["family_passes"]
    assert after["family_maps"] == before["family_maps"]


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
    assert all(m._detector is None for m in maps)


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
    # Off-chain resolves under Performance-Watchdog cuts and per-key
    # serving out of the flat tables must only read the shared arrays.
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
    perf_loads, flat_gets = [], []
    resolve, flat_get = fast._resolve, SectionMap._flat_get

    def counting_resolve(smap, key, perf_load):
        perf_loads.append(perf_load)
        return resolve(smap, key, perf_load)

    def counting_flat_get(self, key):
        flat_gets.append(key)
        return flat_get(self, key)

    monkeypatch.setattr(fast, "_resolve", counting_resolve)
    monkeypatch.setattr(SectionMap, "_flat_get", counting_flat_get)
    maps = _walk_all(trace, grid)
    for m in maps:
        for key in m._flat[0]:
            m.section(key >> 2, key & 3)
    assert any(p > 0 for p in perf_loads)
    assert flat_gets
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
