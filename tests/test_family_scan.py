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

import itertools

import pytest

from repro.core import cext
from repro.core.config import ClankConfig
from repro.sim import sections
from repro.sim.sections import build_family, clear_cache, get_section_map
from repro.workloads import get_trace


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
