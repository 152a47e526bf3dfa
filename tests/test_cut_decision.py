"""The C walk's watchdog-cut decision against its Python oracle.

The section walk decides in C (``sw_cut_safe`` in ``_chainscan.c``)
whether a watchdog cut below the furthest executed index keeps it exact
under ignore-false-writes.  Hypothesis generates the decision's inputs —
a section of a map's canonical chain, the cut ``p``, the furthest index
``f``, and time-ordered ``(reach, start)`` pairs tagged with this
section or an earlier one — over real small traces (``crc``, ``rc4``,
``qsort``) and short generated ones, for one- and two-entry write
buffers (with two read entries or sixteen), with and without
access-marked PI writes.  The C decision must equal
:func:`tests.cut_oracle.watchdog_cut_safe`.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.core import cext
from repro.core.config import ClankConfig, PolicyOptimizations
from repro.sim.sections import build_family
from repro.trace.access import READ, WRITE
from repro.workloads import get_trace

from tests.conftest import make_trace
from tests.cut_oracle import c_decision, direct_writes, watchdog_cut_safe

#: Write-buffer capacities; the read buffer has two entries or sixteen.
CAPACITIES = (1, 2)

_MAPS = {}


def _config(rf: int, capacity: int) -> ClankConfig:
    return ClankConfig(
        rf, capacity, capacity, 0,
        optimizations=PolicyOptimizations(ignore_false_writes=True),
    )


def _sections(smap) -> list:
    """The map's canonical sections ``(start, variant, end)`` long
    enough to cut."""
    keys, ends = smap._flat[0], smap._flat[1]
    return [(k >> 2, k & 3, end) for k, end in zip(keys, ends)
            if end > (k >> 2) + 1]


def _real_map(name: str, rf: int, capacity: int, pi_stride: int):
    """``(map, sections)`` of ``name`` (small), every ``pi_stride``-th
    write access-marked PI (none for 0)."""
    key = (name, rf, capacity, pi_stride)
    if key not in _MAPS:
        trace = get_trace(name, "small")
        writes = [j for j, kind in enumerate(trace.compiled().kinds)
                  if kind]
        pi = frozenset(writes[::pi_stride]) if pi_stride else None
        smap = build_family(trace, [_config(rf, capacity)],
                            pi_access_indices=pi)[0]
        _MAPS[key] = (smap, _sections(smap))
    return _MAPS[key]


@st.composite
def real_maps(draw):
    return _real_map(
        draw(st.sampled_from(("crc", "rc4", "qsort"))),
        draw(st.sampled_from((2, 16))),
        draw(st.sampled_from(CAPACITIES)),
        draw(st.sampled_from((0, 2, 5))),
    )


@st.composite
def generated_maps(draw):
    """A short generated trace over three words and three values, with
    a random set of its writes access-marked PI.  Dead stores, false
    writes and rewrites of a word are common here; real programs rarely
    store to a word twice without reading it, which is when the PI-write
    skip decides a cut."""
    write = st.tuples(st.just(WRITE), st.integers(0, 2), st.integers(0, 2))
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just(READ), st.integers(0, 2)), write, write,
    ), min_size=12, max_size=48))
    pi = frozenset(j for j, op in enumerate(ops)
                   if op[0] == WRITE and draw(st.booleans()))
    smap = build_family(
        make_trace(ops, name="cuts"),
        [_config(draw(st.sampled_from((2, 16))),
                 draw(st.sampled_from(CAPACITIES)))],
        pi_access_indices=pi or None,
    )[0]
    sections = _sections(smap)
    assume(sections)
    return smap, sections


@st.composite
def real_cuts(draw):
    """A real map, a section of it, and one cut's decision inputs."""
    smap, sections = draw(real_maps())
    start, variant, end = draw(st.sampled_from(sections))
    # A cut lands inside the section, below the furthest index (<= n);
    # half the cuts land at or below one of its direct writes.
    hi = min(end, smap.n - 1)
    dw = [d for d in direct_writes(smap, start, variant) if d > start]
    if dw and draw(st.booleans()):
        hi = min(hi, draw(st.sampled_from(dw)))
    p = draw(st.integers(start + 1, hi))
    f = draw(st.integers(p + 1, min(smap.n, end + 8)))
    tags = st.sampled_from((start, start, start, start - 1))
    reaches = draw(st.lists(
        st.tuples(st.integers(start, f), tags), max_size=6))
    # Half the time the latest failed cycle of the section reached f.
    if draw(st.booleans()):
        reaches.append((f, start))
    return smap, start, variant, p, f, reaches


#: Failed-cycle reach patterns: ``(fraction of the way from the
#: section's start to f, whether tagged with this section)``, oldest
#: first.
reach_patterns = st.lists(
    st.tuples(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0)), st.booleans()),
    min_size=1, max_size=4,
)


def every_cut(smap, sections, pattern):
    """Every cut of every section of a generated map: each cut ``p``,
    each furthest index ``f`` up to 8 past the section, and the reach
    ``pattern`` laid over ``[start, f]``."""
    for start, variant, end in sections:
        for p in range(start + 1, min(end, smap.n - 1) + 1):
            for f in range(p + 1, min(smap.n, end + 8) + 1):
                reaches = [
                    (start + round(x * (f - start)),
                     start if mine else start - 1)
                    for x, mine in pattern
                ]
                yield smap, start, variant, p, f, reaches


@pytest.fixture(scope="module", autouse=True)
def _kernel():
    if cext.chain_scan_lib() is None:
        pytest.skip(f"C kernel unavailable: {cext.cext_status()}")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cut=real_cuts())
def test_c_decision_equals_oracle_on_real_traces(cut):
    assert c_decision(*cut) == watchdog_cut_safe(*cut)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(generated=generated_maps(), pattern=reach_patterns)
def test_c_decision_equals_oracle_on_generated_traces(generated, pattern):
    for cut in every_cut(*generated, pattern):
        assert c_decision(*cut) == watchdog_cut_safe(*cut), cut[1:]


def test_generated_cuts_reach_both_verdicts():
    # The generator is only a check if it reaches unsafe cuts as well
    # as safe ones that needed the word-by-word judgement.
    verdicts = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(generated=generated_maps(), pattern=reach_patterns)
    def collect(generated, pattern):
        for cut in every_cut(*generated, pattern):
            smap, start, variant, p, f, reaches = cut
            if any(r > p and tag == start for r, tag in reaches):
                verdicts.add(watchdog_cut_safe(*cut))

    collect()
    assert verdicts == {True, False}
