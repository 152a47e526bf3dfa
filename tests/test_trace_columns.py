"""Column-derived trace products against a per-``Access`` oracle.

Traces are stored as typed ``array`` columns and every derived form
(compiled columns, scan/prefix ids, Program-Idempotence and epoch
marking, final memory, validation) is a pass over them.  Hypothesis
drives random programs through :class:`TracedMemory` and, alongside, a
subclass of the per-call capture oracle that also keeps the log as a
plain list of :class:`Access` objects; the oracle functions below
recompute each product of the ``TracedMemory`` trace the per-object
way, one access at a time.
"""

import gc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.common.errors import TraceError
from repro.compiler.epoch_analysis import (
    compile_with_epochs,
    epoch_program_idempotence,
    plan_boundaries,
)
from repro.compiler.program_idempotence import profile_program_idempotent
from repro.mem.traced import TracedMemory
from repro.trace.access import READ, WRITE, Access
from repro.trace.trace import COLUMNS, Trace
from tests.traced_oracle import OracleMemory as CallOracle

TEXT = 0x0000_0000
DATA = 0x2000_0000
UNMAPPED = 0x6000_0000  # outside every segment: an output, but not MMIO


class OracleMemory(CallOracle):
    """The per-call capture oracle, also logging one ``Access`` per access."""

    def __init__(self, name):
        super().__init__(name)
        self.oracle = []

    def _record(self, kind, waddr, value, latency):
        cycles = self._pending_cycles + latency + self.compute_overhead
        self.oracle.append(Access(kind, waddr, value, cycles))
        super()._record(kind, waddr, value, latency)


# ---- per-Access oracles ------------------------------------------------ #


def oracle_out_writes(trace, accesses):
    lo, hi = trace.memory_map.word_range("mmio")
    return [a.kind != READ and lo <= a.waddr < hi for a in accesses]


def oracle_false_writes(trace, accesses):
    view = dict(trace.initial_image)
    out = []
    for a in accesses:
        if a.kind == READ:
            out.append(False)
        else:
            out.append(view.get(a.waddr, 0) == a.value)
            view[a.waddr] = a.value
    return out


def oracle_cum_cycles(accesses):
    cum = [0]
    for a in accesses:
        cum.append(cum[-1] + a.cycles)
    return cum


def oracle_scan(trace, accesses, text_lo, text_hi):
    outs = oracle_out_writes(trace, accesses)
    false = oracle_false_writes(trace, accesses)
    ids, ops, wids = {}, [], []
    for i, a in enumerate(accesses):
        wids.append(ids.setdefault(a.waddr, len(ids)))
        op = 0 if a.kind == READ else 1
        if text_lo <= a.waddr < text_hi:
            op |= 2
        if outs[i]:
            op |= 4
        if false[i]:
            op |= 8
        ops.append(op)
    return ops, wids, len(ids)


def oracle_prefix_ids(accesses, shift):
    ids = {}
    return [ids.setdefault(a.waddr >> shift, len(ids)) for a in accesses], len(ids)


def oracle_pi_words(trace, accesses):
    read_seen, disqualified, touched = set(), set(), set()
    for a in accesses:
        touched.add(a.waddr)
        if a.kind == READ:
            read_seen.add(a.waddr)
        else:
            if a.waddr in read_seen:
                disqualified.add(a.waddr)
            if trace.memory_map.is_output(a.waddr << 2):
                disqualified.add(a.waddr)
    return frozenset(touched - disqualified)


def oracle_boundaries(trace, accesses, target):
    markers = sorted({m.index for m in trace.markers
                      if 0 < m.index < len(accesses)})
    boundaries, elapsed, nm = [], 0, 0
    for i, a in enumerate(accesses):
        elapsed += a.cycles
        if elapsed >= target and i + 1 < len(accesses):
            cut = i + 1
            while nm < len(markers) and markers[nm] < cut:
                nm += 1
            if nm < len(markers):
                ahead = sum(x.cycles for x in accesses[cut:markers[nm]])
                if ahead <= target // 4:
                    cut = markers[nm]
            if not boundaries or cut > boundaries[-1]:
                boundaries.append(cut)
            elapsed = 0
    return boundaries


def oracle_ignorable(trace, accesses, boundaries):
    edges = [0] + sorted(boundaries) + [len(accesses)]
    ignorable = set()
    for lo, hi in zip(edges, edges[1:]):
        read_seen, disqualified, touched_at = set(), set(), {}
        for i in range(lo, hi):
            a = accesses[i]
            touched_at.setdefault(a.waddr, []).append(i)
            if a.kind == READ:
                read_seen.add(a.waddr)
            else:
                if a.waddr in read_seen:
                    disqualified.add(a.waddr)
                if trace.memory_map.is_output(a.waddr << 2):
                    disqualified.add(a.waddr)
        for w, indices in touched_at.items():
            if w not in disqualified:
                ignorable.update(indices)
    return frozenset(ignorable)


def oracle_final_memory(trace, accesses):
    image = dict(trace.initial_image)
    for a in accesses:
        if a.kind == WRITE:
            image[a.waddr] = a.value
    return image


def oracle_validate(initial_image, accesses):
    """Index of the first inconsistent access, or None."""
    image = dict(initial_image)
    for i, a in enumerate(accesses):
        if a.cycles <= 0:
            return i
        if a.kind == READ:
            if image.get(a.waddr) != a.value:
                return i
        else:
            image[a.waddr] = a.value
    return None


# ---- generated programs ------------------------------------------------ #

sizes = st.sampled_from([1, 2, 4])
steps = st.one_of(
    st.tuples(st.just("load"), st.sampled_from([DATA, TEXT, UNMAPPED]),
              st.integers(0, 5), sizes, st.integers(0, 3)),
    st.tuples(st.just("store"), st.sampled_from([DATA, DATA, TEXT, UNMAPPED]),
              st.integers(0, 5), sizes, st.integers(0, 3),
              st.integers(0, 0xFFFF_FFFF)),
    st.tuples(st.just("out"), st.integers(0, 2), st.integers(0, 3)),
    st.tuples(st.just("tick"), st.integers(1, 60)),
    st.tuples(st.sampled_from(["call", "ret"])),
)
programs = st.lists(steps, min_size=0, max_size=80)


def run_program(program):
    """Record ``program`` through :class:`TracedMemory` and the oracle;
    return ``(TracedMemory trace, oracle access list)``."""
    mem, ref = TracedMemory("gen"), OracleMemory("gen")
    for m in (mem, ref):
        m.init_words(TEXT, [0x1111_0000 + i for i in range(6)])
        m.init_words(DATA, [7, 0, 7, 3, 0, 9])
        for step in program:
            op = step[0]
            if op == "load":
                _, base, word, size, lane = step
                m.load(base + 4 * word + lane % (4 // size) * size, size)
            elif op == "store":
                _, base, word, size, lane, value = step
                m.store(base + 4 * word + lane % (4 // size) * size, value,
                        size)
            elif op == "out":
                m.out(step[1], step[2])
            elif op == "tick":
                m.tick(step[1])
            else:
                getattr(m, op)("f")
    trace = mem.finish(checksum=len(program))
    assert trace.digest == ref.finish(checksum=len(program)).digest
    return trace, ref.oracle


@settings(max_examples=150, deadline=None)
@given(program=programs, target=st.sampled_from([8, 30, 120]))
def test_column_products_match_access_oracle(program, target):
    trace, oracle = run_program(program)
    assert list(trace.accesses) == oracle
    assert len(trace) == len(oracle)
    ct = trace.compiled()

    assert [bool(x) for x in ct.out_writes] == oracle_out_writes(trace, oracle)
    assert [bool(x) for x in ct.false_writes] == oracle_false_writes(trace, oracle)
    assert list(ct.cum_cycles) == oracle_cum_cycles(oracle)
    text_lo, text_hi = ct.text_range
    ops, wids, n_words = ct.scan_arrays(text_lo, text_hi)
    assert (list(ops), list(wids), n_words) == oracle_scan(
        trace, oracle, text_lo, text_hi)
    for shift in (0, 2, 6):
        pids, n_prefixes = ct.prefix_ids(shift)
        assert (list(pids), n_prefixes) == oracle_prefix_ids(oracle, shift)

    assert profile_program_idempotent(trace) == oracle_pi_words(trace, oracle)
    boundaries = plan_boundaries(trace, target)
    assert boundaries == oracle_boundaries(trace, oracle, target)
    plan = epoch_program_idempotence(trace, boundaries)
    assert plan.ignorable == oracle_ignorable(trace, oracle, boundaries)
    assert compile_with_epochs(trace, target) == plan

    assert trace.final_memory() == oracle_final_memory(trace, oracle)
    trace.validate()
    assert trace.counts() == (
        sum(a.kind == READ for a in oracle), sum(a.kind == WRITE for a in oracle))
    assert trace.footprint_words == len({a.waddr for a in oracle})


@settings(max_examples=100, deadline=None)
@given(program=programs.filter(bool), data=st.data())
def test_validate_matches_access_oracle(program, data):
    """A corrupted log fails validation at the oracle's first bad index."""
    trace, oracle = run_program(program)
    i = data.draw(st.integers(0, len(oracle) - 1)) if oracle else None
    if i is not None:
        a = oracle[i]
        if data.draw(st.booleans()):
            oracle[i] = Access(a.kind, a.waddr, a.value ^ 1, a.cycles)
        else:
            oracle[i] = Access(a.kind, a.waddr, a.value, 0)
    bad = Trace.from_accesses("bad", oracle, dict(trace.initial_image))
    expect = oracle_validate(trace.initial_image, oracle)
    if expect is None:
        bad.validate()
    else:
        with pytest.raises(TraceError, match=f"access {expect} "):
            bad.validate()


@settings(max_examples=60, deadline=None)
@given(program=programs, data=st.data())
def test_slice_matches_access_oracle(program, data):
    trace, oracle = run_program(program)
    start = data.draw(st.integers(0, len(oracle)))
    stop = data.draw(st.integers(start, len(oracle)))
    sub = trace.slice(start, stop)
    assert list(sub.accesses) == oracle[start:stop]
    image = oracle_final_memory(trace, oracle[:start])
    assert sub.initial_image == image
    sub.validate()


def test_compiled_columns_share_trace_buffers():
    trace, _ = run_program([("store", DATA, 1, 4, 0, 5),
                            ("load", DATA, 1, 4, 0), ("out", 0, 1)])
    ct = trace.compiled()
    for name, attr in (("kinds", "kinds"), ("waddrs", "waddrs"),
                       ("values", "values"), ("cycles", "cycles"),
                       ("outs", "out_writes")):
        assert getattr(ct, attr).buffer_info() == getattr(trace, name).buffer_info()
    assert [name for name, _ in COLUMNS] == [
        "kinds", "waddrs", "values", "cycles", "outs"]


def test_digest_covers_content():
    a, _ = run_program([("store", DATA, 1, 4, 0, 5), ("load", DATA, 1, 4, 0)])
    b, _ = run_program([("store", DATA, 1, 4, 0, 5), ("load", DATA, 1, 4, 0)])
    c, _ = run_program([("store", DATA, 1, 4, 0, 6), ("load", DATA, 1, 4, 0)])
    assert a.digest == b.digest
    # Same name, length, cycles and checksum: only the value differs.
    assert (c.name, len(c), c.total_cycles, c.checksum) == (
        a.name, len(a), a.total_cycles, a.checksum)
    assert c.digest != a.digest
    assert a.compiled().digest == a.digest


def _tracked_objects_after_build(n):
    gc.collect()
    before = len(gc.get_objects())
    mem = TracedMemory("gc")
    for i in range(n):
        mem.sw(DATA + 4 * (i % 64), i)
        mem.lw(DATA + 4 * (i % 64))
    trace = mem.finish()
    trace.compiled().scan_arrays(*trace.memory_map.text_word_range)
    gc.collect()
    grown = len(gc.get_objects()) - before
    del trace
    return grown


def test_trace_build_adds_constant_gc_objects():
    """Building and compiling a trace adds O(1) GC-tracked objects, not
    one per access."""
    small = _tracked_objects_after_build(200)
    large = _tracked_objects_after_build(20_000)
    assert large - small < 20, (small, large)
