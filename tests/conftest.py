"""Shared test fixtures and synthetic-trace helpers."""

import random

import pytest

from repro.mem.map import default_memory_map
from repro.trace.access import READ, WRITE, Access
from repro.trace.trace import Trace

#: Word addresses inside the data segment, clear of anything else.
DATA_WORD = 0x2000_0000 >> 2


def make_trace(ops, name="synthetic", cycles=4, initial=None):
    """Build a validated synthetic trace from (kind, waddr_offset, value)
    triples; addresses are offsets from the data segment base.

    Read values are computed automatically from the evolving memory image
    (so callers only specify write values; pass value=None for reads).
    """
    image = {DATA_WORD + off: val for off, val in (initial or {}).items()}
    accesses = []
    mem = dict(image)
    for op in ops:
        kind, off = op[0], op[1]
        waddr = DATA_WORD + off
        if kind == READ:
            value = mem.get(waddr, 0)
            image.setdefault(waddr, value)
        else:
            value = op[2]
            image.setdefault(waddr, mem.get(waddr, 0))
            mem[waddr] = value
        accesses.append(Access(kind, waddr, value, cycles))
    trace = Trace.from_accesses(name, accesses, image)
    trace.validate()
    return trace


def rmw_trace(n=100, addrs=8, seed=0, cycles=4):
    """A read-modify-write workload over a small address set — dense
    idempotency violations."""
    rng = random.Random(seed)
    ops = []
    values = {}
    for i in range(n):
        off = rng.randrange(addrs)
        ops.append((READ, off))
        new = rng.getrandbits(16)
        values[off] = new
        ops.append((WRITE, off, new))
    return make_trace(ops, name=f"rmw{n}")


def stream_trace(n=100, cycles=4):
    """A streaming workload: read input array, write output array — no
    violations at all."""
    ops = []
    for i in range(n):
        ops.append((READ, i))
        ops.append((WRITE, 1000 + i, i * 3 + 1))
    return make_trace(ops, name=f"stream{n}", initial={i: i * 7 for i in range(n)})


@pytest.fixture
def mmap():
    return default_memory_map()
