"""Every evaluation trace, rebuilt, against its pinned digests.

``trace_pins.json`` holds, for each of the 47 traces a full evaluation
builds (the 23 MiBench2 kernels at ``default`` and ``small`` size, plus
``ds``) and for one ISS-extracted trace, the trace's
:attr:`~repro.trace.trace.Trace.digest` and a sha256 over what the
digest leaves out: the ``outs`` column, the marker labels and
``code_bytes``.  A change to trace capture that alters any column, the
initial image, a marker, the checksum or the cycle total fails here.

Regenerate the file (``python -m tests.test_trace_pins``) only for a
change that is meant to alter the traces themselves.
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.isa.assembler import assemble
from repro.isa.programs import DEMO_PROGRAMS
from repro.isa.trace_extract import extract_trace
from repro.workloads.registry import get_workload, mibench2_names

PINS = Path(__file__).with_name("trace_pins.json")

#: The ISS program whose extracted trace is pinned alongside the kernels.
ISS_PROGRAM = "crc16"


def pinned_traces():
    """``(key, trace)`` for every pinned trace, each freshly built."""
    for size in ("default", "small"):
        for name in mibench2_names():
            yield f"{name}/{size}", get_workload(name).build(size=size)
    yield "ds/default", get_workload("ds").build(size="default")
    program = assemble(DEMO_PROGRAMS[ISS_PROGRAM])
    yield f"iss/{ISS_PROGRAM}", extract_trace(program, name=ISS_PROGRAM)


def fingerprint(trace) -> dict:
    """The trace's digest plus a sha256 over the fields it omits."""
    h = hashlib.sha256(trace.outs)
    h.update(repr([m.label for m in trace.markers]).encode())
    h.update(repr(trace.code_bytes).encode())
    return {"digest": trace.digest, "rest": h.hexdigest()}


def current() -> dict:
    return {key: fingerprint(trace) for key, trace in pinned_traces()}


def test_traces_match_pins():
    pins = json.loads(PINS.read_text())
    got = current()
    assert sorted(got) == sorted(pins)
    changed = [key for key in pins if got[key] != pins[key]]
    assert not changed, f"traces differ from their pins: {changed}"


if __name__ == "__main__":
    PINS.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(json.loads(PINS.read_text()))} pins to {PINS}",
          file=sys.stderr)
