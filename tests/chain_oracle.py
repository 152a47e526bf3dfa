"""The chain scan in Python: the test oracle of the C kernel's
``chain_scan`` (``_chainscan.c``).

:func:`oracle_chain` follows each section boundary that
:func:`repro.core.detector.scan_section` finds into the next section,
as the kernel does, with the kernel's rejoin stop and Performance
Watchdog cut.  ``tests/test_family_scan.py`` and
``tests/test_fast_replay.py`` check the kernel's family passes and
one-member scans against it.
"""

from bisect import bisect_left

from repro.core import cext
from repro.core.detector import kernel_params, scan_section

_TEXT_WRITE = cext.CAUSE_NAMES.index("text_write")
_COMPILER = cext.CAUSE_NAMES.index("compiler")
_OUTPUT = cext.CAUSE_NAMES.index("output")
_FINAL = cext.CAUSE_NAMES.index("final")


def oracle_chain(m, start=0, variant=0, stop=(), perf_load=0):
    """The chain scan of map ``m`` from ``(start, variant)``:
    ``[(key, end, cause id, wbb steps, direct writes), ...]`` up to the
    first later section whose key is in ``stop``, each section left open
    at the access that fires a Performance Watchdog of load
    ``perf_load`` (> 0)."""
    config = m.config
    scan = (m.ct, kernel_params(config), config.prefix_low_bits,
            m._forced_sorted, m.pi_words, m.pi_indices)
    gcum, n = m.ct.cum_cycles, m.n
    out = []
    while True:
        if variant == 1 and start not in m._forced_sorted:
            variant = 0  # no compiler checkpoint to have committed
        key = (start << 2) | variant
        if out and key in stop:
            return out
        end, cause, steps, dw, *_ = scan_section(*scan, start, variant)
        cid = cext.CAUSE_NAMES.index(cause)
        lim = bisect_left(gcum, gcum[start] + perf_load, start + 1, n) \
            if perf_load > 0 else n
        if lim < n and end >= lim:
            end, cid = lim, cext.CAUSE_OPEN
            steps = [j for j in steps if j < lim]
            dw = [j for j in dw if j < lim]
        out.append((key, end, cid, tuple(steps), tuple(dw)))
        if cid == _FINAL:
            return out
        if cid == _TEXT_WRITE:
            start, variant = end, 2
        elif cid == _COMPILER:
            start, variant = end, 1
        elif cid == _OUTPUT:
            start, variant = end + 1, 0
        else:
            start, variant = end, 0
