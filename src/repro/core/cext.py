"""The C kernel behind the section scans and the section walk.

The section-memoized fast path (:mod:`repro.sim.sections`,
:mod:`repro.sim.fast`) runs in one C source, ``_chainscan.c``: one
chain scan — a line-for-line port of the Python section scan
:func:`~repro.core.detector.scan_section`, followed from each section
boundary into the next, in branch-light integer code over flat arrays,
run for a whole config family per call or for one configuration from
any section entry — and
the section walk that replays power schedules over the scanned tables.
This module compiles it on demand with whatever system C compiler is
present and drives it through :mod:`ctypes`; :class:`ChainScanEngine`
is the one way into the scan.

The kernel is optional:

* no compiler, a failed compile, a failed load, or ``REPRO_CEXT=0`` all
  send every run to the reference simulator, the source of truth for
  semantics (the Python section scan stays the chain scan's test
  oracle);
* the shared library is cached in the system temp directory keyed by a
  hash of the C source, so each source revision compiles once per
  machine, not once per process;
* no third-party packages and no ``Python.h`` are involved — the kernel
  is plain int32 buffers, built from the standard library only.

``cext_status()`` reports which path a process ended up on (tests and the
CI equivalence job pin both paths explicitly).
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array
from time import perf_counter
from typing import Optional

from repro.obs.metrics import COUNTERS

#: Mirrors the CAUSE_* codes in _chainscan.c.
CAUSE_NAMES = (
    "final", "compiler", "output", "text_write", "violation",
    "wbb_full", "wf_full", "apb_full", "rf_full", "latest_write",
)

#: Checkpoint causes by the section walk's cause id: the section causes,
#: then CAUSE_PROGRESS_WDT and CAUSE_PERF_WDT.
WALK_CAUSE_NAMES = CAUSE_NAMES + ("progress_wdt", "perf_wdt")

#: Cause id of a chain-scan section cut short at its limit (``CAUSE_OPEN``
#: in _chainscan.c); never a checkpoint cause.
CAUSE_OPEN = 15

#: Mirrors the F_* flag bits in _chainscan.c.
F_APB_ON = 1
F_IGNORE_TEXT = 2
F_IGNORE_FALSE_WRITES = 4
F_REMOVE_DUPLICATES = 8
F_NO_WF_OVERFLOW = 16
F_LATEST_CHECKPOINT = 32
F_HAS_PI = 64
F_FIRST_DW = 128

_SOURCE = os.path.join(os.path.dirname(__file__), "_chainscan.c")

_lib = None
_tried = False
_status = "untried"


def _compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _build() -> Optional[ctypes.CDLL]:
    """Compile (if needed) and load the kernel; None on any failure."""
    global _status
    if os.environ.get("REPRO_CEXT", "1") == "0":
        _status = "disabled (REPRO_CEXT=0)"
        return None
    try:
        with open(_SOURCE, "rb") as f:
            source = f.read()
    except OSError as exc:
        _status = f"source unreadable: {exc}"
        return None
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache_dir = os.environ.get("REPRO_CEXT_CACHE") or tempfile.gettempdir()
    so_path = os.path.join(cache_dir, f"repro_chainscan_{digest}.so")
    if not os.path.exists(so_path):
        cc = _compiler()
        if cc is None:
            _status = "no C compiler on PATH"
            return None
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
        os.close(fd)
        try:
            subprocess.run(
                [cc, "-O2", "-fPIC", "-shared", "-o", tmp, _SOURCE],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp, so_path)  # atomic: racing processes all win
        except Exception as exc:
            _status = f"compile failed: {exc}"
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return None
    try:
        lib = ctypes.CDLL(so_path)
        fn = lib.chain_scan
        gw = lib.group_walk
        cut = lib.walk_cut_safe
    except (OSError, AttributeError) as exc:
        _status = f"load failed: {exc}"
        return None
    c_i32 = ctypes.c_int32
    c_i64 = ctypes.c_int64
    p = ctypes.c_void_p
    fn.restype = c_i64
    fn.argtypes = (
        p, p, p, p, p,                      # ops, wids, pids, pi, fs
        c_i32, c_i32, c_i32, c_i32,         # nfs, n, n_words, n_prefixes
        c_i32, p, p,                        # nk, caps, cflags
        p, p, p, p, p,                      # membership scratch + gen
        p, p, p,                            # gcum, out_nev, out_nst
        c_i32, c_i32,                       # start, variant
        p, c_i64, c_i64, c_i32,             # stop_keys, n_stop, perf_load,
                                            # xflags
        c_i64, p, p, p, p, p,               # seg, keys/ends/causes/soff/
                                            # steps
    )
    gw.restype = c_i64
    gw.argtypes = (p, c_i64, p, p, p)       # rows, nrows, cursor and safe
                                            # cuts, reaches, on-time table
    cut.restype = c_i64
    cut.argtypes = (
        p, c_i64, c_i64, c_i64,             # map table, key, cut, furthest
        p, c_i64,                           # reaches, n_reaches
    )
    _status = f"loaded ({so_path})"
    return lib


def chain_scan_lib() -> Optional[ctypes.CDLL]:
    """The loaded kernel library, or None (memoized, never raises)."""
    global _lib, _tried
    if not _tried:
        _tried = True
        _lib = _build()
    return _lib


def cext_status() -> str:
    """Human-readable disposition of the C kernel for this process."""
    return _status


def reset_for_tests() -> None:
    """Forget the load attempt so tests can re-gate via REPRO_CEXT."""
    global _lib, _tried, _status
    _lib = None
    _tried = False
    _status = "untried"


def _addr(buf) -> int:
    """Base address of an ``array.array`` (0 rejects empty buffers)."""
    return buf.buffer_info()[0]


#: Member limit per kernel call (chunking bound; the sequential kernel
#: itself has no hard cap).
FAMILY_MAX = 64

#: Per-member output segment size (sections, and steps), grown by
#: doubling on kernel overflow; the learned size sticks process-wide.
_SEG = [1024]

#: The scan outputs every engine shares: ``[seg, nk, arrays,
#: addresses]``, room for ``nk`` members of ``seg`` each (and for any
#: fewer members of a smaller segment).  The kernel reports how much of
#: each it wrote, so they are handed out unzeroed and only grown.
_OUT = [0, 0, (), ()]

#: Time in the engine: building engines and running kernel scans.
_SECONDS = COUNTERS.counter("sections.enum_seconds")


def _grow(seg: int, nk: int) -> None:
    """Grow :data:`_OUT` to hold ``nk`` members of ``seg`` each."""
    seg = max(seg, _OUT[0])
    nk = max(nk, _OUT[1])
    size = seg * nk
    arrays = (array("q", bytes(8 * size)), array("i", bytes(4 * size)),
              array("B", bytes(size)), array("q", bytes(8 * (size + nk))),
              array("i", bytes(4 * size)))
    _OUT[:] = seg, nk, arrays, tuple(map(_addr, arrays))


class ChainScanEngine:
    """Prebound ctypes arguments for the chain scans of ``members``.

    The members share ``(trace, PI marking, forced checkpoints, APB
    prefix shift)`` and differ only in the four buffer
    capacities and the policy flag bits (``kernel_params`` of each
    member's configuration).  One :meth:`scan` call runs every member's
    chain scan inside a single kernel invocation and fills member-major
    output segments: a sweep family's canonical chains, or one map's
    off-chain and direct-write scans as a one-member engine.

    Membership scratch is the per-trace memoized blocked array
    (:meth:`~repro.trace.trace.CompiledTrace.c_family_scratch`): the
    persistent generation counter makes stale stamps invisible, so no
    per-call zeroing happens.  Output segments grow by doubling when the
    kernel reports overflow, and the output arrays are shared by every
    engine (:data:`_OUT`).  Scans run on one thread (the eval CLI's, or
    the sweep server's one bridge thread).
    """

    __slots__ = ("_fn", "_pre", "_nk", "nev", "nst", "_keep")

    def __init__(self, lib, ct, shift, forced_sorted, pi_words, pi_indices,
                 members):
        t0 = perf_counter()
        nk = len(members)
        if not 0 < nk <= FAMILY_MAX:
            raise ValueError(f"family size {nk} outside 1..{FAMILY_MAX}")
        ops_b, wids_b, n_words = ct.scan_arrays(*ct.text_range)
        if any(m[4] & F_APB_ON for m in members):
            pids_b, n_prefixes = ct.prefix_ids(shift)
            pids_addr = _addr(pids_b)
        else:
            pids_b, n_prefixes = None, 1
            pids_addr = 0
            shift = -1
        if pi_words or pi_indices:
            pi_b = ct.pi_mask_buffer(pi_words, pi_indices)
            pi_addr = _addr(pi_b)
            has_pi = F_HAS_PI
        else:
            pi_b = None
            pi_addr = 0
            has_pi = 0
        caps_b = array("i", [cap for m in members for cap in m[:4]])
        flags_b = array("i", [m[4] | has_pi for m in members])
        gen_b, rf_b, wf_b, wbb_b, apb_b = ct.c_family_scratch(
            max(n_words, 1), shift, n_prefixes, nk
        )
        fs_b = array("i", forced_sorted) if forced_sorted else array("i", [0])
        gcum_b = ct.cum_cycles
        self.nev = array("i", bytes(4 * nk))
        self.nst = array("i", bytes(4 * nk))
        self._fn = lib.chain_scan
        self._nk = nk
        self._pre = (
            _addr(ops_b) if ct.n else 0,
            _addr(wids_b) if ct.n else 0,
            pids_addr,
            pi_addr,
            _addr(fs_b),
            len(forced_sorted),
            ct.n,
            max(n_words, 1),
            n_prefixes,
            nk,
            _addr(caps_b),
            _addr(flags_b),
            _addr(rf_b), _addr(wf_b), _addr(wbb_b), _addr(apb_b),
            _addr(gen_b),
            _addr(gcum_b),
            _addr(self.nev), _addr(self.nst),
        )
        # Buffer lifetimes: the arrays must outlive this engine.
        self._keep = (ops_b, wids_b, pids_b, pi_b, fs_b, caps_b,
                      flags_b, gen_b, rf_b, wf_b, wbb_b, apb_b, gcum_b)
        _SECONDS.inc(perf_counter() - t0)

    def scan(self, start: int = 0, variant: int = 0, stop=None,
             perf_load: int = 0, xflags: int = 0):
        """Every member's chain from the section entry ``(start,
        variant)`` (``repro.sim.sections.VARIANT_*``).

        ``stop`` (a sorted ``array('q')`` of section keys) ends a chain
        before the first later section whose key it holds.  With a
        Performance Watchdog load ``perf_load`` > 0, a section whose
        boundary lies past the access that fires it is emitted open —
        end at that cut, cause :data:`CAUSE_OPEN` — and the chain goes
        on from the cut.  ``xflags`` = :data:`F_FIRST_DW` scans only the
        first section and emits its direct-commit write indices in place
        of its WBB growth steps.

        Returns ``(keys, ends, causes, soff, steps, seg)``: member
        ``c``'s ``self.nev[c]`` sections occupy ``[c * seg, c * seg +
        nev[c])`` of the section arrays, their ``nev[c] + 1`` steps
        offsets (starting at 0) occupy ``[c * (seg + 1), ...)`` of
        ``soff``, and its ``self.nst[c]`` steps occupy ``[c * seg, c *
        seg + nst[c])`` of ``steps``.  The arrays are shared scratch —
        consume (slice) them before the next scan.
        """
        t0 = perf_counter()
        stop_addr = _addr(stop) if stop else 0
        n_stop = len(stop) if stop else 0
        while True:
            seg = _SEG[0]
            out = _OUT
            if seg > out[0] or self._nk > out[1]:
                _grow(seg, self._nk)
            if not self._fn(*self._pre, start, variant, stop_addr, n_stop,
                            perf_load, xflags, seg, *out[3]):
                _SECONDS.inc(perf_counter() - t0)
                return out[2] + (seg,)
            # Overflow: double the segments and rescan (the kernel's
            # generation write-back keeps the scratch valid).
            _SEG[0] = seg * 2
