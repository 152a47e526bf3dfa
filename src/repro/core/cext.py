"""Optional C acceleration for the section-chain scan.

The section-memoized fast path (:mod:`repro.sim.sections`) spends almost
all of its remaining time in one O(n) pass per ``(trace, config)`` key:
:meth:`~repro.core.detector.IdempotencyDetector.straightline_chain`.  The
loop is branch-light integer code over flat arrays — exactly the shape a
C compiler turns into a ~20x faster kernel — so this module compiles the
line-for-line C port in ``_chainscan.c`` on demand with whatever system C
compiler is present and drives it through :mod:`ctypes`.

This is strictly optional infrastructure:

* no compiler, a failed compile, a failed load, or ``REPRO_CEXT=0`` all
  degrade silently to the pure-Python generator (the reference
  implementation, which stays the source of truth for semantics);
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
from typing import Optional

#: Mirrors the CAUSE_* codes in _chainscan.c.
CAUSE_NAMES = (
    "final", "compiler", "output", "text_write", "violation",
    "wbb_full", "wf_full", "apb_full", "rf_full", "latest_write",
)

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
    except (OSError, AttributeError) as exc:
        _status = f"load failed: {exc}"
        return None
    c_i32 = ctypes.c_int32
    p = ctypes.c_void_p
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        p, p, p, p, p,                      # ops, wids, pids, pi, fs
        c_i32, c_i32,                       # nfs, n
        c_i32, c_i32, c_i32,                # start, direct, forced_done
        c_i32, c_i32, c_i32, c_i32, c_i32,  # caps, flags
        p, p, p, p, p,                      # scratch + gen
        p, p, p, p, p, p,                   # outputs
        p,                                  # dw_out (F_FIRST_DW)
    )
    try:
        fam = lib.family_chain_scan
    except AttributeError as exc:  # pragma: no cover - stale .so only
        _status = f"load failed: {exc}"
        return None
    c_i64 = ctypes.c_int64
    fam.restype = c_i64
    fam.argtypes = (
        p, p, p, p, p,                      # ops, wids, pids, pi, fs
        c_i32, c_i32, c_i32, c_i32,         # nfs, n, n_words, n_prefixes
        c_i32, c_i32,                       # start0, nk
        p, p,                               # caps, cflags
        p, p, p, p, p,                      # membership scratch + gen
        p, p, p, p,                         # ev_key/end/cause/soff
        p,                                  # steps_out
        c_i64, c_i64,                       # ev_percap, st_percap
        p, p,                               # out_nev, out_nst
    )
    try:
        bw = lib.batch_walk
    except AttributeError as exc:  # pragma: no cover - stale .so only
        _status = f"load failed: {exc}"
        return None
    bw.restype = c_i64
    bw.argtypes = (
        p, p, c_i32, p,                     # gcum, acc, n, forced_mask
        p, p, p, p, p, p, p,                # section tables
        p, c_i64,                           # ontimes, n_ontimes
        c_i64, c_i64, c_i64, c_i64,         # base_ck, flush, entry, rcost
        c_i64, c_i64, c_i32, c_i32,         # watchdog loads, flags
        c_i64,                              # max_pc
        c_i32, c_i32, c_i32, c_i32,         # cause ids, cut_ok
        p, p, p, p, c_i32, p,               # st, fl, counts, reaches, out
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


class ChainScanEngine:
    """Prebound ctypes arguments for one SectionMap's chain scans.

    Holds references to every buffer the kernel reads or writes (the
    per-trace memoized scan/prefix/PI arrays, the shared generation
    scratch, and the per-trace output staging buffers), so each
    :meth:`scan` call is a single foreign-function invocation.  The
    output buffers are staging only — the caller copies what it keeps —
    and are shared per trace, which is safe single-threaded (the
    process-parallel engine gives each worker its own process).
    """

    __slots__ = ("_fn", "_args", "out_start", "out_variant", "out_end",
                 "out_cause", "out_steps_off", "out_steps", "out_dw")

    def __init__(self, lib, ct, params, forced_sorted, pi_words, pi_indices):
        (rf_cap, wf_cap, wbb_cap, apb_cap, flags,
         text_lo, text_hi, shift) = params
        ops_b, wids_b, n_words = ct.scan_buffers(text_lo, text_hi)
        if flags & F_APB_ON:
            pids_b, n_prefixes = ct.prefix_buffers(shift)
            pids_addr = _addr(pids_b)
        else:
            pids_b, n_prefixes = None, 1
            pids_addr = 0
        if pi_words or pi_indices:
            flags |= F_HAS_PI
            pi_b = ct.pi_mask_buffer(pi_words, pi_indices)
            pi_addr = _addr(pi_b)
        else:
            pi_b = None
            pi_addr = 0
        scratch = ct.c_chain_scratch(
            n_words if n_words else 1, shift if flags & F_APB_ON else -1,
            n_prefixes,
        )
        gen_b, rf_b, wf_b, wbb_b, apb_b = scratch
        out = ct.c_chain_outputs()
        (self.out_start, self.out_variant, self.out_end,
         self.out_cause, self.out_steps_off, self.out_steps,
         self.out_dw) = out
        fs_b = array("i", forced_sorted) if forced_sorted else array("i", [0])
        self._fn = lib.chain_scan
        self._args = (
            _addr(ops_b) if ct.n else 0,
            _addr(wids_b) if ct.n else 0,
            pids_addr,
            pi_addr,
            _addr(fs_b),
            len(forced_sorted),
            ct.n,
            rf_cap, wf_cap, wbb_cap, apb_cap, flags,
            _addr(rf_b), _addr(wf_b), _addr(wbb_b), _addr(apb_b),
            _addr(gen_b),
            _addr(self.out_start), _addr(self.out_variant),
            _addr(self.out_end), _addr(self.out_cause),
            _addr(self.out_steps_off), _addr(self.out_steps),
            _addr(self.out_dw),
            # Buffer lifetimes: the arrays must outlive this engine.
            (ops_b, wids_b, pids_b, pi_b, fs_b, gen_b,
             rf_b, wf_b, wbb_b, apb_b),
        )

    def scan(self, start: int, direct: int, forced_done: int) -> int:
        """Run the kernel from one section entry; returns section count."""
        a = self._args
        return self._fn(
            a[0], a[1], a[2], a[3], a[4], a[5], a[6],
            start, direct, forced_done,
            a[7], a[8], a[9], a[10], a[11],
            a[12], a[13], a[14], a[15], a[16],
            a[17], a[18], a[19], a[20], a[21], a[22], a[23],
        )

    def scan_first_dw(self, start: int, direct: int, forced_done: int):
        """Scan just the first section, returning its direct-commit
        write indices (the ``collect_dw`` mode of the Python generator)."""
        a = self._args
        self._fn(
            a[0], a[1], a[2], a[3], a[4], a[5], a[6],
            start, direct, forced_done,
            a[7], a[8], a[9], a[10], a[11] | F_FIRST_DW,
            a[12], a[13], a[14], a[15], a[16],
            a[17], a[18], a[19], a[20], a[21], a[22], a[23],
        )
        dw = self.out_dw
        k = dw[0]
        return tuple(dw[1:k + 1]) if k else ()


#: Member limit per batched family kernel call (chunking bound; the
#: sequential kernel itself has no hard cap).
FAMILY_MAX = 64


#: Initial per-member event/step segment size for family scans; grows by
#: doubling on kernel overflow (module-level so the learned size carries
#: across the transient per-chunk engines of one process).
_FAM_PERCAP = [1024]

#: Reused family-scan output arrays keyed by role; the kernel reports how
#: much of each it wrote, so they are handed out unzeroed and only grown.
_FAM_OUT: dict = {}


def _fam_out(key: str, nmin: int):
    """A reusable output array of at least ``nmin`` items.

    ``key`` names the role; its first character is the ``array``
    typecode (``"q2"``/``"i3"`` are distinct from ``"q"``/``"i"``).
    """
    buf = _FAM_OUT.get(key)
    if buf is None or len(buf) < nmin:
        buf = array(key[0], bytes(nmin * array(key[0]).itemsize))
        _FAM_OUT[key] = buf
    return buf


class FamilyScanEngine:
    """Prebound ctypes arguments for one config family's batched scan.

    A family shares ``(trace, PI marking, forced checkpoints, text
    bounds, APB prefix shift)`` and differs only per member in the four
    buffer capacities and the policy flag bits.  One :meth:`scan` call
    runs every member's chain scan inside a single kernel invocation
    and fills member-major output segments — each bit-identical to a
    :class:`ChainScanEngine` scan of that member, by construction.

    Membership scratch is the per-trace memoized family block array
    (:meth:`~repro.trace.trace.ConcreteTrace.c_family_scratch`): the
    persistent generation counter makes stale stamps invisible, so no
    per-call zeroing happens.  Output segments grow by doubling when the
    kernel reports overflow; the learned size sticks process-wide, and
    the segment arrays themselves are reused across engines (the kernel
    writes the prefix it reports, so stale suffixes are never read).
    """

    __slots__ = ("_fn", "_pre", "_nk", "_keep")

    def __init__(self, lib, ct, text_lo, text_hi, shift, forced_sorted,
                 pi_words, pi_indices, members):
        nk = len(members)
        if not 0 < nk <= FAMILY_MAX:
            raise ValueError(f"family size {nk} outside 1..{FAMILY_MAX}")
        ops_b, wids_b, n_words = ct.scan_buffers(text_lo, text_hi)
        if any(m[4] & F_APB_ON for m in members):
            pids_b, n_prefixes = ct.prefix_buffers(shift)
            pids_addr = _addr(pids_b)
            scratch_shift = shift
        else:
            pids_b, n_prefixes = None, 1
            pids_addr = 0
            scratch_shift = -1
        has_pi = bool(pi_words or pi_indices)
        if has_pi:
            pi_b = ct.pi_mask_buffer(pi_words, pi_indices)
            pi_addr = _addr(pi_b)
        else:
            pi_b = None
            pi_addr = 0
        caps_b = array("i", bytes(4 * 4 * nk))
        flags_b = array("i", bytes(4 * nk))
        for c, (rf, wf, wbb, apb, fl) in enumerate(members):
            caps_b[4 * c] = rf
            caps_b[4 * c + 1] = wf
            caps_b[4 * c + 2] = wbb
            caps_b[4 * c + 3] = apb
            flags_b[c] = (fl | F_HAS_PI) if has_pi else fl
        gen_b, rf_b, wf_b, wbb_b, apb_b = ct.c_family_scratch(
            max(n_words, 1), scratch_shift, n_prefixes, nk
        )
        fs_b = array("i", forced_sorted) if forced_sorted else array("i", [0])
        self._fn = lib.family_chain_scan
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
            _addr(caps_b),
            _addr(flags_b),
            _addr(rf_b), _addr(wf_b), _addr(wbb_b), _addr(apb_b),
            _addr(gen_b),
        )
        # Buffer lifetimes: the arrays must outlive this engine.
        self._keep = (ops_b, wids_b, pids_b, pi_b, fs_b, caps_b,
                      flags_b, gen_b, rf_b, wf_b, wbb_b, apb_b)

    def scan(self, start0: int = 0):
        """One batched pass from ``start0`` covering every member.

        Returns ``(nev, nst, ev_key, ev_end, ev_cause, ev_soff,
        steps_out, ev_percap, st_percap)``: member ``c``'s ``nev[c]``
        section records occupy ``[c * ev_percap, c * ev_percap +
        nev[c])`` of the event arrays, their ``nev[c] + 1`` steps
        offsets (starting at 0) occupy ``[c * (ev_percap + 1), ...)`` of
        ``ev_soff``, and its ``nst[c]`` flattened WBB steps occupy
        ``[c * st_percap, c * st_percap + nst[c])`` of ``steps_out``.
        The event/step arrays are shared process-wide scratch — consume
        (slice) them before the next ``scan`` call.
        """
        a = self._pre
        nk = self._nk
        while True:
            percap = _FAM_PERCAP[0]
            ev_key = _fam_out("q", percap * nk)
            ev_end = _fam_out("i", percap * nk)
            ev_cause = _fam_out("B", percap * nk)
            ev_soff = _fam_out("q2", (percap + 1) * nk)
            steps_out = _fam_out("i3", percap * nk)
            out_nev = array("i", bytes(4 * nk))
            out_nst = array("i", bytes(4 * nk))
            rc = self._fn(
                a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7], a[8],
                start0, nk,
                a[9], a[10],
                a[11], a[12], a[13], a[14], a[15],
                _addr(ev_key), _addr(ev_end), _addr(ev_cause),
                _addr(ev_soff),
                _addr(steps_out),
                percap, percap,
                _addr(out_nev), _addr(out_nst),
            )
            if rc == 0:
                return (out_nev, out_nst, ev_key, ev_end, ev_cause,
                        ev_soff, steps_out, percap, percap)
            if rc == -2:  # pragma: no cover - guarded in __init__
                raise ValueError("empty family rejected by kernel")
            # Overflow: double the per-member segments and rescan (the
            # kernel's generation write-back keeps the scratch valid).
            _FAM_PERCAP[0] = percap * 2
