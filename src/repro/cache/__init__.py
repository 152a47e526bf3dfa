"""Persistent content-addressed result store (``repro.cache``).

A sweep job's whole result is a pure function of its workload, trace
content, configuration, power schedule and marking.  This package keeps
those results (kind ``result``, written and read by
:mod:`repro.eval.parallel`) under ``REPRO_CACHE_DIR`` as checksummed JSON
in append-only pack segments (:mod:`repro.cache.store`), so processes
sharing the directory (a sweep server, local evals) share finished runs
and a repeat evaluation answers without simulating.  Intermediate
artifacts are rebuilt in memory.  Everything is best-effort: with the
variable unset nothing touches the filesystem, and a damaged entry or
failed write degrades to a counted miss.

Public surface:

* :func:`store` — the process's :class:`~repro.cache.store.CacheStore`
  (``None`` when disabled), resolved once from ``REPRO_CACHE_DIR`` /
  ``REPRO_CACHE_MAX_MB`` / ``REPRO_CACHE_REMOTE`` (a read-through peer);
  :func:`reset_for_tests` re-resolves.
* :func:`content_key` — sha256 over a canonical ``repr`` of the parts
  (plus the format version), the addressing scheme of result keys.
* :func:`stats` — the store's counters (``cache.*`` in
  :data:`repro.obs.metrics.COUNTERS`, including those of stores dropped
  by :func:`reset_for_tests`), rendered in ``results/profile.txt`` and
  served on the :mod:`repro.serve` ``/stats`` endpoint.
* :func:`persist_caches` — a no-op: each result is written when its
  job finishes.  It stays because the benchmark's layer tracer
  (``bench/layers.py``) times it by name.
"""

import hashlib
import math
import os
from typing import Dict, Optional

from repro.cache.store import CACHE_VERSION, COUNTER_NAMES, CacheStore
from repro.obs.metrics import COUNTERS

__all__ = [
    "CACHE_VERSION", "CacheStore", "content_key", "store", "stats",
    "persist_caches", "reset_for_tests",
]

_STORE: Optional[CacheStore] = None
_RESOLVED = False


def store() -> Optional[CacheStore]:
    """The process-wide store, or ``None`` when ``REPRO_CACHE_DIR`` is
    unset/empty or the directory cannot be created."""
    global _STORE, _RESOLVED
    if not _RESOLVED:
        _RESOLVED = True
        root = os.environ.get("REPRO_CACHE_DIR", "").strip()
        if root:
            max_bytes = _max_bytes(os.environ.get("REPRO_CACHE_MAX_MB", ""))
            remote = os.environ.get("REPRO_CACHE_REMOTE", "").strip() or None
            try:
                os.makedirs(root, exist_ok=True)
            except OSError:
                _STORE = None
            else:
                _STORE = CacheStore(root, max_bytes, remote=remote)
    return _STORE


def _max_bytes(raw: str) -> int:
    """The store cap in bytes from ``REPRO_CACHE_MAX_MB``: 512 MB unless
    ``raw`` is a finite number of MB worth at least one byte (a NaN or
    infinite cap would crash the byte conversion, and a non-positive
    one would evict the whole store at every check)."""
    try:
        max_mb = float(raw)
    except ValueError:
        max_mb = math.nan
    if not (math.isfinite(max_mb) and max_mb * 1024 * 1024 >= 1):
        max_mb = 512.0
    return int(max_mb * 1024 * 1024)


def content_key(*parts) -> str:
    """sha256 hex of a canonical encoding of ``parts``.

    Parts must have deterministic ``repr`` (ints, strings, bools,
    tuples thereof); unordered collections are the caller's job to
    sort.  :data:`CACHE_VERSION` is always folded in, so a payload
    format change orphans old entries instead of misreading them.
    """
    enc = repr((CACHE_VERSION,) + parts).encode("utf-8")
    return hashlib.sha256(enc).hexdigest()


def _store_stats() -> Dict[str, int]:
    st = _STORE
    return st.stats() if st is not None else {}


def _reset_store_stats() -> None:
    st = _STORE
    if st is not None:
        st.reset_counters()


# The live store keeps its own lock-protected counters (the server bumps
# them from several threads); the registry reads them through here.
COUNTERS.attach("cache.", _store_stats, _reset_store_stats)


def stats() -> Dict[str, int]:
    """Disk-cache counters for this process."""
    snap = COUNTERS.snapshot()
    return {k: snap.get("cache." + k, 0) for k in COUNTER_NAMES}


def persist_caches() -> None:
    """No-op: the store holds only results, and each is written when
    its job finishes, so there is nothing to flush."""


def reset_for_tests() -> None:
    """Forget the resolved store so tests can re-gate via the env.

    Counters accumulated by the dropped store are folded into the
    registry so :func:`stats` stays monotone within a test unless
    ``COUNTERS.reset()`` is called.
    """
    global _STORE, _RESOLVED
    st = _STORE
    if st is not None:
        COUNTERS.merge({"cache." + k: v for k, v in st.stats().items()})
        st.close()
    _STORE = None
    _RESOLVED = False
