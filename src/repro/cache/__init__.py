"""Persistent content-addressed artifact cache (``repro.cache``).

The expensive artifacts of a sweep — enumerated
:class:`~repro.sim.sections.SectionMap` contents, compiled-trace
arrays, whole simulation results — are pure functions of trace content, configuration, and
marking.  This package spills them to ``REPRO_CACHE_DIR`` so parallel
workers share enumeration work across processes and a repeat
evaluation starts warm.  Everything is best-effort: with the variable
unset nothing touches the filesystem, and any I/O failure degrades to
the in-memory behaviour the callers already have.

Public surface:

* :func:`store` — the process's :class:`~repro.cache.store.CacheStore`
  (``None`` when disabled).  Resolved once per process from
  ``REPRO_CACHE_DIR`` / ``REPRO_CACHE_MAX_MB`` /
  ``REPRO_CACHE_REMOTE`` (read-through peer URL, see
  :mod:`repro.cache.store`); :func:`reset_for_tests` re-resolves.
* :func:`content_key` — sha256 over a canonical ``repr`` of the parts
  (plus the format version), the addressing scheme every caller uses.
* :func:`register_persist` / :func:`persist_caches` — flush hooks.
  Modules holding dirty in-memory artifacts register a flusher;
  the eval CLI and every cleanly exiting fork-pool worker (via
  ``atexit``) call :func:`persist_caches`.
* :func:`stats` — hit/miss/put/eviction/error plus remote-tier
  counters (``cache.*`` in :data:`repro.obs.metrics.COUNTERS`: worker
  deltas merged there, plus the live store's own lock-protected
  counts), rendered in ``results/profile.txt`` so "warm from memory"
  vs "warm from disk" vs "cold" are distinguishable, and surfaced by
  the :mod:`repro.serve` ``/stats`` endpoint.
"""

import atexit
import hashlib
import os
from typing import Callable, Dict, List, Optional

from repro.cache.store import CACHE_VERSION, CacheStore
from repro.obs.metrics import COUNTERS

__all__ = [
    "CACHE_VERSION", "CacheStore", "content_key", "store", "stats",
    "register_persist", "persist_caches", "reset_for_tests",
]

_STORE: Optional[CacheStore] = None
_RESOLVED = False
_KEYS = ("hits", "misses", "puts", "evictions", "errors", "remote_hits",
         "remote_misses", "remote_errors")

_PERSIST_HOOKS: List[Callable[[], None]] = []


def store() -> Optional[CacheStore]:
    """The process-wide store, or ``None`` when ``REPRO_CACHE_DIR`` is
    unset/empty or the directory cannot be created."""
    global _STORE, _RESOLVED
    if not _RESOLVED:
        _RESOLVED = True
        root = os.environ.get("REPRO_CACHE_DIR", "").strip()
        if root:
            try:
                max_mb = float(
                    os.environ.get("REPRO_CACHE_MAX_MB", "512") or "512"
                )
            except ValueError:
                max_mb = 512.0
            remote = os.environ.get("REPRO_CACHE_REMOTE", "").strip() or None
            try:
                os.makedirs(root, exist_ok=True)
            except OSError:
                _STORE = None
            else:
                _STORE = CacheStore(
                    root, int(max_mb * 1024 * 1024), remote=remote
                )
    return _STORE


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
    """Disk-cache counters for this process, pooled workers' included."""
    snap = COUNTERS.snapshot()
    return {k: snap.get("cache." + k, 0) for k in _KEYS}


def register_persist(hook: Callable[[], None]) -> None:
    """Register a flusher invoked by :func:`persist_caches`."""
    if hook not in _PERSIST_HOOKS:
        _PERSIST_HOOKS.append(hook)


def persist_caches() -> None:
    """Flush all registered dirty in-memory artifacts to the store.

    No-op when the store is disabled.  Never raises: a failing hook
    must not take down an otherwise finished evaluation (or a worker
    mid-teardown).
    """
    if store() is None:
        return
    for hook in list(_PERSIST_HOOKS):
        try:
            hook()
        except Exception:
            pass


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
    _STORE = None
    _RESOLVED = False


# Cleanly exiting processes (including fork-pool workers, which leave
# Pool.close() through a normal interpreter shutdown) flush whatever
# dirty artifacts they still hold.  Guarded inside persist_caches.
atexit.register(persist_caches)
