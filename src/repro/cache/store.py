"""Persistent content-addressed artifact store (``REPRO_CACHE_DIR``).

One :class:`CacheStore` holds pickled artifacts on disk, addressed by a
content hash the *caller* derives from everything that determines the
artifact (trace content, configuration, PI marking, format version).
Content addressing makes every operation idempotent: two processes that
compute the same artifact write byte-equivalent files under the same
name, so there is nothing to coordinate — the store needs no cross-
process locks, no manifest, and no invalidation protocol.  (The only
in-process lock guards the *stats counters*, which the sweep server
bumps from several threads at once.)

Robustness contract (exercised by ``tests/test_disk_cache.py``):

* **Atomic writes** — every put writes a temp file in the cache
  directory and ``os.replace``-s it into place.  Readers racing a
  writer (processes sharing one directory, such as a sweep server and
  a local eval) see either the complete old file or the complete new
  file, never a partial one.
* **Corruption tolerance** — a truncated, corrupted, or wrong-format
  entry loads as a miss; the offending file is deleted so the next put
  repairs it.  A load must never raise.
* **Silent degradation** — ``REPRO_CACHE_DIR`` unset disables the store
  entirely (every helper no-ops); an unwritable directory serves reads
  but drops writes after the first failure.  Callers never need to
  guard their puts.
* **Size-capped sharded eviction** — ``REPRO_CACHE_MAX_MB`` (default
  512) bounds the directory.  Entries fan out under two-level
  ``kind/key[:2]/`` shard directories (sha256 keys spread uniformly, so
  the 256 shards per kind stay balanced), and the store keeps a
  per-shard byte estimate: after one seeding walk per process, an
  eviction re-stats **only the shards it evicts from** — O(shard), not
  O(store) — visiting largest shards first and evicting oldest-``mtime``
  entries within each.  Gets freshen ``mtime`` so recency survives
  across runs.  (Global LRU is approximate across shards; uniform
  hashing makes per-shard oldest-first a close proxy.)
* **Remote read-through tier** — ``REPRO_CACHE_REMOTE`` names the base
  URL of a :mod:`repro.serve` instance; a local miss is retried as
  ``GET {remote}/artifact/{kind}/{key}`` and a hit is written through
  to the local directory, so multiple server instances converge on one
  warm store.  Any remote failure (connection refused, 404, corrupt
  payload, timeout) silently degrades to a plain local miss — the
  remote tier can never make a get slower than one bounded timeout or
  make it fail.

The pickle format is trusted: the cache directory is a local working
directory the user controls (and, with a remote tier configured, a
server the user points at deliberately), exactly like the ``_sha``-cached
``.so`` of :mod:`repro.core.cext`.
"""

import os
import pickle
import tempfile
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.slog import SLOG

#: Format-version salt folded into every key by :func:`content_key`;
#: bump when any cached payload's layout changes.
CACHE_VERSION = 2

#: Puts between directory-size scans (eviction is amortized).
_EVICT_CHECK_INTERVAL = 32

#: Evict down to this fraction of the cap so back-to-back puts do not
#: re-trigger a full scan each time the cap is grazed.
_EVICT_TARGET = 0.9

#: Default remote-tier fetch timeout (seconds); ``REPRO_CACHE_REMOTE``
#: names a loopback/LAN peer, so a slow remote must degrade quickly.
DEFAULT_REMOTE_TIMEOUT = 5.0


class CacheStore:
    """Pickle store over one directory; see the module docstring."""

    def __init__(
        self,
        root: str,
        max_bytes: int,
        remote: Optional[str] = None,
        remote_timeout: float = DEFAULT_REMOTE_TIMEOUT,
    ):
        self.root = root
        self.max_bytes = max_bytes
        self.remote = remote.rstrip("/") if remote else None
        self.remote_timeout = remote_timeout
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.errors = 0
        self.remote_hits = 0
        self.remote_misses = 0
        self.remote_errors = 0
        # Counter bumps happen concurrently under a sweep server — its
        # async handlers and bridge thread share one store — and ``+=`` on an int attribute is not atomic under
        # the GIL (read/add/store interleave).  One lock, held only for
        # the bump, keeps the totals exact.
        self._stats_lock = threading.Lock()
        self._writable = True
        self._puts_since_check = 0
        # Per-shard byte estimates, keyed by shard directory path: seeded
        # by one walk the first time an eviction check actually fires,
        # then advanced by each put's payload size.  Eviction re-stats
        # only the shards it drains, so steady-state eviction work is
        # O(shards touched) — a store comfortably under its cap never
        # walks more than once per process.
        self._shard_bytes: Optional[Dict[str, int]] = None
        self._approx_bytes: Optional[int] = None

    # -- paths --------------------------------------------------------- #

    def _path(self, kind: str, key: str) -> str:
        # Two-level fanout keeps any one directory listing small.
        return os.path.join(self.root, kind, key[:2], key + ".pkl")

    def raw_path(self, kind: str, key: str) -> str:
        """Filesystem path of an entry (the ``/artifact`` endpoint serves
        these bytes verbatim; they are the pickled payload)."""
        return self._path(kind, key)

    def _shards(self) -> List[str]:
        """All shard directories (``root/kind/prefix``) currently on disk."""
        shards = []
        try:
            with os.scandir(self.root) as kinds:
                kind_dirs = [e.path for e in kinds if e.is_dir()]
        except OSError:
            return shards
        for kind_dir in kind_dirs:
            try:
                with os.scandir(kind_dir) as prefixes:
                    shards.extend(e.path for e in prefixes if e.is_dir())
            except OSError:
                continue
        return shards

    @staticmethod
    def _scan_shard(shard: str) -> Tuple[List[Tuple[float, int, str]], int]:
        """One shard's ``(mtime, size, path)`` entries and total bytes."""
        entries: List[Tuple[float, int, str]] = []
        total = 0
        try:
            with os.scandir(shard) as it:
                for entry in it:
                    if not entry.name.endswith(".pkl"):
                        continue
                    try:
                        st = entry.stat()
                    except OSError:
                        continue  # a racing eviction got there first
                    entries.append((st.st_mtime, st.st_size, entry.path))
                    total += st.st_size
        except OSError:
            pass
        return entries, total

    def entry_count(self, kind: str, prefix: str) -> int:
        """Entries in one shard — an O(shard) listing, never O(store)."""
        shard = os.path.join(self.root, kind, prefix)
        try:
            with os.scandir(shard) as it:
                return sum(1 for e in it if e.name.endswith(".pkl"))
        except OSError:
            return 0

    # -- operations ---------------------------------------------------- #

    def _bump(self, name: str, n: int = 1) -> None:
        """Thread-safe counter increment (see ``_stats_lock``)."""
        with self._stats_lock:
            setattr(self, name, getattr(self, name) + n)

    def get(self, kind: str, key: str) -> Optional[Any]:
        """The stored object, or ``None`` (miss, corrupt, unreadable).

        A local miss consults the remote tier (when configured) before
        reporting the miss; a remote hit is written through locally.
        """
        path = self._path(kind, key)
        try:
            with open(path, "rb") as fh:
                obj = pickle.load(fh)
        except FileNotFoundError:
            obj = self._remote_get(kind, key)
            if obj is None:
                self._bump("misses")
            return obj
        except Exception:
            # Truncated/corrupted/wrong-format entry: count it, delete
            # it so a later put repairs it, and report a plain miss.
            self._bump("errors")
            self._bump("misses")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self._bump("hits")
        try:
            os.utime(path)  # freshen LRU recency
        except OSError:
            pass
        return obj

    def touch(self, kind: str, key: str) -> bool:
        """Freshen a local entry's recency, as a get does; False when it
        is not stored (or cannot be touched)."""
        try:
            os.utime(self._path(kind, key))
        except OSError:
            return False
        return True

    def _remote_get(self, kind: str, key: str) -> Optional[Any]:
        """Read-through fetch from the remote tier; ``None`` on any miss
        or failure (the caller accounts the overall miss)."""
        if not self.remote:
            return None
        url = f"{self.remote}/artifact/{kind}/{key}"
        t0 = time.perf_counter()
        try:
            with urllib.request.urlopen(
                url, timeout=self.remote_timeout
            ) as resp:
                blob = resp.read()
            obj = pickle.loads(blob)
        except urllib.error.HTTPError:
            # The peer answered and does not have it: a clean remote miss.
            self._bump("remote_misses")
            self._log_remote("miss", kind, key, t0)
            return None
        except Exception as exc:
            # Unreachable peer, timeout, corrupt payload: degrade.
            self._bump("remote_errors")
            self._log_remote("error", kind, key, t0,
                             error=type(exc).__name__)
            return None
        self._bump("remote_hits")
        self._log_remote("hit", kind, key, t0, bytes=len(blob))
        # Write through so the next get (this process or a sibling
        # sharing the directory) is a local hit.
        self.put(kind, key, obj)
        return obj

    def _log_remote(self, outcome: str, kind: str, key: str,
                    t0: float, **fields) -> None:
        if SLOG.enabled:
            SLOG.request(
                "cache.remote_get",
                (time.perf_counter() - t0) * 1000.0,
                outcome=outcome, kind=kind, key=key[:12],
                remote=self.remote, **fields,
            )

    def put(self, kind: str, key: str, obj: Any,
            exclusive: bool = False) -> bool:
        """Store ``obj``; False (silently) when the store is unwritable.

        ``exclusive`` is for immutable, content-addressed entries: the
        entry is created only if absent, atomically, so of several
        processes racing to store the same entry exactly one writes it
        (and counts a put); the others return True having written
        nothing.
        """
        if not self._writable:
            return False
        path = self._path(kind, key)
        try:
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                suffix=".tmp", dir=os.path.dirname(path)
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                if exclusive:
                    try:
                        os.link(tmp, path)  # atomic: exactly one racer wins
                    except FileExistsError:
                        return True
                    finally:
                        os.unlink(tmp)
                else:
                    os.replace(tmp, path)  # atomic: racers all win
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            # Read-only directory, disk full, unpicklable payload:
            # degrade to read-only behaviour, keep serving gets.
            self._bump("errors")
            self._writable = False
            return False
        self._bump("puts")
        if self._approx_bytes is not None:
            self._approx_bytes += len(payload)
        if self._shard_bytes is not None:
            shard = os.path.dirname(path)
            self._shard_bytes[shard] = (
                self._shard_bytes.get(shard, 0) + len(payload)
            )
        self._puts_since_check += 1
        if self._puts_since_check >= _EVICT_CHECK_INTERVAL:
            self._puts_since_check = 0
            if self._approx_bytes is None or self._approx_bytes > self.max_bytes:
                self._evict_to_cap()
        return True

    def _evict_to_cap(self) -> None:
        """Sharded eviction: evict oldest entries, largest shards first.

        The first call seeds the per-shard byte estimates (one walk,
        shard by shard); later calls re-stat only the shards they drain.
        """
        if self._shard_bytes is None:
            seeded: Dict[str, int] = {}
            for shard in self._shards():
                _entries, total = self._scan_shard(shard)
                if total:
                    seeded[shard] = total
            self._shard_bytes = seeded
        total = sum(self._shard_bytes.values())
        if total <= self.max_bytes:
            self._approx_bytes = total
            return
        target = int(self.max_bytes * _EVICT_TARGET)
        for shard in sorted(
            self._shard_bytes, key=lambda s: -self._shard_bytes[s]
        ):
            if total <= target:
                break
            entries, actual = self._scan_shard(shard)
            total += actual - self._shard_bytes.get(shard, 0)
            self._shard_bytes[shard] = actual
            entries.sort()  # oldest mtime first within the shard
            for _mtime, size, fpath in entries:
                if total <= target:
                    break
                try:
                    os.unlink(fpath)
                except OSError:
                    continue  # already gone (racing worker): not ours
                total -= size
                self._shard_bytes[shard] -= size
                self._bump("evictions")
        self._approx_bytes = total

    def stats(self) -> Dict[str, int]:
        with self._stats_lock:  # one consistent snapshot across counters
            return {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
                "errors": self.errors,
                "remote_hits": self.remote_hits,
                "remote_misses": self.remote_misses,
                "remote_errors": self.remote_errors,
            }

    def reset_counters(self) -> None:
        """Zero every counter atomically (tests, per-sweep profiling)."""
        with self._stats_lock:
            self.hits = self.misses = self.puts = 0
            self.evictions = self.errors = 0
            self.remote_hits = self.remote_misses = self.remote_errors = 0
