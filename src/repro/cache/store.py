"""Persistent content-addressed result store (``REPRO_CACHE_DIR``).

A :class:`CacheStore` keeps JSON values — each sweep job's whole result,
kind ``result`` — under a content hash the *caller* derives from
everything that determines the value (see
:func:`repro.eval.parallel.result_key`).  Intermediate artifacts are
never stored: rebuilding them in memory is cheaper than loading them.

Each writing process appends to a segment of its own,
``<root>/<creation ns>-<pid>.seg``, created with ``O_EXCL`` on its first
put and sealed once it holds an eighth of the size cap.  A put is one
``os.write`` of one entry: an 88-byte header (magic, the sha256 of every
byte after it, kind, 32-byte key, payload length), then the payload in
compact JSON.  An in-memory index maps a hash of ``(kind, key)`` to one
int packing segment, offset and length; opening the store fills it by
scanning headers in bounded chunks.  A get is one ``pread``, a header
and sha256 check, ``json.loads`` and the caller's ``decode``.  A miss
first refreshes the index — one ``stat`` of the root finds new segments,
one ``fstat`` per foreign segment finds appends — so processes sharing
the directory (a sweep server, local evals) see each other's results.
Two writers of one key write equal values, so duplicates are harmless.

Robustness contract (``tests/test_disk_cache.py``, ``tests/test_serve.py``):

* **Torn appends** — a writer killed mid-append leaves a partial entry
  at the end of its segment.  Scans stop there, every earlier entry
  stays readable, and the next process appends to a fresh segment.
* **Corruption tolerance** — an entry whose header or sha256 does not
  match, whose JSON does not parse, or whose value ``decode`` refuses is
  counted in ``errors`` and read as a miss.  It leaves the index, so
  the next put of its key repairs it.  Nothing the directory holds
  makes a get raise.
* **Silent degradation** — with ``REPRO_CACHE_DIR`` unset nothing
  touches the filesystem; an unwritable directory serves reads but
  drops writes after the first failure; a value JSON cannot encode is a
  counted error.  Callers never need to guard their puts.
* **Size cap** — ``REPRO_CACHE_MAX_MB`` bounds the known segments plus
  the pickle trees an older layout left (:data:`LEGACY_DIRS`).
  Eviction removes those trees first, then whole segments oldest first
  (names sort by age), never the one this process writes, down to 90%
  of the cap; at most ``_MAX_SEGMENTS`` segments stay open for reads.
* **Remote read-through tier** — ``REPRO_CACHE_REMOTE`` names a
  :mod:`repro.serve` peer; a local miss is retried as ``GET
  {remote}/artifact/{kind}/{key}``, which relays the peer's stored
  entry.  Its header, sha256 and ``decode`` are checked before it is
  written through, so a dead, corrupt or hostile peer is a counted
  ``remote_errors`` miss costing at most one bounded timeout.

Values are JSON, never pickles: nothing a peer or a damaged file holds
is executed.
"""

import hashlib
import io
import json
import os
import shutil
import struct
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Callable, Dict, List, Optional

from repro.obs.slog import SLOG

#: Format-version salt folded into every key by :func:`content_key`;
#: bump when any stored value's layout changes.
CACHE_VERSION = 2

#: Counters every store keeps (``cache.*`` in the metrics registry).
COUNTER_NAMES = ("hits", "misses", "puts", "evictions", "errors",
                 "remote_hits", "remote_misses", "remote_errors")

#: Entry header: magic, sha256 of every byte after it, kind (NUL padded),
#: key, payload length.
_HEAD = struct.Struct(">4s32s16s32sI")
_TAIL = struct.Struct(">16s32sI")
HEADER = _HEAD.size
_MAGIC = b"RPK1"

#: Directories of the one-pickle-per-entry layout this store replaced.
LEGACY_DIRS = ("result", "sections", "section_tables", "compiled", "pi")

_SUFFIX = ".seg"
_ROLL_FRACTION = 8        # a segment is sealed at this fraction of the cap
_EVICT_TARGET = 0.9       # eviction frees down to this fraction of the cap
_MAX_SEGMENTS = 256       # read handles a process keeps open at most
_SCAN_CHUNK = 1 << 16     # bytes per ``pread`` while scanning headers

#: A root mtime this close to the last listing may hide a segment
#: created within the same timestamp tick (a few ms on local
#: filesystems), so the root is listed again.
_MTIME_SLACK_NS = 100_000_000

#: Index values pack (segment number, offset, payload length).
_LEN_BITS, _OFF_BITS = 32, 40
_SEG_SHIFT = _LEN_BITS + _OFF_BITS
_LEN_MASK, _OFF_MASK = (1 << _LEN_BITS) - 1, (1 << _OFF_BITS) - 1

_ENCODE = json.JSONEncoder(separators=(",", ":")).encode

#: Default remote-tier fetch timeout (seconds); ``REPRO_CACHE_REMOTE``
#: names a loopback/LAN peer, so a slow remote must degrade quickly.
DEFAULT_REMOTE_TIMEOUT = 5.0


def _slot(kind_f: bytes, key_b: bytes) -> int:
    """A key's index slot: 60 bits of a hash.  A collision reads as a
    damaged entry, since a get checks the whole key."""
    return hash((kind_f, key_b)) & ((1 << 60) - 1)


def _fields(kind: str, key: str):
    """The header's kind and key fields, and the key's index slot."""
    kind_f, key_b = kind.encode("ascii").ljust(16, b"\0"), bytes.fromhex(key)
    return kind_f, key_b, _slot(kind_f, key_b)


def encode_entry(kind: str, key: str, payload: bytes) -> bytes:
    """One stored entry: the header, then ``payload`` (JSON bytes)."""
    kind_f, key_b, _ = _fields(kind, key)
    tail = _TAIL.pack(kind_f, key_b, len(payload))
    digest = hashlib.sha256(tail)
    digest.update(payload)
    return b"".join((_MAGIC, digest.digest(), tail, payload))


def _decode(blob: bytes, kind_f: bytes, key_b: bytes,
            decode: Optional[Callable[[Any], Any]]) -> Any:
    """The value of one entry stored under ``(kind_f, key_b)``; raises
    when its header, sha256 or JSON does not check out or ``decode``
    refuses it."""
    magic, digest, entry_kind, entry_key, length = _HEAD.unpack_from(blob)
    if (magic != _MAGIC or entry_kind != kind_f or entry_key != key_b
            or len(blob) != HEADER + length
            or hashlib.sha256(memoryview(blob)[36:]).digest() != digest):
        raise ValueError("entry does not match its key or digest")
    value = json.loads(blob[HEADER:])
    return value if decode is None else decode(value)


class _Segment:
    __slots__ = ("no", "name", "fh", "fd", "end", "seen", "entries", "own")

    def __init__(self, no: int, name: str, fh: io.FileIO, own: bool):
        self.no, self.name, self.fh, self.fd = no, name, fh, fh.fileno()
        self.end = 0      # end of the last whole entry indexed
        self.seen = 0     # file size at the last scan
        self.entries = 0
        self.own = own


class CacheStore:
    """Pack-segment store over one directory; see the module docstring."""

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
        # Counter bumps happen concurrently under a sweep server — its
        # async handlers and bridge thread share one store — and ``+=`` on
        # an int attribute is not atomic under the GIL.  One lock, held
        # only for the bump, keeps the totals exact.
        self._stats_lock = threading.Lock()
        self.reset_counters()
        # Guards the index, the segments and the live segment: puts from
        # several threads serialize, and no file closes under a read.
        self._lock = threading.Lock()
        self._writable = True
        self._roll = max(1, max_bytes // _ROLL_FRACTION)
        self._index: Dict[int, int] = {}
        self._segments: Dict[int, _Segment] = {}
        self._next_no = 0
        self._live: Optional[_Segment] = None
        self._legacy: Dict[str, List[int]] = {}  # name -> [bytes, files]
        self._bytes = 0
        self._root_mtime: Optional[int] = None
        self._listed_ns = 0
        with self._lock:
            self._refresh()

    # -- index --------------------------------------------------------- #

    def _refresh(self) -> None:
        """Index what other processes wrote since the last look: one
        ``stat`` of the root, a listing only when it may have changed,
        one ``fstat`` per foreign segment."""
        try:
            mtime = os.stat(self.root).st_mtime_ns
        except OSError:
            return
        if (mtime != self._root_mtime
                or mtime >= self._listed_ns - _MTIME_SLACK_NS):
            self._root_mtime, self._listed_ns = mtime, time.time_ns()
            self._relist()
        for seg in list(self._segments.values()):
            if not seg.own:
                self._scan(seg)

    def _relist(self) -> None:
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return
        present = set(names)
        known = {seg.name for seg in self._segments.values()}
        # Segments another process evicted, then new ones, oldest first.
        self._forget([seg.no for seg in self._segments.values()
                      if seg.name not in present])
        for name in names:
            if name.endswith(_SUFFIX) and name not in known:
                try:
                    fh = io.FileIO(os.path.join(self.root, name), "r")
                except OSError:
                    continue  # evicted between the listing and the open
                self._scan(self._add(name, fh, own=False))
            elif name in LEGACY_DIRS and name not in self._legacy:
                self._legacy[name] = _tree_size(os.path.join(self.root, name))
                self._bytes += self._legacy[name][0]
        for name in [n for n in self._legacy if n not in present]:
            self._bytes -= self._legacy.pop(name)[0]

    def _add(self, name: str, fh: io.FileIO, own: bool) -> _Segment:
        seg = self._segments[self._next_no] = _Segment(
            self._next_no, name, fh, own)
        self._next_no += 1
        return seg

    def _scan(self, seg: _Segment) -> None:
        """Index the whole entries appended to ``seg`` since its last
        scan, reading ``_SCAN_CHUNK`` bytes at a time; stop at a torn or
        unrecognised entry."""
        try:
            size = os.fstat(seg.fd).st_size
        except OSError:
            return
        if size == seg.seen:
            return
        seg.seen = size
        pos = base = seg.end
        buf = b""
        while pos + HEADER <= size:
            if pos + HEADER > base + len(buf):
                try:
                    buf, base = os.pread(seg.fd, _SCAN_CHUNK, pos), pos
                except OSError:
                    break
                if len(buf) < HEADER:
                    break
            magic, _digest, kind_f, key_b, length = _HEAD.unpack_from(
                buf, pos - base)
            end = pos + HEADER + length
            if magic != _MAGIC or end > size:
                break
            self._index[_slot(kind_f, key_b)] = (
                seg.no << _SEG_SHIFT | pos << _LEN_BITS | length)
            seg.entries += 1
            pos = end
        self._bytes += pos - seg.end
        seg.end = pos

    def _forget(self, nos: List[int]) -> None:
        """Close dropped segments and purge their index entries."""
        if not nos:
            return
        for no in nos:
            seg = self._segments.pop(no)
            self._bytes -= seg.end
            seg.fh.close()
            if seg is self._live:
                self._live = None
        dead = set(nos)
        for slot in [s for s, loc in self._index.items()
                     if loc >> _SEG_SHIFT in dead]:
            del self._index[slot]

    def _locate(self, slot: int):
        """``(loc, entry bytes)`` of an index slot, or ``(None, None)``."""
        with self._lock:
            loc = self._index.get(slot)
            if loc is None:
                self._refresh()
                loc = self._index.get(slot)
                if loc is None:
                    return None, None
            try:
                return loc, os.pread(
                    self._segments[loc >> _SEG_SHIFT].fd,
                    HEADER + (loc & _LEN_MASK), loc >> _LEN_BITS & _OFF_MASK)
            except OSError:
                return loc, b""

    # -- operations ---------------------------------------------------- #

    def _bump(self, name: str, n: int = 1) -> None:
        """Thread-safe counter increment (see ``_stats_lock``)."""
        with self._stats_lock:
            setattr(self, name, getattr(self, name) + n)

    def get(self, kind: str, key: str,
            decode: Optional[Callable[[Any], Any]] = None) -> Optional[Any]:
        """The stored value passed through ``decode`` (when given), or
        ``None``: a miss, or a corrupt or undecodable entry.

        A local miss consults the remote tier (when configured) before
        reporting the miss; a remote hit is written through locally.
        """
        kind_f, key_b, slot = _fields(kind, key)
        loc, blob = self._locate(slot)
        if loc is None:
            value = self._remote_get(kind, key, decode)
            if value is None:
                self._bump("misses")
            return value
        try:
            value = _decode(blob, kind_f, key_b, decode)
        except Exception:
            # Damaged entry or one the caller cannot use: count it, and
            # drop it from the index so a later put repairs it.
            self._bump("errors")
            self._bump("misses")
            with self._lock:
                if self._index.get(slot) == loc:
                    del self._index[slot]
            return None
        self._bump("hits")
        return value

    def raw_entry(self, kind: str, key: str) -> Optional[bytes]:
        """A key's stored entry, header and all, as the ``/artifact``
        endpoint relays it to a read-through peer (which checks it)."""
        return self._locate(_fields(kind, key)[2])[1]

    def _remote_get(self, kind: str, key: str,
                    decode: Optional[Callable[[Any], Any]]) -> Optional[Any]:
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
            kind_f, key_b, _slot = _fields(kind, key)
            value = _decode(blob, kind_f, key_b, decode)
        except urllib.error.HTTPError:
            # The peer answered and does not have it: a clean remote miss.
            self._bump("remote_misses")
            self._log_remote("miss", kind, key, t0)
            return None
        except Exception as exc:
            # Unreachable peer, timeout, corrupt or hostile entry: degrade.
            self._bump("remote_errors")
            self._log_remote("error", kind, key, t0,
                             error=type(exc).__name__)
            return None
        self._bump("remote_hits")
        self._log_remote("hit", kind, key, t0, bytes=len(blob))
        # Write the checked entry through, so the next get (this process
        # or a sibling sharing the directory) is a local hit.
        if self._writable:
            self._append(blob)
        return value

    def _log_remote(self, outcome: str, kind: str, key: str,
                    t0: float, **fields) -> None:
        if SLOG.enabled:
            SLOG.request(
                "cache.remote_get",
                (time.perf_counter() - t0) * 1000.0,
                outcome=outcome, kind=kind, key=key[:12],
                remote=self.remote, **fields,
            )

    def put(self, kind: str, key: str, obj: Any) -> bool:
        """Store ``obj`` (a JSON-encodable value); False (silently) when
        it cannot be encoded or the store is unwritable."""
        if not self._writable:
            return False
        try:
            entry = encode_entry(kind, key, _ENCODE(obj).encode("utf-8"))
        except (TypeError, ValueError):  # not JSON, or not a hex key
            self._bump("errors")
            return False
        return self._append(entry)

    def _append(self, entry: bytes) -> bool:
        """Append one encoded entry to this process's live segment."""
        _magic, _digest, kind_f, key_b, length = _HEAD.unpack_from(entry)
        with self._lock:
            try:
                seg = self._live
                if seg is None:
                    seg = self._live = self._open_live()
                if os.write(seg.fd, entry) != len(entry):
                    raise OSError("short write")
            except OSError:
                # Read-only directory, disk full: keep serving gets.  A
                # short write leaves a torn tail, so nothing may follow it.
                self._writable, self._live = False, None
                ok = False
            else:
                self._index[_slot(kind_f, key_b)] = (
                    seg.no << _SEG_SHIFT | seg.end << _LEN_BITS | length)
                seg.end = seg.seen = seg.end + len(entry)
                seg.entries += 1
                self._bytes += len(entry)
                if seg.end >= self._roll:
                    self._live = None
                if (self._bytes > self.max_bytes
                        or len(self._segments) > _MAX_SEGMENTS):
                    self._evict()
                ok = True
        self._bump("puts" if ok else "errors")
        return ok

    def _open_live(self) -> _Segment:
        os.makedirs(self.root, exist_ok=True)
        flags = os.O_RDWR | os.O_CREAT | os.O_EXCL | os.O_APPEND
        while True:
            name = f"{time.time_ns():020d}-{os.getpid()}{_SUFFIX}"
            try:
                fd = os.open(os.path.join(self.root, name), flags, 0o644)
            except FileExistsError:
                continue  # same nanosecond, same pid: take the next one
            return self._add(name, io.FileIO(fd, "r+"), own=True)

    def _evict(self) -> None:
        """Remove legacy pickle trees, then whole segments oldest first
        (never the live one), until the store fits ``_EVICT_TARGET`` of
        the cap and ``_MAX_SEGMENTS``."""
        target = int(self.max_bytes * _EVICT_TARGET)
        for name in list(self._legacy):
            if self._bytes <= target:
                break
            shutil.rmtree(os.path.join(self.root, name), ignore_errors=True)
            size, files = self._legacy.pop(name)
            self._bytes -= size
            self._bump("evictions", files)
        dropped, evicted = [], 0
        size, keep = self._bytes, len(self._segments)
        for seg in sorted(self._segments.values(), key=lambda s: s.name):
            if size <= target and keep <= _MAX_SEGMENTS:
                break
            if seg is self._live:
                continue
            try:
                os.unlink(os.path.join(self.root, seg.name))
            except FileNotFoundError:
                pass  # another process evicted it first
            except OSError:
                continue
            dropped.append(seg.no)
            evicted += seg.entries
            size -= seg.end
            keep -= 1
        self._forget(dropped)
        if evicted:
            self._bump("evictions", evicted)

    def close(self) -> None:
        """Close every segment handle; a later get or put reopens what
        it needs."""
        with self._lock:
            self._forget(list(self._segments))
            self._root_mtime = None

    def stats(self) -> Dict[str, int]:
        with self._stats_lock:  # one consistent snapshot across counters
            return {name: getattr(self, name) for name in COUNTER_NAMES}

    def reset_counters(self) -> None:
        """Zero every counter atomically (tests, per-sweep profiling)."""
        with self._stats_lock:
            for name in COUNTER_NAMES:
                setattr(self, name, 0)


def _tree_size(path: str) -> List[int]:
    """``[bytes, files]`` under a legacy pickle tree."""
    size = files = 0
    for dirpath, _dirnames, filenames in os.walk(path):
        for name in filenames:
            try:
                size += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                continue
            files += 1
    return [size, files]
