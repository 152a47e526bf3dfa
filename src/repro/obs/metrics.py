"""Counters and fixed-bucket histograms for simulation metrics.

The registry is deliberately tiny: metric creation is get-or-create by name,
observation is O(log buckets), and the whole registry renders to a plain
JSON-serializable dict that rides along inside
:attr:`repro.sim.result.SimulationResult.metrics`.

Two tiers of primitives live here:

* :class:`Counter` / :class:`Histogram` / :class:`MetricsRegistry` — the
  original lock-free simulation metrics.  They stay lock-free on purpose:
  they are only ever touched from the single simulator thread that owns
  the run, and a lock there would tax the hot loop for nothing.
  :data:`COUNTERS`, the process-wide sweep registry, is one too; only
  its :meth:`~MetricsRegistry.merge` takes a lock.
* :class:`Gauge` and the labeled families (:class:`CounterFamily`,
  :class:`GaugeFamily`, :class:`HistogramFamily`) — serving-side metrics
  bumped concurrently from the sweep server's asyncio handlers and its
  bridge thread, so each family guards its children with a lock.
  :func:`render_prometheus` emits the whole set in Prometheus text
  exposition format for ``GET /metrics``.
"""

import bisect
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Idempotent-section length (accesses between committed checkpoints).
SECTION_ACCESS_BUCKETS: Tuple[int, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
)
#: Write-back Buffer flush size (words per committed checkpoint).
FLUSH_BUCKETS: Tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32, 64)
#: Cycles between committed checkpoints.
SECTION_CYCLE_BUCKETS: Tuple[int, ...] = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Histogram:
    """Fixed-bucket histogram.

    ``bounds`` are inclusive upper bounds; observations above the last bound
    land in an overflow bin, so ``counts`` has ``len(bounds) + 1`` entries.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float]):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The smallest bucket bound covering the ``q``-quantile.

        Walks the cumulative counts until at least ``q * count``
        observations are covered and returns that bucket's inclusive
        upper bound — for integer-valued data binned with unit bounds
        (``analyze.py``'s per-address histograms) this is the exact
        percentile value.  The overflow bin has no bound, so a quantile
        landing there reports the tracked ``max`` (or ``inf`` if the
        histogram was rebuilt from counts without one).  Empty
        histograms report 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if not self.count:
            return 0.0
        need = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= need and n:
                if i < len(self.bounds):
                    return self.bounds[i]
                break
        return self.max if self.max is not None else float("inf")

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named counters and histograms; get-or-create access.

    :data:`COUNTERS` is the process-wide instance every sweep layer
    counts into.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sources: List[Tuple[str, Callable[[], dict],
                                  Callable[[], None]]] = []
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter()
        return c

    def attach(self, prefix: str, read: Callable[[], dict],
               reset: Callable[[], None]) -> None:
        """Fold ``read()``'s ``{name: value}`` into :meth:`snapshot`
        under ``prefix`` and call ``reset`` from :meth:`reset` — for
        counts a subsystem keeps behind its own lock (the disk store's)."""
        self._sources.append((prefix, read, reset))

    def snapshot(self) -> Dict[str, float]:
        """Every counter's value, attached sources included."""
        out = {name: c.value for name, c in list(self._counters.items())}
        for prefix, read, _ in self._sources:
            for name, value in read().items():
                out[prefix + name] = out.get(prefix + name, 0) + value
        return out

    def merge(self, delta: Dict[str, float]) -> None:
        """Add ``{name: count}`` to these counters (the disk store's
        counts when the store is dropped).  Locked, so concurrent merges
        never lose an update."""
        with self._lock:
            for name, value in delta.items():
                self.counter(name).inc(value)

    def reset(self) -> None:
        """Zero every counter and attached source (a fresh CLI run, tests)."""
        with self._lock:
            for c in list(self._counters.values()):
                c.value = 0
            for _, _, reset in self._sources:
                reset()

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(bounds)
        return h

    def to_dict(self) -> dict:
        """Plain-dict rendering: ``{"counters": {...}, "histograms": {...}}``."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "histograms": {
                k: h.to_dict() for k, h in sorted(self._histograms.items())
            },
        }


#: The process-wide sweep counters: trace cache (``traces.*``), section
#: maps and family scans (``sections.*``), fast-path dispatch
#: (``dispatch.*``), batched replay (``batch.*``) and the disk result
#: store (``cache.*``).  Each owning module reads its keys back through
#: its own ``*_stats()`` view.
COUNTERS = MetricsRegistry()


def by_prefix(counters: Dict[str, float], prefix: str) -> Dict[str, float]:
    """The non-zero entries of a :meth:`MetricsRegistry.snapshot` under
    ``prefix``, keyed by the rest of the name."""
    n = len(prefix)
    return {name[n:]: value for name, value in counters.items()
            if name.startswith(prefix) and value}


# --------------------------------------------------------------------- #
# Serving-side metrics: thread-safe gauges and labeled families.
# --------------------------------------------------------------------- #

#: Request/resolve latency buckets in seconds, log-spaced from half a
#: millisecond (memory hits) to ten seconds (cold computed sweeps).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Gauge:
    """A value that can go up and down, safe to touch from any thread."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self.value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self.value -= n


def _label_key(labels: dict) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Family:
    """Get-or-create children keyed by a sorted label tuple.

    The family lock covers child creation *and* child mutation — the
    convenience wrappers (``inc``/``observe``) bump the child while
    holding it, so concurrent bumps from the server's event loop and
    bridge threads never lose updates (``+=`` on a plain int is not
    atomic under the GIL).
    """

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._children: Dict[Tuple[Tuple[str, str], ...], object] = {}

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _child(self, labels: dict):
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def items(self) -> List[Tuple[Tuple[Tuple[str, str], ...], object]]:
        with self._lock:
            return sorted(self._children.items())


class CounterFamily(_Family):
    """A labeled set of monotonically increasing counts."""

    kind = "counter"

    def _make_child(self) -> Counter:
        return Counter()

    def inc(self, n: int = 1, **labels) -> None:
        with self._lock:
            self._child(labels).inc(n)

    def get(self, **labels) -> int:
        with self._lock:
            return self._child(labels).value


class GaugeFamily(_Family):
    """A labeled set of gauges."""

    kind = "gauge"

    def _make_child(self) -> Gauge:
        return Gauge()

    def set(self, value: float, **labels) -> None:
        self._labels_gauge(labels).set(value)

    def inc(self, n: float = 1.0, **labels) -> None:
        self._labels_gauge(labels).inc(n)

    def dec(self, n: float = 1.0, **labels) -> None:
        self._labels_gauge(labels).dec(n)

    def get(self, **labels) -> float:
        return self._labels_gauge(labels).value

    def _labels_gauge(self, labels: dict) -> Gauge:
        with self._lock:
            return self._child(labels)


class HistogramFamily(_Family):
    """A labeled set of fixed-bucket histograms sharing one bounds set."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 bounds: Sequence[float] = LATENCY_BUCKETS):
        super().__init__(name, help_text)
        self.bounds = tuple(bounds)

    def _make_child(self) -> Histogram:
        return Histogram(self.bounds)

    def observe(self, value: float, **labels) -> None:
        with self._lock:
            self._child(labels).observe(value)

    def get(self, **labels) -> Histogram:
        with self._lock:
            return self._child(labels)

    def total_count(self) -> int:
        """Observations across every labeled child (the reconciliation
        hook: the server's per-tier resolve histogram must total exactly
        the ledger's served job count)."""
        with self._lock:
            return sum(h.count for h in self._children.values())


class ServingMetrics:
    """Get-or-create registry of labeled families for the sweep server."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def counter(self, name: str, help_text: str = "") -> CounterFamily:
        return self._family(name, CounterFamily, help_text)

    def gauge(self, name: str, help_text: str = "") -> GaugeFamily:
        return self._family(name, GaugeFamily, help_text)

    def histogram(self, name: str, help_text: str = "",
                  bounds: Sequence[float] = LATENCY_BUCKETS) -> HistogramFamily:
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = self._families[name] = HistogramFamily(
                    name, help_text, bounds)
            if not isinstance(fam, HistogramFamily):
                raise TypeError(f"{name} already registered as {fam.kind}")
            return fam

    def _family(self, name: str, cls, help_text: str):
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = self._families[name] = cls(name, help_text)
            if not isinstance(fam, cls):
                raise TypeError(f"{name} already registered as {fam.kind}")
            return fam

    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[k] for k in sorted(self._families)]

    def render(self, extra_counters: Optional[Dict[str, int]] = None) -> str:
        return render_prometheus(self.families(), extra_counters)


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def _fmt_labels(key: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(v)}"' for k, v in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt_value(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(
    families: Sequence[_Family],
    extra_counters: Optional[Dict[str, int]] = None,
) -> str:
    """Prometheus text exposition (version 0.0.4) for ``GET /metrics``.

    Histograms render cumulative ``_bucket{le=...}`` series ending with
    ``+Inf``, plus ``_sum`` and ``_count``; ``extra_counters`` admits
    plain name→value mappings (the process-wide cache stats) as
    unlabeled counters.
    """
    lines: List[str] = []
    for fam in families:
        lines.append(f"# HELP {fam.name} {fam.help}" if fam.help
                     else f"# HELP {fam.name} {fam.name}")
        lines.append(f"# TYPE {fam.name} {fam.kind}")
        for key, child in fam.items():
            if isinstance(child, Histogram):
                cum = 0
                for bound, n in zip(child.bounds, child.counts):
                    cum += n
                    le = 'le="%s"' % _fmt_value(bound)
                    lines.append(
                        f"{fam.name}_bucket{_fmt_labels(key, le)} {cum}")
                inf_le = 'le="+Inf"'
                lines.append(
                    f"{fam.name}_bucket{_fmt_labels(key, inf_le)}"
                    f" {child.count}")
                lines.append(
                    f"{fam.name}_sum{_fmt_labels(key)} "
                    f"{_fmt_value(child.total)}")
                lines.append(f"{fam.name}_count{_fmt_labels(key)} "
                             f"{child.count}")
            else:
                lines.append(f"{fam.name}{_fmt_labels(key)} "
                             f"{_fmt_value(child.value)}")
    for name in sorted(extra_counters or {}):
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_fmt_value(extra_counters[name])}")
    return "\n".join(lines) + "\n"
