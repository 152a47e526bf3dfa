"""Unit tests for the metrics registry (counters + fixed-bucket histograms)
and the serving-side labeled families + Prometheus rendering."""

import json
import sys
import threading

import pytest

from repro.obs.metrics import (
    Counter,
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    HistogramFamily,
    MetricsRegistry,
    ServingMetrics,
    render_prometheus,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5


class TestHistogram:
    def test_bucket_assignment_inclusive_upper_bounds(self):
        h = Histogram((1, 2, 4))
        for v in (0, 1, 2, 3, 4, 5):
            h.observe(v)
        # <=1: {0,1}; <=2: {2}; <=4: {3,4}; overflow: {5}
        assert h.counts == [2, 1, 2, 1]
        assert h.count == 6
        assert h.total == 15
        assert h.mean == pytest.approx(2.5)
        assert h.min == 0 and h.max == 5

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram((4, 2))
        with pytest.raises(ValueError):
            Histogram((1, 1, 2))

    def test_empty_histogram_mean(self):
        h = Histogram((1,))
        assert h.mean == 0.0
        assert h.min is None and h.max is None

    def test_to_dict_is_json_serializable(self):
        h = Histogram((1, 10))
        h.observe(3)
        d = h.to_dict()
        json.dumps(d)
        assert d["counts"] == [0, 1, 0]
        assert d["count"] == 1

    def test_percentile_unit_bounds_exact(self):
        """Integer data binned with unit bounds: the bucket bound IS the
        exact percentile (the analyze.py p50/p95 contract)."""
        h = Histogram(range(10))
        for v in range(10):  # one observation per value 0..9
            h.observe(v)
        assert h.percentile(0.50) == 4
        assert h.percentile(0.95) == 9
        assert h.percentile(0.0) == 0
        assert h.percentile(1.0) == 9

    def test_percentile_overflow_bin_reports_max(self):
        h = Histogram((1, 2))
        for v in (1, 50, 60):
            h.observe(v)
        assert h.percentile(0.95) == 60
        # Rebuilt from counts without a tracked max: inf, not a lie.
        h2 = Histogram((1, 2))
        h2.counts = [0, 0, 3]
        h2.count = 3
        assert h2.percentile(0.95) == float("inf")

    def test_percentile_empty_and_bad_quantile(self):
        h = Histogram((1,))
        assert h.percentile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_percentile_skips_empty_buckets(self):
        h = Histogram((1, 2, 3, 4))
        h.observe(1)
        h.observe(4)
        assert h.percentile(0.5) == 1
        assert h.percentile(0.9) == 4


class TestMetricsRegistry:
    def test_get_or_create_semantics(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h", (1, 2)) is reg.histogram("h", (1, 2))

    def test_to_dict_shape(self):
        reg = MetricsRegistry()
        reg.counter("ckpt").inc(3)
        reg.histogram("len", (2, 8)).observe(5)
        d = reg.to_dict()
        assert d["counters"] == {"ckpt": 3}
        assert d["histograms"]["len"]["counts"] == [0, 1, 0]
        json.dumps(d)

    def test_snapshot_delta_merge_reset(self):
        source = {"hits": 2}
        reg = MetricsRegistry()
        reg.attach("disk.", lambda: dict(source), source.clear)
        reg.counter("runs").inc(3)
        before = reg.snapshot()
        assert before == {"runs": 3, "disk.hits": 2}
        reg.counter("runs").inc()
        source["hits"] = 5
        delta = reg.delta(before)
        assert delta == {"runs": 1, "disk.hits": 3}

        parent = MetricsRegistry()
        parent.merge(delta)
        parent.merge(delta)
        assert parent.snapshot() == {"runs": 2, "disk.hits": 6}
        reg.reset()
        assert reg.snapshot() == {"runs": 0}
        assert reg.delta(reg.snapshot()) == {}

    def test_concurrent_merges_never_lost(self):
        """The sweep server merges payload deltas from several bridge
        threads at once; the totals must be exact."""
        reg = MetricsRegistry()
        n_threads, n_ops = 8, 2000

        def merge():
            for _ in range(n_ops):
                reg.merge({"cache.puts": 1, "sections.misses": 2})

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=merge)
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert reg.snapshot() == {"cache.puts": n_threads * n_ops,
                                  "sections.misses": 2 * n_threads * n_ops}


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(5)
        g.inc(2)
        g.dec()
        assert g.value == 6


class TestFamilies:
    def test_counter_family_labels(self):
        fam = CounterFamily("http_requests_total", "requests")
        fam.inc(endpoint="/jobs", status="200")
        fam.inc(3, endpoint="/jobs", status="200")
        fam.inc(endpoint="/stats", status="200")
        assert fam.get(endpoint="/jobs", status="200") == 4
        assert fam.get(status="200", endpoint="/jobs") == 4  # order-free
        assert len(fam.items()) == 2

    def test_histogram_family_total_count(self):
        fam = HistogramFamily("resolve_seconds", "", bounds=(0.1, 1.0))
        fam.observe(0.05, tier="memory")
        fam.observe(0.5, tier="computed")
        fam.observe(2.0, tier="computed")
        assert fam.total_count() == 3
        assert fam.get(tier="computed").count == 2

    def test_serving_metrics_get_or_create_and_type_clash(self):
        m = ServingMetrics()
        assert m.counter("a") is m.counter("a")
        assert m.histogram("h") is m.histogram("h")
        with pytest.raises(TypeError, match="already registered"):
            m.gauge("a")
        assert [f.name for f in m.families()] == ["a", "h"]

    def test_concurrent_increments_never_lost(self):
        """The family lock covers mutation: hammering one labeled child
        from many threads must sum exactly (``+=`` alone would not)."""
        fam = CounterFamily("hammer", "")
        hist = HistogramFamily("hammer_h", "", bounds=(0.5,))
        n_threads, n_ops = 8, 2000

        def bump():
            for _ in range(n_ops):
                fam.inc(endpoint="/jobs")
                hist.observe(0.1, tier="memory")

        threads = [threading.Thread(target=bump) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert fam.get(endpoint="/jobs") == n_threads * n_ops
        assert hist.total_count() == n_threads * n_ops


class TestRenderPrometheus:
    def _parse(self, text):
        """Parse exposition text to {series{labels}: value}."""
        out = {}
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            out[name] = float(value)
        return out

    def test_counter_and_gauge_series(self):
        m = ServingMetrics()
        m.counter("reqs", "total requests").inc(7, endpoint="/jobs")
        m.gauge("inflight").set(2, kind="jobs")
        text = m.render()
        assert "# HELP reqs total requests" in text
        assert "# TYPE reqs counter" in text
        assert "# TYPE inflight gauge" in text
        series = self._parse(text)
        assert series['reqs{endpoint="/jobs"}'] == 7
        assert series['inflight{kind="jobs"}'] == 2

    def test_histogram_buckets_cumulative_and_reconcile(self):
        fam = HistogramFamily("lat", "latency", bounds=(0.1, 1.0))
        for v in (0.05, 0.5, 0.7, 5.0):
            fam.observe(v, tier="computed")
        series = self._parse(render_prometheus([fam]))
        assert series['lat_bucket{tier="computed",le="0.1"}'] == 1
        assert series['lat_bucket{tier="computed",le="1"}'] == 3
        # +Inf bucket equals _count equals total observations.
        assert series['lat_bucket{tier="computed",le="+Inf"}'] == 4
        assert series['lat_count{tier="computed"}'] == 4
        assert series['lat_sum{tier="computed"}'] == pytest.approx(6.25)

    def test_extra_counters_and_label_escaping(self):
        m = ServingMetrics()
        m.counter("c").inc(1, path='a"b\\c')
        text = m.render(extra_counters={"cache_hits": 12})
        assert "cache_hits 12" in text
        assert '\\"' in text and "\\\\" in text
        assert text.endswith("\n")
