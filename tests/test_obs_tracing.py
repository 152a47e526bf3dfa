"""Distributed tracing: the contracts in :mod:`repro.obs.tracing`.

The zero-cost-when-off discipline (one shared no-op span, empty buffer),
header propagation (``format_traceparent`` / ``parse_traceparent`` round
trips; malformed values degrade to a fresh trace), ambient nesting via
the context variable, the bounded buffer, JSONL export/merge dedupe, the
Chrome rendering, and — end to end against an in-process server — the
client job span → server resolve span → worker span causal chain across
all the dedupe-funnel tiers.
"""

import json

import pytest

import repro.cache as artifact_cache
from repro.eval.parallel import SimJob, run_jobs
from repro.eval.settings import EvalSettings
from repro.obs import tracing
from repro.obs.chrome_trace import spans_to_chrome_trace
from repro.obs.tracing import (
    TRACER,
    Tracer,
    _NOOP,
    finish_span,
    format_traceparent,
    make_span,
    merge_spans,
    parse_traceparent,
    read_spans,
    write_spans,
)
from repro.serve import ServeClient, start_in_background, uninstall
from repro.sim import sections

SETTINGS = EvalSettings(size="tiny", verify=False)


@pytest.fixture(autouse=True)
def _tracer_off():
    """Every test starts and ends with the shared tracer off and empty."""
    TRACER.disable()
    TRACER.reset()
    TRACER.export_path = None
    yield
    TRACER.disable()
    TRACER.reset()
    TRACER.export_path = None


class TestZeroCostWhenOff:
    def test_disabled_span_is_the_shared_noop(self):
        t = Tracer()
        assert t.span("a") is t.span("b")
        assert t.span("a") is _NOOP
        assert TRACER.span("x") is _NOOP

    def test_disabled_span_buffers_nothing(self):
        t = Tracer()
        with t.span("outer", workload="crc"):
            with t.span("inner"):
                pass
        assert t.spans == [] and t.dropped == 0

    def test_noop_span_api_surface(self):
        with TRACER.span("x") as s:
            assert s.set("k", "v") is s
            assert s.span_id is None and s.trace_id is None


class TestTraceparent:
    def test_round_trip(self):
        span = make_span("op", "client")
        header = format_traceparent(span["trace_id"], span["span_id"])
        assert parse_traceparent(header) == (
            span["trace_id"], span["span_id"]
        )

    @pytest.mark.parametrize("bad", [
        None, "", "deadbeef", "-", "abc-", "-abc",
        "xyz-123", "abc-12g4", "ABC-DEF",
    ])
    def test_malformed_values_parse_as_none(self, bad):
        assert parse_traceparent(bad) is None

    def test_whitespace_tolerated(self):
        assert parse_traceparent(" ab12-cd34 ") == ("ab12", "cd34")


class TestSpanNesting:
    def test_ambient_parenting_via_context_manager(self):
        t = Tracer()
        t.enable(service="eval")
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.span["parent_id"] == outer.span_id
        outer_d = next(s for s in t.spans if s["name"] == "outer")
        inner_d = next(s for s in t.spans if s["name"] == "inner")
        assert inner_d["parent_id"] == outer_d["span_id"]
        assert outer_d["parent_id"] is None
        assert outer_d["t1"] >= inner_d["t1"] >= inner_d["t0"] >= outer_d["t0"]

    def test_explicit_parent_beats_ambient(self):
        t = Tracer()
        t.enable()
        with t.span("ambient"):
            span = t.start("child", parent=("aaaa", "bbbb"))
        assert span["trace_id"] == "aaaa" and span["parent_id"] == "bbbb"

    def test_start_without_context_roots_a_new_trace(self):
        t = Tracer()
        t.enable()
        span = t.start("root")
        assert span["parent_id"] is None and span["trace_id"]

    def test_exception_recorded_and_context_restored(self):
        t = Tracer()
        t.enable()
        with pytest.raises(RuntimeError):
            with t.span("boom"):
                raise RuntimeError("x")
        assert Tracer.current() is None
        assert t.spans[0]["attrs"]["error"] == "RuntimeError"


class TestBoundedBuffer:
    def test_drops_beyond_max_spans(self):
        t = Tracer(max_spans=3)
        t.enable()
        for i in range(5):
            t.finish(t.start(f"s{i}"))
        assert len(t.spans) == 3 and t.dropped == 2
        t.reset()
        assert t.spans == [] and t.dropped == 0


class TestExportAndMerge:
    def test_jsonl_round_trip(self, tmp_path):
        spans = [finish_span(make_span(f"s{i}", "eval")) for i in range(3)]
        path = str(tmp_path / "spans.jsonl")
        write_spans(spans, path)
        assert read_spans(path) == spans

    def test_flush_appends_and_clears(self, tmp_path):
        t = Tracer()
        path = str(tmp_path / "out.jsonl")
        t.enable(export_path=path)
        t.finish(t.start("a"))
        assert t.flush() == 1
        t.finish(t.start("b"))
        assert t.flush() == 1
        assert t.spans == []
        assert [s["name"] for s in read_spans(path)] == ["a", "b"]

    def test_read_rejects_non_span_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"no_span_id": 1}\n')
        with pytest.raises(ValueError, match="not a span line"):
            read_spans(str(path))

    def test_merge_dedupes_by_span_id(self):
        shared = finish_span(make_span("worker job", "worker"))
        client_only = finish_span(make_span("client job", "client"))
        merged = merge_spans([[shared, client_only], [dict(shared)]])
        assert len(merged) == 2
        assert merged == sorted(merged, key=lambda s: s["t0"])


class TestChromeRendering:
    def test_groups_by_service_and_parents_nest(self):
        client = finish_span(make_span("serve.batch", "client"))
        resolve = finish_span(make_span(
            "resolve", "server",
            trace_id=client["trace_id"], parent_id=client["span_id"],
        ))
        trace = spans_to_chrome_trace([client, resolve])
        names = {
            ev["args"]["name"] for ev in trace["traceEvents"]
            if ev["name"] == "process_name"
        }
        assert len(names) == 2  # client and server Chrome processes
        spans = [ev for ev in trace["traceEvents"] if ev["ph"] == "X"]
        assert {ev["name"] for ev in spans} == {"serve.batch", "resolve"}
        args = {ev["name"]: ev["args"] for ev in spans}
        assert args["resolve"]["parent_id"] == client["span_id"]
        json.dumps(trace)

    def test_empty_input(self):
        assert spans_to_chrome_trace([])["traceEvents"] == []

    def test_merge_survives_bad_span_files(self, tmp_path):
        """Mixed-type pids and non-numeric times render instead of
        raising: each pid gets its own process, a bad t0 renders at 0."""
        good = finish_span(make_span("job", "worker"))
        path = tmp_path / "spans.jsonl"
        write_spans([
            good,
            dict(good, span_id="a1", pid="w1"),
            dict(good, span_id="a2", t0="soon", t1=None),
            dict(good, span_id="a3", pid=None, t0=None),
        ], str(path))
        out = tmp_path / "merged.json"
        assert tracing.main(["merge", str(path), "--out", str(out)]) == 0
        with open(out) as fh:
            trace = json.load(fh)
        names = {ev["args"]["name"] for ev in trace["traceEvents"]
                 if ev["name"] == "process_name"}
        assert names == {f"worker (pid {good['pid']})", "worker (pid w1)",
                         "worker"}
        spans = [ev for ev in trace["traceEvents"] if ev["ph"] == "X"]
        assert len(spans) == 4
        assert min(ev["ts"] for ev in spans) == 0.0
        assert all(ev["dur"] >= 1.0 for ev in spans)


@pytest.fixture()
def served_tracer(monkeypatch, tmp_path):
    """A loopback server plus both-sided tracing, isolated caches."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    artifact_cache.reset_for_tests()
    sections.clear_cache()
    uninstall()
    TRACER.reset()
    TRACER.enable(service="client")
    handle = start_in_background()
    yield handle
    handle.stop()
    uninstall()
    sections.clear_cache()
    artifact_cache.reset_for_tests()


class TestEndToEndPropagation:
    def test_client_server_worker_span_chain(self, served_tracer):
        """One in-process loopback batch produces the full causal chain:
        every server resolve span is parented under the exact client job
        span that awaited it, and computed jobs hang a worker simulate
        span under their resolve span."""
        jobs = [
            SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny", salt=0),
            SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny", salt=0),
            SimJob(workload="rc4", config=(4, 2, 1, 0), size="tiny", salt=0),
        ]
        client = ServeClient(served_tracer.url)
        client.run_jobs(jobs, SETTINGS)
        # Repeat batch: answered from the memory tier, new client spans.
        ServeClient(served_tracer.url).run_jobs(jobs, SETTINGS)

        spans = TRACER.spans
        by_id = {s["span_id"]: s for s in spans}
        client_jobs = [s for s in spans
                       if s["service"] == "client"
                       and s["name"].startswith("job ")]
        resolves = [s for s in spans if s["name"] == "resolve"]
        workers = [s for s in spans if s["service"] == "worker"]
        assert len(client_jobs) == 6
        assert len(resolves) == 6
        # 2 computed + (1 coalesced or memory) + 3 memory replays; a
        # memory/coalesced answer never re-runs the worker.
        assert len(workers) == 2

        for r in resolves:
            parent = by_id[r["parent_id"]]
            assert parent in client_jobs
            assert r["trace_id"] == parent["trace_id"]
            assert parent["t0"] <= r["t0"] and r["t1"] <= parent["t1"]
        for w in workers:
            parent = by_id[w["parent_id"]]
            assert parent in resolves
            assert parent["attrs"]["tier"] == "computed"
        tiers = sorted(r["attrs"]["tier"] for r in resolves)
        assert tiers.count("computed") == 2
        assert tiers.count("memory") >= 3

    def test_five_tiers_reach_the_resolve_span(self, served_tracer,
                                               monkeypatch, tmp_path):
        """The resolve span's tier attribute spans the dedupe funnel:
        computed and coalesced within one batch, memory on a repeat, and
        disk once the memory tier is evicted to zero."""
        dup = SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny", salt=5)
        client = ServeClient(served_tracer.url)
        client.run_jobs([dup, dup], SETTINGS)
        client.run_jobs([dup], SETTINGS)
        tiers = {s["attrs"]["tier"] for s in TRACER.spans
                 if s["name"] == "resolve"}
        assert {"computed", "coalesced", "memory"} <= tiers

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        artifact_cache.reset_for_tests()
        disk_server = start_in_background(memory_entries=0)
        try:
            c = ServeClient(disk_server.url)
            c.run_jobs([dup], SETTINGS)
            c.run_jobs([dup], SETTINGS)
        finally:
            disk_server.stop()
        tiers = {s["attrs"]["tier"] for s in TRACER.spans
                 if s["name"] == "resolve"}
        assert "disk" in tiers

    def test_served_results_identical_with_tracing(self, served_tracer):
        """Tracing must never leak into results (byte identity)."""
        jobs = [SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny")]
        traced = ServeClient(served_tracer.url).run_jobs(jobs, SETTINGS)
        TRACER.disable()
        plain = run_jobs(jobs, SETTINGS)
        assert [r.to_dict(include_derived=False) for r in traced] == \
               [r.to_dict(include_derived=False) for r in plain]
