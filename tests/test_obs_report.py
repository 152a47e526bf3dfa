"""The ``python -m repro.obs.report`` run-profile renderer, and the
ledger tally (:func:`repro.obs.telemetry.tally`) it reads."""

import json

import pytest

from repro.obs import report, telemetry
from repro.obs.chrome_trace import ledger_spans, spans_to_chrome_trace
from repro.obs.telemetry import Ledger, RunRecord, tally


def sample_ledger():
    """A hand-built two-driver ledger with every engine represented."""
    records = [
        RunRecord(workload="crc", config="1,0,0,0", engine="fast",
                  kernel="c", driver="fig5", salt=0,
                  wall_s=0.010, t_start=0.0, worker=100, index=0),
        RunRecord(workload="aes", config="8,4,2,0", engine="fast",
                  kernel="c", driver="fig5", salt=1,
                  wall_s=0.200, t_start=0.011, worker=101, index=1),
        RunRecord(workload="crc", config="8,4,2,0", engine="reference",
                  fallback_reason="watchdog_cut", driver="fig5", salt=0,
                  wall_s=0.050, t_start=0.012, worker=100, index=2),
        RunRecord(workload="qsort", config="1,0,0,0",
                  engine="disk-cached-result", result_cache="hit",
                  driver="fig7", salt=0,
                  wall_s=0.0, t_start=0.3, worker=100, index=3),
        RunRecord(workload="rc4", config="16,8,4,4", engine="stalled",
                  stalled=True, driver="fig7", salt=2,
                  wall_s=0.002, t_start=0.31, worker=101, index=4),
    ]
    drivers = [
        {"type": "driver", "name": "fig5", "t0": 0.0, "t1": 0.25},
        {"type": "driver", "name": "fig7", "t0": 0.25, "t1": 0.4},
    ]
    return Ledger(
        header={"type": "sweep_start", "version": 1, "jobs": 2,
                "experiments": ["fig5", "fig7"]},
        records=records,
        drivers=drivers,
        footer={"type": "sweep_end", "wall_clock_s": 0.4,
                "counters": {"walk.calls": 2,
                             "sections.hits": 3, "sections.misses": 2,
                             "cache.hits": 1, "cache.misses": 3,
                             "cache.puts": 3}},
    )


class TestSummary:
    def test_counts_and_slowest(self):
        t = tally(sample_ledger())
        assert (t["rows"], t["records"]) == (5, 5)
        assert t["engines"] == {"fast": 2, "reference": 1,
                                "disk-cached-result": 1, "stalled": 1}
        assert t["fallback_reasons"] == {"watchdog_cut": 1}
        assert t["kernels"] == {"c": 2}
        assert t["result_cache"] == {"off": 4, "hit": 1}
        assert t["stalled"] == 1
        text = report.render_text(sample_ledger(), top=2)
        slowest = text.split("-- slowest runs (top 2)\n")[1].splitlines()
        assert [line.split()[0] for line in slowest] == ["aes", "crc"]

    def test_driver_rows_join_marks_with_records(self):
        drivers = tally(sample_ledger())["drivers"]
        assert list(drivers) == ["fig5", "fig7"]
        assert drivers["fig5"]["rows"] == 3
        assert drivers["fig5"]["wall_s"] == 0.25
        assert drivers["fig5"]["sim_s"] == pytest.approx(0.26)
        assert drivers["fig7"]["rows"] == 2
        # A driver no mark names (a partial ledger) has no wall clock.
        ledger = sample_ledger()
        ledger.drivers.pop()
        assert tally(ledger)["drivers"]["fig7"]["wall_s"] is None
        assert f"   {'fig7':<20s} {'?':>10s}" in report.render_text(ledger)

    def test_counts_rows_not_records(self):
        """A batch record stands for its rows in every count."""
        ledger = Ledger(records=[
            RunRecord(workload="crc", config="8,4,2,0", engine="batch",
                      kernel="c", driver="fig5", rows=60, index=0),
            RunRecord(workload="crc", config="8,4,2,0", engine="fast",
                      kernel="c", driver="fig5", index=1),
        ])
        t = tally(ledger)
        assert (t["rows"], t["records"]) == (61, 2)
        assert t["engines"] == {"batch": 60, "fast": 1}
        assert t["kernels"] == {"c": 61}
        assert t["result_cache"] == {"off": 61}
        assert t["drivers"]["fig5"]["rows"] == 61
        assert t["workloads"] == {"crc": {"rows": 61, "sim_s": 0.0}}
        text = report.render_text(ledger)
        assert "-- engine mix (61 runs in 2 records)" in text
        assert "batch                       60   98.4%" in text
        assert "61 walked / 0 fallback (100.0% walked)" in text
        assert "61 runs in 2 records" in report.render_html(ledger)

    def test_empty_ledger(self):
        t = tally(Ledger())
        assert (t["rows"], t["records"]) == (0, 0)
        assert t["engines"] == {}
        assert "slowest runs" not in report.render_text(Ledger())


class TestRenderText:
    def test_sections_present(self):
        text = report.render_text(sample_ledger())
        assert text.startswith("run profile\n")
        assert "experiments=fig5,fig7  jobs=2" in text
        assert "wall clock: 0.4s" in text
        assert "experiment drivers" in text
        assert "simulator time by workload (5 runs, 0.262s total)" in text
        assert "engine mix (5 runs)" in text
        assert ("section walk: 2 walked / 1 fallback (66.7% walked); "
                "2 C walk calls") in text
        assert "fallback reasons (1 reference runs via simulate_batch)" in text
        assert "watchdog_cut" in text
        assert "kernel (rows the C section walk served, fast and batch)" \
            in text
        assert "result cache (per run)" in text
        assert "slowest runs" in text
        assert ("section maps: 3 hits / 2 misses (60.0% hit rate); "
                "3 warm from memory, 2 cold\n") in text
        assert ("artifact cache (disk): 1 hits / 3 misses (25.0% hit rate), "
                "3 puts, 0 evictions") in text

    def test_empty_ledger_renders(self):
        assert "0 runs" in report.render_text(Ledger())


class TestRenderHtml:
    def test_is_selfcontained_html(self):
        html_out = report.render_html(sample_ledger())
        assert html_out.startswith("<!doctype html>")
        assert "<script" not in html_out  # static, dependency-free
        assert "Engine mix" in html_out
        assert "watchdog_cut" in html_out
        assert "aes" in html_out

    def test_escapes_content(self):
        ledger = Ledger(records=[RunRecord(
            workload="<b>evil</b>", config="1,0,0,0", engine="fast",
        )])
        html_out = report.render_html(ledger)
        assert "<b>evil</b>" not in html_out
        assert "&lt;b&gt;evil&lt;/b&gt;" in html_out

    def test_escapes_every_ledger_string(self):
        # Every string a hand-edited (or hostile) ledger can carry must
        # pass through html.escape — including the footer's wall clock,
        # which is interpolated outside the table helper.
        evil = "<script>alert(1)</script>"
        ledger = Ledger(
            header={"type": "sweep_start", "experiments": [evil],
                    "timestamp": evil},
            records=[RunRecord(
                workload=evil, config=evil, engine=evil,
                fallback_reason=evil, kernel=evil, driver=evil,
            )],
            drivers=[{"type": "driver", "name": evil, "t0": 0.0, "t1": 1.0}],
            footer={"type": "sweep_end", "wall_clock_s": evil},
        )
        html_out = report.render_html(ledger)
        assert "<script" not in html_out
        assert "&lt;script&gt;" in html_out


def sweep_trace(ledger):
    return spans_to_chrome_trace(ledger_spans(ledger), name="sweep")


class TestSweepTrace:
    def test_lanes_and_spans(self):
        ledger = sample_ledger()
        trace = sweep_trace(ledger)
        events = trace["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e["name"] == "process_name"}
        assert names == {"eval", "worker (pid 100)", "worker (pid 101)"}
        spans = [e for e in events if e["ph"] == "X"]
        drivers = [e for e in spans if e["name"] in ("fig5", "fig7")]
        assert len(drivers) == 2 and len({e["pid"] for e in drivers}) == 1
        # 2 driver spans + 5 run spans.
        assert len(spans) == 7
        run_spans = [e for e in spans if "engine" in e.get("args", {})]
        assert {e["args"]["engine"] for e in run_spans} == {
            "fast", "reference", "disk-cached-result", "stalled"}
        # Zero-wall cached runs stay visible as 1 us spans.
        cached = next(e for e in run_spans
                      if e["args"]["engine"] == "disk-cached-result")
        assert cached["dur"] == 1.0

    def test_times_are_microseconds(self):
        """Relative to the earliest span (here the first driver mark and
        the first run, both at 0)."""
        ledger = sample_ledger()
        trace = sweep_trace(ledger)
        aes = next(e for e in trace["traceEvents"]
                   if e.get("name") == "aes")
        assert aes["ts"] == pytest.approx(0.011 * 1e6)
        assert aes["dur"] == pytest.approx(0.200 * 1e6)
        for rec in ledger.records:
            rec.t_start += 5.0
        for mark in ledger.drivers:
            mark["t0"] += 5.0
            mark["t1"] += 5.0
        shifted = next(e for e in sweep_trace(ledger)["traceEvents"]
                       if e.get("name") == "aes")
        assert shifted["ts"] == pytest.approx(aes["ts"])

    def test_batch_records_labelled_with_rows(self):
        ledger = Ledger(records=[RunRecord(
            workload="crc", config="8,4,2,0", engine="batch", kernel="c",
            rows=60, wall_s=0.5, worker=100,
        )])
        [span] = [e for e in sweep_trace(ledger)["traceEvents"]
                  if e["ph"] == "X"]
        assert span["name"] == "crc x60"
        assert span["args"]["rows"] == 60
        assert span["args"]["engine"] == "batch"


class TestCli:
    def _write(self, tmp_path):
        ledger = sample_ledger()
        led = telemetry.RunLedger()
        led.enable()
        path = str(tmp_path / "ledger.jsonl")
        led.stream_to(path, header={"jobs": 2})
        for rec in ledger.records:
            led.record(RunRecord.from_dict(rec.to_dict()))
        led.finish(
            [{"name": m["name"], "t0": m["t0"], "t1": m["t1"]}
             for m in ledger.drivers],
            footer=ledger.footer,
        )
        return path

    def test_text_and_artifacts(self, tmp_path, capsys):
        path = self._write(tmp_path)
        html_path = str(tmp_path / "report.html")
        trace_path = str(tmp_path / "trace.json")
        assert report.main([path, "--html", html_path,
                            "--chrome-trace", trace_path]) == 0
        out = capsys.readouterr().out
        assert out == report.render_text(telemetry.read_ledger(path)) + "\n"
        assert "engine mix" in out
        with open(html_path) as fh:
            assert "Engine mix" in fh.read()
        with open(trace_path) as fh:
            events = json.load(fh)["traceEvents"]
        runs = [e for e in events
                if e["ph"] == "X" and "engine" in e.get("args", {})]
        assert len(runs) == 5

    def test_json_output(self, tmp_path, capsys):
        path = self._write(tmp_path)
        assert report.main([path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"] == 5
        assert data["engines"]["fast"] == 2
        assert data["footer"]["runs"] == 5

    def test_bad_input_is_error(self, tmp_path, capsys):
        # Neither a ledger nor an event log.
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "no_such_event"}\n')
        assert report.main([str(path)]) == 2
        assert "error" in capsys.readouterr().err
        assert report.main([str(tmp_path / "absent.jsonl")]) == 2

    def test_arch_section_embedded(self, tmp_path, capsys):
        from repro.obs import analyze

        ledger_path = self._write(tmp_path)
        acc = analyze.ArchAccumulator()
        acc.record_commit("violation", (3, 1, 0, 2), 0x40, 7, 50, 40)
        arch_path = tmp_path / "arch.json"
        arch_path.write_text(json.dumps(
            analyze.summary_from_accumulator(acc, "crc", "8,4,2,0")
        ))
        html_path = tmp_path / "report.html"
        assert report.main([ledger_path, "--arch", str(arch_path),
                            "--html", str(html_path)]) == 0
        out = capsys.readouterr().out
        assert "-- architecture" in out
        assert "violation" in out
        html_out = html_path.read_text()
        assert "Architecture" in html_out
        assert "0x40" in html_out

    def test_bad_arch_input_is_error(self, tmp_path, capsys):
        ledger_path = self._write(tmp_path)
        bad = tmp_path / "arch.json"
        bad.write_text('{"not": "a summary"}\n')
        assert report.main([ledger_path, "--arch", str(bad)]) == 2
        assert "error" in capsys.readouterr().err
