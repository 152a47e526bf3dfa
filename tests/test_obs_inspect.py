"""Inspecting a recorded event log: ``python -m repro.obs.report
run.jsonl`` summarizes it (:func:`repro.obs.report.summarize_data`,
rendered by :func:`repro.obs.report.render_events`)."""

import importlib.util
import json

import pytest

from repro.core.config import ClankConfig
from repro.obs.report import main, render_events, summarize_data
from repro.obs.recorder import JsonlRecorder, read_events
from repro.obs.telemetry import RunLedger, RunRecord
from repro.power.schedules import ExponentialPower
from repro.sim.simulator import simulate

from tests.conftest import rmw_trace


def record_log(path):
    with JsonlRecorder(path) as rec:
        result = simulate(
            rmw_trace(400, addrs=16),
            ClankConfig.from_tuple((4, 2, 2, 0)),
            ExponentialPower(800, seed=5),
            progress_watchdog=300,
            verify=True,
            recorder=rec,
        )
    return result


def summarize(events):
    return render_events(summarize_data(events))


class TestSummarize:
    def test_sections_present(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        result = record_log(path)
        text = summarize(read_events(path))
        assert "event counts" in text
        assert "checkpoints by cause" in text
        assert "power:" in text
        assert f"{result.power_cycles - 1} failures" in text
        # every committed cause is named
        for cause in result.checkpoints_by_cause:
            assert cause in text

    def test_empty_log(self):
        assert summarize([]).startswith("event log: 0 events")


class TestSummarizeData:
    def test_machine_readable_mirror(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        result = record_log(path)
        events = read_events(path)
        data = summarize_data(events)
        assert data["events"] == len(events)
        assert data["power"]["failures"] == result.power_cycles - 1
        for cause in result.checkpoints_by_cause:
            assert cause in data["checkpoints"]
        json.dumps(data)  # fully JSON-serializable

    def test_empty(self):
        assert summarize_data([]) == {"events": 0, "counts": {}}


class TestCli:
    def test_main_prints_summary(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        record_log(path)
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "event counts" in out
        assert "checkpoint_committed" in out
        # The ledger-only outputs refuse an event log.
        with pytest.raises(SystemExit):
            main([path, "--html", str(tmp_path / "report.html")])

    def test_json_format(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        record_log(path)
        assert main([path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["events"] > 0
        assert "checkpoint_committed" in data["counts"]

    def test_run_ledger_input_delegates_to_report(self, tmp_path, capsys):
        led = RunLedger()
        led.enable()
        path = str(tmp_path / "ledger.jsonl")
        led.stream_to(path)
        led.record(RunRecord(workload="crc", config="1,0,0,0",
                             engine="fast", kernel="c"))
        led.finish()
        assert main([path]) == 0
        assert "engine mix" in capsys.readouterr().out
        assert main([path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engines"] == {"fast": 1}

    def test_module_is_runnable(self):
        # One CLI reads both kinds: ``python -m repro.obs.report``.
        import repro.obs.report as mod

        assert callable(mod.main)
        assert importlib.util.find_spec("repro.obs.inspect") is None
