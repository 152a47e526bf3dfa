"""Chrome trace-event export: span geometry and JSON validity."""

import json

from repro.core.config import ClankConfig
from repro.obs.chrome_trace import (
    ledger_spans,
    spans_to_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.recorder import MemoryRecorder
from repro.power.schedules import ExponentialPower
from repro.sim.simulator import simulate

from tests.conftest import rmw_trace

CFG = ClankConfig.from_tuple((4, 2, 2, 0))


def recorded_run(seed=5):
    rec = MemoryRecorder()
    result = simulate(
        rmw_trace(400, addrs=16), CFG, ExponentialPower(800, seed=seed),
        progress_watchdog=300, verify=True, recorder=rec,
    )
    return result, rec


def spans(trace, lane):
    names = {
        e["args"]["name"]: e["tid"]
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    return [
        e for e in trace["traceEvents"]
        if e.get("ph") == "X" and e["tid"] == names[lane]
    ]


class TestChromeTrace:
    def test_json_round_trip(self, tmp_path):
        result, rec = recorded_run()
        path = str(tmp_path / "run.trace.json")
        write_chrome_trace(rec.events, path, name=result.name)
        with open(path) as fh:
            loaded = json.load(fh)
        assert loaded["traceEvents"]

    def test_one_span_per_power_on_period(self):
        result, rec = recorded_run()
        power = spans(to_chrome_trace(rec.events), "power")
        assert len(power) == result.power_cycles
        # Periods tile the consumed-cycle timeline without gaps.
        power.sort(key=lambda e: e["ts"])
        assert power[0]["ts"] == 0
        for prev, cur in zip(power, power[1:]):
            assert prev["ts"] + prev["dur"] == cur["ts"]
        end = power[-1]["ts"] + power[-1]["dur"]
        assert end == result.total_cycles

    def test_one_span_per_committed_checkpoint(self):
        result, rec = recorded_run()
        ckpts = spans(to_chrome_trace(rec.events), "checkpoints")
        assert len(ckpts) == result.num_checkpoints
        assert sum(e["dur"] for e in ckpts) == result.checkpoint_cycles

    def test_rollbacks_produce_reexec_spans(self):
        result, rec = recorded_run()
        rollbacks = [e for e in rec.events
                     if e.kind == "rollback" and e.from_index > e.to_index]
        reexec = [e for e in spans(to_chrome_trace(rec.events), "execution")
                  if e["name"] == "re-execution"]
        assert len(reexec) == len(rollbacks)

    def test_durations_never_negative(self):
        _, rec = recorded_run()
        for e in to_chrome_trace(rec.events)["traceEvents"]:
            if e.get("ph") == "X":
                assert e["dur"] >= 0


def sweep_trace(ledger):
    return spans_to_chrome_trace(ledger_spans(ledger), name="sweep")


def process_names(trace):
    return {e["args"]["name"] for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"}


class TestDegenerateSweepLedgers:
    """Hand-edited or partial ledgers must render, not crash."""

    def _ledger(self, tmp_path, lines):
        import json as _json

        from repro.obs.telemetry import read_ledger

        path = tmp_path / "ledger.jsonl"
        with path.open("w") as fh:
            for line in lines:
                fh.write(_json.dumps(line) + "\n")
        return read_ledger(str(path))

    RUN = {"type": "run", "workload": "crc", "config": "8,4,2,0",
           "engine": "fast", "salt": 0, "result_cache": "off",
           "wall_s": 0.5, "t_start": 1.0, "worker": 101, "index": 0}

    def test_empty_ledger(self, tmp_path):
        led = self._ledger(tmp_path, [])
        trace = sweep_trace(led)
        assert trace["traceEvents"] == []
        assert trace["otherData"]["spans"] == 0

    def test_stalled_only_ledger(self, tmp_path):
        led = self._ledger(tmp_path, [
            dict(self.RUN, engine="stalled", stalled=True),
        ])
        trace = sweep_trace(led)
        [span] = [e for e in trace["traceEvents"]
                  if e["ph"] == "X" and "engine" in e.get("args", {})]
        assert span["args"]["stalled"] is True

    def test_null_wall_time_fields(self, tmp_path):
        led = self._ledger(tmp_path, [
            dict(self.RUN, t_start=None, wall_s=None, worker=None),
            self.RUN,
        ])
        trace = sweep_trace(led)
        spans = [e for e in trace["traceEvents"]
                 if e["ph"] == "X" and "engine" in e.get("args", {})]
        assert len(spans) == 2
        degenerate = min(spans, key=lambda e: e["ts"])
        assert degenerate["ts"] == 0.0
        assert degenerate["dur"] == 1.0  # still visible

    def test_mixed_typed_workers_get_distinct_lanes(self, tmp_path):
        led = self._ledger(tmp_path, [
            {"type": "driver", "name": "fig7", "t0": 0.0, "t1": 2.0},
            dict(self.RUN, worker="w1"),
            dict(self.RUN, worker=None, index=1),
            dict(self.RUN, index=2),
        ])
        trace = sweep_trace(led)
        # One process for the drivers, one per distinct worker value.
        assert process_names(trace) == {
            "eval", "worker (pid w1)", "worker", "worker (pid 101)"}
        runs = [e for e in trace["traceEvents"]
                if e["ph"] == "X" and "engine" in e.get("args", {})]
        assert len({e["pid"] for e in runs}) == 3

    def test_null_driver_mark_times(self, tmp_path):
        led = self._ledger(tmp_path, [
            {"type": "driver", "name": "fig7", "t0": None, "t1": None},
            self.RUN,
        ])
        trace = sweep_trace(led)
        driver = next(e for e in trace["traceEvents"]
                      if e.get("name") == "fig7")
        assert driver["ts"] == 0.0

    def test_degenerate_ledger_json_serializable(self, tmp_path):
        import json as _json

        led = self._ledger(tmp_path, [
            dict(self.RUN, wall_s=None),
            dict(self.RUN, t_start="soon", index=1),
            {"type": "driver", "name": "fig7", "t0": "x", "t1": 1.0},
        ])
        _json.loads(_json.dumps(sweep_trace(led)))
