"""The live sweep watcher's pure pieces (:mod:`repro.obs.watch`).

WatchState folding (ledger lines tallied row-weighted, header/footer,
server-stats snapshots), the sliding-window RateMeter, the incremental
LedgerFollower (missing file, partial trailing line, rewrite detection),
the render block, and the ledger file it tails
(:meth:`RunLedger.stream_to` / :meth:`RunLedger.finish`).
"""

import io
import json

from repro.obs.telemetry import RunLedger, RunRecord
from repro.obs.watch import (
    LedgerFollower,
    RateMeter,
    WatchState,
    render,
    watch_ledger,
)


def _run_line(engine="fast", rows=1, tier="off", driver="fig5"):
    return {"type": "run", "workload": "crc", "config": "8,4,2,0",
            "engine": engine, "rows": rows, "result_cache": tier,
            "driver": driver}


class TestWatchState:
    def test_folds_runs_row_weighted(self):
        state = WatchState()
        state.apply_line(_run_line(engine="fast", rows=1))
        state.apply_line(_run_line(engine="batch", rows=24, tier="memory"))
        state.apply_line(_run_line(engine="fast", rows=1, driver="fig8"))
        state.apply_line({"type": "run"})  # not a record: skipped
        t = state.tally()
        assert t["records"] == 3 and t["rows"] == 26
        assert t["engines"] == {"fast": 2, "batch": 24}
        assert t["result_cache"] == {"off": 2, "memory": 24}
        assert list(t["drivers"]) == ["fig5", "fig8"]
        assert not state.done

    def test_header_footer_and_driver_lines(self):
        state = WatchState()
        state.apply_line({"type": "sweep_start", "version": 1})
        state.apply_line({"type": "driver", "name": "fig5"})
        assert state.ledger.header and list(state.tally()["drivers"]) == [
            "fig5"]
        state.apply_line({"type": "sweep_end", "runs": 9, "rows": 12})
        assert state.done

    def test_server_stats_snapshot_is_absolute(self):
        state = WatchState()
        state.apply_line(_run_line())  # replaced, not accumulated
        state.apply_server_stats({"server": {
            "jobs": 7, "tiers": {"computed": 4, "memory": 3},
        }})
        t = state.tally()
        assert t["records"] == 7 and t["rows"] == 7
        assert t["engines"] == {"served": 7}
        assert t["result_cache"] == {"computed": 4, "memory": 3}


class TestRateMeter:
    def test_rate_over_window(self):
        m = RateMeter(window_s=10.0)
        m.sample(0, now=0.0)
        m.sample(50, now=5.0)
        assert m.rate() == 10.0

    def test_old_samples_fall_out_of_window(self):
        m = RateMeter(window_s=2.0)
        m.sample(0, now=0.0)
        m.sample(10, now=1.0)
        m.sample(10, now=10.0)  # long stall: the old burst expires
        m.sample(10, now=11.0)
        assert m.rate() == 0.0

    def test_fewer_than_two_samples(self):
        m = RateMeter()
        assert m.rate() == 0.0
        m.sample(5, now=1.0)
        assert m.rate() == 0.0


class TestLedgerFollower:
    def test_missing_file_yields_nothing(self, tmp_path):
        follower = LedgerFollower(str(tmp_path / "absent.jsonl"))
        assert follower.poll() == []

    def test_incremental_reads(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        follower = LedgerFollower(str(path))
        with open(path, "w") as fh:
            fh.write(json.dumps(_run_line()) + "\n")
        assert len(follower.poll()) == 1
        assert follower.poll() == []
        with open(path, "a") as fh:
            fh.write(json.dumps(_run_line()) + "\n")
        assert len(follower.poll()) == 1

    def test_partial_trailing_line_buffers(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        line = json.dumps(_run_line())
        path.write_bytes((line + "\n" + line[:10]).encode())
        follower = LedgerFollower(str(path))
        assert len(follower.poll()) == 1  # the torn tail waits
        path.write_bytes((line + "\n" + line + "\n").encode())
        assert len(follower.poll()) == 1  # completed on the next poll

    def test_rewrite_restarts_from_top(self, tmp_path):
        """A new sweep truncating the path shrinks the file (the ledger
        is written once, so only a new sweep shrinks it); the follower
        must re-read rather than seek past the end."""
        path = tmp_path / "ledger.jsonl"
        long_line = json.dumps(_run_line(driver="x" * 120))
        path.write_text((long_line + "\n") * 3)
        follower = LedgerFollower(str(path))
        assert len(follower.poll()) == 3
        path.write_text(json.dumps(_run_line()) + "\n")
        assert len(follower.poll()) == 1

    def test_bad_json_lines_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('not json\n' + json.dumps(_run_line()) + "\n[1]\n")
        assert len(LedgerFollower(str(path)).poll()) == 1


class TestRender:
    def test_block_shape_and_eta(self):
        state = WatchState()
        state.apply_line(_run_line(engine="fast", rows=10, tier="hit"))
        block = render(state, rate=5.0, expect=110)
        assert "sweep: 1 runs / 10 rows" in block
        assert "5.0 rows/s" in block
        assert "ETA 0:20" in block  # (110-10)/5 = 20s
        assert "engines: fast=10" in block
        assert "cache:   hit=10" in block
        assert "drivers: fig5" in block

    def test_done_uses_footer_totals(self):
        state = WatchState()
        state.apply_line(_run_line())
        state.apply_line({"type": "sweep_end", "runs": 42, "rows": 99})
        block = render(state, rate=0.0)
        assert block.startswith("sweep: 42 runs / 99 rows   DONE")

    def test_empty_state(self):
        block = render(WatchState(), rate=0.0)
        assert "(none yet)" in block


class TestLedgerStreaming:
    def _record(self, i=0):
        return RunRecord(
            index=i, driver="fig5", workload="crc", config=(8, 4, 2, 0),
            engine="fast", rows=1,
        )

    def test_stream_to_appends_live(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        ledger = RunLedger()
        ledger.enable()
        ledger.stream_to(path, header={"experiments": ["fig5"]})
        follower = LedgerFollower(path)
        lines = follower.poll()
        assert [obj["type"] for obj in lines] == ["sweep_start"]
        assert lines[0]["experiments"] == ["fig5"]
        ledger.record(self._record(0))
        assert [obj["type"] for obj in follower.poll()] == ["run"]
        ledger.record(self._record(1))
        assert len(follower.poll()) == 1
        ledger.stop_stream()
        ledger.disable()

    def test_finish_completes_stream(self, tmp_path):
        """finish appends driver lines and the footer after the streamed
        runs; a follower that saw the runs live sees each one once."""
        path = str(tmp_path / "stream.jsonl")
        ledger = RunLedger()
        ledger.enable()
        ledger.stream_to(path)
        follower = LedgerFollower(path)
        state = WatchState()
        ledger.record(self._record(0))
        for obj in follower.poll():
            state.apply_line(obj)
        ledger.finish([{"name": "fig5", "t0": 0.0, "t1": 1.0}])
        ledger.disable()
        tail = follower.poll()
        assert [obj["type"] for obj in tail] == ["driver", "sweep_end"]
        for obj in tail:
            state.apply_line(obj)
        assert state.done and state.tally()["records"] == 1

    def test_watch_once_over_finished_ledger(self, tmp_path):
        path = str(tmp_path / "done.jsonl")
        ledger = RunLedger()
        ledger.enable()
        ledger.stream_to(path)
        ledger.record(self._record(0))
        ledger.finish()
        ledger.disable()
        out = io.StringIO()
        assert watch_ledger(path, once=True, out=out) == 0
        assert "DONE" in out.getvalue()
        assert "engines: fast=1" in out.getvalue()
