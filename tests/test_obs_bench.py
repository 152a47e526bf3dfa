"""The ``python -m repro.obs.bench`` trajectory regression checker."""

import json
import os

import pytest

from repro.obs import bench
from repro.obs.bench import (
    BenchVerdict, cache_state, check_history, comparable_key, load_history,
)

FULL = ["table1", "fig5", "fig7"]


def entry(ms, jobs=1, disk_cache=None, experiments=FULL, **extra):
    e = {"timestamp": "2026-08-07T00:00:00+00:00",
         "experiments": list(experiments), "jobs": jobs, "ms_per_run": ms}
    if disk_cache is not None:
        e["disk_cache"] = disk_cache
    e.update(extra)
    return e


class TestCacheState:
    def test_no_disk_cache_key_is_off(self):
        assert cache_state(entry(1.0)) == "off"

    def test_disabled_store_is_off(self):
        e = entry(1.0, disk_cache={"enabled": False, "hits": 0, "misses": 0})
        assert cache_state(e) == "off"

    def test_zero_misses_is_warm(self):
        e = entry(1.0, disk_cache={"enabled": True, "hits": 50, "misses": 0})
        assert cache_state(e) == "warm"

    def test_populating_store_is_cold(self):
        e = entry(1.0, disk_cache={"enabled": True, "hits": 3, "misses": 40})
        assert cache_state(e) == "cold"


class TestComparableKey:
    def test_experiment_order_is_irrelevant(self):
        a = entry(1.0, experiments=["fig5", "fig7"])
        b = entry(2.0, experiments=["fig7", "fig5"])
        assert comparable_key(a) == comparable_key(b)

    def test_jobs_and_cache_state_split_buckets(self):
        assert comparable_key(entry(1.0, jobs=1)) != \
            comparable_key(entry(1.0, jobs=4))
        warm = entry(1.0, disk_cache={"enabled": True, "misses": 0})
        assert comparable_key(entry(1.0)) != comparable_key(warm)


class TestCheckHistory:
    def test_empty_history_passes(self):
        verdict = check_history([])
        assert verdict.ok
        assert "empty" in verdict.reason

    def test_missing_metric_passes(self):
        verdict = check_history([entry(1.0), entry(None)])
        assert verdict.ok

    def test_no_comparable_baseline_passes(self):
        history = [entry(1.0, jobs=4), entry(99.0, jobs=1)]
        assert check_history(history).ok

    def test_improvement_passes_with_ratio(self):
        verdict = check_history([entry(2.0), entry(1.0)])
        assert verdict.ok
        assert verdict.ratio == pytest.approx(0.5)
        assert verdict.baseline["ms_per_run"] == 2.0

    def test_synthetic_2x_regression_fails(self):
        """The acceptance check: doubling the newest comparable entry's
        ms_per_run must trip the default 1.25x gate."""
        history = [entry(1.0), entry(2.0)]
        verdict = check_history(history)
        assert not verdict.ok
        assert verdict.ratio == pytest.approx(2.0)
        assert "regressed" in verdict.reason

    def test_best_prior_is_the_baseline(self):
        history = [entry(5.0), entry(1.0), entry(3.0), entry(1.2)]
        verdict = check_history(history)
        assert verdict.ok
        assert verdict.baseline["ms_per_run"] == 1.0
        assert verdict.ratio == pytest.approx(1.2)

    def test_incomparable_entries_do_not_gate(self):
        """A warm-cache 0.003 ms/run entry must not make a cache-off
        0.5 ms/run entry look like a 100x regression."""
        warm = entry(0.003, disk_cache={"enabled": True, "hits": 9,
                                        "misses": 0})
        history = [entry(0.6), warm, entry(0.5)]
        verdict = check_history(history)
        assert verdict.ok
        assert verdict.baseline["ms_per_run"] == 0.6

    def test_threshold_is_configurable(self):
        history = [entry(1.0), entry(1.1)]
        assert check_history(history, threshold=1.25).ok
        assert not check_history(history, threshold=1.05).ok


_REPO_BENCH = os.path.join(
    os.path.dirname(__file__), "..", "results", "BENCH_sweep.json"
)


class TestProfiledEntries:
    """An entry written under a profiler or tracer compares with
    nothing: it is never a baseline and never checked as the newest."""

    def test_profiled_entry_has_no_bucket(self):
        assert comparable_key(entry(1.0, profiled=True)) is None
        assert comparable_key(entry(1.0, profiled=False)) == \
            comparable_key(entry(1.0))

    def test_profiled_newest_is_not_checked(self):
        verdict = check_history([entry(1.0), entry(2.8, profiled=True)])
        assert verdict.ok and verdict.baseline is None
        assert "profiler" in verdict.reason

    def test_profiled_entry_is_never_the_baseline(self):
        history = [entry(1.0), entry(0.2, profiled=True), entry(1.1)]
        verdict = check_history(history)
        assert verdict.ok and verdict.baseline is history[0]

    def test_eval_marks_entries_written_under_a_profiler(
        self, tmp_path, monkeypatch,
    ):
        import sys

        from repro.eval.__main__ import main

        if bench.instrumented():
            pytest.skip("the test run itself is profiled or traced")
        monkeypatch.chdir(tmp_path)
        assert main(["fig7", "--ledger="]) == 0
        sys.setprofile(lambda frame, event, arg: None)
        try:
            assert main(["fig7", "--ledger="]) == 0
        finally:
            sys.setprofile(None)
        history = load_history(os.path.join("results", "BENCH_sweep.json"))
        assert [e["profiled"] for e in history] == [False, True]
        assert check_history(history).ok


class TestCommittedTrajectory:
    def test_repo_history_passes_the_gate(self):
        """The committed BENCH_sweep.json must pass its own CI gate."""
        history = load_history(_REPO_BENCH)
        assert check_history(history).ok

    def test_repo_history_fails_on_synthetic_2x(self):
        history = load_history(_REPO_BENCH)
        doubled = dict(history[-1])
        doubled["ms_per_run"] = history[-1]["ms_per_run"] * 2
        assert not check_history(history + [doubled]).ok


class TestRender:
    def test_marks_newest_and_baseline(self):
        history = [entry(2.0), entry(1.0)]
        verdict = check_history(history)
        text = bench.render(history, verdict)
        assert "<- baseline" in text
        assert "<- newest" in text
        assert text.endswith(f"PASS: {verdict.reason}")

    def test_fail_line(self):
        history = [entry(1.0), entry(2.0)]
        text = bench.render(history, check_history(history))
        assert "FAIL:" in text


class TestCli:
    def _write(self, tmp_path, history):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"history": history}))
        return str(path)

    def test_check_passes_on_flat_trajectory(self, tmp_path, capsys):
        path = self._write(tmp_path, [entry(1.0), entry(1.0)])
        assert bench.main(["--path", path, "--check"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_fails_on_regression(self, tmp_path, capsys):
        path = self._write(tmp_path, [entry(1.0), entry(2.0)])
        assert bench.main(["--path", path, "--check"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_regression_without_check_reports_but_passes(self, tmp_path):
        path = self._write(tmp_path, [entry(1.0), entry(2.0)])
        assert bench.main(["--path", path]) == 0

    def test_missing_file_passes(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert bench.main(["--path", missing, "--check"]) == 0
        assert "no bench history" in capsys.readouterr().out

    def test_malformed_file_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"not_history": []}')
        assert bench.main(["--path", str(path), "--check"]) == 2
        assert "error" in capsys.readouterr().err

    def test_verdict_dataclass_defaults(self):
        v = BenchVerdict(True, "ok")
        assert v.newest is None and v.ratio is None
