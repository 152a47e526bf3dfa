"""Self-tests of the benchmark: ``pytest bench/`` (about two minutes).

Smoke runs use ``EvalSettings.quick()`` sizes (``--smoke``) and one unit
per run; they exercise the same code paths as full runs.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench import run as bench_run
from bench.layers import LayerTracer, ROOT_LAYER
from bench.stats import compare, spread

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


def _git_status():
    proc = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout if proc.returncode == 0 else None


@pytest.fixture(scope="module")
def traced_runs():
    """One traced smoke run per workload shape: local and served."""
    before = _git_status()
    out = {
        name: bench_run.run(name, seed=1, seconds=1.0, trace=True,
                            smoke=True, log=sys.stderr)
        for name in ("eval_cold", "served_warm")
    }
    return before, out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_schema(workload):
    proc = _bench("--workload", workload, "--seed", "2", "--seconds", "1",
                  "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and metric["value"] > 0


def test_traced_metrics_are_declared(traced_runs):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for out in traced_runs[1].values():
        result = out["result"]
        assert result["correct"] is True
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == declared
        # Every computed per-layer value is declared (nothing dropped).
        assert set(out["metrics"]) == set(declared)


def test_self_times_reconcile_per_process(traced_runs):
    for out in traced_runs[1].values():
        rows = [row for unit in out["units"] if unit["traced"]
                for row in bench_run.reconciliation(unit)]
        assert rows
        for _, wall, total in rows:
            assert wall > 0 and abs(total - wall) <= 0.01 * wall


def test_traced_run_renders_like_untraced(traced_runs):
    for out in traced_runs[1].values():
        units = out["units"]
        assert {u["traced"] for u in units} == {False, True}
        assert len({u["client"]["digest"] for u in units}) == 1


def test_served_warm_never_simulates(traced_runs):
    out = traced_runs[1]["served_warm"]
    assert out["fixture"]["digest"] == out["units"][0]["client"]["digest"]
    assert out["metrics"]["serve.jobs.computed"] == 0
    assert out["metrics"]["serve.jobs.disk"] > 0


def test_tree_stays_clean(traced_runs):
    before = traced_runs[0]
    if before is None:
        pytest.skip("not a git checkout")
    assert _git_status() == before
    assert not (ROOT / bench_run.TMP_DIR).exists()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "eval_cold", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_accounting():
    tracer = LayerTracer("test")
    tracer.open_root()
    outer = tracer.enter("outer", "a")
    time.sleep(0.02)
    inner = tracer.enter("inner", "b")
    time.sleep(0.03)
    tracer.exit(inner)
    tracer.exit(outer)
    tracer.close_root()
    summary = tracer.summary()
    assert summary["self_s"]["b"] == pytest.approx(0.03, abs=0.01)
    assert summary["self_s"]["a"] == pytest.approx(0.02, abs=0.01)
    assert summary["self_sum_s"] == pytest.approx(summary["wall_s"],
                                                  rel=1e-9)
    assert summary["calls"] == {"a": 1, "b": 1, ROOT_LAYER: 1}
    assert [s[0] for s in tracer.spans] == ["inner", "outer", "bench.window"]


def _set(values, workload="eval_cold", metric="runs_per_s"):
    runs = []
    for seed, value in enumerate(values, 1):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        metrics[metric] = {"value": value, "unit": "runs/s"}
        runs.append({"workload": workload, "seed": seed, "result": {
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": metrics}})
    return {"runs": runs}


def _verdict(parent, change, claims=()):
    rows = compare(_set(parent), _set(change), claims)
    return {(r[0], r[1]): r[2] for r in rows}[("runs_per_s", "eval_cold")]


def test_compare_verdicts():
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["runs_per_s"]
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100]
    assert spread(steady) < 0.02
    assert _verdict(steady, steady) == "ok"
    assert _verdict(steady, [v * (1 - 2 * bound) for v in steady]) \
        == "regressed"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100]
    assert _verdict(noisy, noisy) == "unresolved"
    assert _verdict(noisy, [v * 3 for v in noisy]) == "ok"
    claim = {("runs_per_s", "eval_cold")}
    assert _verdict(steady, [v * 1.2 for v in steady], claim) == "claim met"
    assert _verdict(steady, steady, claim) == "claim not met"
