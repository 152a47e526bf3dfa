"""Sets of runs and the choosing-metrics verdicts over them.

* ``sets``: ``--runs`` rounds of every workload, round-robin, the order
  reversed each round, round ``r`` on seed ``first_seed + r``.  Writes
  each run's result line to ``--out`` and prints each end-to-end
  metric's median, quartiles and spread (IQR / median) per workload.
* ``compare PARENT CHANGE``: for each (end-to-end metric, workload) pair,
  ``regressed`` when the change's median is worse than the parent's by
  more than the metric's bound, and ``unresolved`` when the parent's own
  IQR is wider than the bound, unless every change run beats every
  parent run.  ``--claim METRIC:WORKLOAD`` also tests a claimed gain:
  the change must win at least 9 of 10 seed-paired runs (ties count for
  neither) and the medians must differ by more than the parent's IQR.
* ``baseline``: the medians of acceptance sets, with date and ``nproc``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def _series(runs: list, workload: str, metric: str) -> list:
    """``(seed, value)`` of one metric on one workload, by seed."""
    return sorted(
        (r["seed"], r["result"]["metrics"][metric]["value"])
        for r in runs
        if r["workload"] == workload and metric in r["result"]["metrics"]
    )


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text("utf-8"))


def sets_main(argv) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(prog="python -m bench sets")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = []
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for workload in order:
            seed = args.first_seed + r
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "bench", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(proc.stdout[-2000:] + proc.stderr[-2000:])
                print(f"run failed: {workload} seed {seed}", file=sys.stderr)
                return 1
            runs.append({"workload": workload, "seed": seed, "round": r,
                         "wall_s": wall, "exit": proc.returncode,
                         "result": result})
            values = ", ".join(f"{k}={v['value']:.6g}"
                               for k, v in result["metrics"].items())
            print(f"[{r}] {workload} seed {seed}: {wall:.1f} s wall, "
                  f"correct={result['correct']}, {values}", flush=True)
    doc = {"date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
           "nproc": os.cpu_count(), "seconds": seconds, "runs": runs}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", "utf-8")
    print_spreads(doc, spec)
    return 0


def print_spreads(doc: dict, spec: dict) -> None:
    workloads = sorted({r["workload"] for r in doc["runs"]})
    print(f"{'workload':<12} {'metric':<12} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6} {'n':>3}")
    for workload in workloads:
        for m in spec["end_to_end"]:
            values = [v for _, v in _series(doc["runs"], workload, m["name"])]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            print(f"{workload:<12} {m['name']:<12} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread(values):>8.2%} {m['bound']:>6.0%} "
                  f"{len(values):>3}")
        wall = [r["wall_s"] for r in doc["runs"] if r["workload"] == workload]
        print(f"{workload:<12} {'(wall s)':<12} {statistics.median(wall):>12.1f}"
              f"   total {sum(wall):.0f} s")


def _worse(change: float, parent: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of it."""
    if not parent:
        return 0.0
    gap = (parent - change) if better == "higher" else (change - parent)
    return gap / abs(parent)


def compare(parent: dict, change: dict, claims=()) -> list:
    """Rows ``(metric, workload, verdict, detail)`` (see module doc)."""
    spec = benchmark_spec()
    rows = []
    workloads = sorted({r["workload"] for r in parent["runs"]}
                       & {r["workload"] for r in change["runs"]})
    for m in spec["end_to_end"]:
        name, better, bound = m["name"], m["better"], m["bound"]
        for workload in workloads:
            p = _series(parent["runs"], workload, name)
            c = _series(change["runs"], workload, name)
            if not p or not c:
                continue
            pv, cv = [v for _, v in p], [v for _, v in c]
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            worse = _worse(cmed, pmed, better)
            all_better = all(_worse(x, y, better) < 0 for x in cv for y in pv)
            if spread(pv) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            detail = (f"parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}] n={len(pv)}; "
                      f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}] n={len(cv)}; "
                      f"worse by {worse:+.2%} (bound {bound:.0%})")
            if (name, workload) in claims:
                by_seed = dict(p)
                pairs = [(v, by_seed[s]) for s, v in c if s in by_seed]
                wins = sum(1 for x, y in pairs if _worse(x, y, better) < 0)
                gap = abs(cmed - pmed)
                met = (pairs and wins >= 0.9 * len(pairs)
                       and gap > pq3 - pq1 and worse < 0)
                verdict = "claim met" if met else "claim not met"
                detail += (f"; wins {wins}/{len(pairs)} pairs, median gap "
                           f"{gap:.6g} vs parent IQR {pq3 - pq1:.6g}")
            rows.append((name, workload, verdict, detail))
    for label, doc in (("parent", parent), ("change", change)):
        for r in doc["runs"]:
            res = r["result"]
            if not res["correct"] or res["failed"]:
                rows.append(("correct", r["workload"], f"{label} incorrect",
                             f"seed {r['seed']}: failed {res['failed']} of "
                             f"{res['attempted']}"))
    return rows


def compare_main(argv) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench compare")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC:WORKLOAD")
    args = parser.parse_args(argv)
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    rows = compare(_load(args.parent), _load(args.change), claims)
    bad = False
    for name, workload, verdict, detail in rows:
        print(f"{name:<12} {workload:<12} {verdict:<14} {detail}")
        bad |= verdict in ("regressed", "claim not met") or "incorrect" in verdict
    return 1 if bad else 0


def baseline_main(argv) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench baseline")
    parser.add_argument("sets", nargs="+")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    out = {"nproc": os.cpu_count(), "sets": []}
    for path in args.sets:
        doc = _load(path)
        medians = {}
        for workload in sorted({r["workload"] for r in doc["runs"]}):
            medians[workload] = {
                m["name"]: quartiles([v for _, v in _series(
                    doc["runs"], workload, m["name"])])[1]
                for m in spec["end_to_end"]
            }
        out["sets"].append({"date": doc["date"], "nproc": doc["nproc"],
                            "seconds": doc["seconds"],
                            "runs": len(doc["runs"]), "medians": medians})
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n", "utf-8")
    return 0
