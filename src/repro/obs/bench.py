"""Bench-trajectory regression checker over ``results/BENCH_sweep.json``.

Every full ``python -m repro.eval`` run appends an entry to the bench
history (timestamp, experiments, jobs, disk-cache counters, ``ms_per_run``).
This module reads the trajectory back and answers one question: *did the
newest entry regress against the best comparable prior entry?*

"Comparable" matters — a warm-cache sweep at 0.003 ms/run is not a fair
baseline for a cache-off sweep at 0.5 ms/run, and a multi-worker sweep's
per-run time is not comparable to a serial one (sweeps now run
serially and record ``jobs: 1``; the bucket keeps older entries apart).  Entries are bucketed by
:func:`comparable_key`: (sorted experiment set, worker count, cache state,
engine mix, serve mode), where cache state classifies the disk-cache
counters as ``off`` (no store), ``warm`` (zero misses), or ``cold``
(populating), engine mix separates batched seed-repeat sweeps
(``batch``) — whose per-run amortised cost is structurally lower — from
per-run scalar sweeps (``scalar``), and serve mode separates sweeps
resolved by a sweep server (``serve``, measuring round trips and dedupe
tiers) from local simulation (``local``).  Entries written before these
fields existed derive the mix from their engine counts and default to
``local``.  An entry marked ``profiled`` (written with a profiler or
tracer attached) measures the instrumentation, so it is in no bucket:
it is never a baseline, and as the newest entry it is not checked.

CLI (wired into CI as the ``bench-regression`` job)::

    python -m repro.obs.bench                  # print trajectory + verdict
    python -m repro.obs.bench --check          # exit 1 on regression
    python -m repro.obs.bench --threshold 1.1  # tighter gate

A regression is ``newest/baseline > threshold`` (default 1.25: CI runner
noise on a shared machine routinely swings 10-15%; a real algorithmic
regression shows up as 2x+).  Missing history, a newest entry without the
metric, or no comparable baseline all *pass* — the gate only fires on
evidence, never on absence of it.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

DEFAULT_PATH = "results/BENCH_sweep.json"
DEFAULT_THRESHOLD = 1.25
DEFAULT_METRIC = "ms_per_run"


def load_history(path: str) -> List[dict]:
    """The bench entries, oldest first.  Raises ``ValueError`` on a file
    that exists but is not a bench history."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("history"), list):
        raise ValueError(f"{path}: not a bench history "
                         f"(expected {{'history': [...]}})")
    return data["history"]


def cache_state(entry: dict) -> str:
    """Classify an entry's disk-cache state: ``off``, ``warm``, ``cold``.

    Warm and cold sweeps measure different things (result-lookup time vs
    simulation time), so they never serve as each other's baseline.
    Served entries classify by the *server-side* tier counts instead of
    the client's (idle) disk counters: a pass that computed nothing is
    warm, one that simulated is cold.
    """
    tiers = entry.get("serve_tiers")
    if isinstance(tiers, dict):
        return "warm" if not tiers.get("computed", 0) else "cold"
    dc = entry.get("disk_cache")
    if not isinstance(dc, dict) or not dc.get("enabled"):
        return "off"
    return "warm" if not dc.get("misses", 0) else "cold"


def engine_mix(entry: dict) -> str:
    """Classify an entry's simulation-engine mix: ``batch`` or ``scalar``.

    Batched seed-repeat sweeps replay many power schedules per
    trace-and-section setup, so their ``ms_per_run`` is structurally
    lower than any per-run scalar sweep's — never a fair baseline for
    one.  Entries predating the explicit ``engine_mix`` field fall back
    to their per-engine run counts.
    """
    mix = entry.get("engine_mix")
    if isinstance(mix, str):
        return mix
    engines = entry.get("engines")
    if isinstance(engines, dict) and engines.get("batch"):
        return "batch"
    return "scalar"


def serve_mode(entry: dict) -> str:
    """Classify where an entry's jobs ran: ``serve`` or ``local``.

    A served sweep's wall-clock measures the server round trip and its
    dedupe tiers, not this machine's simulators — never a fair baseline
    for a local sweep (or vice versa).  Entries predating the ``server``
    field are local.
    """
    return "serve" if entry.get("server") else "local"


def instrumented() -> bool:
    """Whether a profiler or tracer is attached to this interpreter
    (``sys.setprofile``/``sys.settrace``, or a ``sys.monitoring`` tool):
    an entry written then is marked ``profiled``."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    mon = getattr(sys, "monitoring", None)
    return mon is not None and any(
        mon.get_tool(tool) is not None
        for tool in (mon.DEBUGGER_ID, mon.COVERAGE_ID, mon.PROFILER_ID)
    )


def comparable_key(
    entry: dict,
) -> Optional[Tuple[tuple, Optional[int], str, str, str]]:
    """The bucket within which two entries' metrics are comparable;
    ``None`` for a ``profiled`` entry, which is comparable to nothing."""
    if entry.get("profiled"):
        return None
    experiments = entry.get("experiments") or []
    return (tuple(sorted(experiments)), entry.get("jobs"),
            cache_state(entry), engine_mix(entry), serve_mode(entry))


@dataclass
class BenchVerdict:
    """Outcome of comparing the newest entry against its baseline."""

    ok: bool
    reason: str
    newest: Optional[dict] = None
    baseline: Optional[dict] = None
    metric: str = DEFAULT_METRIC
    ratio: Optional[float] = None


def check_history(
    history: List[dict],
    threshold: float = DEFAULT_THRESHOLD,
    metric: str = DEFAULT_METRIC,
) -> BenchVerdict:
    """Compare the newest entry against the best comparable prior one."""
    if not history:
        return BenchVerdict(True, "empty history — nothing to check")
    newest = history[-1]
    value = newest.get(metric)
    if not isinstance(value, (int, float)):
        return BenchVerdict(
            True, f"newest entry has no {metric!r} — nothing to check",
            newest=newest, metric=metric,
        )
    key = comparable_key(newest)
    if key is None:
        return BenchVerdict(
            True, "newest entry ran under a profiler or tracer — "
                  "nothing to check",
            newest=newest, metric=metric,
        )
    candidates = [
        e for e in history[:-1]
        if comparable_key(e) == key
        and isinstance(e.get(metric), (int, float)) and e[metric] > 0
    ]
    if not candidates:
        return BenchVerdict(
            True, "no comparable prior entry "
                  f"(experiments/jobs/cache-state bucket {key})",
            newest=newest, metric=metric,
        )
    baseline = min(candidates, key=lambda e: e[metric])
    ratio = value / baseline[metric]
    if ratio > threshold:
        return BenchVerdict(
            False,
            f"{metric} regressed {ratio:.2f}x vs best comparable entry "
            f"({value} vs {baseline[metric]}, threshold {threshold}x)",
            newest=newest, baseline=baseline, metric=metric, ratio=ratio,
        )
    return BenchVerdict(
        True,
        f"{metric} at {ratio:.2f}x of best comparable entry "
        f"({value} vs {baseline[metric]}, threshold {threshold}x)",
        newest=newest, baseline=baseline, metric=metric, ratio=ratio,
    )


def render(history: List[dict], verdict: BenchVerdict,
           metric: str = DEFAULT_METRIC) -> str:
    """Trajectory table plus the verdict line."""
    lines = [f"bench trajectory ({len(history)} entries, metric {metric})"]
    for entry in history:
        value = entry.get(metric)
        jobs = entry.get("jobs", "?")
        state = cache_state(entry)
        marks = []
        if entry is verdict.newest:
            marks.append("newest")
        if entry is verdict.baseline:
            marks.append("baseline")
        mix = engine_mix(entry)
        mode = serve_mode(entry)
        lines.append(
            f"   {entry.get('timestamp', '?'):<26s} "
            f"{value if value is not None else '?':>9}  "
            f"jobs={jobs} cache={state:<5s}"
            + (f" mix={mix}" if mix != "scalar" else "")
            + (f" mode={mode}" if mode != "local" else "")
            + (" profiled" if entry.get("profiled") else "")
            + (f"  <- {', '.join(marks)}" if marks else "")
        )
    lines.append(f"{'PASS' if verdict.ok else 'FAIL'}: {verdict.reason}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="Check the sweep bench trajectory for regressions.",
    )
    parser.add_argument("--path", default=DEFAULT_PATH,
                        help=f"bench history file (default {DEFAULT_PATH})")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        metavar="X",
                        help="fail when newest/baseline exceeds X "
                             f"(default {DEFAULT_THRESHOLD})")
    parser.add_argument("--metric", default=DEFAULT_METRIC,
                        help=f"entry field to compare (default "
                             f"{DEFAULT_METRIC})")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on regression (CI gate)")
    args = parser.parse_args(argv)

    try:
        history = load_history(args.path)
    except FileNotFoundError:
        print(f"PASS: no bench history at {args.path} — nothing to check")
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    verdict = check_history(history, threshold=args.threshold,
                            metric=args.metric)
    print(render(history, verdict, metric=args.metric))
    if args.check and not verdict.ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
