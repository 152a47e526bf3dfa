"""Command-line entry point: ``python -m repro.eval <experiment>``.

Experiments: table1, fig5, fig6, table2, fig7, fig8, table3, table4, all.
Pass ``--quick`` for smoke-test sizes.  Every job runs in this process,
one after another (:func:`repro.eval.parallel.run_jobs`).

Every invocation prints a run profile (wall-clock per experiment driver,
simulator time per workload from the run ledger, fast-path dispatch mix,
trace-cache hit rate); full-size runs also write it to
``results/profile.txt``, append a machine-readable entry to the
performance trajectory in ``results/BENCH_sweep.json``, and write the
per-run provenance ledger to ``results/run_ledger.jsonl`` (``--ledger
PATH`` redirects it and enables it for ``--quick`` runs; render it with
``python -m repro.obs.report``, gate the trajectory with ``python -m
repro.obs.bench --check``).
``--arch PATH`` additionally collects per-section architectural
statistics (buffer occupancy, hazard attribution) and writes the summary
JSON for ``python -m repro.obs.analyze``.  ``--trace PATH`` (or
``REPRO_TRACE``) exports driver/job spans as JSONL — for served sweeps
the client spans carry the trace the server continues, and
``python -m repro.obs.tracing merge`` renders the combined Chrome
timeline.  The ledger file grows as the sweep runs (one line per
record, written once), so ``python -m repro.obs.watch`` can follow it.

``--server URL`` routes every job through a sweep server
(``python -m repro.serve``) instead of simulating locally: results are
byte-identical, the run ledger records ``engine=served`` rows carrying
the server-side dedupe tier, and repeated sweeps cost one simulation per
unique job server-wide.  Incompatible with ``--verify`` and ``--arch``,
which must observe the simulation in-process.
"""

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone

import repro.cache as artifact_cache
from repro.obs.analyze import COLLECTOR as ARCH_COLLECTOR
from repro.eval.settings import EvalSettings
from repro.obs import slog, telemetry, tracing
from repro.obs.bench import instrumented
from repro.obs.metrics import COUNTERS
from repro.obs.profile import PROFILER
from repro.sim import fast as fast_dispatch
from repro.sim import sections

_EXPERIMENTS = (
    "table1", "fig5", "fig6", "table2", "fig7", "fig8", "table3", "table4",
    "ablation_compiler", "ablation_progress", "ablation_apb", "ablation_undo",
)

#: Drivers with a Monte Carlo ``--seeds N`` variant (batched seed-repeat
#: jobs reporting mean ± 95% CI).
_SEEDED_DRIVERS = frozenset(("fig5", "fig8"))

#: Worker count written to the ledger header and each bench entry.  Jobs
#: run serially, so it is always 1; ``repro.obs.bench`` buckets entries
#: by it, and every committed entry is in the ``jobs == 1`` bucket.
_JOBS = 1

_PROFILE_PATH = os.path.join("results", "profile.txt")
_BENCH_PATH = os.path.join("results", "BENCH_sweep.json")
_LEDGER_PATH = os.path.join("results", "run_ledger.jsonl")


def _append_bench_entry(path: str, entry: dict) -> None:
    """Append ``entry`` to the bench history file (creating it if absent)."""
    history = []
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                history = json.load(fh).get("history", [])
        except (OSError, ValueError):
            history = []
    history.append(entry)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"history": history}, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate a table or figure from the Clank paper.",
    )
    parser.add_argument("experiment", choices=_EXPERIMENTS + ("all",))
    parser.add_argument("--quick", action="store_true", help="small workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--verify", action="store_true",
                        help="dynamically verify every simulation")
    parser.add_argument("--ledger", metavar="PATH", default=None,
                        help="write the run-provenance ledger (JSONL) to "
                             "PATH; full runs default to "
                             f"{_LEDGER_PATH}")
    parser.add_argument("--seeds", type=int, default=None, metavar="N",
                        help="Monte Carlo seed-repeat mode for fig5/fig8: "
                             "replay N power schedules per point through "
                             "the batched engine and report mean ± 95%% CI")
    parser.add_argument("--server", metavar="URL", default=None,
                        help="resolve jobs via a sweep server "
                             "(python -m repro.serve) instead of "
                             "simulating locally; results are "
                             "byte-identical, and the ledger records "
                             "engine=served with the dedupe tier")
    parser.add_argument("--arch", metavar="PATH", default=None,
                        help="collect per-section architectural statistics "
                             "(buffer occupancy, hazard attribution) and "
                             "write the summary JSON to PATH; render it "
                             "with python -m repro.obs.analyze")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="export request/job spans as JSONL to PATH "
                             "(default REPRO_TRACE; merge with server "
                             "spans via python -m repro.obs.tracing merge)")
    args = parser.parse_args(argv)

    if args.trace:
        tracing.TRACER.enable(service="client" if args.server else "eval",
                              export_path=args.trace)
    else:
        tracing.configure_from_env("client" if args.server else "eval")
    slog.configure_from_env()

    serve_client = None
    if args.server:
        if args.verify:
            parser.error(
                "--server cannot be combined with --verify: a served "
                "result would claim a verification that did not run in "
                "this process (run --verify locally)"
            )
        if args.arch:
            parser.error(
                "--server cannot be combined with --arch: architectural "
                "statistics are collected inside the simulating process"
            )
        from repro.serve import ServeClient, install

        serve_client = ServeClient(args.server)
        if not serve_client.healthz():
            parser.error(f"no sweep server answering at {args.server}")
        install(serve_client)

    settings = EvalSettings(seed=args.seed, verify=args.verify)
    if args.quick:
        settings = settings.quick()

    PROFILER.reset()
    COUNTERS.reset()
    telemetry.LEDGER.reset()
    telemetry.LEDGER.enable()
    if args.arch:
        ARCH_COLLECTOR.reset()
        ARCH_COLLECTOR.enable()

    names = _EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    ledger_path = args.ledger
    if ledger_path is None and not args.quick:
        ledger_path = _LEDGER_PATH
    if ledger_path:
        # The ledger file's one writer: this header now, each record's
        # line as it lands (so `python -m repro.obs.watch PATH` can
        # follow the sweep), the driver lines and footer at the end.
        telemetry.LEDGER.stream_to(ledger_path, header={
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "experiments": list(names),
            "jobs": _JOBS,
            "seed": args.seed,
            "seeds": args.seeds,
            "quick": args.quick,
            "verify": args.verify,
            "server": args.server,
            "cache_enabled": artifact_cache.store() is not None,
        })
    wall_start = time.perf_counter()
    try:
        for name in names:
            module = __import__(
                f"repro.eval.{name}", fromlist=["run", "render"]
            )
            with PROFILER.phase(name), telemetry.LEDGER.driver_phase(name):
                if args.seeds and name in _SEEDED_DRIVERS:
                    data = module.run(settings, seeds=args.seeds)
                else:
                    data = module.run(settings)
            mark = PROFILER.marks[-1]
            print(module.render(data))
            print(f"[{name} completed in {mark['t1'] - mark['t0']:.1f}s]\n")
        wall_clock = time.perf_counter() - wall_start

        ledger = telemetry.LEDGER
        profile = PROFILER.table(COUNTERS.snapshot(), ledger.records)
        dispatch = fast_dispatch.dispatch_stats()
        sect = sections.cache_stats()
        disk = artifact_cache.stats()
        print(profile)
        if serve_client is not None:
            print(f"[{serve_client.summary_line()}]")

        engines = ledger.engine_counts()
        mix = ", ".join(f"{n} {e}" for e, n in sorted(engines.items()))
        total_rows = ledger.total_rows()
        rows_note = (
            f" in {len(ledger.records)} records"
            if total_rows != len(ledger.records) else ""
        )
        print(f"[ledger: {total_rows} runs{rows_note} — {mix or 'none'}]")
        if ledger_path:
            ledger.finish(
                PROFILER.marks,
                footer={
                    "wall_clock_s": round(wall_clock, 3),
                    "dispatch": dispatch,
                    "aggregates": {
                        "section_cache_hits": sect["hits"],
                        "section_cache_misses": sect["misses"],
                        "disk_cache_hits": disk["hits"],
                        "disk_cache_misses": disk["misses"],
                        "disk_cache_puts": disk["puts"],
                    },
                },
            )
            print(f"[run ledger written to {ledger_path}]")

        if args.arch:
            summary = ARCH_COLLECTOR.to_summary()
            arch_dir = os.path.dirname(args.arch)
            if arch_dir:
                os.makedirs(arch_dir, exist_ok=True)
            with open(args.arch, "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"[architecture stats written to {args.arch}]")

        if not args.quick:
            # Quick smoke runs (and the test suite) must not clobber the
            # committed full-run profile or the bench trajectory.
            os.makedirs(os.path.dirname(_PROFILE_PATH), exist_ok=True)
            with open(_PROFILE_PATH, "w", encoding="utf-8") as fh:
                fh.write(profile + "\n")
            print(f"[profile written to {_PROFILE_PATH}]")
            sim_seconds = sum(rec.wall_s for rec in ledger.records)
            driver_runs = telemetry.count_rows(ledger.records,
                                               lambda r: r.driver)
            driver_stats = {}
            for mark in PROFILER.marks:
                seconds = mark["t1"] - mark["t0"]
                runs = driver_runs.get(mark["name"], 0)
                driver_stats[mark["name"]] = {
                    "seconds": round(seconds, 3),
                    "runs": runs,
                    "ms_per_run": round(1000.0 * seconds / runs, 3)
                    if runs else None,
                }
            _append_bench_entry(_BENCH_PATH, {
                "timestamp": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
                "experiments": list(names),
                "jobs": _JOBS,
                "server": bool(args.server),
                "cpus": os.cpu_count(),
                "profiled": instrumented(),
                "wall_clock_s": round(wall_clock, 3),
                "sim_runs": total_rows,
                "sim_seconds": round(sim_seconds, 3),
                "ms_per_run": round(1000.0 * sim_seconds / total_rows, 3)
                if total_rows else None,
                "disk_cache": {
                    "enabled": artifact_cache.store() is not None,
                    "hits": disk["hits"],
                    "misses": disk["misses"],
                    "puts": disk["puts"],
                },
                **(
                    {"serve_tiers": dict(serve_client.tier_counts)}
                    if serve_client is not None else {}
                ),
                "engines": engines,
                "engine_mix": "batch" if "batch" in engines else "scalar",
                "fallback_reasons": {
                    reason: n
                    for reason, n in dispatch["reasons"].items() if n
                },
                "drivers": driver_stats,
            })
            print(f"[bench entry appended to {_BENCH_PATH}]")
    finally:
        telemetry.LEDGER.disable()
        telemetry.LEDGER.stop_stream()
        ARCH_COLLECTOR.disable()
        if tracing.TRACER.enabled:
            exported = tracing.TRACER.flush()
            if exported and tracing.TRACER.export_path:
                print(f"[{exported} spans written to "
                      f"{tracing.TRACER.export_path}]")
        if serve_client is not None:
            from repro.serve import uninstall

            uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
