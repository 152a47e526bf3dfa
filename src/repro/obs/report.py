"""Render a sweep's run ledger as its run profile (text or HTML), or
summarize a recorded event log.

``python -m repro.eval`` ends every sweep by building one
:class:`repro.obs.telemetry.Ledger` (header, one provenance record per
simulator run, the driver marks, and a footer holding the wall clock and
the sweep counters), printing :func:`render_text` of it as its run
profile, and writing it to ``results/run_ledger.jsonl``.  Rendering the
written file here prints the same bytes.  Every run count comes from
:func:`repro.obs.telemetry.tally` and is row-weighted: a batched
seed-repeat record stands for its ``rows`` runs.  The profile answers:

* **where the wall clock went** — per experiment driver, and the
  engines' time per workload,
* **engine mix** — runs the section walk served, the reference
  simulator ran, or the persistent result cache answered,
* **fallback reasons** — why a run went to the reference (typed),
* **caches** — result-cache tier per run, plus the trace cache, section
  maps, family scans and disk cache from the sweep counters,
* **slowest runs** — the stragglers worth profiling next.

CLI::

    python -m repro.obs.report results/run_ledger.jsonl
    python -m repro.obs.report results/run_ledger.jsonl --html report.html
    python -m repro.obs.report results/run_ledger.jsonl --chrome-trace t.json
    python -m repro.obs.report results/observed_run.jsonl

The input kind is sniffed (:func:`repro.obs.telemetry.is_ledger_file`):
an **event log** (``repro.obs.recorder.JsonlRecorder``) gets the
run-level summary of :func:`summarize_data` instead — which causes
forced checkpoints, which addresses kept overflowing which buffer, when
the watchdogs fired, and how much of the power-cycle budget made no
progress.  ``--json`` prints the machine-readable form of either.

The HTML report is a single static dependency-free file.  The
``--chrome-trace`` export renders the ledger's driver marks and run
records as spans (:func:`repro.obs.chrome_trace.ledger_spans`) with the
span renderer (:func:`repro.obs.chrome_trace.spans_to_chrome_trace`):
one process for the drivers and one per worker.  ``--arch PATH`` embeds
the architectural statistics written by ``repro.eval --arch``
(:mod:`repro.obs.analyze`) as an extra section.
"""

import argparse
import html
import json
import sys
from collections import Counter, defaultdict
from typing import Dict, List

from repro.obs import analyze, telemetry
from repro.obs.chrome_trace import ledger_spans, spans_to_chrome_trace
from repro.obs.events import Event
from repro.obs.metrics import by_prefix
from repro.obs.recorder import read_events


def _runs_label(t: dict) -> str:
    """``N runs``, or ``N runs in M records`` when batch records fold
    several runs each (the eval CLI's ledger line reads the same)."""
    if t["rows"] == t["records"]:
        return f"{t['rows']} runs"
    return f"{t['rows']} runs in {t['records']} records"


def _share_lines(counts: Dict[str, int], total: int, indent: str) -> List[str]:
    lines = []
    for key, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        share = n / total if total else 0.0
        lines.append(f"{indent}{key:<22s} {n:7d}  {share:6.1%}")
    return lines


def _slowest(ledger: telemetry.Ledger, top: int) -> List[dict]:
    return [
        {
            "workload": r.workload,
            "config": r.config,
            "driver": r.driver,
            "engine": r.engine,
            "wall_ms": round(1000.0 * r.wall_s, 3),
        }
        for r in sorted(ledger.records, key=lambda r: -r.wall_s)[:top]
    ]


def render_text(ledger: telemetry.Ledger, top: int = 10,
                arch_summary: dict = None) -> str:
    """The run profile of a sweep: what the eval CLI prints and writes to
    ``results/profile.txt``, and what this module's CLI prints for the
    written ledger."""
    t = telemetry.tally(ledger)
    footer = ledger.footer or {}
    counters = footer.get("counters", {})
    get = counters.get
    lines = ["run profile"]
    bits = []
    for key in ("timestamp", "experiments", "jobs", "seed", "quick"):
        if key in ledger.header:
            val = ledger.header[key]
            if key == "experiments" and isinstance(val, list):
                val = ",".join(val)
            bits.append(f"{key}={val}")
    if bits:
        lines.append("   " + "  ".join(bits))
    if footer.get("wall_clock_s") is not None:
        lines.append(f"   wall clock: {footer['wall_clock_s']}s")

    drivers = sorted(t["drivers"].items(),
                     key=lambda kv: -(kv[1]["wall_s"] or 0.0))
    if drivers:
        lines.append("-- experiment drivers (wall-clock)")
        total = sum(row["wall_s"] or 0.0 for _, row in drivers)
        for name, row in drivers:
            if row["wall_s"] is None:
                wall = f"{'?':>10s}  {'':6s}"
            else:
                share = row["wall_s"] / total if total else 0.0
                wall = f"{row['wall_s']:9.3f}s  {share:6.1%}"
            lines.append(
                f"   {name:<20s} {wall}  {row['rows']:6d} runs  "
                f"{row['sim_s']:8.3f}s in engines"
            )
        lines.append(f"   {'total':<20s} {total:9.3f}s")
    if t["workloads"]:
        lines.append(
            f"-- simulator time by workload "
            f"({t['rows']} runs, {t['sim_s']:.3f}s total)"
        )
        ranked = sorted(t["workloads"].items(), key=lambda kv: -kv[1]["sim_s"])
        for name, row in ranked[:top]:
            lines.append(
                f"   {name:<20s} {row['sim_s']:9.3f}s  {row['rows']:6d} runs  "
                f"{1000.0 * row['sim_s'] / row['rows']:8.2f} ms/run"
            )
        if len(ranked) > top:
            rest = sum(row["sim_s"] for _, row in ranked[top:])
            lines.append(
                f"   ({len(ranked) - top} more workloads, {rest:.3f}s)"
            )

    lines.append(f"-- engine mix ({_runs_label(t)})")
    lines.extend(_share_lines(t["engines"], t["rows"], "   "))
    if t["stalled"]:
        lines.append(f"   ({t['stalled']} runs ended in a stall abort)")
    engines = t["engines"]
    walked = engines.get("fast", 0) + engines.get("batch", 0)
    fallback = sum(t["fallback_reasons"].values())
    if walked or fallback:
        lines.append(
            f"-- section walk: {walked} walked / {fallback} fallback "
            f"({walked / (walked + fallback):.1%} walked); "
            f"{get('walk.calls', 0)} C walk calls"
        )
    if fallback:
        lines.append(f"-- fallback reasons ({fallback} reference runs "
                     f"via simulate_batch)")
        lines.extend(_share_lines(t["fallback_reasons"], fallback, "   "))
    if t["kernels"]:
        lines.append("-- kernel (rows the C section walk served, "
                     "fast and batch)")
        lines.extend(
            _share_lines(t["kernels"], sum(t["kernels"].values()), "   ")
        )
    if t["result_cache"]:
        lines.append("-- result cache (per run)")
        lines.extend(_share_lines(t["result_cache"], t["rows"], "   "))

    if counters:
        hits, misses = get("traces.hits", 0), get("traces.misses", 0)
        rate = hits / (hits + misses) if hits + misses else 0.0
        lines.append(
            f"-- trace cache: {hits} hits / {misses} misses "
            f"({rate:.1%} hit rate); misses built in "
            f"{get('traces.build_seconds', 0):.3f}s"
        )
    hits, misses = get("sections.hits", 0), get("sections.misses", 0)
    table_bytes = get("sections.table_bytes", 0)
    if hits or misses:
        rate = hits / (hits + misses)
        lines.append(
            f"-- section maps: {hits} hits / {misses} misses "
            f"({rate:.1%} hit rate); {hits} warm from memory, "
            f"{misses} cold"
            + (
                f"; {get('sections.tables_shared', 0)} tables shared, "
                f"{table_bytes / 1e6:.1f} MB distinct" if table_bytes else ""
            )
        )
    family_maps = get("sections.family_maps", 0)
    if family_maps:
        passes = get("sections.family_passes", 0)
        lines.append(
            f"-- family scans: {family_maps} maps in {passes} trace passes "
            f"({family_maps / max(passes, 1):.1f} maps/pass); "
            f"{get('sections.scalar_maps', 0)} built scalar"
        )
        ranked = sorted(
            by_prefix(counters, "sections.family_by_trace.").items(),
            key=lambda kv: (-kv[1], kv[0]),
        )
        if ranked:
            shown = ", ".join(f"{name} {n}" for name, n in ranked[:6])
            more = (
                f" (+{len(ranked) - 6} more traces)" if len(ranked) > 6
                else ""
            )
            lines.append(f"   by trace: {shown}{more}")
    enum_seconds = get("sections.enum_seconds", 0)
    if enum_seconds:
        lines.append(
            f"-- section enumeration: {enum_seconds:9.3f}s "
            f"(C chain scans: family passes, off-chain and direct writes)"
        )
    hits, misses = get("cache.hits", 0), get("cache.misses", 0)
    puts = get("cache.puts", 0)
    if hits or misses or puts:
        rate = hits / (hits + misses) if hits + misses else 0.0
        lines.append(
            f"-- artifact cache (disk): {hits} hits / {misses} misses "
            f"({rate:.1%} hit rate), {puts} puts, "
            f"{get('cache.evictions', 0)} evictions"
        )

    slowest = _slowest(ledger, top)
    if slowest:
        lines.append(f"-- slowest runs (top {len(slowest)})")
        for row in slowest:
            lines.append(
                f"   {row['workload']:<16s} {row['wall_ms']:9.3f} ms  "
                f"{row['engine']:<12s} {row['driver'] or '-':<12s} "
                f"{row['config']}"
            )
    if arch_summary is not None:
        lines.append("-- architecture")
        lines.append(analyze.render_text(arch_summary, top=top))
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# HTML rendering — dependency-free static tables (shared with
# repro.obs.analyze).
# --------------------------------------------------------------------- #

HTML_STYLE = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', sans-serif;
       margin: 2em auto; max-width: 64em; color: #1a1a2e; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
h3 { font-size: 1.0em; margin-top: 1.2em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #ccd; padding: 0.25em 0.8em; text-align: left; }
th { background: #eef; } td.num { text-align: right;
     font-variant-numeric: tabular-nums; }
.meta { color: #556; }
"""


def html_table(headers: List[str], rows: List[List], numeric=()) -> str:
    """A static ``<table>``; every cell passes through ``html.escape``."""
    out = ["<table><tr>"]
    out.extend(f"<th>{html.escape(str(h))}</th>" for h in headers)
    out.append("</tr>")
    for row in rows:
        out.append("<tr>")
        for i, cell in enumerate(row):
            cls = ' class="num"' if i in numeric else ""
            out.append(f"<td{cls}>{html.escape(str(cell))}</td>")
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


def _count_table(counts: Dict[str, int], total: int, label: str) -> str:
    rows = []
    for key, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        share = n / total if total else 0.0
        rows.append([key, n, f"{share:.1%}"])
    return html_table([label, "runs", "share"], rows, numeric=(1, 2))


def render_html(ledger: telemetry.Ledger, top: int = 10,
                arch_summary: dict = None) -> str:
    """Single-file static HTML report over a loaded ledger."""
    t = telemetry.tally(ledger)
    footer = ledger.footer or {}
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>sweep report</title>",
        f"<style>{HTML_STYLE}</style></head><body>",
        f"<h1>Sweep report &mdash; {_runs_label(t)}</h1>",
    ]
    bits = [f"{html.escape(str(k))}={html.escape(str(v))}"
            for k, v in ledger.header.items() if k != "type"]
    if footer.get("wall_clock_s") is not None:
        # The footer is attacker-controllable text like everything else
        # read from the ledger — escape it on the way into the markup.
        bits.append(f"wall_clock={html.escape(str(footer['wall_clock_s']))}s")
    if bits:
        parts.append(f"<p class='meta'>{' &middot; '.join(bits)}</p>")

    parts.append("<h2>Engine mix</h2>")
    parts.append(_count_table(t["engines"], t["rows"], "engine"))
    if t["stalled"]:
        parts.append(f"<p class='meta'>{t['stalled']} runs ended in a "
                     f"stall abort.</p>")
    if t["fallback_reasons"]:
        parts.append("<h2>Fallback reasons</h2>")
        parts.append(_count_table(
            t["fallback_reasons"], sum(t["fallback_reasons"].values()),
            "reason"))
    if t["kernels"]:
        parts.append("<h2>Kernel (rows the C section walk served)</h2>")
        parts.append(_count_table(
            t["kernels"], sum(t["kernels"].values()), "kernel"))
    parts.append("<h2>Result cache</h2>")
    parts.append(_count_table(t["result_cache"], t["rows"], "result cache"))
    counters = footer.get("counters", {})
    if counters:
        parts.append("<h2>Sweep counters</h2>")
        rows = [[k, v] for k, v in sorted(counters.items()) if v]
        parts.append(html_table(["counter", "value"], rows, numeric=(1,)))

    if t["drivers"]:
        parts.append("<h2>Per-driver timings</h2>")
        rows = [
            [name,
             "?" if row["wall_s"] is None else f"{row['wall_s']:.3f}",
             row["rows"], f"{row['sim_s']:.3f}"]
            for name, row in t["drivers"].items()
        ]
        parts.append(html_table(
            ["driver", "wall (s)", "runs", "engine time (s)"],
            rows, numeric=(1, 2, 3)))

    slowest = _slowest(ledger, top)
    if slowest:
        parts.append(f"<h2>Slowest runs (top {len(slowest)})</h2>")
        rows = [
            [r["workload"], f"{r['wall_ms']:.3f}", r["engine"],
             r["driver"] or "-", r["config"]]
            for r in slowest
        ]
        parts.append(html_table(
            ["workload", "wall (ms)", "engine", "driver", "config"],
            rows, numeric=(1,)))

    if arch_summary is not None:
        parts.append("<h2>Architecture</h2>")
        parts.append(analyze.render_html_fragment(arch_summary, top=top))

    parts.append("</body></html>")
    return "".join(parts)


# --------------------------------------------------------------------- #
# Event logs.
# --------------------------------------------------------------------- #

def summarize_data(events: List[Event], top: int = 10) -> dict:
    """Summary of one run's event log (the ``--json`` shape, and what
    :func:`render_events` prints)."""
    data = {
        "events": len(events),
        "counts": dict(Counter(e.kind for e in events).most_common()),
    }

    committed = Counter(
        e.cause for e in events if e.kind == "checkpoint_committed"
    )
    aborted = Counter(
        e.cause for e in events if e.kind == "checkpoint_aborted"
    )
    if committed or aborted:
        data["checkpoints"] = {
            cause: {
                "committed": committed.get(cause, 0),
                "aborted": aborted.get(cause, 0),
            }
            for cause in sorted(set(committed) | set(aborted))
        }

    overflows = [e for e in events if e.kind == "buffer_overflow"]
    if overflows:
        by_buffer = defaultdict(Counter)
        for e in overflows:
            by_buffer[e.buffer][e.waddr] += 1
        data["overflows"] = {
            buffer: {
                "total": sum(addrs.values()),
                "distinct_words": len(addrs),
                "hot": [
                    {"waddr": waddr, "count": n}
                    for waddr, n in addrs.most_common(top)
                ],
            }
            for buffer, addrs in sorted(by_buffer.items())
        }

    fired = [e for e in events if e.kind == "watchdog_fired"]
    halved = [e for e in events if e.kind == "watchdog_halved"]
    if fired or halved:
        dogs = {}
        for dog, n in sorted(Counter(e.watchdog for e in fired).items()):
            ts = [e.t for e in fired if e.watchdog == dog and e.t is not None]
            dogs[dog] = {"fired": n}
            if ts:
                dogs[dog]["t_first"] = min(ts)
                dogs[dog]["t_last"] = max(ts)
        data["watchdogs"] = dogs
        if halved:
            loads = [e.load_value for e in halved]
            data["progress_halvings"] = {
                "count": len(halved),
                "load_first": loads[0],
                "load_last": loads[-1],
            }

    failures = [e for e in events if e.kind == "power_failure"]
    if failures:
        data["power"] = {
            "failures": len(failures),
            "during_restart": sum(
                1 for e in failures if e.phase == "restart"
            ),
            "no_progress": sum(1 for e in failures if not e.progress),
        }

    sections = [e for e in events if e.kind == "section_closed"]
    if sections:
        acc = [e.accesses for e in sections]
        data["sections"] = {
            "closed": len(sections),
            "accesses_min": min(acc),
            "accesses_mean": round(sum(acc) / len(acc), 1),
            "accesses_max": max(acc),
        }

    outputs = [e for e in events if e.kind == "output_committed"]
    if outputs:
        data["outputs"] = {
            "committed": len(outputs),
            "duplicates": sum(1 for e in outputs if e.duplicate),
        }

    return data


def render_events(data: dict) -> str:
    """Aligned text of a :func:`summarize_data` summary."""
    lines = [f"event log: {data['events']} events", "-- event counts"]
    for kind, n in data["counts"].items():
        lines.append(f"   {kind:<22s} {n}")
    if "checkpoints" in data:
        lines.append("-- checkpoints by cause (committed / aborted)")
        for cause, c in data["checkpoints"].items():
            lines.append(
                f"   {cause:<16s} {c['committed']:6d} / {c['aborted']}"
            )
    if "overflows" in data:
        lines.append("-- buffer overflows (hot addresses)")
        for buffer, o in data["overflows"].items():
            lines.append(f"   {buffer}: {o['total']} overflows, "
                         f"{o['distinct_words']} distinct words")
            for hot in o["hot"]:
                lines.append(f"      word {hot['waddr']:#010x}  "
                             f"x{hot['count']}")
    if "watchdogs" in data:
        lines.append("-- watchdog timeline")
        for dog, d in data["watchdogs"].items():
            span = (f", t={d['t_first']}..{d['t_last']}"
                    if "t_first" in d else "")
            lines.append(f"   {dog}: fired {d['fired']} "
                         f"time{'s' if d['fired'] != 1 else ''}{span}")
        halvings = data.get("progress_halvings")
        if halvings:
            lines.append(
                f"   progress halvings: {halvings['count']} "
                f"(load {halvings['load_first']} -> "
                f"{halvings['load_last']})"
            )
    if "power" in data:
        p = data["power"]
        lines.append(
            f"-- power: {p['failures']} failures ({p['during_restart']} "
            f"during restart, {p['no_progress']} cycles without progress)"
        )
    if "sections" in data:
        s = data["sections"]
        lines.append(
            f"-- sections: {s['closed']} closed, accesses min/mean/max = "
            f"{s['accesses_min']}/{s['accesses_mean']:.1f}/"
            f"{s['accesses_max']}"
        )
    if "outputs" in data:
        o = data["outputs"]
        lines.append(f"-- outputs: {o['committed']} committed, "
                     f"{o['duplicates']} duplicates")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render a sweep's run ledger as its run profile, or "
                    "summarize a recorded event log (JSONL).",
    )
    parser.add_argument("path", help="run ledger (results/run_ledger.jsonl) "
                                     "or event log (JsonlRecorder output)")
    parser.add_argument("--html", metavar="PATH", default=None,
                        help="also write a static HTML report to PATH")
    parser.add_argument("--chrome-trace", metavar="PATH", default=None,
                        help="also write the worker-lane sweep timeline "
                             "(chrome://tracing / Perfetto JSON) to PATH")
    parser.add_argument("--arch", metavar="PATH", default=None,
                        help="embed the architecture statistics summary "
                             "(repro.eval --arch PATH) as a report section")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable summary instead "
                             "of the text report")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="slowest runs and workloads, or hot addresses "
                             "per buffer, to list (default 10)")
    args = parser.parse_args(argv)

    if not telemetry.is_ledger_file(args.path):
        if args.html or args.chrome_trace or args.arch:
            parser.error("--html, --chrome-trace and --arch take a run "
                         "ledger, not an event log")
        try:
            events = read_events(args.path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        data = summarize_data(events, top=args.top)
        print(json.dumps(data, indent=2) if args.json
              else render_events(data))
        return 0

    try:
        ledger = telemetry.read_ledger(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    arch_summary = None
    if args.arch:
        try:
            arch_summary = analyze.load_summary(args.arch)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.json:
        doc = {
            "header": ledger.header,
            "footer": ledger.footer,
            **telemetry.tally(ledger),
            "slowest": _slowest(ledger, args.top),
        }
        if arch_summary is not None:
            doc["architecture"] = arch_summary
        print(json.dumps(doc, indent=2))
    else:
        print(render_text(ledger, top=args.top, arch_summary=arch_summary))
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_html(ledger, top=args.top,
                                 arch_summary=arch_summary) + "\n")
        print(f"[html report written to {args.html}]", file=sys.stderr)
    if args.chrome_trace:
        with open(args.chrome_trace, "w", encoding="utf-8") as fh:
            json.dump(spans_to_chrome_trace(ledger_spans(ledger),
                                            name="sweep"), fh)
        print(f"[sweep trace written to {args.chrome_trace}]",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
