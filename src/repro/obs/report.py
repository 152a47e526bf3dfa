"""Render a sweep's run ledger as a text or HTML report.

``python -m repro.eval`` writes ``results/run_ledger.jsonl`` (one
provenance record per simulator run; see :mod:`repro.obs.telemetry`).
This module turns that file into the questions people actually ask of it:

* **engine mix** — how many runs the fast path served vs the reference
  simulator vs the persistent result cache,
* **fallback reasons** — when the fast path refused, why (typed),
* **cache-tier funnel** — result-cache outcomes per run, plus the
  section-map and result-store aggregates from the sweep footer,
* **per-driver timings** — wall-clock and run counts per experiment
  driver, from the ledger's driver marks,
* **slowest runs** — the stragglers worth profiling next.

CLI::

    python -m repro.obs.report results/run_ledger.jsonl
    python -m repro.obs.report results/run_ledger.jsonl --html report.html
    python -m repro.obs.report results/run_ledger.jsonl --chrome-trace t.json

Every run count is row-weighted (:func:`repro.obs.telemetry.count_rows`):
a batched seed-repeat record stands for its ``rows`` runs.  The HTML
report is a single static dependency-free file.  The ``--chrome-trace``
export renders the ledger's driver marks and run records as spans
(:func:`repro.obs.chrome_trace.ledger_spans`) with the span renderer
(:func:`repro.obs.chrome_trace.spans_to_chrome_trace`): one process for
the drivers and one per worker.  ``--arch PATH``
embeds the architectural statistics written by ``repro.eval --arch``
(:mod:`repro.obs.analyze`) as an extra report section.
"""

import argparse
import html
import json
import sys
from typing import Dict, List

from repro.obs import analyze, telemetry
from repro.obs.chrome_trace import ledger_spans, spans_to_chrome_trace
from repro.obs.telemetry import count_rows


def _driver_rows(ledger: telemetry.Ledger) -> List[dict]:
    """Per-driver timing rows: driver-mark wall-clock joined with the
    run counts and summed engine seconds of that driver's records."""
    runs = count_rows(ledger.records, lambda r: r.driver)
    sim_s: Dict[str, float] = {}
    for rec in ledger.records:
        if rec.driver:
            sim_s[rec.driver] = sim_s.get(rec.driver, 0.0) + rec.wall_s
    rows = []
    seen = set()
    for mark in ledger.drivers:
        name = mark.get("name", "?")
        seen.add(name)
        wall = float(mark.get("t1", 0.0)) - float(mark.get("t0", 0.0))
        rows.append({
            "driver": name,
            "wall_s": round(wall, 3),
            "runs": runs.get(name, 0),
            "sim_s": round(sim_s.get(name, 0.0), 3),
        })
    # Records whose driver never got a mark (partial/foreign ledgers).
    for name in sorted(set(runs) - seen - {None}):
        rows.append({
            "driver": name, "wall_s": None,
            "runs": runs[name], "sim_s": round(sim_s.get(name, 0.0), 3),
        })
    return rows


def summary(ledger: telemetry.Ledger, top: int = 10) -> dict:
    """Machine-readable sweep summary (what the renderers consume)."""
    records = ledger.records
    slowest = sorted(records, key=lambda r: -r.wall_s)[:top]
    footer = ledger.footer or {}
    return {
        "runs": sum(r.rows for r in records),
        "records": len(records),
        "header": {
            k: v for k, v in (ledger.header or {}).items() if k != "type"
        },
        "engines": count_rows(records, lambda r: r.engine),
        "fallback_reasons": count_rows(records, lambda r: r.fallback_reason),
        "kernels": count_rows(records, lambda r: r.kernel),
        "result_cache": count_rows(records, lambda r: r.result_cache),
        "stalled": sum(r.rows for r in records if r.stalled),
        "aggregates": footer.get("aggregates", {}),
        "dispatch": footer.get("dispatch", {}),
        "wall_clock_s": footer.get("wall_clock_s"),
        "drivers": _driver_rows(ledger),
        "slowest": [
            {
                "workload": r.workload,
                "config": r.config,
                "driver": r.driver,
                "engine": r.engine,
                "wall_ms": round(1000.0 * r.wall_s, 3),
            }
            for r in slowest
        ],
    }


def _runs_label(s: dict) -> str:
    """``N runs``, or ``N runs in M records`` when batch records fold
    several runs each (the eval CLI's ledger line reads the same)."""
    if s["runs"] == s["records"]:
        return f"{s['runs']} runs"
    return f"{s['runs']} runs in {s['records']} records"


def _share_lines(counts: Dict[str, int], total: int, indent: str) -> List[str]:
    lines = []
    for key, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        share = n / total if total else 0.0
        lines.append(f"{indent}{key:<22s} {n:7d}  {share:6.1%}")
    return lines


def render_text(ledger: telemetry.Ledger, top: int = 10,
                arch_summary: dict = None) -> str:
    """Aligned text report over a loaded ledger."""
    s = summary(ledger, top=top)
    total = s["runs"]
    lines = [f"sweep report — {_runs_label(s)}"]
    header = s["header"]
    if header:
        bits = []
        for key in ("timestamp", "experiments", "jobs", "seed", "quick"):
            if key in header:
                val = header[key]
                if key == "experiments" and isinstance(val, list):
                    val = ",".join(val)
                bits.append(f"{key}={val}")
        if bits:
            lines.append("   " + "  ".join(bits))
    if s["wall_clock_s"] is not None:
        lines.append(f"   wall clock: {s['wall_clock_s']}s")

    lines.append("-- engine mix")
    lines.extend(_share_lines(s["engines"], total, "   "))
    if s["stalled"]:
        lines.append(f"   ({s['stalled']} runs ended in a stall abort)")

    if s["fallback_reasons"]:
        fallback_total = sum(s["fallback_reasons"].values())
        lines.append(f"-- fallback reasons ({fallback_total} reference runs "
                     f"via simulate_fast)")
        lines.extend(_share_lines(s["fallback_reasons"], fallback_total, "   "))

    if s["kernels"]:
        lines.append("-- chain-scan kernel (fast runs)")
        lines.extend(
            _share_lines(s["kernels"], sum(s["kernels"].values()), "   ")
        )

    lines.append("-- cache-tier funnel")
    lines.append("   result cache (per run):")
    lines.extend(_share_lines(s["result_cache"], total, "      "))
    agg = s["aggregates"]
    if agg:
        sh = agg.get("section_cache_hits", 0)
        sm = agg.get("section_cache_misses", 0)
        if sh or sm:
            rate = sh / (sh + sm) if (sh + sm) else 0.0
            lines.append(
                f"   section maps: {sh} hits / {sm} misses "
                f"({rate:.1%} hit rate)"
            )
        dh = agg.get("disk_cache_hits", 0)
        dm = agg.get("disk_cache_misses", 0)
        if dh or dm or agg.get("disk_cache_puts", 0):
            rate = dh / (dh + dm) if (dh + dm) else 0.0
            lines.append(
                f"   artifact cache (disk): {dh} hits / {dm} misses "
                f"({rate:.1%} hit rate), {agg.get('disk_cache_puts', 0)} puts"
            )

    if s["drivers"]:
        lines.append("-- per-driver timings")
        for row in s["drivers"]:
            wall = (f"{row['wall_s']:9.3f}s" if row["wall_s"] is not None
                    else "        ?")
            lines.append(
                f"   {row['driver']:<20s} {wall}  {row['runs']:6d} runs  "
                f"{row['sim_s']:8.3f}s in engines"
            )

    if s["slowest"]:
        lines.append(f"-- slowest runs (top {len(s['slowest'])})")
        for row in s["slowest"]:
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
# HTML rendering — dependency-free static tables.
# --------------------------------------------------------------------- #

_CSS = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', sans-serif;
       margin: 2em auto; max-width: 60em; color: #1a1a2e; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #ccd; padding: 0.25em 0.8em; text-align: left; }
th { background: #eef; } td.num { text-align: right;
     font-variant-numeric: tabular-nums; }
.bar { background: #cfd8ff; display: inline-block; height: 0.8em; }
.meta { color: #556; }
"""


def _table(headers: List[str], rows: List[List], numeric=()) -> str:
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
    return _table([label, "runs", "share"], rows, numeric=(1, 2))


def render_html(ledger: telemetry.Ledger, top: int = 10,
                arch_summary: dict = None) -> str:
    """Single-file static HTML report over a loaded ledger."""
    s = summary(ledger, top=top)
    total = s["runs"]
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>sweep report</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>Sweep report &mdash; {_runs_label(s)}</h1>",
    ]
    header = s["header"]
    if header or s["wall_clock_s"] is not None:
        bits = [f"{html.escape(str(k))}={html.escape(str(v))}"
                for k, v in header.items()]
        if s["wall_clock_s"] is not None:
            # The footer is attacker-controllable text like everything else
            # read from the ledger — escape it on the way into the markup.
            bits.append(f"wall_clock={html.escape(str(s['wall_clock_s']))}s")
        parts.append(f"<p class='meta'>{' &middot; '.join(bits)}</p>")

    parts.append("<h2>Engine mix</h2>")
    parts.append(_count_table(s["engines"], total, "engine"))
    if s["stalled"]:
        parts.append(f"<p class='meta'>{s['stalled']} runs ended in a "
                     f"stall abort.</p>")

    if s["fallback_reasons"]:
        parts.append("<h2>Fallback reasons</h2>")
        parts.append(_count_table(
            s["fallback_reasons"], sum(s["fallback_reasons"].values()),
            "reason"))

    if s["kernels"]:
        parts.append("<h2>Chain-scan kernel</h2>")
        parts.append(_count_table(
            s["kernels"], sum(s["kernels"].values()), "kernel"))

    parts.append("<h2>Cache-tier funnel</h2>")
    parts.append(_count_table(s["result_cache"], total, "result cache"))
    agg = s["aggregates"]
    if agg:
        rows = [[k.replace("_", " "), v] for k, v in sorted(agg.items())]
        parts.append(_table(["tier counter", "count"], rows, numeric=(1,)))

    if s["drivers"]:
        parts.append("<h2>Per-driver timings</h2>")
        rows = [
            [r["driver"],
             "?" if r["wall_s"] is None else f"{r['wall_s']:.3f}",
             r["runs"], f"{r['sim_s']:.3f}"]
            for r in s["drivers"]
        ]
        parts.append(_table(
            ["driver", "wall (s)", "runs", "engine time (s)"],
            rows, numeric=(1, 2, 3)))

    if s["slowest"]:
        parts.append(f"<h2>Slowest runs (top {len(s['slowest'])})</h2>")
        rows = [
            [r["workload"], f"{r['wall_ms']:.3f}", r["engine"],
             r["driver"] or "-", r["config"]]
            for r in s["slowest"]
        ]
        parts.append(_table(
            ["workload", "wall (ms)", "engine", "driver", "config"],
            rows, numeric=(1,)))

    if arch_summary is not None:
        parts.append("<h2>Architecture</h2>")
        parts.append(analyze.render_html_fragment(arch_summary, top=top))

    parts.append("</body></html>")
    return "".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render a sweep's run ledger (JSONL) as a report.",
    )
    parser.add_argument("ledger", help="run-ledger JSONL file "
                                       "(results/run_ledger.jsonl)")
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
                        help="slowest runs to list (default 10)")
    args = parser.parse_args(argv)

    try:
        ledger = telemetry.read_ledger(args.ledger)
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
        doc = summary(ledger, top=args.top)
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
