"""Per-section architectural statistics: occupancy, hazards, attribution.

The run ledger (:mod:`repro.obs.telemetry`) records *that* checkpoints
happened and which engine ran; this module records *why* — the
architectural view behind the paper's capacity sweeps:

* **occupancy distributions** — how full each tracking buffer (Read-First,
  Write-First, Write-Back, Address-Prefix) was at every committed
  checkpoint, and each static section's per-buffer high-water marks,
* **hazard attribution** — the top-N word addresses that tripped section
  boundaries, keyed by violation kind (``violation``, ``rf_full``,
  ``wf_full``, ``apb_full``, ``wbb_full``, ``latest_write``),
* **cause waterfall** — committed checkpoints and checkpoint cycles by
  cause, per workload and configuration,
* **section shape** — accesses and consumed cycles between commits.

The statistics are *schedule-independent per section*: the C section
walk reports each commit to :mod:`repro.sim.batch`, which derives its
occupancy from the memoized
:meth:`~repro.sim.sections.SectionMap.arch_stats` growth steps (bisect
arithmetic per commit, no per-access work), and the reference simulator
snapshots ``detector.occupancy()`` at each commit — the same numbers, so
the two engines reconcile exactly.  Section peaks come from the walk
only.  Aggregation is bounded-memory
everywhere: fixed-width histograms, a capped hazard table, and a capped
per-section peak table, each with an explicit dropped counter.

Collection is **off by default** (the module-level :data:`COLLECTOR` is
disabled); when off, the engines pay one flag check per run (the walk's
commit stops are off too).  Enable it
with ``python -m repro.eval ... --arch results/arch_stats.json`` and
render the written summary with the CLI::

    python -m repro.obs.analyze results/arch_stats.json
    python -m repro.obs.analyze results/arch_stats.json --html arch.html
    python -m repro.obs.analyze events.jsonl          # per-access event log
"""

import argparse
import html as _html
import json
import sys
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.events import Event
from repro.obs.metrics import Histogram
from repro.obs.recorder import Recorder

#: Summary schema identifier (bump on incompatible changes).
SCHEMA = "repro.obs.analyze/v1"

#: Occupancy histogram width: bins 0..63 exact, bin 64 = "64 or more".
HIST_BINS = 65

#: Cap on distinct ``(address, cause)`` hazard keys per accumulator.
MAX_HAZARDS = 128

#: Cap on distinct static sections tracked for peak histograms.
MAX_SECTIONS = 1024

BUFFERS = ("rf", "wf", "wbb", "apb")

#: Checkpoint causes attributable to one word address tripping the
#: detector — the causes that carry a hazard address.
HAZARD_CAUSES = frozenset(
    {"violation", "rf_full", "wf_full", "apb_full", "wbb_full",
     "latest_write"}
)


def _bin(v: int) -> int:
    return v if v < HIST_BINS - 1 else HIST_BINS - 1


class ArchAccumulator:
    """Bounded-memory architectural statistics of one or more runs.

    One accumulator per simulated run (folded into the collector on
    success, discarded on stall/fallback) and one per ``(workload,
    config)`` slot inside :class:`ArchCollector`; :meth:`merge` combines
    them.  All tables are capped with explicit dropped counters, so the
    footprint is independent of trace length and sweep size.
    """

    __slots__ = (
        "causes", "ckpt_cycles_by_cause", "occ_commit",
        "hazards", "hazards_dropped", "sections", "sections_dropped",
        "commits", "section_accesses", "section_cycles",
    )

    def __init__(self):
        self.causes: Dict[str, int] = {}
        self.ckpt_cycles_by_cause: Dict[str, int] = {}
        self.occ_commit: Dict[str, List[int]] = {
            b: [0] * HIST_BINS for b in BUFFERS
        }
        #: ``(waddr, cause) -> count``, capped at :data:`MAX_HAZARDS`.
        self.hazards: Dict[Tuple[int, str], int] = {}
        self.hazards_dropped = 0
        #: ``section key -> (rf_peak, wf_peak, wbb_peak, apb_peak)``,
        #: capped at :data:`MAX_SECTIONS`.  Values are a pure function of
        #: the key, so merging is a union and never conflicts.
        self.sections: Dict[int, Tuple[int, int, int, int]] = {}
        self.sections_dropped = 0
        self.commits = 0
        self.section_accesses = 0
        self.section_cycles = 0

    def record_commit(
        self,
        cause: str,
        occ: Tuple[int, int, int, int],
        hazard_waddr: Optional[int],
        accesses: int,
        cycles: int,
        ckpt_cycles: int,
    ) -> None:
        """One committed checkpoint: occupancy snapshot plus attribution."""
        self.commits += 1
        self.causes[cause] = self.causes.get(cause, 0) + 1
        self.ckpt_cycles_by_cause[cause] = (
            self.ckpt_cycles_by_cause.get(cause, 0) + ckpt_cycles
        )
        oc = self.occ_commit
        oc["rf"][_bin(occ[0])] += 1
        oc["wf"][_bin(occ[1])] += 1
        oc["wbb"][_bin(occ[2])] += 1
        oc["apb"][_bin(occ[3])] += 1
        self.section_accesses += accesses
        self.section_cycles += cycles
        if hazard_waddr is not None:
            key = (hazard_waddr, cause)
            cur = self.hazards.get(key)
            if cur is None and len(self.hazards) >= MAX_HAZARDS:
                self.hazards_dropped += 1
            else:
                self.hazards[key] = (cur or 0) + 1

    def record_section(
        self, key: int, peaks: Tuple[int, int, int, int]
    ) -> None:
        """A static section's per-buffer high-water marks (idempotent per
        key — peaks are schedule-independent)."""
        if key in self.sections:
            return
        if len(self.sections) >= MAX_SECTIONS:
            self.sections_dropped += 1
            return
        self.sections[key] = peaks

    def fold_causes(self, causes: Dict[str, int]) -> None:
        """Attribution-only fold for runs without a simulated commit
        stream (persistent result-cache hits, the undo-log engine):
        cause totals still reconcile; occupancy detail is unavailable."""
        for cause, n in causes.items():
            self.causes[cause] = self.causes.get(cause, 0) + n
            self.commits += n

    def merge(self, other: "ArchAccumulator") -> None:
        for cause, n in other.causes.items():
            self.causes[cause] = self.causes.get(cause, 0) + n
        for cause, n in other.ckpt_cycles_by_cause.items():
            self.ckpt_cycles_by_cause[cause] = (
                self.ckpt_cycles_by_cause.get(cause, 0) + n
            )
        for b in BUFFERS:
            mine = self.occ_commit[b]
            theirs = other.occ_commit[b]
            for i in range(HIST_BINS):
                mine[i] += theirs[i]
        for key, n in other.hazards.items():
            cur = self.hazards.get(key)
            if cur is None and len(self.hazards) >= MAX_HAZARDS:
                self.hazards_dropped += n
            else:
                self.hazards[key] = (cur or 0) + n
        self.hazards_dropped += other.hazards_dropped
        for key, peaks in other.sections.items():
            self.record_section(key, peaks)
        self.sections_dropped += other.sections_dropped
        self.commits += other.commits
        self.section_accesses += other.section_accesses
        self.section_cycles += other.section_cycles


class ArchCollector:
    """Process-wide aggregation point, keyed ``(workload, config)``.

    Disabled by default — both engines ask :meth:`run_accumulator` once
    per run and get ``None``, so introspection-off runs pay a single flag
    check.  ``repro.eval --arch`` enables it around a sweep, whose jobs
    fold here in submission order: a capped table keeps the first
    sections and hazards folded into it, so fold order shows in the
    summary.  The sweep engine simulates a group of jobs at once, so it
    queues the group's run folds (:meth:`deferred`) and folds each job's
    share where the job stands in the sweep.
    """

    def __init__(self):
        self.enabled = False
        self._slots: Dict[Tuple[str, str], Dict[str, Any]] = {}
        #: Where :meth:`fold_run` queues its arguments inside
        #: :meth:`deferred`; ``None`` folds at once.
        self._queue: Optional[list] = None

    # -- lifecycle ----------------------------------------------------- #

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._slots = {}

    def run_accumulator(self) -> Optional[ArchAccumulator]:
        """A fresh per-run accumulator, or ``None`` when disabled (the
        engines' single introspection-off check)."""
        return ArchAccumulator() if self.enabled else None

    # -- folds --------------------------------------------------------- #

    def _slot(self, workload: str, config: str) -> Dict[str, Any]:
        key = (workload, config)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = {
                "acc": ArchAccumulator(),
                "engines": {},
                "stalled": 0,
            }
        return slot

    @contextmanager
    def deferred(self):
        """Queue the :meth:`fold_run` calls made inside the block.

        Yields the list their ``(workload, config, acc, engine)``
        arguments land in, in call order, for the caller to fold later.
        """
        self._queue = queue = []
        try:
            yield queue
        finally:
            self._queue = None

    def fold_run(
        self,
        workload: str,
        config: str,
        acc: ArchAccumulator,
        engine: str,
    ) -> None:
        """Fold one completed simulated run's accumulator."""
        if not self.enabled:
            return
        if self._queue is not None:
            self._queue.append((workload, config, acc, engine))
            return
        slot = self._slot(workload, config)
        slot["acc"].merge(acc)
        slot["engines"][engine] = slot["engines"].get(engine, 0) + 1

    def fold_causes(
        self,
        workload: str,
        config: str,
        causes: Dict[str, int],
        engine: str,
    ) -> None:
        """Fold a run known only by its ``checkpoints_by_cause`` (result
        cache hits, undo-log engine runs)."""
        if not self.enabled:
            return
        slot = self._slot(workload, config)
        slot["acc"].fold_causes(causes)
        slot["engines"][engine] = slot["engines"].get(engine, 0) + 1

    def fold_stalled(self, workload: str, config: str) -> None:
        """Count a run that ended in a stall abort (no commit stream)."""
        if not self.enabled:
            return
        self._slot(workload, config)["stalled"] += 1

    # -- views --------------------------------------------------------- #

    def cause_totals(self) -> Dict[str, int]:
        """Committed checkpoints by cause across every slot — must equal
        the sum of per-run ``checkpoints_by_cause`` exactly."""
        out: Dict[str, int] = {}
        for slot in self._slots.values():
            for cause, n in slot["acc"].causes.items():
                out[cause] = out.get(cause, 0) + n
        return out

    def run_totals(self) -> Dict[str, int]:
        """Folded run counts by engine across every slot."""
        out: Dict[str, int] = {}
        for slot in self._slots.values():
            for engine, n in slot["engines"].items():
                out[engine] = out.get(engine, 0) + n
        return out

    def to_summary(self) -> Dict[str, Any]:
        """The JSON document the CLI and report renderers consume."""
        workloads: Dict[str, Dict[str, Any]] = {}
        tot_causes: Dict[str, int] = {}
        tot_commits = 0
        tot_runs = 0
        tot_stalled = 0
        for (workload, config) in sorted(self._slots):
            slot = self._slots[(workload, config)]
            acc: ArchAccumulator = slot["acc"]
            workloads.setdefault(workload, {})[config] = {
                "runs_by_engine": dict(sorted(slot["engines"].items())),
                "stalled": slot["stalled"],
                "commits": acc.commits,
                "causes": dict(sorted(acc.causes.items())),
                "checkpoint_cycles_by_cause": dict(
                    sorted(acc.ckpt_cycles_by_cause.items())
                ),
                "occ_commit": {
                    b: list(acc.occ_commit[b]) for b in BUFFERS
                },
                "occ_peak": _peak_histograms(acc.sections),
                "sections_seen": len(acc.sections),
                "sections_dropped": acc.sections_dropped,
                "hazards_top": [
                    {"waddr": f"{waddr:#x}", "cause": cause, "count": n}
                    for (waddr, cause), n in sorted(
                        acc.hazards.items(),
                        key=lambda kv: (-kv[1], kv[0]),
                    )
                ],
                "hazards_dropped": acc.hazards_dropped,
                "section_accesses": acc.section_accesses,
                "section_cycles": acc.section_cycles,
            }
            for cause, n in acc.causes.items():
                tot_causes[cause] = tot_causes.get(cause, 0) + n
            tot_commits += acc.commits
            tot_runs += sum(slot["engines"].values())
            tot_stalled += slot["stalled"]
        return {
            "schema": SCHEMA,
            "workloads": workloads,
            "totals": {
                "causes": dict(sorted(tot_causes.items())),
                "commits": tot_commits,
                "runs": tot_runs,
                "runs_by_engine": dict(sorted(self.run_totals().items())),
                "stalled": tot_stalled,
            },
        }


def _peak_histograms(
    sections: Dict[int, Tuple[int, int, int, int]]
) -> Dict[str, List[int]]:
    """Per-buffer peak-occupancy histograms over the distinct static
    sections seen (one count per section, not per commit)."""
    hists = {b: [0] * HIST_BINS for b in BUFFERS}
    for peaks in sections.values():
        for b, v in zip(BUFFERS, peaks):
            hists[b][_bin(v)] += 1
    return hists


#: The process-wide collector; disabled unless a sweep opts in.
COLLECTOR = ArchCollector()


# --------------------------------------------------------------------- #
# The recorder seam: build the same statistics from the event stream.
# --------------------------------------------------------------------- #


class ArchRecorder(Recorder):
    """Builds an :class:`ArchAccumulator` from the per-access event stream.

    The reference simulator emits a ``SectionClosed`` (carrying the
    commit-instant occupancy snapshot and hazard address) immediately
    followed by its ``CheckpointCommitted``; pairing the two reproduces
    exactly what the engines fold directly.  Optionally tees every event
    to an ``inner`` recorder.
    """

    def __init__(self, inner: Optional[Recorder] = None):
        self.acc = ArchAccumulator()
        self.inner = inner
        self._pending = None

    def emit(self, event: Event) -> None:
        if self.inner is not None:
            self.inner.emit(event)
        kind = event.kind
        if kind == "section_closed":
            self._pending = event
        elif kind == "checkpoint_committed":
            sc = self._pending
            self._pending = None
            if sc is not None and sc.cause == event.cause:
                self.acc.record_commit(
                    event.cause,
                    (sc.occ_rf, sc.occ_wf, sc.occ_wbb, sc.occ_apb),
                    sc.hazard_waddr,
                    sc.accesses,
                    sc.cycles,
                    event.cycles,
                )
            else:
                self.acc.record_commit(
                    event.cause, (0, 0, 0, 0), None, 0, 0, event.cycles
                )

    def close(self) -> None:
        if self.inner is not None:
            self.inner.close()


def accumulate_events(events: Iterable[Event]) -> ArchAccumulator:
    """Fold an event stream (e.g. a JSONL log written by a run with a
    recorder attached) into an accumulator, same pairing as
    :class:`ArchRecorder`."""
    rec = ArchRecorder()
    for event in events:
        rec.emit(event)
    return rec.acc


def summary_from_accumulator(
    acc: ArchAccumulator, workload: str, config: str
) -> Dict[str, Any]:
    """Wrap a lone accumulator as a one-slot summary document."""
    collector = ArchCollector()
    collector.enable()
    collector.fold_run(workload, config, acc, "events")
    return collector.to_summary()


# --------------------------------------------------------------------- #
# Rendering.
# --------------------------------------------------------------------- #


def _hist_stats(hist: List[int]) -> Dict[str, Any]:
    """count / mean / p50 / p95 / max of a fixed-width histogram; the
    overflow bin reports as ``"64+"``."""
    total = sum(hist)
    if not total:
        return {"count": 0, "mean": 0.0, "p50": 0, "p95": 0, "max": 0}
    mean = sum(i * n for i, n in enumerate(hist)) / total
    mx = max(i for i, n in enumerate(hist) if n)
    # Rehydrate a metrics.Histogram over the unit-width bins 0..63 (the
    # last slot is its overflow bin) so the percentile walk is the one
    # shared Histogram.percentile implementation; unit bounds make the
    # returned bound the exact integer value, and a quantile landing in
    # the overflow bin reports the tracked max (= HIST_BINS-1 here).
    h = Histogram(range(HIST_BINS - 1))
    h.counts = list(hist)
    h.count = total
    h.max = mx
    label = lambda v: f"{HIST_BINS - 1}+" if v == HIST_BINS - 1 else int(v)
    return {
        "count": total,
        "mean": round(mean, 2),
        "p50": label(h.percentile(0.50)),
        "p95": label(h.percentile(0.95)),
        "max": label(mx),
    }


def _iter_slots(summary: Dict[str, Any]):
    for workload in sorted(summary.get("workloads", {})):
        configs = summary["workloads"][workload]
        for config in sorted(configs):
            yield workload, config, configs[config]


def render_text(summary: Dict[str, Any], top: int = 10) -> str:
    """Aligned text report over an analyze summary document."""
    totals = summary.get("totals", {})
    lines = [
        f"architecture report — {totals.get('commits', 0)} commits over "
        f"{totals.get('runs', 0)} runs"
    ]
    engines = totals.get("runs_by_engine", {})
    if engines:
        mix = "  ".join(f"{k}={v}" for k, v in sorted(engines.items()))
        lines.append(f"   engine mix: {mix}")
    if totals.get("stalled"):
        lines.append(f"   ({totals['stalled']} runs ended in a stall abort)")
    causes = totals.get("causes", {})
    if causes:
        lines.append("-- checkpoint causes (all workloads)")
        total_c = sum(causes.values())
        for cause, n in sorted(causes.items(), key=lambda kv: (-kv[1], kv[0])):
            share = n / total_c if total_c else 0.0
            lines.append(f"   {cause:<16s} {n:9d}  {share:6.1%}")

    for workload, config, slot in _iter_slots(summary):
        commits = slot.get("commits", 0)
        lines.append(f"-- {workload} [{config}] — {commits} commits")
        engines = slot.get("runs_by_engine", {})
        bits = [f"{k}={v}" for k, v in sorted(engines.items())]
        if slot.get("stalled"):
            bits.append(f"stalled={slot['stalled']}")
        if bits:
            lines.append("   runs: " + "  ".join(bits))
        sc = slot.get("causes", {})
        cyc = slot.get("checkpoint_cycles_by_cause", {})
        for cause, n in sorted(sc.items(), key=lambda kv: (-kv[1], kv[0])):
            share = n / commits if commits else 0.0
            lines.append(
                f"   {cause:<16s} {n:9d}  {share:6.1%}  "
                f"ckpt cycles {cyc.get(cause, 0)}"
            )
        occ = slot.get("occ_commit", {})
        peak = slot.get("occ_peak", {})
        if any(sum(occ.get(b, ())) for b in BUFFERS):
            lines.append(
                "   occupancy (at commit | section peak) "
                "mean / p50 / p95 / max:"
            )
            for b in BUFFERS:
                c = _hist_stats(occ.get(b, []))
                p = _hist_stats(peak.get(b, []))
                lines.append(
                    f"      {b:<4s} {c['mean']:6.2f} / {c['p50']} / "
                    f"{c['p95']} / {c['max']:<4} | "
                    f"{p['mean']:6.2f} / {p['p50']} / {p['p95']} / {p['max']}"
                )
        hazards = slot.get("hazards_top", [])
        if hazards:
            shown = hazards[:top]
            lines.append(f"   hazard addresses (top {len(shown)}"
                         + (f", {slot['hazards_dropped']} dropped)"
                            if slot.get("hazards_dropped") else ")"))
            for h in shown:
                lines.append(
                    f"      {h['waddr']:<12s} {h['cause']:<14s} "
                    f"{h['count']:7d}"
                )
        if commits and slot.get("section_accesses"):
            lines.append(
                f"   sections: {slot.get('sections_seen', 0)} distinct"
                + (f" ({slot['sections_dropped']} dropped)"
                   if slot.get("sections_dropped") else "")
                + f", avg {slot['section_accesses'] / commits:.1f} accesses"
                  f" / {slot['section_cycles'] / commits:.1f} cycles"
                  f" per commit"
            )
    return "\n".join(lines)


def render_html_fragment(summary: Dict[str, Any], top: int = 10) -> str:
    """Body-only HTML fragment (embedded by :mod:`repro.obs.report`).

    Every workload/config/cause string passes through ``html.escape``.
    """
    # Imported here: repro.obs.report imports this module.
    from repro.obs.report import html_table as _table

    totals = summary.get("totals", {})
    parts = [
        f"<p class='meta'>{totals.get('commits', 0)} commits over "
        f"{totals.get('runs', 0)} runs"
        + (f" &middot; {totals['stalled']} stalled"
           if totals.get("stalled") else "")
        + "</p>"
    ]
    causes = totals.get("causes", {})
    if causes:
        total_c = sum(causes.values())
        rows = [
            [cause, n, f"{(n / total_c if total_c else 0.0):.1%}"]
            for cause, n in sorted(
                causes.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        parts.append("<h3>Checkpoint causes (all workloads)</h3>")
        parts.append(_table(["cause", "commits", "share"], rows,
                            numeric=(1, 2)))
    for workload, config, slot in _iter_slots(summary):
        commits = slot.get("commits", 0)
        parts.append(
            f"<h3>{_html.escape(workload)} "
            f"[{_html.escape(config)}] &mdash; {commits} commits</h3>"
        )
        engines = slot.get("runs_by_engine", {})
        bits = [f"{_html.escape(str(k))}={v}"
                for k, v in sorted(engines.items())]
        if slot.get("stalled"):
            bits.append(f"stalled={slot['stalled']}")
        if bits:
            parts.append(f"<p class='meta'>runs: {' &middot; '.join(bits)}"
                         f"</p>")
        sc = slot.get("causes", {})
        cyc = slot.get("checkpoint_cycles_by_cause", {})
        rows = [
            [cause, n,
             f"{(n / commits if commits else 0.0):.1%}",
             cyc.get(cause, 0)]
            for cause, n in sorted(
                sc.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        parts.append(_table(
            ["cause", "commits", "share", "checkpoint cycles"],
            rows, numeric=(1, 2, 3)))
        occ = slot.get("occ_commit", {})
        peak = slot.get("occ_peak", {})
        if any(sum(occ.get(b, ())) for b in BUFFERS):
            rows = []
            for b in BUFFERS:
                c = _hist_stats(occ.get(b, []))
                p = _hist_stats(peak.get(b, []))
                rows.append([
                    b, c["mean"], c["p50"], c["p95"], c["max"],
                    p["mean"], p["p50"], p["p95"], p["max"],
                ])
            parts.append("<h3>Buffer occupancy</h3>")
            parts.append(_table(
                ["buffer", "commit mean", "p50", "p95", "max",
                 "peak mean", "p50", "p95", "max"],
                rows, numeric=tuple(range(1, 9))))
        hazards = slot.get("hazards_top", [])
        if hazards:
            shown = hazards[:top]
            parts.append(
                f"<h3>Hazard addresses (top {len(shown)}"
                + (f", {slot['hazards_dropped']} dropped"
                   if slot.get("hazards_dropped") else "")
                + ")</h3>")
            rows = [[h["waddr"], h["cause"], h["count"]] for h in shown]
            parts.append(_table(["address", "cause", "count"], rows,
                                numeric=(2,)))
    return "".join(parts)


def render_html(summary: Dict[str, Any], top: int = 10) -> str:
    """Single-file static HTML architecture report."""
    from repro.obs.report import HTML_STYLE

    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        "<title>architecture report</title>"
        f"<style>{HTML_STYLE}</style></head><body>"
        "<h1>Architecture report</h1>"
        + render_html_fragment(summary, top=top)
        + "</body></html>"
    )


# --------------------------------------------------------------------- #
# CLI.
# --------------------------------------------------------------------- #


def load_summary(path: str) -> Dict[str, Any]:
    """Load an analyze input: a summary JSON written by ``repro.eval
    --arch``, or a JSONL event log (accumulated on the fly)."""
    with open(path, "r", encoding="utf-8") as fh:
        first = ""
        for line in fh:
            first = line.strip()
            if first:
                break
    try:
        head = json.loads(first) if first else None
    except json.JSONDecodeError:
        head = None
    if isinstance(head, dict) and head.get("kind"):
        from repro.obs.recorder import read_events

        acc = accumulate_events(read_events(path))
        return summary_from_accumulator(acc, "<events>", path)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: not an analyze summary (expected schema {SCHEMA!r}) "
            f"or event log"
        )
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.analyze",
        description="Render per-section architectural statistics "
                    "(occupancy, hazards, cause attribution).",
    )
    parser.add_argument(
        "input",
        help="analyze summary JSON (repro.eval --arch PATH) or a JSONL "
             "event log from a run with a recorder attached",
    )
    parser.add_argument("--html", metavar="PATH", default=None,
                        help="also write a static HTML report to PATH")
    parser.add_argument("--json", action="store_true",
                        help="print the summary document instead of the "
                             "text report")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="hazard addresses to list per workload "
                             "(default 10)")
    args = parser.parse_args(argv)

    try:
        summary = load_summary(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(render_text(summary, top=args.top))
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_html(summary, top=args.top) + "\n")
        print(f"[architecture report written to {args.html}]",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
