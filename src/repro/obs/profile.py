"""Wall-clock profiling of the experiment drivers.

The sweep drivers (Figures 5-8, Tables 1-4) replay cached traces through
thousands of simulator runs; making them "as fast as the hardware allows"
starts with knowing where the time goes.  :meth:`Profiler.phase` is the
one driver clock (``with PROFILER.phase("fig5")``): it appends a
``{"name", "t0", "t1"}`` mark on the run ledger's timebase and opens the
``driver NAME`` tracer span.  The marks feed the ledger's ``driver``
lines, the eval CLI's ``[NAME completed in Xs]`` line and
``BENCH_sweep.json``'s per-driver seconds, and :meth:`Profiler.table`
renders them with

* *simulator time by workload* — Σ ``wall_s`` and Σ ``rows`` of the run
  ledger's records (:data:`repro.obs.telemetry.LEDGER`), the one per-run
  timer, and
* the sweep counters of :data:`repro.obs.metrics.COUNTERS` (dispatch
  mix, trace, section-map and disk caches, family scans),

as an aligned text table (``results/profile.txt``).
"""

from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

from repro.obs.metrics import by_prefix
from repro.obs.telemetry import LEDGER


class Profiler:
    """Driver phase marks, in the order the phases ran."""

    def __init__(self) -> None:
        self.marks: List[dict] = []

    def reset(self) -> None:
        """Drop all marks (tests and fresh CLI runs)."""
        self.marks.clear()

    @contextmanager
    def phase(self, name: str):
        """Time a driver under ``name``: one mark, stamped with
        :meth:`~repro.obs.telemetry.RunLedger.now` so it shares the
        records' ``t_start`` timebase, plus a ``driver NAME`` span."""
        # Imported here: the package __init__ imports this module, and
        # ``python -m repro.obs.tracing`` must not find tracing loaded.
        from repro.obs.tracing import TRACER

        mark = {"name": name, "t0": LEDGER.now(), "t1": None}
        try:
            with TRACER.span(f"driver {name}"):
                yield self
        finally:
            mark["t1"] = LEDGER.now()
            self.marks.append(mark)

    def table(self, counters: Optional[Dict[str, float]] = None,
              records: Iterable = (), top: int = 10) -> str:
        """Aligned text profile: phases, top workloads, sweep counters.

        Args:
            counters: A :data:`repro.obs.metrics.COUNTERS` snapshot whose
                dispatch, trace-cache, section-map, family-scan and disk
                lines are rendered (none when omitted).
            records: Run-ledger records (``LEDGER.records``) whose wall
                times and rows make the per-workload simulator section
                (none when empty).
            top: Number of slowest workloads to list.
        """
        lines = ["run profile"]
        phases: Dict[str, list] = {}
        for mark in self.marks:
            acc = phases.setdefault(mark["name"], [0.0, 0])
            acc[0] += mark["t1"] - mark["t0"]
            acc[1] += 1
        if phases:
            lines.append("-- experiment drivers (wall-clock)")
            total = sum(secs for secs, _ in phases.values())
            for name, (secs, calls) in sorted(phases.items(),
                                              key=lambda kv: -kv[1][0]):
                share = secs / total if total else 0.0
                lines.append(
                    f"   {name:<20s} {secs:9.3f}s  {share:6.1%}  "
                    f"({calls} run{'s' if calls != 1 else ''})"
                )
            lines.append(f"   {'total':<20s} {total:9.3f}s")
        sim: Dict[str, list] = {}
        for rec in records:
            acc = sim.setdefault(rec.workload, [0.0, 0])
            acc[0] += rec.wall_s
            acc[1] += rec.rows
        if sim:
            total_secs = sum(secs for secs, _ in sim.values())
            total_runs = sum(runs for _, runs in sim.values())
            lines.append(
                f"-- simulator time by workload "
                f"({total_runs} runs, {total_secs:.3f}s total)"
            )
            ranked = sorted(sim.items(), key=lambda kv: -kv[1][0])
            for name, (secs, runs) in ranked[:top]:
                lines.append(
                    f"   {name:<20s} {secs:9.3f}s  {runs:6d} runs  "
                    f"{1000.0 * secs / runs:8.2f} ms/run"
                )
            if len(ranked) > top:
                rest = sum(secs for _, (secs, _) in ranked[top:])
                lines.append(
                    f"   ({len(ranked) - top} more workloads, {rest:.3f}s)"
                )
        if counters is not None:
            lines.extend(_counter_lines(counters))
        return "\n".join(lines)


def _counter_lines(counters: Dict[str, float]) -> List[str]:
    """Dispatch, trace-cache, section-map, family-scan and disk-cache
    lines from a :data:`repro.obs.metrics.COUNTERS` snapshot."""
    get = counters.get
    lines = []
    fast = get("dispatch.fast", 0)
    reasons = by_prefix(counters, "dispatch.reasons.")
    fallback = sum(reasons.values())
    if fast or fallback:
        lines.append(
            f"-- fast-path dispatch: {fast} fast / {fallback} fallback "
            f"({fast / (fast + fallback):.1%} fast)"
        )
        if fallback:
            ranked = sorted(reasons.items(), key=lambda kv: -kv[1])
            lines.append(
                "   fallback reasons: "
                + ", ".join(f"{reason} {n}" for reason, n in ranked)
            )
    hits, misses = get("traces.hits", 0), get("traces.misses", 0)
    rate = hits / (hits + misses) if hits + misses else 0.0
    lines.append(
        f"-- trace cache: {hits} hits / {misses} misses "
        f"({rate:.1%} hit rate)"
    )
    hits, misses = get("sections.hits", 0), get("sections.misses", 0)
    evictions = get("sections.evictions", 0)
    rebuilds = get("sections.rebuilds", 0)
    table_bytes = get("sections.table_bytes", 0)
    if hits or misses:
        rate = hits / (hits + misses)
        lines.append(
            f"-- section maps: {hits} hits / {misses} misses "
            f"({rate:.1%} hit rate); {hits} warm from memory, "
            f"{misses} cold"
            + (f"; {evictions} evictions" if evictions else "")
            + (f", {rebuilds} rebuilds" if rebuilds else "")
            + (
                f"; {get('sections.tables_shared', 0)} tables shared, "
                f"{table_bytes / 1e6:.1f} MB distinct" if table_bytes else ""
            )
        )
        if misses and rebuilds > 0.1 * misses:
            # Rebuilds are misses whose key was evicted earlier: the
            # LRU is cycling the sweep's working set instead of
            # holding it (first-touch cold builds don't count).
            from repro.sim import sections

            lines.append(
                "   WARNING: section-map LRU thrash — "
                f"{rebuilds} of {misses} builds re-enumerated "
                "evicted maps; the sweep's (trace, config) working "
                "set exceeds the cache capacity "
                f"({sections.cache_stats()['capacity']} maps).  "
                "Raise REPRO_SECTIONMAP_LRU."
            )
    family_maps = get("sections.family_maps", 0)
    if family_maps:
        passes = get("sections.family_passes", 0)
        lines.append(
            f"-- family scans: {family_maps} maps in {passes} trace passes "
            f"({family_maps / max(passes, 1):.1f} maps/pass); "
            f"{max(misses - family_maps, 0)} built scalar"
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
            f"(chain/family scans inside section-map builds)"
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
    return lines


#: Process-wide profiler the eval drivers share.
PROFILER = Profiler()
