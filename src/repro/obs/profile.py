"""Wall-clock profiling of the experiment drivers.

The sweep drivers (Figures 5-8, Tables 1-4) replay cached traces through
thousands of simulator runs; making them "as fast as the hardware allows"
starts with knowing where the time goes.  A :class:`Profiler` accumulates

* *phases* — wall-clock per experiment driver (``with PROFILER.phase("fig5")``),
* *simulator time* — per-workload time inside ``IntermittentSimulator.run()``
  (recorded by :func:`repro.eval.runner.run_clank`),

and renders both, plus the sweep counters of
:data:`repro.obs.metrics.COUNTERS` (dispatch mix, trace, section-map and
disk caches, family scans), as an aligned text table
(``results/profile.txt``).
"""

import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.obs.metrics import by_prefix


class Profiler:
    """Accumulates named wall-clock phases and per-workload simulator time."""

    def __init__(self) -> None:
        self.phases: Dict[str, float] = {}
        self.phase_calls: Dict[str, int] = {}
        self.sim_seconds: Dict[str, float] = {}
        self.sim_runs: Dict[str, int] = {}

    def reset(self) -> None:
        """Drop all accumulated data (tests and fresh CLI runs)."""
        self.phases.clear()
        self.phase_calls.clear()
        self.sim_seconds.clear()
        self.sim_runs.clear()

    @contextmanager
    def phase(self, name: str):
        """Time a block of work under ``name`` (accumulates across calls)."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            self.phases[name] = self.phases.get(name, 0.0) + elapsed
            self.phase_calls[name] = self.phase_calls.get(name, 0) + 1

    def record_sim(self, workload: str, seconds: float, runs: int = 1) -> None:
        """Account ``runs`` simulator runs of ``workload`` (a batched
        seed-repeat job reports all its rows in one call)."""
        self.sim_seconds[workload] = self.sim_seconds.get(workload, 0.0) + seconds
        self.sim_runs[workload] = self.sim_runs.get(workload, 0) + runs

    @property
    def total_sim_seconds(self) -> float:
        return sum(self.sim_seconds.values())

    @property
    def total_sim_runs(self) -> int:
        return sum(self.sim_runs.values())

    def table(self, counters: Optional[Dict[str, float]] = None,
              top: int = 10) -> str:
        """Aligned text profile: phases, top workloads, sweep counters.

        Args:
            counters: A :data:`repro.obs.metrics.COUNTERS` snapshot whose
                dispatch, trace-cache, section-map, family-scan and disk
                lines are rendered (none when omitted).
            top: Number of slowest workloads to list.
        """
        lines = ["run profile"]
        if self.phases:
            lines.append("-- experiment drivers (wall-clock)")
            total = sum(self.phases.values())
            for name, secs in sorted(self.phases.items(), key=lambda kv: -kv[1]):
                share = secs / total if total else 0.0
                lines.append(
                    f"   {name:<20s} {secs:9.3f}s  {share:6.1%}  "
                    f"({self.phase_calls[name]} run"
                    f"{'s' if self.phase_calls[name] != 1 else ''})"
                )
            lines.append(f"   {'total':<20s} {total:9.3f}s")
        if self.sim_seconds:
            lines.append(
                f"-- simulator time by workload "
                f"({self.total_sim_runs} runs, {self.total_sim_seconds:.3f}s total)"
            )
            ranked = sorted(self.sim_seconds.items(), key=lambda kv: -kv[1])
            for name, secs in ranked[:top]:
                runs = self.sim_runs[name]
                lines.append(
                    f"   {name:<20s} {secs:9.3f}s  {runs:6d} runs  "
                    f"{1000.0 * secs / runs:8.2f} ms/run"
                )
            if len(ranked) > top:
                rest = sum(secs for _, secs in ranked[top:])
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
    if hits or misses:
        rate = hits / (hits + misses)
        warm_disk = min(get("sections.disk_loads", 0), misses)
        lines.append(
            f"-- section maps: {hits} hits / {misses} misses "
            f"({rate:.1%} hit rate); {hits} warm from memory, "
            f"{warm_disk} warm from disk, {misses - warm_disk} cold"
            + (f"; {evictions} evictions" if evictions else "")
            + (f", {rebuilds} rebuilds" if rebuilds else "")
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
