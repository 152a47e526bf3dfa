"""Wall-clock profiling of the experiment drivers.

The sweep drivers (Figures 5-8, Tables 1-4) replay cached traces through
thousands of simulator runs; making them "as fast as the hardware allows"
starts with knowing where the time goes.  A :class:`Profiler` accumulates

* *phases* — wall-clock per experiment driver (``with PROFILER.phase("fig5")``),
* *simulator time* — per-workload time inside ``IntermittentSimulator.run()``
  (recorded by :func:`repro.eval.runner.run_clank`),

and renders both, plus the trace-cache hit/miss counts from
:mod:`repro.workloads.cache`, as an aligned text table
(``results/profile.txt``).
"""

import time
from contextlib import contextmanager
from typing import Dict, Optional


class Profiler:
    """Accumulates named wall-clock phases and per-workload simulator time."""

    def __init__(self) -> None:
        self.phases: Dict[str, float] = {}
        self.phase_calls: Dict[str, int] = {}
        self.sim_seconds: Dict[str, float] = {}
        self.sim_runs: Dict[str, int] = {}
        self.worker_cache_hits = 0
        self.worker_cache_misses = 0
        self.section_cache_hits = 0
        self.section_cache_misses = 0
        self.section_cache_evictions = 0
        self.section_disk_loads = 0
        self.section_enum_seconds = 0.0
        self.section_rebuilds = 0
        self.family_passes = 0
        self.family_maps = 0
        self.family_by_trace: Dict[str, int] = {}
        self.disk_cache_hits = 0
        self.disk_cache_misses = 0
        self.disk_cache_puts = 0
        self.disk_cache_evictions = 0
        self.dispatch_fast = 0
        self.dispatch_reasons: Dict[str, int] = {}

    def reset(self) -> None:
        """Drop all accumulated data (tests and fresh CLI runs)."""
        self.phases.clear()
        self.phase_calls.clear()
        self.sim_seconds.clear()
        self.sim_runs.clear()
        self.worker_cache_hits = 0
        self.worker_cache_misses = 0
        self.section_cache_hits = 0
        self.section_cache_misses = 0
        self.section_cache_evictions = 0
        self.section_disk_loads = 0
        self.section_enum_seconds = 0.0
        self.section_rebuilds = 0
        self.family_passes = 0
        self.family_maps = 0
        self.family_by_trace.clear()
        self.disk_cache_hits = 0
        self.disk_cache_misses = 0
        self.disk_cache_puts = 0
        self.disk_cache_evictions = 0
        self.dispatch_fast = 0
        self.dispatch_reasons.clear()

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

    def record_worker_cache(self, hits: int, misses: int) -> None:
        """Merge one parallel worker job's trace-cache hit/miss deltas
        (:func:`repro.eval.parallel.run_jobs` reports them per payload;
        worker processes cannot touch the parent's cache counters)."""
        self.worker_cache_hits += hits
        self.worker_cache_misses += misses

    def record_section_cache(
        self,
        hits: int,
        misses: int,
        enum_seconds: float = 0.0,
        evictions: int = 0,
        disk_loads: int = 0,
        rebuilds: int = 0,
        family_passes: int = 0,
        family_maps: int = 0,
        family_by_trace: Optional[Dict[str, int]] = None,
    ) -> None:
        """Merge SectionMap cache deltas (the fast replay path of
        :mod:`repro.sim.sections`) — from parallel worker payloads, or from
        the in-process counters after a serial sweep.  ``disk_loads`` counts
        section maps rebuilt from the persistent artifact cache
        rather than enumerated, so the table can split "warm from memory" /
        "warm from disk" / "cold".  ``rebuilds`` counts misses whose key
        was evicted earlier (real LRU thrash, as opposed to first-touch
        cold builds); the ``family_*`` arguments surface config-family
        chain-scan amortization per trace."""
        self.section_cache_hits += hits
        self.section_cache_misses += misses
        self.section_enum_seconds += enum_seconds
        self.section_cache_evictions += evictions
        self.section_disk_loads += disk_loads
        self.section_rebuilds += rebuilds
        self.family_passes += family_passes
        self.family_maps += family_maps
        for name, n in (family_by_trace or {}).items():
            self.family_by_trace[name] = self.family_by_trace.get(name, 0) + n

    def record_disk_cache(
        self, hits: int, misses: int, puts: int = 0, evictions: int = 0
    ) -> None:
        """Merge persistent artifact-cache (:mod:`repro.cache`) counters,
        from this process or a worker payload."""
        self.disk_cache_hits += hits
        self.disk_cache_misses += misses
        self.disk_cache_puts += puts
        self.disk_cache_evictions += evictions

    def record_dispatch(self, stats: dict) -> None:
        """Merge fast-path dispatch counts with their per-reason fallback
        breakdown (:func:`repro.sim.fast.dispatch_stats`; parallel worker
        deltas are already folded in by ``run_jobs``)."""
        self.dispatch_fast += stats.get("fast", 0)
        for reason, count in stats.get("reasons", {}).items():
            if count:
                self.dispatch_reasons[reason] = (
                    self.dispatch_reasons.get(reason, 0) + count
                )

    @property
    def total_sim_seconds(self) -> float:
        return sum(self.sim_seconds.values())

    @property
    def total_sim_runs(self) -> int:
        return sum(self.sim_runs.values())

    def table(self, cache_stats: Optional[dict] = None, top: int = 10) -> str:
        """Aligned text profile: phases, top workloads, cache hit rate.

        Args:
            cache_stats: ``{"hits": int, "misses": int}`` from
                :func:`repro.workloads.cache.cache_stats`.
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
        fallback = sum(self.dispatch_reasons.values())
        if self.dispatch_fast or fallback:
            total = self.dispatch_fast + fallback
            lines.append(
                f"-- fast-path dispatch: {self.dispatch_fast} fast / "
                f"{fallback} fallback "
                f"({self.dispatch_fast / total:.1%} fast)"
            )
            if fallback:
                ranked = sorted(
                    self.dispatch_reasons.items(), key=lambda kv: -kv[1]
                )
                lines.append(
                    "   fallback reasons: "
                    + ", ".join(f"{reason} {n}" for reason, n in ranked)
                )
        if cache_stats is not None:
            hits = cache_stats.get("hits", 0)
            misses = cache_stats.get("misses", 0)
            total = hits + misses
            rate = hits / total if total else 0.0
            lines.append(
                f"-- trace cache: {hits} hits / {misses} misses "
                f"({rate:.1%} hit rate)"
            )
        if self.worker_cache_hits or self.worker_cache_misses:
            total = self.worker_cache_hits + self.worker_cache_misses
            rate = self.worker_cache_hits / total if total else 0.0
            lines.append(
                f"-- worker trace caches: {self.worker_cache_hits} hits / "
                f"{self.worker_cache_misses} misses ({rate:.1%} hit rate)"
            )
        if self.section_cache_hits or self.section_cache_misses:
            total = self.section_cache_hits + self.section_cache_misses
            rate = self.section_cache_hits / total if total else 0.0
            warm_disk = min(self.section_disk_loads, self.section_cache_misses)
            cold = self.section_cache_misses - warm_disk
            lines.append(
                f"-- section maps: {self.section_cache_hits} hits / "
                f"{self.section_cache_misses} misses ({rate:.1%} hit rate); "
                f"{self.section_cache_hits} warm from memory, "
                f"{warm_disk} warm from disk, {cold} cold"
                + (f"; {self.section_cache_evictions} evictions"
                   if self.section_cache_evictions else "")
                + (f", {self.section_rebuilds} rebuilds"
                   if self.section_rebuilds else "")
            )
            if (self.section_cache_misses
                    and self.section_rebuilds
                    > 0.1 * self.section_cache_misses):
                # Rebuilds are misses whose key was evicted earlier: the
                # LRU is cycling the sweep's working set instead of
                # holding it (first-touch cold builds don't count).
                from repro.sim import sections

                lines.append(
                    "   WARNING: section-map LRU thrash — "
                    f"{self.section_rebuilds} of "
                    f"{self.section_cache_misses} builds re-enumerated "
                    "evicted maps; the sweep's (trace, config) working "
                    "set exceeds the cache capacity "
                    f"({sections.cache_stats()['capacity']} maps).  "
                    "Raise REPRO_SECTIONMAP_LRU."
                )
        if self.family_maps:
            scalar = max(self.section_cache_misses - self.family_maps, 0)
            lines.append(
                f"-- family scans: {self.family_maps} maps in "
                f"{self.family_passes} trace passes "
                f"({self.family_maps / max(self.family_passes, 1):.1f} "
                f"maps/pass); {scalar} built scalar"
            )
            ranked = sorted(
                self.family_by_trace.items(), key=lambda kv: (-kv[1], kv[0])
            )
            if ranked:
                shown = ", ".join(f"{name} {n}" for name, n in ranked[:6])
                more = (
                    f" (+{len(ranked) - 6} more traces)"
                    if len(ranked) > 6 else ""
                )
                lines.append(f"   by trace: {shown}{more}")
        if self.section_enum_seconds:
            lines.append(
                f"-- section enumeration: {self.section_enum_seconds:9.3f}s "
                f"(chain/family scans inside section-map builds)"
            )
        if (self.disk_cache_hits or self.disk_cache_misses
                or self.disk_cache_puts):
            total = self.disk_cache_hits + self.disk_cache_misses
            rate = self.disk_cache_hits / total if total else 0.0
            lines.append(
                f"-- artifact cache (disk): {self.disk_cache_hits} hits / "
                f"{self.disk_cache_misses} misses ({rate:.1%} hit rate), "
                f"{self.disk_cache_puts} puts, "
                f"{self.disk_cache_evictions} evictions"
            )
        return "\n".join(lines)


#: Process-wide profiler the eval drivers share.
PROFILER = Profiler()
