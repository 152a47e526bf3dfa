"""Persistent artifact cache: robustness contract + warm equivalence.

Exercises the contract documented in :mod:`repro.cache.store`:
corrupted entries load as misses and are repaired, eviction respects
the size cap, a sweep's writers never leave partial files, and a
disabled or unwritable store degrades silently.  On top
of the store, the integration layers are checked end-to-end: a
SectionMap warm-loaded from disk answers bit-identically, and the
whole-result cache round-trips (with the ``--verify`` exclusion and
the ``"stalled"`` sentinel).
"""

import itertools
import os
import pickle
import shutil
from array import array

import pytest

import repro.cache as artifact_cache
from repro.cache.store import CacheStore, _EVICT_CHECK_INTERVAL
from repro.eval.parallel import SimJob, execute_job, run_jobs
from repro.eval.settings import EvalSettings
from repro.obs.metrics import COUNTERS
from repro.core import cext
from repro.core.config import ClankConfig
from repro.power.schedules import ExponentialPower
from repro.sim import sections
from repro.sim.fast import simulate_fast
from repro.sim.sections import SectionMap, VARIANT_NORMAL
from repro.workloads.cache import get_trace
from repro.workloads.registry import get_workload

QUICK = EvalSettings(size="small", sweep_size="tiny", seed=2)


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch):
    """Every test resolves its own store and leaves no global state."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
    artifact_cache.reset_for_tests()
    sections.clear_cache()
    yield
    sections.clear_cache()
    artifact_cache.reset_for_tests()
    COUNTERS.reset()


def _enable(monkeypatch, tmp_path, max_mb=None):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    if max_mb is not None:
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", str(max_mb))
    artifact_cache.reset_for_tests()
    st = artifact_cache.store()
    assert st is not None
    return st


def _walk(smap):
    """Materialize the failure-free chain from (0, NORMAL)."""
    from repro.sim.sections import (
        SEC_FORCED, SEC_OUTPUT, SEC_TEXT, VARIANT_DIRECT,
        VARIANT_FORCED_DONE,
    )

    out = []
    s, v = 0, VARIANT_NORMAL
    while s < smap.n:
        sec = smap.section(s, v)
        out.append(((s, v), sec))
        end, _, kind, _ = sec
        if end >= smap.n:
            break
        if kind == SEC_FORCED:
            s, v = end, VARIANT_FORCED_DONE
        elif kind == SEC_TEXT:
            s, v = end, VARIANT_DIRECT
        else:
            s, v = (end + 1 if kind == SEC_OUTPUT else end), VARIANT_NORMAL
    return out


class TestStoreBasics:
    def test_round_trip_and_stats(self, tmp_path):
        st = CacheStore(str(tmp_path), 1 << 30)
        assert st.get("k", "ab" * 32) is None
        assert st.put("k", "ab" * 32, {"x": (1, 2)})
        assert st.get("k", "ab" * 32) == {"x": (1, 2)}
        assert st.stats() == {
            "hits": 1, "misses": 1, "puts": 1, "evictions": 0, "errors": 0,
            "remote_hits": 0, "remote_misses": 0, "remote_errors": 0,
        }

    def test_content_key_is_deterministic_and_versioned(self):
        a = artifact_cache.content_key("sections", "h", (1, 2))
        assert a == artifact_cache.content_key("sections", "h", (1, 2))
        assert a != artifact_cache.content_key("sections", "h", (1, 3))
        assert a != artifact_cache.content_key("result", "h", (1, 2))

    def test_disabled_without_env(self):
        assert artifact_cache.store() is None
        artifact_cache.persist_caches()  # must no-op, not raise

    def test_blank_env_is_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "   ")
        artifact_cache.reset_for_tests()
        assert artifact_cache.store() is None

    def test_counters_exact_under_thread_hammer(self, tmp_path):
        """The sweep server's event loop and bridge thread bump one
        store's counters concurrently; the stats lock must keep them exact
        (bare ``+=`` on the attributes loses updates under the GIL)."""
        import threading

        st = CacheStore(str(tmp_path), 1 << 30)
        st.put("k", "ab" * 32, {"seed": 1})
        st.reset_counters()
        n_threads, n_ops = 8, 300

        def hammer(slot):
            for i in range(n_ops):
                st.get("k", "ab" * 32)                 # hit
                st.get("k", "cd" * 32)                 # miss
                st.put("k", f"{slot:02x}{i:04x}" * 8 + "ab" * 8,
                       {"slot": slot, "i": i})         # put

        threads = [threading.Thread(target=hammer, args=(s,))
                   for s in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = st.stats()
        assert snap["hits"] == n_threads * n_ops
        assert snap["misses"] == n_threads * n_ops
        assert snap["puts"] == n_threads * n_ops
        assert snap["errors"] == 0
        st.reset_counters()
        assert all(v == 0 for v in st.stats().values())


class TestCorruption:
    def test_corrupt_entry_is_a_miss_and_is_repaired(self, tmp_path):
        st = CacheStore(str(tmp_path), 1 << 30)
        key = "cd" * 32
        st.put("k", key, [1, 2, 3])
        path = st._path("k", key)
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        assert st.get("k", key) is None
        assert st.errors == 1
        assert not os.path.exists(path)  # deleted so a put repairs it
        st.put("k", key, [4])
        assert st.get("k", key) == [4]

    def test_truncated_entry_is_a_miss(self, tmp_path):
        st = CacheStore(str(tmp_path), 1 << 30)
        key = "ef" * 32
        st.put("k", key, list(range(1000)))
        path = st._path("k", key)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        assert st.get("k", key) is None
        assert st.errors == 1

    def test_corrupt_sections_entry_recomputes_identically(
        self, monkeypatch, tmp_path
    ):
        trace = get_trace("crc", size="small")
        from repro.core.config import ClankConfig

        config = ClankConfig.from_tuple((8, 4, 2, 2))
        ref = _walk(SectionMap(trace, config))  # cache off: ground truth
        sections.clear_cache()

        st = _enable(monkeypatch, tmp_path)
        smap = SectionMap(trace, config)
        _walk(smap)
        smap.persist()
        path = st._path("sections", smap._disk_key)
        assert os.path.exists(path)
        with open(path, "wb") as fh:
            fh.write(b"\x80corrupt")
        sections.clear_cache()
        again = SectionMap(trace, config)
        assert again._loaded_n == 0  # corrupt load fell back to cold
        assert _walk(again) == ref


class TestEviction:
    def test_eviction_respects_size_cap(self, tmp_path):
        cap = 64 * 1024
        st = CacheStore(str(tmp_path), cap)
        payload = b"x" * 4096
        for i in range(4 * _EVICT_CHECK_INTERVAL):
            st.put("k", ("%064x" % i), payload)
        assert st.evictions > 0
        total = sum(
            os.path.getsize(os.path.join(dp, f))
            for dp, _, fs in os.walk(str(tmp_path))
            for f in fs
        )
        assert total <= cap

    def test_get_freshens_recency(self, tmp_path):
        st = CacheStore(str(tmp_path), 1 << 30)
        key = "aa" * 32
        st.put("k", key, 1)
        path = st._path("k", key)
        os.utime(path, (0, 0))
        st.get("k", key)
        assert os.stat(path).st_mtime > 0

    def test_touch_reports_and_freshens(self, tmp_path):
        st = CacheStore(str(tmp_path), 1 << 30)
        key = "aa" * 32
        assert not st.touch("k", key)  # not stored
        st.put("k", key, 1)
        path = st._path("k", key)
        os.utime(path, (0, 0))
        assert st.touch("k", key)
        assert os.stat(path).st_mtime > 0

    def test_exclusive_put_has_one_writer(self, tmp_path):
        """Two processes' stores racing to put one content-addressed
        entry: the first writes it and counts the put, the second
        writes nothing; a plain put still overwrites."""
        first = CacheStore(str(tmp_path), 1 << 30)
        second = CacheStore(str(tmp_path), 1 << 30)
        key = "ab" * 32
        assert first.put("k", key, "first", exclusive=True)
        assert second.put("k", key, "second", exclusive=True)
        assert (first.puts, second.puts) == (1, 0)
        assert second.get("k", key) == "first"
        assert not [name for _, _, names in os.walk(tmp_path)
                    for name in names if name.endswith(".tmp")]
        assert second.put("k", key, "second")
        assert first.get("k", key) == "second"

    def test_store_max_mb_env(self, monkeypatch, tmp_path):
        st = _enable(monkeypatch, tmp_path, max_mb=1)
        assert st.max_bytes == 1024 * 1024


class TestDegradation:
    def test_unwritable_root_degrades_silently(self, tmp_path):
        # A plain file as the store root: every makedirs/mkstemp under
        # it fails, regardless of the uid running the tests.
        root = tmp_path / "not_a_dir"
        root.write_bytes(b"")
        st = CacheStore(str(root), 1 << 30)
        assert st.put("k", "ab" * 32, 1) is False
        assert not st._writable
        assert st.errors == 1
        # Further puts are silent no-ops; gets still answer (miss).
        assert st.put("k", "ab" * 32, 1) is False
        assert st.errors == 1
        assert st.get("k", "ab" * 32) is None

    def test_unpicklable_payload_degrades(self, tmp_path):
        st = CacheStore(str(tmp_path), 1 << 30)
        assert st.put("k", "ab" * 32, lambda: None) is False
        assert st.errors == 1
        # No temp litter from the failed write.
        leftovers = [
            f for dp, _, fs in os.walk(str(tmp_path)) for f in fs
        ]
        assert leftovers == []


class TestSectionMapWarmLoad:
    def test_warm_load_is_bit_identical(self, monkeypatch, tmp_path):
        trace = get_trace("crc", size="small")
        from repro.core.config import ClankConfig

        config = ClankConfig.from_tuple((8, 4, 2, 2))
        ref = _walk(SectionMap(trace, config))  # cache disabled
        sections.clear_cache()

        _enable(monkeypatch, tmp_path)
        cold = SectionMap(trace, config)
        assert cold._loaded_n == 0
        _walk(cold)
        artifact_cache.persist_caches()  # the registered flush hook
        sections.clear_cache()

        warm = SectionMap(trace, config)
        assert warm._loaded_n > 0
        assert _walk(warm) == ref

    def test_persist_skips_clean_maps(self, monkeypatch, tmp_path):
        trace = get_trace("crc", size="small")
        from repro.core.config import ClankConfig

        st = _enable(monkeypatch, tmp_path)
        smap = SectionMap(trace, ClankConfig.from_tuple((8, 4, 2, 2)))
        _walk(smap)
        smap.persist()
        puts = st.puts
        smap.persist()  # nothing new enumerated since the last flush
        assert st.puts == puts


#: A small fft family whose members reduce to several distinct tables.
_GRID = [ClankConfig.from_tuple(t) for t in itertools.product(
    (1, 8, 16), (0, 4), (0, 2), (0,))]


def _fresh_fft():
    """A trace no in-memory cache holds: its maps and table registry
    start empty, so anything warm comes from the store."""
    return get_workload("fft").build(size="small")


def _runs(trace):
    """Fast-path results over the grid, both watchdogs on."""
    return [
        simulate_fast(trace, cfg, ExponentialPower(700, seed=3),
                      verify=False, perf_watchdog="auto",
                      progress_watchdog="auto").to_dict()
        for cfg in _GRID
    ]


class TestSharedSectionTables:
    @pytest.fixture(autouse=True)
    def _kernel(self):
        if cext.chain_scan_lib() is None:
            pytest.skip("C kernel unavailable")

    def _populate(self, monkeypatch, tmp_path):
        ref = _runs(_fresh_fft())  # cache disabled
        sections.clear_cache()
        _enable(monkeypatch, tmp_path)
        sections.build_family(_fresh_fft(), _GRID)
        artifact_cache.persist_caches()
        sections.clear_cache()
        return ref

    def test_warm_maps_share_tables(self, monkeypatch, tmp_path):
        self._populate(monkeypatch, tmp_path)
        trace = _fresh_fft()
        maps = [sections.get_section_map(trace, cfg) for cfg in _GRID]
        assert all(m._flat is not None for m in maps)  # loaded warm
        groups = {}
        for m in maps:
            content = tuple(a.tobytes() for a in m._flat)
            groups.setdefault(content, []).append(m._flat)
        assert len(groups) > 1 and len(groups) < len(maps)
        for tables in groups.values():
            assert all(t is tables[0] for t in tables)
        # Each distinct table is stored once.
        stored = sum(len(files) for _d, _s, files
                     in os.walk(os.path.join(str(tmp_path), "section_tables")))
        assert stored == len(groups)

    @pytest.mark.parametrize("damage", ["evicted", "malformed"])
    def test_lost_table_is_a_clean_miss(self, monkeypatch, tmp_path,
                                        damage):
        ref = self._populate(monkeypatch, tmp_path)
        tables_dir = os.path.join(str(tmp_path), "section_tables")
        if damage == "evicted":
            shutil.rmtree(tables_dir)
        else:
            # Well-formed pickles whose steps offsets overrun the steps.
            bad = (array("q", [0]), array("i", [1]), array("B", [0]),
                   array("q", [0, 9]), array("i"))
            for dirpath, _dirs, files in os.walk(tables_dir):
                for fname in files:
                    with open(os.path.join(dirpath, fname), "wb") as fh:
                        pickle.dump(bad, fh)
        trace = _fresh_fft()
        maps = [sections.get_section_map(trace, cfg) for cfg in _GRID]
        assert all(m._loaded_n == 0 and m._flat is None for m in maps)
        assert _runs(trace) == ref
        # The re-enumerated tables are stored again on the next flush.
        artifact_cache.persist_caches()
        assert os.path.isdir(tables_dir)

    def test_stale_flat1_entry_is_ignored(self, monkeypatch, tmp_path):
        trace = get_trace("crc", size="small")
        config = ClankConfig.from_tuple((8, 4, 2, 2))
        ref = _walk(SectionMap(trace, config))  # cache disabled
        st = _enable(monkeypatch, tmp_path)
        smap = SectionMap(trace, config)
        # The inline-table layout this store no longer reads, holding a
        # table that would mis-serve section (0, NORMAL) if it loaded.
        stale = ("flat1", array("q", [0]), array("i", [1]),
                 array("B", [0]), array("q", [0, 0]), array("i"), {})
        assert st.put("sections", smap._disk_key, stale)
        again = SectionMap(trace, config)
        assert again._loaded_n == 0 and again._flat is None
        assert _walk(again) == ref


class TestResultCache:
    JOB = SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny")

    def test_round_trip_matches_cold(self, monkeypatch, tmp_path):
        cold, _ = execute_job(self.JOB, QUICK)  # cache disabled
        st = _enable(monkeypatch, tmp_path)
        first, _ = execute_job(self.JOB, QUICK)
        assert st.puts >= 1
        hits = st.hits
        warm, warm_secs = execute_job(self.JOB, QUICK)
        assert st.hits > hits
        assert warm_secs == 0.0  # no simulation ran
        assert warm.to_dict() == first.to_dict() == cold.to_dict()

    def test_verify_runs_are_never_cached(self, monkeypatch, tmp_path):
        import dataclasses

        st = _enable(monkeypatch, tmp_path)
        vset = dataclasses.replace(QUICK, verify=True)
        execute_job(self.JOB, vset)
        assert not os.path.isdir(os.path.join(str(tmp_path), "result"))
        # Populate from a non-verify run, then verify again: still no
        # cache hit — verify must re-execute.
        execute_job(self.JOB, QUICK)
        hits = st.hits
        execute_job(self.JOB, vset)
        assert st.hits == hits

    def test_stalled_sentinel_round_trips(self, monkeypatch, tmp_path):
        job = SimJob(
            workload="crc", config=(16, 8, 4, 4), size="tiny",
            schedule="runt", runt_mean=2, runt_fraction=1.0,
            max_power_cycles=50, allow_stall=True,
        )
        st = _enable(monkeypatch, tmp_path)
        result, _ = execute_job(job, QUICK)
        assert result is None
        hits = st.hits
        result, secs = execute_job(job, QUICK)
        assert result is None and secs == 0.0
        assert st.hits > hits


class TestSweepWriters:
    def test_sweep_writers_leave_a_clean_store(
        self, monkeypatch, tmp_path
    ):
        """A sweep's puts land in one directory; afterwards every entry
        unpickles (atomic os.replace — no partial files), no temp
        litter remains, and cold, warm and cache-off results agree."""
        jobs = [
            SimJob(workload=w, config=c, size="tiny", salt=s)
            for w in ("crc", "qsort")
            for c in ((1, 0, 0, 0), (8, 4, 2, 0))
            for s in (0, 1)
        ]
        off = run_jobs(jobs, QUICK)  # cache disabled
        _enable(monkeypatch, tmp_path)
        first = run_jobs(jobs, QUICK)
        artifact_cache.persist_caches()
        for dirpath, _dirnames, filenames in os.walk(str(tmp_path)):
            for fname in filenames:
                assert not fname.endswith(".tmp"), "temp litter"
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    pickle.load(fh)  # every entry is complete
        warm = run_jobs(jobs, QUICK)
        for a, b, c in zip(off, first, warm):
            assert a.to_dict() == b.to_dict() == c.to_dict()

    def test_stats_report_disk_traffic(self, monkeypatch, tmp_path):
        _enable(monkeypatch, tmp_path)
        jobs = [
            SimJob(workload="crc", config=(1, 0, 0, 0), size="tiny", salt=s)
            for s in range(4)
        ]
        COUNTERS.reset()
        run_jobs(jobs, QUICK)
        assert artifact_cache.stats()["puts"] > 0
        assert artifact_cache.stats()["misses"] > 0
        run_jobs(jobs, QUICK)
        assert artifact_cache.stats()["hits"] >= len(jobs)
