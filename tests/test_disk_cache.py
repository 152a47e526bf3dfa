"""Persistent result store: robustness contract + warm equivalence.

Exercises the contract documented in :mod:`repro.cache.store`:
corrupted entries load as misses and are repaired, eviction respects
the size cap, a sweep's writers never leave partial files and store
only whole results, and a disabled or unwritable store degrades
silently.  On top of the store, the whole-result cache is checked
end-to-end: it round-trips (with the ``--verify`` exclusion and the
``"stalled"`` sentinel).
"""

import os
import pickle

import pytest

import repro.cache as artifact_cache
from repro.cache.store import CacheStore, _EVICT_CHECK_INTERVAL
from repro.eval.parallel import SimJob, execute_job, run_jobs
from repro.eval.settings import EvalSettings
from repro.obs.metrics import COUNTERS
from repro.sim import sections

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

    def test_store_max_mb_env(self, monkeypatch, tmp_path):
        """A finite cap of at least one byte is taken as given.  Any
        other value neither crashes the store nor empties it: it falls
        back to the 512 MB default, as an unparsable one does."""
        for raw, want in [("1", 1 << 20), ("nan", 512 << 20),
                          ("inf", 512 << 20), ("-5", 512 << 20),
                          ("0", 512 << 20), ("1e-9", 512 << 20),
                          ("lots", 512 << 20)]:
            st = _enable(monkeypatch, tmp_path, max_mb=raw)
            assert st.max_bytes == want, raw


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
        """A sweep's puts land in one directory and hold only whole
        results; afterwards every entry unpickles (atomic os.replace —
        no partial files), no temp litter remains, and cold, warm and
        cache-off results agree."""
        jobs = [
            SimJob(workload=w, config=c, size="tiny", salt=s)
            for w in ("crc", "qsort")
            for c in ((1, 0, 0, 0), (8, 4, 2, 0))
            for s in (0, 1)
        ]
        off = run_jobs(jobs, QUICK)  # cache disabled
        sections.clear_cache()  # the store-backed sweep builds its maps
        _enable(monkeypatch, tmp_path)
        first = run_jobs(jobs, QUICK)
        # Everything a finishing process would write is written: the
        # store holds whole results and nothing else.
        artifact_cache.persist_caches()
        assert os.listdir(str(tmp_path)) == ["result"]
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
