"""Persistent result store: robustness contract + warm equivalence.

Exercises the contract documented in :mod:`repro.cache.store`: a torn
append keeps every earlier entry, a damaged entry is a counted miss
that the next put repairs, stores sharing a directory see each other's
writes, eviction drops whole segments oldest first and counts legacy
pickle trees toward the cap, a sweep leaves only segment files, and a
disabled or unwritable store degrades silently.  On top of the store,
the whole-result cache is checked end-to-end: it round-trips (with the
``--verify`` exclusion and the ``"stalled"`` sentinel), a stored result
of the wrong shape re-simulates, and a warm sweep opens each segment
once.
"""

import json
import os
import shutil
import sys
import threading

import pytest

import repro.cache as artifact_cache
from repro.cache.store import HEADER, CacheStore
from repro.eval import parallel
from repro.eval.parallel import SimJob, execute_job, result_key, run_jobs
from repro.eval.settings import EvalSettings
from repro.obs.metrics import COUNTERS
from repro.sim import sections
from repro.workloads.cache import cache_stats as trace_cache_stats
from repro.workloads.cache import clear_trace_cache

QUICK = EvalSettings(size="small", sweep_size="tiny", seed=2)


@pytest.fixture(autouse=True)
def _isolated_cache(monkeypatch):
    """Every test resolves its own store and leaves no global state."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
    artifact_cache.reset_for_tests()
    sections.clear_cache()
    yield
    while _OPENED_STORES:
        _OPENED_STORES.pop().close()
    sections.clear_cache()
    artifact_cache.reset_for_tests()
    COUNTERS.reset()


#: Stores a test opened directly; the fixture closes their handles.
_OPENED_STORES = []


def _store(root, cap=1 << 30):
    st = CacheStore(str(root), cap)
    _OPENED_STORES.append(st)
    return st


def _enable(monkeypatch, tmp_path, max_mb=None):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    if max_mb is not None:
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", str(max_mb))
    artifact_cache.reset_for_tests()
    st = artifact_cache.store()
    assert st is not None
    return st


def _segments(root):
    return sorted(n for n in os.listdir(str(root)) if n.endswith(".seg"))


def _dir_bytes(root):
    return sum(
        os.path.getsize(os.path.join(dp, f))
        for dp, _, fs in os.walk(str(root))
        for f in fs
    )


#: Paths opened while a test listens (see ``_opens``).  An audit hook
#: cannot be removed, so one hook is installed per process and records
#: only while the list is live.
_OPENED = None


def _audit(event, args):
    if event == "open" and _OPENED is not None and isinstance(args[0], str):
        _OPENED.append(args[0])


sys.addaudithook(_audit)


class TestStoreBasics:
    def test_round_trip_and_stats(self, tmp_path):
        st = _store(tmp_path)
        assert st.get("k", "ab" * 32) is None
        assert st.put("k", "ab" * 32, {"x": [1, 2]})
        # A get without ``decode`` is the checked payload, unparsed.
        raw = st.get("k", "ab" * 32)
        assert raw == b'{"x":[1,2]}' and json.loads(raw) == {"x": [1, 2]}
        assert st.stats() == {
            "hits": 1, "misses": 1, "puts": 1, "evictions": 0, "errors": 0,
        }

    def test_store_never_imports_pickle(self):
        """Stored values are JSON: the store has no pickle to hand a
        damaged file's bytes to, and no network client to fetch any."""
        import importlib

        for name in ("repro.cache", "repro.cache.store"):
            module = importlib.import_module(name)
            assert "pickle" not in vars(module)
            with open(module.__file__, encoding="utf-8") as fh:
                source = fh.read()
            assert "import pickle" not in source
            assert "urllib" not in vars(module)
            assert "urllib" not in source

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

        st = _store(tmp_path)
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


    def test_concurrent_puts_serialize_in_one_segment(self, tmp_path):
        """Threads sharing one store append to its one segment; every
        entry lands whole, as a store opened afterwards reads back."""
        st = _store(tmp_path)

        def writer(slot):
            for i in range(200):
                st.put("k", f"{slot:02x}{i:04x}" * 8 + "ab" * 8, [slot, i])

        threads = [threading.Thread(target=writer, args=(s,))
                   for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the writers finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert st.puts == 800 and st.errors == 0
        assert len(_segments(tmp_path)) == 1
        fresh = _store(tmp_path)
        for slot in range(4):
            for i in range(200):
                key = f"{slot:02x}{i:04x}" * 8 + "ab" * 8
                assert fresh.get("k", key, json.loads) == [slot, i]
        assert fresh.errors == 0

    def test_store_sees_writes_of_a_store_opened_later(self, tmp_path):
        """Two stores on one directory (a sweep server and a local eval):
        each sees the other's puts on its next get, whether they land in
        a new segment or are appended to one it has already indexed."""
        early = _store(tmp_path)
        assert early.get("k", "ab" * 32) is None
        late = _store(tmp_path)
        late.put("k", "ab" * 32, {"from": "late"})
        assert early.get("k", "ab" * 32, json.loads) == {"from": "late"}
        late.put("k", "cd" * 32, {"from": "late", "n": 2})
        assert early.get("k", "cd" * 32, json.loads) == {
            "from": "late", "n": 2}
        early.put("k", "ef" * 32, [3])
        assert late.get("k", "ef" * 32, json.loads) == [3]
        assert early.errors == late.errors == 0


class TestCorruption:
    def test_corrupt_entry_is_a_miss_and_is_repaired(self, tmp_path):
        st = _store(tmp_path)
        key = "cd" * 32
        st.put("k", key, [1, 2, 3])
        path = os.path.join(str(tmp_path), _segments(tmp_path)[0])
        with open(path, "r+b") as fh:  # flip one payload byte
            fh.seek(HEADER + 1)
            byte = fh.read(1)
            fh.seek(HEADER + 1)
            fh.write(bytes([byte[0] ^ 0x01]))
        assert st.get("k", key) is None
        assert st.errors == 1 and st.misses == 1
        assert st.put("k", key, [4])
        assert st.get("k", key, json.loads) == [4]
        # A later process reads the repair, not the damaged copy.
        assert _store(tmp_path).get("k", key, json.loads) == [4]

    def test_truncated_entry_is_a_miss(self, tmp_path):
        """A torn append (a writer killed mid-entry) keeps every earlier
        entry readable; the torn entry is a miss, and the next process
        appends to a fresh segment, leaving the torn one as it was."""
        st = _store(tmp_path)
        keys = ["%064x" % i for i in range(3)]
        for i, key in enumerate(keys):
            st.put("k", key, list(range(100 * i, 100 * i + 100)))
        (name,) = _segments(tmp_path)
        path = os.path.join(str(tmp_path), name)
        size = os.path.getsize(path)
        os.truncate(path, size - 50)
        fresh = _store(tmp_path)
        assert fresh.get("k", keys[0], json.loads) == list(range(100))
        assert fresh.get("k", keys[1], json.loads) == list(range(100, 200))
        assert fresh.get("k", keys[2]) is None
        assert fresh.errors == 0
        assert fresh.put("k", keys[2], ["again"])
        assert fresh.get("k", keys[2], json.loads) == ["again"]
        assert len(_segments(tmp_path)) == 2
        assert os.path.getsize(path) == size - 50
        assert _store(tmp_path).get("k", keys[2], json.loads) == [
            "again"]


class TestEviction:
    def test_eviction_respects_size_cap(self, tmp_path):
        cap = 64 * 1024
        st = _store(tmp_path, cap)
        payload = "x" * 4096
        for i in range(128):
            st.put("k", ("%064x" % i), payload)
            assert _dir_bytes(tmp_path) <= cap
        assert st.evictions > 0
        assert st.get("k", "%064x" % 127, json.loads) == payload

    def test_oldest_segment_evicted_first(self, tmp_path):
        """Recency is segment age: eviction drops the oldest segments
        whole and keeps the newest entries, the live segment included."""
        cap = 64 * 1024
        st = _store(tmp_path, cap)
        for i in range(64):
            st.put("k", "%064x" % i, "x" * 2048)
        assert st.evictions > 0
        present = [i for i in range(64)
                   if st.get("k", "%064x" % i) is not None]
        # What survives is one unbroken run of the newest puts.
        assert present == list(range(present[0], 64))
        assert st.evictions == present[0]
        assert st.errors == 0

    def test_legacy_trees_count_toward_cap(self, tmp_path):
        """Pickle trees of the old one-file-per-entry layout count toward
        the cap and are removed before any segment when room is needed."""
        legacy = ("result", "sections", "section_tables", "compiled", "pi")
        for kind in legacy:
            shard = tmp_path / kind / "ab"
            shard.mkdir(parents=True)
            for i in range(2):
                (shard / (f"ab{i:062x}.pkl")).write_bytes(b"p" * 4096)
        (tmp_path / "unrelated").mkdir()
        cap = 64 * 1024
        st = _store(tmp_path, cap)
        st.put("k", "ab" * 32, "first")
        assert st.evictions == 0  # under the cap: nothing removed yet
        for i in range(8):
            st.put("k", "%064x" % i, "x" * 4096)
        left = [k for k in legacy if (tmp_path / k).is_dir()]
        assert 0 < len(left) < len(legacy)
        assert st.evictions == 2 * (len(legacy) - len(left))
        # No segment went first.
        assert st.get("k", "ab" * 32, json.loads) == "first"
        assert _dir_bytes(tmp_path) <= cap
        for i in range(8, 24):
            st.put("k", "%064x" % i, "x" * 4096)
            assert _dir_bytes(tmp_path) <= cap
        assert sorted(os.listdir(str(tmp_path))) == _segments(tmp_path) + [
            "unrelated"]
        assert st.evictions > 2 * len(legacy)

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
        # A plain file as the store root: creating a segment under it
        # fails, regardless of the uid running the tests.
        root = tmp_path / "not_a_dir"
        root.write_bytes(b"")
        st = _store(root)
        assert st.put("k", "ab" * 32, 1) is False
        assert not st._writable
        assert st.errors == 1
        # Further puts are silent no-ops; gets still answer (miss).
        assert st.put("k", "ab" * 32, 1) is False
        assert st.errors == 1
        assert st.get("k", "ab" * 32) is None

    def test_unencodable_payload_degrades(self, tmp_path):
        st = _store(tmp_path)
        assert st.put("k", "ab" * 32, {"x": object()}) is False
        assert st.put("k", "ab" * 32, lambda: None) is False
        assert st.errors == 2
        # No litter from the failed writes, and the store still writes.
        assert os.listdir(str(tmp_path)) == []
        assert st.put("k", "ab" * 32, 1)
        assert st.get("k", "ab" * 32, json.loads) == 1


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
        assert os.listdir(str(tmp_path)) == []
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


    def test_wrong_shape_entry_resimulates(self, monkeypatch, tmp_path):
        """A stored result that does not decode for its job (a bug, a
        damaged or hostile entry) is a counted error and a miss: the job
        simulates again, and its put repairs the entry."""
        cold, _ = execute_job(self.JOB, QUICK)  # cache disabled
        st = _enable(monkeypatch, tmp_path)
        kind, key = result_key(self.JOB, QUICK)
        for bad in ({"bogus": 1}, [1, 2], "stalled",
                    dict(cold.to_dict(), baseline_cycles="many")):
            st.put(kind, key, bad)
            errors = st.errors
            result, secs = execute_job(self.JOB, QUICK)
            assert st.errors == errors + 1
            assert secs > 0.0
            assert result.to_dict() == cold.to_dict()
            hits = st.hits
            warm, secs = execute_job(self.JOB, QUICK)
            assert st.hits == hits + 1 and secs == 0.0
            assert warm.to_dict() == cold.to_dict()


    def test_warm_hit_builds_no_trace(self, monkeypatch, tmp_path):
        """A hit needs no trace: its key names the workload, so a warm
        job in a process that never built the workload builds nothing."""
        _enable(monkeypatch, tmp_path)
        cold, _ = execute_job(self.JOB, QUICK)
        clear_trace_cache()
        builds = trace_cache_stats()["misses"]
        warm, secs = execute_job(self.JOB, QUICK)
        assert secs == 0.0 and warm.to_dict() == cold.to_dict()
        assert trace_cache_stats()["misses"] == builds


@pytest.fixture()
def _fresh_salt():
    """Recompute the key salt under a test's patches, and again after."""
    parallel._key_salt.cache_clear()
    yield
    parallel._key_salt.cache_clear()


@pytest.mark.usefixtures("_fresh_salt")
class TestResultKeys:
    """A result key names its workload by identity — the job's name,
    size and trace seed, the trace packages' source and the result
    schema — instead of by trace content, so keying builds no trace."""

    JOB = SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny")

    def _key(self, job=None):
        return result_key(job or self.JOB, QUICK)[1]

    def _sources_with(self, monkeypatch, workloads_dir):
        monkeypatch.setattr(parallel, "TRACE_SOURCES", (
            str(workloads_dir),) + parallel.TRACE_SOURCES[1:])
        parallel._key_salt.cache_clear()

    def test_editing_a_workload_changes_its_key(self, monkeypatch, tmp_path):
        original = self._key()
        src = parallel.TRACE_SOURCES[0]
        assert os.path.basename(src) == "workloads"
        copy = tmp_path / "copy"
        shutil.copytree(src, str(copy),
                        ignore=shutil.ignore_patterns("__pycache__"))
        # An unedited copy elsewhere fingerprints the same.
        self._sources_with(monkeypatch, copy)
        assert self._key() == original
        path = copy / "math_kernels.py"
        text = path.read_text(encoding="utf-8")
        edited = text.replace("crc = 0xFFFFFFFF", "crc = 0xFFFFFFFE", 1)
        assert edited != text
        path.write_text(edited, encoding="utf-8")
        self._sources_with(monkeypatch, copy)
        assert self._key() != original

    def test_result_schema_changes_key(self, monkeypatch):
        from dataclasses import dataclass

        from repro.sim.result import SimulationResult

        original = self._key()

        @dataclass
        class SimulationResult(SimulationResult):  # noqa: F811
            extra_cycles: int = 0

        monkeypatch.setattr(parallel, "RESULT_TYPES",
                            (SimulationResult,) + parallel.RESULT_TYPES[1:])
        parallel._key_salt.cache_clear()
        assert self._key() != original

    def test_identity_fields_change_key(self):
        import dataclasses

        clear_trace_cache()
        builds = trace_cache_stats()["misses"]
        base = self._key()
        assert self._key(dataclasses.replace(self.JOB)) == base
        keys = {
            self._key(dataclasses.replace(self.JOB, **change))
            for change in ({"workload": "rc4"}, {"size": "small"},
                           {"trace_seed": 1})
        }
        assert len(keys) == 3 and base not in keys
        assert trace_cache_stats()["misses"] == builds

    def test_trace_packages_import_only_fingerprinted_packages(self):
        """Every ``repro`` module a module of the fingerprinted packages
        imports is itself fingerprinted, so no source a trace build runs
        can change without changing every key.  If a trace build comes
        to depend on another package, add it to ``TRACE_SOURCES``."""
        import ast

        packages = {os.path.basename(root): root
                    for root in parallel.TRACE_SOURCES}
        # The trace cache's hit/miss counters live in the metrics
        # registry; no trace byte depends on them.
        counters_only = {("workloads/cache.py", "repro.obs.metrics")}
        outside = []
        for name, root in packages.items():
            for dirpath, _dirnames, files in os.walk(root):
                for fname in files:
                    if not fname.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, fname)
                    rel = f"{name}/{os.path.relpath(path, root)}"
                    with open(path, encoding="utf-8") as fh:
                        tree = ast.parse(fh.read(), path)
                    for node in ast.walk(tree):
                        if isinstance(node, ast.Import):
                            mods = [alias.name for alias in node.names]
                        elif isinstance(node, ast.ImportFrom):
                            assert node.level == 0, f"{rel}: relative import"
                            mods = [node.module]
                        else:
                            continue
                        for mod in mods:
                            parts = mod.split(".")
                            if parts[0] != "repro":
                                continue
                            if len(parts) < 2 or parts[1] not in packages:
                                if (rel, mod) not in counters_only:
                                    outside.append((rel, mod))
        assert not outside, outside


class TestSweepWriters:
    JOBS = [
        SimJob(workload=w, config=c, size="tiny", salt=s)
        for w in ("crc", "qsort")
        for c in ((1, 0, 0, 0), (8, 4, 2, 0))
        for s in (0, 1)
    ]

    def test_sweep_writers_leave_a_clean_store(
        self, monkeypatch, tmp_path
    ):
        """A sweep's puts land in one segment of whole entries: the
        store holds segment files and nothing else, a store opened
        afterwards reads every result back, and cold, warm and cache-off
        results agree."""
        jobs = self.JOBS
        off = run_jobs(jobs, QUICK)  # cache disabled
        sections.clear_cache()  # the store-backed sweep builds its maps
        _enable(monkeypatch, tmp_path)
        first = run_jobs(jobs, QUICK)
        # Everything a finishing process would write is written: the
        # store holds one segment of whole results and nothing else.
        artifact_cache.persist_caches()
        assert os.listdir(str(tmp_path)) == _segments(tmp_path)
        assert len(_segments(tmp_path)) == 1
        fresh = _store(tmp_path)
        for job in jobs:
            assert isinstance(
                fresh.get(*result_key(job, QUICK), json.loads), dict)
        assert fresh.errors == 0
        warm = run_jobs(jobs, QUICK)
        for a, b, c in zip(off, first, warm):
            assert a.to_dict() == b.to_dict() == c.to_dict()

    def test_warm_sweep_opens_each_segment_once(self, monkeypatch, tmp_path):
        """A warm sweep in a new process reads every result through the
        handles it opened on the store's segments: the files it opens in
        the store are its segments, not one per job."""
        global _OPENED
        _enable(monkeypatch, tmp_path)
        run_jobs(self.JOBS, QUICK)
        artifact_cache.reset_for_tests()  # a new process: a new store
        sections.clear_cache()
        _OPENED = []
        try:
            st = artifact_cache.store()
            run_jobs(self.JOBS, QUICK)
            opened = [p for p in _OPENED
                      if os.path.dirname(p) == str(tmp_path)]
        finally:
            _OPENED = None
        assert st.hits == len(self.JOBS) and st.misses == 0
        assert sorted(os.path.basename(p) for p in opened) == _segments(
            tmp_path)

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
