"""Sweep-as-a-service: the contracts documented in :mod:`repro.serve`.

Byte identity (served results == local results on a config grid, batch
jobs included), the dedupe funnel (single-flight coalescing simulates a
duplicate key once; repeat batches are answered from memory/disk
without re-simulating), the remote read-through tier (peer hit,
write-through, clean miss, and corrupt/absent-peer degradation to a
plain miss), the ledger's ``engine="served"`` reconciliation, and the
``--verify`` refusal on both sides of the wire.

Servers run in-process on a background event-loop thread
(:func:`repro.serve.start_in_background`); the CI loopback job covers
the separate-process path.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

import repro.cache as artifact_cache
from repro.cache.store import CacheStore
from repro.eval import parallel
from repro.eval.parallel import SimJob, result_key, run_jobs
from repro.eval.settings import EvalSettings
from repro.obs import telemetry
from repro.obs.metrics import COUNTERS
from repro.serve import (
    ServeClient, install, start_in_background, uninstall,
)
from repro.serve.client import ServeError
from repro.serve.jsonio import (
    job_from_dict, job_to_dict, settings_from_dict, settings_to_dict,
)
from repro.sim import sections
from repro.workloads.cache import clear_trace_cache

SETTINGS = EvalSettings(size="tiny", verify=False)

#: A small grid with real variety: two workloads, two configs, a
#: duplicate salt, a compiler job, and a batched seed-repeat job.
GRID = [
    SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny", salt=0),
    SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny", salt=1),
    SimJob(workload="rc4", config=(4, 2, 1, 0), size="tiny", salt=0),
    SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny", salt=0,
           use_compiler=True),
    SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny", salt=2,
           n_seeds=3, seed_stride=1),
]


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """No ambient store, no leaked SERVED_EXECUTOR, clean section cache."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_CACHE_REMOTE", raising=False)
    artifact_cache.reset_for_tests()
    sections.clear_cache()
    uninstall()
    yield
    uninstall()
    sections.clear_cache()
    artifact_cache.reset_for_tests()
    COUNTERS.reset()


@pytest.fixture()
def server():
    handle = start_in_background(jobs=1)
    yield handle
    handle.stop()


def _dicts(results):
    out = []
    for r in results:
        if r is None:
            out.append(None)
        elif hasattr(r, "column"):  # BatchResult
            out.append(r.to_dict())
        else:
            out.append(r.to_dict(include_derived=False))
    return out


class TestJsonio:
    def test_job_round_trip_grid(self):
        for job in GRID:
            encoded = json.loads(json.dumps(job_to_dict(job)))
            assert job_from_dict(encoded) == job

    def test_job_round_trip_with_opts(self):
        from repro.core.config import PolicyOptimizations

        job = SimJob(
            workload="crc", config=(16, 8, 4, 2),
            opts=PolicyOptimizations.none(), prefix_low_bits=4,
            volatile_segments=("stack",),
        )
        encoded = json.loads(json.dumps(job_to_dict(job)))
        assert job_from_dict(encoded) == job

    def test_settings_round_trip(self):
        encoded = json.loads(json.dumps(settings_to_dict(SETTINGS)))
        assert settings_from_dict(encoded) == SETTINGS

    def test_unknown_fields_rejected(self):
        bad = job_to_dict(GRID[0])
        bad["surprise"] = 1
        with pytest.raises(ValueError, match="unknown SimJob"):
            job_from_dict(bad)
        bad_settings = settings_to_dict(SETTINGS)
        bad_settings["surprise"] = 1
        with pytest.raises(ValueError, match="unknown EvalSettings"):
            settings_from_dict(bad_settings)


class TestServedByteIdentity:
    def test_grid_matches_local(self, server):
        local = run_jobs(GRID, SETTINGS, 1)
        served = ServeClient(server.url).run_jobs(GRID, SETTINGS)
        assert _dicts(served) == _dicts(local)

    def test_run_jobs_routes_through_installed_client(self, server):
        client = ServeClient(server.url)
        install(client)
        served = run_jobs(GRID, SETTINGS, 1)
        uninstall()
        local = run_jobs(GRID, SETTINGS, 1)
        assert _dicts(served) == _dicts(local)
        assert client.jobs_served == len(GRID)

    def test_verify_batches_never_served(self, server):
        """The client-side guard: run_jobs bypasses SERVED_EXECUTOR under
        settings.verify, so verification executes in this process."""
        client = ServeClient(server.url)
        install(client)
        verify = EvalSettings(size="tiny", verify=True)
        results = run_jobs(GRID[:1], verify, 1)
        assert results[0] is not None and results[0].verified
        assert client.jobs_served == 0

    def test_server_refuses_verify_batches(self, server):
        """The server-side guard: a verify batch is rejected with a 400
        even from a client that skipped the local guard."""
        client = ServeClient(server.url)
        verify = EvalSettings(size="tiny", verify=True)
        with pytest.raises(ServeError, match="rejected batch \\(400\\)"):
            client._stream_batch(
                {
                    "settings": settings_to_dict(verify),
                    "jobs": [job_to_dict(GRID[0])],
                },
                1,
            )


class TestDedupeFunnel:
    def test_single_flight_within_batch(self, server):
        jobs = [
            SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny", salt=7)
        ] * 4
        client = ServeClient(server.url)
        results = client.run_jobs(jobs, SETTINGS)
        assert _dicts(results) == _dicts(run_jobs(jobs, SETTINGS, 1))
        tiers = server.stats()["server"]["tiers"]
        assert tiers["computed"] == 1
        assert tiers["coalesced"] == 3

    def test_duplicate_keys_simulate_once_across_clients(self, server):
        """Concurrent clients posting the same key cost one simulation,
        whichever tier (coalesced or memory) answers the later one."""
        job = SimJob(workload="rc4", config=(8, 4, 2, 0), size="tiny", salt=9)
        outcomes = [None, None]

        def _post(slot):
            outcomes[slot] = ServeClient(server.url).run_jobs([job], SETTINGS)

        threads = [
            threading.Thread(target=_post, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert _dicts(outcomes[0]) == _dicts(outcomes[1])
        tiers = server.stats()["server"]["tiers"]
        assert tiers["computed"] == 1
        assert tiers["coalesced"] + tiers["memory"] == 1

    def test_repeat_batch_never_resimulates(self, server):
        client = ServeClient(server.url)
        first = client.run_jobs(GRID, SETTINGS)
        repeat = ServeClient(server.url)
        second = repeat.run_jobs(GRID, SETTINGS)
        assert _dicts(first) == _dicts(second)
        assert repeat.tier_counts["computed"] == 0
        assert repeat.tier_counts["memory"] == len(GRID)

    def test_memoryless_server_uses_disk_tier(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        artifact_cache.reset_for_tests()
        handle = start_in_background(jobs=1, memory_entries=0)
        try:
            client = ServeClient(handle.url)
            client.run_jobs(GRID[:2], SETTINGS)
            repeat = ServeClient(handle.url)
            repeat.run_jobs(GRID[:2], SETTINGS)
            assert repeat.tier_counts["computed"] == 0
            assert repeat.tier_counts["disk"] == 2
        finally:
            handle.stop()

    def test_job_error_reported_and_server_survives(self, server):
        client = ServeClient(server.url)
        bad = SimJob(workload="no-such-workload", config=(8, 4, 2, 0),
                     size="tiny")
        with pytest.raises(ServeError, match="server failed job"):
            client.run_jobs([bad], SETTINGS)
        assert server.stats()["server"]["errors"] == 1
        ok = ServeClient(server.url).run_jobs(GRID[:1], SETTINGS)
        assert _dicts(ok) == _dicts(run_jobs(GRID[:1], SETTINGS, 1))


class TestRemoteTier:
    def _seed_peer_store(self, monkeypatch, path):
        """A store with one real result entry, served by a peer server."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
        artifact_cache.reset_for_tests()
        job = GRID[0]
        parallel.execute_job(job, SETTINGS)
        artifact_cache.persist_caches()
        kind, key = result_key(job, SETTINGS)
        assert artifact_cache.store().get(kind, key) is not None
        return kind, key

    def test_read_through_hit_and_write_through(
        self, tmp_path, monkeypatch
    ):
        kind, key = self._seed_peer_store(monkeypatch, tmp_path / "peer")
        peer = start_in_background(jobs=1)
        try:
            local = CacheStore(
                str(tmp_path / "local"), 1 << 30, remote=peer.url
            )
            obj = local.get(kind, key)
            assert isinstance(obj, dict)
            assert local.remote_hits == 1
            # Write-through: the same key is now a local file hit.
            again = local.get(kind, key)
            assert again == obj
            assert local.hits == 1 and local.remote_hits == 1
        finally:
            peer.stop()

    def test_remote_miss_is_clean(self, tmp_path, monkeypatch):
        kind, key = self._seed_peer_store(monkeypatch, tmp_path / "peer")
        peer = start_in_background(jobs=1)
        try:
            local = CacheStore(
                str(tmp_path / "local"), 1 << 30, remote=peer.url
            )
            assert local.get(kind, "f" * 64) is None
            assert local.remote_misses == 1 and local.remote_errors == 0
        finally:
            peer.stop()

    def test_corrupt_remote_degrades(self, tmp_path, monkeypatch):
        kind, key = self._seed_peer_store(monkeypatch, tmp_path / "peer")
        with open(artifact_cache.store().raw_path(kind, key), "wb") as fh:
            fh.write(b"not a pickle")
        peer = start_in_background(jobs=1)
        try:
            local = CacheStore(
                str(tmp_path / "local"), 1 << 30, remote=peer.url
            )
            assert local.get(kind, key) is None
            assert local.remote_errors == 1 and local.remote_hits == 0
        finally:
            peer.stop()

    def test_absent_remote_degrades(self, tmp_path):
        local = CacheStore(
            str(tmp_path), 1 << 30, remote="http://127.0.0.1:9",
            remote_timeout=0.2,
        )
        assert local.get("result", "a" * 64) is None
        assert local.remote_errors == 1

    def test_artifact_endpoint_validates_path(self, server):
        for bad in ("/artifact/result/zz", "/artifact/../x/" + "a" * 64):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + bad, timeout=10)
            assert err.value.code == 404


class TestLedgerReconciliation:
    def test_served_rows_carry_engine_and_tier(self, server):
        ledger = telemetry.LEDGER
        ledger.reset()
        ledger.enable()
        try:
            client = ServeClient(server.url)
            client.run_jobs(GRID, SETTINGS)
            client.run_jobs(GRID, SETTINGS)
        finally:
            ledger.disable()
        records = ledger.records
        assert len(records) == 2 * len(GRID)
        assert {r.engine for r in records} == {telemetry.ENGINE_SERVED}
        # Row-weighted totals reconcile: the batch job carries its rows.
        assert sum(r.rows for r in records) == 2 * sum(
            max(1, j.n_seeds) for j in GRID
        )
        first, second = records[: len(GRID)], records[len(GRID):]
        assert all(r.result_cache in ("computed", "coalesced", "memory")
                   for r in first)
        assert {r.result_cache for r in second} == {"memory"}
        # Only a job this request computed carries simulator time.
        assert all((r.wall_s > 0.0) == (r.result_cache == "computed")
                   for r in records)
        assert any(r.result_cache == "computed" for r in first)
        # The deterministic projection pairs up exactly, tier aside.
        for a, b in zip(first, second):
            da, db = a.stable_dict(), b.stable_dict()
            for d in (da, db):
                d.pop("result_cache")
                d.pop("index")
            assert da == db


class TestStatsEndpoint:
    def test_stats_shape(self, server):
        ServeClient(server.url).run_jobs(GRID[:2], SETTINGS)
        snap = server.stats()
        assert snap["server"]["jobs"] == 2
        assert snap["server"]["batches"] == 1
        assert set(snap["server"]["tiers"]) == {
            "memory", "coalesced", "disk", "remote", "computed"
        }
        assert "hits" in snap["cache"] and "remote_hits" in snap["cache"]

    def test_healthz(self, server):
        assert ServeClient(server.url).healthz()
        assert not ServeClient("http://127.0.0.1:9", timeout=0.2).healthz()

    def test_metrics_endpoint_parses_and_reconciles(self, server):
        """/metrics is valid Prometheus text whose per-tier resolve
        histogram totals exactly the jobs the server answered."""
        jobs = GRID[:3] + GRID[:3]  # repeats exercise a second tier
        ServeClient(server.url).run_jobs(jobs, SETTINGS)
        with urllib.request.urlopen(
            server.url + "/metrics", timeout=10
        ) as resp:
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")
            text = resp.read().decode("utf-8")

        series = {}
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            series[name] = float(value)

        resolve_counts = {
            name: v for name, v in series.items()
            if name.startswith("repro_resolve_seconds_count")
        }
        assert sum(resolve_counts.values()) == len(jobs)
        assert series['repro_http_requests_total'
                      '{endpoint="/jobs",status="200"}'] >= 1
        assert series['repro_http_request_seconds_count'
                      '{endpoint="/jobs"}'] >= 1
        # Cumulative buckets: each tier's +Inf bucket equals its _count.
        for name, v in series.items():
            if 'le="+Inf"' in name and name.startswith(
                    "repro_resolve_seconds_bucket"):
                count_name = name.replace("_bucket", "_count").replace(
                    ',le="+Inf"', "").replace('le="+Inf"', "")
                assert series[count_name] == v
        # The cache stats ride along as unlabeled extra counters.
        assert "repro_cache_hits" in series

    def test_cache_counters_match_across_worker_counts(
        self, tmp_path, monkeypatch
    ):
        """A pooled server's disk gets and puts happen in fork children;
        their counter deltas must still reach ``/stats`` and
        ``/metrics``, exactly as an inline server counts them."""
        # One job per workload, so no trace or SectionMap is shared
        # between jobs a pool could place on different workers.
        jobs = [GRID[0], GRID[2],
                SimJob(workload="fft", config=(8, 4, 2, 0), size="tiny",
                       use_compiler=True),
                SimJob(workload="qsort", config=(8, 4, 2, 0), size="tiny",
                       salt=2, n_seeds=3, seed_stride=1)]
        # Pooled first: an inline run would leave in-process memos (PI
        # marking) that the pool's fork children inherit.
        seen = []
        for n_workers in (2, 1):
            monkeypatch.setenv("REPRO_CACHE_DIR",
                               str(tmp_path / str(n_workers)))
            artifact_cache.reset_for_tests()
            sections.clear_cache()
            clear_trace_cache()
            COUNTERS.reset()
            handle = start_in_background(jobs=n_workers)
            try:
                ServeClient(handle.url).run_jobs(jobs, SETTINGS)
                cache = handle.stats()["cache"]
                with urllib.request.urlopen(
                    handle.url + "/metrics", timeout=10
                ) as resp:
                    text = resp.read().decode("utf-8")
            finally:
                handle.stop()
                handle.server.close_pools()
            puts = [line for line in text.splitlines()
                    if line.startswith("repro_cache_puts ")]
            seen.append((cache, puts))
        (pooled, pooled_puts), (inline, inline_puts) = seen
        assert inline["misses"] > 0 and inline["puts"] > 0
        assert pooled == inline
        assert pooled_puts == inline_puts == [
            f"repro_cache_puts {inline['puts']}"
        ]
