"""Sweep-as-a-service: the contracts documented in :mod:`repro.serve`.

Byte identity (served results == local results on a config grid, batch
jobs included), the dedupe funnel (single-flight coalescing simulates a
duplicate key once; repeat batches are answered from memory/disk
without re-simulating), the remote read-through tier (peer hit,
write-through, clean miss, and corrupt, hostile or absent peers
degrading to a plain miss with nothing unpickled), the ledger's
``engine="served"`` reconciliation, and the ``--verify`` refusal on
both sides of the wire.

Servers run in-process on a background event-loop thread
(:func:`repro.serve.start_in_background`); the CI loopback job covers
the separate-process path.
"""

import functools
import json
import os
import pickle
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

import repro.cache as artifact_cache
from repro.cache.store import HEADER, CacheStore, encode_entry
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
from repro.serve.server import MAX_BODY_BYTES
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
    handle = start_in_background()
    yield handle
    handle.stop()


def _post_events(url, jobs, settings=SETTINGS):
    """POST one batch and return every SSE event, errors included (the
    client raises on the first failed job)."""
    body = json.dumps({
        "settings": settings_to_dict(settings),
        "jobs": [job_to_dict(job) for job in jobs],
    }).encode("utf-8")
    req = urllib.request.Request(url + "/jobs", data=body, method="POST")
    with urllib.request.urlopen(req, timeout=60) as resp:
        return [json.loads(line[len(b"data: "):]) for line in resp
                if line.startswith(b"data: ")]


def _raw_exchange(url, request: bytes, hang_up_after=None) -> bytes:
    """Send raw request bytes; read the reply to EOF, or only until
    ``hang_up_after`` appears in it and then close the socket."""
    parts = urllib.parse.urlsplit(url)
    with socket.create_connection((parts.hostname, parts.port),
                                  timeout=30) as sock:
        sock.sendall(request)
        reply = b""
        while hang_up_after is None or hang_up_after not in reply:
            data = sock.recv(65536)
            if not data:
                break
            reply += data
    return reply


def _metric_series(url) -> dict:
    with urllib.request.urlopen(url + "/metrics", timeout=10) as resp:
        text = resp.read().decode("utf-8")
    series = {}
    for line in text.strip().splitlines():
        if not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            series[name] = float(value)
    return series


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
        local = run_jobs(GRID, SETTINGS)
        served = ServeClient(server.url).run_jobs(GRID, SETTINGS)
        assert _dicts(served) == _dicts(local)

    def test_run_jobs_routes_through_installed_client(self, server):
        client = ServeClient(server.url)
        install(client)
        served = run_jobs(GRID, SETTINGS)
        uninstall()
        local = run_jobs(GRID, SETTINGS)
        assert _dicts(served) == _dicts(local)
        assert client.jobs_served == len(GRID)

    def test_verify_batches_never_served(self, server):
        """The client-side guard: run_jobs bypasses SERVED_EXECUTOR under
        settings.verify, so verification executes in this process."""
        client = ServeClient(server.url)
        install(client)
        verify = EvalSettings(size="tiny", verify=True)
        results = run_jobs(GRID[:1], verify)
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
        assert _dicts(results) == _dicts(run_jobs(jobs, SETTINGS))
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
        handle = start_in_background(memory_entries=0)
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
        assert _dicts(ok) == _dicts(run_jobs(GRID[:1], SETTINGS))


class TestBatchFunnel:
    """Batch triage and chunked execution (``SweepServer._resolve_batch``)."""

    def test_resolve_count_equals_jobs_served(self):
        """Three chunks of owned misses plus one in-batch duplicate of
        each, then a repeat batch: every served job is one resolve
        observation, and results match a local run."""
        batch = [
            SimJob(workload=w, config=(8, 4, 2, 0), size="tiny", salt=s)
            for w in ("crc", "rc4") for s in range(18)
        ]
        batch += batch
        handle = start_in_background()
        try:
            client = ServeClient(handle.url)
            first = client.run_jobs(batch, SETTINGS)
            second = client.run_jobs(batch, SETTINGS)
            tiers = handle.stats()["server"]["tiers"]
            series = _metric_series(handle.url)
        finally:
            handle.stop()
        local = run_jobs(batch, SETTINGS)
        assert _dicts(first) == _dicts(second) == _dicts(local)
        assert tiers["computed"] == 36 and tiers["coalesced"] == 36
        assert tiers["memory"] == 72
        resolves = sum(v for name, v in series.items()
                       if name.startswith("repro_resolve_seconds_count"))
        assert resolves == 2 * len(batch)

    def test_failing_job_fails_alone(self, server):
        """A job that keys but fails to execute fails alone inside its
        chunk; its in-batch duplicate reports the same error, the rest
        of the chunk is served, and the stream still ends with done."""
        # Seed repeats need the Clank engine: execute_job refuses this.
        bad = SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny",
                     n_seeds=3, engine="undo")
        batch = [GRID[0], bad, GRID[2], bad]
        events = _post_events(server.url, batch)
        assert events[-1] == {"type": "done", "jobs": 4}
        by_idx = {ev["idx"]: ev for ev in events[:-1]}
        assert sorted(by_idx) == [0, 1, 2, 3]
        assert by_idx[1]["error"] == by_idx[3]["error"]
        assert by_idx[1]["error"].startswith("ConfigError: seed-repeat")
        local = run_jobs([GRID[0], GRID[2]], SETTINGS)
        served = [parallel.decode_result(by_idx[i]) for i in (0, 2)]
        assert _dicts(served) == _dicts(local)
        stats = server.stats()["server"]
        assert stats["errors"] == 2 and stats["inflight"] == 0

    def test_hang_up_mid_stream_still_finishes_chunks(self, server):
        """A client that hangs up before any result leaves the server
        finishing every owned chunk: the inflight table drains and a
        repeat batch is answered entirely from memory."""
        batch = [SimJob(workload="crc", config=(8, 4, 2, 0), size="tiny",
                        salt=s) for s in range(40)]
        body = json.dumps({
            "settings": settings_to_dict(SETTINGS),
            "jobs": [job_to_dict(job) for job in batch],
        }).encode("utf-8")
        head = _raw_exchange(
            server.url,
            b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(body), body),
            hang_up_after=b"\r\n\r\n",
        )
        assert head.startswith(b"HTTP/1.1 200")
        deadline = time.monotonic() + 60
        while True:
            stats = server.stats()["server"]
            if stats["tiers"]["computed"] == 40 and stats["inflight"] == 0:
                break
            assert time.monotonic() < deadline, stats
            time.sleep(0.05)
        repeat = ServeClient(server.url)
        repeat.run_jobs(batch, SETTINGS)
        assert repeat.tier_counts["memory"] == 40


class TestRequestLimits:
    @pytest.mark.parametrize("length", [
        str(MAX_BODY_BYTES + 1), "1" + "0" * 5000,
    ], ids=["over-cap", "5000-digits"])
    def test_oversized_body_refused_unread(self, server, length):
        """The 413 arrives although no body byte was ever sent."""
        reply = _raw_exchange(
            server.url,
            b"POST /jobs HTTP/1.1\r\nContent-Length: %s\r\n\r\n"
            % length.encode("ascii"),
        )
        assert reply.startswith(b"HTTP/1.1 413 Payload Too Large")
        assert ServeClient(server.url).healthz()

    @pytest.mark.parametrize("length", ["-1", "ten", "1.5", "+2"])
    def test_malformed_content_length_is_400(self, server, length):
        reply = _raw_exchange(
            server.url,
            b"POST /jobs HTTP/1.1\r\nContent-Length: %s\r\n\r\n"
            % length.encode("ascii"),
        )
        assert reply.startswith(b"HTTP/1.1 400 Bad Request")
        assert b"Content-Length" in reply
        assert ServeClient(server.url).healthz()


class TestRemoteTier:
    def _seed_peer_store(self, monkeypatch, path):
        """A store with one real result entry, served by a peer server."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
        artifact_cache.reset_for_tests()
        job = GRID[0]
        parallel.execute_job(job, SETTINGS)
        kind, key = result_key(job, SETTINGS)
        assert artifact_cache.store().get(kind, key) is not None
        return kind, key

    def test_read_through_hit_and_write_through(
        self, tmp_path, monkeypatch
    ):
        kind, key = self._seed_peer_store(monkeypatch, tmp_path / "peer")
        peer = start_in_background()
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
            local.close()
        finally:
            peer.stop()

    def test_remote_miss_is_clean(self, tmp_path, monkeypatch):
        kind, key = self._seed_peer_store(monkeypatch, tmp_path / "peer")
        peer = start_in_background()
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
        (name,) = [n for n in os.listdir(str(tmp_path / "peer"))
                   if n.endswith(".seg")]
        with open(str(tmp_path / "peer" / name), "r+b") as fh:
            fh.seek(HEADER)  # the payload's first byte
            first = fh.read(1)
            fh.seek(HEADER)
            fh.write(bytes([first[0] ^ 0x20]))
        peer = start_in_background()
        try:
            local = CacheStore(
                str(tmp_path / "local"), 1 << 30, remote=peer.url
            )
            assert local.get(kind, key) is None
            assert local.remote_errors == 1 and local.remote_hits == 0
            assert not (tmp_path / "local").exists()  # nothing written
        finally:
            peer.stop()

    @pytest.mark.parametrize("payload", [
        b'{"bogus": 1}',
        b"[1, 2, 3]",
        pickle.dumps({"name": "crc"}),
        b"cos\nsystem\n(S'exit 3'\ntR.",
    ], ids=["wrong-keys", "list", "pickled-dict", "pickled-call"])
    def test_hostile_remote_is_a_clean_miss(self, tmp_path, monkeypatch,
                                            payload):
        """A peer that signs what it sends — a valid sha256 over JSON of
        the wrong shape, or over pickle bytes — is a counted remote
        error and a plain miss: nothing is unpickled and nothing is
        written through."""
        kind, key = result_key(GRID[0], SETTINGS)
        peer_dir = tmp_path / "peer"
        peer_dir.mkdir()
        (peer_dir / "00000000000000000001-1.seg").write_bytes(
            encode_entry(kind, key, payload))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(peer_dir))
        artifact_cache.reset_for_tests()

        def refuse(*_args, **_kwargs):
            raise AssertionError("a peer's bytes were unpickled")

        monkeypatch.setattr(pickle, "loads", refuse)
        monkeypatch.setattr(pickle, "load", refuse)
        monkeypatch.setattr(pickle, "Unpickler", refuse)
        peer = start_in_background()
        try:
            local = CacheStore(
                str(tmp_path / "local"), 1 << 30, remote=peer.url
            )
            decode = functools.partial(parallel._decode, GRID[0])
            assert local.get(kind, key, decode) is None
            assert local.remote_errors == 1 and local.remote_hits == 0
            assert local.misses == 1 and local.puts == 0
            assert not (tmp_path / "local").exists()
        finally:
            peer.stop()

    def test_store_never_imports_pickle(self):
        """Stored and fetched values are JSON: the store has no pickle
        to hand a peer's bytes to."""
        import importlib

        for name in ("repro.cache", "repro.cache.store"):
            module = importlib.import_module(name)
            assert "pickle" not in vars(module)
            with open(module.__file__, encoding="utf-8") as fh:
                assert "import pickle" not in fh.read()

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

    def test_cache_counters_match_stats_and_metrics(
        self, tmp_path, monkeypatch
    ):
        """The server's disk gets and puts reach ``/stats`` and
        ``/metrics`` alike."""
        jobs = [GRID[0], GRID[2],
                SimJob(workload="fft", config=(8, 4, 2, 0), size="tiny",
                       use_compiler=True),
                SimJob(workload="qsort", config=(8, 4, 2, 0), size="tiny",
                       salt=2, n_seeds=3, seed_stride=1)]
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        artifact_cache.reset_for_tests()
        sections.clear_cache()
        clear_trace_cache()
        COUNTERS.reset()
        handle = start_in_background()
        try:
            ServeClient(handle.url).run_jobs(jobs, SETTINGS)
            cache = handle.stats()["cache"]
            with urllib.request.urlopen(
                handle.url + "/metrics", timeout=10
            ) as resp:
                text = resp.read().decode("utf-8")
        finally:
            handle.stop()
        puts = [line for line in text.splitlines()
                if line.startswith("repro_cache_puts ")]
        assert cache["misses"] > 0 and cache["puts"] > 0
        assert puts == [f"repro_cache_puts {cache['puts']}"]
