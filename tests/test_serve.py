"""Sweep-as-a-service: the contracts documented in :mod:`repro.serve`.

Byte identity (served results == local results on a config grid, batch
jobs included), the dedupe funnel (single-flight coalescing simulates a
duplicate key once; repeat batches are answered from memory/disk
without re-simulating), the ledger's
``engine="served"`` reconciliation, and the ``--verify`` refusal on
both sides of the wire.

Servers run in-process on a background event-loop thread
(:func:`repro.serve.start_in_background`); the CI loopback job covers
the separate-process path.
"""

import json
import socket
import threading
import time
import urllib.parse
import urllib.request

import pytest

import repro.cache as artifact_cache
from repro.core.config import PolicyOptimizations
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


def _fig6_order(workloads, n_configs):
    """A sweep shaped like fig6's: configs (buffer spec, policy setting)
    outer, workloads inner, one schedule salt per workload."""
    configs = [(spec, opts) for spec in ((4, 2, 1, 0), (8, 4, 2, 0))
               for opts in PolicyOptimizations.all_settings()]
    return [
        SimJob(workload=name, config=spec, size="tiny", salt=salt,
               opts=opts)
        for spec, opts in configs[:n_configs]
        for salt, name in enumerate(workloads)
    ]


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """No ambient store, no leaked SERVED_EXECUTOR, clean section cache."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
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

    def test_job_to_dict_equals_asdict_form(self):
        from dataclasses import asdict

        from repro.core.config import PolicyOptimizations

        jobs = GRID + [SimJob(workload="crc", config=(16, 8, 4, 2),
                              opts=PolicyOptimizations.none(),
                              volatile_segments=("stack",))]
        for job in jobs:
            expected = asdict(job)
            expected["config"] = list(job.config)
            expected["volatile_segments"] = list(job.volatile_segments)
            encoded = job_to_dict(job)
            assert encoded == expected
            assert list(encoded) == list(expected)

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
        served = [parallel._decode(batch[i], by_idx[i]["result"])[0]
                  for i in (0, 2)]
        assert _dicts(served) == _dicts(local)
        stats = server.stats()["server"]
        assert stats["errors"] == 2 and stats["inflight"] == 0

    def test_bridge_walks_each_group_chunk_as_rows(self, server,
                                                   monkeypatch):
        """A cold batch in fig6 order (config outer, workload inner)
        walks as one ``simulate_batch`` call per (group, chunk), not one
        per job, and still matches a local run result for result and
        record for record; each event carries exactly its job's rows."""
        batch = _fig6_order(("crc", "rc4"), 40) + [GRID[4]]
        calls = []
        inner = parallel.simulate_batch

        def counting(trace, configs, *args, **kwargs):
            calls.append(len(configs))
            return inner(trace, configs, *args, **kwargs)

        monkeypatch.setattr(parallel, "simulate_batch", counting)
        events = _post_events(server.url, batch)
        monkeypatch.setattr(parallel, "simulate_batch", inner)
        # Per workload, 40 configs are two chunks (32 + 8); the
        # seed-repeat job is a group of its own (3 rows).
        assert sorted(calls) == [3, 8, 8, 32, 32]

        ledger = telemetry.LEDGER
        ledger.reset()
        ledger.enable()
        try:
            local = run_jobs(batch, SETTINGS)
            local_records = ledger.stable_records()
        finally:
            ledger.disable()
            ledger.reset()
        by_idx = {ev["idx"]: ev for ev in events[:-1]}
        served = [parallel._decode(job, by_idx[i]["result"])[0]
                  for i, job in enumerate(batch)]
        assert _dicts(served) == _dicts(local)
        fields = [name for name in local_records[0] if name != "index"]
        served_records = []
        for i, job in enumerate(batch):
            records = by_idx[i]["records"]
            assert sum(rec["rows"] for rec in records) == max(1, job.n_seeds)
            served_records += [{name: rec[name] for name in fields}
                               for rec in records]
        assert served_records == [
            {name: rec[name] for name in fields} for rec in local_records
        ]

    def test_failure_mid_walk_stays_isolated(self, tmp_path, monkeypatch):
        """A group walk that raises for one job of a chunk fails that
        job alone: the chunk reruns job by job, every other job is
        computed and stored once, and no event carries another job's
        records or a record twice."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        artifact_cache.reset_for_tests()
        batch = _fig6_order(("crc", "rc4"), 40)
        bad = batch[11]  # rc4, in the first chunk of its group
        assert bad.workload == "rc4"
        batch.append(bad)  # an in-batch duplicate of the failing job
        inner = parallel._simulate_group

        def failing(group, settings):
            if any(job == bad for job, _ in group):
                raise RuntimeError("walk failed")
            return inner(group, settings)

        puts = []
        put = type(artifact_cache.store()).put

        def counting_put(self, kind, key, obj):
            puts.append(key)
            return put(self, kind, key, obj)

        monkeypatch.setattr(parallel, "_simulate_group", failing)
        monkeypatch.setattr(type(artifact_cache.store()), "put",
                            counting_put)
        handle = start_in_background()
        try:
            events = _post_events(handle.url, batch)
            stats = handle.stats()["server"]
        finally:
            handle.stop()
        assert events[-1] == {"type": "done", "jobs": len(batch)}
        by_idx = {ev["idx"]: ev for ev in events[:-1]}
        failed = sorted(i for i, ev in by_idx.items() if "error" in ev)
        assert failed == [11, len(batch) - 1]
        assert by_idx[11]["error"] == "RuntimeError: walk failed"
        assert by_idx[len(batch) - 1]["error"] == by_idx[11]["error"]
        good = [i for i in range(len(batch)) if i not in failed]
        assert all(by_idx[i]["tier"] == "computed" for i in good)
        assert stats["tiers"]["computed"] == len(good)
        assert sorted(puts) == sorted(
            result_key(batch[i], SETTINGS)[1] for i in good
        )
        for i in good:
            job, records = batch[i], by_idx[i]["records"]
            assert [(r["workload"], r["config"], r["salt"], r["rows"])
                    for r in records] == [
                (job.workload, job.clank_config().label(), job.salt, 1)
            ]

    def test_unhashable_field_fails_alone(self, server):
        """A wire job whose field cannot be grouped fails in the batch's
        preparation, alone; its neighbours are still served."""
        bad = job_to_dict(GRID[1])
        bad["perf_watchdog"] = [1]
        body = json.dumps({
            "settings": settings_to_dict(SETTINGS),
            "jobs": [job_to_dict(GRID[0]), bad, job_to_dict(GRID[2])],
        }).encode("utf-8")
        req = urllib.request.Request(server.url + "/jobs", data=body,
                                     method="POST")
        with urllib.request.urlopen(req, timeout=60) as resp:
            events = [json.loads(line[len(b"data: "):]) for line in resp
                      if line.startswith(b"data: ")]
        by_idx = {ev["idx"]: ev for ev in events[:-1]}
        assert by_idx[1]["error"] == "TypeError: unhashable type: 'list'"
        assert by_idx[0]["tier"] == by_idx[2]["tier"] == "computed"

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


#: One of each stored form: scalar, seed-repeat rows, an allowed stall.
FORMS = [
    GRID[0],
    GRID[4],
    SimJob(workload="crc", config=(16, 8, 4, 4), size="tiny",
           schedule="runt", runt_mean=2, runt_fraction=1.0,
           max_power_cycles=50, allow_stall=True),
]


def _post_lines(url, jobs):
    """POST one batch and return its raw SSE ``data:`` lines."""
    body = json.dumps({
        "settings": settings_to_dict(SETTINGS),
        "jobs": [job_to_dict(job) for job in jobs],
    }).encode("utf-8")
    req = urllib.request.Request(url + "/jobs", data=body, method="POST")
    with urllib.request.urlopen(req, timeout=60) as resp:
        return [line.rstrip(b"\n") for line in resp
                if line.startswith(b"data: ")]


def _result_bytes(line):
    """The result bytes an answered job's line ends with."""
    assert line.endswith(b"}")
    return line.split(b',"result":', 1)[1][:-1]


def _by_idx(lines):
    """The answered jobs' lines in submission order (events arrive as
    jobs land; the last line is ``done``)."""
    events = [json.loads(line[len(b"data: "):]) for line in lines[:-1]]
    order = sorted(range(len(events)), key=lambda i: events[i]["idx"])
    return [lines[i] for i in order]


def _body(line):
    """An answered job's line after its per-reply header."""
    return line[line.index(b',"records":'):]


class TestSplicedReplies:
    """A warm served hit is the stored payload spliced into the SSE line:
    the server builds no trace and decodes or encodes no result."""

    @pytest.fixture()
    def warm(self, tmp_path, monkeypatch):
        """A store filled by a local run, then a fresh server on it with
        cold trace and section caches; yields ``(handle, store, local)``."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        artifact_cache.reset_for_tests()
        local = run_jobs(FORMS, SETTINGS)
        clear_trace_cache()
        sections.clear_cache()
        handle = start_in_background()
        try:
            yield handle, artifact_cache.store(), local
        finally:
            handle.stop()

    def test_disk_hits_build_and_decode_nothing(self, warm, monkeypatch):
        from repro.sim.batch import BatchResult
        from repro.sim.result import SimulationResult
        from repro.workloads.cache import cache_stats

        handle, st, local = warm
        calls = []

        def spy(cls, name):
            inner = cls.__dict__[name]
            fn = getattr(inner, "__func__", inner)

            def wrapper(*args, **kwargs):
                calls.append((name, threading.current_thread().name))
                return fn(*args, **kwargs)

            wrapped = classmethod(wrapper) if isinstance(
                inner, classmethod) else wrapper
            monkeypatch.setattr(cls, name, wrapped)

        for cls in (SimulationResult, BatchResult):
            spy(cls, "to_dict")
            spy(cls, "from_dict")
        builds = cache_stats()["misses"]
        lines = _by_idx(_post_lines(handle.url, FORMS))
        served = ServeClient(handle.url).run_jobs(FORMS, SETTINGS)
        me = threading.current_thread().name
        assert [c for c in calls if c[1] != me] == []
        assert cache_stats()["misses"] == builds
        assert handle.stats()["traces"]["misses"] == builds
        assert handle.stats()["server"]["tiers"]["disk"] == len(FORMS)
        assert _dicts(served) == _dicts(local)
        assert served[2] is None
        for job, line in zip(FORMS, lines):
            stored = st.get(*result_key(job, SETTINGS))
            assert _result_bytes(line) == stored
        assert _result_bytes(lines[2]) == b'"stalled"'

    def test_memory_and_coalesced_replies_equal_disk(self, warm):
        handle, _st, _local = warm
        first = _by_idx(_post_lines(handle.url, FORMS + FORMS))
        again = _by_idx(_post_lines(handle.url, FORMS))
        tiers = [json.loads(line[len(b"data: "):])["tier"]
                 for line in first + again]
        n = len(FORMS)
        assert tiers == ["disk"] * n + ["coalesced"] * n + ["memory"] * n
        for i in range(n):
            disk = _body(first[i])
            assert _body(first[n + i]) == disk == _body(again[i])

    def test_wrong_shape_entry_fails_the_client(self, warm):
        handle, st, local = warm
        bad = SimJob(workload="rc4", config=(4, 2, 1, 0), size="tiny",
                     salt=5)
        st.put(*result_key(bad, SETTINGS), {"bogus": 1})
        with pytest.raises(ServeError, match=r"job 1 \(rc4 4,2,1,0 salt=5\)"):
            ServeClient(handle.url).run_jobs([FORMS[0], bad], SETTINGS)
        assert ServeClient(handle.url).healthz()
        again = ServeClient(handle.url).run_jobs(FORMS, SETTINGS)
        assert _dicts(again) == _dicts(local)


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
            "memory", "coalesced", "disk", "computed"
        }
        assert set(snap["cache"]) == {
            "hits", "misses", "puts", "evictions", "errors"
        }

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
