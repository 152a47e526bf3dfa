"""One benchmark unit in a fresh interpreter: ``python -m bench.unit SPEC``.

``SPEC`` is a JSON object written by :mod:`bench.run`:

* ``workload``, ``seed``, ``smoke``: what to run (:mod:`bench.workloads`);
* ``mode``: ``"unit"`` (timed phase), ``"setup"`` (stop once ready;
  a set-up sample), ``"fixture"`` (fill the served_warm cache, untimed)
  or ``"build"`` (compile the C kernel and byte-code, nothing else);
* ``traced``: wrap the layers (:mod:`bench.layers`) for this unit;
* ``check``: after timing, re-run a seeded sample of jobs through the
  other engine and compare;
* ``server`` / ``server_pid``: the sweep server of a served unit;
* ``report`` / ``spans``: where to write the JSON report and span JSONL.

Set-up ends at the ``ready`` line on stdout, which the parent times.
"""

import dataclasses
import hashlib
import json
import os
import random
import resource
import signal
import sys
import time
import traceback
import urllib.request

from bench.probe import SpeedProbe


class JobSample:
    """A seeded reservoir of ``(job, result)`` pairs seen by ``run_jobs``.

    Installed in every unit so untraced units time the same code.  It
    wraps only ``run_jobs`` and costs about a microsecond per job.
    """

    def __init__(self, seed: int, size: int):
        self.rng = random.Random(seed * 1_000_003 + 11)
        self.size = size
        self.seen = 0
        self.pairs = []

    def install(self) -> None:
        from repro.eval import parallel

        from bench.layers import patch_everywhere

        inner = parallel.run_jobs

        def run_jobs(jobs, settings, n_workers=None):
            results = inner(jobs, settings, n_workers)
            self.observe(jobs, results)
            return results

        patch_everywhere({inner: run_jobs})

    def observe(self, jobs, results) -> None:
        pairs, size, rng = self.pairs, self.size, self.rng
        for pair in zip(jobs, results):
            self.seen += 1
            if len(pairs) < size:
                pairs.append(pair)
            else:
                slot = rng.randrange(self.seen)
                if slot < size:
                    pairs[slot] = pair

    def check(self, settings) -> list:
        """Re-run each sampled job with ``verify`` flipped — the verifying
        reference engine for fast results, the fast engine for verified
        ones — and return the mismatches.  A sampled seed-repeat job
        contributes one row, checked against the scalar job at
        ``salt + row * seed_stride``."""
        from repro.eval.parallel import execute_job
        from repro.sim.batch import BatchResult

        other = dataclasses.replace(settings, verify=not settings.verify)
        mismatches = []
        for job, result in self.pairs:
            if isinstance(result, BatchResult):
                row = self.rng.randrange(len(result.results))
                job = dataclasses.replace(
                    job, n_seeds=1, salt=job.salt + row * job.seed_stride
                )
                result = result.results[row]
            expected, _ = execute_job(job, other)
            if _comparable(result) != _comparable(expected):
                mismatches.append(
                    f"{job.workload} {job.config} salt={job.salt}"
                )
        return mismatches


def _comparable(result):
    if result is None:
        return None
    d = result.to_dict(include_derived=False)
    d.pop("verified", None)
    return d


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=60) as resp:
        return resp.read()


def scrape(url: str) -> dict:
    """The server's ``/stats`` tiers and ``/metrics`` sample lines."""
    stats = json.loads(_get(url + "/stats"))
    metrics = {}
    for line in _get(url + "/metrics").decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            metrics[name] = float(value)
    return {"tiers": stats["server"]["tiers"], "metrics": metrics}


def main(argv=None) -> int:
    probe = SpeedProbe().start()
    spec = json.loads((argv or sys.argv[1:])[0])
    report = {"ok": False}
    try:
        status = _run(spec, probe, report)
    except Exception:
        report["error"] = traceback.format_exc()
        status = 1
    probe.stop()
    with open(spec["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return status


def _run(spec: dict, probe: SpeedProbe, report: dict) -> int:
    from bench import workloads

    workload = workloads.WORKLOADS[spec["workload"]]
    mode = spec["mode"]
    if mode == "build":
        workload = dataclasses.replace(
            workload, drivers=workloads.ALL_DRIVERS, served="cold"
        )
    modules = workloads.prepare(workload)
    from repro.core.cext import chain_scan_lib, cext_status

    chain_scan_lib()
    settings = workloads.settings_for(
        workload, spec["seed"], spec.get("smoke", False)
    )
    client = None
    if workload.served and mode in ("unit", "setup"):
        from repro.serve import ServeClient, install

        client = ServeClient(spec["server"])
        if not client.healthz():
            raise RuntimeError(f"no sweep server at {spec['server']}")
        install(client)
    report["setup_norm"] = probe.norm(0)
    report["kernel"] = cext_status()
    print("ready", flush=True)
    if mode in ("build", "setup"):
        report["ok"] = True
        return 0

    from repro.obs import telemetry

    from bench.layers import LayerTracer, NullTracer

    telemetry.LEDGER.reset()
    telemetry.LEDGER.enable()
    sample = JobSample(spec["seed"], workloads.CHECK_SAMPLE)
    traced = spec.get("traced", False)
    tracer = NullTracer()
    if traced:
        tracer = LayerTracer("client" if client else "eval")
        tracer.install(probe)
    sample.install()
    if client is not None:
        report["serve_before"] = scrape(client.url)
    server_pid = spec.get("server_pid")

    if server_pid:
        os.kill(server_pid, signal.SIGUSR1)
    i0 = probe.mark()
    t0 = time.perf_counter()
    if traced:
        tracer.open_root()
    text = workloads.run_unit(workload, modules, settings,
                              spec.get("smoke", False), tracer)
    if traced:
        tracer.close_root()
    t1 = time.perf_counter()
    i1 = probe.mark()
    if server_pid:
        os.kill(server_pid, signal.SIGUSR2)

    report.update(
        timed_s=t1 - t0,
        norm=probe.norm(i0, i1),
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        runs=telemetry.LEDGER.total_rows(),
        digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        counters=workloads.collect_counters(),
    )
    if traced:
        report["layers"] = tracer.summary()
        tracer.write_spans(spec["spans"])
    if client is not None:
        report["serve_after"] = scrape(client.url)
    if spec.get("check"):
        report["checked"] = len(sample.pairs)
        report["mismatches"] = sample.check(settings)
    report["ok"] = True
    return 0


if __name__ == "__main__":
    sys.exit(main())
