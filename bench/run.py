"""One benchmark run: ``python -m bench --workload W --seed S --seconds N
--trace 0|1`` (see ``bench/README.md``).

The parent never imports ``repro``.  It spawns fresh interpreters for
everything it measures:

1. an untimed build child that compiles the C kernel into
   ``.bench_build/`` and warms the byte-code caches;
2. for ``served_warm``, an untimed fixture child that runs the workload's
   drivers locally on an empty cache directory, filling it;
3. *units* (:mod:`bench.unit`), one cold interpreter each, repeated until
   about ``--seconds`` of timed work is done.  Served units each get a
   fresh ``python -m bench.server`` on ``--jobs 1``.  With ``--trace 1``
   untraced and traced units alternate;
4. extra set-up samples until there are :data:`SETUP_SAMPLES`.

The last stdout line is the result JSON.  Everything the run writes
lives under the checkout's ``.bench_*`` directories.  The per-run
scratch directory is removed and every child is stopped on any exit.
"""

import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from bench.layers import GC_LAYER, PROBE_LAYER, ROOT_LAYER
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ".bench_build"
TMP_DIR = ".bench_tmp"
OUT_DIR = ".bench_out"

#: Set-up samples per untraced run (unit spawns plus extra probes).
SETUP_SAMPLES = 3
#: Stop starting units once a run has been going this long, so a run
#: always ends well inside its 180 s budget.
WALL_CAP_S = 100.0
UNIT_TIMEOUT_S = 150.0
BUILD_TIMEOUT_S = 840.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a program failure)."""


def _preexec(cpu):
    """``preexec_fn``: SIGKILL the child if the bench process dies, and
    pin it to one CPU (see :meth:`Session._spawn`)."""
    def setup() -> None:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})

    return setup


class Child:
    """One spawned process; stderr goes to a log file in the scratch dir."""

    def __init__(self, argv, env, cwd, log_path: Path, cpu=None):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
            preexec_fn=_preexec(cpu),
        )

    def readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise BenchError(f"no output within {timeout:.0f}s "
                             f"(see {self.log_path})")
        return self.proc.stdout.readline().decode("utf-8", "replace")

    def wait(self, timeout: float) -> int:
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError(f"timed out after {timeout:.0f}s "
                             f"(see {self.log_path})")
        return self.proc.returncode

    def stop(self, sig=signal.SIGKILL, timeout: float = 10.0) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
            try:
                self.proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        self._log.close()

    def log_tail(self, n: int = 2000) -> str:
        try:
            return self.log_path.read_text("utf-8", "replace")[-n:]
        except OSError:
            return ""


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text("utf-8"))
    except (OSError, ValueError):
        return {}


def _dir_bytes(path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


class Session:
    """Scratch directory, child environment and every live child of one
    run; leaving the ``with`` block stops the children and removes the
    scratch directory, however the run ends."""

    def __init__(self, root: Path, workload: str, seed: int, smoke: bool):
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.smoke = smoke
        self.tmp = root / TMP_DIR / f"run-{os.getpid()}"
        self.spans_dir = root / OUT_DIR / f"{workload}-seed{seed}"
        self.children = []
        self._n = 0
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        path = [str(root / "src"), str(root)]
        if env.get("PYTHONPATH"):
            path.append(env["PYTHONPATH"])
        env.update(
            PYTHONPATH=os.pathsep.join(path),
            PYTHONHASHSEED="0",
            REPRO_CEXT_CACHE=str(root / BUILD_DIR / "cext"),
            TMPDIR=str(self.tmp),
        )
        self.env = env

    def __enter__(self) -> "Session":
        (self.root / BUILD_DIR / "cext").mkdir(parents=True, exist_ok=True)
        self.tmp.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc) -> bool:
        for child in self.children:
            child.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            (self.root / TMP_DIR).rmdir()
        except OSError:
            pass
        return False

    def _spawn(self, argv, tag: str, cache_dir=None) -> Child:
        """Start a child.  With two or more CPUs, servers run on the
        first and everything else on the last: a served unit's client
        and server then never share a CPU, and each process's threads
        all run on the CPU its speed probe measures (a shared CPU's
        speed changes independently of its neighbour's)."""
        env = dict(self.env)
        if cache_dir is not None:
            env["REPRO_CACHE_DIR"] = str(cache_dir)
        self._n += 1
        cpus = sorted(os.sched_getaffinity(0))
        cpu = None
        if len(cpus) > 1:
            cpu = cpus[0] if tag == "server" else cpus[-1]
        child = Child([sys.executable] + argv, env, self.tmp,
                      self.tmp / f"{self._n:03d}-{tag}.log", cpu)
        self.children.append(child)
        return child

    def _spec(self, mode: str, **extra) -> dict:
        self._n += 1
        spec = {
            "workload": self.workload.name, "seed": self.seed,
            "smoke": self.smoke, "mode": mode,
            "report": str(self.tmp / f"{self._n:03d}-{mode}.json"),
        }
        spec.update(extra)
        return spec

    # -- children ------------------------------------------------------

    def unit_child(self, mode: str, cache_dir=None, timeout=UNIT_TIMEOUT_S,
                   **extra):
        """Run one :mod:`bench.unit` child; returns ``(setup_raw_s,
        report)``, where ``setup_raw_s`` is spawn-to-``ready`` wall."""
        spec = self._spec(mode, **extra)
        child = self._spawn(["-m", "bench.unit", json.dumps(spec)], mode,
                            cache_dir)
        setup = None
        line = child.readline(timeout)
        if line.startswith("ready"):
            setup = time.perf_counter() - child.t0
        code = child.wait(timeout)
        report = _read_json(Path(spec["report"]))
        if code != 0 and not report.get("error"):
            report["error"] = f"exit {code}: {child.log_tail()}"
        report["ok"] = code == 0 and report.get("ok", False)
        return setup, report

    def start_server(self, cache_dir, traced: bool):
        """Spawn ``bench.server`` and wait for ``/healthz``; returns
        ``(child, url, spec, setup_raw_s)``."""
        spec = self._spec("server", traced=traced,
                          spans=str(self.spans_dir / f"server-{self._n}.jsonl"))
        child = self._spawn(
            ["-m", "bench.server", json.dumps(spec), "--",
             "--host", "127.0.0.1", "--port", "0", "--jobs", "1"],
            "server", cache_dir,
        )
        line = child.readline(60.0)
        if not line.startswith("serving on "):
            child.stop()
            raise BenchError(f"server did not start: {child.log_tail()}")
        url = line.split()[-1]
        deadline = time.perf_counter() + 60.0
        while True:
            try:
                with urllib.request.urlopen(url + "/healthz", timeout=5) as r:
                    if r.status == 200:
                        break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                child.stop()
                raise BenchError("server never answered /healthz")
            time.sleep(0.005)
        return child, url, spec, time.perf_counter() - child.t0

    @staticmethod
    def stop_server(server) -> dict:
        child, _, spec, _ = server
        child.stop(signal.SIGINT, timeout=30.0)
        return _read_json(Path(spec["report"]))

    def build(self) -> str:
        """Untimed: compile the C kernel and warm byte-code caches."""
        _, report = self.unit_child("build", timeout=BUILD_TIMEOUT_S)
        if not report["ok"]:
            raise BenchError(f"build failed: {report.get('error')}")
        return report.get("kernel", "")

    # -- units ---------------------------------------------------------

    def unit(self, traced: bool, check: bool, cache_dir=None) -> dict:
        """One timed unit (plus its server, for served workloads)."""
        spans = str(self.spans_dir / f"unit-{self._n + 1}.jsonl")
        if not self.workload.served:
            setup, report = self.unit_child(
                "unit", traced=traced, check=check, spans=spans
            )
            return {"traced": traced, "client": report, "server": None,
                    "setup": _norm_setup(setup, report)}
        server = self.start_server(cache_dir, traced)
        try:
            setup, report = self.unit_child(
                "unit", traced=traced, check=check, spans=spans,
                server=server[1], server_pid=server[0].proc.pid,
            )
        finally:
            server_report = self.stop_server(server)
        setup_s = _norm_setup(setup, report)
        if setup_s is not None:
            setup_s += server[3] * server_report.get("setup_norm", 1.0)
        return {"traced": traced, "client": report,
                "server": server_report, "setup": setup_s}

    def setup_sample(self, cache_dir=None) -> float:
        """One extra set-up measurement (no timed phase)."""
        if not self.workload.served:
            setup, report = self.unit_child("setup")
            return _norm_setup(setup, report)
        server = self.start_server(cache_dir, False)
        try:
            setup, report = self.unit_child("setup", server=server[1])
        finally:
            server_report = self.stop_server(server)
        client = _norm_setup(setup, report)
        if client is None:
            return None
        return client + server[3] * server_report.get("setup_norm", 1.0)


def _norm_setup(raw, report):
    if raw is None or not report.get("ok"):
        return None
    return raw * report.get("setup_norm", 1.0)


# --------------------------------------------------------------------- #
# Metrics.
# --------------------------------------------------------------------- #


def _norm_time(unit: dict) -> float:
    """The unit's timed phase at the reference CPU speed.  A served
    unit is normalized by the server's speed: the server is the
    bottleneck (busy for 80-99% of the window), and the client's work
    overlaps with it.  Weighting both speeds by CPU time spread the
    results more."""
    speed = (unit["server"] or {}).get("norm") or unit["client"]["norm"]
    return unit["client"]["timed_s"] * speed


def _rss(unit: dict) -> float:
    return (unit["server"] or unit["client"])["rss_mb"]


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, value in b.items():
        if isinstance(value, dict):
            out[key] = _add(out.get(key, {}), value)
        elif isinstance(value, (int, float)):
            out[key] = out.get(key, 0) + value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(unit: dict) -> dict:
    """Per-layer values of one traced unit, summed over its processes."""
    procs = [p for p in (unit["client"], unit["server"]) if p]
    layers, counters = {}, {}
    for proc in procs:
        layers = _add(layers, proc.get("layers", {}))
        counters = _add(counters, proc.get("counters", {}))
    own = layers.get("self_s", {})
    incl = layers.get("incl_s", {})
    calls = layers.get("calls", {})
    sect = counters.get("sections", {})
    disp = counters.get("dispatch", {})
    bat = counters.get("batch", {})
    cache = counters.get("cache", {})
    client = unit["client"]
    before = client.get("serve_before", {})
    after = client.get("serve_after", {})

    def served(metric: str) -> float:
        return (after.get("metrics", {}).get(metric, 0.0)
                - before.get("metrics", {}).get(metric, 0.0))

    def tier(name: str) -> int:
        return (after.get("tiers", {}).get(name, 0)
                - before.get("tiers", {}).get(name, 0))

    def s(layer: str) -> float:
        return own.get(layer, 0.0)

    gets = cache.get("hits", 0) + cache.get("misses", 0)
    lookups = sect.get("hits", 0) + sect.get("misses", 0)
    m = {
        "workloads.build_s": s("workloads.build_s"),
        "workloads.builds": counters.get("traces", {}).get("misses", 0),
        "workloads.compile_s": s("workloads.compile_s"),
        "compiler.pi_s": s("compiler.pi_s"),
        "compiler.epoch_s": s("compiler.epoch_s"),
        "sim.sections.enum_s": s("sim.sections.enum_s"),
        "sim.sections.lookup_s": s("sim.sections.lookup_s"),
        "sim.sections.maps_built": sect.get("misses", 0),
        "sim.sections.family_passes": sect.get("family_passes", 0),
        "sim.sections.maps_per_pass": _ratio(sect.get("family_maps", 0),
                                             sect.get("family_passes", 0)),
        "sim.sections.hit_ratio": _ratio(sect.get("hits", 0), lookups),
        "sim.fast.walk_s": s("sim.fast.walk_s"),
        "sim.fast.runs": disp.get("fast", 0),
        "sim.fast.fallbacks": disp.get("fallback", 0),
        "sim.fast.us_per_run": 1e6 * _ratio(s("sim.fast.walk_s"),
                                            disp.get("fast", 0)),
        "sim.batch.walk_s": s("sim.batch.walk_s"),
        "sim.batch.rows": bat.get("rows_batched", 0),
        "sim.batch.rows_fallback": bat.get("rows_fallback", 0),
        "sim.batch.us_per_row": 1e6 * _ratio(s("sim.batch.walk_s"),
                                             bat.get("rows_batched", 0)),
        "power.draw_s": s("power.draw_s"),
        "sim.simulator.sim_s": s("sim.simulator.sim_s"),
        "sim.simulator.runs": calls.get("sim.simulator.sim_s", 0),
        "sim.undo_log.sim_s": s("sim.undo_log.sim_s"),
        "sim.undo_log.runs": calls.get("sim.undo_log.sim_s", 0),
        "sim.result.encode_s": s("sim.result.encode_s"),
        "sim.result.decode_s": s("sim.result.decode_s"),
        "sim.result.encodes": calls.get("sim.result.encode_s", 0),
        "sim.result.decodes": calls.get("sim.result.decode_s", 0),
        "cache.key_s": s("cache.key_s"),
        "cache.get_s": s("cache.get_s"),
        "cache.put_s": s("cache.put_s"),
        "cache.persist_s": s("cache.persist_s"),
        "cache.gets": gets,
        "cache.puts": cache.get("puts", 0),
        "cache.hit_ratio": _ratio(cache.get("hits", 0), gets),
        "cache.bytes_written": unit.get("bytes_written", 0),
        "eval.job_s": s("eval.job_s"),
        "eval.run_jobs_s": s("eval.run_jobs_s"),
        "eval.driver_s": s("eval.driver_s"),
        "eval.render_s": s("eval.render_s"),
        "obs.ledger_s": s("obs.ledger_s"),
        "obs.ledger_records": calls.get("obs.ledger_s", 0),
        "serve.client_s": incl.get("serve.wait_s", 0.0),
        "serve.encode_s": s("serve.encode_s"),
        "serve.wait_s": s("serve.wait_s"),
        "serve.request_s": served(
            'repro_http_request_seconds_sum{endpoint="/jobs"}'),
        "serve.sse_s": served("repro_sse_stream_seconds_sum"),
        "serve.server_busy_frac": _ratio(
            (unit["server"] or {}).get("cpu_s", 0.0), client["timed_s"]),
        "serve.loop_s": (unit["server"] or {}).get("loop_cpu_s", 0.0),
        "py.gc_s": s(GC_LAYER),
        "py.gc_collections": layers.get("gc_collections", 0),
        "bench.unattributed_s": s(ROOT_LAYER),
        "bench.probe_s": s(PROBE_LAYER),
    }
    for name in ("memory", "disk", "computed"):
        # Mean latency per job of the tier.  A batch's jobs are all in the
        # funnel at once, so this includes their wait for the bridge.
        label = f'{{tier="{name}"}}'
        m[f"serve.resolve_s.{name}"] = _ratio(
            served(f"repro_resolve_seconds_sum{label}"),
            served(f"repro_resolve_seconds_count{label}"))
        m[f"serve.jobs.{name}"] = tier(name)
    return m


def reconciliation(unit: dict) -> list:
    """``(process, root wall, sum of self times)`` per traced process."""
    rows = []
    for label in ("client", "server"):
        layers = (unit[label] or {}).get("layers")
        if layers:
            rows.append((label, layers["wall_s"], layers["self_sum_s"]))
    return rows


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(units: list, setups: list, trace: bool) -> dict:
    """The metrics of a run (``end_to_end`` or ``per_layer`` names)."""
    plain = [u for u in units if not u["traced"] and u["client"]["ok"]]
    if not trace:
        return {
            "runs_per_s": _median([u["client"]["runs"] / _norm_time(u)
                                   for u in plain]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([_rss(u) for u in plain]),
        }
    traced = [u for u in units if u["traced"] and u["client"]["ok"]]
    per_unit = [layer_metrics(u) for u in traced]
    out = {name: sum(m[name] for m in per_unit) / len(per_unit)
           for name in per_unit[0]} if per_unit else {}
    out["bench.trace_overhead_frac"] = (
        _median([_norm_time(u) for u in traced])
        / _median([_norm_time(u) for u in plain]) - 1.0
        if traced and plain else 0.0
    )
    return out


def correctness(units: list, fixture) -> list:
    """Every reason the run's outputs are not trustworthy (empty = ok)."""
    problems = []
    digests = set()
    for i, unit in enumerate(units):
        client = unit["client"]
        if not client["ok"]:
            problems.append(f"unit {i} failed: {client.get('error', '')}")
            continue
        digests.add(client["digest"])
        if client.get("mismatches"):
            problems.append(f"unit {i}: {len(client['mismatches'])} of "
                            f"{client['checked']} sampled jobs differ from "
                            f"the other engine: {client['mismatches'][:3]}")
        if fixture is not None:
            computed = (client["serve_after"]["tiers"]["computed"]
                        - client["serve_before"]["tiers"]["computed"])
            if computed:
                problems.append(f"unit {i}: warm server simulated "
                                f"{computed} jobs")
    if fixture is not None:
        if not fixture["ok"]:
            problems.append(f"fixture failed: {fixture.get('error', '')}")
        else:
            digests.add(fixture["digest"])
    if len(digests) > 1:
        problems.append(f"rendered outputs differ between units: "
                        f"{sorted(d[:12] for d in digests)}")
    return problems


# --------------------------------------------------------------------- #
# Entry point.
# --------------------------------------------------------------------- #


def declared_units(root: Path, trace: bool) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, root: Path = ROOT, log=sys.stdout) -> dict:
    """Execute one run; returns the result line (``"result"``) and, for
    inspection, the unit and fixture reports and every computed metric."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {root}/src/repro is "
                         "missing")
    units_of = declared_units(root, trace)
    with Session(root, workload, seed, smoke) as session:
        kernel = session.build()
        print(f"[build] chain-scan kernel: {kernel}", file=log)
        if trace:
            shutil.rmtree(session.spans_dir, ignore_errors=True)
            session.spans_dir.mkdir(parents=True, exist_ok=True)
        fixture = cache_dir = None
        bytes_before = 0
        if session.workload.served == "warm":
            cache_dir = session.tmp / "fixture-cache"
            _, fixture = session.unit_child("fixture", cache_dir=cache_dir)
            bytes_before = _dir_bytes(cache_dir)
            print(f"[fixture] local fill: {fixture.get('timed_s', 0):.2f} s, "
                  f"{fixture.get('runs', 0)} runs, "
                  f"{bytes_before / 1e6:.0f} MB in the cache", file=log)
        started = time.perf_counter()
        units = []
        timed = 0.0
        while True:
            traced = trace and len(units) % 2 == 1
            unit_cache = cache_dir
            if session.workload.served == "cold":
                unit_cache = session.tmp / f"cold-cache-{len(units)}"
                bytes_before = 0
            unit = session.unit(traced, check=not units, cache_dir=unit_cache)
            if traced and unit_cache is not None:
                unit["bytes_written"] = _dir_bytes(unit_cache) - bytes_before
            if session.workload.served == "cold":
                shutil.rmtree(unit_cache, ignore_errors=True)
            units.append(unit)
            _print_unit(len(units) - 1, unit, log)
            if not unit["client"]["ok"]:
                break
            timed += unit["client"]["timed_s"]
            enough = len(units) >= (2 if trace else 1)
            if enough and (timed + timed / len(units) / 2 >= seconds
                           or time.perf_counter() - started > WALL_CAP_S):
                break
        setups = [u["setup"] for u in units
                  if u["setup"] is not None and not u["traced"]]
        while not trace and units[-1]["client"]["ok"] \
                and len(setups) < SETUP_SAMPLES:
            sample = session.setup_sample(cache_dir or
                                          session.tmp / "setup-cache")
            if sample is None:
                break
            setups.append(sample)
    problems = correctness(units, fixture)
    metrics = summarize(units, setups, trace)
    ok_runs = [u["client"]["runs"] for u in units if u["client"]["ok"]]
    failed_units = sum(1 for u in units if not u["client"]["ok"])
    failed = failed_units * max(1, int(_median(ok_runs)))
    if fixture is not None and not fixture["ok"]:
        failed += 1
    result = {
        "correct": not problems,
        "attempted": sum(ok_runs) + failed,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units_of.items()
        },
    }
    for problem in problems:
        print(f"[incorrect] {problem}", file=log)
    _print_metrics(result["metrics"], log)
    if trace:
        for i, unit in enumerate(units):
            for label, wall, total in reconciliation(unit):
                print(f"[reconcile] unit {i} {label}: root wall {wall:.4f} s,"
                      f" sum of self times {total:.4f} s", file=log)
        print(f"[trace] spans in {session.spans_dir}; merge with: python -m "
              f"repro.obs.tracing merge {session.spans_dir}/*.jsonl",
              file=log)
    return {"result": result, "units": units, "fixture": fixture,
            "metrics": metrics}


def _print_unit(i: int, unit: dict, log) -> None:
    client = unit["client"]
    if not client["ok"]:
        print(f"[unit {i}] FAILED\n{client.get('error', '')}", file=log)
        return
    print(f"[unit {i}{' traced' if unit['traced'] else ''}] "
          f"{client['runs']} runs in {client['timed_s']:.3f} s "
          f"({_norm_time(unit):.3f} s at reference speed), "
          f"peak RSS {_rss(unit):.0f} MB, digest {client['digest'][:12]}",
          file=log)


def _print_metrics(metrics: dict, log) -> None:
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']}", file=log)
