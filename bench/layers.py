"""Outside-in layer tracing for the traced run.

The benchmark never edits the program to time it.  Instead the traced
run wraps the public functions each layer is entered through
(:data:`TARGETS`) from outside: a function is replaced at every module
attribute that ``is`` the original (so ``from repro.sim.fast import
simulate_fast`` copies are caught too), and a method is replaced on its
class.

Each wrapped call becomes one span built with
:func:`repro.obs.tracing.make_span` and kept in memory, then written as
JSONL at exit, so ``python -m repro.obs.tracing merge`` renders the
client and server exports as one Chrome timeline.

Self times are aggregated on the fly.  At every span entry or exit the
time since the previous event is charged to the most recently entered
span that is still open, in any thread of the process.  Single-threaded
code therefore gets the usual "span minus child spans".  The server's
event-loop and bridge threads share one clock, and the self times of a
process always sum to the time its root span was open.  Garbage
collection (``gc.callbacks``) and the speed probe are their own layers,
so a collection or a probe inside ``simulate_fast`` is not billed to
the fast walk.
"""

import contextlib
import functools
import gc
import importlib
import os
import sys
import threading
import time

#: ``(module, attribute path, layer)`` for every wrapped entry point.
#: Layers named ``*_s`` are self seconds; several entry points can feed
#: one layer.
TARGETS = (
    ("repro.workloads.cache", "get_trace", "workloads.build_s"),
    ("repro.trace.trace", "CompiledTrace.__init__", "workloads.compile_s"),
    ("repro.compiler.program_idempotence", "profile_program_idempotent",
     "compiler.pi_s"),
    ("repro.compiler.epoch_analysis", "compile_with_epochs",
     "compiler.epoch_s"),
    ("repro.sim.sections", "get_section_map", "sim.sections.lookup_s"),
    ("repro.sim.sections", "SectionMap.__init__", "sim.sections.enum_s"),
    ("repro.sim.sections", "build_family", "sim.sections.enum_s"),
    ("repro.sim.sections", "prefetch_family", "sim.sections.enum_s"),
    ("repro.sim.fast", "simulate_fast", "sim.fast.walk_s"),
    ("repro.sim.batch", "simulate_batch", "sim.batch.walk_s"),
    ("repro.power.schedules", "ExponentialPower.batch", "power.draw_s"),
    ("repro.power.schedules", "ScheduleBatch.ensure_columns",
     "power.draw_s"),
    ("repro.eval.settings", "EvalSettings.schedule", "power.draw_s"),
    ("repro.sim.simulator", "IntermittentSimulator.run",
     "sim.simulator.sim_s"),
    ("repro.sim.undo_log", "UndoLogSimulator.run", "sim.undo_log.sim_s"),
    ("repro.sim.result", "SimulationResult.to_dict", "sim.result.encode_s"),
    ("repro.sim.result", "SimulationResult.from_dict",
     "sim.result.decode_s"),
    ("repro.sim.batch", "BatchResult.to_dict", "sim.result.encode_s"),
    ("repro.sim.batch", "BatchResult.from_dict", "sim.result.decode_s"),
    ("repro.eval.parallel", "result_key", "cache.key_s"),
    ("repro.cache.store", "CacheStore.get", "cache.get_s"),
    ("repro.cache.store", "CacheStore.put", "cache.put_s"),
    ("repro.cache", "persist_caches", "cache.persist_s"),
    ("repro.eval.parallel", "execute_job", "eval.job_s"),
    ("repro.eval.parallel", "run_jobs", "eval.run_jobs_s"),
    ("repro.obs.telemetry", "RunLedger.record", "obs.ledger_s"),
    ("repro.serve.client", "ServeClient.run_jobs", "serve.wait_s"),
    ("repro.serve.jsonio", "job_to_dict", "serve.encode_s"),
)

_get_ident = threading.get_ident
_perf_counter = time.perf_counter

ROOT_LAYER = "bench.unattributed_s"
GC_LAYER = "py.gc_s"
PROBE_LAYER = "bench.probe_s"

#: Spans kept for the JSONL export; later spans are only counted (the
#: self-time aggregates stay exact either way).
MAX_SPANS = 200_000


def patch_everywhere(replacements: dict) -> None:
    """Replace each key function by its value at every module attribute
    that *is* the function (covers ``from module import name`` copies).
    Call after every module that binds one has been imported; modules
    that import the name later read the patched attribute."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for name, value in list(namespace.items()):
            if callable(value):
                try:
                    new = replacements.get(value)
                except TypeError:  # unhashable callable
                    continue
                if new is not None:
                    setattr(module, name, new)


class NullTracer:
    """Stands in for :class:`LayerTracer` in untraced units."""

    active = False

    @staticmethod
    def span(name: str, layer: str):
        return contextlib.nullcontext()


class LayerTracer:
    """Span recorder and self-time accountant for one process.

    An open span is a small list ``[layer, t0, thread id, index, parent
    index, name]``.  A finished one is kept as a tuple, and becomes a
    :func:`~repro.obs.tracing.make_span` dict only at export.  That keeps
    the traced run's own allocations, and so its extra garbage
    collection, small.
    """

    def __init__(self, service: str):
        self.service = service
        self.active = False
        self.spans = []
        self.dropped = 0
        self.self_s = {}
        self.incl_s = {}
        self.calls = {}
        self.gc_collections = 0
        self.wall_s = 0.0
        self._open = []
        self._next = 0
        self._lock = threading.Lock()
        self._last = time.perf_counter()
        self._gc_span = None
        self._root = None

    # -- accounting ------------------------------------------------------
    #
    # Both methods charge the time since the previous event to the span
    # on top of ``_open`` (the most recently entered one still open).
    # Nothing inside the lock allocates a GC-tracked object, so no
    # collection (and no GC callback) can start while it is held.

    def enter(self, name: str, layer: str, blocking: bool = True):
        """Open a span; returns it, or ``None`` when ``blocking`` is off
        and the accounting lock is busy (signal and GC callbacks must
        never wait on a lock their own thread may hold)."""
        tid = _get_ident()
        span = [layer, 0.0, tid, 0, -1, name]
        lock = self._lock
        if not lock.acquire(blocking):
            return None
        try:
            now = _perf_counter()
            open_spans = self._open
            if open_spans:
                top = open_spans[-1]
                own = self.self_s
                own[top[0]] = own.get(top[0], 0.0) + now - self._last
                for i in range(len(open_spans) - 1, -1, -1):
                    if open_spans[i][2] == tid:
                        span[4] = open_spans[i][3]
                        break
            self._last = now
            span[1] = now
            span[3] = self._next
            self._next += 1
            open_spans.append(span)
        finally:
            lock.release()
        return span

    def exit(self, span):
        """Close a span; returns its end time (``None`` for ``None``)."""
        if span is None:
            return None
        layer = span[0]
        lock = self._lock
        lock.acquire()
        try:
            now = _perf_counter()
            open_spans = self._open
            top = open_spans[-1]
            own = self.self_s
            own[top[0]] = own.get(top[0], 0.0) + now - self._last
            self._last = now
            if top is span:
                open_spans.pop()
            else:
                open_spans.remove(span)
            calls = self.calls
            calls[layer] = calls.get(layer, 0) + 1
            incl = self.incl_s
            incl[layer] = incl.get(layer, 0.0) + now - span[1]
        finally:
            lock.release()
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span[5], layer, span[1], now, span[3], span[4]))
        else:
            self.dropped += 1
        return now

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            if self.active:
                self._gc_span = self.enter("gc", GC_LAYER, blocking=False)
        else:
            span, self._gc_span = self._gc_span, None
            if span is not None:
                self.gc_collections += 1
                self.exit(span)

    def _on_probe_enter(self):
        if not self.active:
            return None
        return self.enter("speed probe", PROBE_LAYER, blocking=False)

    # -- lifecycle -------------------------------------------------------

    def install(self, probe=None) -> None:
        """Wrap every target (importing its module first) and hook GC and
        the speed probe; recording starts with :meth:`open_root`."""
        functions = {}
        for module_name, path, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = module
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, path, layer))
                else:
                    wrapped = self._wrap(raw, path, layer)
                setattr(owner, attr, wrapped)
            else:
                fn = getattr(module, attr)
                functions[fn] = self._wrap(fn, path, layer)
        patch_everywhere(functions)
        gc.callbacks.append(self._on_gc)
        if probe is not None:
            probe.on_enter = self._on_probe_enter
            probe.on_exit = self.exit

    def _wrap(self, fn, name: str, layer: str):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(span)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Context manager for a bench-level span (driver run/render)."""
        span = self.enter(name, layer) if self.active else None
        try:
            yield
        finally:
            self.exit(span)

    def open_root(self, name: str = "bench.window") -> None:
        """Start recording: the root span covers the measured window.
        Never call this (or :meth:`close_root`) from a signal handler."""
        self.active = True
        self._root = self.enter(name, ROOT_LAYER)

    def close_root(self) -> None:
        root, self._root = self._root, None
        self.wall_s += self.exit(root) - root[1]
        self.active = False

    def summary(self) -> dict:
        """Per-layer self/inclusive seconds and call counts, plus the
        reconciliation of self times against the root span's wall."""
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "gc_collections": self.gc_collections,
            "wall_s": self.wall_s,
            "self_sum_s": sum(self.self_s.values()),
            "dropped_spans": self.dropped,
        }

    def write_spans(self, path: str) -> None:
        """Export as :mod:`repro.obs.tracing` JSONL (one trace id per
        process; span ids are the process-unique span indices)."""
        from repro.obs.tracing import make_span, write_spans

        trace_id = os.urandom(8).hex()
        prefix = os.urandom(4).hex()
        spans = []
        for name, layer, t0, t1, index, parent in self.spans:
            span = make_span(
                name, self.service, trace_id=trace_id,
                parent_id=f"{prefix}{parent:08x}" if parent >= 0 else None,
                attrs={"layer": layer},
            )
            span.update(span_id=f"{prefix}{index:08x}", t0=t0, t1=t1)
            spans.append(span)
        write_spans(spans, path)
