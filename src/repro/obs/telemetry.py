"""Run-provenance telemetry: which engine ran each simulation, and why.

The performance stack (fork pool, compiled replay, section-memoized fast
path, persistent result cache) serves almost every simulator run, and the
paper's methodology rests on every path being bit-identical.  Trusting
that acceleration requires *provenance*: for each run, which engine
actually produced the result, which cache tier served it, which section
walker (C or Python) replayed it, and — when the fast path refused — the
typed reason.  This module records exactly that, once per run at the
dispatch point (never per access), so telemetry can stay on without
changing which engine runs or how fast it runs.

* :class:`FallbackReason` — the closed set of reasons
  :func:`repro.sim.fast.simulate_fast` hands a run to the reference
  simulator.
* :class:`RunRecord` — one run's provenance: workload, configuration key,
  engine (``fast`` / ``reference`` / ``disk-cached-result`` / ``undo`` /
  ``stalled``), fallback reason, section walker, result-cache tier
  outcome, and wall time — the one per-run timer (the run profile's
  simulator section sums it).  :meth:`RunRecord.stable_dict` drops the
  wall-time fields (``wall_s``, ``t_start``, ``worker``) so ledgers can be
  compared across worker counts.
* :class:`RunLedger` — the per-process collector.  The eval CLI enables
  the shared :data:`LEDGER`; :func:`repro.eval.parallel.execute_job`
  and the sweep-server client (:mod:`repro.serve.client`) append to it,
  and :func:`repro.eval.parallel.run_jobs` merges fork-pool workers' records
  back in **submission order**, so a sweep's ledger is deterministic at
  any worker count (modulo the wall-time fields).
* :func:`read_ledger` — load a ledger JSONL file back into a
  :class:`Ledger` (header, run records, driver marks, footer).

Recording is opt-in (``LEDGER.enabled`` defaults to False) and costs one
small object append per *run*; the CI guard
(``benchmarks/null_recorder_guard.py``) checks that cost against a 2%
budget over a warm ``execute_job`` sweep.
"""

import json
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from typing import Dict, List, Optional

__all__ = [
    "ENGINE_BATCH",
    "ENGINE_CACHED",
    "ENGINE_FAST",
    "ENGINE_REFERENCE",
    "ENGINE_SERVED",
    "ENGINE_STALLED",
    "ENGINE_UNDO",
    "FallbackReason",
    "LEDGER",
    "Ledger",
    "RunLedger",
    "RunRecord",
    "read_ledger",
]

#: Engine values a :class:`RunRecord` can carry.
ENGINE_FAST = "fast"
ENGINE_REFERENCE = "reference"
ENGINE_CACHED = "disk-cached-result"
ENGINE_UNDO = "undo"
ENGINE_STALLED = "stalled"
ENGINE_BATCH = "batch"
#: The job was resolved by a sweep server (``--server``); the record's
#: ``result_cache`` carries the server-side dedupe tier.
ENGINE_SERVED = "served"


class FallbackReason(Enum):
    """Why :func:`repro.sim.fast.simulate_fast` ran the reference simulator.

    The first five mirror the eligibility checks documented in
    :mod:`repro.sim.fast`; ``DISABLED`` is the ``REPRO_FAST=0`` escape
    hatch.
    """

    VERIFY = "verify"
    LIVE_RECORDER = "live_recorder"
    VOLATILE_RANGES = "volatile_ranges"
    PI_HAZARD = "pi_hazard"
    WATCHDOG_CUT = "watchdog_cut"
    DISABLED = "disabled"


#: Ledger fields that carry wall-clock (non-deterministic) data.
WALL_TIME_FIELDS = ("wall_s", "t_start", "worker")

#: Line types a ledger JSONL file may contain.
LEDGER_LINE_TYPES = frozenset(("sweep_start", "run", "driver", "sweep_end"))


@dataclass
class RunRecord:
    """Provenance of one policy-simulator run.

    Attributes:
        workload: Workload name.
        config: Configuration key (``ClankConfig.label()``).
        engine: What produced the result — ``fast``, ``reference``,
            ``disk-cached-result``, ``undo``, or ``stalled`` (the run
            aborted without forward progress under ``allow_stall``).
        fallback_reason: :class:`FallbackReason` value when the engine is
            ``reference`` and the run went through ``simulate_fast``.
        kernel: The section walker that served the run — ``c`` (the C
            section walk, which also serves every ``batch`` row) or
            ``python`` (``FastReplaySimulator.run``); ``None`` for runs
            no section walk served.
        result_cache: Whole-result disk-cache tier outcome — ``hit``,
            ``miss``, or ``off`` (tier not consulted: no store, or the
            call site has no result key, e.g. ``--verify``).  For
            ``engine="served"`` records it instead names the server-side
            dedupe tier that answered: ``memory``, ``coalesced``,
            ``disk``, ``remote``, or ``computed``.
        size: Workload size preset.
        salt: Power-schedule salt.
        driver: Experiment driver active when the run was dispatched.
        stalled: The run ended in a no-forward-progress abort.
        rows: Simulator runs this record stands for.  1 for scalar runs;
            a batched seed-repeat job (engine ``batch``) folds all its
            walked rows into one record, so aggregates weight by
            ``rows`` and ledger totals still reconcile run-for-run.
        wall_s: Wall-clock seconds inside the engine (0 for cached).
        t_start: Run start, seconds since the ledger epoch.
        worker: PID of the process that executed the run.
        index: Submission-order position in the ledger (assigned on
            append, identical at any worker count).
    """

    workload: str
    config: str
    engine: str
    fallback_reason: Optional[str] = None
    kernel: Optional[str] = None
    result_cache: str = "off"
    size: str = "default"
    salt: int = 0
    driver: Optional[str] = None
    stalled: bool = False
    rows: int = 1
    wall_s: float = 0.0
    t_start: float = 0.0
    worker: int = 0
    index: int = -1

    def to_dict(self) -> dict:
        d = {"type": "run"}
        d.update(asdict(self))
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})

    def stable_dict(self) -> dict:
        """The deterministic projection: everything but wall-time fields.

        Two sweeps of the same jobs at different worker counts produce
        identical ``stable_dict`` sequences (the determinism contract the
        tests pin).
        """
        d = asdict(self)
        for key in WALL_TIME_FIELDS:
            d.pop(key, None)
        return d


class RunLedger:
    """Per-process run-provenance collector (see module docstring).

    Disabled by default: :meth:`record` is a cheap no-op until
    :meth:`enable` is called, so library users and the test suite pay
    nothing unless they opt in.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.records: List[RunRecord] = []
        self.driver: Optional[str] = None
        self.driver_marks: List[dict] = []
        self.epoch = time.perf_counter()
        self._stream = None

    # -- lifecycle -----------------------------------------------------

    def enable(self) -> "RunLedger":
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all records and marks and restart the epoch."""
        self.records.clear()
        self.driver_marks.clear()
        self.driver = None
        self.epoch = time.perf_counter()
        self.stop_stream()

    def now(self) -> float:
        """Seconds since the ledger epoch (fork-safe: children inherit
        the epoch and ``perf_counter`` is system-wide on Linux)."""
        return time.perf_counter() - self.epoch

    # -- live streaming ------------------------------------------------

    def stream_to(self, path: str, header: Optional[dict] = None) -> None:
        """Append every subsequent record to ``path`` as it lands.

        The stream is a live, *incomplete* view for ``python -m
        repro.obs.watch`` to tail — a ``sweep_start`` line then one
        ``run`` line per record, flushed per record so a follower sees
        them mid-sweep.  :meth:`write_jsonl` to the same path at sweep
        end replaces it with the complete authoritative ledger (driver
        marks, footer aggregates).
        """
        self.stop_stream()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        head = {"type": "sweep_start", "version": 1, "streaming": True}
        head.update(header or {})
        self._stream = open(path, "w", encoding="utf-8")
        self._stream.write(json.dumps(head) + "\n")
        self._stream.flush()

    def stop_stream(self) -> None:
        """Close the live stream, if any (idempotent)."""
        if self._stream is not None:
            try:
                self._stream.close()
            except OSError:
                pass
            self._stream = None

    # -- recording -----------------------------------------------------

    def record(self, rec: RunRecord) -> None:
        """Append one run record (no-op when disabled).

        The submission-order ``index`` is assigned here, so merged
        worker records land with the same indices a serial run would
        produce.
        """
        if not self.enabled:
            return
        rec.index = len(self.records)
        self.records.append(rec)
        if self._stream is not None:
            self._stream.write(json.dumps(rec.to_dict()) + "\n")
            self._stream.flush()

    @contextmanager
    def driver_phase(self, name: str):
        """Mark a driver's span; runs recorded inside carry its name."""
        prev = self.driver
        self.driver = name
        t0 = self.now()
        try:
            yield self
        finally:
            self.driver = prev
            if self.enabled:
                self.driver_marks.append(
                    {"name": name, "t0": t0, "t1": self.now()}
                )

    # -- aggregation ---------------------------------------------------

    def _count_by(self, key) -> Dict[str, int]:
        """Row-weighted counts: a batch record stands for ``rows`` runs,
        so aggregates reconcile against per-run totals either way."""
        out: Dict[str, int] = {}
        for rec in self.records:
            k = key(rec)
            if k is None:
                continue
            out[k] = out.get(k, 0) + rec.rows
        return out

    def total_rows(self) -> int:
        """Simulator runs represented (each record weighted by its rows)."""
        return sum(rec.rows for rec in self.records)

    def engine_counts(self) -> Dict[str, int]:
        return self._count_by(lambda r: r.engine)

    def fallback_counts(self) -> Dict[str, int]:
        return self._count_by(lambda r: r.fallback_reason)

    def kernel_counts(self) -> Dict[str, int]:
        return self._count_by(lambda r: r.kernel)

    def result_cache_counts(self) -> Dict[str, int]:
        return self._count_by(lambda r: r.result_cache)

    def stable_records(self) -> List[dict]:
        """The deterministic ledger projection (see ``RunRecord``)."""
        return [rec.stable_dict() for rec in self.records]

    # -- serialization -------------------------------------------------

    def write_jsonl(
        self,
        path: str,
        header: Optional[dict] = None,
        footer: Optional[dict] = None,
    ) -> None:
        """Write the ledger as JSONL: one ``sweep_start`` line, one line
        per run, one per driver mark, and a closing ``sweep_end`` line
        carrying the engine/fallback/kernel/cache-tier aggregates (plus
        whatever the caller folds into ``footer``)."""
        head = {"type": "sweep_start", "version": 1}
        head.update(header or {})
        tail = {
            "type": "sweep_end",
            "runs": len(self.records),
            "rows": self.total_rows(),
            "engines": self.engine_counts(),
            "fallback_reasons": self.fallback_counts(),
            "kernels": self.kernel_counts(),
            "result_cache": self.result_cache_counts(),
        }
        tail.update(footer or {})
        # The complete ledger supersedes any live stream (possibly to
        # this very path) — close it before rewriting.
        self.stop_stream()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(head) + "\n")
            for rec in self.records:
                fh.write(json.dumps(rec.to_dict()) + "\n")
            for mark in self.driver_marks:
                line = {"type": "driver"}
                line.update(mark)
                fh.write(json.dumps(line) + "\n")
            fh.write(json.dumps(tail) + "\n")


@dataclass
class Ledger:
    """A ledger file loaded back into memory."""

    header: dict = field(default_factory=dict)
    records: List[RunRecord] = field(default_factory=list)
    drivers: List[dict] = field(default_factory=list)
    footer: dict = field(default_factory=dict)

    def stable_records(self) -> List[dict]:
        return [rec.stable_dict() for rec in self.records]


def read_ledger(path: str) -> Ledger:
    """Load a run-ledger JSONL file.

    Blank lines are skipped; a malformed or non-ledger line raises
    ``ValueError`` with its line number.
    """
    ledger = Ledger()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: bad ledger line: {exc}")
            kind = obj.get("type") if isinstance(obj, dict) else None
            if kind == "run":
                ledger.records.append(RunRecord.from_dict(obj))
            elif kind == "sweep_start":
                ledger.header = obj
            elif kind == "sweep_end":
                ledger.footer = obj
            elif kind == "driver":
                ledger.drivers.append(obj)
            else:
                raise ValueError(
                    f"{path}:{lineno}: not a ledger line "
                    f"(type={kind!r}; is this an event log?)"
                )
    return ledger


def is_ledger_file(path: str) -> bool:
    """True when the first non-blank line looks like a ledger line (used
    by ``python -m repro.obs.inspect`` to accept either input kind)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                return (
                    isinstance(obj, dict)
                    and obj.get("type") in LEDGER_LINE_TYPES
                )
    except (OSError, ValueError):
        return False
    return False


#: The process-wide ledger the eval CLI and runners share.
LEDGER = RunLedger()
