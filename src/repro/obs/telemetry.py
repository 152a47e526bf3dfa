"""Run-provenance telemetry: which engine ran each simulation, and why.

The performance stack (compiled replay, section-memoized fast path,
batched replay, persistent result cache, sweep server) serves almost every simulator run, and the
paper's methodology rests on every path being bit-identical.  Trusting
that acceleration requires *provenance*: for each run, which engine
actually produced the result, which cache tier served it, whether the
section walk replayed it, and — when the walk refused — the typed
reason.  This module records exactly that, once per run at the
dispatch point (never per access), so telemetry can stay on without
changing which engine runs or how fast it runs.

* :class:`FallbackReason` — the closed set of reasons
  :func:`repro.sim.batch.simulate_batch` hands a run to the reference
  simulator.
* :class:`RunRecord` — one run's provenance: workload, configuration key,
  engine (``fast`` / ``reference`` / ``batch`` / ``disk-cached-result`` /
  ``undo`` / ``stalled`` / ``served``), fallback reason, section walk,
  result-cache tier outcome, and wall time — the one per-run timer (the
  run profile's simulator section sums it).
  :meth:`RunRecord.stable_dict` drops the wall-time fields (``wall_s``,
  ``t_start``, ``worker``) so ledgers can be compared across runs.
* :class:`RunLedger` — the per-process collector.  The eval CLI enables
  the shared :data:`LEDGER`; :func:`repro.eval.parallel.execute_job`
  and the sweep-server client (:mod:`repro.serve.client`) append to it
  in **submission order**, so a sweep's ledger is deterministic (modulo
  the wall-time fields).  It is also the ledger file's one writer:
  ``sweep_start`` when the sweep starts, each ``run`` line as its record
  lands, and the ``driver`` lines and ``sweep_end`` at the end
  (:meth:`RunLedger.finish`).
* :func:`count_rows` — the row-weighted counter behind every run count.
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
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Dict, Iterable, List, Optional

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
    "count_rows",
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
    """Why :func:`repro.sim.batch.simulate_batch` ran a row on the
    reference simulator instead of the section walk.

    Each mirrors an eligibility check documented in :mod:`repro.sim.fast`.
    """

    NO_CEXT = "no_cext"
    VERIFY = "verify"
    LIVE_RECORDER = "live_recorder"
    VOLATILE_RANGES = "volatile_ranges"
    PI_HAZARD = "pi_hazard"
    WATCHDOG_CUT = "watchdog_cut"
    REACH_OVERFLOW = "reach_overflow"


#: Ledger fields that carry wall-clock (non-deterministic) data.
WALL_TIME_FIELDS = ("wall_s", "t_start", "worker")

#: Line types a ledger JSONL file may contain.
LEDGER_LINE_TYPES = frozenset(("sweep_start", "run", "driver", "sweep_end"))


@dataclass(slots=True)
class RunRecord:
    """Provenance of one policy-simulator run.

    Slotted, and built positionally on the sweep's hot path: an append
    costs about a microsecond.  The ledger file's line (:meth:`to_dict`)
    is built only when a file is streamed.

    Attributes:
        workload: Workload name.
        config: Configuration key (``ClankConfig.label()``).
        engine: What produced the result — ``fast``, ``reference``,
            ``batch`` (the row walker of a seed-repeat job),
            ``disk-cached-result``, ``undo``, ``stalled`` (the run
            aborted without forward progress under ``allow_stall``), or
            ``served`` (a sweep server answered the job).
        fallback_reason: :class:`FallbackReason` value when the engine is
            ``reference`` and the run went through ``simulate_batch``.
        kernel: ``c`` when the section walk (the C kernel) served the
            run — every ``fast`` and ``batch`` run; ``None`` for runs no
            section walk served.
        result_cache: Whole-result disk-cache tier outcome — ``hit``,
            ``miss``, or ``off`` (tier not consulted: no store, or the
            call site has no result key, e.g. ``--verify``).  For
            ``engine="served"`` records it instead names the server-side
            dedupe tier that answered: ``memory``, ``coalesced``,
            ``disk``, or ``computed``.
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
            append).
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
        """The ledger line's fields, in declaration order (hand-written:
        ``dataclasses.asdict`` costs ~37 µs a record)."""
        return {
            "type": "run",
            "workload": self.workload,
            "config": self.config,
            "engine": self.engine,
            "fallback_reason": self.fallback_reason,
            "kernel": self.kernel,
            "result_cache": self.result_cache,
            "size": self.size,
            "salt": self.salt,
            "driver": self.driver,
            "stalled": self.stalled,
            "rows": self.rows,
            "wall_s": self.wall_s,
            "t_start": self.t_start,
            "worker": self.worker,
            "index": self.index,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        return cls(**{k: v for k, v in d.items() if k in _RUN_FIELDS})

    def stable_dict(self) -> dict:
        """The deterministic projection: everything but wall-time fields.

        Two sweeps of the same jobs produce identical ``stable_dict``
        sequences (the determinism contract the tests pin).
        """
        return {
            "workload": self.workload,
            "config": self.config,
            "engine": self.engine,
            "fallback_reason": self.fallback_reason,
            "kernel": self.kernel,
            "result_cache": self.result_cache,
            "size": self.size,
            "salt": self.salt,
            "driver": self.driver,
            "stalled": self.stalled,
            "rows": self.rows,
            "index": self.index,
        }


_RUN_FIELDS = frozenset(f.name for f in fields(RunRecord))


def count_rows(records: Iterable[RunRecord], key) -> Dict[str, int]:
    """Row-weighted counts of ``key(rec)`` (``None`` keys skipped).

    A batch record stands for ``rows`` runs, so every run count — the
    ledger's aggregates, the sweep report, the eval CLI's per-driver
    runs — reconciles against per-run totals.
    """
    out: Dict[str, int] = {}
    for rec in records:
        k = key(rec)
        if k is not None:
            out[k] = out.get(k, 0) + rec.rows
    return out


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
        self.epoch = time.perf_counter()
        self._stream = None

    # -- lifecycle -----------------------------------------------------

    def enable(self) -> "RunLedger":
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all records, close the stream and restart the epoch."""
        self.records.clear()
        self.driver = None
        self.epoch = time.perf_counter()
        self.stop_stream()

    def now(self) -> float:
        """Seconds since the ledger epoch."""
        return time.perf_counter() - self.epoch

    # -- the ledger file -----------------------------------------------

    def stream_to(self, path: str, header: Optional[dict] = None) -> None:
        """Start the ledger file at ``path`` with its ``sweep_start`` line.

        Every later :meth:`record` appends its ``run`` line, flushed per
        record so ``python -m repro.obs.watch`` can follow the sweep;
        :meth:`finish` completes the file.
        """
        self.stop_stream()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        head = {"type": "sweep_start", "version": 1}
        head.update(header or {})
        self._stream = open(path, "w", encoding="utf-8")
        self._write(head)

    def _write(self, line: dict) -> None:
        self._stream.write(json.dumps(line) + "\n")
        self._stream.flush()

    def finish(self, drivers: Iterable[dict] = (),
               footer: Optional[dict] = None) -> None:
        """Append one ``driver`` line per mark (``name``/``t0``/``t1``,
        :attr:`repro.obs.profile.Profiler.marks`) and the closing
        ``sweep_end`` line — the engine/fallback/kernel/cache-tier
        aggregates plus whatever the caller folds into ``footer`` — then
        close the file.  No-op without a stream."""
        if self._stream is None:
            return
        for mark in drivers:
            self._write({"type": "driver", **mark})
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
        self._write(tail)
        self.stop_stream()

    def stop_stream(self) -> None:
        """Close the ledger file, if any (idempotent)."""
        if self._stream is not None:
            try:
                self._stream.close()
            except OSError:
                pass
            self._stream = None

    # -- recording -----------------------------------------------------

    def record(self, rec: RunRecord) -> None:
        """Append one run record (no-op when disabled).

        The submission-order ``index`` is assigned here.
        """
        if not self.enabled:
            return
        rec.index = len(self.records)
        self.records.append(rec)
        if self._stream is not None:
            self._write(rec.to_dict())

    @contextmanager
    def driver_phase(self, name: str):
        """Tag runs recorded inside with the driver's name (the driver's
        clock is :meth:`repro.obs.profile.Profiler.phase`)."""
        prev = self.driver
        self.driver = name
        try:
            yield self
        finally:
            self.driver = prev

    # -- aggregation ---------------------------------------------------

    def total_rows(self) -> int:
        """Simulator runs represented (each record weighted by its rows)."""
        return sum(rec.rows for rec in self.records)

    def engine_counts(self) -> Dict[str, int]:
        return count_rows(self.records, lambda r: r.engine)

    def fallback_counts(self) -> Dict[str, int]:
        return count_rows(self.records, lambda r: r.fallback_reason)

    def kernel_counts(self) -> Dict[str, int]:
        return count_rows(self.records, lambda r: r.kernel)

    def result_cache_counts(self) -> Dict[str, int]:
        return count_rows(self.records, lambda r: r.result_cache)

    def stable_records(self) -> List[dict]:
        """The deterministic ledger projection (see ``RunRecord``)."""
        return [rec.stable_dict() for rec in self.records]


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
