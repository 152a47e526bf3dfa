"""Observed run: record everything a Clank execution decides.

Replays the CRC-32 workload intermittently with an event recorder attached,
then exports the three observability artifacts:

* ``results/observed_run.jsonl``      — JSON Lines event log (one typed
  event per line: power failures, rollbacks, checkpoint commits/aborts,
  buffer overflows, watchdog firings, section closures);
* ``results/observed_run.trace.json`` — Chrome trace-event timeline; open
  it in chrome://tracing or https://ui.perfetto.dev to see power-on
  periods, checkpoint routines, and re-execution windows as spans;
* ``results/observed_run.result.json`` — the SimulationResult (cycle
  accounting + aggregated metrics) as JSON.

Summarize the event log afterwards with::

    PYTHONPATH=src python -m repro.obs.report results/observed_run.jsonl

Run:  python examples/observed_run.py
"""

import os

from repro import (
    ClankConfig,
    JsonlRecorder,
    default_power_schedule,
    get_workload,
    read_events,
    simulate,
    write_chrome_trace,
)
from repro.obs.report import render_events, summarize_data

RESULTS_DIR = "results"
EVENTS_PATH = os.path.join(RESULTS_DIR, "observed_run.jsonl")
TRACE_PATH = os.path.join(RESULTS_DIR, "observed_run.trace.json")
RESULT_PATH = os.path.join(RESULTS_DIR, "observed_run.result.json")


def main() -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    trace = get_workload("crc").build()
    print(f"workload: crc — {len(trace)} memory accesses, "
          f"{trace.total_cycles} cycles continuous\n")

    with JsonlRecorder(EVENTS_PATH) as recorder:
        result = simulate(
            trace,
            ClankConfig.from_tuple((8, 4, 2, 0)),
            default_power_schedule(seed=1),
            progress_watchdog="auto",
            verify=True,  # the paper dynamically verifies every trial
            recorder=recorder,
        )
    print(result.summary())
    print(f"recorded {recorder.count} events -> {EVENTS_PATH}")

    events = read_events(EVENTS_PATH)
    write_chrome_trace(events, TRACE_PATH, name="crc under Clank")
    print(f"chrome trace -> {TRACE_PATH} (open in chrome://tracing)")

    with open(RESULT_PATH, "w", encoding="utf-8") as fh:
        fh.write(result.to_json(indent=2))
    print(f"result + metrics -> {RESULT_PATH}\n")

    print(render_events(summarize_data(events)))


if __name__ == "__main__":
    main()
