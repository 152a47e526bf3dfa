"""``python -m bench`` — see ``bench/README.md``.

* ``python -m bench --workload W --seed S --seconds N --trace 0|1``: one
  run; the last stdout line is the result JSON.
* ``python -m bench sets --runs 10 --out FILE``: repeated runs of every
  workload, round-robin, with the order reversed every round.
* ``python -m bench compare PARENT.json CHANGE.json [--claim M:W]``:
  the no-regression (and optional gain) verdict between two sets.
* ``python -m bench baseline SET.json... --out FILE``: medians of
  acceptance sets, for ``bench/baseline.json``.
"""

import argparse
import json
import signal
import sys

from bench.workloads import WORKLOADS


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def _run_main(argv) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="EvalSettings.quick() sizes (self-tests)")
    args = parser.parse_args(argv)

    from bench.run import BenchError, run

    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  smoke=args.smoke)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result = out["result"]
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and not result["failed"] else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    signal.signal(signal.SIGTERM, _on_sigterm)
    if argv and argv[0] in ("sets", "compare", "baseline"):
        from bench import stats

        return getattr(stats, f"{argv[0]}_main")(argv[1:])
    return _run_main(argv)


if __name__ == "__main__":
    sys.exit(main())
