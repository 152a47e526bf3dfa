"""Live terminal view of an in-progress sweep.

``python -m repro.obs.watch results/run_ledger.jsonl`` follows a run
ledger as the eval CLI writes it (``repro.eval ... --ledger PATH``
appends each record's line once, as it lands, from the parent process;
see :meth:`RunLedger.stream_to`), and
``python -m repro.obs.watch --server http://127.0.0.1:8077`` polls a
sweep server's ``/stats`` instead.  Either way it redraws one compact
block per interval::

    sweep: 412 runs / 9840 rows   82.3 rows/s   ETA 0:41
    engines: fast=361 batch=38 reference=9 disk-cached-result=4
    cache:   hit=204 miss=208
    drivers: fig8

The module is split into pure pieces — :class:`WatchState` collects
ledger lines (counted by :func:`repro.obs.telemetry.tally`, like every
other view of a sweep), :class:`RateMeter` turns row counts into a
sliding-window rate, :func:`render` formats a snapshot — with the
terminal loop on top, so tests drive the pieces without a TTY or a
sleep.
"""

import argparse
import json
import os
import sys
import time
import urllib.error
import urllib.request
from collections import deque
from typing import Dict, List, Optional

from repro.obs.telemetry import Ledger, tally

__all__ = ["LedgerFollower", "RateMeter", "WatchState", "render"]


class WatchState:
    """The ledger lines seen so far, or the last server ``/stats``
    snapshot, and their :meth:`tally`."""

    def __init__(self) -> None:
        self.ledger = Ledger()
        self.served: Optional[dict] = None

    @property
    def done(self) -> bool:
        return bool(self.ledger.footer)

    def apply_line(self, obj: dict) -> None:
        """Fold one parsed ledger line (lines of another kind are
        skipped)."""
        try:
            self.ledger.add_line(obj)
        except (TypeError, ValueError):
            pass

    def apply_server_stats(self, stats: dict) -> None:
        """Replace the tally with a server ``/stats`` snapshot (absolute
        counters, not a delta stream)."""
        server = stats.get("server", {})
        jobs = int(server.get("jobs", 0))
        self.served = {
            "records": jobs, "rows": jobs, "engines": {"served": jobs},
            "result_cache": dict(server.get("tiers", {})), "drivers": {},
        }

    def tally(self) -> dict:
        return self.served or tally(self.ledger)


class RateMeter:
    """Sliding-window rows/sec over the last ``window_s`` seconds."""

    def __init__(self, window_s: float = 15.0):
        self.window_s = window_s
        self._samples: deque = deque()  # (t, cumulative_rows)

    def sample(self, rows: int, now: Optional[float] = None) -> None:
        now = time.perf_counter() if now is None else now
        self._samples.append((now, rows))
        while (len(self._samples) > 2
               and now - self._samples[0][0] > self.window_s):
            self._samples.popleft()

    def rate(self) -> float:
        if len(self._samples) < 2:
            return 0.0
        (t0, r0), (t1, r1) = self._samples[0], self._samples[-1]
        if t1 <= t0:
            return 0.0
        return max(0.0, (r1 - r0) / (t1 - t0))


class LedgerFollower:
    """Incremental reader of a (possibly still-growing) ledger file.

    Tolerates the file not existing yet and a partially written final
    line (the writer flushes per record, but a poll can still race one):
    bytes after the last newline stay buffered for the next poll.
    """

    def __init__(self, path: str):
        self.path = path
        self._offset = 0
        self._partial = b""

    def poll(self) -> List[dict]:
        """Parsed new ledger lines since the previous poll."""
        try:
            size = os.path.getsize(self.path)
            if size < self._offset:
                # The file shrank: a new sweep truncated the path and
                # started its own ledger.  Start over from the top.
                self._offset = 0
                self._partial = b""
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
                self._offset = fh.tell()
        except OSError:
            return []
        data = self._partial + chunk
        lines = data.split(b"\n")
        self._partial = lines.pop()
        out = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(obj, dict):
                out.append(obj)
        return out


def _fmt_eta(seconds: float) -> str:
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"
    return f"{seconds // 60}:{seconds % 60:02d}"


def _fmt_mix(counts: Dict[str, int]) -> str:
    return " ".join(
        f"{name}={n}"
        for name, n in sorted(counts.items(), key=lambda kv: -kv[1])
    ) or "(none yet)"


def render(
    state: WatchState,
    rate: float,
    expect: Optional[int] = None,
) -> str:
    """Format one snapshot as the multi-line block the loop redraws."""
    t = state.tally()
    rows = t["rows"]
    if state.done:
        footer = state.ledger.footer
        head = (f"sweep: {footer.get('runs', t['records'])} runs / "
                f"{footer.get('rows', rows)} rows   DONE")
    else:
        head = f"sweep: {t['records']} runs / {rows} rows"
        head += f"   {rate:.1f} rows/s" if rate else "   --.- rows/s"
        if expect and rate > 0 and rows < expect:
            head += f"   ETA {_fmt_eta((expect - rows) / rate)}"
    lines = [head, f"engines: {_fmt_mix(t['engines'])}"]
    if t["result_cache"]:
        lines.append(f"cache:   {_fmt_mix(t['result_cache'])}")
    if t["drivers"]:
        lines.append("drivers: " + " ".join(list(t["drivers"])[-6:]))
    return "\n".join(lines)


def _redraw(block: str, prev_lines: int, out) -> int:
    """Repaint in place when the output is a TTY; append otherwise."""
    if out.isatty() and prev_lines:
        out.write(f"\x1b[{prev_lines}F\x1b[J")
    out.write(block + "\n")
    out.flush()
    return block.count("\n") + 1


def watch_ledger(
    path: str,
    interval: float = 1.0,
    once: bool = False,
    expect: Optional[int] = None,
    out=None,
) -> int:
    out = out or sys.stdout
    follower = LedgerFollower(path)
    state = WatchState()
    meter = RateMeter()
    prev = 0
    while True:
        for obj in follower.poll():
            state.apply_line(obj)
        meter.sample(state.tally()["rows"])
        prev = _redraw(render(state, meter.rate(), expect), prev, out)
        if once or state.done:
            return 0
        time.sleep(interval)


def watch_server(
    url: str,
    interval: float = 1.0,
    once: bool = False,
    expect: Optional[int] = None,
    out=None,
) -> int:
    out = out or sys.stdout
    url = url.rstrip("/")
    state = WatchState()
    meter = RateMeter()
    prev = 0
    while True:
        try:
            with urllib.request.urlopen(url + "/stats", timeout=10) as resp:
                stats = json.loads(resp.read().decode("utf-8"))
            state.apply_server_stats(stats)
            block = render(state, meter.rate(), expect)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            block = f"server unreachable: {url} ({exc})"
        meter.sample(state.tally()["rows"])
        prev = _redraw(block, prev, out)
        if once:
            return 0
        time.sleep(interval)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.watch",
        description="Watch an in-progress sweep: jobs/sec, engine mix, "
        "cache-tier funnel, ETA.",
    )
    parser.add_argument("ledger", nargs="?", default=None,
                        help="run-ledger JSONL path to follow "
                        "(the eval CLI streams it live under --ledger)")
    parser.add_argument("--server", default=None, metavar="URL",
                        help="poll a sweep server's /stats instead of "
                        "tailing a ledger file")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="seconds between polls (default 1)")
    parser.add_argument("--once", action="store_true",
                        help="print one snapshot and exit (scripting)")
    parser.add_argument("--expect", type=int, default=None,
                        help="total rows expected, enables the ETA")
    args = parser.parse_args(argv)
    if bool(args.ledger) == bool(args.server):
        parser.error("give exactly one of a ledger path or --server URL")
    try:
        if args.server:
            return watch_server(args.server, interval=args.interval,
                                once=args.once, expect=args.expect)
        return watch_ledger(args.ledger, interval=args.interval,
                            once=args.once, expect=args.expect)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
