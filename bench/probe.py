"""CPU-speed probe: sample how fast this process's CPU runs right now.

Shared cloud CPUs change speed by up to 1.7x within seconds, for reasons
outside the container (measured on a 2-vCPU KVM guest: one spin loop
took 0.48 s or 0.80 s minutes apart).  Raw wall-clock throughput then
spreads by 7-15% between identical runs, which would hide any regression
smaller than that.

Every bench process therefore runs a small fixed interpreter workload
from a ``SIGALRM`` timer every :data:`INTERVAL_S` seconds and records
its *thread CPU time*, so time the process spends descheduled or waiting
for the GIL does not count.  The workload walks a ring of objects,
calling a method and reading attributes, a dict and a list, and
allocates nothing the garbage collector tracks.  It tracked the
simulator's slowdowns far better than a bare integer loop did.  Over 8
identical `verified` units the normalized spread was 0.5% against 3.8%
for the bare loop and 8% raw.

A window's timing is normalized to the reference speed by
``raw_seconds * mean(REFERENCE_S / probe_i)``.  That is the time the
same work would have taken on a CPU where one probe takes exactly
:data:`REFERENCE_S`.  The probe costs ~2% of the process's time in every
run, traced or not, on both commits of a comparison.
"""

import random
import signal
import time

#: Ring steps per probe: about 1 ms of CPU on the sizing machine.
PROBE_STEPS = 5000

#: Thread-CPU seconds one probe takes at the reference speed.
REFERENCE_S = 0.001

#: Seconds between probes.
INTERVAL_S = 0.05


class _Node:
    __slots__ = ("val", "next", "odd")

    def __init__(self, val: int):
        self.val = val
        self.next = None
        self.odd = val & 1

    def step(self, x: int) -> int:
        return x + self.val if self.odd else x - self.val


class SpeedProbe:
    """Periodic speed samples for one process (see module docstring).

    ``on_enter``/``on_exit`` let the layer tracer account probe time as
    its own layer instead of the layer the alarm interrupted.
    """

    def __init__(self):
        rng = random.Random(5)
        ring = [_Node(rng.randrange(1000)) for _ in range(512)]
        for node, after in zip(ring, ring[1:] + ring[:1]):
            node.next = after
        self._ring = ring
        self._table = {i: 3 * i for i in range(256)}
        self._array = list(range(1024))
        self.samples = []
        self.on_enter = None
        self.on_exit = None

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    @staticmethod
    def stop() -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> int:
        """Index of the next sample (a window boundary)."""
        return len(self.samples)

    def sample(self) -> float:
        node, table, array = self._ring[0], self._table, self._array
        x = 0
        t0 = time.thread_time()
        for i in range(PROBE_STEPS):
            x = node.step(x) + table[i & 255] + array[i & 1023]
            node = node.next
        dt = time.thread_time() - t0
        self.samples.append(dt)
        return dt

    def _on_alarm(self, signum, frame) -> None:
        token = self.on_enter() if self.on_enter is not None else None
        try:
            self.sample()
        finally:
            if self.on_exit is not None:
                self.on_exit(token)

    def norm(self, start: int = 0, end=None) -> float:
        """``mean(REFERENCE_S / probe)`` over samples ``[start:end]``:
        multiply a raw duration from that window by this to express it
        at the reference speed.  A window too short to hold a sample is
        probed on the spot."""
        window = self.samples[start:end] or [self.sample()]
        return sum(REFERENCE_S / s for s in window) / len(window)
