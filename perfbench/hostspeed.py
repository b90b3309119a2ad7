"""Host-speed calibration.

On a shared host the same code runs tens of percent faster or slower
from one minute to the next, because co-tenants contend for the cores
and caches.  Identical invocations of the benchmark were measured
12-35 % apart (quartile spread of packets/s), and a longer run does not
average the drift out.  So the benchmark times a fixed pure-Python
:class:`Kernel` before and after every measured run and, in untraced
runs, every :data:`SAMPLE_EVERY_S` during it.  Each run's host times are
divided by its ``slowdown``: the mean kernel time per round over the
reference time per round.  A reported host second is therefore a second
on a host that runs :data:`ROUNDS` rounds in :data:`REFERENCE_S`.

Samples taken during a run are subtracted from the run's times, so the
kernel adds nothing to any metric.  A change to ``src/`` cannot move the
kernel, so a slower simulator still reads slower.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time
from typing import Optional

#: Kernel seconds for :data:`ROUNDS` rounds on the reference host (its
#: median on a 2-CPU x86-64 container, CPython 3.11).
REFERENCE_S = 0.035

#: Rounds per sample between runs.
ROUNDS = 20_000

#: Wall seconds between samples during an untraced run, and rounds per
#: such sample (about 2 ms, so sampling pauses a run for ~4 %).
SAMPLE_EVERY_S = 0.05
SAMPLE_ROUNDS = 2_000

#: Objects in the kernel's ring: a few MB, past the per-core L2 cache.
NODES = 50_000


class _Node:
    __slots__ = ("key", "hits", "next")

    def __init__(self, key: int):
        self.key = key
        self.hits = 0
        self.next: Optional["_Node"] = None


class Kernel:
    """A walk over a shuffled ring of small objects with a dict lookup,
    an attribute update and a heap push and pop per round, like the
    simulator's hot loop.  It touches enough memory to feel cache
    contention as well as a slower core."""

    def __init__(self) -> None:
        rng = random.Random(0)
        nodes = [_Node(i) for i in range(NODES)]
        order = list(range(NODES))
        rng.shuffle(order)
        for i, j in zip(order, order[1:] + order[:1]):
            nodes[i].next = nodes[j]
        self._start = nodes[0]
        self._index = {i: nodes[i] for i in range(0, NODES, 3)}

    def run(self, rounds: int) -> int:
        node = self._start
        index = self._index
        heap: list = []
        total = 0
        for i in range(rounds):
            node = node.next
            node.hits += 1
            total += index.get(node.key, node).key
            heapq.heappush(heap, (node.key & 1023, i))
            if len(heap) > 64:
                heapq.heappop(heap)
        return total

    def seconds(self, rounds: int = ROUNDS) -> float:
        """Host seconds ``rounds`` rounds take right now."""
        t0 = time.perf_counter()
        self.run(rounds)
        return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples around and, optionally, during each measured run.

    Enter it around one run (``Span`` does), then call
    :meth:`close_window` for the run's slowdown.  ``clock`` (a
    ``scenarios.RunClock``) tells in-run samples taken inside
    ``Simulator.run`` apart from those taken during construction.
    """

    def __init__(self, kernel: Kernel, clock=None,
                 sample_in_run: bool = True):
        self.kernel = kernel
        self.clock = clock
        self.sample_in_run = sample_in_run
        self._last = self.kernel.seconds() / ROUNDS
        self._window = [self._last]
        #: Host seconds spent sampling during the current run, in all
        #: and inside ``Simulator.run``.
        self.paused_s = 0.0
        self.paused_in_run_s = 0.0
        self._previous_handler = None

    def _on_alarm(self, signum, frame) -> None:
        spent = self.kernel.seconds(SAMPLE_ROUNDS)
        self._window.append(spent / SAMPLE_ROUNDS)
        self.paused_s += spent
        if self.clock is not None and self.clock.running:
            self.paused_in_run_s += spent

    def __enter__(self) -> "HostSpeed":
        self.paused_s = self.paused_in_run_s = 0.0
        if self.sample_in_run:
            self._previous_handler = signal.signal(signal.SIGALRM,
                                                   self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S,
                             SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sample_in_run:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)

    def close_window(self) -> float:
        """Take the after-run sample and return the slowdown over every
        sample since the previous call, both ends included."""
        self._last = self.kernel.seconds() / ROUNDS
        self._window.append(self._last)
        slowdown = statistics.mean(self._window) * ROUNDS / REFERENCE_S
        self._window = [self._last]
        return slowdown
