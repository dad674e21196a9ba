"""A fixed CPU workload that measures how fast this machine runs Python right now.

The benchmark shares its machine with other work, and the speed it gets
drifts by a factor of two within seconds.  Wall and CPU figures are therefore
reported *at reference speed*: each measured step is divided by its
*slowdown*, the mean time :func:`machine_seconds` took around and during the
step over ``REFERENCE_S``.  Drift that slows both alike cancels; a change to
the program does not move this workload, because none of it is the program's
code.

The workload is a small discrete-event loop in the style of the simulator it
calibrates for: a binary heap of timed events, generator-based processes
resumed with ``send``, slotted objects and per-message dicts.
"""

from __future__ import annotations

import heapq
import signal
import time
from contextlib import contextmanager
from typing import Iterator

#: About the seconds :func:`machine_seconds` takes on an unloaded 2-CPU
#: container with Python 3.11.  Only a scale: figures at reference speed are
#: compared with each other, never with this constant.
REFERENCE_S = 0.0042
#: Seconds between two samples taken while a step runs.
INTERVAL_S = 0.1

EVENTS = 5_000
PROCESSES = 16


class _Process:
    __slots__ = ("name", "received", "steps")

    def __init__(self, name: str):
        self.name = name
        self.received = 0
        self.steps = self._body()
        next(self.steps)

    def _body(self):
        while True:
            message = yield
            self.received += 1
            message["hops"] = message.get("hops", 0) + 1


def machine_seconds() -> float:
    """Wall seconds one fixed run of the calibration loop takes."""
    start = time.perf_counter()
    processes = [_Process(f"p{i}") for i in range(PROCESSES)]
    heap: list = []
    seq = 0
    for index, process in enumerate(processes):
        heapq.heappush(heap, (float(index), seq, process, {"source": "init", "n": index}))
        seq += 1
    for _ in range(EVENTS):
        now, _, process, message = heapq.heappop(heap)
        process.steps.send(message)
        target = processes[(process.received * 7 + len(message)) % PROCESSES]
        heapq.heappush(heap, (now + 1.0 + (seq % 5) * 0.25, seq, target,
                              {"source": process.name, "n": message["n"] + 1,
                               "hops": message["hops"]}))
        seq += 1
    return time.perf_counter() - start


class Speedometer:
    """Samples the machine's speed around, and optionally during, measured steps.

    Between two calls of :meth:`slowdown` is one step.  The samples of a step
    are the calibration runs that bracket it plus, inside :meth:`sampling`, one
    every ``INTERVAL_S`` from a ``SIGALRM`` handler.  The handler leaves the
    program's state alone; the wall and CPU time it takes accumulate in
    ``spent_wall``/``spent_cpu`` so the caller can take them out of its timings.
    """

    def __init__(self) -> None:
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._samples = [machine_seconds()]

    def _sample(self, _signum: int, _frame: object) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self._samples.append(machine_seconds())
        self.spent_wall += time.perf_counter() - wall
        self.spent_cpu += time.process_time() - cpu

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Take samples every ``INTERVAL_S`` while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self) -> float:
        """The machine's slowdown against reference speed over the step that
        just ended; the closing sample also opens the next step."""
        closing = machine_seconds()
        samples = self._samples + [closing]
        self._samples = [closing]
        return sum(samples) / len(samples) / REFERENCE_S
