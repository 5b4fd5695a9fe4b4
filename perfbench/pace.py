"""The host's pace, sampled while almc runs.

The host this benchmark runs on is shared, and its speed drifts by up to a
factor of two, both from one second to the next and over minutes.  A batch
time alone then says as much about the host as about almc.  So while a
worker runs almc, a `Pacer` times a small fixed task, `tick()`, every
INTERVAL_S of wall time from a SIGALRM handler.  The mean tick time is the
host's pace over exactly the time almc ran, and a time measured meanwhile,
times `Pacer.scale()`, is almc's cost in units of the tick, read as seconds
on the host when it runs at the nominal pace.  Time spent in the handler is
subtracted from almc's time by the worker (`Pacer.spent`).

The tick does dictionary and integer work on a 256-entry table, which stays
in the first-level cache, and makes no object that the garbage collector
tracks, so it changes neither when almc's collections run nor with the size
of almc's heap.  It never calls almc, so no change to almc changes its time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.05
# about the mean tick time in a worker on a 2-vCPU Intel Xeon VM at 2.1 GHz
# with CPython 3.11; it only sets the unit of paced times
NOMINAL_S = 0.0015

_TABLE = dict.fromkeys(range(256), 1)


def tick() -> float:
    """Time one fixed reference task of about 2 ms, in seconds."""
    start = perf_counter()
    table, acc = _TABLE, 0
    for i in range(6000):
        k = (i * 2654435761) & 255
        acc += table[k]
        table[k] = acc & 0xFFFF
    return perf_counter() - start


class Pacer:
    """While entered, times `tick()` every INTERVAL_S of wall time."""

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.spent = 0.0  # wall time spent in the handler

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        self.ticks.append(tick())
        self.spent += perf_counter() - start

    def __enter__(self) -> Pacer:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self) -> float:
        """Factor from a time measured while pacing to the nominal pace."""
        # a run shorter than one interval is paced by one tick right after it
        return NOMINAL_S / statistics.fmean(self.ticks or [tick()])
