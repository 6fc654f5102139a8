"""Machine-speed probe: turns measured times into times at a fixed speed.

The benchmark runs on shared virtual CPUs whose speed drifts by up to
~1.8x over seconds to minutes while a run is in progress (another
tenant's load on the same physical core).  A wall-clock figure then
mostly measures the host.  The probe measures that speed where the
program runs and scales each measured time to a fixed nominal speed.

:class:`Probe` runs a fixed piece of interpreter work (dict lookups on
tuple keys, no allocation of containers, so it never triggers the
garbage collector) every ``PERIOD`` seconds from a ``SIGALRM`` handler,
i.e. in the main thread, on the CPU the measured code runs on, between
its bytecodes.  Each probe's start and duration are kept.  An interval
``[t0, t1]`` of measured work is scaled by ``NOMINAL_S / d``, where
``d`` is the mean duration of the probes that ran in it (widened by
``MARGIN`` on each side, so a short operation still sees a few); time
the probes themselves took inside the interval is subtracted first.
The figures the benchmark reports are therefore in seconds of a machine
on which one probe takes ``NOMINAL_S``.  A change to the program moves
them in full; a change of the host's speed cancels out.

``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, shared by all
processes, so a probe running inside the server process (see
``launch_server.py``) can be read against the client's timestamps.
There it runs in the main thread too, whose event loop waits between
the worker threads that evaluate requests.
"""

from __future__ import annotations

import bisect
import json
import signal
from itertools import accumulate
from time import perf_counter
from typing import List, Optional

#: Seconds between probes.
PERIOD = 0.02
#: Duration of one probe at the nominal speed the figures are scaled to
#: (about one probe's duration on a 2-vCPU Xeon at 2.1 GHz).
NOMINAL_S = 1e-4
#: Probes this far before or after an interval also describe its speed.
MARGIN = 0.1

_KEYS = [(i, "k%d" % i) for i in range(37)]


def _work(table=dict.fromkeys(_KEYS, 0), keys=_KEYS) -> int:
    total = 0
    for i in range(300):
        key = keys[i % 37]
        table[key] = (table[key] + i) & 1023
        total += table[key] & 7
    return total


class Probe:
    """Periodic speed probe in the main thread (``start``/``stop``)."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous = None
        self._sums: Optional[List[float]] = None

    def start(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def stop(self) -> None:
        """Stop probing (idempotent)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        _work()
        self.durations.append(perf_counter() - t0)
        self.starts.append(t0)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"starts": self.starts, "durations": self.durations},
                      handle)

    @classmethod
    def load(cls, path: str) -> "Probe":
        probe = cls()
        with open(path) as handle:
            data = json.load(handle)
        probe.starts, probe.durations = data["starts"], data["durations"]
        return probe

    def _span(self, t0: float, t1: float):
        """(count, total duration) of the probes started in [t0, t1)."""
        if self._sums is None or len(self._sums) != len(self.durations) + 1:
            self._sums = [0.0] + list(accumulate(self.durations))
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return hi - lo, self._sums[hi] - self._sums[lo]

    def scale(self, t0: float, t1: float) -> float:
        """Nominal over measured speed around [t0, t1] (1 if unprobed)."""
        count, total = self._span(t0 - MARGIN, t1 + MARGIN)
        return NOMINAL_S * count / total if count else 1.0

    def own(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] minus the probes that ran inside it."""
        return (t1 - t0) - self._span(t0, t1)[1]

    def normalise(self, t0: float, t1: float) -> float:
        """[t0, t1]'s own duration at the nominal speed."""
        return self.own(t0, t1) * self.scale(t0, t1)
