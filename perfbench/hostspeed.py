"""Host-speed reference: a fixed loop timed at a steady rate during a run.

On a shared host the same code runs up to about 1.8 times slower while
neighbouring tenants are busy, in stretches from seconds to minutes, with
no steal time to show for it (process CPU time slows down just as wall time
does). A wall-clock time therefore measures the neighbours as much as the
program. ``HostSpeed`` times one fixed pure-Python reference loop every
``PERIOD_S`` seconds from a ``SIGALRM`` handler, which runs in the main
thread between two bytecodes of whatever the program is doing, so the
samples track the host's speed through every call, the longest solves
included.

Two things are derived for any interval the benchmark timed:

* ``busy(a, b)``: the time the reference loop itself took inside it, which
  is taken out of every wall time the benchmark reports;
* ``reference(a, b)``: the mean reference-loop time around it, by which an
  interval's time is divided to express it in reference-loop units. The
  program and the loop slow down together, so the quotient stays steady
  while the host's speed changes.

The loop is interpreter-bound floating-point arithmetic. Of the loops
tried (integer and table work, dict lookups over tables of 1 to 16 MB,
tuple hashing, method calls, heap operations), it slowed down most nearly
in proportion with space-time A*, the online policy's ticks and map
ingest. It allocates no container objects, so it does not push the cyclic
garbage collector into running inside the program's work.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import perf_counter

PERIOD_S = 0.1
ITERATIONS = 12_000


def reference_loop(n=ITERATIONS):
    """A fixed amount of interpreter-bound floating-point work."""
    acc = 0.0
    for i in range(n):
        acc = acc * 0.5 + abs(i * 0.37 - 3.0) ** 0.5
    return acc


class HostSpeed:
    """Samples the reference loop while the ``with`` block runs."""

    enabled = True

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.starts = []
        self.durations = []
        self._cumulative = [0.0]
        self._previous_handler = None

    def __enter__(self):
        reference_loop()  # warm-up, not recorded
        self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()
        self._cumulative = [0.0, *accumulate(self.durations)]
        return False

    def _on_alarm(self, signum, frame):
        self._sample()

    def _sample(self):
        t0 = perf_counter()
        reference_loop()
        self.durations.append(perf_counter() - t0)
        self.starts.append(t0)

    def busy(self, a, b):
        """Seconds the reference loop ran inside [a, b]."""
        i, j = bisect_left(self.starts, a), bisect_right(self.starts, b)
        return self._cumulative[j] - self._cumulative[i]

    def reference(self, a, b):
        """Mean reference-loop time over the samples inside [a, b] and the
        nearest one on each side of it."""
        i = max(bisect_left(self.starts, a) - 1, 0)
        j = min(bisect_right(self.starts, b) + 1, len(self.starts))
        return (self._cumulative[j] - self._cumulative[i]) / (j - i)

    def summary(self):
        d = sorted(self.durations)
        return {
            "period_s": self.period,
            "samples": len(d),
            "reference_s_min": d[0],
            "reference_s_median": d[len(d) // 2],
            "reference_s_max": d[-1],
            "busy_s": self._cumulative[-1],
        }


class NoHostSpeed:
    """Stand-in for traced runs: no samples, nothing taken out."""

    enabled = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def busy(self, a, b):
        return 0.0

    def summary(self):
        return None
