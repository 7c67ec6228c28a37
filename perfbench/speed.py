"""The benchmark's clock: CPU time, scaled by a gauge of the host's speed.

Two things make plain wall-clock times on a shared host swing by a
fifth or more from one second to the next, for every process alike:
time spent waiting for a processor, and the processor itself running
slower.  ``cpu_ns`` removes the first.  For the second, the benchmark
runs ``task``, a fixed piece of pure-Python work that never touches
``semishift``, between ops, and scales each stretch of CPU time by
``NOMINAL_NS`` over the task's CPU time on either side of it.  A scaled
figure reads as CPU time on this host at the speed where ``task`` takes
``NOMINAL_NS``; since the task is the same in every version of the
program, the scale is the same for every commit compared.
"""

from __future__ import annotations

import gc
import resource
import time
from fractions import Fraction

# CPU time of ``task`` on the build host (2-vCPU Xeon VM, Python 3.11.7)
# at its usual speed; only the unit of the scaled figures depends on it.
NOMINAL_NS = 2_000_000
# CPU time between two runs of the task.
EVERY_NS = 40_000_000

_VALUES = tuple(Fraction(i % 13 + 1, 13) for i in range(40))


def cpu_ns() -> int:
    """CPU time of this process and of its waited-for child processes, in ns."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + round((ru.ru_utime + ru.ru_stime) * 1e9)


def task(rounds: int = 220) -> tuple:
    """Exact fractions, tuples and a dict: the kinds of work ``semishift`` does."""
    total = Fraction(0)
    counts: dict = {}
    for k in range(rounds):
        a, b = _VALUES[k % 40], _VALUES[(7 * k) % 40]
        total += a * b - b / (a + 1)
        key = (k % 17, k % 5, (3 * k) % 11)
        counts[key] = counts.get(key, 0) + 1
    return total, len(counts)


def sample() -> int:
    """CPU ns of one run of ``task``, with the cyclic collector off.

    With the collector off, the size of the program's heap cannot slow
    the task, so a program that grows its heap cannot shrink its figures.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = cpu_ns()
        task()
        return cpu_ns() - start
    finally:
        if enabled:
            gc.enable()


def factor(before: int, after: int) -> float:
    """Scale for a stretch of CPU time that the two gauge samples enclose."""
    return 2 * NOMINAL_NS / (before + after)


class Stopwatch:
    """Scaled CPU time of a stretch of work, gauged every ``EVERY_NS``.

    Call ``tick`` between pieces of the work and ``stop`` at its end.
    """

    def __init__(self) -> None:
        self.ns = 0.0
        self.samples = [sample()]
        self._start = cpu_ns()

    def tick(self, force: bool = False) -> float | None:
        """Gauge if due; returns the factor of the stretch that just closed."""
        now = cpu_ns()
        if not force and now - self._start < EVERY_NS:
            return None
        self.samples.append(sample())
        f = factor(*self.samples[-2:])
        self.ns += (now - self._start) * f
        self._start = cpu_ns()
        return f

    def stop(self) -> float:
        """The scaled seconds so far."""
        self.tick(force=True)
        return self.ns / 1e9
