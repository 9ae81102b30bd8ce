"""Host speed: a fixed reference kernel timed alongside the program.

The benchmark runs on a small share of a busy host whose speed swings.
Timing a fixed kernel back to back shows two speeds about 1.9x apart
that alternate every few tens of milliseconds, with a share of slow
time that drifts over seconds and minutes, so the same run on the same
inputs can take over 1.5x as long a few minutes later.  Medians inside
a run cannot remove that.

So every workload also times :func:`kernel` -- benchmark-owned code
that never calls the program -- on the CPU the program runs on, and
divides every time it reports by a *host factor*: the mean kernel time
of the samples around that time over :data:`REFERENCE_MS`.  Reported
times are milliseconds (or seconds) at the reference host speed; the
figures as measured and the factors are recorded in ``details``.

Samples are taken two ways.  :meth:`HostSpeed.tick_until` runs the kernel
every :data:`PERIOD_S` while a worker process on the same CPU does its
operations, so the samples fall among the very milliseconds each
operation ran (its own time is then taken as its thread's CPU time,
which excludes the kernel's).  :meth:`HostSpeed.sample` runs it for
:data:`SHARE` of a just-finished operation's time while the program is
idle.  Kernel times are the sampling thread's CPU time, so a kernel
that shares the CPU with a worker is not charged for the worker's time.

The kernel tracks the program only on the same CPU: alternating 8 KB
disassemblies with the kernel for three minutes, the per-10-second
ratio of the two varied 3x less than the disassembly time alone when
both ran on one pinned CPU, and no less when the kernel ran in a
process free to use the other CPU.  :mod:`run` therefore pins itself,
and so every process it starts, to one CPU.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Mean time of :func:`kernel` at the reference host speed, ms: about
#: its median in the first tuning runs on a 2-vCPU x86-64 host (the
#: median of a run read 0.75-1.15 ms there as the host's speed moved).
REFERENCE_MS = 0.85
#: Kernel time taken per unit of operation time, between operations.
SHARE = 0.1
#: Sleep between kernels that share the CPU with a running worker, s:
#: about a tenth of the CPU goes to the kernel.
PERIOD_S = 0.008
#: Samples taken during an operation that suffice for its host factor.
DURING = 8
#: Otherwise, the samples nearest to it that give its host factor.
NEAR = 512

_TABLE = {key * 2654435761 % (1 << 32): key for key in range(1024)}
_PROBES = list(_TABLE) * 4
_COUNT = 10_000


def kernel() -> int:
    """Fixed interpreter and numpy work, about a millisecond.

    Dict probes, a counting loop and a small numpy pass -- the kinds of
    work the pipeline does -- over data that fits in the core's private
    caches.  A variant probing a 4 MB array and a 64 Ki-entry dict slowed
    down with the host by more than the disassembler did.
    """
    import numpy

    total = 0
    for key in _PROBES:
        total += _TABLE[key]
    for step in range(_COUNT):
        total += step
    values = numpy.arange(4096) % 251
    return total + int((numpy.cumsum(values) ^ (values << 3))[-1])


class HostSpeed:
    """Kernel times sampled over one run, and the host factors they give."""

    def __init__(self) -> None:
        kernel()                       # imports numpy outside any sample
        #: (perf_counter when the kernel ended, its CPU time in ms)
        self.samples: list[tuple[float, float]] = []

    def _one(self) -> None:
        cpu = time.thread_time()
        kernel()
        cpu = time.thread_time() - cpu
        self.samples.append((time.perf_counter(), cpu * 1e3))

    def sample(self, busy_s: float) -> float:
        """Time the kernel for about ``SHARE * busy_s`` (at least once).

        Returns the host factor of just these samples.
        """
        first = len(self.samples)
        deadline = time.perf_counter() + SHARE * busy_s
        self._one()
        while time.perf_counter() < deadline:
            self._one()
        return self._factor(self.samples[first:])

    def tick_until(self, ready, timeout: float) -> None:
        """Time the kernel every :data:`PERIOD_S` until ``ready(wait)``.

        ``ready`` waits up to its argument for the awaited event and says
        whether it came; after ``timeout`` seconds without it,
        :class:`TimeoutError`.
        """
        deadline = time.perf_counter() + timeout
        while not ready(PERIOD_S):
            if time.perf_counter() > deadline:
                raise TimeoutError(f"nothing within {timeout:.0f}s")
            self._one()

    @staticmethod
    def _factor(samples) -> float:
        return statistics.fmean(ms for _, ms in samples) / REFERENCE_MS

    def factor(self) -> float:
        """Mean kernel time over the reference: > 1 on a slower host."""
        return self._factor(self.samples)

    def factor_around(self, start: float, end: float) -> float:
        """The host factor over ``[start, end]`` (``perf_counter`` times).

        The samples taken in that interval when there are at least
        :data:`DURING`, else the :data:`NEAR` samples closest to its
        middle.  ``perf_counter`` is one clock for every process on the
        machine.
        """
        times = [at for at, _ in self.samples]
        low, high = bisect.bisect(times, start), bisect.bisect(times, end)
        if high - low >= DURING:
            return self._factor(self.samples[low:high])
        low = max(0, bisect.bisect(times, (start + end) / 2) - NEAR // 2)
        low = min(low, max(0, len(times) - NEAR))
        return self._factor(self.samples[low:low + NEAR])

    def summary(self) -> dict:
        times = [ms for _, ms in self.samples]
        return {"factor": self.factor(), "reference_ms": REFERENCE_MS,
                "kernel_ms_mean": statistics.fmean(times),
                "kernel_ms_p50": statistics.median(times),
                "samples": len(times)}
