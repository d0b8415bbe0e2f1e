"""Host-speed probes and a stopwatch that scales times to a reference speed.

The 2-vCPU guests this benchmark runs on slow down in phases, for a tenth of
a second to minutes at a time, on each vCPU separately; the guest cannot see
why (process CPU time tracks wall time).  How much of a run falls in slow
phases drifts from minute to minute, so no statistic over one run's wall
times separates a program change from the host.

A fixed probe kernel runs before every timed interval and once after the
last.  An interval's *reference time* is its wall time times the kernel's
reference time (``KERNELS``) over the median probe time around it: the time
it would have taken had the host run the kernel as fast as the reference
host does at full speed.  The kernels are
benchmark code that no program change touches, so a faster or slower
program moves reference times in full, while a host phase that slows program
and kernel alike cancels out.  The probe is not part of any interval's time.

A slow phase does not slow all work alike: interpreter-bound work slows by
about 1.9x, numpy passes over L2-sized arrays by about 1.2-1.3x, streaming
over arrays larger than the caches by about 1.1x.  So each workload names
the kernel that is bound like its rounds:

- ``interpreter``: a Python loop with small numpy calls (about 0.28 ms at
  full speed), for rounds dominated by per-op interpreter overhead;
- ``numpy``: four elementwise passes over a 1 MiB float64 vector (about
  0.25 ms), for rounds dominated by numpy passes over rows of 0.1-1 MiB.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_SMALL = np.arange(512.0)
_VECTOR = np.linspace(-1.0, 1.0, 1 << 17)
_OUT = np.empty_like(_VECTOR)


def _interpreter_kernel() -> None:
    total = 0.0
    for index in range(150):
        total += float(_SMALL[index])
        total += sum(range(16))
        _SMALL.sum()


def _numpy_kernel() -> None:
    for _ in range(4):
        np.multiply(_VECTOR, 1.0001, out=_OUT)


#: Kernel name -> (kernel, its time in the fast phase of the reference host:
#: a 2-vCPU Xeon KVM guest, CPython 3.11, one BLAS thread).  The reference
#: times only set the scale, so that reference times read like that host's
#: fast-phase wall times.
KERNELS = {
    "interpreter": (_interpreter_kernel, 0.28e-3),
    "numpy": (_numpy_kernel, 0.245e-3),
}
#: Probes on each side of an interval whose median scales it.
WINDOW = 3


def probe(kernel: str) -> float:
    """Run one probe kernel once; return its wall time in seconds."""
    run = KERNELS[kernel][0]
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


class Stopwatch:
    """Consecutive timed intervals, with a host-speed probe before each.

    ``start()`` probes and then starts an interval; ``stop()`` ends it;
    ``close()`` takes the last probe.  Work between ``stop()`` and the next
    ``start()`` is not timed.  Each probe records the median of ``samples``
    runs of ``kernel``; intervals of a tenth of a second or more afford
    several, which steadies the probe.
    """

    def __init__(self, kernel: str, samples: int = 1) -> None:
        self.kernel = kernel
        self.samples = samples
        self.starts: list[float] = []
        self.stops: list[float] = []
        self.probes: list[float] = []

    def _probe(self) -> None:
        self.probes.append(
            statistics.median(probe(self.kernel) for _ in range(self.samples))
        )

    def start(self) -> None:
        self._probe()
        self.starts.append(time.perf_counter())

    def stop(self) -> None:
        self.stops.append(time.perf_counter())

    def close(self) -> None:
        self._probe()

    def wall_s(self) -> list[float]:
        """Wall time of each interval."""
        return [stop - start for start, stop in zip(self.starts, self.stops)]

    def reference_s(self) -> list[float]:
        """Each interval's wall time scaled to the kernel's reference time.

        Interval ``i`` lies between probes ``i`` and ``i + 1``; the median of
        ``WINDOW`` probes on each side of it sets its host speed.
        """
        probes = self.probes
        reference = KERNELS[self.kernel][1]
        return [
            wall
            * reference
            / statistics.median(probes[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
            for i, wall in enumerate(self.wall_s())
        ]
