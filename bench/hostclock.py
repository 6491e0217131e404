"""A clock that reads in seconds of a reference host, not of this one.

On a shared host each CPU flips between a fast state and one up to 1.8x
slower, for under a second to minutes at a time, and neighbours load the
caches.  Wall time then measures the host as much as the program.
``HostClock`` runs a fixed probe on a timer signal, every ``period``
seconds, in the process that runs the program, and converts each interval
between two probes at the speed the first of them measured:

    reference seconds = wall seconds * probe.nominal_s / (wall time of the probe)

So a program that does the same work reads about the same time in a fast
and in a slow phase, while a change to the program itself shows in full.
The probe's own time is left out of the reference time.  ``summary()``
gives the probe times, from which the run's wall-time speed can be read.

The handler runs between bytecodes of the main thread; a long call into C
delays it, and the interval before it is then converted at the older speed.
"""

import random
import signal
import statistics
import time


def _interpreter(n: int):
    acc, xs, d = 0, [], {}
    for i in range(n):
        acc += (i * i) % 7
        xs.append(i * 0.5)
        d[i & 63] = acc
    return acc + int(sum(xs)) + len(d)


class InterpreterProbe:
    """Fixed interpreter work: integer and float arithmetic, a list, a dict.
    Needs nothing beyond the standard library, so it can time an import."""

    # Wall time on the reference host: the fast state of the 2-vCPU host
    # the bounds were set on.  It only scales the unit.
    nominal_s = 5.5e-4

    def __call__(self):
        return _interpreter(3000)


class MixedProbe:
    """Interpreter work, a walk over boxed floats scattered across about
    2 MB of heap, and small dense linear algebra in numpy, in about equal
    parts.  The heap walk sees cache pressure from other tenants that the
    interpreter loop alone misses; the linear algebra sees the per-call
    overhead of numpy on 3x3 arrays that the oracle workloads pay."""

    nominal_s = 5.0e-4

    def __init__(self):
        import numpy
        self.np = numpy
        rng = random.Random(0)
        self.heap = [rng.random() for _ in range(60000)]
        rng.shuffle(self.heap)

    def __call__(self):
        np = self.np
        t = float(_interpreter(1000)) + sum(self.heap[::20])
        for i in range(12):
            m = np.array([[1.0 + i, 0.0, 0.0], [0.0, 2.0, 0.1], [0.0, 0.1, 3.0]])
            t += float(np.linalg.eigvalsh(m)[0]) + float(np.linalg.det(m))
        return t


class HostClock:
    """``now()`` is reference time; use as a context manager around timing."""

    def __init__(self, probe, period: float = 0.1):
        self.probe = probe
        self.period = period
        self.ref = 0.0       # reference seconds up to the last probe
        self.last = 0.0      # wall time at the end of the last probe
        self.scale = 1.0     # reference seconds per wall second since then
        self.probes = []     # wall time of every probe
        self._old = None

    def tick(self, *_):
        """Probe now; the interval up to here is converted at the old speed."""
        t0 = time.perf_counter()
        self.probe()
        t1 = time.perf_counter()
        self.ref += (t0 - self.last) * self.scale
        self.scale = self.probe.nominal_s / (t1 - t0)
        self.last = t1
        self.probes.append(t1 - t0)

    def now(self) -> float:
        return self.ref + (time.perf_counter() - self.last) * self.scale

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.tick)
        self.last = time.perf_counter()
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def summary(self) -> dict:
        """Probe statistics for the result file: the host speed the run saw."""
        ps = sorted(self.probes)
        return {"period_s": self.period, "probes": len(ps), "probe": type(self.probe).__name__,
                "probe_nominal_s": self.probe.nominal_s,
                "probe_min_s": ps[0], "probe_median_s": statistics.median(ps),
                "probe_max_s": ps[-1]}
