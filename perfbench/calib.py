"""Host-speed calibration: a fixed pure-Python kernel timed beside and during
each operation, so that timings taken while a shared host is slow or fast
compare.

On a shared 2-vCPU host the speed of pure-Python code drifts by a quarter
over tens of seconds: the medians of a fixed loop over 20-second windows had
an interquartile range of 24% of their median, and the drift shows in CPU
time as much as in wall time.  Longer runs do not average it away.  So the
benchmark samples the kernel's time on the CPU the operation runs on (the
runner pins itself and its children to one CPU) and reports each operation
at a reference speed::

    reported_s = (wall_s - sampling_s) * REF_KERNEL_S / mean_kernel_s

``mean_kernel_s`` is the mean of the samples taken from just before the
operation to just after it; ``sampling_s`` is the time the samples taken
inside it spent.  In a worker, ``Speedometer.periodic`` also samples every
``INTERVAL_S`` from a SIGALRM handler, which follows the host through a
20-second audit; between CLI invocations the runner samples explicitly.  The
kernel is the benchmark's own code (modular row elimination and dict
inserts, the kind of work homalg's assembly does), and this module imports
only ``signal`` and ``contextlib``, so no change to homalg moves it and
sampling before a set-up does not warm the set-up's imports.  The raw wall
times are printed beside the metrics.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

# About the kernel's median time on a 2-vCPU Xeon with CPython 3.11; it
# sets the scale of the reported seconds only.
REF_KERNEL_S = 0.0017
RUNS_PER_SAMPLE = 3
INTERVAL_S = 0.2
# Samples this close to an operation count for it.
MARGIN_S = 0.25

_P = 65521
_N = 20
_MATRIX = [[(i * 7 + j * 3 + i * j) % 11 - 5 for j in range(_N + 4)] for i in range(_N)]


def kernel() -> int:
    """Reduce a fixed 20 x 24 integer matrix modulo 65521, then fill a dict;
    returns the rank so the work cannot be skipped."""
    m = [row[:] for row in _MATRIX]
    rank = 0
    for c in range(_N + 4):
        pivot = next((i for i in range(rank, _N) if m[i][c] % _P), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], _P - 2, _P)
        m[rank] = [x * inv % _P for x in m[rank]]
        for i in range(_N):
            f = m[i][c] % _P
            if i != rank and f:
                m[i] = [(a - f * b) % _P for a, b in zip(m[i], m[rank])]
        rank += 1
    seen = {}
    for i in range(6000):
        seen[(i, i % 7)] = rank
    return rank + len(seen) % 2


class Speedometer:
    """Kernel-time samples of one process, each ``(start, end, kernel_s)``
    with ``kernel_s`` the median of at least RUNS_PER_SAMPLE kernel runs."""

    def __init__(self):
        self.samples = []
        self._sampling = False

    def sample(self, seconds: float = 0.0) -> None:
        """Time the kernel for ``seconds`` (at least RUNS_PER_SAMPLE runs)."""
        if self._sampling:  # the timer fired during a sample
            return
        self._sampling = True
        times = []
        start = perf_counter()
        end = start + seconds
        while len(times) < RUNS_PER_SAMPLE or perf_counter() < end:
            t0 = perf_counter()
            kernel()
            times.append(perf_counter() - t0)
        times.sort()
        self.samples.append((start, perf_counter(), times[len(times) // 2]))
        self._sampling = False

    @contextmanager
    def periodic(self):
        """Also sample every INTERVAL_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, t0: float, t1: float) -> tuple:
        """(seconds at the reference speed, raw wall seconds) of the
        operation that ran from ``t0`` to ``t1``, both without the samples
        taken inside it."""
        near = [k for s, e, k in self.samples if e >= t0 - MARGIN_S and s <= t1 + MARGIN_S]
        inside = sum(e - s for s, e, _ in self.samples if s >= t0 and e <= t1)
        wall = t1 - t0 - inside
        return wall * REF_KERNEL_S * len(near) / sum(near), wall
