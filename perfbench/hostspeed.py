"""Host-speed sampling: a fixed reference computation run on a timer.

The host this benchmark was built on drifts between speed regimes over
tens of seconds to minutes: the same work runs up to ~50% slower for a
while, plain Python loops as much as numpy kernels.  A run of a few
tens of seconds cannot average that away, so the benchmark measures the
host's speed alongside the workload and reports times at a nominal
speed:

* While sampling, ``SIGALRM`` fires every ``PERIOD_S`` and its handler
  times one short pass of a reference computation, between two bytecodes
  of whatever the program is doing.  The samples thus spread over the
  measured work itself.
* ``clock()`` is ``perf_counter`` minus the time spent in reference
  passes, so an interval between two of its readings holds only the
  program's own time.
* ``seconds(a, b)`` scales such an interval by ``NOMINAL_S`` over the
  mean time of the passes taken inside it, or of the ``MIN_PASSES``
  passes nearest to it when fewer fell inside.  The result is the
  interval's length at the speed at which one pass takes ``NOMINAL_S``.

The reference uses no code of the program, so a change to the program
cannot move it.  It mixes the work the workloads do: a pure Python loop,
small elementwise numpy calls, and a windowed einsum contraction like a
convolution's.  It runs with the garbage collector off and allocates no
tracked Python objects, so the heap the program holds does not change
its time.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

NOMINAL_S = 0.010      # one reference pass on this host at its usual speed
PERIOD_S = 0.2
MIN_PASSES = 5


class HostSpeed:
    """Reference passes taken on a timer during one run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random((66, 66, 16))
        self._kernel = rng.random((3, 3, 16, 24))
        self._small = rng.random((16, 16, 8))
        self.passes: list = []         # (clock() at start, seconds) per pass
        self._ref_total = 0.0

    def _one_pass(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        arr = small = self._small
        for _ in range(300):
            arr = np.maximum(arr * 0.5 + small, 0.01) - np.tanh(small)
        win = sliding_window_view(self._x, (3, 3), axis=(0, 1))
        np.einsum("ijckl,klcf->ijf", win, self._kernel, optimize=True)
        t = time.perf_counter() - t0
        if enabled:
            gc.enable()
        return t

    def _on_alarm(self, signum, frame):
        stamp = self.clock()
        t0 = time.perf_counter()
        self.passes.append((stamp, self._one_pass()))
        self._ref_total += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Seconds, not counting time spent in reference passes."""
        return time.perf_counter() - self._ref_total

    def seconds(self, a: float, b: float) -> float:
        """Length of the interval between clock readings ``a`` and ``b``
        at the nominal host speed; its raw length without samples."""
        if not self.passes:
            return b - a
        by_distance = sorted((max(a - stamp, stamp - b, 0.0), t)
                             for stamp, t in self.passes)
        inside = sum(1 for d, _ in by_distance if d == 0.0)
        near = [t for _, t in by_distance[:max(inside, MIN_PASSES)]]
        return (b - a) * NOMINAL_S * len(near) / sum(near)
