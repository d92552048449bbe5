"""Machine-speed references for timings taken on a shared, noisy host.

On the 2-CPU VM the benchmark was tuned on, the machine switches between a
fast and a slow state (the loop kernel below takes about 8 ms or about
13 ms) several times a second, and the mix drifts from minute to minute.
Back-to-back 12-second processes of the same ``aflbench run`` took from 58
to 107 us per iteration, while its ratio to the loop kernel stayed within
5% (7,517 to 7,899). So the benchmark scales every timing to a nominal
machine speed: seconds x nominal / (kernel seconds measured on either side
of the timed stretch). Wall times are kept in the result record.

Two kernels, because the program's phases track the machine differently:

- the loop kernel is a fixed mix of what a trial iteration does (sampling
  without replacement, fancy indexing, small mat-vec products, dict
  updates) on an array the size of one client's data. A version on a
  1000 x 100 array tracked trials less well (ratios within 12%);
- the bulk kernel generates, permutes and copies a 2000 x 100 array, as
  ``engine.prepare_data`` does. ``prepare_data`` over the loop kernel read
  3.50 in the fast state and 2.66 in the slow one; over the bulk kernel it
  read 5.95 and 5.94.

Both live here, outside the program, so no change to the program moves them.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, List, Tuple

import numpy as np

# Median kernel times on the VM the benchmark was tuned on.
LOOP_NOMINAL_S = 0.010
BULK_NOMINAL_S = 0.005


def loop_kernel() -> Callable[[], float]:
    """The loop kernel: returns a call that runs it and gives its seconds."""
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(80, 100)), rng.normal(size=80)

    def run() -> float:
        rng = np.random.default_rng(1)
        theta = np.zeros(x.shape[1])
        history = {}
        start = perf_counter_ns()
        for t in range(400):
            idx = rng.choice(len(x), size=16, replace=False)
            batch = x[idx]
            theta = theta - 1e-4 * (batch.T @ (batch @ theta - y[idx]))
            history[t] = theta
            history.pop(t - 10, None)
            if not np.all(np.isfinite(theta)):
                raise ArithmeticError("reference kernel diverged")
        return (perf_counter_ns() - start) / 1e9

    return run


def bulk_kernel() -> float:
    """Seconds of the bulk kernel."""
    rng = np.random.default_rng(2)
    start = perf_counter_ns()
    x = rng.normal(0.0, 1.0, (2000, 100))
    order = rng.permutation(len(x))
    x[order] @ np.ones(x.shape[1])
    parts = [x[order[k::50]] for k in range(50)]
    if len(parts) != 50:
        raise ArithmeticError("reference kernel lost a part")
    return (perf_counter_ns() - start) / 1e9


class ReferenceClock:
    """Times calls and scales each stretch of a call by the kernel run on
    either side of it. ``splitting`` adds split points inside a call, so
    that long calls are scaled by the machine speed of their own parts."""

    def __init__(self, kernel: Callable[[], float], nominal_s: float):
        self._kernel = kernel
        self._nominal_s = nominal_s
        self.kernel_s = [kernel()]
        self._stretches: List[Tuple[int, int]] = []  # (ns, kernel index before)
        self._mark = 0

    def split(self) -> None:
        """End the current stretch and run the kernel, whose time is not counted."""
        self._stretches.append((perf_counter_ns() - self._mark, len(self.kernel_s) - 1))
        self.kernel_s.append(self._kernel())
        self._mark = perf_counter_ns()

    def time(self, call: Callable[[], object]) -> Tuple[float, float]:
        """(wall seconds, seconds scaled to the nominal speed) of one call."""
        self._stretches = []
        self._mark = perf_counter_ns()
        call()
        self.split()
        wall = scaled = 0.0
        for ns, before in self._stretches:
            speed = (self.kernel_s[before] + self.kernel_s[before + 1]) / 2
            wall += ns / 1e9
            scaled += ns / 1e9 * self._nominal_s / speed
        return wall, scaled

    @contextmanager
    def splitting(self, module, attr: str):
        """Split before every call of ``module.attr`` (left alone if absent)."""
        original = getattr(module, attr, None)
        if original is None:
            yield
            return

        @functools.wraps(original)
        def split_first(*args, **kwargs):
            self.split()
            return original(*args, **kwargs)

        setattr(module, attr, split_first)
        try:
            yield
        finally:
            setattr(module, attr, original)
