"""A fixed calibration task that tracks the host's speed.

On a shared host the speed of every program drifts with the load of
other tenants, by 20-30% over minutes.  The benchmark times this task
just before and just after what it measures, and scales each measured
time to a host on which the task takes ``REFERENCE_S``.  The task uses no
rqgames code, so a change to rqgames moves scaled times as much as
measured ones.
"""

import time

import numpy as np

REFERENCE_S = 0.008


def task_s() -> float:
    """Time 400 small numpy solves and Python sums."""
    a = np.arange(9.0).reshape(3, 3)
    started = time.perf_counter()
    total = 0.0
    for i in range(400):
        system = a * (i % 7) + np.eye(3)
        total += float(np.linalg.solve(system, a[:, 0]).sum()) + sum(v * v for v in range(30))
    return time.perf_counter() - started


def scaled(elapsed: float, before: float, after: float) -> float:
    """A time measured between two calibration timings, scaled to the reference host."""
    return elapsed * 2.0 * REFERENCE_S / (before + after)
