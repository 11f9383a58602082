"""A fixed reference computation that gauges the machine's current speed.

On a shared host the same code runs up to about 1.5 times slower for
minutes at a time, so raw timings of the same program do not repeat.  The
benchmark times this kernel between workload calls and after every set-up,
never while a call runs, so it only ever competes with the program's own
processes when none are alive.  Each time is rescaled to a machine that runs
the kernel in ``REFERENCE_S`` seconds.  The kernel mixes the kinds of work
the workloads do (a pure-Python loop, numpy elementwise passes and small
assignment solves) and never calls hrlmc, so a faster hrlmc cannot speed it
up.
"""

from time import perf_counter

import numpy as np
from scipy.optimize import linear_sum_assignment

REFERENCE_S = 0.0135
_REPS = 3

_rng = np.random.default_rng(20_200_204)
_COST = _rng.random((128, 128))
_X = _rng.random(50_000)


def _kernel():
    s = 0
    for i in range(60_000):
        s += i * i
    x = _X
    for _ in range(15):
        x = np.sqrt(x * x + 1.0) - 0.5
    for _ in range(10):
        linear_sum_assignment(_COST)


def rescale(seconds: float, calibration_s: float) -> float:
    """``seconds`` measured while the kernel took ``calibration_s``, at reference speed."""
    return seconds * REFERENCE_S / calibration_s


def kernel_time() -> float:
    """Seconds for one run of the reference kernel."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def calibrate() -> float:
    """Median seconds of the reference kernel over a few runs."""
    return float(np.median([kernel_time() for _ in range(_REPS)]))

