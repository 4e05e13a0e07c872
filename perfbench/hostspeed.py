"""Rescale wall times to a fixed reference speed of the host.

On a shared host the speed of one core switches every few seconds between
a fast and a slow state about 1.6x apart (one process fitting the same
igamma5 data over and over took a median 0.57 s per fit in one 20-second
window and 0.96 s in another), so raw wall times of runs made minutes apart
are not comparable.  A short reference kernel therefore runs
after every timed step, and each step's wall time is multiplied by
``REFERENCE_S`` over the mean kernel time just before and after it: the time
the step would have taken while the kernel ran at its reference speed.

The kernel mixes interpreter-bound Python with small numpy/scipy calls, as
the sampler does, and uses nothing from qvgraph, so a change to the library
cannot move it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import special

# Kernel time on the host the baseline numbers come from: about its median
# over the first set of baseline runs (see README.md).
REFERENCE_S = 0.053

_PY_STEPS = 300_000
_NP_STEPS = 1_200
_VECTOR = np.linspace(0.1, 5.0, 500)
_SMALL = np.linspace(0.1, 1.0, 5)


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(_PY_STEPS):
        acc += math.sqrt(i)
    for _ in range(_NP_STEPS):
        acc += float(special.gammaln(_VECTOR).sum()) + float(np.exp(_SMALL).sum())
    return time.perf_counter() - start


class HostClock:
    """Runs the reference kernel after every timed call."""

    def __init__(self):
        self.kernel_s = [kernel_s()]

    def call(self, fn, *args, **kwargs):
        """Run ``fn``, then the kernel; return the result, wall seconds and scale.

        The scale maps the call's wall time to the reference speed:
        ``REFERENCE_S`` over the mean of the kernel times just before and just
        after the call.  The host switches speed every few seconds, so the
        kernel runs next to each call rather than once per run.
        """
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        self.kernel_s.append(kernel_s())
        return result, wall, 2.0 * REFERENCE_S / (self.kernel_s[-2] + self.kernel_s[-1])
