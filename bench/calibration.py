"""Fixed reference kernels that measure how fast the machine runs now.

On a shared host the speed of a core changes by up to 2x within seconds
and drifts over minutes, as other tenants load the same physical cores: the
median item time of a 30-second run moved by 30-40% between runs of the same
code.  The benchmark times a kernel ``REPEATS`` times before each study,
after every ``INTERVAL`` seconds of item time and after the study, and
reports study and item times in units of the kernel's median time over the
study.  Such a ratio moves when microgt's own cost moves, and much less when
the machine's speed does.

Contention slows interpreted scalar code and memory-heavy sparse algebra by
different amounts, so each workload is normalised by the kernel that does
its kind of work: ``python``, a scalar loop over a polynomial property fit
like the gas and combustor layers, or ``sparse``, an LU factorisation and
solve of a 6144-unknown system like the bearing layer's 65x96 Newton steps.
Repeated runs of one engine_run_all seed moved by 20% while a mixed kernel
moved by 4%; the sparse kernel alone tracked the bearing workload.  The
kernels never call microgt, so no change to microgt changes them.
"""

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

INTERVAL = 1.0  # s of item time between kernel samples within a study
REPEATS = 3  # kernel runs per sample

_NX, _NY = 64, 96  # the sparse system: a 5-point Laplacian on this grid
_LAPLACIAN = sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-_NX, -1, 0, 1, _NX],
                      shape=(_NX * _NY, _NX * _NY), format="csc")
_RHS = np.ones(_NX * _NY)
_FIT = (1.0, 2.0e-3, 3.0e-6, -1.0e-9, 2.0e-13)  # cp-like polynomial in T


def python_kernel():
    """Scalar Python loop over a polynomial fit, about 6 ms."""
    a0, a1, a2, a3, a4 = _FIT
    total = 0.0
    for i in range(12000):
        t = 300.0 + 0.0625 * i
        for fraction in (0.7, 0.3):
            total += fraction * (a0 + t * (a1 + t * (a2 + t * (a3 + t * a4))))
    return total


def sparse_kernel():
    """Sparse LU factorisation and solve, about 25 ms."""
    return splu(_LAPLACIAN).solve(_RHS)


KERNELS = {"python": python_kernel, "sparse": sparse_kernel}


def sample(kind):
    """Wall times of REPEATS back-to-back runs of one kernel, in seconds."""
    kernel = KERNELS[kind]
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times
