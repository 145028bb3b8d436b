"""Machine-speed calibration for the timed phase.

The shared machine this benchmark was built on changes speed by up to 2x
within seconds (block medians of one repeated search row ranged over
0.77-1.99 of their median in 90 s), far more than any bound a regression
check could use.  The worker therefore runs fixed calibration kernels
between operations at least every ``EVERY_S`` seconds, and scales each
latency by its kernel's reference time over the median of the ``NEAREST``
times of that kernel taken closest to it.  The speed changes on a scale of
0.1 s (successive 5 ms kernel times correlate 0.75, 100 ms apart -0.16), so
only close samples track it: over 25 search rounds, round times spread 20%
raw, 9% scaled by the nearest 3 samples and 13% scaled by one median per
round.

The kind of work matters too, so each operation names the kernel that does
its kind of work (``Op.kernel`` in workloads.py): ``array`` (small-array
chebder/chebval, as the candidate search and the Gauss and root-split paths
make them), ``scalar`` (chebval at scalar points, as adaptive quadrature
calls its integrand) or ``fraction`` (sparse Fraction-dict products, as
MultiPoly makes them).  Over 41 evaluate rounds, a kernel of small-array
numpy calls and Fraction arithmetic left a 12% round-time spread and the
scalar one 6%; over six evaluate runs, scaling every operation by the scalar
kernel left ``op_p50_ms`` (set by 4-7 ms array-type operations) a 8.3%
spread across runs, and scaling each by its own kind's kernel 4.4%.
Reported times are thus seconds at the speed where the kernels take their
reference times; the kernels do not use markovlab, so a change to the
package cannot move them.

Set-up (a fresh process importing numpy, scipy and markovlab) tracks a
pure-Python kernel of dict, str and list churn better: each set-up time is
scaled by ``SETUP_K_REF_S`` over the mean of the kernel time (a median of
``SETUP_K_RUNS`` runs) just before the imports and just after READY.  Over
76 fresh set-ups, 5-sample block medians spread 21% raw and 8% scaled.  Raw
times are kept in the run record.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

EVERY_S = 0.1
NEAREST = 3
SETUP_K_REF_S = 0.0016
SETUP_K_RUNS = 5


def _array_kernel():
    """chebder and chebval on small arrays, as the candidate search makes them."""
    import numpy as np
    from numpy.polynomial import chebyshev as C

    x, c = np.cos(np.linspace(np.pi, 0.0, 136)), np.linspace(1.0, 2.0, 17)
    acc = 0.0
    for _ in range(60):
        acc += float(np.max(np.abs(C.chebval(x, C.chebder(c)))))
    return acc


def _scalar_kernel():
    """chebval at scalar points, as adaptive quadrature calls its integrand."""
    import numpy as np
    from numpy.polynomial import chebyshev as C

    c = np.linspace(1.0, 2.0, 21)
    acc = 0.0
    for i in range(600):
        acc += abs(C.chebval(-1.0 + i / 300.0, c)) ** 1.5
    return acc


def _fraction_kernel():
    """Products of sparse Fraction-coefficient dicts, as MultiPoly makes them."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6 - i)}
    out = {}
    for (i, j), x in a.items():
        for (k, m), y in a.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + x * y
    return out


# kernel name -> (kernel, its time at the reference speed)
KERNELS = {
    "array": (_array_kernel, 0.007),
    "scalar": (_scalar_kernel, 0.006),
    "fraction": (_fraction_kernel, 0.0025),
}


def kernel_seconds(name: str) -> float:
    kernel = KERNELS[name][0]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def setup_kernel_seconds() -> float:
    """Median time of ``SETUP_K_RUNS`` runs of dict, str and list churn, like
    importing modules; needs no numpy.  The median drops a run that a stray
    pause made several times slower, which one run could not."""
    times = []
    for _ in range(SETUP_K_RUNS):
        t0 = time.perf_counter()
        table = {}
        for i in range(3000):
            table[str(i)] = [i] * 3
        sum(len(v) for v in table.values())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale_at(name: str, times, kernels, t: float) -> float:
    """Reference time of kernel ``name`` over the median of the NEAREST of its
    times (taken at ``times``) closest to t."""
    i = bisect.bisect_left(times, t)
    lo = hi = i
    while hi - lo < min(NEAREST, len(times)):
        if hi >= len(times) or (lo > 0 and t - times[lo - 1] <= times[hi] - t):
            lo -= 1
        else:
            hi += 1
    return KERNELS[name][1] / statistics.median(kernels[lo:hi])
