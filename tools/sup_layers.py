"""Time the refined sup layer by layer: by kind and degree.

For each cell (kind: sup, schur or taylor_disk on [-1, 1], with r = 1e-3;
degree n) it reports the median wall time of one refined ``evaluate_norm``
call and of the same call with ``refine=False`` (the grid pass alone), the
median time spent in ``norms._peak_angles`` (the Newton iteration, apart),
the brackets it was handed and the Newton rounds it took.  The rest of the
refined call, beyond the grid pass and the Newton iteration, is the bracket
set-up and the one Clenshaw pass that samples every maximum found; the
three medians are taken apart, so the rest reads near 0, or below, where
it is smaller than the noise.  The polynomial of degree n is a standard
normal Chebyshev series from ``default_rng(n)``; one untimed call per cell
comes first.

Run from a checkout (BLAS pinned to one thread, as the benchmark does):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/sup_layers.py --reps 21 --out layers.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from markovlab import norms
from markovlab.chebseries import ChebSeries
from markovlab.domains import Interval

E = Interval(-1.0, 1.0)
KINDS = {
    "sup": norms.SupSpec(E),
    "schur": norms.SchurSpec(0.5),
    "taylor_disk": norms.TaylorDiskSpec(E, 1e-3),
}
DEGREES = (8, 16, 32, 64, 128)


class _Probe:
    """Times ``_peak_angles`` and counts the brackets and Newton rounds of
    ``_newton_roots``, while installed."""

    def __init__(self):
        self.newton_s = 0.0
        self.brackets = 0
        self.rounds = 0

    def __enter__(self):
        self._angles, self._newton = norms._peak_angles, norms._newton_roots
        probe = self

        def angles(*args):
            t0 = time.perf_counter()
            try:
                return probe._angles(*args)
            finally:
                probe.newton_s += time.perf_counter() - t0

        def newton(f, x, lo, hi, curvature):
            probe.brackets += lo.size

            def counted(x, live):
                probe.rounds += 1
                return f(x, live)

            return probe._newton(counted, x, lo, hi, curvature)

        norms._peak_angles, norms._newton_roots = angles, newton
        return self

    def __exit__(self, *exc):
        norms._peak_angles, norms._newton_roots = self._angles, self._newton


def cell(kind: str, n: int, reps: int) -> dict:
    p, spec = ChebSeries(np.random.default_rng(n).standard_normal(n + 1)), KINDS[kind]
    norms.evaluate_norm(spec, p)
    with _Probe() as probe:
        norms.evaluate_norm(spec, p)
    brackets, rounds = probe.brackets, probe.rounds
    total, newton, grid = [], [], []
    for _ in range(reps):  # refined and grid-only calls alternate, so drift hits both
        with _Probe() as probe:
            t0 = time.perf_counter()
            norms.evaluate_norm(spec, p)
            total.append(time.perf_counter() - t0)
        newton.append(probe.newton_s)
        t0 = time.perf_counter()
        norms.evaluate_norm(spec, p, refine=False)
        grid.append(time.perf_counter() - t0)
    ms, newton_ms, grid_ms = (1e3 * statistics.median(t) for t in (total, newton, grid))
    return {"kind": kind, "n": n, "median_ms": round(ms, 3), "grid_ms": round(grid_ms, 3),
            "newton_ms": round(newton_ms, 3), "rest_ms": round(ms - grid_ms - newton_ms, 3),
            "brackets": brackets, "rounds": rounds}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=21, help="timed calls per cell")
    parser.add_argument("--out", help="write the rows as JSON here")
    args = parser.parse_args()
    rows = [cell(kind, n, args.reps) for kind in KINDS for n in DEGREES]
    for r in rows:
        print(f"{r['kind']:>11} n={r['n']:<4d} {r['median_ms']:8.3f} ms  grid {r['grid_ms']:8.3f} ms  "
              f"newton {r['newton_ms']:7.3f} ms  rest {r['rest_ms']:7.3f} ms  "
              f"{r['brackets']:4d} brackets  {r['rounds']:3d} rounds")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(rows, f, indent=1)


if __name__ == "__main__":
    main()
