"""Time lp_norm layer by layer: by measure, order s and degree n.

For each cell it reports the median wall time of one call, the values of p
the call takes (points passed to ``ChebSeries.__call__``), the median time
spent in ``norms._real_roots_inside``, apart, and the root path that call
took: ``grid`` (the certified search in theta), ``eig`` (chebroots' dense
eigenvalue solve) or ``grid+eig`` (the grid search gave up).  So that the
crossover degree between the two is measured rather than guessed, every cell
also times each root finder alone on the series the call hands it
(``grid_ms``, ``eig_ms``), whichever path the call takes.  The polynomial of
degree n is a random unit Chebyshev series from ``default_rng(n)``; one
untimed call per cell builds the cached Gauss rules first.

Run from a checkout (BLAS pinned to one thread, as the benchmark does):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/lp_layers.py --reps 15 --out layers.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from markovlab import norms
from markovlab.chebseries import ChebSeries, random_unit
from markovlab.domains import chebyshev_measure, jacobi_measure, lebesgue_measure

MEASURES = {
    "lebesgue": lebesgue_measure,
    "chebyshev": chebyshev_measure,
    "jacobi(0.3,-0.4)": lambda: jacobi_measure(0.3, -0.4),
}
ORDERS = (1.0, 1.5, 3.0)
DEGREES = (32, 48, 64, 96, 128, 256)


class _Probe:
    """Counts the values of p taken, times root finding and records the
    series it is asked about and the root finders it calls, while installed."""

    def __init__(self):
        self.points = 0
        self.roots_s = 0.0
        self.series = []
        self.finders = []

    def __enter__(self):
        self._call, self._roots = ChebSeries.__call__, norms._real_roots_inside
        self._grid, self._eig = norms._grid_roots, np.polynomial.chebyshev.chebroots
        probe = self

        def call(p, *x):
            probe.points += int(np.size(x[0]))
            return probe._call(p, *x)

        def roots(p):
            probe.series.append(p.coef)
            t0 = time.perf_counter()
            try:
                return probe._roots(p)
            finally:
                probe.roots_s += time.perf_counter() - t0

        def grid(c):
            probe.finders.append("grid")
            return probe._grid(c)

        def eig(c):
            probe.finders.append("eig")
            return probe._eig(c)

        ChebSeries.__call__, norms._real_roots_inside = call, roots
        norms._grid_roots, np.polynomial.chebyshev.chebroots = grid, eig
        return self

    def __exit__(self, *exc):
        ChebSeries.__call__, norms._real_roots_inside = self._call, self._roots
        norms._grid_roots, np.polynomial.chebyshev.chebroots = self._grid, self._eig


def _median_ms(f, arg, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        f(arg)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def cell(measure: str, s: float, n: int, reps: int) -> dict:
    p, mu = random_unit(n, np.random.default_rng(n)), MEASURES[measure]()
    norms.lp_norm(p, mu, s)
    with _Probe() as probe:
        norms.lp_norm(p, mu, s)
    points, path, series = probe.points, "+".join(probe.finders), probe.series
    total, roots = [], []
    for _ in range(reps):
        with _Probe() as probe:
            t0 = time.perf_counter()
            norms.lp_norm(p, mu, s)
            total.append(time.perf_counter() - t0)
        roots.append(probe.roots_s)
    ms, roots_ms = 1e3 * statistics.median(total), 1e3 * statistics.median(roots)
    c = series[0]
    return {"measure": measure, "s": s, "n": n, "median_ms": round(ms, 3), "points": points,
            "roots_ms": round(roots_ms, 3), "roots_share": round(roots_ms / ms, 3),
            "root_path": path, "grid_ms": round(_median_ms(norms._grid_roots, c, reps), 3),
            "eig_ms": round(_median_ms(np.polynomial.chebyshev.chebroots, c, reps), 3)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=15, help="timed calls per cell")
    parser.add_argument("--out", help="write the rows as JSON here")
    args = parser.parse_args()
    rows = [cell(m, s, n, args.reps) for m in MEASURES for s in ORDERS for n in DEGREES]
    for r in rows:
        print(f"{r['measure']:>17} s={r['s']:<4g} n={r['n']:<4d} {r['median_ms']:9.3f} ms "
              f"{r['points']:7d} points  roots {r['roots_ms']:7.3f} ms ({r['roots_share']:.0%}) "
              f"{r['root_path']:>8}  grid {r['grid_ms']:7.3f} ms  eig {r['eig_ms']:7.3f} ms")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(rows, f, indent=1)


if __name__ == "__main__":
    main()
