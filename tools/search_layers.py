"""Time the Markov factor search layer by layer, for every search row of the benchmark.

For each operation of the ``search`` workload of ``bench/workloads.py`` (one
``factor_table`` row: a norm, an operator, a degree n and a search seed) it
runs the steps of ``exponents.markov_factor_search`` one by one and reports
the median wall time of each over ``--reps`` runs in one process:

- ``cand``: the candidate coefficients (``_candidates_1d`` or ``_candidates_2d``);
- ``build``: the coarse evaluator (``_coarse_ratio``: the sampling matrix of
  ``_BatchedRatio``, or the per-polynomial ``_PolyRatio``, which sets in two
  variables take);
- ``screen``: the coarse ratio of every candidate and the best of them, in
  one pass each way (``_PolyRatio`` in one stacked ``_ratios`` evaluation);
- ``ascent``: the coordinate ascent from the best candidate (``_ascend``;
  none on a set in two variables), ``_PolyRatio`` taking its trials one at
  a time;
- ``cert``: the refined ratios of the finalists (``_ratios``).

The row's factor and witness must be the ones the search entry
``exponents._search_row`` gives; a row where they are not is marked
``MISMATCH``.  Each searched row names its coarse ``path`` (``matrix`` or
``poly``, for the two evaluators above), and two
deterministic counters go with it: ``matrix_rows``, the rows of its
``_BatchedRatio`` sampling matrix (0 on the poly path), and
``chebder_calls``, the numpy ``chebder`` calls of one ``_search_row``.  A row that ``markov_factor_search`` reads off a closed
form (method ``Exact``: V. Markov's sup rows on one interval) runs no
search: it is reported as ``exact``, timed as one ``markov_factor_search``
call.  One untimed run per row comes first.

Run from a checkout (BLAS pinned to one thread, as the benchmark does):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/search_layers.py --seed 1 --reps 7 --out layers.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import numpy as np  # noqa: E402
from numpy.polynomial import chebyshev as nch  # noqa: E402

import workloads  # noqa: E402  (bench/workloads.py)
from markovlab import exponents, norms  # noqa: E402
from markovlab.chebseries import ChebSeries  # noqa: E402

PHASES = ("cand", "build", "screen", "ascent", "cert")


class _Row(Exception):
    """Carries a ``factor_table`` call's arguments out of a workload operation."""


def search_rows(seed: int) -> list:
    """(label, q, op, n, search seed) of every operation of the search workload."""

    def capture(q, op, degrees, seed=exponents.DEFAULT_SEED, budget=1):
        raise _Row(q, op, degrees[0], seed)

    rows, factor_table = [], exponents.factor_table
    exponents.factor_table = capture
    try:
        for op in workloads.WORKLOADS["search"].build(seed):
            try:
                op.run()
            except _Row as row:
                rows.append((op.name, *row.args))
    finally:
        exponents.factor_table = factor_table
    return rows


def phases(q, op, n: int, seed: int) -> tuple:
    """The seconds of each of ``PHASES`` and the (factor, witness id) found,
    by the steps of ``markov_factor_search`` at budget 1."""
    t = [time.perf_counter()]
    rng = np.random.default_rng(seed + 7919 * n)
    two_dim = norms.spec_nvars(q) == 2
    names, coefs = (exponents._candidates_2d if two_dim else exponents._candidates_1d)(n, rng, 1)
    t.append(time.perf_counter())
    coarse = exponents._coarse_ratio(op, q, n)
    t.append(time.perf_counter())
    screened = coarse.screen(coefs)
    best = max(range(len(coefs)), key=lambda j: (screened[j], -j))
    t.append(time.perf_counter())
    finalists = [(names[best], ChebSeries(coefs[best]))]
    if not two_dim:
        coef = exponents._ascend(coarse, coefs[best], screened[best], exponents._ASCENT_ROUNDS)
        if coef is not None:
            finalists.append((names[best] + "+ascent", ChebSeries(coef)))
    t.append(time.perf_counter())
    certified = exponents._ratios(op, q, [p for _, p in finalists], refine=True)
    j = max(range(len(finalists)), key=lambda j: (certified[j], -j))
    t.append(time.perf_counter())
    return np.diff(t), (float(max(certified[j], 0.0)), finalists[j][0])


PATHS = {"_BatchedRatio": "matrix", "_PolyRatio": "poly"}


def counters(q, op, n: int, seed: int) -> tuple:
    """(path, matrix_rows, chebder_calls) of a searched row, and its
    ``_search_row``: the ``PATHS`` name of its coarse evaluator, the rows of
    that evaluator's matrix (0 but on the matrix path), and the numpy
    ``chebder`` calls of one ``_search_row`` run."""
    coarse = exponents._coarse_ratio(op, q, n)
    path = PATHS[type(coarse).__name__]
    rows = coarse.matrix.shape[0] if path == "matrix" else 0
    calls, chebder = [], nch.chebder
    nch.chebder = lambda *args, **kw: calls.append(1) or chebder(*args, **kw)
    try:
        row = exponents._search_row(n, op, q, 1, seed)
    finally:
        nch.chebder = chebder
    return path, rows, len(calls), row


def _median_ms(times) -> list:
    return [round(1e3 * statistics.median(col), 3) for col in np.array(times).T]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--reps", type=int, default=7, help="timed runs per row")
    parser.add_argument("--out", help="write the rows as JSON here")
    args = parser.parse_args()
    out = []
    print(f"{'row':<28}" + "".join(f"{p:>9}" for p in PHASES)
          + f"{'total':>9}  ms  {'path':>6} {'rows':>6} {'chebder':>7}")
    for label, q, op, n, seed in search_rows(args.seed):
        if exponents.markov_factor_search(n, op, q, seed=seed).method == "Exact":
            times = []
            for _ in range(args.reps):
                t = time.perf_counter()
                exponents.markov_factor_search(n, op, q, seed=seed)
                times.append([time.perf_counter() - t])
            (ms,) = _median_ms(times)
            out.append({"row": label, "exact": ms, "total": ms, "match": True})
            print(f"{label:<28}{'exact':>{9 * len(PHASES)}}{ms:9.3f}")
            continue
        _, found = phases(q, op, n, seed)
        path, rows, chebder_calls, row = counters(q, op, n, seed)
        ok = found == (row.factor, row.witness_id)
        ms = _median_ms([phases(q, op, n, seed)[0] for _ in range(args.reps)])
        out.append({"row": label, **dict(zip(PHASES, ms)), "total": round(sum(ms), 3), "match": ok,
                    "path": path, "matrix_rows": rows, "chebder_calls": chebder_calls})
        print(f"{label:<28}" + "".join(f"{m:9.3f}" for m in ms) + f"{sum(ms):9.3f}"
              + f"      {path:>6} {rows:6d} {chebder_calls:7d}" + ("" if ok else "  MISMATCH"))
    totals = [sum(r.get(p, 0.0) for r in out) for p in (*PHASES, "exact")]
    print(f"{'search rows':<28}" + "".join(f"{m:9.3f}" for m in totals[:-1]) + f"{sum(totals[:-1]):9.3f}")
    print(f"{'exact rows':<28}{totals[-1]:{9 * len(PHASES) + 9}.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)


if __name__ == "__main__":
    main()
