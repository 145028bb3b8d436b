"""Print the output of every benchmark operation, one line each, then the
outputs of paths the benchmark does not run.

It builds the rounds of ``bench/workloads.py`` for one seed and runs every
operation once, printing ``<workload> | <operation> | <repr of its output>``
(or of the exception it raised).  Then these lines, the same for every seed:

- ``table | <norm> k=<k> | <(n, factor, witness id) of each row>``: the
  ``factor_table`` rows at n = 4, 8, 12 and k = 1, 2 of sup, taylor_disk
  (r = 1e-6) and mixed_deriv on the gap set [-1, -0.5] U [0.5, 1], sup on
  [-1, 0] U {1, 1.5i}, sup on the circle, Lebesgue L^3, sup+L^1,
  taylor_disk (r = 0.5) on [0, 3], and sup on the plane regions
  ``box_region()`` and ``cusp_region()``; at n = 4, 8, 12, 16 and
  k = 1, 2 of qms(2, 3), whose rows are exact;
- ``table | sup[0,3] k=<k>`` and ``table | sup[-2,2] k=<k>``: the same,
  with each row's method, at n = 4, 8, 12 and k = 1, 2: V. Markov's exact
  rows;
- ``table | <norm> <operator label> | <(n, factor, witness id, method) of
  each row>``: the ``factor_table`` rows at n = 4, 8, 12 of operators c*D^k,
  whose rows are those of D^k with |c| times the factor: ``DirOp((-2.0,))``
  under sup and taylor_disk (r = 0.5) on [-1, 1] and Lebesgue L^2 (exact
  rows), and ``HomOp`` 2.0*D^2 + 0.5*D^2 under sup on [-1, 1];
- ``l2 | table <measure> <operator label> | <(n, factor, witness id,
  method) of each row>`` and ``l2 | search <measure> <operator label> |
  <the same of each row>``: the L2 rows of ``factor_table`` and those of
  ``markov_factor_search`` one degree at a time, at n = 0, 1, 2, 8, 16, 64
  and 128, of D, D^2 and ``DirOp((-2.0,))`` under Lebesgue measure on
  [-1, 1] and [0, 3], the Chebyshev and Jacobi(0.3, -0.4) measures and the
  tabulated 1 + x^2/4 weight: exact rows, the same on both lines;
- ``l2 | table 1+x^2/4 <operator label> off powers of two | <the same of
  each row>``: the tabulated weight's rows of D and D^2 at n = 3, 24, 50,
  100 and 127, where a row's Stieltjes system runs to the next power of two
  (``markov_factor_l2``), so a change of that rule shows here;
- ``search | <norm> k=<k> n=<n> | <(factor, witness id, sha256 of the
  witness's Chebyshev coefficient bytes)>``: ``markov_factor_search`` on rows without a
  sampling matrix (``_PolyRatio``) that the benchmark does not run:
  qms(1, 2) and Lebesgue L^1 at k = 1, n = 8, and taylor_disk (r = 0.5) on
  [-1, 1] at k = 1, n = 63, the first degree past the sampling-matrix bound;
- ``family | chebyshev_u k=<k> | <repr of the fit>``: ``family_exponent`` of
  the sequence U_0..U_32 on [-1, 1];
- ``norm | <norm> n=<n> | <value>``: ``evaluate_norm`` of the standard normal
  Chebyshev series of degree n from ``default_rng(n)``: taylor_disk
  (r = 0.5) on [-1, 1] and on [0, 3] at n = 64 and 128, and sup on [-1, 1]
  at n = 128 with ``refine=False`` (its grid values alone);
- ``stieltjes | <weight> nmax=<n> | <(sha256, b_nmax)>``: the recurrence of
  ``stieltjes_orthonormalize`` for the Lebesgue, Jacobi(-0.9, 0.3) and
  tabulated 1 + x^2/4 weights at nmax = 24, 64 and 128, as the sha256 of
  ``alphas.tobytes() + betas.tobytes()`` and the last beta;
- ``verify | <suite> | <its checks>``: every check of
  ``run_suite("all", seed=1729)``, one line per suite.

Two checkouts give the same numbers when their outputs are equal, so a
refactor's "bitwise equal" is a ``diff``:

    PYTHONPATH=src python tools/bench_outputs.py --seed 1 > outputs-1.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (bench/workloads.py)
from markovlab import (  # noqa: E402
    ChebSeries,
    DerivOp,
    DirOp,
    HomOp,
    Interval,
    LpSpec,
    MixedDerivSpec,
    QmsSpec,
    SupPlusLpSpec,
    SupSpec,
    TaylorDiskSpec,
    UnionSet,
    box_region,
    chebyshev_measure,
    chebyshev_u,
    cusp_region,
    disk_boundary,
    evaluate_norm,
    factor_table,
    family_exponent,
    jacobi_measure,
    lebesgue_measure,
    markov_factor_search,
    run_suite,
    stieltjes_orthonormalize,
)
from markovlab.chebseries import as_chebseries  # noqa: E402
from markovlab.domains import tabulated_measure  # noqa: E402
from markovlab.verify import SUITES  # noqa: E402


def _tables() -> dict:
    E, mu = Interval(-1.0, 1.0), lebesgue_measure()
    gap = UnionSet((Interval(-1.0, -0.5), Interval(0.5, 1.0)))
    return {
        "sup-gap": SupSpec(gap),
        "taylor_disk-gap": TaylorDiskSpec(gap, 1e-6),
        "mixed_deriv-gap": MixedDerivSpec(gap),
        "sup[-1,0]+{1,1.5i}": SupSpec(UnionSet((Interval(-1.0, 0.0),), (1.0, 1.5j))),
        "sup-circle": SupSpec(disk_boundary()),
        "lebesgue-L3": LpSpec(mu, 3.0),
        "sup+L1": SupPlusLpSpec(E, mu, 1.0),
        "taylor_disk[0,3]": TaylorDiskSpec(Interval(0.0, 3.0), 0.5),
        "sup-box": SupSpec(box_region()),
        "sup-cusp": SupSpec(cusp_region()),
    }


def _scaled_tables() -> list:
    """(norm name, spec, operator) of the c*D^k ``table`` lines."""
    E, minus_two = Interval(-1.0, 1.0), DirOp((-2.0,))
    return [("sup[-1,1]", SupSpec(E), minus_two),
            ("taylor_disk(r=0.5)[-1,1]", TaylorDiskSpec(E, 0.5), minus_two),
            ("lebesgue-L2", LpSpec(lebesgue_measure(), 2.0), minus_two),
            ("sup[-1,1]", SupSpec(E), HomOp((((2,), 2.0), ((2,), 0.5))))]


def _l2_measures() -> dict:
    """name -> measure of the ``l2`` lines."""
    return {"lebesgue[-1,1]": lebesgue_measure(), "lebesgue[0,3]": lebesgue_measure(0.0, 3.0),
            "chebyshev": chebyshev_measure(), "jacobi(0.3,-0.4)": jacobi_measure(0.3, -0.4),
            "1+x^2/4": tabulated_measure(lambda x: 1.0 + 0.25 * x**2)}


L2_DEGREES = (0, 1, 2, 8, 16, 64, 128)
L2_TABULATED_DEGREES = (3, 24, 50, 100, 127)


def _searches() -> dict:
    """name -> (spec, k, n) of the ``search`` lines."""
    return {"qms(1,2) k=1 n=8": (QmsSpec(1, 2), 1, 8),
            "lebesgue-L1 k=1 n=8": (LpSpec(lebesgue_measure(), 1.0), 1, 8),
            "taylor_disk(r=0.5)[-1,1] k=1 n=63": (TaylorDiskSpec(Interval(-1.0, 1.0), 0.5), 1, 63)}


def _search(q, k: int, n: int) -> tuple:
    row = markov_factor_search(n, DerivOp(k), q)
    return row.factor, row.witness_id, hashlib.sha256(as_chebseries(row.witness).coef.tobytes()).hexdigest()


def _norms() -> dict:
    """name -> (spec, n, refine) of the ``norm`` lines."""
    sets = {"[-1,1]": Interval(-1.0, 1.0), "[0,3]": Interval(0.0, 3.0)}
    lines = {f"taylor_disk(r=0.5){name} n={n}": (TaylorDiskSpec(iv, 0.5), n, True)
             for name, iv in sets.items() for n in (64, 128)}
    lines["sup[-1,1] refine=False n=128"] = (SupSpec(sets["[-1,1]"]), 128, False)
    return lines


def _stieltjes(mu, nmax: int) -> tuple:
    sys_ = stieltjes_orthonormalize(mu, nmax)
    digest = hashlib.sha256(sys_.alphas.tobytes() + sys_.betas.tobytes()).hexdigest()
    return digest, float(sys_.betas[-1])


def _outputs(seed: int):
    """(group, name, run) for every line, in print order; run() is its output."""
    for name in sorted(workloads.WORKLOADS):
        for op in workloads.WORKLOADS[name].build(seed):
            yield name, op.name, op.run
    for name, q in _tables().items():
        for k in (1, 2):
            yield "table", f"{name} k={k}", lambda q=q, k=k: [
                (row.n, row.factor, row.witness_id)
                for row in factor_table(q, DerivOp(k), [4, 8, 12]).rows]
    for name, iv in (("sup[0,3]", Interval(0.0, 3.0)), ("sup[-2,2]", Interval(-2.0, 2.0))):
        for k in (1, 2):
            yield "table", f"{name} k={k}", lambda iv=iv, k=k: [
                (row.n, row.factor, row.witness_id, row.method)
                for row in factor_table(SupSpec(iv), DerivOp(k), [4, 8, 12]).rows]
    for k in (1, 2):
        yield "table", f"qms(2,3) k={k}", lambda k=k: [
            (row.n, row.factor, row.witness_id)
            for row in factor_table(QmsSpec(2, 3), DerivOp(k), [4, 8, 12, 16]).rows]
    for name, q, op in _scaled_tables():
        yield "table", f"{name} {op.label}", lambda q=q, op=op: [
            (row.n, row.factor, row.witness_id, row.method) for row in factor_table(q, op, [4, 8, 12]).rows]
    for name, mu in _l2_measures().items():
        q = LpSpec(mu, 2.0)
        for op in (DerivOp(1), DerivOp(2), DirOp((-2.0,))):
            yield "l2", f"table {name} {op.label}", lambda q=q, op=op: [
                (row.n, row.factor, row.witness_id, row.method) for row in factor_table(q, op, L2_DEGREES).rows]
            yield "l2", f"search {name} {op.label}", lambda q=q, op=op: [
                (row.n, row.factor, row.witness_id, row.method)
                for row in (markov_factor_search(n, op, q) for n in L2_DEGREES)]
    tabulated = LpSpec(_l2_measures()["1+x^2/4"], 2.0)
    for op in (DerivOp(1), DerivOp(2)):
        yield "l2", f"table 1+x^2/4 {op.label} off powers of two", lambda op=op: [
            (row.n, row.factor, row.witness_id, row.method)
            for row in factor_table(tabulated, op, L2_TABULATED_DEGREES).rows]
    for name, (q, k, n) in _searches().items():
        yield "search", name, lambda q=q, k=k, n=n: _search(q, k, n)
    family = [chebyshev_u(n) for n in range(33)]
    for k in (1, 2):
        yield "family", f"chebyshev_u k={k}", lambda k=k: family_exponent(
            family, Interval(-1.0, 1.0), k, (1, 32))
    for name, (q, n, refine) in _norms().items():
        p = ChebSeries(np.random.default_rng(n).standard_normal(n + 1))
        yield "norm", name, lambda q=q, p=p, refine=refine: evaluate_norm(q, p, refine=refine)
    weights = {"lebesgue": lebesgue_measure(), "jacobi(-0.9,0.3)": jacobi_measure(-0.9, 0.3),
               "1+x^2/4": tabulated_measure(lambda x: 1.0 + 0.25 * x**2)}
    for name, mu in weights.items():
        for nmax in (24, 64, 128):
            yield "stieltjes", f"{name} nmax={nmax}", lambda mu=mu, nmax=nmax: _stieltjes(mu, nmax)
    for suite in SUITES:
        yield "verify", suite, lambda suite=suite: run_suite(suite, seed=1729).checks


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    for group, name, run in _outputs(args.seed):
        try:
            out = repr(run())
        except Exception as exc:  # an operation that raises is one output line too
            out = f"raised {type(exc).__name__}: {exc}"
        print(f"{group} | {name} | {out}", flush=True)


if __name__ == "__main__":
    main()
