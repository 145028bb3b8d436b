"""The three benchmark workloads, built from a seed.

A workload is a fixed list of operations; one round runs each of them once,
in order.  Inputs (coefficients, search seeds, Jacobi parameters, intervals)
come from the workload seed and are built before timing starts; the program
sees only those inputs.  Every operation calls into markovlab through module
attributes (``exponents.factor_table``, not a name imported at load time) so
the traced run can wrap the functions the package itself calls.

Operations tagged with a fault fail every time on seed-independent inputs
because of a known program fault; they stay in the rounds and are counted as
failed until the fault is mended (see README.md, F1 and F2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import numpy as np

from markovlab import chebseries, domains, exponents, norms, orthopoly, polynomials, scalars

import oracles as ref
from tracing import lp_path

FIXED_SEED = 1729  # inputs of the known-fault operations, independent of --seed
# Seeded inputs per operation kind in one round.  One row's cost moves by up to
# 40% with its seed; averaging over copies keeps the per-seed figures close.
COPIES = 2


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Any  # one of the oracles check classes
    fault: Optional[str] = None
    kernel: Optional[str] = None  # speed.KERNELS name, if not the workload's


@dataclass(frozen=True)
class Workload:
    """Builds the round's operations; ``tail_pct`` is the op_tail_ms percentile,
    ``round_s`` the typical raw time of one round on the reference machine
    (README.md), from which a run's fixed round count is sized, and
    ``kernel`` the speed.KERNELS name that scales operations naming none."""

    build: Callable[[int], list]
    tail_pct: float
    round_s: float
    kernel: str

    def kernel_of(self, op: Op) -> str:
        return op.kernel or self.kernel


def _unit_coef(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-norm Chebyshev coefficients of exact degree n (top one not tiny)."""
    c = rng.standard_normal(n + 1)
    top = np.max(np.abs(c))
    if abs(c[n]) < 1e-3 * top:
        c[n] = math.copysign(1e-3 * top, c[n])
    return c / np.linalg.norm(c)


# ---------------------------------------------------------------------------
# search: one Markov factor row per operation


def build_search(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    I = domains.Interval(-1.0, 1.0)
    lebesgue = domains.lebesgue_measure()
    ops = []

    def row(label, spec, k, n, check, fault=None):
        op = exponents.DerivOp(k)
        seeds = [FIXED_SEED] if fault else [int(rng.integers(2**31)) for _ in range(COPIES)]
        for copy, op_seed in enumerate(seeds):
            ops.append(Op(
                f"{label} k={k} n={n}" + (f" #{copy}" if not fault else ""),
                lambda op_seed=op_seed: exponents.factor_table(spec, op, [n], seed=op_seed).rows[0].factor,
                check,
                fault,
            ))

    sup = norms.SupSpec(I)
    for k, n in ((1, 8), (1, 16), (1, 32), (1, 64), (2, 16), (2, 64)):
        row("sup[-1,1]", sup, k, n, ref.Close(ref.v_markov(n, k, -1.0, 1.0), 1e-8))
    r = 1e-6
    taylor = norms.TaylorDiskSpec(I, r)
    for k, n in ((1, 8), (2, 14), (3, 20)):
        check = ref.Within(lambda n=n, k=k: ref.taylor_disk_witness(n, k, r),
                           lambda n=n, k=k: ref.cheb_deriv_at_one(n, k), 1e-9)
        row("taylor_disk", taylor, k, n, check)
    sup_l2 = norms.SupPlusLpSpec(I, lebesgue, 2.0)
    for n in (8, 16):
        # q(p') <= sup|p'| + ||p'||_2 <= max(V. Markov, L2 factor) * q(p)
        check = ref.Within(lambda n=n: ref.sup_plus_l2_witness(n, 1),
                           lambda n=n: max(ref.cheb_deriv_at_one(n, 1), ref.l2_factor_legendre(n, 1)), 1e-9)
        row("sup_plus_l2", sup_l2, 1, n, check)
    schur = norms.SchurSpec(0.5)
    for n in (8, 16, 32):
        # witness T_n gives at least n; the Schur chain caps the factor at n(n+1)
        row("schur", schur, 1, n, ref.Within(float(n), float(n * (n + 1)), 1e-9))
    box = norms.SupSpec(domains.box_region())
    for n in (4, 8):
        row("sup_box2d", box, 1, n, ref.Close(float(n * n), 1e-8))
    for (a, b), k in (((0.0, 3.0), 1), ((0.0, 3.0), 2), ((-2.0, 2.0), 1)):
        spec = norms.SupSpec(domains.Interval(a, b))
        row(f"sup[{a:g},{b:g}]", spec, k, 16, ref.Close(ref.v_markov(16, k, a, b), 1e-8), fault="F1")
    return ops


# ---------------------------------------------------------------------------
# evaluate: one large refined evaluation per operation

DEGREES = (8, 16, 32, 64, 128)
GAUSS_RTOL = 1e-10  # even s (Gauss) and odd s on Lebesgue (root split) are exact quadratures
ADAPTIVE_RTOL = 1e-6  # adaptive quad; seeded inputs stay below 2e-8 (README.md, F2)
MEASURES = {
    "lebesgue": lambda: domains.lebesgue_measure(),
    "chebyshev": lambda: domains.chebyshev_measure(),
}


def _lp_rtol(s: float, measure: str) -> float:
    return ADAPTIVE_RTOL if lp_path(s, measure) == "adaptive" else GAUSS_RTOL


def build_evaluate(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    I = domains.Interval(-1.0, 1.0)
    ops = []

    def lp_op(label, p, measure, s, check, fault=None):
        # each operation builds its own measure, as one `markovlab norm` call does
        make = MEASURES[measure]
        path = lp_path(s, measure)
        ops.append(Op(
            f"lp {label} {measure} s={s:g} ({path})",
            lambda: norms.evaluate_norm(norms.LpSpec(make(), s), p),
            check,
            fault,
            kernel="scalar" if path == "adaptive" else None,
        ))

    sup = norms.SupSpec(I)
    schur = norms.SchurSpec(0.5)
    for copy in range(COPIES):
        coefs = {n: _unit_coef(rng, n) for n in DEGREES}
        polys = {n: chebseries.ChebSeries(c) for n, c in coefs.items()}
        for n in DEGREES:
            c, p = coefs[n], polys[n]
            ops.append(Op(f"sup n={n} #{copy}", lambda p=p: norms.evaluate_norm(sup, p),
                          ref.Close(lambda c=c: ref.sup_reference(c), 1e-9)))
            ops.append(Op(f"schur n={n} #{copy}", lambda p=p: norms.evaluate_norm(schur, p),
                          ref.Close(lambda c=c: ref.schur_reference(c, 0.5), 1e-9)))
        for measure, s in (("lebesgue", 2.0), ("lebesgue", 4.0), ("chebyshev", 2.0), ("chebyshev", 4.0),
                           ("lebesgue", 1.0), ("lebesgue", 3.0), ("chebyshev", 3.0), ("lebesgue", 1.5)):
            for n in DEGREES:
                c = coefs[n]
                check = ref.Close(lambda c=c, s=s, m=measure: ref.lp_theta_reference(c, s, m),
                                  _lp_rtol(s, measure))
                lp_op(f"n={n} #{copy}", polys[n], measure, s, check)
        for n in (8, 16, 32):
            c = coefs[n]
            check = ref.Close(lambda c=c: ref.lp_theta_reference(c, 1.5, "chebyshev"), ADAPTIVE_RTOL)
            lp_op(f"n={n} #{copy}", polys[n], "chebyshev", 1.5, check)
    for n in (64, 128):
        c = _unit_coef(np.random.default_rng(FIXED_SEED), n)
        check = ref.Close(lambda c=c: ref.lp_theta_reference(c, 1.5, "chebyshev"), ADAPTIVE_RTOL)
        lp_op(f"fixed n={n}", chebseries.ChebSeries(c), "chebyshev", 1.5, check, fault="F2")
    for n in (8, 64):
        p = chebseries.monomial(n)
        for s in (2.0, 3.0, 1.5):
            lp_op(f"x^{n}", p, "lebesgue", s, ref.Close(ref.monomial_lp_lebesgue(n, s), _lp_rtol(s, "lebesgue")))
            lp_op(f"x^{n}", p, "chebyshev", s, ref.Close(ref.monomial_lp_chebyshev(n, s), _lp_rtol(s, "chebyshev")))

    ss = (1.0, 2.0, 4.0)
    for copy, n in itertools.product(range(COPIES), (8, 32, 128)):
        p = chebseries.ChebSeries(_unit_coef(rng, n))

        def sandwich(p=p):
            mu = domains.lebesgue_measure()
            return (norms.evaluate_norm(sup, p),
                    tuple(norms.evaluate_norm(norms.LpSpec(mu, s), p) for s in ss))

        ops.append(Op(f"nikolskii sandwich n={n} #{copy}", sandwich, ref.Sandwich(n, ss)))

    a = float(rng.uniform(-2.0, 1.0))
    b = a + float(rng.uniform(1.0, 4.0))
    l2_rows = [("lebesgue", 1, 1), ("lebesgue", 2, 1), ("lebesgue", 32, 1), ("lebesgue", 128, 1),
               ("lebesgue", 64, 2), ("chebyshev", 32, 1), ("chebyshev", 128, 1), ("chebyshev", 64, 2),
               ("shifted", 32, 1), ("shifted", 128, 1), ("shifted", 64, 2)]
    for kind, n, k in l2_rows:
        if kind == "lebesgue":
            make = MEASURES["lebesgue"]
            want = {(1, 1): math.sqrt(3.0), (2, 1): math.sqrt(15.0)}.get((n, k))
            want = want if want is not None else (lambda n=n, k=k: ref.l2_factor_legendre(n, k))
        elif kind == "chebyshev":
            make = MEASURES["chebyshev"]
            want = lambda n=n, k=k: ref.l2_factor_chebyshev(n, k)
        else:
            make = lambda: domains.lebesgue_measure(a, b)
            want = lambda n=n, k=k: (2.0 / (b - a)) ** k * ref.l2_factor_legendre(n, k)
        label = f"[{a:.3f},{b:.3f}]" if kind == "shifted" else kind
        ops.append(Op(
            f"l2 factor {label} k={k} n={n}",
            lambda n=n, k=k, make=make: exponents.markov_factor_l2(n, k, make()).factor,
            ref.Close(want, 1e-9),
        ))

    for _ in range(3):
        alpha, beta = (float(x) for x in rng.uniform(-0.5, 0.5, size=2))
        for k in (1, 2, 3):
            def family(alpha=alpha, beta=beta, k=k):
                system = orthopoly.jacobi_system(alpha, beta, 128)
                return exponents.family_exponent(system, I, k, (1, 128)).slope_ls
            ops.append(Op(f"family jacobi({alpha:.3f},{beta:.3f}) k={k}", family,
                          ref.Within(1.8 * k, 2.2 * k)))
    return ops


# ---------------------------------------------------------------------------
# rational: exact and float multivariate arithmetic, qms values and chains


def _monomials(nvars: int, deg: int):
    if nvars == 1:
        return [(a,) for a in range(deg + 1)]
    return [(a, b) for a in range(deg + 1) for b in range(deg + 1 - a)]


def _identity_inputs(rng: np.random.Generator, nvars: int, deg: int, exact: bool):
    """f on every other monomial and a direction v; the seed draws only values.

    Which monomials are present and the denominators are fixed, so one cell
    costs about the same for every seed (a seeded support moved the cost of
    one cell by up to 70%).
    """
    terms = {}
    for i, alpha in enumerate(_monomials(nvars, deg)[::2]):
        if exact:
            terms[alpha] = Fraction(int(rng.choice([-1, 1]) * rng.integers(1, 10)), 1 + i % 4)
        else:
            terms[alpha] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    if exact:
        v = tuple(scalars.RationalComplex(Fraction(int(rng.integers(1, 6)), 2), Fraction(int(rng.integers(-5, 6)), 3))
                  for _ in range(nvars))
    else:
        v = tuple(complex(rng.uniform(0.1, 1), rng.uniform(-1, 1)) for _ in range(nvars))
    return polynomials.MultiPoly(terms, nvars), polynomials.DirOp(v)


def build_rational(seed: int) -> list:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for nvars, degrees in ((1, (2, 4, 6)), (2, (2, 3, 4))):
        for deg in degrees:
            for k, exact, copy in itertools.product((1, 2, 3, 4), (True, False), range(COPIES)):
                f, d = _identity_inputs(rng, nvars, deg, exact)
                check = ref.Equal(0.0) if exact else ref.Within(0.0, 1e-9)
                ops.append(Op(
                    f"identity {'exact' if exact else 'float'} nvars={nvars} deg={deg} k={k} #{copy}",
                    lambda f=f, d=d, k=k: polynomials.power_identity_residual(f, d, k),
                    check,
                ))
    for s in (2, 3, 4):
        for n in range(1, 7):
            base = polynomials.UniPoly.monomial(s * n, 1)
            cases = [(base, m, (s, n, m)) for m in (1, 2, 3)]
            cases += [(base.deriv(s * t + j), m, (s, n, m, t, j))
                      for t in range(n) for j in range(1, s) for m in (1, 2, 3)]
            ops.append(Op(
                f"qms golden s={s} n={n}",
                lambda cases=cases, s=s: tuple(norms.qms_norm_exact(p, m, s) for p, m, _ in cases),
                ref.Equal(lambda cases=cases: tuple(
                    ref.qms_base_value(*key) if len(key) == 3 else ref.qms_deriv_value(*key)
                    for _, _, key in cases)),
            ))
    for m in (Fraction(1, 2), Fraction(1), Fraction(2)):
        for s in (2, 3, 4):
            for k in (s, s + 1):
                exact = float(ref.qms_chain_exponent(m, s, k))
                ops.append(Op(
                    f"qms chain m={m} s={s} k={k}",
                    lambda m=m, s=s, k=k: exponents.qms_exact_exponent(m, s, k).fitted_slope,
                    ref.Within(exact - 0.1, exact + 0.1),
                ))
    return ops


WORKLOADS = {
    "search": Workload(build_search, tail_pct=85.0, round_s=6.0, kernel="array"),
    "evaluate": Workload(build_evaluate, tail_pct=99.0, round_s=2.7, kernel="array"),
    "rational": Workload(build_rational, tail_pct=95.0, round_s=1.3, kernel="fraction"),
}
