"""Named verification suites: desk-scale numerical checks behind `verify`.

Each suite returns a machine-readable report; a check compares a measured
value against an expected one at a stated tolerance.  Reports contain no
timestamps so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Callable, Dict, List

import numpy as np

from .chebseries import random_unit
from .domains import Interval, disk_boundary, lebesgue_measure
from .errors import SpectralityError
from .exponents import (
    DEFAULT_SEED,
    bernstein_schur_check,
    laplacian_vs_gradient_check,
    qms_exact_exponent,
    spectral_exponent_floor,
    asymptotic_exponent,
)
from .norms import (
    LpSpec,
    SupSpec,
    lp_norm,
    qms_norm_exact,
    qms_seminorm_terms,
    sup_norm,
)
from .polynomials import DirOp, MultiPoly, UniPoly, power_identity_residual
from .scalars import RationalComplex


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    measured: float
    expected: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class SuiteReport:
    suite: str
    seed: int
    mode: str
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _check_le(name: str, measured: float, bound: float, tolerance: float = 0.0) -> CheckResult:
    ok = measured <= bound + tolerance
    return CheckResult(name, "pass" if ok else "fail", float(measured), float(bound), tolerance)


def _check_interval(name: str, measured: float, lo: float, hi: float) -> CheckResult:
    ok = lo <= measured <= hi
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    return CheckResult(name, "pass" if ok else "fail", float(measured), mid, half)


def _check_eq_count(name: str, failures: int) -> CheckResult:
    return CheckResult(name, "pass" if failures == 0 else "fail", float(failures), 0.0, 0.0)


# ---------------------------------------------------------------------------
# di: the binomial identity for powers of directional derivatives


def _random_exact_multipoly(rng: np.random.Generator, nvars: int, deg: int) -> MultiPoly:
    terms = {}
    for alpha in _multi_indices(nvars, deg):
        if rng.random() < 0.5:
            num = int(rng.integers(-9, 10))
            den = int(rng.integers(1, 10))
            if num:
                terms[alpha] = Fraction(num, den)
    if not terms:
        terms[(0,) * nvars] = Fraction(1)
    return MultiPoly(terms, nvars)


def _random_float_multipoly(rng: np.random.Generator, nvars: int, deg: int) -> MultiPoly:
    terms = {}
    for alpha in _multi_indices(nvars, deg):
        if rng.random() < 0.5:
            terms[alpha] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    if not terms:
        terms[(0,) * nvars] = 1.0
    return MultiPoly(terms, nvars)


def _multi_indices(nvars: int, deg: int):
    if nvars == 1:
        return [(a,) for a in range(deg + 1)]
    return [(a, b) for a in range(deg + 1) for b in range(deg + 1 - a)]


def suite_power_identity(seed: int = DEFAULT_SEED, mode: str = "float", trials: int = 200) -> SuiteReport:
    """Residual sweep of the identity expanding (Df)^k by binomial powers of f."""
    rng = np.random.default_rng(seed)
    worst_float = 0.0
    exact_nonzero = 0
    for _ in range(trials):
        nvars = int(rng.integers(1, 3))
        deg = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        f_float = _random_float_multipoly(rng, nvars, deg)
        v = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(nvars))
        if all(abs(c) < 1e-3 for c in v):
            v = (1.0,) * nvars
        worst_float = max(worst_float, power_identity_residual(f_float, DirOp(v), k))

        f_exact = _random_exact_multipoly(rng, nvars, deg)
        v_exact = tuple(
            RationalComplex(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 6))),
                            Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 6))))
            for _ in range(nvars)
        )
        if all(not c for c in v_exact):
            v_exact = (RationalComplex(1, 0),) * nvars
        if power_identity_residual(f_exact, DirOp(v_exact), k) != 0.0:
            exact_nonzero += 1
    report = SuiteReport("di", seed, mode)
    report.checks.append(_check_le("float-relative-residual", worst_float, 1e-9))
    report.checks.append(_check_eq_count("exact-nonzero-residuals", exact_nonzero))
    return report


# ---------------------------------------------------------------------------
# qms: factorial-jet norm golden values, chain slopes, and the m* separation


def suite_qms(seed: int = DEFAULT_SEED, mode: str = "exact") -> SuiteReport:
    report = SuiteReport("qms", seed, mode)
    term_failures = 0
    value_failures = 0
    for s in (2, 3, 4):
        for n in range(1, 7):
            base = UniPoly.monomial(s * n, 1)
            want = {n: Fraction(math.factorial(s * n))}
            if qms_seminorm_terms(base, s) != want:
                term_failures += 1
            for m in (1, 2, 3):
                expected = Fraction(math.factorial(s * n)) ** (1 - m)
                if qms_norm_exact(base, m, s) != expected:
                    value_failures += 1
            for t in range(n):
                for j in range(1, s):
                    deriv = base.deriv(s * t + j)
                    top = Fraction(math.factorial(s * n), math.factorial(s - j))
                    low = Fraction(math.factorial(s * (n - t - 1)))
                    if qms_seminorm_terms(deriv, s) != {n - t - 1: top}:
                        term_failures += 1
                    for m in (1, 2, 3):
                        if qms_norm_exact(deriv, m, s) != top / low**m:
                            value_failures += 1
    report.checks.append(_check_eq_count("golden-term-maps", term_failures))
    report.checks.append(_check_eq_count("golden-rational-values", value_failures))

    worst_dev = 0.0
    for m in (Fraction(1, 2), Fraction(1), Fraction(2)):
        for s in (2, 3, 4):
            for k in range(1, 2 * s + 1):
                rep = qms_exact_exponent(m, s, k)
                worst_dev = max(worst_dev, abs(rep.fitted_slope - rep.exact_float))
    report.checks.append(_check_le("chain-slope-deviation", worst_dev, 0.1))

    fits = {k: qms_exact_exponent(1, 3, k).fitted_slope for k in range(1, 13)}
    trend = asymptotic_exponent(fits)
    report.checks.append(_check_le("separation-limit-estimate", trend.limit_estimate, 1.1))
    ratio = float(max(trend.ratios))
    status = "pass" if ratio >= 2.5 else "fail"
    report.checks.append(CheckResult("separation-max-ratio", status, ratio, 2.5, 0.0))
    return report


# ---------------------------------------------------------------------------
# nikolskii: two-sided sup vs L^p sandwich with the explicit factor


def suite_nikolskii(seed: int = DEFAULT_SEED, mode: str = "float", count: int = 100) -> SuiteReport:
    rng = np.random.default_rng(seed)
    mu = lebesgue_measure()
    E = Interval(-1.0, 1.0)
    slack = 1e-10
    violations = 0
    for _ in range(count):
        n = int(rng.integers(1, 33))
        p = random_unit(n, rng)
        sup = sup_norm(p, E)
        for s in (1, 2, 4):
            lp = lp_norm(p, mu, s)
            if lp > sup * (1 + slack) + 1e-14:
                violations += 1
            factor = (2.0 * (s + 1) * n * n) ** (1.0 / s)
            if sup > factor * lp * (1 + slack) + 1e-14:
                violations += 1
    report = SuiteReport("nikolskii", seed, mode)
    report.checks.append(_check_eq_count("sandwich-violations", violations))
    return report


# ---------------------------------------------------------------------------
# bernstein-schur, laplacian, floor


def suite_bernstein_schur(seed: int = DEFAULT_SEED, mode: str = "float") -> SuiteReport:
    rep = bernstein_schur_check(nmax=64, seed=seed)
    report = SuiteReport("bernstein-schur", seed, mode)
    report.checks.append(_check_eq_count("bernstein-violations", rep.bernstein_violations))
    report.checks.append(_check_eq_count("schur-violations", rep.schur_violations))
    report.checks.append(_check_eq_count("combined-violations", rep.combined_violations))
    report.checks.append(
        _check_le("chebyshev-equality-defect", rep.chebyshev_equality_defect, 1e-8)
    )
    report.checks.append(
        _check_interval("weighted-markov-exponent", rep.markov_fit.slope_ls, 1.85, 2.15)
    )
    return report


def suite_laplacian(seed: int = DEFAULT_SEED, mode: str = "float") -> SuiteReport:
    report = SuiteReport("laplacian", seed, mode)
    for l in (1, 2):
        rep = laplacian_vs_gradient_check(l=l)
        report.checks.append(
            _check_interval(
                f"order-{2 * l}-exponent-ratio", rep.exponent_ratio, 2 * l - 0.6, 2 * l + 0.6
            )
        )
    return report


def suite_floor(seed: int = DEFAULT_SEED, mode: str = "float") -> SuiteReport:
    report = SuiteReport("floor", seed, mode)
    sets = (("interval-sup-floor", Interval(-1.0, 1.0)), ("disk-sup-floor", disk_boundary()))
    for name, E in sets:
        floor = spectral_exponent_floor(SupSpec(E), seed=seed)
        status = "pass" if floor.passed else "fail"
        report.checks.append(CheckResult(name, status, floor.slope, floor.floor, 0.0))
    try:
        spectral_exponent_floor(LpSpec(lebesgue_measure(), 2.0), seed=seed)
        rejected = 0
    except SpectralityError:
        rejected = 1
    report.checks.append(
        CheckResult("non-spectral-rejected", "pass" if rejected else "fail", float(rejected), 1.0, 0.0)
    )
    return report


SUITES: Dict[str, Callable[..., SuiteReport]] = {
    "di": suite_power_identity,
    "qms": suite_qms,
    "nikolskii": suite_nikolskii,
    "bernstein-schur": suite_bernstein_schur,
    "laplacian": suite_laplacian,
    "floor": suite_floor,
}


def run_suite(name: str, seed: int = DEFAULT_SEED, mode: str = "float") -> SuiteReport:
    """Run one named suite, or all of them aggregated under the name "all"."""
    if name == "all":
        combined = SuiteReport("all", seed, mode)
        for sub in SUITES:
            rep = run_suite(sub, seed=seed, mode=mode)
            combined.checks += [replace(check, name=f"{sub}/{check.name}") for check in rep.checks]
        return combined
    if not isinstance(name, str) or name not in SUITES:
        raise ValueError(f"unknown suite name {name!r}")
    return SUITES[name](seed=seed, mode=mode)
