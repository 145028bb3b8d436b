"""Finite-degree Markov factors M_k(n; q) and exponent estimation.

Factor values are exact (largest singular value) in L2 settings and certified
lower bounds everywhere else: sup-norm maximization is itself sampled, and the
candidate-plus-ascent search can only under-shoot the true extremal ratio.
Tables record which of the two certifications applies to every row.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .chebseries import (
    ChebSeries,
    chebyshev_t,
    chebyshev_u,
    deriv_matrix,
    legendre_orthonormal,
    monomial,
    product_2d,
    random_unit,
)
from .domains import Interval, Measure, SampledRegion2D, box_region, json_number
from .errors import PrecisionOverflowError, SpectralityError
from .fitting import AsymptoticTrend, ExponentFit, asymptotic_trend, fit_power_law
from .norms import (
    LpSpec,
    NormSpec,
    SchurSpec,
    SupSpec,
    _evaluate_norms,
    evaluate_norm,
    qms_log_norm,
    sampled_norm,
    sup_norm,
)
from .orthopoly import OrthoSystem, jacobi_system, stieltjes_orthonormalize
from .polynomials import DerivOp, DirOp, HomOp, UniPoly, _lincomb

DEFAULT_SEED = 1729
_ASCENT_ROUNDS = 200
_N_RANDOM_CANDIDATES = 64
_SCREEN_ENTRIES = 1 << 15  # sampled values per screening product (256 kB)


# ---------------------------------------------------------------------------
# Operator descriptors


OperatorSpec = Union[DerivOp, DirOp, HomOp]


def operator_from_json(obj: dict) -> OperatorSpec:
    if not isinstance(obj, dict):
        raise TypeError(f"an operator is a JSON object, not {obj!r}")
    kind = obj.get("kind")
    if kind == "deriv":
        return DerivOp(json_number(obj["k"], "k", integer=True))
    if kind == "dirop":
        return DirOp(tuple(json_number(c, "v") for c in obj["v"]))
    if kind == "hop":
        return HomOp(tuple((tuple(json_number(x, "H", integer=True) for x in a), json_number(c, "H"))
                           for a, c in obj["H"]))
    raise ValueError(f"unknown operator kind {kind!r}")


# ---------------------------------------------------------------------------
# Markov factor tables


@dataclass(frozen=True)
class TableRow:
    n: int
    factor: float
    witness: str


@dataclass(frozen=True)
class MarkovTable:
    op: str
    normspec: NormSpec
    rows: tuple
    certification: str  # "Exact" | "LowerBound"

    def degrees(self):
        return [row.n for row in self.rows]

    def factors(self):
        return [row.factor for row in self.rows]

    def write_csv(self, path, meta: Optional[dict] = None):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            for key, value in (meta or {}).items():
                fh.write(f"# {key}: {value}\n")
            writer = csv.writer(fh)
            writer.writerow(
                ["op", "n", "factor", "certification", "witness_id", "log_n", "log_factor"])
            for row in self.rows:
                log_n = repr(math.log(row.n)) if row.n > 0 else ""
                log_f = repr(math.log(row.factor)) if row.factor > 0 else ""
                writer.writerow([self.op, row.n, repr(float(row.factor)), self.certification,
                                 row.witness, log_n, log_f])


def read_table_csv(path):
    """Rows (n, factor) plus leading '# key: value' metadata from a table CSV."""
    meta, data = {}, []
    with open(path, newline="", encoding="utf-8") as fh:
        for ln in fh:
            key, colon, value = ln[1:].partition(":")
            if not ln.startswith("#"):
                data.append(ln)
            elif colon:
                meta[key.strip()] = value.strip()
    return meta, [(int(rec["n"]), float(rec["factor"])) for rec in csv.DictReader(data)]


@dataclass(frozen=True)
class L2Factor:
    factor: float
    witness_coeffs: np.ndarray
    system: OrthoSystem


def _system_for_measure(mu: Measure, nmax: int) -> OrthoSystem:
    """Stieltjes for a tabulated weight, else the closed-form Jacobi system on [-1, 1]."""
    nmax = max(nmax, 1)
    if mu.weight_fn is not None:
        return stieltjes_orthonormalize(mu, nmax)
    return jacobi_system(mu.alpha, mu.beta, nmax)


def markov_factor_l2(n: int, k: int, mu: Measure, sys: Optional[OrthoSystem] = None) -> L2Factor:
    """Exact max of ||p^(k)||_2 / ||p||_2 over deg p <= n, with its maximizer.

    The value is the largest singular value of the k-th derivative operator
    restricted to degree <= n in the orthonormal basis ``sys`` (by default
    ``_system_for_measure``), taken from its differentiation matrix and scaled
    from sys's support to mu's.
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if sys is None:
        sys = _system_for_measure(mu, max(n, 1))
    U, S, Vh = np.linalg.svd(sys.deriv_matrix(n, k))
    # the affine map between the supports is an L2 isometry; d^k/dx^k scales by (2/(b - a))^k
    scale = (sys.measure.support.width / mu.support.width) ** k
    return L2Factor(scale * float(S[0]), Vh[0].copy(), sys)


@dataclass(frozen=True)
class SearchResult:
    factor: float
    witness_id: str
    witness: object


def _candidates_1d(n: int, rng: np.random.Generator, budget: int):
    cands = [
        ("chebyshev:%d" % n, chebyshev_t(n)),
        ("monomial:%d" % n, monomial(n)),
        ("legendre:%d" % n, legendre_orthonormal(n)),
    ]
    for i in range(_N_RANDOM_CANDIDATES * budget):
        cands.append((f"random:{i}", random_unit(n, rng)))
    return cands


def _candidates_2d(n: int, rng: np.random.Generator, budget: int):
    cands = []
    for i in range(n + 1):
        cands.append((f"chebprod:{i},{n - i}", product_2d(chebyshev_t(i), chebyshev_t(n - i))))
    for t in range(4 * budget):
        coef = np.zeros((n + 1, n + 1))
        for i in range(n + 1):
            coef[i, : n + 1 - i] = rng.standard_normal(n + 1 - i)
        cands.append((f"random2d:{t}", ChebSeries(coef / np.linalg.norm(coef))))
    return cands


def _quotient(best: float, denom: float) -> float:
    """best / denom; -inf where denom = 0, NaN where it overflowed (not best / inf = 0)."""
    if denom == 0.0:
        return -math.inf
    return best / denom if math.isfinite(denom) else math.nan


def _ratios(op: OperatorSpec, q: NormSpec, polys, refine: bool) -> list:
    """max over the images of q(image) / q(p) for each p in polys, by
    ``_quotient``; the norms of every p and every image in one evaluation."""
    images = [op.apply_all(p) for p in polys]
    vals = iter(_evaluate_norms(q, [*polys, *(im for ims in images for im in ims)], refine))
    denoms = [next(vals) for _ in polys]
    return [_quotient(max([0.0] + [next(vals) for _ in ims]), d) for d, ims in zip(denoms, images)]


def _ratio(op: OperatorSpec, q: NormSpec, p, refine: bool) -> float:
    return _ratios(op, q, [p], refine)[0]


class _PolyRatio:
    """Coarse ratios ``_ratio(op, q, p, refine=False)``, one polynomial at a time."""

    def __init__(self, op: OperatorSpec, q: NormSpec):
        self.op, self.q = op, q

    def screen(self, polys) -> list:
        return [_ratio(self.op, self.q, p, refine=False) for p in polys]

    def values(self, coef):
        return None

    def trial(self, coef: np.ndarray, vals, i: int, step: float):
        """coef with ``step`` added to entry i, and its ratio; vals = values(coef)."""
        trial = coef.copy()
        trial[i] += step
        return trial, self._trial_ratio(trial, coef, vals, i)

    def _trial_ratio(self, trial, coef, vals, i) -> float:
        return _ratio(self.op, self.q, ChebSeries(trial), refine=False)


class _BatchedRatio(_PolyRatio):
    """The same ratios for real series of exact degree n, through one matrix.

    The matrix stacks the denominator's sampling matrix over the numerator's
    times the operator's coefficient matrix, so screening is a matrix product
    (in column chunks of at most ``_SCREEN_ENTRIES`` values, which bounds the
    memory for any budget) and an ascent trial that moves coefficient i is
    the rank-1 update ``vals + step * matrix[:, i]`` of the current values
    ``vals = matrix @ coef``.  A trial whose top coefficient is exactly 0 has
    lower degree and other grids; it takes the per-polynomial path.
    """

    def __init__(self, op: OperatorSpec, q: NormSpec, den, num, A: np.ndarray):
        super().__init__(op, q)
        self.den, self.num = den, num
        self.split = den.matrix.shape[0]
        # column-major: the ascent reads one column per trial; complex where the operator is
        self.matrix = np.empty((self.split + num.matrix.shape[0], A.shape[1]),
                               dtype=np.result_type(den.matrix, A), order="F")
        self.matrix[: self.split] = den.matrix
        self.matrix[self.split :] = num.matrix @ A

    def ratios(self, vals: np.ndarray) -> list:
        """The ratios of the columns of vals = matrix @ coefs, as ``_ratios``."""
        denoms = self.den.reduce(vals[: self.split]).tolist()
        images = self.num.reduce(vals[self.split :]).tolist()
        return [_quotient(max(0.0, im), d) for d, im in zip(denoms, images)]

    def screen(self, polys) -> list:
        size = self.matrix.shape[1]
        full = [i for i, p in enumerate(polys) if p.coef.size == size]
        out = [None if p.coef.size == size else _ratio(self.op, self.q, p, refine=False)
               for p in polys]
        width = max(1, _SCREEN_ENTRIES // self.matrix.shape[0])
        for j in range(0, len(full), width):
            chunk = full[j : j + width]
            C = np.stack([polys[i].coef for i in chunk], axis=1)
            for i, r in zip(chunk, self.ratios(self.values(C))):
                out[i] = r
        return out

    def values(self, coef: np.ndarray) -> np.ndarray:
        return self.matrix @ coef

    def _trial_ratio(self, trial, coef, vals, i) -> float:
        if trial[-1] == 0.0:
            return super()._trial_ratio(trial, coef, vals, i)
        col = vals + (trial[i] - coef[i]) * self.matrix[:, i]
        return self.ratios(col[:, None])[0]


def _coef_matrix(op: OperatorSpec, n: int) -> Optional[np.ndarray]:
    """op on Chebyshev coefficients of degree <= n; None unless univariate."""
    try:
        (image,) = op.images(1)
    except ValueError:
        return None
    # homogeneous in one variable: every term has the same k, hence one shape
    return _lincomb((c, deriv_matrix(n, k)) for c, (k,) in image)


def _coarse_ratio(op: OperatorSpec, q: NormSpec, n: int) -> _PolyRatio:
    """The batched evaluator where both the operator and the norm have
    matrices at degree n, the per-polynomial one elsewhere."""
    A = _coef_matrix(op, n)
    den = sampled_norm(q, n) if A is not None else None
    num = sampled_norm(q, A.shape[0] - 1) if den is not None else None
    if num is None:
        return _PolyRatio(op, q)
    return _BatchedRatio(op, q, den, num, A)


def _no_nan(ratios, n: int) -> None:
    """Raise where NaN ratios (a norm that overflowed) left no finite one."""
    if any(math.isnan(r) for r in ratios):
        raise PrecisionOverflowError(
            f"no finite Markov ratio at degree {n}: a norm left the double range"
        )


def markov_factor_search(
    n: int,
    op: OperatorSpec,
    q: NormSpec,
    budget: int = 1,
    seed: int = DEFAULT_SEED,
) -> SearchResult:
    """Certified lower bound for M(n; q) by candidate max plus coordinate ascent.

    The candidate set is fixed and seeded (Chebyshev, monomial, orthonormal
    Legendre, random unit coefficient vectors); the best candidate is refined
    by coordinate-wise ascent with step halving.  Results are lower bounds by
    construction.

    Screening and ascent use the coarse (``refine=False``) ratio.  On a set
    in one variable (interval, union or circle), with a univariate operator,
    it comes from matrices built once per call (``norms.sampled_norm`` and
    ``_coef_matrix``): matrix products screen the candidates and each ascent
    trial is a rank-1 update.  2D, qms, odd or non-integer L^p, large
    taylor_disk and multivariate-operator searches take one polynomial at a
    time.  Either way the finalists (the best candidate and its ascent) are
    certified in one refined pass: ``_ratios`` evaluates every finalist's
    norm and operator images together, with one golden-section loop over all
    their sup terms.  Where NaN ratios (a norm that overflowed) leave no
    finite one, at the screen or at the certification, it raises
    ``PrecisionOverflowError``.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if isinstance(op, DerivOp) and op.k == 0:
        return SearchResult(1.0, "identity", None)
    rng = np.random.default_rng(seed + 7919 * n)
    two_dim = getattr(getattr(q, "set", None), "nvars", 1) == 2
    cands = _candidates_2d(n, rng, budget) if two_dim else _candidates_1d(n, rng, budget)
    coarse = _PolyRatio(op, q) if two_dim else _coarse_ratio(op, q, n)
    best_name, best_poly, best_ratio = "", None, -math.inf
    screened = coarse.screen([p for _, p in cands])
    for (name, p), r in zip(cands, screened):
        if r > best_ratio:
            best_name, best_poly, best_ratio = name, p, r
    if best_poly is None:
        _no_nan(screened, n)
        return SearchResult(0.0, "none", None)
    finalists = [(best_name, best_poly)]
    if not two_dim:
        coef = np.array(best_poly.coef, dtype=float, copy=True)
        if coef.size < n + 1:
            coef = np.concatenate([coef, np.zeros(n + 1 - coef.size)])
        steps = np.full(coef.size, 0.25 * max(np.max(np.abs(coef)), 1e-6))
        cur_ratio = best_ratio
        vals = coarse.values(coef)
        improved = False
        for it in range(_ASCENT_ROUNDS * budget):
            i = it % coef.size
            if steps[i] < 1e-9:
                continue
            gained = False
            for sgn in (1.0, -1.0):
                trial, r = coarse.trial(coef, vals, i, sgn * steps[i])
                if r > cur_ratio * (1 + 1e-14):
                    coef, cur_ratio, gained, improved = trial, r, True, True
                    vals = coarse.values(coef)
                    break
            if not gained:
                steps[i] /= 2.0
        if improved:
            finalists.append((best_name + "+ascent", ChebSeries(coef)))
    # the ascent can overfit grid-only sup estimates; certify with refinement
    final_name, final_poly, final = "", None, -math.inf
    certified = _ratios(op, q, [p for _, p in finalists], refine=True)
    for (name, p), r in zip(finalists, certified):
        if r > final:
            final_name, final_poly, final = name, p, r
    if final_poly is None:
        _no_nan(certified, n)
    return SearchResult(float(max(final, 0.0)), final_name, final_poly)


def factor_table(
    q: NormSpec,
    op: OperatorSpec,
    degrees: Sequence[int],
    seed: int = DEFAULT_SEED,
    budget: int = 1,
) -> MarkovTable:
    """One factor row per degree; exact singular values in L2, search otherwise."""
    degrees = sorted(set(int(n) for n in degrees))
    if not degrees:
        raise ValueError("degree list must be nonempty")
    exact = isinstance(q, LpSpec) and float(q.s) == 2.0 and isinstance(op, DerivOp)
    rows = []
    if exact and op.k >= 1:
        sys = _system_for_measure(q.measure, max(degrees))
        for n in degrees:
            res = markov_factor_l2(n, op.k, q.measure, sys=sys)
            rows.append(TableRow(n, res.factor, "l2-extremal"))
        cert = "Exact"
    else:
        # M_k(n) never decreases in n: a row below the best so far repeats that
        best = (-math.inf, "")  # (factor, witness id prefixed by its degree)
        for n in degrees:
            res = markov_factor_search(n, op, q, budget=budget, seed=seed)
            if res.factor < best[0]:
                rows.append(TableRow(n, *best))
            else:
                rows.append(TableRow(n, res.factor, res.witness_id))
                best = (res.factor, f"n={n}:{res.witness_id}")
        cert = "LowerBound"
    return MarkovTable(op.label, q, tuple(rows), cert)


def fit_exponent(table: MarkovTable, window: Optional[tuple] = None) -> ExponentFit:
    """Least-squares and envelope slopes of log factor against log degree."""
    return fit_power_law(table.degrees(), table.factors(), window=window)


# ---------------------------------------------------------------------------
# Family (sequence) exponents


def family_exponent(family, E, k: int, n_range: tuple) -> ExponentFit:
    """Exponent of sup|Q_n^(k)|/sup|Q_n| growth for a degree-indexed family.

    ``family`` is either an OrthoSystem (values by the recurrence, derivatives
    by its differentiation matrix: the only usable path at high degree) or a
    sequence of polynomials with
    deg family[n] = n.
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    lo = max(lo, 1)
    ns = np.arange(lo, hi + 1)
    if isinstance(family, OrthoSystem):
        if hi > family.nmax:
            raise ValueError(f"range top {hi} exceeds system nmax {family.nmax}")
        base = family.sup_table(E, 0)
        der = family.sup_table(E, k)
        ratios = der[lo : hi + 1] / base[lo : hi + 1]
    else:
        ratios = []
        for n in ns:
            p = family[n]
            denom = sup_norm(p, E)
            if denom == 0.0:
                raise ValueError(f"family member {n} has zero norm")
            ratios.append(sup_norm(p.deriv(k), E) / denom)
        ratios = np.asarray(ratios)
    window = (max(lo, hi // 4), hi)
    return fit_power_law(ns, ratios, window=window)


def asymptotic_exponent(
    fits: Mapping[int, Union[ExponentFit, float]], k_range: Optional[tuple] = None
) -> AsymptoticTrend:
    """Trend of m_k/k from per-order exponent fits (see AsymptoticTrend)."""
    table = {}
    for k, fit in fits.items():
        if k_range is not None and not (k_range[0] <= k <= k_range[1]):
            continue
        table[int(k)] = fit.slope_ls if isinstance(fit, ExponentFit) else float(fit)
    return asymptotic_trend(table)


def norm_exponent_trend(
    q: NormSpec,
    kmax: int,
    degrees: Sequence[int],
    seed: int = DEFAULT_SEED,
    budget: int = 1,
) -> AsymptoticTrend:
    """Build factor tables for k = 1..kmax under q and fit the m_k/k trend."""
    fits = {}
    for k in range(1, kmax + 1):
        table = factor_table(q, DerivOp(k), degrees, seed=seed, budget=budget)
        fits[k] = fit_exponent(table)
    return asymptotic_exponent(fits)


# ---------------------------------------------------------------------------
# Factorial-jet norm exponents (closed form + achievability)


@dataclass(frozen=True)
class QmsExponentReport:
    m: Fraction
    s: int
    k: int
    exact_exponent: Fraction
    fitted_slope: float
    window: tuple

    @property
    def exact_float(self) -> float:
        return float(self.exact_exponent)


def qms_exact_exponent(
    m, s: int, k: int, n_window: tuple = (256, 1024), n_points: int = 9
) -> QmsExponentReport:
    """Order-k exponent of the qms(m, s) norm: s*m*ceil(k/s), with a numeric check.

    The closed-form value is exact on rationals (ceil included).  Achievability
    is verified on the monomial chain x^(s*n): the log-ratio of norms of the
    k-th derivative against the base monomial is fitted against log degree and
    must reproduce the closed form (the caller asserts the 0.1 tolerance).
    """
    if s < 1 or k < 1:
        raise ValueError("need s >= 1 and k >= 1")
    m_frac = Fraction(m)
    exact = s * m_frac * ((k + s - 1) // s)
    lo, hi = n_window
    ns = np.unique(np.geomspace(lo, hi, n_points).astype(int))
    log_ratios = []
    log_degs = []
    for n in ns:
        base = UniPoly.monomial(int(s * n), 1)
        deriv = base.deriv(k)
        lr = qms_log_norm(deriv, m_frac, s) - qms_log_norm(base, m_frac, s)
        log_ratios.append(lr)
        log_degs.append(math.log(s * n))
    A = np.vstack([np.asarray(log_degs), np.ones(len(ns))]).T
    (slope, _), *_ = np.linalg.lstsq(A, np.asarray(log_ratios), rcond=None)
    return QmsExponentReport(
        m=m_frac,
        s=int(s),
        k=int(k),
        exact_exponent=exact,
        fitted_slope=float(slope),
        window=(int(ns[0]), int(ns[-1])),
    )


# ---------------------------------------------------------------------------
# Named verification-style sweeps


@dataclass(frozen=True)
class LaplacianReport:
    l: int
    gradient_fit: ExponentFit
    operator_fit: ExponentFit
    exponent_ratio: float
    predicted_ratio: float


def laplacian_vs_gradient_check(
    E: Optional[SampledRegion2D] = None, degmax: int = 24, l: int = 1
) -> LaplacianReport:
    """Compare fitted exponents of sum_j d^2l/dx_j^2l against the gradient.

    A first-derivative bound with exponent m is equivalent to an order-2l
    bound with exponent 2l*m, so the ratio of fitted exponents should sit
    near 2l.  Runs on a product-Chebyshev corpus over a 2D box by default.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    E = E if E is not None else box_region()
    q = SupSpec(E)
    grad, lap = DerivOp(1), HomOp((((2 * l, 0), 1.0), ((0, 2 * l), 1.0)))
    ns = list(range(1, degmax + 1))
    grad_rows, op_rows = [], []
    for n in ns:
        corpus = [product_2d(chebyshev_t(i), chebyshev_t(n - i)) for i in range(n + 1)]
        grad_rows.append(max(0.0, *_ratios(grad, q, corpus, refine=False)))
        op_rows.append(max(0.0, *_ratios(lap, q, corpus, refine=False)))
    grad_fit = fit_power_law(ns, grad_rows)
    op_fit = fit_power_law(ns, op_rows)
    return LaplacianReport(
        l=l,
        gradient_fit=grad_fit,
        operator_fit=op_fit,
        exponent_ratio=op_fit.slope_ls / grad_fit.slope_ls,
        predicted_ratio=2.0 * l,
    )


@dataclass(frozen=True)
class FloorReport:
    slope: float
    floor: float
    passed: bool
    spectral_defect: float


def spectral_exponent_floor(
    q: NormSpec,
    n_range: tuple = (2, 16),
    k: int = 1,
    seed: int = DEFAULT_SEED,
) -> FloorReport:
    """Check that a spectral norm's fitted Markov exponent is >= 1 - 0.05.

    Preconditions the norm by certifying spectrality on monomial powers
    (q(p^t) = q(p)^t within 1e-8 relative); non-spectral norms raise
    SpectralityError since the floor argument does not apply to them.
    """
    if k == 0:
        return FloorReport(slope=0.0, floor=0.95, passed=True, spectral_defect=0.0)
    p = monomial(1)
    base = evaluate_norm(q, p)
    defect = 0.0
    for t in (2, 3, 4):
        vt = evaluate_norm(q, p**t)
        defect = max(defect, abs(vt - base**t) / max(base**t, 1e-300))
    if defect > 1e-8:
        raise SpectralityError(
            f"norm is not spectral on monomials (defect {defect:.3e})"
        )
    degrees = list(range(n_range[0], n_range[1] + 1))
    table = factor_table(q, DerivOp(k), degrees, seed=seed)
    fit = fit_exponent(table, window=(n_range[0], n_range[1]))
    return FloorReport(
        slope=fit.slope_ls,
        floor=1.0 - 0.05,
        passed=fit.slope_ls >= 1.0 - 0.05,
        spectral_defect=defect,
    )


@dataclass(frozen=True)
class BernsteinSchurReport:
    bernstein_violations: int
    schur_violations: int
    combined_violations: int
    chebyshev_equality_defect: float
    markov_fit: ExponentFit
    corpus_size: int

    @property
    def total_violations(self) -> int:
        return self.bernstein_violations + self.schur_violations + self.combined_violations


def bernstein_schur_check(
    nmax: int = 64, seed: int = DEFAULT_SEED, randoms_per_degree: int = 2
) -> BernsteinSchurReport:
    """Check the weighted derivative/sup inequalities and fit their exponent.

    For every corpus polynomial of degree n the three chained inequalities

        ||sqrt(1-x^2) p'|| <= n ||p||_sup
        ||p||_sup <= (n+1) ||sqrt(1-x^2) p||
        ||sqrt(1-x^2) p'|| <= n (n+1) ||sqrt(1-x^2) p||

    are tested with a 1e-9 relative numeric slack.  The corpus is both
    Chebyshev kinds plus seeded random polynomials; the second kind is the
    near-extremal family for the weighted Markov factor, which is what makes
    the fitted exponent land at 2.
    """
    rng = np.random.default_rng(seed)
    corpus = []  # (n, name, p), in the order the seeded draws are made
    for n in range(1, nmax + 1):
        corpus += [(n, "T", chebyshev_t(n)), (n, "U", chebyshev_u(n))]
        corpus += [(n, "rnd", random_unit(n, rng)) for _ in range(randoms_per_degree)]
    polys = [p for _, _, p in corpus]
    # one refined pass per norm; each polynomial still gets the value it gets alone
    sups = _evaluate_norms(SupSpec(Interval(-1.0, 1.0)), polys)
    weighted = _evaluate_norms(SchurSpec(0.5), polys + [p.deriv(1) for p in polys])
    slack = 1e-9
    b_viol = s_viol = c_viol = 0
    table_ns, table_vals = list(range(1, nmax + 1)), [0.0] * nmax
    equality_defect = 0.0
    for (n, name, _), sup_p, w_p, w_dp in zip(corpus, sups, weighted, weighted[len(polys):]):
        if w_dp > n * sup_p * (1 + slack) + 1e-12:
            b_viol += 1
        if sup_p > (n + 1) * w_p * (1 + slack) + 1e-12:
            s_viol += 1
        if w_dp > n * (n + 1) * w_p * (1 + slack) + 1e-12:
            c_viol += 1
        if w_p > 0:
            table_vals[n - 1] = max(table_vals[n - 1], w_dp / w_p)
        if name == "T":
            # |T_n'| sqrt(1-x^2) attains n on the interior grid
            equality_defect = max(equality_defect, abs(w_dp - n) / n)
    fit = fit_power_law(table_ns, table_vals)
    return BernsteinSchurReport(
        bernstein_violations=b_viol,
        schur_violations=s_viol,
        combined_violations=c_viol,
        chebyshev_equality_defect=equality_defect,
        markov_fit=fit,
        corpus_size=len(corpus),
    )
