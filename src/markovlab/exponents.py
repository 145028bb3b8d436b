"""Finite-degree Markov factors M_k(n; q) and exponent estimation.

Factor values are exact in L2 settings (largest singular value) and for the
identity (M_0(n) = 1), and certified lower bounds everywhere else: sup-norm
maximization is itself sampled, and the candidate-plus-ascent search can only
under-shoot the true extremal ratio.
Every factor is a ``Bound`` row that records its own method, ``Exact`` or
``LowerBound``, with the witness it was read from.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .chebseries import (
    ChebSeries,
    chebyshev_t,
    chebyshev_u,
    deriv_matrix,
    legendre_orthonormal,
    monomial,
    product_2d,
    random_unit,
    random_units,
)
from .domains import Interval, Measure, box_region, json_number, sup_points
from .errors import PrecisionOverflowError, SpectralityError
from .fitting import AsymptoticTrend, ExponentFit, asymptotic_exponent, fit_power_law
from .norms import (
    LpSpec,
    NormSpec,
    SchurSpec,
    SupSpec,
    _evaluate_norms,
    _gauss_power_rule,
    _schur_weight,
    evaluate_norm,
    qms_log_norm,
)
from .orthopoly import OrthoSystem, jacobi_system, stieltjes_orthonormalize
from .polynomials import DerivOp, DirOp, HomOp, UniPoly, _lincomb

DEFAULT_SEED = 1729
_ASCENT_ROUNDS = 200
_N_RANDOM_CANDIDATES = 64
_SCREEN_ENTRIES = 1 << 15  # sampled values per screening product (256 kB)
_LAPLACIAN_DEGMAX = 24  # laplacian_vs_gradient_check's corpus: degrees 1..24
_FLOOR_DEGREES = (2, 16)  # spectral_exponent_floor's table and fit window
_RANDOMS_PER_DEGREE = 2  # bernstein_schur_check's random polynomials per degree


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
class Bound:
    """One Markov factor row: M(n) = factor if method is "Exact", M(n) >= factor
    if "LowerBound".  ``witness`` is the polynomial ``witness_id`` names: a
    ``ChebSeries`` for a search row (None for the identity or where no ratio
    exists), for an L2 row the coefficient vector ``markov_factor_l2`` gives."""

    n: int
    factor: float
    witness_id: str
    witness: object
    method: str  # "Exact" | "LowerBound"


@dataclass(frozen=True)
class MarkovTable:
    op: str
    normspec: NormSpec
    rows: tuple  # of Bound

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
                writer.writerow([self.op, row.n, repr(float(row.factor)), row.method,
                                 row.witness_id, log_n, log_f])


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


def _system_for_measure(mu: Measure, nmax: int) -> OrthoSystem:
    """Stieltjes for a tabulated weight, else the closed-form Jacobi system on [-1, 1]."""
    nmax = max(nmax, 1)
    if mu.weight_fn is not None:
        return stieltjes_orthonormalize(mu, nmax)
    return jacobi_system(mu.alpha, mu.beta, nmax)


def exact_l2(q: NormSpec, op: OperatorSpec) -> bool:
    """Whether ``factor_table`` takes M(n) from ``markov_factor_l2``: an L2
    norm and a derivative of order k >= 1."""
    return isinstance(q, LpSpec) and float(q.s) == 2.0 and isinstance(op, DerivOp) and op.k >= 1


def markov_factor_l2(n: int, k: int, mu: Measure, sys: Optional[OrthoSystem] = None) -> Bound:
    """Exact max of ||p^(k)||_2 / ||p||_2 over deg p <= n, with its maximizer.

    The value is the largest singular value of the k-th derivative operator
    restricted to degree <= n in the orthonormal basis ``sys`` (by default
    ``_system_for_measure``), taken from its differentiation matrix and scaled
    from sys's support to mu's.  The witness is the top right singular vector,
    the maximizer's coefficients in sys's orthonormal basis on sys's support.
    """
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if sys is None:
        sys = _system_for_measure(mu, max(n, 1))
    U, S, Vh = np.linalg.svd(sys.deriv_matrix(n, k))
    # the affine map between the supports is an L2 isometry; d^k/dx^k scales by (2/(b - a))^k
    scale = (sys.measure.support.width / mu.support.width) ** k
    return Bound(n, scale * float(S[0]), "l2-extremal", Vh[0].copy(), "Exact")


def _candidates_1d(n: int, rng: np.random.Generator, budget: int):
    """Candidate names and coefficient rows: the named series of degree n,
    then the random ones, drawn as one matrix."""
    named = [("chebyshev:%d" % n, chebyshev_t(n)), ("monomial:%d" % n, monomial(n)),
             ("legendre:%d" % n, legendre_orthonormal(n))]
    count = _N_RANDOM_CANDIDATES * budget
    names = [name for name, _ in named] + [f"random:{i}" for i in range(count)]
    return names, np.vstack([[p.coef for _, p in named], random_units(n, count, rng)])


def _candidates_2d(n: int, rng: np.random.Generator, budget: int):
    names, coefs = [], []
    for i in range(n + 1):
        names.append(f"chebprod:{i},{n - i}")
        coefs.append(product_2d(chebyshev_t(i), chebyshev_t(n - i)).coef)
    for t in range(4 * budget):
        coef = np.zeros((n + 1, n + 1))
        for i in range(n + 1):
            coef[i, : n + 1 - i] = rng.standard_normal(n + 1 - i)
        names.append(f"random2d:{t}")
        coefs.append(coef / np.linalg.norm(coef))
    return names, coefs


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

    max_block = math.inf  # trials are evaluated one by one, up to the first gain

    def __init__(self, op: OperatorSpec, q: NormSpec):
        self.op, self.q = op, q

    def screen(self, coefs) -> list:
        """The ratio of the series with each of these coefficient arrays."""
        return [_ratio(self.op, self.q, ChebSeries(c), refine=False) for c in coefs]

    def values(self, coef):
        return None

    def first_gain(self, coef: np.ndarray, vals, idx, steps, floor: float):
        """(j, ratio) for the first trial j whose ratio is above floor, or
        None; trial j is coef with steps[j] added to entry idx[j], and
        vals = values(coef)."""
        for j, (i, step) in enumerate(zip(idx, steps)):
            trial = coef.copy()
            trial[i] += step
            r = _ratio(self.op, self.q, ChebSeries(trial), refine=False)
            if r > floor:
                return j, r
        return None


# Largest sampling matrix built for a search's denominator (entries, 8 MB).
# Only taylor_disk, whose matrix grows like 4*deg^3, passes it (past degree
# 62); it then keeps the per-polynomial path, which needs no memory beyond one
# polynomial's samples.
_SAMPLED_MAX_ENTRIES = 1 << 20


def _sampled_side(q: NormSpec, deg: int):
    """(table, grids, rule): q's ``terms`` table at degree deg, the points at
    which ``evaluate_norm(q, p, refine=False)`` samples each sup term of a
    real series p of degree deg (every piece's grid, then the set's fixed
    samples, real or complex), and ``lp_norm``'s Gauss rule for an L^p part
    (None without one).  None for the tables no matrix takes: a set in two
    variables, a qms entry, an L^p part off the Gauss path."""
    t = q.terms(deg)
    if t.qms or t.sups and t.set.nvars != 1:
        return None
    rule = _gauss_power_rule(*t.lp, deg) if t.lp else None
    if t.lp and rule is None:
        return None
    return t, [sup_points(t.set, max(deg - k, 0)) for k, _, _ in t.sups], rule


def _sampling_matrix(deg: int, t, grids, rule) -> np.ndarray:
    """The values at a ``_sampled_side``'s points of real series of degree
    deg, from their coefficients: one block per sup term, then the rule."""
    blocks, power = [], np.eye(deg + 1)
    step = np.zeros((deg + 1, deg + 1))  # d/dx, padded to a square
    if len(grids) > 1:
        step[:deg] = deriv_matrix(deg, 1)[:deg]
    for (k, _, _), grid in zip(t.sups, grids):  # orders run 0, 1, 2, ...: power is D^k
        dk = max(deg - k, 0)
        vander = chebvander(grid, dk)
        blocks.append(vander @ power[: dk + 1] if k else vander)
        power = step @ power
    if rule:
        blocks.append(chebvander(rule[0], deg))
    return np.vstack(blocks)


class _BatchedRatio:
    """The same ratios for real series of degree at most n, through one matrix.

    Built from den and num, the ``_sampled_side`` of q at degree n and at the
    operator's image degree, and A, the operator's coefficient matrix, the
    matrix takes coefficient vectors (as columns) to exactly the values the
    coarse ratio samples: the sup blocks of q(p), then those of q(Ap), then
    the L^p Gauss nodes of both.  Screening is a matrix product (in column
    chunks of at most ``_SCREEN_ENTRIES`` values, which bounds the memory for
    any budget).  A block of ascent trials, each moving one coefficient of
    the current vector ``coef``, is one array pass: the trial moving
    coefficient i by d has the values ``vals + d * matrix[:, i]``, where
    ``vals = matrix @ coef``, and one ``ratios`` call takes them all;
    ``max_block`` keeps a block within ``_SCREEN_ENTRIES`` values too.  A
    vector whose top coefficient is 0 is sampled at the degree-n points and
    rule, at least as fine as its own, so it takes the same matrix.
    """

    def __init__(self, den, num, A: np.ndarray):
        (t, grids, rule), (num_t, num_grids, num_rule) = den, num
        dense = [_sampling_matrix(A.shape[1] - 1, *den),
                 _sampling_matrix(A.shape[0] - 1, *num) @ A]
        sup_rows = [sum(g.size for g in grids), sum(g.size for g in num_grids)]
        # column-major: trials gather columns; complex where the operator is
        self.matrix = np.empty((sum(M.shape[0] for M in dense), A.shape[1]),
                               dtype=np.result_type(*dense), order="F")
        np.concatenate([M[:r] for M, r in zip(dense, sup_rows)]
                       + [M[r:] for M, r in zip(dense, sup_rows)], out=self.matrix)
        grids = grids + num_grids
        self.nsup = sum(sup_rows)
        self.starts = np.cumsum([0] + [g.size for g in grids[:-1]])
        self.coeffs = np.asarray([scale / divisor for table in (t, num_t)
                                  for _, scale, divisor in table.sups], dtype=float)
        self.row_weight = _schur_weight(t.alpha, np.concatenate(grids)) if t.alpha else None
        # the Gauss weights of both sides, and s
        self.lp = (np.concatenate([rule[1], num_rule[1]]), int(t.lp[1])) if rule else None
        # the terms summed into each side, in parts: the sup terms of the
        # denominator and of the numerator, then (with an L^p part) their Gauss
        # nodes; term r of part c is row r of line c of a table zero-padded
        # to the longest part, at ``slots`` (None where no part is shorter)
        counts = [len(t.sups), len(num_t.sups)] + ([rule[1].size, num_rule[1].size] if rule else [])
        self.shape = (len(counts), max(counts))
        self.slots = None if min(counts) == max(counts) else np.concatenate(
            [np.arange(n) + c * self.shape[1] for c, n in enumerate(counts)])
        # the most ascent iterations in one block, at two trials each
        self.max_block = max(1, _SCREEN_ENTRIES // (2 * self.matrix.shape[0]))

    def ratios(self, vals: np.ndarray) -> list:
        """The ratios of the columns of vals = matrix @ coefs, as ``_ratios``:
        the maxima of every sup block of both sides in one reduction (times
        ``row_weight``, the Schur weight), times ``coeffs``, then the L^p
        powers of both sides, set into one table by ``slots``, whose lines
        one ``np.add.accumulate`` sums in row order, so a column's ratio does
        not depend on how many columns come with it."""
        vals = np.abs(vals)
        terms = []
        if self.nsup:
            sup = vals[: self.nsup]
            if self.row_weight is not None:
                sup *= self.row_weight[:, None]
            terms.append(self.coeffs[:, None] * np.maximum.reduceat(sup, self.starts, axis=0))
        if self.lp is not None:
            weights, s = self.lp
            terms.append(weights[:, None] * vals[self.nsup :] ** s)
        terms = terms[0] if len(terms) == 1 else np.concatenate(terms)
        if self.slots is not None:
            table = np.zeros((self.shape[0] * self.shape[1], vals.shape[1]))
            table[self.slots] = terms
            terms = table
        sums = np.add.accumulate(terms.reshape(*self.shape, -1), axis=1)[:, -1]
        if self.lp is not None:
            sums = sums[:2] + sums[2:] ** (1.0 / s)
        denoms, images = sums.tolist()
        return [_quotient(max(0.0, im), d) for d, im in zip(denoms, images)]

    def screen(self, coefs) -> list:
        """The ratio of the series with each row of coefs as coefficients."""
        C = np.asarray(coefs)
        width, out = max(1, _SCREEN_ENTRIES // self.matrix.shape[0]), []
        for j in range(0, len(C), width):
            out += self.ratios(self.values(np.ascontiguousarray(C[j : j + width].T)))
        return out

    def values(self, coef: np.ndarray) -> np.ndarray:
        return self.matrix @ coef

    def first_gain(self, coef, vals, idx, steps, floor):
        """As ``_PolyRatio.first_gain``, from one rank-1 update per trial."""
        old = coef[idx]
        block = self.matrix.T.take(idx, axis=0)  # one contiguous row per trial
        block *= ((old + steps) - old)[:, None]
        block += vals
        return next(((j, r) for j, r in enumerate(self.ratios(block.T)) if r > floor), None)


def _ascend(coarse, coef: np.ndarray, ratio: float, rounds: int):
    """Coordinate ascent with step halving from coef, whose coarse ratio is
    ratio; the improved coefficients, or None where no trial improved.

    Iteration it tries coordinate it % coef.size by +step, then -step, keeps
    the first trial whose ratio beats the current one by a factor 1 + 1e-14,
    and halves the coordinate's step when neither does; a step below 1e-9 is
    skipped.  Iterations are planned in blocks, on Python floats, as if every
    trial fails, and ``coarse.first_gain`` takes a block's trials together;
    the first improving trial in iteration order is kept and the next block
    starts after it, so the result is bitwise the one-trial-at-a-time
    ascent's.  A block is 2 iterations after a kept trial and doubles after
    a block without one, up to ``coarse.max_block``.
    """
    size = coef.size
    steps = [0.25 * max(float(np.max(np.abs(coef))), 1e-6)] * size
    vals, improved, it, block = coarse.values(coef), False, 0, 2
    while True:
        # a step planned v visits ahead is halved v times (exactly: a power of 2)
        plan, width = [], min(block, coarse.max_block)
        for t in range(it, rounds):
            step = steps[t % size] * 0.5 ** ((t - it) // size)
            if step >= 1e-9:
                plan.append((t, step))
                if len(plan) == width:
                    break
        if not plan:
            return coef if improved else None
        idx = np.array([t % size for t, _ in plan]).repeat(2)
        signed = [x for _, step in plan for x in (step, -step)]
        hit = coarse.first_gain(coef, vals, idx, signed, ratio * (1 + 1e-14))
        for t, _ in plan[: len(plan) if hit is None else hit[0] // 2]:  # both trials failed
            steps[t % size] *= 0.5
        if hit is None:
            it, block = plan[-1][0] + 1, 2 * block
        else:
            j, ratio = hit
            coef = coef.copy()
            coef[idx[j]] += signed[j]
            vals, improved = coarse.values(coef), True
            it, block = plan[j // 2][0] + 1, 2


def _coef_matrix(op: OperatorSpec, n: int) -> Optional[np.ndarray]:
    """op on Chebyshev coefficients of degree <= n; None unless univariate."""
    try:
        (image,) = op.images(1)
    except ValueError:
        return None
    # homogeneous in one variable: every term has the same k, hence one shape
    return _lincomb((c, deriv_matrix(n, k)) for c, (k,) in image)


def _coarse_ratio(op: OperatorSpec, q: NormSpec, n: int):
    """The batched evaluator where the operator has a matrix at degree n and
    q's table a sampling matrix of at most ``_SAMPLED_MAX_ENTRIES`` entries
    there; the per-polynomial one elsewhere (sets in two variables among
    them)."""
    A = _coef_matrix(op, n)
    den = None if A is None else _sampled_side(q, n)
    if den is not None:
        _, grids, rule = den
        rows = sum(g.size for g in grids) + (rule[0].size if rule else 0)
        if rows * (n + 1) <= _SAMPLED_MAX_ENTRIES:
            return _BatchedRatio(den, _sampled_side(q, A.shape[0] - 1), A)
    return _PolyRatio(op, q)


def _no_nan(ratios, n: int) -> None:
    """Raise where NaN ratios (a norm that overflowed) left no finite one."""
    if any(math.isnan(r) for r in ratios):
        raise PrecisionOverflowError(
            f"no finite Markov ratio at degree {n}: a norm left the double range"
        )


def _coarse_finalists(n: int, op: OperatorSpec, q: NormSpec, budget: int, seed: int) -> list:
    """The best candidate by the coarse ratio and, where the ascent improved
    on it, the ascent's result, as (name, series) pairs; none where no
    candidate has a ratio.  The coarse matrices go when it returns, before
    the certification needs its own memory."""
    rng = np.random.default_rng(seed + 7919 * n)
    two_dim = getattr(getattr(q, "set", None), "nvars", 1) == 2
    names, coefs = (_candidates_2d if two_dim else _candidates_1d)(n, rng, budget)
    coarse = _coarse_ratio(op, q, n)
    best, best_ratio = None, -math.inf
    screened = coarse.screen(coefs)
    for j, r in enumerate(screened):
        if r > best_ratio:
            best, best_ratio = j, r
    if best is None:
        _no_nan(screened, n)
        return []
    finalists = [(names[best], ChebSeries(coefs[best]))]
    if not two_dim:
        coef = _ascend(coarse, coefs[best], best_ratio, _ASCENT_ROUNDS * budget)
        if coef is not None:
            finalists.append((names[best] + "+ascent", ChebSeries(coef)))
    return finalists


def markov_factor_search(
    n: int,
    op: OperatorSpec,
    q: NormSpec,
    budget: int = 1,
    seed: int = DEFAULT_SEED,
) -> Bound:
    """Certified lower bound for M(n; q) by candidate max plus coordinate ascent.

    The candidate set is fixed and seeded (Chebyshev, monomial, orthonormal
    Legendre, random unit coefficient vectors); the best candidate is refined
    by coordinate-wise ascent with step halving.  Results are lower bounds by
    construction.

    Screening and ascent use the coarse (``refine=False``) ratio.  The
    random candidates are drawn as one coefficient matrix, and only the
    winner becomes a ``ChebSeries``.  On a set in one variable (interval,
    union or circle), with a univariate operator, the ratio comes from one
    matrix built once per call (``_BatchedRatio``, from the norm's ``terms``
    tables and ``_coef_matrix``): matrix products screen the candidates, and
    the ascent (``_ascend``) takes its trials in blocks, each block one array
    pass of rank-1 updates and one reduction (``_BatchedRatio.first_gain``).
    2D, qms, odd or non-integer L^p and large taylor_disk searches take one
    polynomial, and one trial, at a time.  Either way the finalists (the
    best candidate and its ascent) are certified in one refined pass:
    ``_ratios`` evaluates every finalist's norm and operator images
    together, with one rfft per degree for the grids and one Newton loop over
    the brackets of all their sup terms.  Where NaN ratios (a norm that
    overflowed) leave no finite one, at the screen or at the certification,
    it raises ``PrecisionOverflowError``.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if isinstance(op, DerivOp) and op.k == 0:
        return Bound(n, 1.0, "identity", None, "Exact")
    finalists = _coarse_finalists(n, op, q, budget, seed)
    if not finalists:
        return Bound(n, 0.0, "none", None, "LowerBound")
    # the ascent can overfit grid-only sup estimates; certify with refinement
    final_name, final_poly, final = "", None, -math.inf
    certified = _ratios(op, q, [p for _, p in finalists], refine=True)
    for (name, p), r in zip(finalists, certified):
        if r > final:
            final_name, final_poly, final = name, p, r
    if final_poly is None:
        _no_nan(certified, n)
    return Bound(n, float(max(final, 0.0)), final_name, final_poly, "LowerBound")


def factor_table(
    q: NormSpec,
    op: OperatorSpec,
    degrees: Sequence[int],
    seed: int = DEFAULT_SEED,
    budget: int = 1,
) -> MarkovTable:
    """One ``Bound`` row per degree: exact singular values where ``exact_l2``,
    search lower bounds otherwise."""
    degrees = sorted(set(int(n) for n in degrees))
    if not degrees:
        raise ValueError("degree list must be nonempty")
    if exact_l2(q, op):
        sys = _system_for_measure(q.measure, max(degrees))
        return MarkovTable(op.label, q, tuple(markov_factor_l2(n, op.k, q.measure, sys=sys)
                                              for n in degrees))
    # M_k(n) never decreases in n: a row below the best so far repeats that
    rows, best = [], None  # best: the best row so far, its id prefixed by its degree
    for n in degrees:
        row = markov_factor_search(n, op, q, budget=budget, seed=seed)
        if best is not None and row.factor < best.factor:
            row = replace(best, n=n)
        else:
            best = replace(row, witness_id=f"n={n}:{row.witness_id}")
        rows.append(row)
    return MarkovTable(op.label, q, tuple(rows))


def fit_exponent(table: MarkovTable, window: Optional[tuple] = None) -> ExponentFit:
    """Least-squares and envelope slopes of log factor against log degree."""
    return fit_power_law(table.degrees(), table.factors(), window=window)


# ---------------------------------------------------------------------------
# Family (sequence) exponents


def family_exponent(family, E, k: int, n_range: tuple) -> ExponentFit:
    """Exponent of sup|Q_n^(k)|/sup|Q_n| growth for a degree-indexed family.

    ``family`` is either an OrthoSystem (values by the recurrence, derivatives
    by its differentiation matrix: the only usable path at high degree) or a
    sequence of polynomials with deg family[n] = n, whose sups, with those
    of their k-th derivatives, are taken in one refined pass.
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    lo = max(lo, 1)
    ns = np.arange(lo, hi + 1)
    if isinstance(family, OrthoSystem):
        if hi > family.nmax:
            raise ValueError(f"range top {hi} exceeds system nmax {family.nmax}")
        base, der = family.sup_tables(E, (0, k))
        ratios = der[lo : hi + 1] / base[lo : hi + 1]
    else:
        members = [family[n] for n in ns]
        sups = _evaluate_norms(SupSpec(E), [*members, *(p.deriv(k) for p in members)])
        denoms = np.array(sups[: ns.size])
        if not denoms.all():
            raise ValueError(f"family member {ns[np.flatnonzero(denoms == 0.0)[0]]} has zero norm")
        ratios = np.array(sups[ns.size :]) / denoms
    window = (max(lo, hi // 4), hi)
    return fit_power_law(ns, ratios, window=window)


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
        fits[k] = fit_exponent(table).slope_ls
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
    if len(ns) < 2:
        raise ValueError(f"the window {n_window} with {n_points} point(s) gives "
                         "fewer than two distinct degrees to fit a slope through")
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


def laplacian_vs_gradient_check(l: int = 1) -> LaplacianReport:
    """Compare fitted exponents of sum_j d^2l/dx_j^2l against the gradient.

    A first-derivative bound with exponent m is equivalent to an order-2l
    bound with exponent 2l*m, so the ratio of fitted exponents should sit
    near 2l.  Runs on a product-Chebyshev corpus over the box [-1, 1]^2
    (``box_region()``), degrees 1 to ``_LAPLACIAN_DEGMAX``.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    q = SupSpec(box_region())
    grad, lap = DerivOp(1), HomOp((((2 * l, 0), 1.0), ((0, 2 * l), 1.0)))
    ns = list(range(1, _LAPLACIAN_DEGMAX + 1))
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


def spectral_exponent_floor(q: NormSpec, k: int = 1, seed: int = DEFAULT_SEED) -> FloorReport:
    """Check that a spectral norm's fitted Markov exponent, over the degrees
    in ``_FLOOR_DEGREES``, is >= 1 - 0.05.

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
    lo, hi = _FLOOR_DEGREES
    table = factor_table(q, DerivOp(k), range(lo, hi + 1), seed=seed)
    fit = fit_exponent(table, window=_FLOOR_DEGREES)
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


def bernstein_schur_check(nmax: int = 64, seed: int = DEFAULT_SEED) -> BernsteinSchurReport:
    """Check the weighted derivative/sup inequalities and fit their exponent.

    For every corpus polynomial of degree n the three chained inequalities

        ||sqrt(1-x^2) p'|| <= n ||p||_sup
        ||p||_sup <= (n+1) ||sqrt(1-x^2) p||
        ||sqrt(1-x^2) p'|| <= n (n+1) ||sqrt(1-x^2) p||

    are tested with a 1e-9 relative numeric slack.  The corpus is both
    Chebyshev kinds plus seeded random polynomials; the second kind is the
    near-extremal family for the weighted Markov factor, which is what makes
    the fitted exponent land at 2; ``_RANDOMS_PER_DEGREE`` random ones per
    degree.
    """
    rng = np.random.default_rng(seed)
    corpus = []  # (n, name, p), in the order the seeded draws are made
    for n in range(1, nmax + 1):
        corpus += [(n, "T", chebyshev_t(n)), (n, "U", chebyshev_u(n))]
        corpus += [(n, "rnd", random_unit(n, rng)) for _ in range(_RANDOMS_PER_DEGREE)]
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
