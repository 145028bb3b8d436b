"""Finite-degree Markov factors M_k(n; q) and exponent estimation.

Factor values are exact in L2 settings (largest singular value), for the
identity (M_0(n) = 1) and n < k in one variable (0), for the qms norms (the
largest column ratio of D^k under their monomial weights) and for the plain
sup over one interval [a, b] (V. Markov's T_n^(k)(1) (2/(b - a))^k), and
certified lower bounds everywhere else: sup-norm maximization is itself
sampled, and the candidate-plus-ascent search can only under-shoot the true
extremal ratio.
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
from numpy.polynomial import chebyshev as nch

from .chebseries import (
    ChebSeries,
    chebyshev_t,
    chebyshev_u,
    deriv_matrix,
    legendre_orthonormal,
    monomial,
    padded_sum,
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
    _PASS_MAX_ENTRIES,
    _coef_columns,
    _evaluate_norms,
    _gauss_power_rule,
    _plane_norms,
    _qms_weights,
    _schur_weight,
    evaluate_norm,
    qms_log_norm,
    spec_nvars,
)
from .orthopoly import OrthoSystem, jacobi_system, stieltjes_orthonormalize
from .polynomials import DerivOp, DirOp, HomOp, UniPoly, _inexact
from .scalars import is_exact

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
    exists), T_n as a ``ChebSeries`` in the interval's reference coordinate
    t = (2x - a - b)/(b - a) for a sup row on one interval [a, b], the
    power-basis x^i (a ``MultiPoly``) for a qms row, and for an L2 row the
    coefficient vector ``markov_factor_l2`` gives."""

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


def _as_derivative(op: OperatorSpec, q: NormSpec) -> tuple:
    """(c, D) with op = c*D: D = ``DerivOp(k)`` on a set in one variable, where
    every operator is c*D^k (``scaled_derivative``), else D = op and c = 1."""
    if spec_nvars(q) == 2:
        return 1, op
    c, k = op.scaled_derivative()
    return c, DerivOp(k)


def _scaled(row: Bound, c) -> Bound:
    """row, that of D, as the row of c*D: |c| times its factor (float or exact)
    rounded once; PrecisionOverflowError where the product leaves the double
    range, above it or (nonzero, rounding to 0.0) below it."""
    try:
        mag = abs(c.real) if not c.imag else abs(complex(c))
        exact = Fraction(mag) * Fraction(row.factor)
        factor = float(exact)
        if exact and not factor:
            raise OverflowError
    except OverflowError:
        raise PrecisionOverflowError(f"the Markov factor at degree {row.n} leaves the double range") from None
    return replace(row, factor=factor)


def exact_l2(q: NormSpec, op: OperatorSpec) -> bool:
    """Whether ``factor_table`` takes M(n) from ``markov_factor_l2``: an L2
    norm and an operator c*D^k of order k >= 1."""
    return isinstance(q, LpSpec) and float(q.s) == 2.0 and _as_derivative(op, q)[1].k >= 1


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
    """Candidate names and coefficient rows: the named series of degree n (not
    x^n past n = 1075, where its top coefficients underflow), then the random
    ones, drawn as one matrix."""
    named = [(name, p) for name, p in (("chebyshev:%d" % n, chebyshev_t(n)), ("monomial:%d" % n, monomial(n)),
                                       ("legendre:%d" % n, legendre_orthonormal(n))) if p.degree == n]
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


class _PolyRatio:
    """Coarse ratios ``_ratios(op, q, polys, refine=False)`` of Chebyshev series."""

    max_block = math.inf  # trials are evaluated one by one, up to the first gain

    def __init__(self, op: OperatorSpec, q: NormSpec):
        self.op, self.q = op, q

    def screen(self, coefs) -> list:
        """The ratio of the series with each of these coefficient arrays, in one evaluation."""
        return _ratios(self.op, self.q, [ChebSeries(c) for c in coefs], refine=False)

    def values(self, coef):
        return None

    def first_gain(self, coef: np.ndarray, vals, idx, steps, floor: float):
        """(j, ratio) for the first trial j whose ratio is above floor, or
        None; trial j is coef with steps[j] added to entry idx[j], and
        vals = values(coef)."""
        for j, (i, step) in enumerate(zip(idx, steps)):
            trial = coef.copy()
            trial[i] += step
            (r,) = _ratios(self.op, self.q, [ChebSeries(trial)], refine=False)
            if r > floor:
                return j, r
        return None


class _PlaneRatio:
    """The same ratios for series in two variables, every candidate in one
    stacked array: each D^alpha an image reads by one ``chebder`` per (axis,
    order) over the stack (axis 0 first, as ``partial_multi`` takes them),
    each image summed as ``_lincomb`` sums it, and the norms of both sides in
    one ``_plane_norms``; so every ratio is bitwise the one ``_ratios`` gives
    the candidate alone."""

    def __init__(self, op: OperatorSpec, q: NormSpec):
        self.images, self.q = op.images(2), q

    def screen(self, coefs) -> list:
        """The ratio of the series with each of these coefficient arrays: the
        real series in one stack, the complex ones in another."""
        polys, out = [ChebSeries(c) for c in coefs], [None] * len(coefs)
        cplx = np.array([np.iscomplexobj(p.coef) for p in polys], dtype=bool)
        for own in (np.flatnonzero(~cplx), np.flatnonzero(cplx)):
            if own.size:
                for j, r in zip(own, self._stack_ratios(_coef_columns([polys[j] for j in own]))):
                    out[j] = r
        return out

    def _stack_ratios(self, P: np.ndarray) -> list:
        """The ratios of the series in the columns of P, of one dtype."""
        partials = {(0, 0): P}

        def partial(alpha):  # D^alpha P, from the partial one step before it
            if alpha not in partials:
                i, j = alpha
                partials[alpha] = nch.chebder(partial((i, j - 1) if j else (i - 1, 0)), 1, axis=1 if j else 0)
            return partials[alpha]

        images = []
        for image in self.images:
            acc = None
            for c, alpha in image:
                x = partial(alpha) if c == 1 else partial(alpha) * (_inexact(c) if is_exact(c) else c)
                acc = x if acc is None else padded_sum(acc, x)
            images.append(acc)
        cols = [P, *images]
        shape = np.max([c.shape for c in cols], axis=0)
        stack = np.concatenate([np.pad(c, [(0, s - m) for s, m in zip(shape, c.shape)]) for c in cols], axis=-1)
        vals = np.array(_plane_norms(self.q, stack)).reshape(len(cols), -1)
        best = np.zeros(P.shape[-1])
        for v in vals[1:]:  # as max([0.0, *v]): the first largest, never a NaN
            best = np.where(v > best, v, best)
        return [_quotient(b, d) for b, d in zip(best.tolist(), vals[0].tolist())]


def _sampled_side(q: NormSpec, deg: int):
    """(table, grids, rule): q's ``terms`` table at degree deg, the points at
    which ``evaluate_norm(q, p, refine=False)`` samples each sup term of a
    real series p of degree deg (every piece's grid, then the set's fixed
    samples, real or complex), and ``lp_norm``'s Gauss rule for an L^p part
    (None without one), for q on a set in one variable.  None for the tables
    no matrix takes: a qms entry, an L^p part off the Gauss path, and a side whose
    points times deg + 1 pass ``_PASS_MAX_ENTRIES`` values (taylor_disk's,
    about 4 deg^3 of them, past degree 62)."""
    t = q.terms(deg)
    if t.qms:
        return None
    rule = _gauss_power_rule(*t.lp, deg) if t.lp else None
    if t.lp and rule is None:
        return None
    grids = [sup_points(t.set, max(deg - k, 0)) for k, _, _ in t.sups]
    rows = sum(g.size for g in grids) + (rule[0].size if rule else 0)
    return (t, grids, rule) if rows * (deg + 1) <= _PASS_MAX_ENTRIES else None


def _sampling_blocks(deg: int, orders, vanders) -> list:
    """The matrices from the coefficients of real series p of degree deg to
    D^o p at the points whose Chebyshev-Vandermonde rows (to degree deg or
    more) are vanders, for each of the ascending orders o."""
    blocks, power, order = [], np.eye(deg + 1), 0
    step = np.zeros((deg + 1, deg + 1))  # d/dx, padded to a square
    if max(orders, default=0):
        step[:deg] = deriv_matrix(deg, 1)[:deg]
    for o, vander in zip(orders, vanders):
        for _ in range(o - order):
            power = step @ power
        d, order = max(deg - o, 0), o
        blocks.append(vander[:, : d + 1] @ power[: d + 1] if o else vander[:, : deg + 1])
    return blocks


class _BatchedRatio:
    """The same ratios for real series of degree at most n, through one matrix.

    Built from den and num, the ``_sampled_side`` of q at degree n and at the
    image degree n - k, the matrix takes coefficient vectors (as columns) to
    exactly the values the coarse ratio samples: one block per order o of
    p^(o) either side reads, at ``sup_points(E, n - o)`` (the numerator's term
    j reads p^(j + k), so a taylor_disk matrix holds each order once), then
    the L^p Gauss nodes of both sides.  Screening is a matrix product (in
    column chunks of at most ``_SCREEN_ENTRIES`` values, which bounds the
    memory for any budget).  A block of ascent trials, each moving one
    coefficient of the current vector ``coef``, is one array pass: the trial
    moving coefficient i by d has the values ``vals + d * matrix[:, i]``,
    where ``vals = matrix @ coef``, and one ``ratios`` call takes them all;
    ``max_block`` keeps a block within ``_SCREEN_ENTRIES`` values too.  A
    vector whose top coefficient is 0 is sampled at the degree-n points and
    rule, at least as fine as its own, so it takes the same matrix.
    """

    def __init__(self, den, num, n: int, k: int):
        (t, grids, rule), (num_t, num_grids, num_rule) = den, num
        # orders run 0, 1, ...: the denominator's terms read blocks 0 to nd - 1,
        # the numerator's term j block j + k, its own from own.start on
        nd, nk, own = len(grids), max(n - k, 0), range(max(len(grids) - k, 0), len(num_grids))
        orders = [*range(nd), *(j + k for j in own)]
        nodes = grids + num_grids[own.start :] + ([rule[0], num_rule[0]] if rule else [])
        sizes, nb = [x.size for x in nodes], len(orders)
        V = np.split(nch.chebvander(np.concatenate(nodes), n), np.cumsum(sizes[:-1]))  # each bitwise its own
        # the numerator's own blocks and nodes are D^j at degree n - k, then D^k in one
        # product, as its own matrix had them: a sup, Schur or sup+L^p matrix is as it was
        image = _sampling_blocks(nk, own, V[nd:nb]) + [v[:, : nk + 1] for v in V[nb + 1 :]]
        if image:
            ends = np.cumsum([b.shape[0] for b in image[:-1]])
            image = np.split(np.concatenate(image) @ deriv_matrix(n, k), ends)
        # column-major: trials gather columns; complex where the set's samples are
        self.matrix = np.empty((sum(sizes), n + 1), dtype=V[0].dtype, order="F")
        blocks = _sampling_blocks(n, range(nd), V[:nd]) + image[: len(own)]
        np.concatenate(blocks + V[nb : nb + 1] + image[len(own) :], out=self.matrix)
        self.nsup, self.starts = sum(sizes[:nb]), np.cumsum([0] + sizes[: nb - 1])
        self.reads = np.searchsorted(orders, [*range(nd), *(j + k for j in range(len(num_grids)))])
        self.coeffs = np.asarray([scale / divisor for table in (t, num_t)
                                  for _, scale, divisor in table.sups], dtype=float)
        self.row_weight = _schur_weight(t.alpha, np.concatenate(nodes[:nb])) if t.alpha else None
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
            terms.append(self.coeffs[:, None] * np.maximum.reduceat(sup, self.starts, axis=0)[self.reads])
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


def _coarse_ratio(op: OperatorSpec, q: NormSpec, n: int):
    """The stacked screen ``_PlaneRatio`` on a set in two variables; in one,
    the batched evaluator where q's table has a ``_sampled_side`` at degree
    n, op a ``DerivOp``, and the per-polynomial one elsewhere."""
    if spec_nvars(q) == 2:
        return _PlaneRatio(op, q)
    den = _sampled_side(q, n)
    if den is None:
        return _PolyRatio(op, q)
    return _BatchedRatio(den, _sampled_side(q, max(n - op.k, 0)), n, op.k)


def _best(ratios, n: int) -> Optional[int]:
    """The index of the first largest ratio above -inf, or None; raises where
    NaN ratios (a norm that overflowed) left no other."""
    best = max((j for j, r in enumerate(ratios) if r > -math.inf), key=lambda j: (ratios[j], -j),
               default=None)
    if best is None and any(math.isnan(r) for r in ratios):
        raise PrecisionOverflowError(f"no finite Markov ratio at degree {n}: a norm left the double range")
    return best


def _coarse_finalists(n: int, op: OperatorSpec, q: NormSpec, budget: int, seed: int) -> list:
    """The best candidate by the coarse ratio and, where the ascent improved
    on it, the ascent's result, as (name, series) pairs; none where no
    candidate has a ratio.  The coarse matrices go when it returns, before
    the certification needs its own memory."""
    rng = np.random.default_rng(seed + 7919 * n)
    two_dim = spec_nvars(q) == 2
    names, coefs = (_candidates_2d if two_dim else _candidates_1d)(n, rng, budget)
    coarse = _coarse_ratio(op, q, n)
    screened = coarse.screen(coefs)
    best = _best(screened, n)
    if best is None:
        return []
    finalists = [(names[best], ChebSeries(coefs[best]))]
    if not two_dim:
        coef = _ascend(coarse, coefs[best], screened[best], _ASCENT_ROUNDS * budget)
        if coef is not None:
            finalists.append((names[best] + "+ascent", ChebSeries(coef)))
    return finalists


def _qms_row(n: int, k: int, m, s: int) -> Bound:
    """M_k(n) under qms(m, s), the weighted l^1 norm sum_i w_i |c_i|.  D^k
    sends x^i to perm(i, k) x^(i-k), so M_k(n) is the largest column ratio
    perm(i, k) w_(i-k) / w_i over k <= i <= n (0 for n < k), attained by x^i
    for the first maximising i: a rational for integer m, left exact for
    ``_scaled`` to round once, else taken in logs."""
    exact = float(m).is_integer()
    w = _qms_weights(range(n + 1), m, s, log=not exact)
    if exact:
        cols = [math.perm(i, k) * w[i - k] / w[i] if i >= k else 0 for i in range(n + 1)]
    else:
        cols = [math.log(math.perm(i, k)) + w[i - k] - w[i] if i >= k else -math.inf for i in range(n + 1)]
    i = cols.index(max(cols))
    try:
        factor = cols[i] if exact else math.exp(cols[i])
    except OverflowError:  # past the double range, which _scaled reports
        factor = math.inf
    return Bound(n, factor, f"monomial:{i}", UniPoly.monomial(i), "Exact")


def _sup_interval(t) -> Optional[Interval]:
    """The piece [a, b] where the ``terms`` table t is the plain sup over a
    set of exactly that one interval (one unweighted order-0 sup term, no
    L^p or qms part, no fixed samples), else None."""
    E = t.set
    if len(t.sups) != 1 or t.sups[0][0] or t.alpha or t.lp or t.qms:
        return None
    return E.intervals[0] if len(E.intervals) == 1 and not E.samples[0].size else None


def _v_markov_row(n: int, k: int, iv: Interval) -> Bound:
    """M_k(n) under the sup over [a, b]: V. Markov's T_n^(k)(1) (2/(b - a))^k,
    with T_n^(k)(1) = prod over j < k of (n^2 - j^2)/(2j + 1) (0 for k > n),
    attained by T_n in the coordinate t = (2x - a - b)/(b - a); left exact,
    from the exact endpoints, for ``_scaled`` to round once.  It holds for
    complex p too: at the point where |p^(k)| is largest, V. Markov bounds
    Re(e^(i phi) p) for the phi that makes its k-th derivative real there."""
    factor = (2 / (Fraction(iv.b) - Fraction(iv.a))) ** k
    for j in range(k):
        factor *= Fraction(n * n - j * j, 2 * j + 1)
    return Bound(n, factor, f"chebyshev:{n}", chebyshev_t(n), "Exact")


def _search_row(n: int, op: OperatorSpec, q: NormSpec, budget: int, seed: int) -> Bound:
    """The certified ``LowerBound`` row of the candidate-plus-ascent search
    (``markov_factor_search`` describes it), op as given."""
    finalists = _coarse_finalists(n, op, q, budget, seed)
    if not finalists:
        return Bound(n, 0.0, "none", None, "LowerBound")
    # the ascent can overfit grid-only sup estimates; certify with refinement
    certified = _ratios(op, q, [p for _, p in finalists], refine=True)
    j = _best(certified, n)
    if j is None:
        return Bound(n, 0.0, "", None, "LowerBound")
    return Bound(n, float(max(certified[j], 0.0)), *finalists[j], "LowerBound")


def markov_factor_search(
    n: int,
    op: OperatorSpec,
    q: NormSpec,
    budget: int = 1,
    seed: int = DEFAULT_SEED,
) -> Bound:
    """Certified lower bound for M(n; q) by candidate max plus coordinate ascent;
    an ``Exact`` row, which no budget or seed changes, for the identity
    (k = 0), for a qms norm (``_qms_row``) and for the plain sup over one
    interval (``_sup_interval``, ``_v_markov_row``), each read off q's
    ``terms`` table at degree n, and for n < k in one variable (0, witness T_n).

    On a set in one variable op is c*D^k (``_as_derivative``), and the row is
    that of ``DerivOp(k)`` with |c| times its factor (``_scaled``; past the
    double range, either way, ``PrecisionOverflowError``); on a set in two op
    is as given.

    Every other row is the search's (``_search_row``).  The candidate set is
    fixed and seeded (Chebyshev, monomial, orthonormal
    Legendre, random unit coefficient vectors); the best candidate is refined
    by coordinate-wise ascent with step halving (``_ascend``), both on the
    coarse (``refine=False``) ratio: through one matrix (``_BatchedRatio``) on
    a set in one variable, else one ``_ratios`` evaluation per screen or
    trial (``_PolyRatio``: odd or non-integer L^p, large taylor_disk); on a
    set in two variables the candidates are screened in one stacked array
    (``_PlaneRatio``) and not ascended.  The finalists (the best
    candidate and its ascent) are certified together in one refined
    ``_ratios`` pass.  Where NaN ratios (a norm that overflowed) leave no
    finite one, at the screen or at the certification, it raises
    ``PrecisionOverflowError``.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    c, op = _as_derivative(op, q)
    if op == DerivOp(0):  # 1*D^0: this row needs no |c|
        return Bound(n, 1.0, "identity", None, "Exact")
    t = q.terms(n)
    if t.qms is not None:
        return _scaled(_qms_row(n, op.k, *t.qms), c)
    iv = _sup_interval(t)
    if iv is not None:
        return _scaled(_v_markov_row(n, op.k, iv), c)
    if spec_nvars(q) == 1 and n < op.k:  # D^k sends every polynomial of degree < k to 0
        return Bound(n, 0.0, f"chebyshev:{n}", chebyshev_t(n), "Exact")
    return _scaled(_search_row(n, op, q, budget, seed), c)


def factor_table(
    q: NormSpec,
    op: OperatorSpec,
    degrees: Sequence[int],
    seed: int = DEFAULT_SEED,
    budget: int = 1,
) -> MarkovTable:
    """One ``Bound`` row per degree: exact singular values (of D^k, times |c|)
    where ``exact_l2``, ``markov_factor_search``'s rows otherwise (exact for
    qms and for the plain sup over one interval)."""
    degrees = sorted(set(int(n) for n in degrees))
    if not degrees:
        raise ValueError("degree list must be nonempty")
    if exact_l2(q, op):
        c, d = _as_derivative(op, q)
        sys = _system_for_measure(q.measure, max(degrees))
        return MarkovTable(op.label, q, tuple(_scaled(markov_factor_l2(n, d.k, q.measure, sys=sys), c)
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
    tables = {k: factor_table(q, DerivOp(k), degrees, seed=seed, budget=budget) for k in range(1, kmax + 1)}
    return asymptotic_exponent({k: fit_exponent(table).slope_ls for k, table in tables.items()})


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
    bases = [UniPoly.monomial(int(s * n), 1) for n in ns]
    log_ratios = [qms_log_norm(b.deriv(k), m_frac, s) - qms_log_norm(b, m_frac, s) for b in bases]
    A = np.vstack([[math.log(s * n) for n in ns], np.ones(len(ns))]).T
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
    near 2l.  Screens a product-Chebyshev corpus over the box [-1, 1]^2
    (``box_region()``), degrees 1 to ``_LAPLACIAN_DEGMAX``, by the coarse
    ratio of the Markov search (``_PlaneRatio``).
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    q = SupSpec(box_region())
    grad, lap = DerivOp(1), HomOp((((2 * l, 0), 1.0), ((0, 2 * l), 1.0)))
    ns = list(range(1, _LAPLACIAN_DEGMAX + 1))
    grad_rows, op_rows = [], []
    for n in ns:
        corpus = [product_2d(chebyshev_t(i), chebyshev_t(n - i)).coef for i in range(n + 1)]
        grad_rows.append(max(0.0, *_coarse_ratio(grad, q, n).screen(corpus)))
        op_rows.append(max(0.0, *_coarse_ratio(lap, q, n).screen(corpus)))
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
