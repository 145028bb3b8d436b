"""Norm families on polynomial spaces, their evaluators, and equivalence fits.

The public entry points (``evaluate_norm`` and ``_evaluate_norms``,
``sup_norm``, ``lp_norm``, ``spectral_norm_estimate``) accept a ``ChebSeries``
or a ``MultiPoly`` and turn it into a ``ChebSeries`` once, by
``as_chebseries``; everything below them evaluates Chebyshev series only.
The qms norms are the exception: they read power-basis terms, so
``_qms_poly`` turns a ``ChebSeries`` into a ``MultiPoly``.

Each norm except qms is defined once, by its spec's ``terms(deg)`` table
(``NormTerms``): sups of derivatives over a set with their weights, an
optional Schur weight on the samples, and an optional L^p part.
``evaluate_norm`` sums that table for one polynomial; ``sampled_norm`` turns
the same table into one sampling matrix for a batch of Chebyshev series.

Sup norms on intervals are sampled at 8*(deg+1) Chebyshev-Lobatto points and
locally refined by golden-section iterations, so every reported sup value is a
certified under-estimate; certificates built from them are lower bounds.
The refinement works on a list of polynomials: each keeps its own grid and
brackets, and the brackets of all of them go through one golden-section loop.
``evaluate_norm`` refines every sup term of its table that way (all deg+1
derivative orders of taylor_disk in one pass), and ``_evaluate_norms`` does
the same for many polynomials, which is how the Markov search certifies all
its finalists at once.  ``refine=False`` skips the local refinement: it is
the per-polynomial coarse evaluation.  The Markov search screens candidates
and runs its ascent on the same samples through ``sampled_norm`` and keeps
the per-polynomial path for the inputs ``sampled_norm`` does not cover.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from functools import partial
from typing import Mapping, Optional, Sequence, Union, get_args

import numpy as np

from .chebseries import ChebSeries, as_chebseries, chebval_columns, deriv_matrix
from .domains import (
    CompactSet,
    Interval,
    Measure,
    gauss_jacobi,
    jacobi_log_mass,
    json_number,
    measure_from_json,
    measure_to_json,
    set_from_json,
    set_to_json,
    sup_points,
)
from .errors import DimensionMismatchError, PrecisionOverflowError
from .fitting import max_pairwise_slope
from .polynomials import NEG_INF, MultiPoly

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_TOL = 1e-12
# Root-split L^p: largest Gauss-Jacobi rule per piece (its dense Jacobi matrix
# is 2 MB) and the relative agreement of two estimates that ends the doubling.
_LP_MAX_NODES = 512
_LP_RTOL = 1e-13


def _degree_int(p) -> int:
    return 0 if p.is_zero else int(p.degree)


def _golden_max_multi(g, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray):
    """Golden-section maxima over many brackets at once.

    Bracket i maximizes ``g(x, owner)[i]``, the function numbered ``owner[i]``
    (nondecreasing).  Each owner's brackets stop moving once its own widest
    bracket is at most ``_GOLDEN_TOL``, so every owner takes the iterations
    it would take alone.
    """
    lo = lo.astype(float).copy()
    hi = hi.astype(float).copy()
    first = np.r_[True, owner[1:] != owner[:-1]]
    starts, group = np.flatnonzero(first), np.cumsum(first) - 1
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = np.split(g(np.concatenate([x1, x2]), np.concatenate([owner, owner])), 2)
    for _ in range(100):
        moving = (np.maximum.reduceat(hi - lo, starts) > _GOLDEN_TOL)[group]
        if not moving.any():
            break
        move_lo = f1 < f2
        lo = np.where(moving & move_lo, x1, lo)
        hi = np.where(moving & ~move_lo, x2, hi)
        x1 = hi - _INVPHI * (hi - lo)  # a bracket that stopped keeps its points
        x2 = lo + _INVPHI * (hi - lo)
        i = np.flatnonzero(moving)
        both = np.concatenate([x1[i], x2[i]]), np.concatenate([owner[i], owner[i]])
        f1[i], f2[i] = np.split(g(*both), 2)
    return np.maximum(f1, f2)


def _schur_weight(alpha: float, *coords) -> np.ndarray:
    """max(1 - sum_j |x_j|^2, 0)^alpha at the points with these coordinates."""
    rest = 1.0
    for x in coords:
        rest = rest - np.abs(x) ** 2
    return np.maximum(rest, 0.0) ** alpha


def _bracket_values(polys, weight):
    """g(x, owner) = |p(x)| * weight(x) with p = polys[owner], elementwise.

    The series are evaluated together from their zero-padded coefficient
    columns, bitwise as ``p(x)`` gives each value.
    """
    C = np.zeros(
        (max(1, *(p.coef.size for p in polys)), len(polys)),
        dtype=np.result_type(*(p.coef for p in polys)),
    )
    for j, p in enumerate(polys):
        C[: p.coef.size, j] = p.coef

    def values(x, owner):
        return np.abs(chebval_columns(x, C[:, owner]))

    if weight is None:
        return values
    return lambda x, owner: values(x, owner) * weight(x)


def _weighted_sup_on_interval(polys, iv: Interval, weight=None, refine=True) -> list:
    """max of |p(x)|*weight(x) over the interval iv, for each p in polys.

    Each p is sampled on its own 8*(deg+1)-point grid.  Refinement
    golden-sections every near-maximal bracket of that grid (not just the
    best one): under-refining a competing local maximum is what would let
    ratio estimates drift above true extremal ratios.  The brackets of all
    polys go through one ``_golden_max_multi`` loop.
    """
    best, lo, hi, counts = [], [], [], []
    for p in polys:
        pts = iv.grid(_degree_int(p))
        vals = np.abs(p(pts))
        if weight is not None:
            vals = vals * weight(pts)
        i = int(np.argmax(vals))
        best.append(float(vals[i]))
        npts = len(pts)
        if refine:
            interior = np.arange(1, npts - 1)
            local_max = (vals[interior] >= vals[interior - 1]) & (
                vals[interior] >= vals[interior + 1]
            )
            near_top = vals[interior] >= 0.9 * best[-1]
            idx = interior[local_max & near_top]
            # brackets (left, right) of grid indices, sorted, as keys left*npts + right
            top = max(i - 1, 0) * npts + min(i + 1, npts - 1)
            keys = np.unique(np.r_[(idx - 1) * npts + idx + 1, top])
            lo.append(pts[keys // npts])
            hi.append(pts[keys % npts])
            counts.append(keys.size)
    if counts:
        owner = np.repeat(np.arange(len(counts)), counts)
        refined = _golden_max_multi(
            _bracket_values(polys, weight), np.concatenate(lo), np.concatenate(hi), owner
        )
        for j, seg in enumerate(np.split(refined, np.cumsum(counts)[:-1])):
            best[j] = max(best[j], float(seg.max()))
    return best


def _sup(polys, E: CompactSet, refine: bool, alpha: float = 0.0) -> list:
    """max over E of |p| for each p in polys, times the Schur weight when
    alpha > 0: every piece of ``E.intervals`` in one refinement pass for all
    polys, then the fixed ``E.samples``.  A NaN anywhere is the result."""
    for p in polys:
        if p.nvars != E.nvars:
            raise DimensionMismatchError(
                f"a set in {E.nvars} variable(s) takes polynomials in as many, not {p.nvars}"
            )
    weight = partial(_schur_weight, alpha) if alpha else None
    best = np.full(len(polys), -np.inf)
    for iv in E.intervals:
        best = np.maximum(best, _weighted_sup_on_interval(polys, iv, weight, refine))
    if E.samples[0].size:
        w = weight(*E.samples) if weight else 1.0
        best = np.maximum(best, [np.max(np.abs(p(*E.samples)) * w) for p in polys])
    return best.tolist()


def sup_norm(p, E: CompactSet, refine: bool = True) -> float:
    """Supremum norm of p over E (sampled lower estimate, see module note)."""
    return _sup([as_chebseries(p)], E, refine)[0]


# ---------------------------------------------------------------------------
# L^p norms


def _real_roots_inside(p: ChebSeries, a: float, b: float) -> list:
    """Sorted real roots of p in (a, b); one within 1e-12 of the last kept is dropped."""
    if p.degree in (NEG_INF, 0):
        return []
    roots = np.atleast_1d(np.polynomial.chebyshev.chebroots(p.coef))
    merged = []
    for r in sorted(float(z.real) for z in roots if abs(z.imag) < 1e-9 and a < z.real < b):
        if not merged or r - merged[-1] > 1e-12:
            merged.append(r)
    return merged


def _lp_cuts(roots: list, mu: Measure) -> np.ndarray:
    """The support's ends, the roots, and towards an end where the density is
    singular a geometric mesh (ratio 4) from the outermost root to the middle:
    a piece ending at a root near b carries (b - x)^alpha, nearly singular
    there, and on the mesh no piece is much wider than its distance from b."""
    a, b = mu.support.a, mu.support.b
    cuts = [a, *roots, b]
    for end, exponent, near in ((b, mu.alpha, roots[-1:]), (a, mu.beta, roots[:1])):
        d = near[0] - end if near and exponent else 0.0
        while 0 < 4 * abs(d) < (b - a) / 2:
            d *= 4
            cuts.append(end + d)
    return np.unique(cuts)


def _root_split_integral(p, mu: Measure, s: float, cuts, roots: list, nnodes: int) -> float:
    """integral of |p|^s dmu: on each piece between cuts an nnodes-point Gauss-Jacobi
    rule with exponent s at a root, alpha at b, beta at a and 0 at a mesh cut;
    all nodes in one p(x) call."""
    root = np.isin(cuts, roots)
    e = np.where(root, float(s), 0.0)
    e[0], e[-1] = mu.beta, mu.alpha
    lo, hi = cuts[:-1], cuts[1:]
    keys = list(zip(e[1:], e[:-1]))  # (exponent at hi, exponent at lo)
    t, w = (np.array(v) for v in zip(*(gauss_jacobi(nnodes, *k) for k in keys)))
    half = (hi - lo)[:, None] / 2
    x = (lo + hi)[:, None] / 2 + half * t
    to_lo, to_hi = half * (1 + t), half * (1 - t)  # x - lo, hi - x without cancellation
    vals = np.abs(p(x.ravel())).reshape(x.shape)
    vals /= np.where(root[:-1, None], to_lo, 1.0) * np.where(root[1:, None], to_hi, 1.0)
    g = vals**s * mu.density(x)
    if mu.alpha:  # every piece but the last misses b
        g[:-1] *= (cuts[-1] - hi[:-1, None] + to_hi[:-1]) ** mu.alpha
    if mu.beta:
        g[1:] *= (lo[1:, None] - cuts[0] + to_lo[1:]) ** mu.beta
    masses = np.exp([jacobi_log_mass(*k, width) for k, width in zip(keys, hi - lo)])
    return float(masses @ np.sum(w * g, axis=1))


def lp_norm(p, mu: Measure, s: float) -> float:
    """(integral of |p|^s dmu)^(1/s).

    Even integer s: one Gauss rule matched to the weight, exact for the
    polynomial |p|^s.  Every other s: the support is cut at the real roots of
    p, and each piece gets a Gauss-Jacobi rule whose exponent is s at a root
    and the measure's own exponent at an end of the support, so what is left
    of the integrand is smooth on the piece (``_lp_cuts`` adds the cuts that
    keep it so near a singular end).  The node count per piece doubles, up to
    512, until two estimates agree to 1e-13 relative, and the last estimate is
    returned.  Odd s under a Lebesgue measure with real p needs no check: the
    integrand is then a polynomial and the first rule is exact.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    p = as_chebseries(p)
    if p.nvars != 1:
        raise DimensionMismatchError("lp_norm takes univariate polynomials")
    deg = _degree_int(p)
    s_int = int(s) if float(s).is_integer() else None

    if s_int is not None and s_int % 2 == 0:
        nodes, weights = mu.rule_for_degree(deg * s_int)
        return float(np.dot(weights, np.abs(p(nodes)) ** s_int)) ** (1.0 / s_int)

    roots = _real_roots_inside(p, mu.support.a, mu.support.b)
    cuts = _lp_cuts(roots, mu)
    exact = s_int is not None and mu.kind == "lebesgue" and np.isrealobj(p.coef)
    nnodes = 1 << (deg * math.ceil(s) // 2).bit_length()  # exact for a polynomial |p|^s
    if not exact:
        nnodes = min(nnodes, _LP_MAX_NODES)
    total = _root_split_integral(p, mu, s, cuts, roots, nnodes)
    while not exact and nnodes < _LP_MAX_NODES:
        nnodes *= 2  # powers of two, so never past _LP_MAX_NODES
        prev, total = total, _root_split_integral(p, mu, s, cuts, roots, nnodes)
        if abs(total - prev) <= _LP_RTOL * total:
            break
    return float(total ** (1.0 / s))


# ---------------------------------------------------------------------------
# Factorial-weighted jet norms qms(m, s)


def _qms_blocks(p: MultiPoly, s: int) -> dict:
    """The terms of p by block: r -> [(i, c_i) for r*s <= i < (r+1)*s], over
    the nonzero c_i, in ascending r and i."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    if p.nvars != 1:
        raise DimensionMismatchError(f"qms norms take one variable, not {p.nvars}")
    blocks: dict = {}
    for (i,), c in sorted(p.terms.items()):
        blocks.setdefault(i // s, []).append((i, c))
    return blocks


def _seminorm_block_exact(block, s: int) -> Fraction:
    """Sum over the block's terms c_i x^i of |p^(i)(0)| / (i mod s)! =
    |c_i| i! / (i mod s)!, for exact real coefficients."""
    total = Fraction(0)
    for i, c in block:
        if not isinstance(c, (Fraction, int)):
            raise TypeError("exact qms evaluation needs int/Fraction coefficients")
        total += abs(Fraction(c)) * Fraction(math.factorial(i), math.factorial(i % s))
    return total


def qms_seminorm_terms(p: MultiPoly, s: int) -> dict:
    """Exact map r -> seminorm of p^(rs), the m-independent part of the norm.

    The norm value for any exponent m is sum_r terms[r] * ((r*s)!)^(-m), so
    equality of these maps certifies the norm equality for every rational m
    at once, without evaluating irrational factorial powers.
    """
    return {r: _seminorm_block_exact(block, s) for r, block in _qms_blocks(p, s).items()}


def _log_fraction(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


def _logsumexp(vals) -> float:
    vals = [v for v in vals if v != NEG_INF]
    if not vals:
        return NEG_INF
    top = max(vals)
    return top + math.log(sum(math.exp(v - top) for v in vals))


def qms_log_norm(p: MultiPoly, m, s: int) -> float:
    """log of the qms norm, safe for factorial-sized magnitudes.

    Int and Fraction coefficients contribute exact big-integer logs; any other
    coefficient (float, complex) puts every block through lgamma.  Returns
    -inf for the zero polynomial.
    """
    blocks = _qms_blocks(p, s)
    mf = float(m)
    logs = []
    exact = all(isinstance(c, (int, Fraction)) for c in p.terms.values())
    for r, block in blocks.items():
        if exact:
            log_term = _log_fraction(_seminorm_block_exact(block, s))
            log_fact = math.log(math.factorial(r * s)) if r * s else 0.0
        else:
            pieces = []
            for i, c in block:
                mag = abs(complex(c))
                if mag == 0.0:
                    continue
                pieces.append(math.log(mag) + math.lgamma(i + 1) - math.lgamma(i % s + 1))
            if not pieces:
                continue
            log_term = _logsumexp(pieces)
            log_fact = math.lgamma(r * s + 1)
        logs.append(log_term - mf * log_fact)
    return _logsumexp(logs)


def qms_norm(p: MultiPoly, m, s: int) -> float:
    """Factorial-weighted jet norm; raises on float overflow/underflow."""
    lv = qms_log_norm(p, m, s)
    if lv == NEG_INF:
        return 0.0
    if lv > 700.0 or lv < -700.0:
        raise PrecisionOverflowError(
            "qms value leaves the double range; use qms_log_norm or exact mode"
        )
    return math.exp(lv)


def qms_norm_exact(p: MultiPoly, m: int, s: int) -> Fraction:
    """Exact rational norm value; needs an integer exponent m >= 0."""
    if not isinstance(m, int) or m < 0:
        raise ValueError("exact qms values are rational only for integer m >= 0")
    total = Fraction(0)
    for r, term in qms_seminorm_terms(p, s).items():
        total += term / Fraction(math.factorial(r * s)) ** m
    return total


# ---------------------------------------------------------------------------
# Norm specifications: each one a table of terms (wire format below)


@dataclass(frozen=True)
class NormTerms:
    """A norm as a sum of terms: the one definition both evaluation paths read.

    Each entry ``(k, scale, divisor)`` of ``sups`` adds
    ``sup|D^k p| * scale / divisor`` over ``set`` (the two factors apart, so
    a term rounds as sup * r^k / k!), D differentiating along variable
    ``axis``; with ``alpha > 0`` the sup samples carry the Schur weight
    (1 - |x|^2)^alpha.  ``lp = (mu, s)`` adds the L^s(mu) norm of p.
    """

    set: Optional[CompactSet] = None
    sups: tuple = ((0, 1.0, 1),)
    alpha: float = 0.0
    axis: int = 0
    lp: Optional[tuple] = None


@dataclass(frozen=True)
class SupSpec:
    set: CompactSet
    kind: str = field(default="sup", init=False)

    def terms(self, deg: int) -> NormTerms:
        return NormTerms(self.set)


@dataclass(frozen=True)
class LpSpec:
    measure: Measure
    s: float
    kind: str = field(default="lp", init=False)

    def __post_init__(self):
        if not math.isfinite(self.s) or self.s < 1:
            raise ValueError("lp order s must be a finite number >= 1")

    def terms(self, deg: int) -> NormTerms:
        return NormTerms(sups=(), lp=(self.measure, self.s))


@dataclass(frozen=True)
class SupPlusLpSpec:
    set: CompactSet
    measure: Measure
    s: float
    kind: str = field(default="sup_plus_lp", init=False)

    def __post_init__(self):
        if not math.isfinite(self.s) or self.s < 1:
            raise ValueError("lp order s must be a finite number >= 1")

    def terms(self, deg: int) -> NormTerms:
        return NormTerms(self.set, lp=(self.measure, self.s))


@dataclass(frozen=True)
class SchurSpec:
    """Weighted sup on [-1, 1] (the default set) or on a plane region."""

    alpha: float
    set: Optional[CompactSet] = None
    kind: str = field(default="schur", init=False)

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("weight exponent alpha must be finite and positive")
        E = self.set
        if E is not None and E.nvars == 1 and E != Interval(-1.0, 1.0):
            raise ValueError("the weighted sup norm is defined on [-1, 1] or a plane region")

    def terms(self, deg: int) -> NormTerms:
        return NormTerms(Interval(-1.0, 1.0) if self.set is None else self.set, alpha=self.alpha)


@dataclass(frozen=True)
class QmsSpec:
    """Factorial-weighted jet norm: no sup terms, evaluated by ``qms_norm``."""

    m: float
    s: int
    kind: str = field(default="qms", init=False)

    def __post_init__(self):
        if not 0 < float(self.m) < math.inf or self.s < 1:
            raise ValueError("qms needs a finite m > 0 and a positive integer s")


@dataclass(frozen=True)
class TaylorDiskSpec:
    set: CompactSet
    r: float
    kind: str = field(default="taylor_disk", init=False)

    def __post_init__(self):
        if not 0 < self.r < math.inf:
            raise ValueError("disk radius must be finite and positive")

    def terms(self, deg: int) -> NormTerms:
        """sup|p^(k)| * r^k / k! for k = 0..deg (the rest vanish)."""
        try:
            weights = [self.r**k for k in range(deg + 1)]
        except OverflowError:
            raise PrecisionOverflowError(f"taylor_disk weight r^{deg} leaves the double range")
        return NormTerms(
            self.set, sups=tuple((k, w, math.factorial(k)) for k, w in enumerate(weights))
        )


@dataclass(frozen=True)
class MixedDerivSpec:
    set: CompactSet
    axis: int = 0
    kind: str = field(default="mixed_deriv", init=False)

    def __post_init__(self):
        if not 0 <= self.axis < self.set.nvars:
            raise ValueError(f"axis {self.axis} is not a variable of the set")

    def terms(self, deg: int) -> NormTerms:
        return NormTerms(self.set, sups=((0, 1.0, 1), (1, 1.0, 1)), axis=self.axis)


NormSpec = Union[
    SupSpec, LpSpec, SupPlusLpSpec, SchurSpec, QmsSpec, TaylorDiskSpec, MixedDerivSpec
]


def evaluate_norm(spec: NormSpec, p, refine: bool = True) -> float:
    """q(p): the sum of the spec's ``terms`` table (qms: ``qms_norm``)."""
    return _evaluate_norms(spec, [p], refine)[0]


def _evaluate_norms(spec: NormSpec, polys, refine: bool = True) -> list:
    """``evaluate_norm`` of each of polys, with the sup terms of all of them
    (every derivative order of every polynomial) in one ``_sup`` call."""
    if isinstance(spec, QmsSpec):
        return [qms_norm(_qms_poly(p), spec.m, spec.s) for p in polys]
    polys = [as_chebseries(p) for p in polys]
    tables = [spec.terms(_degree_int(p)) for p in polys]
    images = [
        p.partial_multi(tuple(k if j == t.axis else 0 for j in range(p.nvars))) if k else p
        for p, t in zip(polys, tables)
        for k, _, _ in t.sups
    ]
    if len(images) == 1 and not tables[0].alpha:
        # one plain sup is sup_norm's value; bench/tracing.py times it there
        sups = [sup_norm(images[0], tables[0].set, refine=refine)]
    else:
        sups = _sup(images, tables[0].set, refine, tables[0].alpha) if images else []
    sups, out = iter(sups), []
    for p, t in zip(polys, tables):
        total = 0.0
        for _, scale, divisor in t.sups:
            total += next(sups) * scale / divisor
        if t.lp is not None:
            total += lp_norm(p, *t.lp)
        out.append(float(total))
    return out


def _qms_poly(p) -> MultiPoly:
    """The one qms conversion: the qms norms read power-basis terms, so a
    one-variable ChebSeries becomes the MultiPoly of its power coefficients.
    A polynomial in two variables raises DimensionMismatchError."""
    if p.nvars != 1:
        raise DimensionMismatchError(f"qms norms take one variable, not {p.nvars}")
    return p.to_unipoly() if isinstance(p, ChebSeries) else p


def schur_norm(p, alpha: float, E: Optional[CompactSet] = None, refine: bool = True) -> float:
    """sup of |p(x)| * (1 - x^2)^alpha over [-1, 1] (or (1-|x|^2)^alpha on a ball)."""
    return evaluate_norm(SchurSpec(alpha, E), p, refine=refine)


def taylor_disk_norm(p, E: CompactSet, r: float, refine: bool = True) -> float:
    """sum_k sup|p^(k)|_E * r^k / k! (finite: terms vanish past deg p)."""
    return evaluate_norm(TaylorDiskSpec(E, r), p, refine=refine)


def mixed_deriv_norm(p, E: CompactSet, axis: int = 0, refine: bool = True) -> float:
    """sup|p|_E + sup|d p / d x_axis|_E."""
    return evaluate_norm(MixedDerivSpec(E, axis), p, refine=refine)


def sup_plus_lp_norm(p, E: CompactSet, mu: Measure, s: float, refine: bool = True) -> float:
    return evaluate_norm(SupPlusLpSpec(E, mu, s), p, refine=refine)


# ---------------------------------------------------------------------------
# Sampled norms: the refine=False evaluation of a whole batch at once

# Largest sampling matrix built (entries, 8 MB).  Only taylor_disk, whose matrix
# grows like 4*deg^3, passes it (past degree 62); it then keeps the
# per-polynomial path, which needs no memory beyond one polynomial's samples.
_SAMPLED_MAX_ENTRIES = 1 << 20


@dataclass(frozen=True)
class SampledNorm:
    """A norm on Chebyshev series of one fixed degree, as a matrix and a reduction.

    ``matrix`` takes coefficient vectors (as columns) to exactly the values
    ``evaluate_norm(spec, p, refine=False)`` samples: one block of sup samples
    per derivative order, then the Gauss nodes of an L^p part.  ``reduce``
    turns the sampled values of k columns into their k norm values: the block
    maxima (times ``row_weight``, the Schur weight) summed with ``coeffs``,
    plus the L^p power sum.
    """

    matrix: np.ndarray
    starts: np.ndarray  # first row of each sup block
    coeffs: np.ndarray  # weight of each block maximum in the sum
    row_weight: Optional[np.ndarray] = None
    lp_weights: Optional[np.ndarray] = None
    s: int = 0

    def reduce(self, vals: np.ndarray) -> np.ndarray:
        nsup = self.matrix.shape[0] - (0 if self.lp_weights is None else self.lp_weights.size)
        total = 0.0
        if nsup:
            sup = np.abs(vals[:nsup])
            if self.row_weight is not None:
                sup *= self.row_weight[:, None]
            total = self.coeffs @ np.maximum.reduceat(sup, self.starts, axis=0)
        if self.lp_weights is not None:
            total = total + (self.lp_weights @ np.abs(vals[nsup:]) ** self.s) ** (1.0 / self.s)
        return total


def sampled_norm(spec: NormSpec, deg: int) -> Optional[SampledNorm]:
    """``evaluate_norm(spec, ., refine=False)`` on real series of exact degree ``deg``.

    Built from the same ``terms`` table: one Chebyshev-Vandermonde block per
    sup term, on the points the per-polynomial path samples (the grids of
    every piece of the set, then its fixed samples, real or complex), then
    the Gauss nodes of an even-s L^p part.  Returns None for a set in two
    variables, for qms and odd or non-integer s, and past
    ``_SAMPLED_MAX_ENTRIES``; those keep the per-polynomial path.
    """
    if isinstance(spec, QmsSpec):
        return None
    t, rule = spec.terms(deg), None
    if t.sups and t.set.nvars != 1:
        return None
    if t.lp is not None:
        mu, s = t.lp
        if not float(s).is_integer() or int(s) % 2:
            return None
        rule = mu.rule_for_degree(deg * int(s))
    orders = [k for k, _, _ in t.sups]
    grids = [sup_points(t.set, max(deg - k, 0)) for k in orders]
    sizes = [g.size for g in grids]
    if (sum(sizes) + (rule[0].size if rule else 0)) * (deg + 1) > _SAMPLED_MAX_ENTRIES:
        return None
    blocks, power = [], np.eye(deg + 1)
    step = np.zeros((deg + 1, deg + 1))  # d/dx, padded to a square
    if len(orders) > 1:
        step[:deg] = deriv_matrix(deg, 1)[:deg]
    for k, grid in zip(orders, grids):  # orders run 0, 1, 2, ...: power is D^k
        dk = max(deg - k, 0)
        vander = np.polynomial.chebyshev.chebvander(grid, dk)
        blocks.append(vander @ power[: dk + 1] if k else vander)
        power = step @ power
    weight = _schur_weight(t.alpha, np.concatenate(grids)) if t.alpha else None
    if rule:
        blocks.append(np.polynomial.chebyshev.chebvander(rule[0], deg))
    return SampledNorm(
        matrix=np.vstack(blocks),
        starts=np.cumsum([0] + sizes[:-1]),
        coeffs=np.asarray([scale / divisor for _, scale, divisor in t.sups], dtype=float),
        row_weight=weight,
        lp_weights=None if rule is None else rule[1],
        s=int(t.lp[1]) if rule else 0,
    )


# ---------------------------------------------------------------------------
# Wire format: one JSON key per init field of the spec dataclass

_SPEC_KINDS = {cls.kind: cls for cls in get_args(NormSpec)}
_CODECS = {  # field -> (to JSON, from JSON); other fields are numbers of their annotated type
    "set": (set_to_json, set_from_json),
    "measure": (measure_to_json, measure_from_json),
}


def spec_to_json(spec: NormSpec) -> dict:
    out = {"kind": spec.kind}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.init and value is not None:
            out[f.name] = _CODECS[f.name][0](value) if f.name in _CODECS else value
    return out


def spec_from_json(obj: dict) -> NormSpec:
    """The spec a ``spec_to_json`` object describes; KeyError names a missing field."""
    if not isinstance(obj, dict):
        raise TypeError(f"a norm spec is a JSON object, not {obj!r}")
    kind = obj.get("kind")
    if kind not in _SPEC_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}")
    cls, args = _SPEC_KINDS[kind], {}
    for f in fields(cls):
        if not f.init or (f.name not in obj and f.default is not MISSING):
            continue
        value = obj[f.name]
        args[f.name] = (_CODECS[f.name][1](value) if f.name in _CODECS
                        else json_number(value, f.name, integer=f.type == "int"))
    return cls(**args)


# ---------------------------------------------------------------------------
# Spectral-limit estimation


@dataclass(frozen=True)
class SpectralEstimate:
    """Tail of q(p^s)^(1/s) plus a 1/s-corrected limit estimate."""

    values: tuple
    limit: float
    plain_tail: float
    monotone: bool


def spectral_norm_estimate(p, spec: NormSpec, s_max: int) -> SpectralEstimate:
    """Estimate lim_s q(p^s)^(1/s) from s = 1..s_max.

    The tail is fit as L*(1 + c/s) on its last half; norms equivalent to a
    sup norm up to a (deg+1) factor have exactly this correction order.
    """
    if s_max < 4:
        raise ValueError("s_max must be at least 4")
    use_qms = isinstance(spec, QmsSpec)
    if not use_qms:
        p = as_chebseries(p)
    vals = []
    for s in range(1, s_max + 1):
        ps = p**s
        if use_qms:
            lv = qms_log_norm(_qms_poly(ps), spec.m, spec.s)
            vals.append(math.exp(lv / s) if lv != NEG_INF else 0.0)
        else:
            vals.append(evaluate_norm(spec, ps) ** (1.0 / s))
    tail = list(range(max(1, s_max // 2), s_max + 1))
    ys = np.array([vals[s - 1] for s in tail])
    X = np.vstack([np.ones(len(tail)), 1.0 / np.array(tail, dtype=float)]).T
    coef, *_ = np.linalg.lstsq(X, ys, rcond=None)
    diffs = np.diff(vals)
    monotone = bool(np.all(diffs <= 1e-12 * max(abs(v) for v in vals))) or bool(
        np.all(diffs >= -1e-12 * max(abs(v) for v in vals))
    )
    return SpectralEstimate(
        values=tuple(float(v) for v in vals),
        limit=float(coef[0]),
        plain_tail=float(vals[-1]),
        monotone=monotone,
    )


# ---------------------------------------------------------------------------
# Two-sided norm-equivalence certificates


@dataclass(frozen=True)
class NikolskiiCertificate:
    """Fitted two-sided degree-power equivalence between two norms.

    Certifies q1(p) <= A * n^a * q2(p) and q2(p) <= B * n^b * q1(p) at every
    tested degree on the corpus (with ``slack`` the worst margin, >= 0 when
    status is "certified").
    """

    A: float
    a: float
    B: float
    b: float
    degree_range: tuple
    slack: float
    status: str
    witness_forward: str = ""
    witness_reverse: str = ""


def fit_nikolskii(
    q1: NormSpec,
    q2: NormSpec,
    corpus: Mapping[int, Sequence],
    deg_range: Optional[tuple] = None,
) -> NikolskiiCertificate:
    """Fit the smallest degree-power slopes relating two norms on a corpus."""
    degrees = sorted(n for n in corpus if n >= 1)
    if deg_range is not None:
        degrees = [n for n in degrees if deg_range[0] <= n <= deg_range[1]]
    if not degrees:
        raise ValueError("corpus has no degrees >= 1 in range")
    fwd, rev, wit_f, wit_r = [], [], [], []
    for n in degrees:
        best_f, best_r, bf_w, br_w = 0.0, 0.0, "", ""
        values = zip(_evaluate_norms(q1, corpus[n]), _evaluate_norms(q2, corpus[n]))
        for idx, (v1, v2) in enumerate(values):
            if v2 == 0.0 and v1 > 0.0 or v1 == 0.0 and v2 > 0.0:
                return NikolskiiCertificate(
                    math.inf, math.inf, math.inf, math.inf, (degrees[0], degrees[-1]), -math.inf,
                    "failed", witness_forward=f"deg{n}#{idx}")
            if v1 == 0.0 and v2 == 0.0:
                continue
            if v1 / v2 > best_f:
                best_f, bf_w = v1 / v2, f"deg{n}#{idx}"
            if v2 / v1 > best_r:
                best_r, br_w = v2 / v1, f"deg{n}#{idx}"
        fwd.append(best_f)
        rev.append(best_r)
        wit_f.append(bf_w)
        wit_r.append(br_w)
    logn = np.log(np.array(degrees, dtype=float))
    a = max(0.0, max_pairwise_slope(logn, np.log(np.maximum(fwd, 1e-300))))
    b = max(0.0, max_pairwise_slope(logn, np.log(np.maximum(rev, 1e-300))))
    A = max(f / n**a for f, n in zip(fwd, degrees))
    B = max(r / n**b for r, n in zip(rev, degrees))
    slack = min(
        min(A * n**a - f for f, n in zip(fwd, degrees)),
        min(B * n**b - r for r, n in zip(rev, degrees)),
    )
    return NikolskiiCertificate(
        float(A), float(a), float(B), float(b), (degrees[0], degrees[-1]), float(slack),
        "certified", wit_f[int(np.argmax(fwd))], wit_r[int(np.argmax(rev))])
