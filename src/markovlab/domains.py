"""Compact sets and probability measures that norms are evaluated over.

Set variants: Interval, UnionSet (ordered disjoint intervals plus isolated
real/complex points), and SampledRegion2D (a point cloud with the generating
predicate recorded so runs are reproducible).  Every set names where a sup
over it is sampled: ``intervals``, the pieces that are gridded (``grid``) and
refined, and ``samples``, its fixed points as one coordinate array per
polynomial variable, so ``p(*E.samples)`` evaluates p at all of them.
Measures take Gauss rules matched to their weight, all from the one cached
``gauss_jacobi``, so polynomial integrands are integrated exactly.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from .chebseries import lobatto_points
from .errors import QuadratureBudgetError


@dataclass(frozen=True)
class Interval:
    a: float
    b: float
    nvars = 1  # variables of the polynomials a set takes
    samples = (np.empty(0),)  # no fixed points: the grid covers the interval

    def __post_init__(self):
        if not (self.a < self.b and math.isfinite(self.b - self.a)):
            raise ValueError(f"interval requires finite a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def intervals(self) -> tuple:
        return (self,)

    def at(self, t):
        """The point (a + b)/2 + (b - a)/2 * t of [a, b] for each t of [-1, 1];
        the midpoint is a/2 + b/2 where a + b overflows."""
        mid = (self.a + self.b) / 2
        return (mid if math.isfinite(mid) else self.a / 2 + self.b / 2) + self.width / 2 * t

    def grid(self, deg: int) -> np.ndarray:
        """The ``grid_size(deg)`` Chebyshev-Lobatto points of [a, b] a degree-deg sup samples."""
        return self.at(lobatto_points(grid_size(deg)))


def grid_size(deg):
    """8*(deg+1): the points of ``Interval.grid(deg)`` (elementwise for an array)."""
    return 8 * (deg + 1)


@dataclass(frozen=True)
class UnionSet:
    """Disjoint union of intervals and isolated points (real or complex);
    ``samples`` holds the points, in a real array if every point is real."""

    intervals: tuple
    points: tuple = ()
    nvars = 1

    def __post_init__(self):
        ivs = tuple(self.intervals)
        pts = tuple(complex(p) for p in self.points)
        if not ivs and not pts:
            raise ValueError("union set must be nonempty")
        if not all(cmath.isfinite(p) for p in pts):
            raise ValueError("union points must be finite")
        for iv in ivs:
            if not isinstance(iv, Interval):
                raise TypeError("intervals must be Interval instances")
        ordered = sorted(ivs, key=lambda iv: iv.a)
        for left, right in zip(ordered, ordered[1:]):
            if left.b >= right.a:
                raise ValueError("intervals must be pairwise disjoint")
        object.__setattr__(self, "intervals", tuple(ordered))
        object.__setattr__(self, "points", pts)
        real = not any(p.imag for p in pts)
        object.__setattr__(self, "samples", (np.array([p.real for p in pts] if real else pts),))


class SampledRegion2D:
    """Point cloud standing in for a 2D compact set (or a complex point set).

    ``as_complex`` interprets each (x, y) as the complex number x + iy, which
    is how circle/disk sets for univariate polynomials are represented; the
    samples are then ``(x + iy,)``, and ``(x, y)`` for a plane region.

    A plane region is a masked tensor grid: ``axes`` holds the distinct x and
    the distinct y of its points, ascending, and ``index`` each point's place
    in the row-major grid of axes[0] x axes[1] (None for a complex point set),
    so a polynomial's values at the points are read off its grid values.
    """

    __slots__ = ("points", "descriptor", "as_complex", "samples", "nvars", "axes", "index")
    intervals = ()

    def __init__(self, points: np.ndarray, descriptor: dict, as_complex: bool = False):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 100:
            raise ValueError("point cloud must be an (n >= 100, 2) array")
        self.points = pts
        self.descriptor = dict(descriptor)
        self.as_complex = bool(as_complex)
        self.samples = (self.complex_points,) if self.as_complex else tuple(pts.T)
        self.nvars = len(self.samples)  # 1 for a complex point set, 2 for a plane region
        self.axes = self.index = None
        if not self.as_complex:
            (xs, ix), (ys, iy) = (np.unique(x, return_inverse=True) for x in self.samples)
            self.axes, self.index = (xs, ys), ix * ys.size + iy

    @property
    def complex_points(self) -> np.ndarray:
        return self.points[:, 0] + 1j * self.points[:, 1]

    def __eq__(self, other):
        if not isinstance(other, SampledRegion2D):
            return NotImplemented
        return self.descriptor == other.descriptor and self.as_complex == other.as_complex

    def __hash__(self):
        return hash((tuple(sorted(self.descriptor.items())), self.as_complex))

    def __repr__(self):
        return f"SampledRegion2D({self.descriptor!r}, n={len(self.points)})"


CompactSet = Union[Interval, UnionSet, SampledRegion2D]


def sup_points(E: CompactSet, deg: int) -> np.ndarray:
    """Every point an unrefined sup of degree deg samples on a set in one
    variable: the grid of each piece, then the fixed samples."""
    return np.concatenate([iv.grid(deg) for iv in E.intervals] + [E.samples[0]])


# The largest grid side of a region generator: its tensor of 1024^2 values is
# what one norms pass holds (``norms._PASS_MAX_ENTRIES``).
MAX_GRID = 1024


def _check_grid(grid: int) -> None:
    if not 0 < grid <= MAX_GRID:
        raise ValueError(f"grid must be in [1, {MAX_GRID}], got {grid!r}")


def _grid_region(pts: np.ndarray, descriptor: dict) -> SampledRegion2D:
    """The plane region of the points a generator's grid gave, where that grid
    gives the 100 points a region needs."""
    if len(pts) < 100:
        raise ValueError(f"grid {descriptor['grid']} gives {len(pts)} points; a region needs at least 100")
    return SampledRegion2D(pts, descriptor)


def cusp_region(grid: int = 401) -> SampledRegion2D:
    """|y| <= exp(-1/(1-|x|)) for |x| < 1, plus the boundary points (+-1, 0).

    The bound of interest is attained near the cusp tips, so those two points
    are always included explicitly rather than left to the grid.
    """
    _check_grid(grid)
    xs = np.linspace(-1.0, 1.0, grid)
    ys = np.linspace(-1.0, 1.0, grid)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    inside = np.abs(X) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        bound = np.where(inside, np.exp(-1.0 / np.maximum(1.0 - np.abs(X), 1e-300)), 0.0)
    mask = inside & (np.abs(Y) <= bound)
    pts = np.column_stack([X[mask], Y[mask]])
    pts = np.vstack([pts, [[-1.0, 0.0], [1.0, 0.0]]])
    return _grid_region(pts, {"predicate": "cusp_exp", "grid": grid})


def _box_side(lo: float, hi: float, lo_name: str, hi_name: str) -> Interval:
    try:
        return Interval(lo, hi)
    except ValueError:
        raise ValueError(f"box {lo_name} < {hi_name} must be finite, got {lo_name}={lo!r}, {hi_name}={hi!r}") from None


def box_region(
    xmin: float = -1.0,
    xmax: float = 1.0,
    ymin: float = -1.0,
    ymax: float = 1.0,
    grid: int = 65,
) -> SampledRegion2D:
    """Tensor Chebyshev-Lobatto grid over a rectangle (corners included)."""
    _check_grid(grid)
    t = lobatto_points(grid)
    xs = _box_side(xmin, xmax, "xmin", "xmax").at(t)
    ys = _box_side(ymin, ymax, "ymin", "ymax").at(t)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    desc = {
        "predicate": "box",
        "grid": grid,
        "xmin": xmin,
        "xmax": xmax,
        "ymin": ymin,
        "ymax": ymax,
    }
    return _grid_region(pts, desc)


def disk_boundary(npoints: int = 2048) -> SampledRegion2D:
    """Unit circle in the complex plane (sup over the disk boundary)."""
    theta = np.linspace(0.0, 2.0 * np.pi, npoints, endpoint=False)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    return SampledRegion2D(pts, {"predicate": "disk_boundary", "points": npoints}, as_complex=True)


def json_number(value, name: str, integer: bool = False):
    """The JSON number of field ``name``: a float, or an int for an integer
    field (4.0 counts as 4); a boolean, a string or a fractional count raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, not {value!r}")
    if integer and value % 1:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value) if integer else float(value)


_REGION_GENERATORS = {
    "cusp_exp": lambda d: cusp_region(grid=json_number(d.get("grid", 401), "grid", True)),
    "box": lambda d: box_region(
        xmin=json_number(d.get("xmin", -1.0), "xmin"),
        xmax=json_number(d.get("xmax", 1.0), "xmax"),
        ymin=json_number(d.get("ymin", -1.0), "ymin"),
        ymax=json_number(d.get("ymax", 1.0), "ymax"),
        grid=json_number(d.get("grid", 65), "grid", True),
    ),
    "disk_boundary": lambda d: disk_boundary(npoints=json_number(d.get("points", 2048), "points", True)),
}


def set_to_json(E: CompactSet) -> dict:
    if isinstance(E, Interval):
        return {"kind": "interval", "a": E.a, "b": E.b}
    if isinstance(E, UnionSet):
        parts = [{"kind": "interval", "a": iv.a, "b": iv.b} for iv in E.intervals]
        parts += [{"kind": "point", "re": p.real, "im": p.imag} for p in E.points]
        return {"kind": "union", "parts": parts}
    if isinstance(E, SampledRegion2D):
        return {"kind": "region2d", **E.descriptor}
    raise TypeError(f"not a compact set: {E!r}")


def set_from_json(obj: dict) -> CompactSet:
    if not isinstance(obj, dict):
        raise TypeError(f"a set is a JSON object, not {obj!r}")
    kind = obj.get("kind")
    if kind == "interval":
        return Interval(json_number(obj["a"], "a"), json_number(obj["b"], "b"))
    if kind == "union":
        intervals, points = [], []
        for part in obj["parts"]:
            part_kind = part.get("kind") if isinstance(part, dict) else None
            if part_kind == "interval":
                intervals.append(Interval(json_number(part["a"], "a"), json_number(part["b"], "b")))
            elif part_kind == "point":
                points.append(complex(json_number(part.get("re", 0.0), "re"),
                                      json_number(part.get("im", 0.0), "im")))
            else:
                raise ValueError(f"unknown union part {part!r}")
        return UnionSet(tuple(intervals), tuple(points))
    if kind == "region2d":
        predicate = obj.get("predicate")
        gen = _REGION_GENERATORS.get(predicate)
        if gen is None:
            raise ValueError(f"unknown region predicate {predicate!r}")
        return gen(obj)
    raise ValueError(f"unknown set kind {kind!r}")


def jacobi_monic_recurrence(alpha: float, beta: float, nmax: int):
    """Monic Jacobi recurrence (a_k, b_k), b_0 set to 1 (probability measure)."""
    a = np.zeros(nmax)
    b = np.zeros(nmax + 1)
    ab = alpha + beta
    a[0] = (beta - alpha) / (ab + 2.0)
    b[0] = 1.0
    for k in range(1, nmax):
        a[k] = (beta**2 - alpha**2) / ((2 * k + ab) * (2 * k + ab + 2.0))
    if nmax >= 1:
        b[1] = 4.0 * (alpha + 1) * (beta + 1) / ((ab + 2.0) ** 2 * (ab + 3.0))
    for k in range(2, nmax + 1):
        b[k] = (
            4.0 * k * (k + alpha) * (k + beta) * (k + ab)
            / ((2 * k + ab) ** 2 * (2 * k + ab + 1.0) * (2 * k + ab - 1.0))
        )
    return a, b


@lru_cache(maxsize=512)
def gauss_jacobi(nnodes: int, alpha: float, beta: float):
    """Nodes and probability weights of the Gauss rule for (1-x)^alpha (1+x)^beta.

    Golub-Welsch: nodes are the Jacobi matrix's eigenvalues, weights 1/K(x),
    K = sum_{k<n} q_k^2 over the orthonormal q_k.  K moves fast near +-1, so
    it is taken at the Newton-corrected node, K + K' dx with dx = -q_n/q_n'.
    Rules are read-only and shared by all measures.
    """
    a, b = jacobi_monic_recurrence(alpha, beta, nnodes)
    off = np.sqrt(b[1:])
    J = np.diag(a)
    J[np.arange(1, nnodes), np.arange(nnodes - 1)] = off[:-1]
    x = np.linalg.eigvalsh(J, UPLO="L")
    q_prev, q, dq_prev, dq = np.zeros_like(x), np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    K, dK = np.zeros_like(x), np.zeros_like(x)
    for k in range(nnodes):
        K += q * q
        dK += 2.0 * q * dq
        back = off[k - 1] if k else 0.0
        q_prev, q, dq_prev, dq = (
            q, ((x - a[k]) * q - back * q_prev) / off[k],
            dq, (q + (x - a[k]) * dq - back * dq_prev) / off[k],
        )
    dx = -q / dq
    weights = 1.0 / (K + dK * dx)
    nodes, weights = x + dx, weights / weights.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def jacobi_log_mass(alpha: float, beta: float, width: float) -> float:
    """log of the integral of (b - x)^alpha (x - a)^beta over [a, b], b - a = width."""
    log_beta = math.lgamma(alpha + 1) + math.lgamma(beta + 1) - math.lgamma(alpha + beta + 2)
    return (alpha + beta + 1) * math.log(width) + log_beta


# Largest polynomial degree whose square a rule integrates exactly: rules are
# exact up to degree 2*DEGREE_BUDGET, and orthonormal systems built by
# quadrature stop at degree DEGREE_BUDGET/2.
DEGREE_BUDGET = 256


@dataclass(frozen=True)
class Measure:
    """Probability measure on an interval: its support, the exponents
    ``alpha`` of (b - x) and ``beta`` of (x - a) in its density (nonzero on
    [-1, 1] only), and an optional tabulated weight function (with zero
    exponents only).  Every rule is the cached ``gauss_jacobi`` rule for
    (alpha, beta) mapped onto the support; a tabulated measure multiplies the
    Legendre one by its weight function.
    """

    support: Interval
    alpha: float = 0.0
    beta: float = 0.0
    weight_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not (-1 < self.alpha < math.inf and -1 < self.beta < math.inf):
            raise ValueError("jacobi parameters must be finite and exceed -1")
        if self.alpha or self.beta:
            if self.weight_fn is not None:
                raise ValueError("a tabulated weight takes no jacobi exponents")
            if (self.support.a, self.support.b) != (-1.0, 1.0):
                raise ValueError("jacobi measures are supported on [-1, 1]")

    @property
    def kind(self) -> str:
        """Read off the fields: "tabulated", else "jacobi" or (zero exponents) "lebesgue"."""
        if self.weight_fn is not None:
            return "tabulated"
        return "jacobi" if self.alpha or self.beta else "lebesgue"

    def _mapped_rule(self, nnodes: int):
        """gauss_jacobi(nnodes, alpha, beta) mapped affinely onto the support;
        on [-1, 1], the cached read-only arrays themselves."""
        x, w = gauss_jacobi(nnodes, self.alpha, self.beta)
        if (self.support.a, self.support.b) == (-1.0, 1.0):
            return x, w
        return self.support.at(x), w

    def _tabulated_rule(self, nnodes: int):
        """Gauss-Legendre nodes on the support; weights dx times the weight function."""
        nodes, w = self._mapped_rule(nnodes)
        return nodes, w * self.support.width * np.asarray(self.weight_fn(nodes), dtype=float)

    def gauss_rule(self, nnodes: int):
        """Nodes and weights of an n-point rule, normalized to total mass 1."""
        nnodes = max(int(nnodes), 1)
        if self.weight_fn is None:
            return self._mapped_rule(nnodes)
        nodes, weights = self._tabulated_rule(nnodes)
        doubled = self._tabulated_rule(2 * nnodes)[1]
        if not (np.isfinite(weights).all() and np.isfinite(doubled).all()):
            raise QuadratureBudgetError("tabulated weight fails quadrature self-consistency: "
                                        "it is NaN or inf at a node")
        # self-consistency: a doubled rule must agree to 1e-8 relative
        total, total2 = weights.sum(), doubled.sum()
        if not abs(total - total2) <= 1e-8 * abs(total2):
            raise QuadratureBudgetError(
                "tabulated weight fails quadrature self-consistency; "
                "increase the node count"
            )
        return nodes, weights / total

    def rule_for_degree(self, degree: int):
        """Rule exact for polynomial integrands up to ``degree``.

        Gauss rules are exact only against their own weight; a tabulated
        weight is part of the integrand, so that case oversamples (spectral
        accuracy for smooth weights) instead of claiming exactness.
        """
        if degree > 2 * DEGREE_BUDGET:
            raise QuadratureBudgetError(
                f"integrand degree {degree} exceeds budget {2 * DEGREE_BUDGET}"
            )
        if self.weight_fn is not None:
            return self.gauss_rule(max(degree + 1, 64))
        return self.gauss_rule(degree // 2 + 1)

    def density(self, x: np.ndarray) -> np.ndarray:
        """d(mu)/dx over (b - x)^alpha (x - a)^beta (smooth); a tabulated weight is
        normalised by the mass its 64-point rule gives it."""
        if self.weight_fn is not None:
            return np.asarray(self.weight_fn(x), dtype=float) / self._tabulated_rule(64)[1].sum()
        mass = jacobi_log_mass(self.alpha, self.beta, self.support.width)
        return np.full(np.shape(x), math.exp(-mass))


def lebesgue_measure(a: float = -1.0, b: float = 1.0) -> Measure:
    return Measure(Interval(a, b))


def jacobi_measure(alpha: float, beta: float) -> Measure:
    return Measure(Interval(-1.0, 1.0), alpha, beta)


def chebyshev_measure() -> Measure:
    return jacobi_measure(-0.5, -0.5)


def tabulated_measure(
    weight_fn: Callable[[np.ndarray], np.ndarray], a: float = -1.0, b: float = 1.0
) -> Measure:
    return Measure(Interval(a, b), weight_fn=weight_fn)


def measure_to_json(mu: Measure) -> dict:
    if mu.kind == "lebesgue":
        return {"kind": "lebesgue", "a": mu.support.a, "b": mu.support.b}
    if mu.kind == "jacobi":
        return {"kind": "jacobi", "alpha": mu.alpha, "beta": mu.beta}
    raise TypeError("tabulated measures are not JSON-serializable")


def measure_from_json(obj: dict) -> Measure:
    if not isinstance(obj, dict):
        raise TypeError(f"a measure is a JSON object, not {obj!r}")
    kind = obj.get("kind")
    if kind == "lebesgue":
        return lebesgue_measure(json_number(obj.get("a", -1.0), "a"), json_number(obj.get("b", 1.0), "b"))
    if kind == "jacobi":
        return jacobi_measure(json_number(obj["alpha"], "alpha"), json_number(obj["beta"], "beta"))
    raise ValueError(f"unknown measure kind {kind!r}")
