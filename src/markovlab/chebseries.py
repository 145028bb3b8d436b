"""Chebyshev-basis polynomial arithmetic, stable at high degree on [-1, 1].

Monomial coefficients of T_n grow like 2^n and make Horner evaluation useless
past degree ~40; everything degree-heavy in this package (candidate searches,
norm sweeps, family tables) therefore runs on Chebyshev coefficients with
Clenshaw evaluation.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as nch
from numpy.polynomial import legendre as nleg

from .polynomials import NEG_INF, UniPoly


class ChebSeries:
    """Polynomial represented by Chebyshev-T coefficients (domain [-1, 1])."""

    __slots__ = ("coef",)
    nvars = 1

    def __init__(self, coef):
        c = np.atleast_1d(np.asarray(coef))
        c = nch.chebtrim(c, tol=0)
        if c.size == 1 and c[0] == 0:
            c = np.zeros(0)
        object.__setattr__(self, "coef", c)

    def __setattr__(self, *_):
        raise AttributeError("ChebSeries is immutable")

    @property
    def degree(self):
        return self.coef.size - 1 if self.coef.size else NEG_INF

    @property
    def is_zero(self) -> bool:
        return self.coef.size == 0

    def __call__(self, x):
        if self.is_zero:
            return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
        return nch.chebval(x, self.coef)

    def deriv(self, k: int = 1) -> "ChebSeries":
        if k < 0:
            raise ValueError("derivative order must be nonnegative")
        if self.is_zero or k > self.degree:
            return ChebSeries([0.0])
        return ChebSeries(nch.chebder(self.coef, k))

    def partial_multi(self, alpha) -> "ChebSeries":
        """D^alpha p for a one-entry multi-index alpha = (k,); p itself when k = 0."""
        (k,) = alpha
        return self.deriv(k) if k else self

    def __add__(self, other):
        if not isinstance(other, ChebSeries):
            return NotImplemented
        return ChebSeries(nch.chebadd(self.coef, other.coef))

    def __sub__(self, other):
        if not isinstance(other, ChebSeries):
            return NotImplemented
        return ChebSeries(nch.chebsub(self.coef, other.coef))

    def __mul__(self, other):
        if isinstance(other, ChebSeries):
            if self.is_zero or other.is_zero:
                return ChebSeries([0.0])
            return ChebSeries(nch.chebmul(self.coef, other.coef))
        return ChebSeries(self.coef * other)

    __rmul__ = __mul__

    def __pow__(self, s: int) -> "ChebSeries":
        if not isinstance(s, int) or s < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if s == 0:
            return ChebSeries([1.0])
        if self.is_zero:
            return ChebSeries([0.0])
        return ChebSeries(nch.chebpow(self.coef, s, maxpower=16385))

    def to_unipoly(self) -> UniPoly:
        if self.is_zero:
            return UniPoly.zero()
        return UniPoly(nch.cheb2poly(self.coef))

    @classmethod
    def from_unipoly(cls, p: UniPoly) -> "ChebSeries":
        if p.is_zero:
            return cls([0.0])
        return cls(nch.poly2cheb([complex(c).real for c in p.coeffs]))

    def __repr__(self):
        return f"ChebSeries(deg={self.degree})"


def chebyshev_t(n: int) -> ChebSeries:
    c = np.zeros(n + 1)
    c[n] = 1.0
    return ChebSeries(c)


def chebyshev_u(n: int) -> ChebSeries:
    # U_n = 2*(T_n + T_{n-2} + ...), with the T_0 term weighted 1
    c = np.zeros(n + 1)
    for j in range(n, -1, -2):
        c[j] = 2.0 if j > 0 else 1.0
    return ChebSeries(c)


def monomial(n: int) -> ChebSeries:
    c = np.zeros(n + 1)
    c[n] = 1.0
    return ChebSeries(nch.poly2cheb(c))


def legendre_orthonormal(n: int) -> ChebSeries:
    """P_n normalized against the uniform probability measure on [-1, 1].

    Converted by interpolation at Chebyshev points (exact for polynomials);
    a detour through monomial coefficients would destroy the cancellations.
    """
    e = np.zeros(n + 1)
    e[n] = 1.0
    c = nch.chebinterpolate(lambda x: nleg.legval(x, e), n)
    return ChebSeries(c * np.sqrt(2 * n + 1))


def random_unit(degree: int, rng: np.random.Generator) -> ChebSeries:
    """Random unit coefficient vector of exact degree ``degree``."""
    c = rng.standard_normal(degree + 1)
    top = np.max(np.abs(c))
    if abs(c[degree]) < 1e-3 * top:
        c[degree] = 1e-3 * top if c[degree] >= 0 else -1e-3 * top
    return ChebSeries(c / np.linalg.norm(c))


class ChebSeries2D:
    """Two-variable polynomial as a 2D Chebyshev coefficient array."""

    __slots__ = ("coef",)
    nvars = 2

    def __init__(self, coef):
        c = np.atleast_2d(np.asarray(coef, dtype=float))
        object.__setattr__(self, "coef", c)

    def __setattr__(self, *_):
        raise AttributeError("ChebSeries2D is immutable")

    @property
    def total_degree(self) -> int:
        nz = np.argwhere(self.coef != 0)
        if nz.size == 0:
            return 0
        return int((nz[:, 0] + nz[:, 1]).max())

    @property
    def is_zero(self) -> bool:
        return not np.any(self.coef)

    def values(self, xs, ys) -> np.ndarray:
        """Values at paired points (xs[i], ys[i])."""
        if self.is_zero:
            return np.zeros_like(np.asarray(xs, dtype=float))
        return nch.chebval2d(xs, ys, self.coef)

    def deriv(self, kx: int = 0, ky: int = 0) -> "ChebSeries2D":
        c = self.coef
        if kx:
            if c.shape[0] <= kx:
                return ChebSeries2D(np.zeros((1, 1)))
            c = nch.chebder(c, kx, axis=0)
        if ky:
            if c.shape[1] <= ky:
                return ChebSeries2D(np.zeros((1, 1)))
            c = nch.chebder(c, ky, axis=1)
        return ChebSeries2D(c)

    def partial_multi(self, alpha) -> "ChebSeries2D":
        """D^alpha p for alpha = (kx, ky); p itself when both are 0."""
        kx, ky = alpha
        return self.deriv(kx, ky) if kx or ky else self

    def __add__(self, other):
        if not isinstance(other, ChebSeries2D):
            return NotImplemented
        a, b = self.coef, other.coef
        rows = max(a.shape[0], b.shape[0])
        cols = max(a.shape[1], b.shape[1])
        out = np.zeros((rows, cols))
        out[: a.shape[0], : a.shape[1]] += a
        out[: b.shape[0], : b.shape[1]] += b
        return ChebSeries2D(out)

    def __mul__(self, other):
        return ChebSeries2D(self.coef * other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"ChebSeries2D(shape={self.coef.shape})"


def product_2d(cx: ChebSeries, cy: ChebSeries) -> ChebSeries2D:
    a = cx.coef if not cx.is_zero else np.zeros(1)
    b = cy.coef if not cy.is_zero else np.zeros(1)
    return ChebSeries2D(np.outer(a, b))


def deriv_matrix(n: int, k: int) -> np.ndarray:
    """Matrix of d^k/dx^k from Chebyshev coefficients of degree <= n to those
    of the derivative (max(n - k, 0) + 1 rows)."""
    return nch.chebder(np.eye(n + 1), k, axis=0)


def chebval_columns(x: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The series in column i of C at x[i], for every i, by one Clenshaw pass.

    Zero rows at the bottom of C (padding to a common length) leave every
    value bitwise as the unpadded series gives it.
    """
    return nch.chebval(x, C, tensor=False)


def lobatto_points(npts: int) -> np.ndarray:
    """Chebyshev-Lobatto points in ascending order, endpoints included."""
    if npts < 2:
        return np.array([0.0])
    return np.cos(np.linspace(np.pi, 0.0, npts))
