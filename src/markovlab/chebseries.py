"""The package's float polynomial type: Chebyshev series in one or two variables.

Monomial coefficients of T_n grow like 2^n and make Horner evaluation useless
past degree ~40; everything degree-heavy in this package (candidate searches,
norm sweeps, family tables) therefore runs on Chebyshev coefficients with
Clenshaw evaluation.  A ``ChebSeries`` holds one coefficient array with one
axis per variable, real or complex.  ``UniPoly`` and ``MultiPoly`` (exact or
float power-basis coefficients) enter the float code through
``as_chebseries``, the one conversion.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as nch
from numpy.polynomial import legendre as nleg

from .errors import DimensionMismatchError
from .polynomials import NEG_INF, UniPoly


class ChebSeries:
    """Polynomial in one or two variables by its Chebyshev-T coefficients.

    ``coef[i]`` (one variable) or ``coef[i, j]`` (two) is the coefficient of
    T_i(x) or T_i(x) T_j(y); trailing zero slices are trimmed, so the zero
    polynomial has an empty array.  Coefficients stay complex when given so.
    Sums, scalar multiples and derivatives take either rank; products, powers
    and ``to_unipoly`` take one variable.
    """

    __slots__ = ("coef",)

    def __init__(self, coef):
        c = 1.0 * np.atleast_1d(np.asarray(coef))  # a float or complex copy
        nz = np.argwhere(c)
        if nz.size:
            c = c[tuple(slice(m + 1) for m in nz.max(axis=0))]
        else:
            c = np.zeros((0,) * c.ndim)
        object.__setattr__(self, "coef", c)

    def __setattr__(self, *_):
        raise AttributeError("ChebSeries is immutable")

    @property
    def nvars(self) -> int:
        return self.coef.ndim

    @property
    def degree(self):
        """The total degree; -inf for the zero polynomial."""
        if self.is_zero:
            return NEG_INF
        if self.coef.ndim == 1:
            return self.coef.size - 1
        return int(np.argwhere(self.coef).sum(axis=1).max())

    @property
    def is_zero(self) -> bool:
        return self.coef.size == 0

    def __call__(self, *x):
        """Values at x (one variable) or at the paired points (x[i], y[i])."""
        if len(x) != self.nvars:
            raise DimensionMismatchError(
                f"point has {len(x)} coordinates, polynomial has {self.nvars}"
            )
        if self.is_zero:
            return np.zeros_like(np.asarray(x[0], dtype=float)) if np.ndim(x[0]) else 0.0
        if self.nvars == 1:
            return nch.chebval(x[0], self.coef)
        return nch.chebval2d(*x, self.coef)

    def deriv(self, k: int = 1, axis: int = 0) -> "ChebSeries":
        """The k-th partial derivative along variable ``axis``."""
        if k < 0:
            raise ValueError("derivative order must be nonnegative")
        if self.coef.shape[axis] <= k:
            return ChebSeries(np.zeros((1,) * self.nvars))
        return ChebSeries(nch.chebder(self.coef, k, axis=axis))

    def partial_multi(self, alpha) -> "ChebSeries":
        """D^alpha p for a multi-index with one entry per variable; p itself when 0."""
        out = self
        for axis, k in enumerate(alpha):
            if k:
                out = out.deriv(k, axis)
        return out

    def __add__(self, other):
        if not isinstance(other, ChebSeries):
            return NotImplemented
        a, b = self.coef, other.coef
        out = np.zeros(np.maximum(a.shape, b.shape), dtype=np.result_type(a, b))
        out[tuple(map(slice, a.shape))] += a
        out[tuple(map(slice, b.shape))] += b
        return ChebSeries(out)

    def __sub__(self, other):
        if not isinstance(other, ChebSeries):
            return NotImplemented
        return self + (-1.0) * other

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

    def __repr__(self):
        return f"ChebSeries(deg={self.degree}, nvars={self.nvars})"


def as_chebseries(p) -> ChebSeries:
    """p as a ChebSeries: a ChebSeries itself, or the Chebyshev coefficients of
    a ``UniPoly`` or of a ``MultiPoly`` in one or two variables, complex where
    any coefficient has a nonzero imaginary part."""
    if isinstance(p, ChebSeries):
        return p
    if isinstance(p, UniPoly):
        terms, nvars = {(j,): c for j, c in enumerate(p.coeffs)}, 1
    else:
        terms, nvars = p.terms, p.nvars
    if nvars > 2:
        raise DimensionMismatchError(f"a ChebSeries has 1 or 2 variables, not {nvars}")
    a = np.zeros([1 + max((alpha[i] for alpha in terms), default=0) for i in range(nvars)],
                 dtype=complex)
    for alpha, c in terms.items():
        a[alpha] = complex(c)
    if not a.imag.any():
        a = a.real
    # power basis to Chebyshev along each variable; poly2cheb trims, so pad back
    for axis in range(nvars):
        a = np.apply_along_axis(lambda v: np.pad(nch.poly2cheb(v), (0, v.size))[: v.size], axis, a)
    return ChebSeries(a)


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


def product_2d(cx: ChebSeries, cy: ChebSeries) -> ChebSeries:
    """The two-variable series cx(x) * cy(y)."""
    return ChebSeries(np.outer(cx.coef, cy.coef))


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
