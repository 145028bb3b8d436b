"""The package's float polynomial type: Chebyshev series in one or two variables.

Monomial coefficients of T_n grow like 2^n and make Horner evaluation useless
past degree ~40; everything degree-heavy in this package (candidate searches,
norm sweeps, family tables) therefore runs on Chebyshev coefficients with
Clenshaw evaluation.  A ``ChebSeries`` holds one coefficient array with one
axis per variable, real or complex.  A ``MultiPoly`` (exact or float
power-basis coefficients, ``UniPoly`` included) enters the float code through
``as_chebseries``, the one conversion; both types answer the same calls.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev as nch

from .errors import DimensionMismatchError
from .polynomials import NEG_INF, MultiPoly, UniPoly, _inexact
from .scalars import is_exact


class ChebSeries:
    """Polynomial in one or two variables by its Chebyshev-T coefficients.

    ``coef[i]`` (one variable) or ``coef[i, j]`` (two) is the coefficient of
    T_i(x) or T_i(x) T_j(y); trailing zero slices are trimmed, so the zero
    polynomial has an empty array.  Coefficients stay complex when given so.
    Sums, scalar multiples and derivatives take either rank; products, powers
    and ``to_unipoly`` take one variable.
    """

    __slots__ = ("coef",)

    is_exact = False  # as ``MultiPoly.is_exact``: Chebyshev coefficients are floats

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
            return np.zeros(np.shape(x[0])) if np.ndim(x[0]) else 0.0
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

    partial_multi = MultiPoly.partial_multi  # one body: it calls only ``deriv``

    def __add__(self, other):
        if not isinstance(other, ChebSeries):
            return NotImplemented
        return ChebSeries(padded_sum(self.coef, other.coef))

    def __sub__(self, other):
        if not isinstance(other, ChebSeries):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, ChebSeries):
            _one_variable(self, other)
            if self.is_zero or other.is_zero:
                return ChebSeries([0.0])
            return ChebSeries(nch.chebmul(self.coef, other.coef))
        return ChebSeries(self.coef * (_inexact(other) if is_exact(other) else other))

    __rmul__ = __mul__

    def __pow__(self, s: int) -> "ChebSeries":
        if not isinstance(s, int) or s < 0:
            raise ValueError("exponent must be a nonnegative integer")
        _one_variable(self)
        if s == 0:
            return ChebSeries([1.0])
        if self.is_zero:
            return ChebSeries([0.0])
        return ChebSeries(nch.chebpow(self.coef, s, maxpower=16385))

    def to_unipoly(self) -> UniPoly:
        if self.is_zero:
            return UniPoly(())
        return UniPoly(nch.cheb2poly(self.coef))

    def __repr__(self):
        return f"ChebSeries(deg={self.degree}, nvars={self.nvars})"


def padded_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b, each zero-padded to the larger shape: the coefficients of the
    sum of two series (or of two stacks of series along a last axis)."""
    out = np.zeros(np.maximum(a.shape, b.shape), dtype=np.result_type(a, b))
    out[tuple(map(slice, a.shape))] += a
    out[tuple(map(slice, b.shape))] += b
    return out


def _one_variable(*series: ChebSeries) -> None:
    if any(p.nvars != 1 for p in series):
        raise DimensionMismatchError("products and powers take one-variable series")


def as_chebseries(p) -> ChebSeries:
    """p as a ChebSeries: a ChebSeries itself, or the Chebyshev coefficients of
    a ``MultiPoly`` in one or two variables, complex where any coefficient has
    a nonzero imaginary part."""
    if isinstance(p, ChebSeries):
        return p
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
    """x^n = 2^(1-n) sum C(n, (n-k)/2) T_k over k = n, n-2, ..., with the T_0
    term halved: C(n, j) from C(n, j - 1) by one big-integer product, and
    each coefficient correctly rounded by one integer division."""
    c, binom = np.zeros(n + 1), 1
    for j in range(n // 2 + 1):
        c[n - 2 * j] = binom / (1 << (n - 1 + (2 * j == n)))
        binom = binom * (n - j) // (j + 1)
    return ChebSeries(c)


def legendre_orthonormal(n: int) -> ChebSeries:
    """P_n normalized against the uniform probability measure on [-1, 1].

    Its Chebyshev coefficients in closed form, c_(n-2j) = (2 - [n = 2j])
    L(j) L(n-j) sqrt(2n+1) with L(j) = C(2j, j) / 4^j, every L(j) from one
    cumulative product (Hale & Townsend, SIAM J. Sci. Comput. 36, 2014).
    """
    i, j = np.arange(1, n + 1), np.arange(n // 2 + 1)
    lam = np.cumprod(np.append(1.0, (2 * i - 1) / (2 * i)))  # L(0), ..., L(n)
    c = np.zeros(n + 1)
    c[n - 2 * j] = (2.0 - (n == 2 * j)) * lam[j] * lam[n - j] * math.sqrt(2 * n + 1)
    return ChebSeries(c)


def random_units(degree: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` random unit coefficient vectors of exact degree ``degree``, as
    the rows of one matrix drawn at once: bitwise the rows that ``count``
    successive ``random_unit`` calls give, with ``rng`` left in the same state."""
    C = rng.standard_normal((count, degree + 1))
    top = np.max(np.abs(C), axis=1)
    small = np.abs(C[:, degree]) < 1e-3 * top
    C[small, degree] = np.where(C[small, degree] >= 0, 1e-3, -1e-3) * top[small]
    # one norm per row, np.linalg.norm's sqrt(c . c): a norm along axis 1 sums in another order
    return C / np.sqrt([c.dot(c) for c in C])[:, None]


def random_unit(degree: int, rng: np.random.Generator) -> ChebSeries:
    """Random unit coefficient vector of exact degree ``degree``."""
    return ChebSeries(random_units(degree, 1, rng)[0])


def product_2d(cx: ChebSeries, cy: ChebSeries) -> ChebSeries:
    """The two-variable series cx(x) * cy(y)."""
    return ChebSeries(np.outer(cx.coef, cy.coef))


def deriv_matrix(n: int, k: int) -> np.ndarray:
    """Matrix of d^k/dx^k from Chebyshev coefficients of degree <= n to those
    of the derivative (max(n - k, 0) + 1 rows)."""
    return nch.chebder(np.eye(n + 1), k, axis=0)


def chebval_columns(x: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The series in column i of C at x[i], for every i, by one Clenshaw pass.
    C's axes after the first broadcast against x's: C of shape (n, m, 1)
    evaluates column i at every point of row i of an (m, k) array x.

    Zero rows at the bottom of C (padding to a common length) leave every
    value bitwise as the unpadded series gives it.
    """
    return nch.chebval(x, C, tensor=False)


def lobatto_points(npts: int) -> np.ndarray:
    """Chebyshev-Lobatto points in ascending order, endpoints included."""
    if npts < 2:
        return np.array([0.0])
    return np.cos(np.linspace(np.pi, 0.0, npts))


def grid_values(C: np.ndarray, m: int) -> np.ndarray:
    """Row l holds the series in each column of C (at most m + 1 rows) at
    cos(pi l / m), l = 0..m, the exact angles: a DCT-I of the zero-padded
    coefficients, one rfft of length 2m (two for complex C), each column
    bitwise its own (Trefethen, ATAP ch. 3)."""
    if np.iscomplexobj(C):
        return grid_values(C.real, m) + 1j * grid_values(C.imag, m)
    return np.fft.rfft(C, 2 * m, axis=0).real


def lobatto_coef(V: np.ndarray) -> np.ndarray:
    """The inverse of ``grid_values``: down each column, the Chebyshev
    coefficients of the polynomial of degree m = len(V) - 1 >= 1 with the
    values V[l] at cos(pi l / m)."""
    if np.iscomplexobj(V):
        return lobatto_coef(V.real) + 1j * lobatto_coef(V.imag)
    m = len(V) - 1
    c = np.fft.rfft(np.concatenate([V, V[-2:0:-1]]), axis=0).real / m
    c[[0, m]] /= 2
    return c
