"""The power-basis polynomial type ``MultiPoly`` and differential operators.

``MultiPoly`` holds power-basis coefficients in 1 to 4 variables;
``UniPoly`` only builds one-variable ones from dense coefficients.
Coefficients may come from either backend in :mod:`markovlab.scalars`; every
arithmetic operation preserves the backend of its inputs (no silent float
coercion; evaluation at float points is in floats).

An exact polynomial is stored on integers: one positive denominator and
integer numerators of the real and imaginary parts by multi-index (the
imaginary part is empty for a real polynomial), with no common factor.
Products and powers multiply these by Kronecker substitution: each part is
packed into one big integer, one slot per multi-index in the product's
degree box, and the product of two polynomials is at most four big-integer
products.  ``terms`` builds ``Fraction``/``RationalComplex`` values only when
read.

A float polynomial is one float or complex ndarray over its degree box, one
axis per variable, trimmed of trailing zero slices; ``terms`` builds Python
``float``/``complex`` values from it only when read.  A product is the same
Kronecker substitution on arrays: each factor is zero-padded along every
axis but the first to the product's box and ravelled, and the product is one
``np.convolve``, truncated and reshaped.  Sums, scalar multiples and partial
derivatives are padded array operations; an exact operand or scalar enters
them rounded once (``_inexact``).

The zero polynomial carries the degree sentinel ``-inf`` so that degree
formulas like ``deg(p*q) = deg p + deg q`` and ``max(deg p - k, -inf)`` hold
without special-casing -1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import add, mul
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as nch

from .errors import DimensionMismatchError, PrecisionOverflowError
from .scalars import RationalComplex, is_exact, power_by_squaring

NEG_INF = float("-inf")

#: Construction-time caps for dense multivariate sweeps.  Arithmetic results
#: (products, powers) and ``UniPoly`` are allowed to exceed the degree cap;
#: only direct ``MultiPoly`` construction from user input is gated.
NVARS_MAX = 4
TOTAL_DEGREE_MAX = 32

_COEFF_OVERFLOW = 1e300

#: The most slots a float polynomial's coefficient array may hold (32 MiB of
#: doubles): above the 33^4 box of any polynomial within the caps above.
_FLOAT_SLOTS_MAX = 1 << 22

_STACK_COLUMNS = 4  # the fewest series ``chebder_columns`` derives in one chebder call


class MultiPoly:
    """Power-basis polynomial in 1 to ``NVARS_MAX`` variables, exact or float.

    ``terms`` maps each multi-index with a nonzero coefficient to that
    coefficient.  An exact polynomial keeps integer numerators over one
    denominator; a float one keeps one dense float or complex array over its
    degree box, ``coef[alpha]`` the coefficient of x^alpha, and multiplies
    by one ``np.convolve`` (``_float_product``).  The interface is
    ``ChebSeries``': ``degree`` (total, -inf for zero), ``p(*x)``,
    ``deriv(k, axis)``, ``partial_multi`` and ``+ - * **``.
    """

    # nvars; exact: _den, _re, _im; float: _coef; both: _terms once read
    __slots__ = ("nvars", "_den", "_re", "_im", "_coef", "_terms")

    def __init__(self, terms: dict, nvars: int, _unchecked: bool = False):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        if nvars > NVARS_MAX:
            raise ValueError(f"nvars {nvars} exceeds cap {NVARS_MAX}")
        clean = {}
        for alpha, c in terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != nvars or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {alpha} for nvars={nvars}")
            if c:
                clean[alpha] = c
        if not _unchecked:
            deg = max((sum(a) for a in clean), default=0)
            if deg > TOTAL_DEGREE_MAX:
                raise ValueError(
                    f"total degree {deg} exceeds construction cap {TOTAL_DEGREE_MAX}"
                )
        _from_terms(clean, nvars, self)

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return MultiPoly({}, nvars)

    @classmethod
    def constant(cls, c, nvars: int) -> "MultiPoly":
        return MultiPoly({(0,) * nvars: c}, nvars)

    @property
    def terms(self) -> dict:
        """Multi-index -> coefficient: ``Fraction`` for an exact real polynomial,
        ``RationalComplex`` for an exact complex one, Python ``float`` or
        ``complex`` (the array's type) for a float one."""
        if self._terms is None:
            den, re, im = self._den, self._re, self._im
            if den is None:
                idx = np.nonzero(self._coef)
                out = dict(zip(zip(*(i.tolist() for i in idx)), self._coef[idx].tolist()))
            elif im:
                out = {a: RationalComplex(Fraction(re.get(a, 0), den), Fraction(im.get(a, 0), den))
                       for a in {**re, **im}}
            else:
                out = {a: Fraction(c, den) for a, c in re.items()}
            object.__setattr__(self, "_terms", out)
        return self._terms

    @property
    def degree(self):
        """The total degree; -inf for the zero polynomial."""
        if self._den is None:
            idx = np.nonzero(self._coef)
            return int(sum(idx).max()) if idx[0].size else NEG_INF
        return max((sum(a) for a in {**self._re, **self._im}), default=NEG_INF)

    @property
    def is_zero(self) -> bool:
        return not self._coef.size if self._den is None else not (self._re or self._im)

    @property
    def is_exact(self) -> bool:
        return self._den is not None

    def __call__(self, *x):
        """Values at the point x, one argument per variable: exact where every
        coordinate is exact, else in floats (elementwise on arrays)."""
        if len(x) != self.nvars:
            raise DimensionMismatchError(
                f"point has {len(x)} coordinates, polynomial has {self.nvars}"
            )
        exact = all(is_exact(xi) for xi in x)
        acc = 0
        for alpha, c in self.terms.items():
            term = c if exact else _inexact(c)
            for xi, a in zip(x, alpha):
                if a:
                    term = term * xi ** a
            acc = acc + term
        return acc

    def deriv(self, k: int = 1, axis: int = 0) -> "MultiPoly":
        """The k-th partial derivative along variable ``axis``."""
        if k < 0:
            raise ValueError("derivative order must be nonnegative")
        if not 0 <= axis < self.nvars:
            raise DimensionMismatchError(f"axis {axis} out of range for nvars={self.nvars}")

        if self._den is None:
            return _float(_partial_coef(self._coef, _unit(axis, k, self.nvars)), self.nvars)
        return _exact(self._den, _partial(self._re, k, axis), _partial(self._im, k, axis), self.nvars)

    def partial_multi(self, alpha: Sequence[int]):
        """D^alpha p, of p's type, for a multi-index with one entry per variable; p when 0."""
        out = self
        for axis, k in enumerate(alpha):
            if k:
                out = out.deriv(k, axis)
        return out

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise DimensionMismatchError("mixed nvars in addition")
        if self._den is None or other._den is None:
            # a float sum: the exact operand's coefficients become floats too
            return _float(padded_sum(_float_coef(self), _float_coef(other)), self.nvars)
        den = math.lcm(self._den, other._den)
        s, t = den // self._den, den // other._den
        re, im = _scaled(self._re, s), _scaled(self._im, s)
        for part, extra in ((re, other._re), (im, other._im)):
            for alpha, c in extra.items():
                part[alpha] = part.get(alpha, 0) + t * c
        return _exact(den, re, im, self.nvars)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            if self.nvars != other.nvars:
                raise DimensionMismatchError("mixed nvars in product")
            if self._den is not None and other._den is not None:
                return _exact_product(self, other)
            return _float(_float_product(_float_coef(self), _float_coef(other)), self.nvars)
        if self._den is not None and is_exact(other):
            x, y, d = _split(other)
            re, im = self._re, self._im
            new_re, new_im = _scaled(re, x), _scaled(im, x)
            if y:
                for part, extra, sign in ((new_re, im, -y), (new_im, re, y)):
                    for alpha, c in extra.items():
                        part[alpha] = part.get(alpha, 0) + sign * c
            return _exact(self._den * d, new_re, new_im, self.nvars)
        return _float(_float_coef(self) * (_inexact(other) if is_exact(other) else other), self.nvars)

    __rmul__ = __mul__

    def __pow__(self, s: int) -> "MultiPoly":
        """p**s by repeated squaring from the constant 1 of p's own backend (one
        packed big-integer power when exact); a float coefficient past 1e300,
        or NaN, raises."""
        if self._den is not None and isinstance(s, int) and s > 1 and not self.is_zero:
            degrees, n = _degrees(self), len(self._re) + len(self._im)
            # every coefficient of p**s is at most l1(p)**s
            sizes, width = [s * a + 1 for a in degrees], s * _l1(self).bit_length() // 8 + 1

            def nterms(j):  # a bound on the number of terms of p**j
                return min(math.prod(j * a + 1 for a in degrees), math.comb(n + j - 1, j))

            # against the last product of repeated squaring, p**(s - s//2) * p**(s//2)
            pairs = nterms(s - s // 2) * nterms(s // 2)
            if _packing_pays(math.prod(sizes), width, 4 if self._im else 1, pairs):
                re, im = _gauss_pow(_pack(self._re, sizes, width), _pack(self._im, sizes, width), s)
                return _exact(self._den ** s, _unpack(re, sizes, width), _unpack(im, sizes, width),
                              self.nvars)
        one = MultiPoly.constant(1, self.nvars) if self._den is not None else _float(
            np.ones((1,) * self.nvars), self.nvars)
        out = power_by_squaring(one, self, s)
        if not out.is_exact and not out.max_coeff_magnitude() <= _COEFF_OVERFLOW:
            raise PrecisionOverflowError(
                "coefficient magnitude overflow (or NaN) in a power; use exact coefficients"
            )
        return out

    def max_coeff_magnitude(self) -> float:
        """The largest |c|, an exact one rounded once (inf past the double
        range); NaN where any coefficient is NaN."""
        if self._den is None:
            return float(np.abs(self._coef).max()) if self._coef.size else 0.0
        return _sqrt_float(_max_abs_squared(self))

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        if self._den is not None and other._den is not None:
            return (self._den, self._re, self._im) == (other._den, other._re, other._im)
        return self.terms == other.terms

    def __repr__(self):
        return f"MultiPoly({self.terms!r}, nvars={self.nvars})"


def _inexact(c):
    """c as a float, or as a complex where its imaginary part is nonzero."""
    z = complex(c)
    return z if z.imag else z.real


# ---------------------------------------------------------------------------
# Building MultiPolys, and float products on arrays


def _build(obj, nvars, den, re, im, coef) -> MultiPoly:
    for name, value in (("nvars", nvars), ("_den", den), ("_re", re), ("_im", im), ("_coef", coef),
                        ("_terms", None)):
        object.__setattr__(obj, name, value)
    return obj


def _check_box(shape) -> None:
    """ValueError for a float coefficient array of this shape past ``_FLOAT_SLOTS_MAX``."""
    if math.prod(shape) > _FLOAT_SLOTS_MAX:
        box = "x".join(str(int(n)) for n in shape)
        raise ValueError(f"a float coefficient box {box} has more than {_FLOAT_SLOTS_MAX} slots")


def _float(coef: np.ndarray, nvars: int, obj=None) -> MultiPoly:
    """The float MultiPoly of this float or complex coefficient array (never
    written in place after), ``trimmed``."""
    return _build(object.__new__(MultiPoly) if obj is None else obj, nvars, None, None, None,
                  trimmed(coef))


def trimmed(c: np.ndarray) -> np.ndarray:
    """c without its trailing zero slices along every axis: the coefficients
    of a polynomial (or series) over its own box.  The zero polynomial's array
    is empty and real."""
    if c.ndim == 1:
        nz = np.flatnonzero(c)
        return c[: nz[-1] + 1] if nz.size else np.zeros(0)
    if not np.count_nonzero(c):
        return np.zeros((0,) * c.ndim)
    for axis in range(c.ndim):
        head, n = (slice(None),) * axis, c.shape[axis]
        while not np.count_nonzero(c[head + (n - 1,)]):
            n -= 1
        if n < c.shape[axis]:
            c = c[head + (slice(n),)]
    return c


def _dense(terms: dict, nvars: int) -> np.ndarray:
    """The float or complex array over their box of multi-index ->
    coefficient terms, each exact one rounded once (``_inexact``)."""
    if not terms:
        return np.zeros((0,) * nvars)
    values = np.array([_inexact(c) if is_exact(c) else c for c in terms.values()])
    idx = np.array(list(terms), dtype=np.intp)
    shape = idx.max(axis=0) + 1
    _check_box(shape)
    out = np.zeros(shape, dtype=complex if values.dtype.kind == "c" else float)
    out[tuple(idx.T)] = values
    return out


def _float_coef(p: MultiPoly) -> np.ndarray:
    """p's coefficient array: a float p's own, an exact p's rounded once."""
    return p._coef if p._den is None else _dense(p.terms, p.nvars)


def _padded(a: np.ndarray, shape) -> np.ndarray:
    """a zero-padded to this shape, no smaller than a's along any axis."""
    out = np.zeros(shape, dtype=a.dtype)
    out[tuple(map(slice, a.shape))] = a
    return out


def padded_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b, each zero-padded to the larger shape: the coefficients of the
    sum of two polynomials (or of two stacks of series along a last axis)."""
    out = np.zeros(tuple(map(max, a.shape, b.shape)), dtype=np.result_type(a, b))
    out[tuple(map(slice, a.shape))] += a
    out[tuple(map(slice, b.shape))] += b
    return out


def _partial_coef(c: np.ndarray, alpha) -> np.ndarray:
    """The coefficient array of D^alpha of the polynomial with array c, one
    axis at a time from the first: each a slice times the falling factorials
    j!/(j-k)!, j = k, k+1, ..., along that axis."""
    for axis, k in enumerate(alpha):
        if k:
            w = np.array([math.perm(j, k) for j in range(k, c.shape[axis])], dtype=float)
            w = w.reshape((-1,) + (1,) * (c.ndim - axis - 1))
            c = c[(slice(None),) * axis + (slice(k, None),)] * w
    return c


def _float_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The coefficients of the product of the polynomials with coefficient
    arrays a and b, by Kronecker substitution: padded along every axis but
    the first to the product's box, each ravels to the coefficients of a
    one-variable polynomial whose product is one ``np.convolve``."""
    if not a.size or not b.size:
        return np.zeros((0,) * a.ndim, dtype=np.result_type(a, b))
    shape = [m + n - 1 for m, n in zip(a.shape, b.shape)]
    _check_box(shape)
    if a.ndim > 1:
        a, b = (_padded(x, (x.shape[0], *shape[1:])).ravel() for x in (a, b))
    return np.convolve(a, b)[: math.prod(shape)].reshape(shape)


# ---------------------------------------------------------------------------
# Exact MultiPolys from terms, and exact products on integers


def _from_terms(terms: dict, nvars: int, obj=None) -> MultiPoly:
    """The MultiPoly of checked multi-indices -> coefficients (zeros dropped):
    exact when every coefficient is, else a float polynomial of these values."""
    terms = {a: c for a, c in terms.items() if c}
    obj = object.__new__(MultiPoly) if obj is None else obj
    if not all(is_exact(c) for c in terms.values()):
        return _float(_dense(terms, nvars), nvars, obj)
    parts = {a: _split(c) for a, c in terms.items()}
    den = math.lcm(*(d for _, _, d in parts.values()))
    # over the lcm of reduced denominators the numerators have no common factor
    re = {a: x * (den // d) for a, (x, _, d) in parts.items() if x}
    im = {a: y * (den // d) for a, (_, y, d) in parts.items() if y}
    return _build(obj, nvars, den, re, im, None)


def _exact(den: int, re: dict, im: dict, nvars: int) -> MultiPoly:
    """The exact MultiPoly (re + i*im)/den, zeros dropped and common factors
    cancelled."""
    re = {a: c for a, c in re.items() if c}
    im = {a: c for a, c in im.items() if c}
    if not re and not im:
        den = 1
    elif den != 1:
        g = math.gcd(den, *re.values(), *im.values())
        if g != 1:
            den = den // g
            re, im = {a: c // g for a, c in re.items()}, {a: c // g for a, c in im.items()}
    return _build(object.__new__(MultiPoly), nvars, den, re, im, None)


def _split(c) -> tuple:
    """An exact scalar as integers (x, y, d), d > 0, with c = (x + i*y)/d."""
    re, im = c.real, c.imag
    d = math.lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


def _partial(part: dict, k: int, axis: int) -> dict:
    """The k-th derivative along ``axis`` of multi-index -> coefficient terms."""
    return {alpha[:axis] + (alpha[axis] - k,) + alpha[axis + 1:]: math.perm(alpha[axis], k) * c
            for alpha, c in part.items() if alpha[axis] >= k}


def _scaled(part: dict, factor: int) -> dict:
    return {a: factor * c for a, c in part.items()}


def _l1(p: MultiPoly) -> int:
    """The sum of |numerator| over both parts: a bound on every coefficient."""
    return sum(map(abs, p._re.values())) + sum(map(abs, p._im.values()))


def _degrees(p: MultiPoly) -> list:
    """The degree of a nonzero exact p in each variable."""
    return [max(col) for col in zip(*p._re, *p._im)]


def _packing_pays(slots: int, width: int, products: int, pairs: int) -> bool:
    """Whether a product is cheaper as ``products`` big-integer products of
    ``slots`` slots of ``width`` bytes than as ``pairs`` products of two
    terms.  The cost model, in microseconds, is fitted to both on CPython
    3.11, whose big-integer product is Karatsuba's: 30 + 1 a slot per part
    unpacked + 1.2e-4 * bytes**1.585 per big-integer product, against 1.1 a
    product of two terms."""
    cost = 30 + min(products, 2) * slots + products * 1.2e-4 * (slots * width) ** 1.585
    return cost <= 1.1 * pairs


def _pack(part: dict, sizes: list, width: int) -> int:
    """The Kronecker substitution of the integer terms c*x^alpha of part: the
    sum of c * 256^(width*k), k the slot of alpha in a box of these sizes
    (the last variable fastest)."""
    if not part:
        return 0
    strides = [1]
    for n in reversed(sizes[1:]):
        strides.insert(0, strides[0] * n)
    pos, neg = bytearray(math.prod(sizes) * width), bytearray(math.prod(sizes) * width)
    for alpha, c in part.items():
        k = sum(map(mul, alpha, strides)) * width
        if c > 0:
            pos[k : k + width] = c.to_bytes(width, "little")
        else:
            neg[k : k + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(x: int, sizes: list, width: int) -> dict:
    """The terms of a packed integer whose slot values are below
    256^width / 2 in magnitude: shifted by that half, each slot is its bytes."""
    if not x:
        return {}
    nslots = math.prod(sizes)
    half = 1 << (8 * width - 1)
    zero = half.to_bytes(width, "little")
    buf = (x + int.from_bytes(zero * nslots, "little")).to_bytes(nslots * width, "little")
    slots = (buf[k : k + width] for k in range(0, len(buf), width))
    return {alpha: int.from_bytes(slot, "little") - half
            for alpha, slot in zip(product(*map(range, sizes)), slots) if slot != zero}


def _gauss_pow(x: int, y: int, s: int) -> tuple:
    """(x + i*y)**s as a pair of integers."""
    if not y:
        return x ** s, 0
    rx, ry = 1, 0
    while s:
        if s & 1:
            rx, ry = rx * x - ry * y, rx * y + ry * x
        s >>= 1
        if s:
            x, y = (x - y) * (x + y), 2 * x * y
    return rx, ry


def _exact_product(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """p*q on integer numerators: packed big-integer products, or products of
    term pairs where packing does not pay."""
    if p.is_zero or q.is_zero:
        return MultiPoly.zero(p.nvars)
    sizes = [a + b + 1 for a, b in zip(_degrees(p), _degrees(q))]
    # every coefficient of the product is at most l1(p) * l1(q) in magnitude
    width = (_l1(p).bit_length() + _l1(q).bit_length()) // 8 + 1
    products = (bool(p._re) + bool(p._im)) * (bool(q._re) + bool(q._im))
    pairs = (len(p._re) + len(p._im)) * (len(q._re) + len(q._im))
    if _packing_pays(math.prod(sizes), width, products, pairs):
        a, b = _pack(p._re, sizes, width), _pack(p._im, sizes, width)
        c, d = _pack(q._re, sizes, width), _pack(q._im, sizes, width)
        re, im = _unpack(a * c - b * d, sizes, width), _unpack(a * d + b * c, sizes, width)
    else:
        re, im = {}, {}
        for x, y, out, sign in ((p._re, q._re, re, 1), (p._im, q._im, re, -1),
                                (p._re, q._im, im, 1), (p._im, q._re, im, 1)):
            for a, ca in x.items():
                for b, cb in y.items():
                    key = tuple(map(add, a, b))
                    out[key] = out.get(key, 0) + sign * ca * cb
    return _exact(p._den * q._den, re, im, p.nvars)


class UniPoly(MultiPoly):
    """A one-variable MultiPoly from dense coefficients, ``coeffs[j]`` that of
    x^j: a float or complex ndarray is a float polynomial's array as it is.
    Like arithmetic results it skips the construction degree cap."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable):
        if isinstance(coeffs, np.ndarray) and coeffs.ndim == 1 and coeffs.dtype.kind in "fc":
            _check_box(coeffs.shape)
            _float(np.array(coeffs, dtype=complex if coeffs.dtype.kind == "c" else float), 1, self)
        else:
            super().__init__({(j,): c for j, c in enumerate(coeffs)}, 1, _unchecked=True)

    @staticmethod
    def monomial(n: int, coeff=1) -> MultiPoly:
        return _from_terms({(n,): coeff}, 1)


# ---------------------------------------------------------------------------
# Constant-coefficient differential operators


def _unit(j: int, k: int, nvars: int) -> tuple:
    """The multi-index of D_j^k in nvars variables."""
    return tuple(k if i == j else 0 for i in range(nvars))


def image_arrays(images, partial) -> list:
    """The coefficient arrays of sum c*D^alpha over each image's (c, alpha)
    pairs, partial(alpha) the array of D^alpha: x*c only where c != 1 (an
    exact c rounded once), the terms summed in image order by ``padded_sum``."""

    def term(c, alpha):
        return partial(alpha) if c == 1 else partial(alpha) * (_inexact(c) if is_exact(c) else c)

    return [reduce(padded_sum, (term(c, alpha) for c, alpha in image)) for image in images]


def chebyshev_partials(C: np.ndarray):
    """alpha -> the array of D^alpha of each Chebyshev series of the stack
    along C's last axis: from the partial one step before it by one
    ``chebder_columns`` (axis 0 first, as ``partial_multi`` takes them),
    each computed once."""
    partials = {(0,) * (C.ndim - 1): C}

    def partial(alpha):
        if alpha not in partials:
            axis = max(i for i, k in enumerate(alpha) if k)
            prev = partial(alpha[:axis] + (alpha[axis] - 1,) + alpha[axis + 1 :])
            partials[alpha] = chebder_columns(prev, axis)
        return partials[alpha]

    return partial


def chebder_columns(X: np.ndarray, axis: int) -> np.ndarray:
    """d/dx along ``axis`` of each Chebyshev series of the stack along X's
    last axis, bitwise its own (``chebder`` steps row by row): one ``chebder``
    over the stack, or one per series below ``_STACK_COLUMNS``; 0 for a stack
    constant along the axis, as ``ChebSeries.deriv`` gives (not NaN for inf)."""
    if X.shape[axis] <= 1:
        return np.zeros_like(X[(slice(None),) * axis + (slice(1),)])
    if X.shape[-1] >= _STACK_COLUMNS:
        return nch.chebder(X, 1, axis=axis)
    return np.stack([nch.chebder(X[..., j], 1, axis=axis) for j in range(X.shape[-1])], -1)


def _exact_image(p: MultiPoly, image) -> MultiPoly:
    """sum c*D^alpha p over the image's (c, alpha) pairs, for an exact p and
    exact c: the numerators of each D^alpha p times those of c, summed over
    the common denominator of the c, and one reduction at the end."""
    splits = [_split(c) for c, _ in image]
    lcm = math.lcm(*(d for _, _, d in splits))
    re: dict = {}
    im: dict = {}
    for (_, alpha), (x, y, d) in zip(image, splits):
        x, y = x * (lcm // d), y * (lcm // d)
        d_re, d_im = p._re, p._im
        for axis, k in enumerate(alpha):
            if k:
                d_re, d_im = _partial(d_re, k, axis), _partial(d_im, k, axis)
        # (x + iy)(a + ib) = (xa - yb) + i(xb + ya)
        for out, part, factor in ((re, d_re, x), (re, d_im, -y), (im, d_im, x), (im, d_re, y)):
            if factor:
                for key, c in part.items():
                    out[key] = out.get(key, 0) + factor * c
    return _exact(p._den * lcm, re, im, p.nvars)


class _Operator:
    """A constant-coefficient operator given by ``images(nvars)``: one or more
    sums c*D^alpha, each a tuple of (c, alpha) pairs, for polynomials in
    ``nvars`` variables.  A dimension mismatch raises ValueError there."""

    def apply_all(self, p) -> list:
        """The images of p: on its numerators when p and every c are exact
        (``_exact_image``), else on coefficient arrays (``image_arrays``): a
        float ``MultiPoly``'s by ``_partial_coef``, an exact one's partials
        taken exactly and rounded once, a ``ChebSeries``' by
        ``chebyshev_partials``."""
        images = self.images(p.nvars)
        if p.is_exact and all(is_exact(c) for image in images for c, _ in image):
            return [_exact_image(p, image) for image in images]
        if not isinstance(p, MultiPoly):
            return [type(p)(x[..., 0]) for x in image_arrays(images, chebyshev_partials(p.coef[..., None]))]
        partial = (lambda alpha: _float_coef(p.partial_multi(alpha))) if p.is_exact else (
            lambda alpha: _partial_coef(p._coef, alpha))
        return [_float(x, p.nvars) for x in image_arrays(images, partial)]

    def power(self, k: int, nvars: int) -> "_Operator":
        """This operator applied k >= 1 times, for one with one image in
        ``nvars`` variables: the ``HomOp`` whose symbol is the k-th power of
        the image's symbol sum c*x^alpha, one ``MultiPoly`` power (on integer
        numerators when every c is exact), since partial derivatives with
        constant coefficients commute.  The first power, and every power of
        the identity ``DerivOp(0)``, is the operator itself."""
        if k < 1:
            raise ValueError(f"operator power k must be >= 1, got {k}")
        images = self.images(nvars)
        if len(images) != 1:
            raise ValueError(
                f"{self.label} has {len(images)} images in {nvars} variables; "
                "only an operator with one image has powers"
            )
        if k == 1:
            return self
        symbol: dict = {}
        for c, alpha in images[0]:
            symbol[alpha] = symbol[alpha] + c if alpha in symbol else c
        symbol = _from_terms(symbol, nvars) ** k
        if symbol.degree == 0:
            return self
        return HomOp(tuple(symbol.terms.items()))

    def scaled_derivative(self) -> tuple:
        """(c, k) with this operator c*D^k in one variable, c exact where its
        coefficients are; DimensionMismatchError for one in more variables."""
        (image,) = self.images(1)
        return sum(c for c, _ in image), image[0][1][0]


@dataclass(frozen=True)
class DerivOp(_Operator):
    """d^k/dx^k in one variable; per-axis k-th partials in two."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("derivative order k must be >= 0")

    @property
    def label(self) -> str:
        return f"deriv:{self.k}"

    def images(self, nvars: int) -> list:
        return [((1, _unit(j, self.k, nvars)),) for j in range(nvars)]


@dataclass(frozen=True)
class DirOp(_Operator):
    """The directional derivative v1*D1 + ... + vN*DN, for a nonzero v."""

    v: tuple

    def __post_init__(self):
        v = tuple(self.v)
        if not any(v):
            raise ValueError("direction vector must be nonzero")
        if not all(is_exact(c) or cmath.isfinite(c) for c in v):  # exact ones are finite
            raise ValueError(f"direction v has a component that is not finite: {v}")
        object.__setattr__(self, "v", v)

    @property
    def label(self) -> str:
        # a component past 1e300 is written as it is: complex() overflows on an exact one past 1.8e308
        parts = (complex(c) if abs(c.real) + abs(c.imag) < 1e300 else c for c in self.v)
        return "dirop:" + ",".join(repr(z) if z.imag else repr(z.real) for z in parts)

    def images(self, nvars: int) -> list:
        if len(self.v) != nvars:
            raise DimensionMismatchError(
                f"direction has {len(self.v)} components, polynomial has {nvars} variables"
            )
        return [tuple((c, _unit(j, 1, nvars)) for j, c in enumerate(self.v))]


@dataclass(frozen=True)
class HomOp(_Operator):
    """H(D1, ..., DN) for a homogeneous H given as exponent/coefficient terms.

    With H = x1^2 + ... + xN^2 this is the Laplacian.
    """

    terms: tuple  # ((alpha tuple, coeff), ...)

    def __post_init__(self):
        degs = {sum(alpha) for alpha, _ in self.terms}
        if len(degs) != 1 or degs == {0}:
            raise ValueError("operator terms must be homogeneous of degree >= 1")
        if not any(c for _, c in self.terms):
            raise ValueError("operator terms must not all be zero")
        if not all(is_exact(c) or cmath.isfinite(c) for _, c in self.terms):
            raise ValueError(f"operator H has a component that is not finite: {self.terms}")

    @property
    def order(self) -> int:
        return sum(self.terms[0][0])

    @property
    def label(self) -> str:
        body = "+".join(f"{c}*D^{list(a)}" for a, c in self.terms)
        return f"hop:{body}"

    def images(self, nvars: int) -> list:
        if any(len(alpha) != nvars for alpha, _ in self.terms):
            raise DimensionMismatchError(
                f"operator terms are not all in {nvars} variable(s): {self.label}"
            )
        return [tuple((c, tuple(alpha)) for alpha, c in self.terms)]


def power_identity_residual(f: MultiPoly, d: _Operator, k: int) -> float:
    """Relative residual of the binomial identity linking (Df)^k to powers of f.

    Checks (Df)^k = (1/k!) * sum_{j=0..k} (-1)^j C(k,j) f^j D^k(f^(k-j)) for
    an operator D with one image in f's variables (a ``DirOp``, ``HomOp`` or
    one-variable ``DerivOp``), returning the largest coefficient magnitude of
    the difference relative to the larger side's.  f^0, ..., f^k are computed
    once each and serve as both f^j and f^(k-j), and D^k is one operator,
    ``d.power(k, f.nvars)``, applied once to each power.  Exact inputs yield
    exactly 0.0 (``_relative_residual``).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # float coefficients past the double range are inf (or NaN), unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        dk = d.power(k, f.nvars)
        (df,) = d.apply_all(f)
        lhs = df ** k
        powers = [f ** j for j in range(k + 1)]
        acc = MultiPoly.zero(f.nvars)
        for j in range(k + 1):
            (image,) = dk.apply_all(powers[k - j])
            term = powers[j] * image
            coeff = (-1) ** j * math.comb(k, j)
            acc = acc + coeff * term
        return _relative_residual(lhs, acc, k)


def _relative_residual(lhs: MultiPoly, acc: MultiPoly, k: int) -> float:
    """The largest coefficient magnitude of lhs - rhs, rhs = acc/k!, relative
    to the larger side's: exactly 0.0 for an exact zero difference, and for
    a nonzero exact one the exact ratio rounded once (``_exact_relative``),
    so coefficients past the double range do not overflow."""
    if acc.is_exact and lhs.is_exact:
        rhs = Fraction(1, math.factorial(k)) * acc
    else:
        rhs = (1.0 / math.factorial(k)) * acc
    diff = lhs - rhs
    if diff.is_zero:
        return 0.0
    if diff.is_exact:
        return _exact_relative(diff, lhs, rhs)
    scale = max(lhs.max_coeff_magnitude(), rhs.max_coeff_magnitude())
    if scale == 0.0:
        return diff.max_coeff_magnitude()
    return diff.max_coeff_magnitude() / scale


def _max_abs_squared(p: MultiPoly) -> Fraction:
    """The largest |c|^2 over the coefficients c of an exact p."""
    re, im = p._re, p._im
    top = max((re.get(a, 0) ** 2 + im.get(a, 0) ** 2 for a in {**re, **im}), default=0)
    return Fraction(top, p._den ** 2)


def _sqrt_float(q: Fraction) -> float:
    """sqrt(q) for an exact q >= 0 on integers (65 bits or more, the last one
    sticky), rounded to a float once; inf past the double range."""
    num, den = q.numerator, q.denominator
    shift = max(0, (130 - num.bit_length() + den.bit_length()) // 2)
    root = math.isqrt((num << 2 * shift) // den)
    root |= root * root * den != num << 2 * shift
    try:
        return float(Fraction(root, 1 << shift))
    except OverflowError:
        return math.inf


def _exact_relative(diff: MultiPoly, lhs: MultiPoly, rhs: MultiPoly) -> float:
    """max|coefficient of diff| / max|coefficient of lhs or rhs| for exact
    polynomials, diff nonzero, from the exact squares; at most 2 for lhs - rhs."""
    return _sqrt_float(_max_abs_squared(diff) / max(_max_abs_squared(lhs), _max_abs_squared(rhs)))
