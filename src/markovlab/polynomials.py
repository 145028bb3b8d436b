"""Univariate and multivariate polynomial arithmetic and differential operators.

Coefficients may come from either backend in :mod:`markovlab.scalars`; every
operation preserves the backend of its inputs (no silent float coercion).
The zero polynomial carries the degree sentinel ``-inf`` so that degree
formulas like ``deg(p*q) = deg p + deg q`` and ``max(deg p - k, -inf)`` hold
without special-casing -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, PrecisionOverflowError
from .scalars import RationalComplex, is_exact, magnitude, power_by_squaring

NEG_INF = float("-inf")

#: Construction-time caps for dense multivariate sweeps.  Arithmetic results
#: (products, powers) are allowed to exceed the degree cap; only direct
#: construction from user input is gated.
NVARS_MAX = 4
TOTAL_DEGREE_MAX = 32

_COEFF_OVERFLOW = 1e300


def _is_zero_coeff(c) -> bool:
    if isinstance(c, RationalComplex):
        return not c
    return c == 0


class UniPoly:
    """Dense univariate polynomial; ``coeffs[j]`` is the coefficient of x^j."""

    __slots__ = ("coeffs",)
    nvars = 1

    def __init__(self, coeffs: Iterable):
        cs = list(coeffs)
        while cs and _is_zero_coeff(cs[-1]):
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def monomial(cls, n: int, coeff=1) -> "UniPoly":
        return cls((0,) * n + (coeff,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.coeffs)

    def __call__(self, x):
        """Evaluate by nested multiplication (Horner); vectorized for arrays."""
        if isinstance(x, np.ndarray):
            if not self.coeffs:
                return np.zeros_like(x, dtype=float)
            if self._has_complex() or np.iscomplexobj(x):
                cs = [complex(c) for c in self.coeffs]
                acc = np.zeros_like(x, dtype=complex)
            else:
                cs = [float(c) for c in self.coeffs]
                acc = np.zeros_like(x, dtype=float)
            for c in reversed(cs):
                acc = acc * x + c
            return acc
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def _has_complex(self) -> bool:
        return any(isinstance(c, (complex, RationalComplex)) for c in self.coeffs)

    def deriv(self, k: int = 1) -> "UniPoly":
        if k < 0:
            raise ValueError("derivative order must be nonnegative")
        cs = self.coeffs
        for _ in range(k):
            if len(cs) <= 1:
                return UniPoly.zero()
            cs = tuple(j * cs[j] for j in range(1, len(cs)))
        return UniPoly(cs)

    def partial_multi(self, alpha: Sequence[int]) -> "UniPoly":
        """D^alpha p for a one-entry multi-index alpha = (k,); p itself when k = 0."""
        (k,) = alpha
        return self.deriv(k) if k else self

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return UniPoly(out)

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            if self.is_zero or other.is_zero:
                return UniPoly.zero()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if _is_zero_coeff(a):
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return UniPoly(out)
        return UniPoly(tuple(other * c for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, s: int) -> "UniPoly":
        return power(self, s)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"


def power(p: UniPoly, s: int) -> UniPoly:
    """p**s by repeated squaring; guards against float coefficient overflow."""
    out = power_by_squaring(UniPoly((1,)), p, s)
    if not out.is_exact:
        if any(magnitude(c) > _COEFF_OVERFLOW for c in out.coeffs):
            raise PrecisionOverflowError(
                "coefficient magnitude overflow in power(); use exact or log mode"
            )
    return out


class MultiPoly:
    """Sparse multivariate polynomial: multi-index -> coefficient."""

    __slots__ = ("terms", "nvars")

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
            if not _is_zero_coeff(c):
                clean[alpha] = c
        if not _unchecked:
            deg = max((sum(a) for a in clean), default=0)
            if deg > TOTAL_DEGREE_MAX:
                raise ValueError(
                    f"total degree {deg} exceeds construction cap {TOTAL_DEGREE_MAX}"
                )
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "nvars", nvars)

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _raw(cls, terms: dict, nvars: int) -> "MultiPoly":
        return cls(terms, nvars, _unchecked=True)

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls._raw({}, nvars)

    @classmethod
    def constant(cls, c, nvars: int) -> "MultiPoly":
        return cls._raw({(0,) * nvars: c}, nvars)

    @classmethod
    def variable(cls, j: int, nvars: int) -> "MultiPoly":
        alpha = tuple(1 if i == j else 0 for i in range(nvars))
        return cls._raw({alpha: 1}, nvars)

    @property
    def total_degree(self):
        return max((sum(a) for a in self.terms), default=NEG_INF)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.terms.values())

    def __call__(self, point: Sequence):
        if len(point) != self.nvars:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, polynomial has {self.nvars}"
            )
        acc = 0
        for alpha, c in self.terms.items():
            term = c
            for xi, ai in zip(point, alpha):
                for _ in range(ai):
                    term = term * xi
            acc = acc + term
        return acc

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            raise DimensionMismatchError("mixed nvars in addition")
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            out[alpha] = out.get(alpha, 0) + c
        return MultiPoly._raw(out, self.nvars)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            if self.nvars != other.nvars:
                raise DimensionMismatchError("mixed nvars in product")
            out: dict = {}
            for a, ca in self.terms.items():
                for b, cb in other.terms.items():
                    key = tuple(x + y for x, y in zip(a, b))
                    out[key] = out.get(key, 0) + ca * cb
            return MultiPoly._raw(out, self.nvars)
        return MultiPoly._raw(
            {a: other * c for a, c in self.terms.items()}, self.nvars
        )

    __rmul__ = __mul__

    def __pow__(self, s: int) -> "MultiPoly":
        return power_by_squaring(MultiPoly.constant(1, self.nvars), self, s)

    def partial(self, j: int) -> "MultiPoly":
        if not 0 <= j < self.nvars:
            raise DimensionMismatchError(f"axis {j} out of range for nvars={self.nvars}")
        out = {}
        for alpha, c in self.terms.items():
            if alpha[j] == 0:
                continue
            beta = list(alpha)
            beta[j] -= 1
            out[tuple(beta)] = out.get(tuple(beta), 0) + alpha[j] * c
        return MultiPoly._raw(out, self.nvars)

    def partial_multi(self, alpha: Sequence[int]) -> "MultiPoly":
        out = self
        for j, a in enumerate(alpha):
            for _ in range(a):
                out = out.partial(j)
        return out

    def max_coeff_magnitude(self) -> float:
        return max((magnitude(c) for c in self.terms.values()), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        return f"MultiPoly({self.terms!r}, nvars={self.nvars})"


# ---------------------------------------------------------------------------
# Constant-coefficient differential operators


def _unit(j: int, k: int, nvars: int) -> tuple:
    """The multi-index of D_j^k in nvars variables."""
    return tuple(k if i == j else 0 for i in range(nvars))


def _lincomb(pairs):
    """The sum of c*x over (c, x) pairs; x itself where c == 1."""
    acc = None
    for c, x in pairs:
        x = x if c == 1 else c * x
        acc = x if acc is None else acc + x
    return acc


class _Operator:
    """A constant-coefficient operator given by ``images(nvars)``: one or more
    sums c*D^alpha, each a tuple of (c, alpha) pairs, for polynomials in
    ``nvars`` variables.  A dimension mismatch raises ValueError there."""

    def apply_all(self, p) -> list:
        """The images of p, through the polynomial's ``partial_multi``."""
        return [_lincomb((c, p.partial_multi(alpha)) for c, alpha in image)
                for image in self.images(p.nvars)]


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
        if not v or all(_is_zero_coeff(c) for c in v):
            raise ValueError("direction vector must be nonzero")
        object.__setattr__(self, "v", v)

    @property
    def label(self) -> str:
        return "dirop:" + ",".join(repr(float(c)) for c in self.v)

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
        if all(_is_zero_coeff(c) for _, c in self.terms):
            raise ValueError("operator terms must not all be zero")

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


def power_identity_residual(f: MultiPoly, d: DirOp, k: int) -> float:
    """Relative residual of the binomial identity linking (Df)^k to powers of f.

    Checks (Df)^k = (1/k!) * sum_{j=0..k} (-1)^j C(k,j) f^j D^(k)(f^(k-j)),
    returning max coefficient magnitude of the difference relative to the
    larger side.  Exact inputs yield exactly 0.0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    (df,) = d.apply_all(f)
    lhs = df ** k
    acc = MultiPoly.zero(f.nvars)
    for j in range(k + 1):
        dk = f ** (k - j)
        for _ in range(k):
            (dk,) = d.apply_all(dk)
        term = (f ** j) * dk
        coeff = (-1) ** j * math.comb(k, j)
        acc = acc + coeff * term
    if acc.is_exact and lhs.is_exact:
        rhs = Fraction(1, math.factorial(k)) * acc
    else:
        rhs = (1.0 / math.factorial(k)) * acc
    diff = lhs - rhs
    scale = max(lhs.max_coeff_magnitude(), rhs.max_coeff_magnitude())
    if diff.is_zero:
        return 0.0
    if scale == 0.0:
        return diff.max_coeff_magnitude()
    return diff.max_coeff_magnitude() / scale


def multipoly_grid_values(f: MultiPoly, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Values of a 2-variable polynomial at paired points (float backend)."""
    if f.nvars != 2:
        raise DimensionMismatchError("grid evaluation requires nvars == 2")
    from numpy.polynomial import polynomial as npoly

    deg = int(f.total_degree) if not f.is_zero else 0
    c = np.zeros((deg + 1, deg + 1), dtype=complex)
    for (a, b), coeff in f.terms.items():
        c[a, b] = complex(coeff)
    vals = npoly.polyval2d(xs, ys, c)
    return vals if np.iscomplexobj(list(f.terms.values())) else vals.real
