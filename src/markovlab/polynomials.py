"""The power-basis polynomial type ``MultiPoly`` and differential operators.

``MultiPoly`` holds sparse power-basis coefficients in 1 to 4 variables;
``UniPoly`` only builds one-variable ones from dense coefficients.
Coefficients may come from either backend in :mod:`markovlab.scalars`; every
arithmetic operation preserves the backend of its inputs (no silent float
coercion; evaluation at float points is in floats).
The zero polynomial carries the degree sentinel ``-inf`` so that degree
formulas like ``deg(p*q) = deg p + deg q`` and ``max(deg p - k, -inf)`` hold
without special-casing -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, PrecisionOverflowError
from .scalars import is_exact, magnitude, power_by_squaring

NEG_INF = float("-inf")

#: Construction-time caps for dense multivariate sweeps.  Arithmetic results
#: (products, powers) and ``UniPoly`` are allowed to exceed the degree cap;
#: only direct ``MultiPoly`` construction from user input is gated.
NVARS_MAX = 4
TOTAL_DEGREE_MAX = 32

_COEFF_OVERFLOW = 1e300


class MultiPoly:
    """Power-basis polynomial in 1 to ``NVARS_MAX`` variables, exact or float.

    ``terms`` maps each multi-index with a nonzero coefficient to that
    coefficient.  The interface is ``ChebSeries``': ``degree`` (total, -inf
    for zero), ``p(*x)``, ``deriv(k, axis)``, ``partial_multi`` and
    ``+ - * **``.
    """

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
            if c:
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

    @staticmethod
    def _raw(terms: dict, nvars: int) -> "MultiPoly":
        return MultiPoly(terms, nvars, _unchecked=True)

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls._raw({}, nvars)

    @classmethod
    def constant(cls, c, nvars: int) -> "MultiPoly":
        return cls._raw({(0,) * nvars: c}, nvars)

    @property
    def degree(self):
        """The total degree; -inf for the zero polynomial."""
        return max((sum(a) for a in self.terms), default=NEG_INF)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.terms.values())

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
        out = {}
        for alpha, c in self.terms.items():
            a = alpha[axis]
            if a >= k:
                out[alpha[:axis] + (a - k,) + alpha[axis + 1 :]] = math.perm(a, k) * c
        return MultiPoly._raw(out, self.nvars)

    def partial_multi(self, alpha: Sequence[int]) -> "MultiPoly":
        """D^alpha p for a multi-index with one entry per variable; p itself when 0."""
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
        """p**s by repeated squaring; float coefficients past 1e300 raise."""
        out = power_by_squaring(MultiPoly.constant(1, self.nvars), self, s)
        if not out.is_exact and out.max_coeff_magnitude() > _COEFF_OVERFLOW:
            raise PrecisionOverflowError(
                "coefficient magnitude overflow in a power; use exact coefficients"
            )
        return out

    def max_coeff_magnitude(self) -> float:
        return max((magnitude(c) for c in self.terms.values()), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        return f"MultiPoly({self.terms!r}, nvars={self.nvars})"


def _inexact(c):
    """c as a float, or as a complex where its imaginary part is nonzero."""
    z = complex(c)
    return z if z.imag else z.real


class UniPoly(MultiPoly):
    """A one-variable MultiPoly from dense coefficients, ``coeffs[j]`` that of
    x^j.  Like arithmetic results it skips the construction degree cap."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable):
        super().__init__({(j,): c for j, c in enumerate(coeffs)}, 1, _unchecked=True)

    @staticmethod
    def monomial(n: int, coeff=1) -> MultiPoly:
        return MultiPoly._raw({(n,): coeff}, 1)


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
        if not any(v):
            raise ValueError("direction vector must be nonzero")
        object.__setattr__(self, "v", v)

    @property
    def label(self) -> str:
        parts = (complex(c) for c in self.v)
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

