"""Coefficient backends: double-precision complex and exact rational complex.

Float mode uses plain ``int | float | complex`` scalars.  Exact mode uses
``int | Fraction | RationalComplex``; all ring operations stay exact, which is
what the identity checks and the factorial-weighted golden values rely on.
An exact ``MultiPoly`` takes these values in and gives them back, but stores
and multiplies their parts as integers.
"""

from __future__ import annotations

from fractions import Fraction


# operands that make a float result, as Fraction's do: RationalComplex
# arithmetic with them is Python complex arithmetic on complex(self) (sums
# and products of complex numbers commute bitwise, so __radd__ and __rmul__
# are __add__ and __mul__)
_INEXACT = (float, complex)


class RationalComplex:
    """A complex number with exact rational real and imaginary parts.

    ``+``, ``-`` and ``*`` with a float or complex operand give a Python
    complex, as ``Fraction`` gives a float."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *_):
        raise AttributeError("RationalComplex is immutable")

    # the numbers-protocol names, as int and Fraction have them
    real = property(lambda self: self.re)
    imag = property(lambda self: self.im)

    @staticmethod
    def _coerce(x) -> "RationalComplex | None":
        if isinstance(x, RationalComplex):
            return x
        if isinstance(x, (int, Fraction)):
            return RationalComplex(x, 0)
        return None

    def __add__(self, other):
        if isinstance(other, _INEXACT):
            return complex(self) + other
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _INEXACT):
            return complex(self) - other
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        if isinstance(other, _INEXACT):
            return other - complex(self)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, _INEXACT):
            return complex(self) * other
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalComplex(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return power_by_squaring(RationalComplex(1, 0), self, n)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"RationalComplex({self.re!r}, {self.im!r})"


def power_by_squaring(one, base, n: int):
    """base**n as the product of base**(2^i) over the set bits i of n, from
    the lowest, squaring base only while higher bits remain; ``one`` for
    n = 0 (it is never multiplied)."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


EXACT_TYPES = (int, Fraction, RationalComplex)


def is_exact(x) -> bool:
    return isinstance(x, EXACT_TYPES)

