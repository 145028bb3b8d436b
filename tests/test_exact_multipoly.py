"""Exact MultiPoly arithmetic against references built here from Fractions."""

import math
import random
from fractions import Fraction

import pytest

import markovlab.polynomials as polynomials
from markovlab import DerivOp, DirOp, HomOp, MultiPoly, RationalComplex, power_identity_residual


def _pairs(p):
    """p's terms as multi-index -> (Fraction re, Fraction im)."""
    return {a: (Fraction(c.real), Fraction(c.imag)) for a, c in p.terms.items()}


def _poly(pairs, nvars):
    return MultiPoly({a: RationalComplex(x, y) if y else x for a, (x, y) in pairs.items()},
                     nvars, _unchecked=True)


def _schoolbook(p, q):
    """The product of two term dicts of (re, im) Fraction pairs, term by term."""
    out = {}
    for a, (pr, pi) in p.items():
        for b, (qr, qi) in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            r, i = out.get(key, (0, 0))
            out[key] = (r + pr * qr - pi * qi, i + pr * qi + pi * qr)
    return {k: v for k, v in out.items() if v != (0, 0)}


def _random_pairs(rng, nvars, deg, complex_share, top):
    """Up to 12 terms of total degree <= deg, coefficients +-1 to +-top over
    small denominators, complex with probability complex_share."""
    out = {}
    for _ in range(rng.randint(1, 12)):
        alpha = [0] * nvars
        for _ in range(rng.randint(0, deg)):
            alpha[rng.randrange(nvars)] += 1

        def part():
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, top), rng.randint(1, 12))

        out[tuple(alpha)] = (part(), part() if rng.random() < complex_share else Fraction(0))
    return out


# each case by the cost model's choice, always packed, and never packed; a
# forced packing of a 4-variable degree-24 box would take seconds a product
CASES = [(path, nvars, deg, share, top)
         for path in ("model", "packed", "term pairs")
         for nvars, deg in ((1, 12), (2, 12), (3, 8), (4, 6), (4, 12))
         for share in (0.0, 0.5)
         for top in (1, 10**40)
         if not (path == "packed" and nvars == 4 and deg > 6)]


def _force(monkeypatch, path):
    if path != "model":
        monkeypatch.setattr(polynomials, "_packing_pays", lambda *_: path == "packed")


@pytest.mark.parametrize("path,nvars,deg,share,top", CASES)
def test_products_match_schoolbook(monkeypatch, path, nvars, deg, share, top):
    _force(monkeypatch, path)
    rng = random.Random(f"{nvars}-{deg}-{share}-{top}")
    for _ in range(4):
        a = _random_pairs(rng, nvars, deg, share, top)
        b = _random_pairs(rng, nvars, deg, share, top)
        p, q = _poly(a, nvars), _poly(b, nvars)
        assert _pairs(p * q) == _schoolbook(a, b)
        assert p * q == q * p == _poly(_schoolbook(a, b), nvars)
        # cancellation down to zero: p*q - q*p, and p*q + (-p)*q
        assert (p * q - q * p).is_zero
        assert (p * q + ((-1) * p) * q) == MultiPoly.zero(nvars)


@pytest.mark.parametrize("path,nvars,deg,share,top", CASES)
def test_powers_match_schoolbook(monkeypatch, path, nvars, deg, share, top):
    _force(monkeypatch, path)
    rng = random.Random(f"pow-{nvars}-{deg}-{share}-{top}")
    a = _random_pairs(rng, nvars, deg, share, top)
    p = _poly(a, nvars)
    want = {(0,) * nvars: (Fraction(1), Fraction(0))}
    for s in range(5):
        assert _pairs(p ** s) == want
        want = _schoolbook(want, a)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_products_cancel_to_exact_zero_terms(nvars):
    # (x0 - x1)(x0 + x1) and (1 + i x0)(1 - i x0): inner terms cancel exactly
    x = [MultiPoly({tuple(int(i == j) for j in range(nvars)): 1}, nvars) for i in range(nvars)]
    last = x[-1]
    diff = (x[0] - last) * (x[0] + last)
    assert diff == x[0] ** 2 - last ** 2
    assert len(diff.terms) == (0 if nvars == 1 else 2)
    one = MultiPoly.constant(1, nvars)
    i = RationalComplex(0, 1)
    real = (one + x[0] * i) * (one - x[0] * i)
    assert real.terms == {(0,) * nvars: 1, (2,) + (0,) * (nvars - 1): 1}
    assert all(type(c) is Fraction for c in real.terms.values())


def test_results_are_in_lowest_terms():
    x = MultiPoly({(1,): Fraction(1, 2)}, 1)
    y = MultiPoly({(1,): Fraction(2, 3)}, 1)
    assert (x * y).terms == {(2,): Fraction(1, 3)}
    assert MultiPoly({(2,): Fraction(1, 2)}, 1).deriv(1).terms == {(1,): 1}
    assert (x + x).terms == {(1,): 1}
    assert (Fraction(6) * x ** 3).terms == {(3,): Fraction(3, 4)}


def _image_reference(pairs, image):
    """sum c*D^alpha p over (c, alpha) pairs, term by term on Fraction pairs."""
    out = {}
    for c, alpha in image:
        cr, ci = Fraction(c.real), Fraction(c.imag)
        for a, (pr, pi) in pairs.items():
            f = math.prod(math.perm(n, k) for n, k in zip(a, alpha))
            if f:
                key = tuple(n - k for n, k in zip(a, alpha))
                r, i = out.get(key, (0, 0))
                out[key] = (r + f * (cr * pr - ci * pi), i + f * (cr * pi + ci * pr))
    return {k: v for k, v in out.items() if v != (0, 0)}


def _operators(nvars):
    unit = [tuple(2 * (i == j) for j in range(nvars)) for i in range(nvars)]
    mixed = tuple(int(i < 2) for i in range(nvars))
    return [
        DirOp(tuple(RationalComplex(Fraction(j + 1, 2), Fraction(1 - 2 * j, 3)) for j in range(nvars))),
        DirOp(tuple(Fraction(3, j + 2) if j % 2 else -j - 1 for j in range(nvars))),
        HomOp(tuple((alpha, 1) for alpha in unit)),  # the Laplacian
        HomOp(((unit[0], RationalComplex(Fraction(1, 7), Fraction(-2, 5))),) + ((mixed, 3),) * (nvars > 1)),
        DerivOp(2),
    ]


@pytest.mark.parametrize("share", [0.0, 0.5], ids=["real", "complex"])
@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_exact_operator_images_match_term_reference(nvars, share):
    rng = random.Random(f"image-{nvars}-{share}")
    for op in _operators(nvars):
        for _ in range(3):
            a = _random_pairs(rng, nvars, 8, share, 10**20)
            p = _poly(a, nvars)
            got = op.apply_all(p)
            want = [_poly(_image_reference(a, image), nvars) for image in op.images(nvars)]
            assert got == want
            # the same images, and in lowest terms, as the sums of partials
            assert got == [sum((p.partial_multi(alpha) * c for c, alpha in image), MultiPoly.zero(nvars))
                           for image in op.images(nvars)]
            assert all(q.is_exact for q in got)


def test_exact_poly_with_float_direction_gives_float_images():
    p = MultiPoly({(2, 1): Fraction(1, 3), (0, 1): 2}, 2)
    (image,) = DirOp((0.5, 1)).apply_all(p)
    assert not image.is_exact
    assert {a: complex(c) for a, c in image.terms.items()} == {(1, 1): 1 / 3, (2, 0): 1 / 3, (0, 0): 2}


def _exact_identity_inputs(seed, nvars=2, deg=4):
    rng = random.Random(seed)
    terms = {}
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            if rng.random() < 0.6:
                terms[(a, b)[:nvars]] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    terms[(deg, 0)[:nvars]] = Fraction(1)
    v = tuple(RationalComplex(Fraction(rng.randint(1, 5), 2), Fraction(rng.randint(-5, 5), 3))
              for _ in range(nvars))
    return MultiPoly(terms, nvars), DirOp(v)


class _Perturbed:
    """A directional derivative whose first image (Df on the left-hand side)
    gains eps * x0^0, a deliberately broken identity."""

    def __init__(self, d, eps):
        self.d, self.eps, self.calls = d, eps, 0

    def apply_all(self, p):
        (image,) = self.d.apply_all(p)
        self.calls += 1
        if self.calls == 1:
            image = image + MultiPoly.constant(self.eps, p.nvars)
        return [image]

    def power(self, k, nvars):
        # D^k on the right-hand side is the unperturbed operator's
        return self.d.power(k, nvars)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_perturbed_exact_identity_is_nonzero(k):
    f, d = _exact_identity_inputs(7)
    assert power_identity_residual(f, d, k) == 0.0
    assert power_identity_residual(f, _Perturbed(d, Fraction(1, 10**30)), k) > 0.0
    # a second-order operator is no derivation, so the identity fails for it
    assert power_identity_residual(f, HomOp((((1, 1), Fraction(1)),)), k) > 0.0


def test_exact_residual_past_the_double_range():
    # 10^200 x: both sides have coefficients with no double, and the exact
    # zero residual takes no float magnitude
    f = MultiPoly({(1,): Fraction(10**200)}, 1)
    assert power_identity_residual(f, DirOp((Fraction(1),)), 2) == 0.0
    # 10^200 x^2 with Df + 1 on the left: the difference is 4e200 x + 1
    # against 4e400 x^2, a ratio of exactly 1e-200, rounded once
    f = MultiPoly({(2,): Fraction(10**200)}, 1)
    residual = power_identity_residual(f, _Perturbed(DirOp((Fraction(1),)), Fraction(1)), 2)
    assert 0.0 < residual < math.inf
    assert residual == float(Fraction(1, 10**200))


@pytest.mark.parametrize("c, want", [
    (Fraction(10**400), math.inf),
    (RationalComplex(Fraction(10**400), Fraction(1, 3)), math.inf),
    (RationalComplex(Fraction(3, 5), Fraction(-4, 5)), 1.0),
    (RationalComplex(1, 1), math.sqrt(2.0)),
    (Fraction(10**300, 7), 10**300 / 7),
    (Fraction(-1, 3), 1 / 3),
], ids=["real-past-range", "complex-past-range", "complex-3-4-5", "complex-sqrt2", "real-large",
                            "real"])
def test_exact_max_coeff_magnitude_is_rounded_once(c, want):
    # |c| from the exact |c|^2, rounded to a float once; inf past the double range
    p = MultiPoly({(1,): c, (0,): Fraction(1, 5)}, 1)
    assert p.max_coeff_magnitude() == want


def test_exact_identity_needs_no_rational_complex_arithmetic(monkeypatch):
    f, d = _exact_identity_inputs(11)

    def refuse(*_):
        raise AssertionError("RationalComplex arithmetic on the exact path")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(RationalComplex, name, refuse)
    assert power_identity_residual(f, d, 4) == 0.0


class TestExactFloatEquality:
    def test_equal_values_compare_equal(self):
        exact = MultiPoly({(1, 0): Fraction(1, 2), (0, 1): 3}, 2)
        assert exact == MultiPoly({(1, 0): 0.5, (0, 1): 3.0}, 2)
        assert MultiPoly({(1, 0): 0.5, (0, 1): 3.0}, 2) == exact
        assert exact != MultiPoly({(1, 0): 0.5 + 1e-12, (0, 1): 3.0}, 2)
        assert exact != MultiPoly({(1, 0): 0.5}, 2)
        assert exact != MultiPoly({(1,): Fraction(1, 2)}, 1)

    def test_exact_equality_is_by_value(self):
        assert MultiPoly({(2,): Fraction(2, 4), (0,): 2}, 1) == MultiPoly(
            {(2,): Fraction(1, 2), (0,): Fraction(4, 2)}, 1)
        assert MultiPoly({(1,): RationalComplex(3, 0)}, 1) == MultiPoly({(1,): 3}, 1)
        assert MultiPoly({(1,): RationalComplex(1, 1)}, 1) != MultiPoly({(1,): 1}, 1)

    def test_zero_coefficients_vanish(self):
        assert MultiPoly({(0,): Fraction(0), (1,): 0.0}, 1) == MultiPoly.zero(1)
        assert MultiPoly({(0,): Fraction(0)}, 1).terms == {}

    def test_terms_read_back(self):
        exact = MultiPoly({(3,): Fraction(-5, 7), (0,): 2, (1,): 0}, 1)
        assert exact.terms == {(3,): Fraction(-5, 7), (0,): 2}
        assert all(type(c) is Fraction for c in exact.terms.values())
        z = RationalComplex(Fraction(1, 2), Fraction(-1, 3))
        cplx = MultiPoly({(1, 1): z, (0, 2): Fraction(4)}, 2)
        assert cplx.terms == {(1, 1): z, (0, 2): RationalComplex(4, 0)}
        floats = {(2,): 0.25, (0,): -1.5 + 2j}
        assert MultiPoly(floats, 1).terms == floats

    def test_exact_meets_float(self):
        exact = MultiPoly({(1,): Fraction(1, 3)}, 1)
        flt = MultiPoly({(0,): 0.5}, 1)
        assert not (exact * flt).is_exact
        assert (exact * flt).terms == {(1,): Fraction(1, 3) * 0.5}
        # a float summand makes the whole sum float (1/3 rounded once)
        assert (exact + flt).terms == {(1,): 1 / 3, (0,): 0.5}
        assert type((exact + flt).terms[(1,)]) is float
        assert not (0.5 * exact).is_exact and (Fraction(1, 2) * exact).is_exact
