import math
from fractions import Fraction
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovlab import (
    DerivOp,
    DimensionMismatchError,
    DirOp,
    HomOp,
    MultiPoly,
    PrecisionOverflowError,
    RationalComplex,
    UniPoly,
    power_identity_residual,
    sup_norm,
)
from markovlab.chebseries import as_chebseries
from markovlab.polynomials import NEG_INF
from markovlab.scalars import power_by_squaring

from conftest import cheb_t_coeffs


def dir_derivative(f, d, k):
    # k-fold application of the directional derivative d
    for _ in range(k):
        (f,) = d.apply_all(f)
    return f


def term_by_term(coeffs, x):
    # independent oracle: plain power sums, no Horner
    return sum(c * x**j for j, c in enumerate(coeffs))


class TestUniPolyBasics:
    def test_eval_constant(self):
        assert UniPoly((1,))(5 + 2j) == 1

    def test_eval_identity(self):
        assert UniPoly((0, 1))(2 + 1j) == 2 + 1j

    def test_eval_chebyshev3(self):
        t3 = UniPoly(cheb_t_coeffs(3))
        assert t3(0.5) == pytest.approx(-1.0, abs=1e-15)
        assert t3(0.5) == pytest.approx(term_by_term(cheb_t_coeffs(3), 0.5))

    def test_zero_degree_sentinel(self):
        assert UniPoly(()).degree == NEG_INF
        assert UniPoly((0, 0, 0)).degree == NEG_INF
        assert UniPoly((0, 0, 3)).degree == 2

    def test_trailing_zero_trim(self):
        assert UniPoly((1, 2, 0, 0)).terms == {(0,): 1, (1,): 2}

    def test_vectorized_eval_matches_scalar(self):
        p = UniPoly((1.0, -2.0, 0.5, 3.0))
        xs = np.linspace(-1, 1, 7)
        vals = p(xs)
        for x, v in zip(xs, vals):
            assert v == pytest.approx(p(float(x)), rel=1e-15)


class TestDerivative:
    def test_power_rule(self):
        assert UniPoly((0, 0, 0, 1)).deriv(1) == UniPoly((0, 0, 3))

    def test_order_zero_is_identity(self):
        p = UniPoly((2, 3, 5))
        assert p.deriv(0) == p

    def test_chebyshev5_derivative_at_one(self):
        # T_n'(1) = n^2, with T_5 built by the recurrence oracle
        t5 = UniPoly(cheb_t_coeffs(5))
        assert t5.deriv(1)(1) == 25

    def test_degree_drop(self):
        p = UniPoly((1, 1, 1, 1))
        assert p.deriv(2).degree == 1
        assert p.deriv(4).degree == NEG_INF


class TestPower:
    def test_binomial_square(self):
        assert UniPoly((1, 1)) ** 2 == UniPoly((1, 2, 1))

    def test_zeroth_power(self):
        assert UniPoly((5, 7)) ** 0 == UniPoly((1,))
        assert UniPoly(()) ** 0 == UniPoly((1,))

    @pytest.mark.parametrize("s", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_float_power_stays_float(self, nvars, s):
        f = MultiPoly({(1,) * nvars: 0.5 + 1j, (0,) * nvars: -0.25}, nvars)
        p = f ** s
        assert not p.is_exact
        assert not any(isinstance(c, (int, Fraction, RationalComplex)) for c in p.terms.values())

    @pytest.mark.parametrize("s, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (6, 3), (7, 4)])
    def test_power_by_squaring_never_multiplies_the_one(self, s, products):
        # each squaring and each set bit past the lowest is one product
        count = []

        class Counted(int):
            def __mul__(self, other):
                count.append(1)
                return Counted(int(self) * int(other))

        one = object()
        out = power_by_squaring(one, Counted(3), s)
        assert (out is one) if s == 0 else out == 3 ** s
        assert len(count) == products

    def test_float_zeroth_power_is_float_one(self):
        p = MultiPoly({(1,): 0.5 + 1j}, 1) ** 0
        assert p.terms == {(0,): 1.0} and type(p.terms[(0,)]) is float

    @staticmethod
    def _float_only(p):
        return not p.is_exact and all(type(c) in (float, complex) for c in p.terms.values())

    def test_mixed_sum_is_float(self):
        # a float summand makes the sum float: no Fraction survives into it
        mixed = MultiPoly({(1,): Fraction(1, 3)}, 1) + MultiPoly({(0,): 0.5}, 1)
        assert mixed.terms == {(1,): 1 / 3, (0,): 0.5}
        assert self._float_only(mixed) and self._float_only(mixed * mixed)
        assert (mixed * mixed).terms[(2,)] == (1 / 3) ** 2
        flipped = MultiPoly({(0,): 0.5}, 1) + MultiPoly({(1,): RationalComplex(Fraction(1, 3), 2)}, 1)
        assert self._float_only(flipped) and flipped.terms[(1,)] == complex(1 / 3, 2)

    def test_float_operator_image_of_exact_p_is_float(self):
        p = MultiPoly({(2, 1): Fraction(1, 3), (0, 1): 2, (1, 0): Fraction(-5, 7)}, 2)
        (image,) = DirOp((0.5, 1)).apply_all(p)
        assert self._float_only(image)
        assert image.terms == {(1, 1): 1 / 3, (0, 0): 0.5 * Fraction(-5, 7) + 2.0, (2, 0): 1 / 3}

    def test_sup_of_chebyshev_square_is_one(self, unit_interval):
        # sup norm is spectral; dense-sampling oracle for sup of T_3^2
        t3 = UniPoly([float(c) for c in cheb_t_coeffs(3)])
        sq = t3 ** 2
        xs = np.linspace(-1, 1, 20001)
        oracle = np.max(np.abs(sq(xs)))
        val = sup_norm(sq, unit_interval)
        assert val == pytest.approx(1.0, abs=1e-10)
        assert val >= oracle - 1e-12

    def test_float_overflow_raises(self):
        with pytest.raises(PrecisionOverflowError):
            UniPoly((1e50, 1e50)) ** 8

    def test_float_overflow_to_nan_raises(self):
        # the middle coefficient of the square is 2ac + b^2 = -inf + inf
        with pytest.raises(PrecisionOverflowError):
            UniPoly((1e200, 1e200, -1e200)) ** 2

    def test_exact_never_overflows(self):
        p = UniPoly((Fraction(10) ** 50, Fraction(1))) ** 8
        assert p.terms[(0,)] == Fraction(10) ** 400


def _seeded_multipoly(seed, nvars, kind):
    # a random total degree <= 6 in nvars variables, Fraction or float-complex coefficients
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(1, 7))
    terms = {}
    for alpha in np.ndindex(*(deg + 1,) * nvars):
        if sum(alpha) <= deg and rng.random() < 0.6:
            if kind == "fraction":
                terms[alpha] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
            else:
                terms[alpha] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return MultiPoly(terms, nvars)


def _padded(*arrays):
    shape = np.max([a.shape for a in arrays], axis=0)
    out = []
    for a in arrays:
        b = np.zeros(shape, dtype=complex)
        b[tuple(map(slice, a.shape))] = a
        out.append(b)
    return out


@pytest.mark.parametrize("kind", ["fraction", "complex"])
@pytest.mark.parametrize("nvars", [1, 2])
def test_interface_matches_chebseries(nvars, kind):
    # MultiPoly answers ChebSeries' calls: degree, p(*x) and deriv(k, axis)
    rng = np.random.default_rng(2024)
    for seed in range(8):
        f = _seeded_multipoly([seed, nvars], nvars, kind)
        cf = as_chebseries(f)
        assert f.degree == cf.degree
        pts = rng.uniform(-1, 1, (nvars, 50))
        got, want = f(*pts), cf(*pts)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        for axis in range(nvars):
            for k in range(4):
                a, b = _padded(as_chebseries(f.deriv(k, axis)).coef, cf.deriv(k, axis).coef)
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(b), initial=0.0))


def _pairwise_product(p: dict, q: dict) -> dict:
    # the product of two multi-index -> coefficient dicts term pair by term
    # pair, as float polynomials multiplied before they were dense arrays
    out: dict = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(map(add, a, b))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _float_case(seed, nvars, cplx):
    # total degree <= 4 (3 in four variables) on a seeded support, x1^deg present
    rng = np.random.default_rng([seed, nvars, int(cplx)])
    deg = 4 if nvars < 4 else 3
    terms = {alpha: complex(*rng.uniform(-1, 1, 2)) if cplx else float(rng.uniform(-1, 1))
             for alpha in np.ndindex(*(deg + 1,) * nvars)
             if sum(alpha) <= deg and (alpha[0] == deg or rng.random() < 0.5)}
    return MultiPoly(terms, nvars)


def _assert_terms_close(got: MultiPoly, want: dict, scale: float):
    assert not got.is_exact
    assert all(type(c) in (float, complex) and c for c in got.terms.values())
    keys = {**got.terms, **want}
    assert max(abs(got.terms.get(a, 0) - want.get(a, 0)) for a in keys) <= 1e-14 * scale


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
class TestDenseFloat:
    """Float arithmetic on dense arrays against the pairwise dict loop."""

    def test_product_and_power(self, nvars, cplx):
        p, q = _float_case(1, nvars, cplx), _float_case(2, nvars, cplx)
        absolute = {a: abs(c) for a, c in p.terms.items()}
        scale = max(_pairwise_product(absolute, {a: abs(c) for a, c in q.terms.items()}).values())
        _assert_terms_close(p * q, _pairwise_product(p.terms, q.terms), scale)
        want, bound = p.terms, absolute
        for s in range(2, 5):
            want, bound = _pairwise_product(want, p.terms), _pairwise_product(bound, absolute)
            _assert_terms_close(p ** s, want, max(bound.values()))
            assert (p ** s).degree == s * p.degree

    def test_partials_sums_and_scalar_multiples(self, nvars, cplx):
        p, q = _float_case(3, nvars, cplx), _float_case(4, nvars, cplx)
        for axis in range(nvars):
            for k in range(4):
                want = {a[:axis] + (a[axis] - k,) + a[axis + 1:]: math.perm(a[axis], k) * c
                        for a, c in p.terms.items() if a[axis] >= k}
                assert p.deriv(k, axis).terms == want
        total = dict(p.terms)
        for a, c in q.terms.items():
            total[a] = total.get(a, 0) + c
        assert (p + q).terms == {a: c for a, c in total.items() if c}
        assert (p - p).is_zero and (p - p).degree == NEG_INF and not (p - p).is_exact
        for c in (-2.5, 0.5 + 0.25j, Fraction(1, 3), 3):
            # an exact scalar is rounded once, as it met each float before
            assert (c * p).terms == {a: v * c for a, v in p.terms.items()}
        assert (0.0 * p).is_zero

    def test_terms_are_python_scalars(self, nvars, cplx):
        p = _float_case(5, nvars, cplx)
        assert all(type(c) is (complex if cplx else float) for c in p.terms.values())
        assert all(type(c) is (complex if cplx else float) for c in (p * p).deriv(1).terms.values())


class TestFloatBox:
    # x1^32 + ... + x4^32: the construction caps' largest box, 33^4 slots
    AT_CAPS = {alpha: 1.0 for alpha in ((32, 0, 0, 0), (0, 32, 0, 0), (0, 0, 32, 0), (0, 0, 0, 32))}

    def test_a_polynomial_at_the_caps_builds(self):
        p = MultiPoly(self.AT_CAPS, 4)
        assert p.degree == 32 and p.max_coeff_magnitude() == 1.0 and p.terms == self.AT_CAPS

    def test_a_product_past_the_bound_raises_naming_its_box(self):
        # its square fills a 65^4 box, past 2^22 slots
        p = MultiPoly(self.AT_CAPS, 4)
        with pytest.raises(ValueError, match="box 65x65x65x65 has more than 4194304 slots"):
            p * p
        with pytest.raises(ValueError, match="box 4194305 has more than"):
            UniPoly.monomial(1 << 22, 1.0)
        with pytest.raises(ValueError, match="box 4194305 has more than"):
            UniPoly(np.ones((1 << 22) + 1))


@pytest.mark.parametrize("nvars", [1, 2])
@pytest.mark.parametrize("nan_first", [True, False], ids=["nan-first", "nan-last"])
def test_max_coeff_magnitude_is_nan_in_any_term_order(nvars, nan_first):
    pairs = [((1,) * nvars, math.nan), ((0,) * nvars, 1.0)]
    p = MultiPoly(dict(pairs if nan_first else pairs[::-1]), nvars)
    assert math.isnan(p.max_coeff_magnitude())


def test_a_cancelled_complex_polynomial_is_a_real_zero():
    # as a dict of terms would have it: no complex type outlives the cancellation
    p = MultiPoly({(1, 0): 0.5 + 1j, (0, 2): -2j}, 2)
    zero = p - p
    assert zero.is_zero and zero == MultiPoly.zero(2) and zero.max_coeff_magnitude() == 0.0
    total = zero + MultiPoly({(0, 1): 2.0}, 2)
    assert total.terms == {(0, 1): 2.0} and type(total.terms[(0, 1)]) is float


def test_unipoly_takes_a_float_array_as_it_is():
    c = np.array([0.5, -1.0, 0.0, 2.0, 0.0])
    p = UniPoly(c)
    c[0] = 7.0  # the polynomial holds its own copy
    assert p.terms == {(0,): 0.5, (1,): -1.0, (3,): 2.0} == UniPoly([0.5, -1.0, 0.0, 2.0]).terms
    assert UniPoly(np.array([1j, 0.0])).terms == {(0,): 1j} and UniPoly(np.zeros(3)).is_zero


class TestMultiPoly:
    def test_dir_derivative_product(self):
        f = MultiPoly({(1, 1): 1}, 2)
        d = DirOp((1, 0))
        assert dir_derivative(f, d, 1) == MultiPoly({(0, 1): 1}, 2)

    def test_constant_annihilated(self):
        f = MultiPoly({(0, 0): 7}, 2)
        assert dir_derivative(f, DirOp((2, 3)), 1).is_zero

    def test_linearity_on_sum_of_squares(self):
        f = MultiPoly({(2, 0): 1, (0, 2): 1}, 2)
        out = dir_derivative(f, DirOp((1, 1)), 1)
        assert out == MultiPoly({(1, 0): 2, (0, 1): 2}, 2)

    def test_dimension_mismatch(self):
        f = MultiPoly({(1, 0): 1}, 2)
        with pytest.raises(DimensionMismatchError):
            dir_derivative(f, DirOp((1,)), 1)

    def test_nvars_cap(self):
        with pytest.raises(ValueError):
            MultiPoly({(0,) * 5: 1}, 5)

    def test_degree_cap_on_construction_only(self):
        with pytest.raises(ValueError):
            MultiPoly({(33, 0): 1}, 2)
        f = MultiPoly({(8, 0): 1}, 2)
        assert (f ** 5).degree == 40  # products may exceed the cap


class TestHdop:
    LAPLACIAN = HomOp((((2, 0), 1), ((0, 2), 1)))

    def test_laplacian_of_product(self):
        f = MultiPoly({(2, 2): 1}, 2)
        assert self.LAPLACIAN.apply_all(f) == [MultiPoly({(0, 2): 2, (2, 0): 2}, 2)]

    def test_second_partial(self):
        f = MultiPoly({(3,): 1}, 1)
        assert HomOp((((2,), 1),)).apply_all(f) == [MultiPoly({(1,): 6}, 1)]

    def test_harmonic_polynomial(self):
        f = MultiPoly({(2, 0): 1, (0, 2): -1}, 2)
        (lap,) = self.LAPLACIAN.apply_all(f)
        assert lap.is_zero

    def test_non_homogeneous_rejected(self):
        with pytest.raises(ValueError):
            HomOp((((2, 0), 1), ((1, 0), 1)))

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(math.inf, 0.0)],
                             ids=["nan", "inf", "-inf", "1+nanj", "inf+0j"])
    def test_non_finite_coefficients_rejected(self, c):
        with pytest.raises(ValueError, match="direction v"):
            DirOp((c,))
        with pytest.raises(ValueError, match="direction v"):
            DirOp((1.0, c))
        with pytest.raises(ValueError, match="operator H"):
            HomOp((((1,), c),))
        with pytest.raises(ValueError, match="operator H"):
            HomOp((((2, 0), 1.0), ((0, 2), c)))

    def test_exact_coefficients_past_the_double_range_accepted(self):
        # exact components are finite as they are: none is rounded to a float
        big = Fraction(10**400, 3)
        assert DirOp((big,)).v == (big,)
        assert DirOp((big, 1)).label == f"dirop:{big!r},1.0"
        assert HomOp((((2,), RationalComplex(big, -big)),)).scaled_derivative() == (RationalComplex(big, -big), 2)


def _operator_case(kind, exact, nvars, k):
    # an operator of this kind and p of total degree order*k + 2 on a seeded
    # support, both exact or both float; p's D^k keeps terms of every order
    rng = np.random.default_rng([len(kind), int(exact), nvars, k])

    def scalar(cplx):
        if exact:
            x, y = (Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(2))
            return RationalComplex(x, y) if cplx and y else x
        return complex(*rng.uniform(-1, 1, 2)) if cplx else float(rng.uniform(-1, 1))

    if kind == "deriv":
        op, order = DerivOp(2), 2
    elif kind == "hom":
        op, order = HomOp(tuple((alpha, scalar(True)) for alpha in np.ndindex(*(3,) * nvars)
                                if sum(alpha) == 2)), 2
    else:
        op, order = DirOp(tuple(scalar(kind == "dir-complex") or 1 for _ in range(nvars))), 1
    deg = order * k + 2
    terms = {alpha: scalar(True) for alpha in np.ndindex(*(deg + 1,) * nvars)
             if sum(alpha) <= deg and (alpha[0] == deg or rng.random() < 0.5)}
    return op, MultiPoly(terms, nvars)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "kind, nvars",
    [("dir-real", n) for n in (1, 2, 3, 4)] + [("dir-complex", n) for n in (1, 2, 3)]
    + [("hom", n) for n in (1, 2, 3)] + [("deriv", 1)],
)
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_operator_power_is_repeated_application(exact, kind, nvars, k):
    op, p = _operator_case(kind, exact, nvars, k)
    (got,) = op.power(k, nvars).apply_all(p)
    want = p
    for _ in range(k):
        (want,) = op.apply_all(want)
    assert got.is_exact == want.is_exact == exact
    if exact:
        assert got == want
    else:
        tol = 1e-13 * want.max_coeff_magnitude()
        assert all(abs(complex(got.terms.get(a, 0)) - complex(want.terms.get(a, 0))) <= tol
                   for a in {**got.terms, **want.terms})


def test_operator_power_needs_one_image_and_k_at_least_1():
    with pytest.raises(ValueError, match="deriv:1 has 2 images in 2 variables"):
        DerivOp(1).power(2, 2)
    with pytest.raises(ValueError, match="deriv:1 has 2 images"):
        power_identity_residual(MultiPoly({(1, 1): 1.0}, 2), DerivOp(1), 2)
    for k in (0, -1):
        with pytest.raises(ValueError, match="power k must be >= 1"):
            DirOp((1.0,)).power(k, 1)


class TestPowerIdentity:
    def test_k1_always_zero(self):
        f = MultiPoly({(2, 1): 1.5, (0, 1): -2.0}, 2)
        assert power_identity_residual(f, DirOp((1.0, -0.5)), 1) == 0.0

    def test_linear_univariate_k2(self):
        # f = x, v = 1: both sides are the constant 1 (symbolic expansion)
        f = MultiPoly({(1,): Fraction(1)}, 1)
        assert power_identity_residual(f, DirOp((Fraction(1),)), 2) == 0.0


def _reference_residual(f, d, k):
    # the identity loop that computes each power of f twice, once as f^j and
    # once as f^(k-j), with D^k as the one operator d.power(k, nvars);
    # power_identity_residual must match it bitwise
    (df,) = d.apply_all(f)
    lhs = df ** k
    dk_op = d.power(k, f.nvars)
    acc = MultiPoly.zero(f.nvars)
    for j in range(k + 1):
        (dk,) = dk_op.apply_all(f ** (k - j))
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


def _identity_case(nvars, deg, k, exact):
    # f of total degree deg on a seeded support with x1^deg present, and a direction
    rng = np.random.default_rng([nvars, deg, k, int(exact)])
    terms = {}
    for alpha in np.ndindex(*(deg + 1,) * nvars):
        if sum(alpha) <= deg and (alpha[0] == deg or rng.random() < 0.6):
            if exact:
                terms[alpha] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
            else:
                terms[alpha] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    if exact:
        v = tuple(RationalComplex(Fraction(int(rng.integers(1, 6)), 2),
                                  Fraction(int(rng.integers(-5, 6)), 3)) for _ in range(nvars))
    else:
        v = tuple(complex(rng.uniform(0.1, 1), rng.uniform(-1, 1)) for _ in range(nvars))
    return MultiPoly(terms, nvars), DirOp(v)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("deg", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("nvars", [1, 2])
def test_power_identity_matches_reference_loop_bitwise(nvars, deg, k, exact):
    f, d = _identity_case(nvars, deg, k, exact)
    got, want = power_identity_residual(f, d, k), _reference_residual(f, d, k)
    assert got.hex() == want.hex()
    if exact:
        assert got == 0.0


@st.composite
def exact_multipolys(draw, nvars=2, max_deg=6):
    terms = {}
    indices = [
        (a, b) for a in range(max_deg + 1) for b in range(max_deg + 1 - a)
    ][: 12]
    chosen = draw(
        st.lists(st.sampled_from(indices), min_size=1, max_size=6, unique=True)
    )
    for alpha in chosen:
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 9))
        terms[alpha] = Fraction(num, den)
    return MultiPoly(terms, nvars)


@settings(max_examples=30, deadline=None)
@given(
    f=exact_multipolys(),
    g=exact_multipolys(),
    a=st.integers(-5, 5),
)
def test_directional_derivative_linear_exact(f, g, a):
    d = DirOp((Fraction(1, 2), Fraction(-2, 3)))
    lhs = dir_derivative(f + a * g, d, 1)
    rhs = dir_derivative(f, d, 1) + a * dir_derivative(g, d, 1)
    assert lhs == rhs


@settings(max_examples=20, deadline=None)
@given(f=exact_multipolys(), a=st.integers(0, 2), b=st.integers(0, 2))
def test_directional_derivative_commutes(f, a, b):
    d = DirOp((Fraction(1), Fraction(2)))
    assert dir_derivative(dir_derivative(f, d, a), d, b) == dir_derivative(f, d, a + b)


@settings(max_examples=20, deadline=None)
@given(f=exact_multipolys())
def test_mixed_partials_symmetric(f):
    assert f.deriv(1, 0).deriv(1, 1) == f.deriv(1, 1).deriv(1, 0)


@settings(max_examples=25, deadline=None)
@given(
    f=exact_multipolys(max_deg=4),
    g=exact_multipolys(max_deg=4),
)
def test_product_degree_additive_exact(f, g):
    prod = f * g
    assert prod.degree == f.degree + g.degree


@settings(max_examples=15, deadline=None)
@given(f=exact_multipolys(max_deg=8), k=st.integers(1, 5))
def test_power_identity_exact_mode(f, k):
    d = DirOp((Fraction(2, 3), Fraction(-1, 4)))
    assert power_identity_residual(f, d, k) == 0.0


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 5),
    deg=st.integers(1, 8),
)
def test_power_identity_float_mode(seed, k, deg):
    rng = np.random.default_rng(seed)
    terms = {}
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            if rng.random() < 0.4:
                terms[(a, b)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    terms[(deg, 0)] = 1.0
    f = MultiPoly(terms, 2)
    v = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), 1.0)
    assert power_identity_residual(f, DirOp(v), k) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(
    a=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    b=st.lists(st.integers(-9, 9), min_size=1, max_size=6),
)
def test_unipoly_product_degree_additive(a, b):
    p, q = UniPoly(a), UniPoly(b)
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).degree == p.degree + q.degree


@settings(max_examples=25, deadline=None)
@given(
    a=st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    b=st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    c=st.integers(-5, 5),
    k=st.integers(0, 3),
)
def test_derivative_linear_exact(a, b, c, k):
    p, q = UniPoly([Fraction(x) for x in a]), UniPoly([Fraction(x) for x in b])
    assert (p + c * q).deriv(k) == p.deriv(k) + c * q.deriv(k)


def test_rational_complex_with_floats_is_complex_arithmetic():
    # as Fraction with a float: the float value of z, then Python's complex
    # arithmetic, so an exact direction gives bitwise the float one's image
    z = RationalComplex(Fraction(1, 2), Fraction(1, 3))
    for x in (0.5, 0.5 + 0.25j, -3.0j):
        for got, want in ((z + x, complex(z) + x), (x + z, x + complex(z)), (z - x, complex(z) - x),
                          (x - z, x - complex(z)), (z * x, complex(z) * x), (x * z, x * complex(z))):
            assert type(got) is complex and got.real.hex() == want.real.hex()
            assert got.imag.hex() == want.imag.hex()
    p = MultiPoly({(1,): 0.5 + 0.25j, (2,): 1.5}, 1)
    (got,) = DirOp((z,)).apply_all(p)
    (want,) = DirOp((complex(z),)).apply_all(p)
    assert {a: (c.real.hex(), c.imag.hex()) for a, c in got.terms.items()} == \
        {a: (c.real.hex(), c.imag.hex()) for a, c in want.terms.items()}


def test_rational_complex_arithmetic():
    z = RationalComplex(Fraction(1, 2), Fraction(1, 3))
    w = RationalComplex(Fraction(2), Fraction(-1))
    assert (z * w).re == Fraction(1) + Fraction(1, 3)
    assert z + 1 == RationalComplex(Fraction(3, 2), Fraction(1, 3))
    assert (z - z) == RationalComplex()
    assert z ** 2 == z * z
    assert complex(z) == complex(0.5, 1 / 3)
