import math
from fractions import Fraction

import numpy as np
import pytest

from markovlab import (ChebSeries, Interval, RationalComplex, SupSpec, UniPoly, chebyshev_t, chebyshev_u,
                       evaluate_norm, jacobi_system, legendre_orthonormal, monomial)
from markovlab.chebseries import (
    as_chebseries,
    grid_values,
    lobatto_coef,
    lobatto_points,
    product_2d,
    random_unit,
    random_units,
)

from conftest import cheb_t_coeffs


def test_chebyshev_t_matches_recurrence_oracle():
    for n in (0, 1, 3, 7):
        oracle = UniPoly(cheb_t_coeffs(n))
        xs = np.linspace(-1, 1, 41)
        assert np.allclose(chebyshev_t(n)(xs), oracle(xs), atol=1e-12)


def test_endpoint_values_exact_at_high_degree():
    for n in (64, 128, 200):
        p = chebyshev_t(n)
        assert p(1.0) == 1.0
        assert p(-1.0) == (1.0 if n % 2 == 0 else -1.0)
        assert p.deriv(1)(1.0) == n * n


def test_chebyshev_u_values():
    # U_n(1) = n + 1 and U_n(cos t) = sin((n+1)t)/sin(t)
    for n in (1, 2, 5, 10):
        u = chebyshev_u(n)
        assert u(1.0) == pytest.approx(n + 1)
        t = 0.7
        assert u(math.cos(t)) == pytest.approx(math.sin((n + 1) * t) / math.sin(t))


def test_monomial_round_trip():
    p = monomial(5)
    assert np.allclose(p.to_unipoly()(np.array([0.3])), 0.3**5)


def test_monomial_closed_form():
    # each coefficient is the exact one correctly rounded, the exact ones from
    # x T_0 = T_1 and x T_k = (T_(k+1) + T_(k-1))/2 (numpy's poly2cheb rounds
    # differently from degree 58 on)
    exact = [Fraction(1)]
    for n in range(129):
        assert np.array_equal(monomial(n).coef, [float(a) for a in exact]), n
        nxt = [Fraction(0)] * (n + 2)
        nxt[1] += exact[0]
        for k in range(1, n + 1):
            nxt[k + 1] += exact[k] / 2
            nxt[k - 1] += exact[k] / 2
        exact = nxt
    assert monomial(200)(0.5) == pytest.approx(0.5**200, rel=1e-12)


@pytest.mark.parametrize("ns", [range(400), (1023, 1024, 4095, 4096)], ids=["0-399", "2^10-2^12"])
def test_monomial_matches_fraction_form(ns):
    # the running binomials and integer divisions give bitwise each
    # coefficient rounded from its own Fraction (past degree 1075 the top
    # ones underflow to 0 and are trimmed alike)
    for n in ns:
        want = np.zeros(n + 1)
        for k in range(n % 2, n + 1, 2):
            want[k] = float(Fraction(math.comb(n, (n - k) // 2), 2 ** (n - 1 + (k == 0))))
        assert monomial(n).coef.tobytes() == ChebSeries(want).coef.tobytes(), n


def test_legendre_orthonormal_endpoint():
    for n in (2, 16, 64):
        assert legendre_orthonormal(n)(1.0) == pytest.approx(math.sqrt(2 * n + 1), rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 33, 64, 128])
def test_legendre_orthonormal_closed_form(n):
    # c_(n-2j) = (2 - [n = 2j]) C(2j, j) C(2n-2j, n-j) / 4^n sqrt(2n+1), from
    # exact rationals; and the Jacobi recurrence's P_n to its own rounding
    want = np.zeros(n + 1)
    for j in range(n // 2 + 1):
        exact = Fraction((2 - (n == 2 * j)) * math.comb(2 * j, j) * math.comb(2 * n - 2 * j, n - j), 4**n)
        want[n - 2 * j] = float(exact) * math.sqrt(2 * n + 1)
    got = legendre_orthonormal(n).coef
    assert got.size == n + 1 and not got[(n + 1) % 2 :: 2].any()
    assert np.abs(got - want).max() <= 2e-16 * math.sqrt(2 * n + 1)
    rec = jacobi_system(0.0, 0.0, max(n, 1)).polys[n].coef
    assert np.abs(got - rec).max() <= 2e-14


def test_mul_and_pow_agree_with_unipoly():
    a = as_chebseries(UniPoly((1.0, 2.0, -1.0)))
    b = as_chebseries(UniPoly((0.5, 0.0, 1.0)))
    xs = np.linspace(-1, 1, 17)
    assert np.allclose((a * b)(xs), a(xs) * b(xs), atol=1e-13)
    assert np.allclose((a**3)(xs), a(xs) ** 3, atol=1e-12)


def test_exact_scalar_multiple():
    # an exact scalar enters as a float or complex one; float and complex
    # scalars multiply the coefficients as they are
    p = chebyshev_t(3)
    for c, want in [(Fraction(1, 3), 1 / 3), (RationalComplex(1, 1), 1 + 1j), (RationalComplex(2, 0), 2.0),
                    (3, 3.0)]:
        got = p * c
        assert got.coef.dtype == np.asarray(want).dtype
        assert got.coef.tobytes() == ChebSeries(p.coef * want).coef.tobytes()
        assert (c * p).coef.tobytes() == got.coef.tobytes()
    for c in (2.5, -1j, 2 + 0j):
        assert (p * c).coef.tobytes() == ChebSeries(p.coef * c).coef.tobytes()
    sup = SupSpec(Interval(-1.0, 1.0))
    assert evaluate_norm(sup, p * Fraction(1, 3)) == evaluate_norm(sup, p * (1 / 3))
    assert evaluate_norm(sup, p * RationalComplex(1, 1)) == evaluate_norm(sup, p * (1 + 1j))


def test_random_unit_degree_and_norm(rng):
    p = random_unit(12, rng)
    assert p.degree == 12
    assert np.linalg.norm(p.coef) == pytest.approx(1.0)


def test_lobatto_points_ordered_with_endpoints():
    pts = lobatto_points(33)
    assert pts[0] == -1.0 and pts[-1] == 1.0
    assert np.all(np.diff(pts) > 0)


def _series(n, rng, complex_):
    c = rng.standard_normal(n + 1)
    return c + 1j * rng.standard_normal(n + 1) if complex_ else c


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 127, 128])
def test_grid_values_match_clenshaw(rng, n, complex_):
    # the DCT-I gives the values at the exact angles; Clenshaw at the rounded
    # points cos(pi l / m) is within rounding of them
    c = _series(n, rng, complex_)
    for m in (max(n, 1), 8 * n + 7):
        want = ChebSeries(c)(np.cos(np.arange(m + 1) * (np.pi / m)))
        got = grid_values(c, m)
        assert got.shape == (m + 1,) and np.iscomplexobj(got) == complex_
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 128])
def test_lobatto_coef_inverts_grid_values(rng, n, complex_):
    # at m > n, the values of the zero-padded series, whose top coefficients are 0
    c = _series(n, rng, complex_)
    tol = 1e-14 * np.abs(c).max() * max(n, 1)
    for m in (max(n, 1), 8 * n + 7):
        back = lobatto_coef(grid_values(c, m))
        assert back.shape == (m + 1,)
        assert np.abs(back[: n + 1] - c).max() <= tol
        assert np.abs(back[n + 1 :]).max(initial=0.0) <= tol


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_pair_batches_bitwise(rng, complex_):
    # each column of a batch is bitwise its own transform
    for n in (0, 3, 20, 128):
        C = np.stack([_series(n, rng, complex_) for _ in range(5)], axis=1)
        m = 8 * n + 7
        G = grid_values(C, m)
        back = lobatto_coef(G)
        for j in range(C.shape[1]):
            assert grid_values(C[:, j], m).tobytes() == G[:, j].tobytes()
            assert lobatto_coef(G[:, j]).tobytes() == back[:, j].tobytes()


def test_product_2d_values():
    p = product_2d(chebyshev_t(3), chebyshev_t(2))
    xs = np.array([0.2, -0.7])
    ys = np.array([0.5, 0.1])
    want = chebyshev_t(3)(xs) * chebyshev_t(2)(ys)
    assert np.allclose(p(xs, ys), want, atol=1e-14)
    dx = p.deriv(1, axis=0)
    want_dx = chebyshev_t(3).deriv(1)(xs) * chebyshev_t(2)(ys)
    assert np.allclose(dx(xs, ys), want_dx, atol=1e-13)


def _one_draw(degree, rng):
    """A random unit vector as it was drawn one at a time: the reference."""
    c = rng.standard_normal(degree + 1)
    top = np.max(np.abs(c))
    if abs(c[degree]) < 1e-3 * top:
        c[degree] = 1e-3 * top if c[degree] >= 0 else -1e-3 * top
    return c / np.linalg.norm(c)


@pytest.mark.parametrize("count", [1, 64, 128])
@pytest.mark.parametrize("degree", [0, 1, 3, 12, 64])
def test_random_units_match_successive_draws(degree, count):
    rng, ref = np.random.default_rng(degree), np.random.default_rng(degree)
    C = random_units(degree, count, rng)
    want = np.array([_one_draw(degree, ref) for _ in range(count)])
    assert C.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state
    assert random_unit(degree, rng).coef.tobytes() == _one_draw(degree, ref).tobytes()


def test_random_units_rows_are_the_linalg_norm_rows():
    # sqrt(c . c) per row is bitwise np.linalg.norm(c), at every degree 3..128
    for degree in range(3, 129):
        rng, ref = np.random.default_rng(degree), np.random.default_rng(degree)
        want = np.array([_one_draw(degree, ref) for _ in range(4)])
        assert random_units(degree, 4, rng).tobytes() == want.tobytes()


class _Draws:
    """A stand-in generator that hands out fixed rows, whole or one by one."""

    def __init__(self, rows):
        self.rows, self.at = np.asarray(rows, dtype=float), 0

    def standard_normal(self, shape):
        count = int(np.prod(shape)) // self.rows.shape[1]
        self.at += count
        return self.rows[self.at - count : self.at].reshape(shape).copy()


def test_random_units_floor_the_top_entry():
    # |top| below 1e-3 of the row's largest entry, of either sign or zero
    rows = [[3.0, -1.0, 1e-5], [2.0, 0.5, -1e-6], [1.0, 1.0, 0.0], [1.0, 1.0, -0.0],
            [-4.0, 2.0, 1.0], [0.0, 1e-4, -1e-8]]
    got = random_units(2, len(rows), _Draws(rows))
    ref = _Draws(rows)
    assert got.tobytes() == np.array([_one_draw(2, ref) for _ in rows]).tobytes()
    assert np.all(np.abs(got[:, 2]) >= 1e-3 * np.max(np.abs(got), axis=1) * (1 - 1e-15))
