import math

import numpy as np
import pytest

from markovlab import ChebSeries, UniPoly, chebyshev_t, chebyshev_u, legendre_orthonormal, monomial
from markovlab.chebseries import lobatto_points, product_2d, random_unit

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


def test_legendre_orthonormal_endpoint():
    for n in (2, 16, 64):
        assert legendre_orthonormal(n)(1.0) == pytest.approx(math.sqrt(2 * n + 1), rel=1e-12)


def test_mul_and_pow_agree_with_unipoly():
    a = ChebSeries.from_unipoly(UniPoly((1.0, 2.0, -1.0)))
    b = ChebSeries.from_unipoly(UniPoly((0.5, 0.0, 1.0)))
    xs = np.linspace(-1, 1, 17)
    assert np.allclose((a * b)(xs), a(xs) * b(xs), atol=1e-13)
    assert np.allclose((a**3)(xs), a(xs) ** 3, atol=1e-12)


def test_random_unit_degree_and_norm(rng):
    p = random_unit(12, rng)
    assert p.degree == 12
    assert np.linalg.norm(p.coef) == pytest.approx(1.0)


def test_lobatto_points_ordered_with_endpoints():
    pts = lobatto_points(33)
    assert pts[0] == -1.0 and pts[-1] == 1.0
    assert np.all(np.diff(pts) > 0)


def test_product_2d_values():
    p = product_2d(chebyshev_t(3), chebyshev_t(2))
    xs = np.array([0.2, -0.7])
    ys = np.array([0.5, 0.1])
    want = chebyshev_t(3)(xs) * chebyshev_t(2)(ys)
    assert np.allclose(p.values(xs, ys), want, atol=1e-14)
    dx = p.deriv(kx=1)
    want_dx = chebyshev_t(3).deriv(1)(xs) * chebyshev_t(2)(ys)
    assert np.allclose(dx.values(xs, ys), want_dx, atol=1e-13)
