import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovlab import (
    DimensionMismatchError,
    Interval,
    LpSpec,
    MixedDerivSpec,
    MultiPoly,
    PrecisionOverflowError,
    QmsSpec,
    SchurSpec,
    SupPlusLpSpec,
    SupSpec,
    TaylorDiskSpec,
    UnionSet,
    UniPoly,
    box_region,
    chebyshev_measure,
    chebyshev_t,
    chebyshev_u,
    cusp_region,
    disk_boundary,
    evaluate_norm,
    fit_nikolskii,
    jacobi_measure,
    lebesgue_measure,
    lp_norm,
    mixed_deriv_norm,
    monomial,
    qms_norm,
    qms_norm_exact,
    qms_seminorm_terms,
    schur_norm,
    spec_from_json,
    spec_to_json,
    spectral_norm_estimate,
    sup_norm,
    sup_plus_lp_norm,
    taylor_disk_norm,
)
from markovlab.chebseries import ChebSeries, lobatto_points, random_unit
from markovlab.norms import _qms_poly, _sup, qms_log_norm

from conftest import cheb_t_coeffs

E = Interval(-1.0, 1.0)
MU = lebesgue_measure()


def _one_at_a_time_sup(p, a, b, alpha):
    """Reference: the refined sup of |p| (times (1 - x^2)^alpha) on [a, b] for
    one polynomial alone, with its own grid, near-top brackets and
    golden-section loop, stopping once its widest bracket is <= 1e-12."""

    def g(x):
        v = np.abs(p(x))
        return v * np.maximum(1.0 - x * x, 0.0) ** alpha if alpha else v

    pts = lobatto_points(8 * (max(p.degree, 0) + 1))
    if (a, b) != (-1.0, 1.0):
        pts = (a + b) / 2 + (b - a) / 2 * pts
    vals = g(pts)
    i, last = int(np.argmax(vals)), len(pts) - 1
    peaks = [j for j in range(1, last)
             if vals[j] >= max(vals[j - 1], vals[j + 1]) and vals[j] >= 0.9 * vals[i]]
    brackets = sorted({(j - 1, j + 1) for j in peaks} | {(max(i - 1, 0), min(i + 1, last))})
    lo, hi = pts[[l for l, _ in brackets]], pts[[r for _, r in brackets]]
    c = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - c * (hi - lo), lo + c * (hi - lo)
    f1, f2 = g(x1), g(x2)
    for _ in range(100):
        if np.max(hi - lo) <= 1e-12:
            break
        move = f1 < f2
        lo, hi = np.where(move, x1, lo), np.where(move, hi, x2)
        x1, x2 = hi - c * (hi - lo), lo + c * (hi - lo)
        f1, f2 = g(x1), g(x2)
    return max(float(vals[i]), float(np.max(np.maximum(f1, f2))))


class TestSupNorm:
    def test_constant(self):
        assert sup_norm(UniPoly((1.0,)), E) == 1.0
        assert sup_norm(UniPoly((1.0,)), UnionSet((E,), (5.0,))) == 1.0

    def test_isolated_point_dominates(self):
        u = UnionSet((Interval(-1.0, 1.0),), (2.0,))
        assert sup_norm(UniPoly((0.0, 1.0)), u) == 2.0

    def test_real_point_among_complex_ones(self):
        # a real point sampled through a complex array keeps its real value's bits
        p = ChebSeries([0.3, -1.7, 0.25, 2.0])
        assert sup_norm(p, UnionSet((), (0.3,))) == abs(p(0.3))
        assert sup_norm(p, UnionSet((), (0.3, 0.01j))) == abs(p(0.3))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_piece_gives_nan(self):
        # one NaN rule for every set: a union passes on the NaN of its piece
        huge, t4 = Interval(0.0, 1e200), chebyshev_t(4)
        assert math.isnan(sup_norm(t4, huge))
        assert math.isnan(sup_norm(t4, UnionSet((huge,))))
        assert math.isnan(sup_norm(t4, UnionSet((Interval(-2.0, -1.0), huge), (3.0,))))

    def test_chebyshev8_equioscillation(self):
        # oracle: |T_8| attains 1 exactly at the extrema cos(j*pi/8)
        t8 = chebyshev_t(8)
        extrema = np.cos(np.arange(9) * np.pi / 8)
        assert np.max(np.abs(t8(extrema))) == pytest.approx(1.0, abs=1e-14)
        assert sup_norm(t8, E) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sup_norm(MultiPoly({(1, 0): 1.0}, 2), E)

    def test_complex_coefficients(self):
        p = UniPoly((1j, 1.0))
        # |x + i| on [-1, 1] peaks at the endpoints
        assert sup_norm(p, E) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("E", [E, Interval(0.0, 3.0)], ids=["[-1,1]", "[0,3]"])
    def test_batched_refinement_matches_one_at_a_time(self, rng, E, alpha):
        # one golden-section pass over all brackets gives each polynomial
        # exactly the value it gets alone
        polys = [ChebSeries(rng.standard_normal(n + 1)) for n in (0, 1, 8, 40)]
        polys += [ChebSeries([0.0]), chebyshev_t(8), ChebSeries(rng.standard_normal(9))]
        batched = _sup(polys, E, True, alpha)
        assert batched == [_sup([p], E, True, alpha)[0] for p in polys]
        assert batched == [_one_at_a_time_sup(p, E.a, E.b, alpha) for p in polys]
        assert all(r >= c for r, c in zip(batched, _sup(polys, E, False, alpha)))


class TestLpNorm:
    def test_constant_any_measure(self):
        for s in (1.0, 2.0, 3.0, 4.0):
            assert lp_norm(UniPoly((1.0,)), MU, s) == pytest.approx(1.0, abs=1e-12)

    def test_x_l2(self):
        # exact integral: int x^2 dx / 2 = 1/3
        assert lp_norm(UniPoly((0.0, 1.0)), MU, 2) == pytest.approx(
            1.0 / math.sqrt(3.0), rel=1e-14
        )

    def test_x_l1_via_root_split(self):
        assert lp_norm(UniPoly((0.0, 1.0)), MU, 1) == pytest.approx(0.5, rel=1e-14)

    def test_odd_power_with_interior_roots(self):
        # int |x^2 - 1/4| dx/2 = int_0^{1/2} (1/4 - x^2) + int_{1/2}^1 (x^2 - 1/4)
        #                      = 1/12 + 1/6 = 1/4
        got = lp_norm(UniPoly((-0.25, 0.0, 1.0)), MU, 1)
        assert got == pytest.approx(0.25, rel=1e-12)

    def test_complex_coefficients_closed_form(self):
        # int |x + i| dx/2 over [-1, 1] = (sqrt(2) + asinh(1)) / 2
        got = lp_norm(UniPoly((1j, 1.0)), MU, 1)
        assert got == pytest.approx((math.sqrt(2.0) + math.asinh(1.0)) / 2, rel=1e-12)

    @pytest.mark.parametrize("s", [1.5, 3.0])
    @pytest.mark.parametrize("coeffs", [(1j, 1.0), (0.3j, 0.0, 1.0)], ids=["x+i", "x^2+0.3i"])
    def test_complex_coefficients_gauss_legendre(self, coeffs, s):
        # |p|^s is analytic near [-1, 1], so 400 Gauss-Legendre nodes resolve it
        x, w = np.polynomial.legendre.leggauss(400)
        p = UniPoly(coeffs)
        want = (np.sum(w * np.abs(p(x)) ** s) / 2) ** (1 / s)
        assert lp_norm(p, MU, s) == pytest.approx(want, rel=1e-12)

    def test_non_integer_s(self):
        # pure quadrature path; constant polynomial keeps it exact
        assert lp_norm(UniPoly((2.0,)), MU, 2.5) == pytest.approx(2.0, rel=1e-9)

    def test_nikolskii_factor_bound(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 25))
            p = random_unit(n, rng)
            sup = sup_norm(p, E)
            for s in (1, 2, 4):
                lp = lp_norm(p, MU, s)
                assert lp <= sup * (1 + 1e-10)
                factor = (2.0 * (s + 1) * n * n) ** (1.0 / s)
                assert sup <= factor * lp * (1 + 1e-10)


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


class TestLpOracles:
    """Closed forms for the root-split path (s not an even integer) to 1e-12,
    and exact integrals for the one-rule path (even s) to 3e-15."""

    @pytest.mark.parametrize("n", [1, 16, 64, 128])
    @pytest.mark.parametrize("s", [1.0, 1.5, 2.5, 3.0])
    def test_chebyshev_t_under_chebyshev_measure(self, n, s):
        # x = cos(theta): ||T_n||_s^s is the mean of |cos(n theta)|^s, the same
        # for every n >= 1; the n roots of T_n cluster at +-1
        want = (math.gamma((s + 1) / 2) / (math.sqrt(math.pi) * math.gamma(s / 2 + 1))) ** (1 / s)
        assert lp_norm(chebyshev_t(n), chebyshev_measure(), s) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 0.5, 1.5])
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    @pytest.mark.parametrize("s", [1.0, 1.5, 2.5, 3.0])
    def test_monomial_under_symmetric_jacobi(self, alpha, n, s):
        # int |x|^(ns) (1-x^2)^alpha dx / int (1-x^2)^alpha dx = B((ns+1)/2, alpha+1) / B(1/2, alpha+1)
        mu = lebesgue_measure() if alpha == 0.0 else jacobi_measure(alpha, alpha)
        want = math.exp((_log_beta((n * s + 1) / 2, alpha + 1) - _log_beta(0.5, alpha + 1)) / s)
        assert lp_norm(monomial(n), mu, s) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("s", [2, 4])
    def test_even_s_under_lebesgue_measure(self, n, s):
        # |p|^s = p^s is a Chebyshev series sum c_k T_k, and the integral of
        # T_k over [-1, 1] is 2/(1 - k^2) for even k (0 for odd k)
        rng = np.random.default_rng(1000 + n)
        for _ in range(10):
            p = random_unit(n, rng)
            c = np.polynomial.chebyshev.chebpow(p.coef, s)
            mean = math.fsum(c[k] / (1 - k * k) for k in range(0, c.size, 2))
            assert lp_norm(p, MU, s) == pytest.approx(mean ** (1 / s), rel=3e-15, abs=0)

    @pytest.mark.parametrize("c", [0.99, -0.99, 1 - 1e-5, -(1 - 1e-5), 1 - 1e-8, -(1 - 1e-8), 1 - 1e-11])
    def test_root_near_an_end_under_chebyshev_measure(self, c):
        # c = cos(phi): ||x - c||_1 = (2 sin(phi) + c (pi - 2 phi)) / pi.  The piece
        # from the far end to c carries (1 -+ x)^(-1/2), nearly singular at c
        phi = math.acos(c)
        want = (2 * math.sin(phi) + c * (math.pi - 2 * phi)) / math.pi
        assert lp_norm(UniPoly((-c, 1.0)), chebyshev_measure(), 1) == pytest.approx(want, rel=1e-12)


class TestSchurNorm:
    def test_constant(self):
        assert schur_norm(UniPoly((1.0,)), 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        # oracle: max |x| sqrt(1-x^2) on a dense grid, attained at 1/sqrt(2)
        xs = np.linspace(-1, 1, 200001)
        oracle = np.max(np.abs(xs) * np.sqrt(1 - xs**2))
        got = schur_norm(UniPoly((0.0, 1.0)), 0.5)
        assert got == pytest.approx(0.5, abs=1e-12)
        assert got >= oracle - 1e-9

    def test_sandwich_with_sup(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 33))
            p = random_unit(n, rng)
            w = schur_norm(p, 0.5)
            s = sup_norm(p, E)
            assert w <= s * (1 + 1e-10)
            assert s <= (n + 1) * w * (1 + 1e-10)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            schur_norm(UniPoly((1.0,)), 0.0)

    def test_ball_variant_on_point_cloud(self):
        # weight (1 - |x|^2)^alpha clips to zero outside the unit ball, so a
        # box cloud covering the ball is a valid carrier
        cloud = box_region(grid=81)
        one = MultiPoly({(0, 0): 1.0}, 2)
        assert schur_norm(one, 0.5, cloud) == pytest.approx(1.0, abs=1e-12)
        x1 = MultiPoly({(1, 0): 1.0}, 2)
        # max |x| sqrt(1 - x^2 - y^2) = 1/2 on the y = 0 slice
        assert schur_norm(x1, 0.5, cloud) == pytest.approx(0.5, abs=1e-3)


class TestQmsNorm:
    def test_constant_is_one(self):
        for m, s in ((1, 1), (2, 3), (0.5, 2)):
            assert qms_norm(UniPoly((1.0,)), m, s) == pytest.approx(1.0)

    def test_monomial_closed_form(self):
        # ||x^(sn)|| = ((sn)!)^(1-m): single surviving block
        for s, n, m in ((2, 3, 2), (3, 2, 1), (4, 1, 3)):
            base = UniPoly.monomial(s * n, 1)
            assert qms_norm_exact(base, m, s) == Fraction(math.factorial(s * n)) ** (1 - m)

    @pytest.mark.parametrize("s, n, t, j, m", [(3, 4, 1, 2, 2), (4, 1024, 1, 1, 1)],
                             ids=["s3-n4", "s4-n1024"])
    def test_derivative_closed_form(self, s, n, t, j, m):
        # x^(sn) differentiated s*t + j times keeps one term, in block n - t - 1
        p = UniPoly.monomial(s * n, 1).deriv(s * t + j)
        top = Fraction(math.factorial(s * n), math.factorial(s - j))
        assert qms_seminorm_terms(p, s) == {n - t - 1: top}
        want = top / Fraction(math.factorial(s * (n - t - 1))) ** m
        assert qms_norm_exact(p, m, s) == want

    def test_terms_match_brute_force_derivatives(self, rng):
        # independent oracle: seminorm blocks via repeated UniPoly.deriv at 0
        for _ in range(10):
            deg = int(rng.integers(0, 12))
            coeffs = [Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))) for _ in range(deg + 1)]
            p = UniPoly(coeffs)
            s = int(rng.integers(1, 4))
            got = qms_seminorm_terms(p, s)
            want = {}
            if not p.is_zero:
                for r in range(int(p.degree) // s + 1):
                    total = Fraction(0)
                    for l in range(s):
                        d = p.deriv(r * s + l)
                        total += abs(d(Fraction(0))) / math.factorial(l)
                    if total:
                        want[r] = total
            assert got == want

    def test_float_log_agrees_with_exact(self):
        p = UniPoly((1.0, 2.0, 0.0, -3.0, 1.0))
        pe = UniPoly((1, 2, 0, -3, 1))
        for m, s in ((1, 2), (2, 2), (1, 3)):
            lv = qms_log_norm(p, m, s)
            ev = float(qms_norm_exact(pe, m, s))
            assert math.exp(lv) == pytest.approx(ev, rel=1e-12)

    def test_exact_requires_integer_m(self):
        with pytest.raises(ValueError):
            qms_norm_exact(UniPoly((1,)), 0.5, 2)

    def test_complex_coefficients_float_path(self):
        # with s = 1, m = 1 the norm is sum_r |p^(r)(0)|/r! = sum |c_r|
        p = UniPoly((0.5j, 0.0, 1j, -2.0))
        assert qms_norm(p, 1, 1) == pytest.approx(3.5, rel=1e-12)


class TestTaylorDiskNorm:
    def test_constant(self):
        assert taylor_disk_norm(UniPoly((1.0,)), E, 0.7) == 1.0

    def test_linear_two_terms(self):
        assert taylor_disk_norm(UniPoly((0.0, 1.0)), E, 1.0) == pytest.approx(2.0)

    def test_sandwich_with_shifted_sup(self, rng):
        # q_sigma oracle: max over a disk-boundary grid of sup |p(x + zeta)|
        zetas = np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
        xs = np.linspace(-1, 1, 801)
        for _ in range(8):
            n = int(rng.integers(1, 9))
            p = random_unit(n, rng)
            q = taylor_disk_norm(p, E, 0.5)
            grid = xs[None, :] + 0.5 * zetas[:, None]
            q_sigma = float(np.max(np.abs(p(grid))))
            assert q_sigma <= q * (1 + 1e-9)
            assert q <= (n + 1) * q_sigma * (1 + 1e-9)

    def test_coarse_matches_refined(self):
        p = chebyshev_t(9)
        coarse = taylor_disk_norm(p, E, 0.3, refine=False)
        refined = taylor_disk_norm(p, E, 0.3, refine=True)
        assert coarse == pytest.approx(refined, rel=1e-6)


class TestMixedDerivNorm:
    def test_constant(self):
        box = box_region(grid=33)
        p = MultiPoly({(0, 0): -3.0}, 2)
        assert mixed_deriv_norm(p, box, 0) == pytest.approx(3.0)

    def test_coordinate_on_box(self):
        box = box_region(grid=33)
        p = MultiPoly({(1, 0): 1.0}, 2)
        assert mixed_deriv_norm(p, box, 0) == pytest.approx(2.0)

    def test_univariate_union_variant(self):
        u = UnionSet((Interval(-1.0, 1.0),), (2.0,))
        p = UniPoly((0.0, 0.0, 1.0))  # x^2: sup 4 at the point, sup|2x| = 4
        assert mixed_deriv_norm(p, u) == pytest.approx(8.0)

    def test_cusp_bound(self, rng):
        # first-partial growth on the cusp set stays under 2*(deg)^2
        cusp = cusp_region(grid=201)
        from markovlab.chebseries import product_2d

        for n in (1, 3, 6, 10):
            p = product_2d(chebyshev_t(n), chebyshev_t(0))
            ratio = sup_norm(p.deriv(1, axis=0), cusp) / sup_norm(p, cusp)
            assert ratio <= 2.0 * n * n * (1 + 1e-9)
        for _ in range(5):
            p = ChebSeries(rng.standard_normal((5, 5)))
            n = p.degree
            denom = sup_norm(p, cusp)
            if denom == 0.0:
                continue
            assert sup_norm(p.deriv(1, axis=0), cusp) / denom <= 2.0 * n * n * (1 + 1e-9)


class TestSupPlusLp:
    def test_constant(self):
        assert sup_plus_lp_norm(UniPoly((1.0,)), E, MU, 2) == pytest.approx(2.0)

    def test_linear(self):
        got = sup_plus_lp_norm(UniPoly((0.0, 1.0)), E, MU, 2)
        assert got == pytest.approx(1.0 + 1.0 / math.sqrt(3.0), rel=1e-12)


class TestSpectralEstimate:
    def test_sup_norm_is_spectral(self):
        est = spectral_norm_estimate(chebyshev_t(3), SupSpec(E), 8)
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in est.values)
        assert est.limit == pytest.approx(1.0, abs=1e-6)

    def test_taylor_disk_of_x(self):
        est = spectral_norm_estimate(UniPoly((0.0, 1.0)), TaylorDiskSpec(E, 1.0), 8)
        # oracle: max over the disk boundary of sup |x + zeta| = 2
        zetas = np.exp(1j * np.linspace(0, 2 * np.pi, 256))
        oracle = np.max(np.abs(np.array([1.0]) + zetas))
        assert oracle == pytest.approx(2.0, rel=1e-12)
        assert est.limit == pytest.approx(2.0, rel=1e-9)

    def test_sup_plus_lp_converges_to_sup(self):
        p = chebyshev_t(2)
        est = spectral_norm_estimate(p, SupPlusLpSpec(E, MU, 2.0), 10)
        sup = sup_norm(p, E)
        assert est.plain_tail == pytest.approx(sup, rel=0.05)
        assert est.limit == pytest.approx(sup, rel=0.05)
        # the raw tail converges from above onto the sup norm
        assert all(v >= sup * (1 - 1e-12) for v in est.values)

    def test_qms_shrinks_without_blowup(self):
        est = spectral_norm_estimate(UniPoly((0, 1)), QmsSpec(2.0, 1), 8)
        assert est.values[-1] < est.values[0]

    def test_requires_enough_powers(self):
        with pytest.raises(ValueError):
            spectral_norm_estimate(UniPoly((0, 1)), SupSpec(E), 3)


class TestFitNikolskii:
    def test_identical_norms(self):
        corpus = {n: [chebyshev_t(n)] for n in range(1, 9)}
        cert = fit_nikolskii(SupSpec(E), SupSpec(E), corpus)
        assert (cert.A, cert.a, cert.B, cert.b) == (1.0, 0.0, 1.0, 0.0)

    def test_sup_vs_l2_on_chebyshev(self):
        corpus = {n: [chebyshev_t(n)] for n in range(1, 33)}
        cert = fit_nikolskii(SupSpec(E), LpSpec(MU, 2.0), corpus)
        assert cert.status == "certified"
        assert cert.a <= 1.0

    def test_sup_vs_schur_shows_degree_factor(self):
        corpus = {
            n: [chebyshev_t(n), chebyshev_u(n), monomial(n)] for n in range(1, 65)
        }
        cert = fit_nikolskii(SupSpec(E), SchurSpec(0.5), corpus, deg_range=(16, 64))
        assert cert.a == pytest.approx(1.0, abs=0.15)
        assert cert.b <= 0.2

    def test_certificate_holds_on_corpus(self):
        corpus = {n: [chebyshev_t(n), monomial(n)] for n in range(1, 17)}
        cert = fit_nikolskii(SupSpec(E), LpSpec(MU, 2.0), corpus)
        for n, polys in corpus.items():
            for p in polys:
                v1, v2 = sup_norm(p, E), lp_norm(p, MU, 2.0)
                assert v1 <= cert.A * n**cert.a * v2 * (1 + 1e-9)
                assert v2 <= cert.B * n**cert.b * v1 * (1 + 1e-9)


class TestNormSpecJson:
    @pytest.mark.parametrize(
        "spec",
        [
            SupSpec(E),
            LpSpec(MU, 2.0),
            SupPlusLpSpec(E, MU, 4.0),
            SchurSpec(0.5),
            SchurSpec(1.0, E),
            QmsSpec(2.0, 3),
            TaylorDiskSpec(E, 0.5),
            MixedDerivSpec(E, 0),
        ],
    )
    def test_round_trip(self, spec):
        blob = spec_to_json(spec)
        back = spec_from_json(blob)
        assert spec_to_json(back) == blob
        assert blob["kind"] in {
            "sup", "lp", "sup_plus_lp", "schur", "qms", "taylor_disk", "mixed_deriv",
        }

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            spec_from_json({"kind": "sobolev"})

    def test_missing_required_field(self):
        with pytest.raises(KeyError, match="'r'"):
            spec_from_json({"kind": "taylor_disk", "set": spec_to_json(SupSpec(E))["set"]})

    def test_omitted_default_axis(self):
        blob = {"kind": "mixed_deriv", "set": spec_to_json(SupSpec(E))["set"]}
        spec = spec_from_json(blob)
        assert spec == MixedDerivSpec(E, 0)
        assert spec_to_json(spec) == {**blob, "axis": 0}

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: LpSpec(MU, 0.5),
            lambda: SchurSpec(-1.0),
            lambda: QmsSpec(0.0, 2),
            lambda: QmsSpec(1.0, 0),
            lambda: TaylorDiskSpec(E, 0.0),
            lambda: SupPlusLpSpec(E, MU, 0.0),
            lambda: SchurSpec(math.inf),
            lambda: QmsSpec(math.nan, 2),
            lambda: QmsSpec(math.inf, 2),
            lambda: TaylorDiskSpec(E, math.nan),
            lambda: Interval(-1.0, math.inf),
            lambda: Interval(-1e308, 1e308),
            lambda: UnionSet((E,), (complex(math.nan, 0.0),)),
            lambda: jacobi_measure(math.nan, 0.0),
            lambda: jacobi_measure(0.0, math.inf),
        ],
    )
    def test_parameter_ranges_enforced(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_taylor_disk_weight_overflow(self):
        with pytest.raises(PrecisionOverflowError):
            taylor_disk_norm(chebyshev_t(4), E, 1e300)


# ---------------------------------------------------------------------------
# Norm axioms (property-based)

_SPECS_EXACT_SCALING = [
    SupSpec(E),
    SchurSpec(0.5),
    TaylorDiskSpec(E, 0.5),
]
_SPECS_INTEGRAL = [LpSpec(MU, 2.0), SupPlusLpSpec(E, MU, 2.0), QmsSpec(1.0, 2)]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.integers(-10, 10),
    spec_idx=st.integers(0, len(_SPECS_EXACT_SCALING) - 1),
)
def test_homogeneity_exact_for_binary_scalings(seed, k, spec_idx):
    # scaling by powers of two commutes with every float rounding step
    rng = np.random.default_rng(seed)
    p = random_unit(int(rng.integers(1, 13)), rng)
    spec = _SPECS_EXACT_SCALING[spec_idx]
    c = 2.0**k
    assert evaluate_norm(spec, c * p) == c * evaluate_norm(spec, p)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    c=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    spec_idx=st.integers(0, len(_SPECS_INTEGRAL) - 1),
)
def test_homogeneity_integral_norms(seed, c, spec_idx):
    rng = np.random.default_rng(seed)
    spec = _SPECS_INTEGRAL[spec_idx]
    if isinstance(spec, QmsSpec):
        p = UniPoly(tuple(rng.uniform(-1, 1, 6)))
        scaled = c * p
        assert qms_norm(scaled, spec.m, spec.s) == pytest.approx(
            c * qms_norm(p, spec.m, spec.s), rel=1e-12
        )
    else:
        p = random_unit(int(rng.integers(1, 13)), rng)
        assert evaluate_norm(spec, c * p) == pytest.approx(
            c * evaluate_norm(spec, p), rel=1e-12
        )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), spec_idx=st.integers(0, 4))
def test_triangle_inequality(seed, spec_idx):
    rng = np.random.default_rng(seed)
    specs = _SPECS_EXACT_SCALING + [LpSpec(MU, 2.0), SupPlusLpSpec(E, MU, 2.0)]
    spec = specs[spec_idx]
    p = random_unit(int(rng.integers(1, 11)), rng)
    g = random_unit(int(rng.integers(1, 11)), rng)
    qp, qg = evaluate_norm(spec, p), evaluate_norm(spec, g)
    assert evaluate_norm(spec, p + g) <= qp + qg + 1e-10 * (qp + qg)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    a=st.floats(-1.0, -0.1),
    b=st.floats(0.1, 1.0),
)
def test_sup_monotone_in_set(seed, a, b):
    rng = np.random.default_rng(seed)
    p = random_unit(int(rng.integers(1, 13)), rng)
    small, big = Interval(a, b), Interval(-1.0, 1.0)
    s_small = sup_norm(p, small)
    s_big = sup_norm(p, big)
    assert s_small <= s_big + 1e-10 * s_big


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), s=st.integers(1, 6))
def test_sup_norm_spectral(seed, s):
    rng = np.random.default_rng(seed)
    p = random_unit(int(rng.integers(1, 9)), rng)
    lhs = sup_norm(p**s, E)
    rhs = sup_norm(p, E) ** s
    assert lhs == pytest.approx(rhs, rel=1e-8)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_lp_nondecreasing_in_s(seed):
    rng = np.random.default_rng(seed)
    p = random_unit(int(rng.integers(1, 17)), rng)
    vals = [lp_norm(p, MU, s) for s in (1, 2, 4, 8)]
    for lo, hi in zip(vals, vals[1:]):
        assert lo <= hi * (1 + 1e-10)


# ---------------------------------------------------------------------------
# One conversion: every polynomial class gives the value of its ChebSeries

_CHEB_1D = np.array([0.25, -1.5, 0.5, 0.75])  # dyadic, so the power basis is exact
_UNION = UnionSet((Interval(-1.0, 0.0), Interval(0.5, 1.0)), (1.5,))
_CONTRACT = {  # each public entry point that takes one polynomial
    "sup[-1,1]": lambda p: sup_norm(p, E),
    "sup[0,3]": lambda p: sup_norm(p, Interval(0.0, 3.0)),
    "sup-union": lambda p: sup_norm(p, _UNION),
    "sup-circle": lambda p: sup_norm(p, disk_boundary()),
    "schur": lambda p: schur_norm(p, 0.5),
    "taylor_disk": lambda p: taylor_disk_norm(p, E, 0.5),
    "mixed_deriv": lambda p: mixed_deriv_norm(p, E),
    "sup+L2": lambda p: sup_plus_lp_norm(p, E, MU, 2.0),
    **{f"L^{s:g}": (lambda p, s=s: lp_norm(p, MU, s)) for s in (1.0, 1.5, 2.0, 3.0)},
    "qms(1,1)": lambda p: evaluate_norm(QmsSpec(1, 1), p),
    "qms(2,2)": lambda p: evaluate_norm(QmsSpec(2, 2), p),
}


@pytest.mark.parametrize("imag", [0.0, 0.5], ids=["real", "complex"])
@pytest.mark.parametrize("norm", list(_CONTRACT.values()), ids=list(_CONTRACT))
def test_conversion_contract_one_variable(norm, imag):
    c = _CHEB_1D + imag * _CHEB_1D[::-1] * 1j if imag else _CHEB_1D
    power = np.polynomial.chebyshev.cheb2poly(c)
    want = norm(ChebSeries(c))
    uni, multi = UniPoly(tuple(power)), MultiPoly({(j,): a for j, a in enumerate(power)}, 1)
    assert norm(uni) == pytest.approx(want, rel=1e-13)
    assert norm(multi) == norm(uni)


@pytest.mark.parametrize("spec", [QmsSpec(1, 1), QmsSpec(2, 2)], ids=["qms(1,1)", "qms(2,2)"])
def test_qms_exact_multipoly_stays_exact(spec):
    coeffs = (Fraction(1, 3), 0, Fraction(-5, 7), Fraction(2, 9))
    multi = MultiPoly({(j,): c for j, c in enumerate(coeffs) if c}, 1)
    assert qms_norm_exact(_qms_poly(multi), spec.m, spec.s) == qms_norm_exact(UniPoly(coeffs), spec.m, spec.s)
    assert evaluate_norm(spec, multi) == evaluate_norm(spec, UniPoly(coeffs))


@pytest.mark.parametrize(
    "p", [MultiPoly({(1, 1): 2.0, (0, 0): 1.0}, 2), ChebSeries([[1.0, 2.0], [3.0, 0.0]])],
    ids=["MultiPoly", "ChebSeries"],
)
def test_qms_rejects_two_variables(p):
    with pytest.raises(DimensionMismatchError):
        evaluate_norm(QmsSpec(1, 1), p)
    with pytest.raises(DimensionMismatchError):
        spectral_norm_estimate(p, QmsSpec(1, 1), 4)


@pytest.mark.parametrize("imag", [0.0, 0.5], ids=["real", "complex"])
@pytest.mark.parametrize("spec", [SupSpec(box_region()), MixedDerivSpec(box_region(), 1)],
                         ids=["sup-box", "mixed_deriv-box"])
def test_conversion_contract_box(spec, imag):
    C = np.array([[0.5, -0.25, 0.75], [1.0, 0.5, 0.0], [-0.25, 0.0, 0.0]])
    C = C + imag * C.T * 1j if imag else C
    terms = {}
    for (i, j), cij in np.ndenumerate(C):
        for a, ta in enumerate(cheb_t_coeffs(i)):
            for b, tb in enumerate(cheb_t_coeffs(j)):
                terms[(a, b)] = terms.get((a, b), 0) + cij * ta * tb
    got = evaluate_norm(spec, MultiPoly(terms, 2))
    assert got == pytest.approx(evaluate_norm(spec, ChebSeries(C)), rel=1e-13)
