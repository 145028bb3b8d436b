import math

import numpy as np
import pytest

from markovlab import (
    Interval,
    OrthogonalityLossError,
    QuadratureBudgetError,
    UniPoly,
    UnionSet,
    expand,
    growth_exponent,
    jacobi_system,
    lebesgue_measure,
    lp_norm,
    reconstruct,
    stieltjes_orthonormalize,
)
from markovlab import orthopoly
from markovlab.chebseries import as_chebseries
from markovlab.domains import jacobi_measure, tabulated_measure

from conftest import cheb_t_coeffs


class TestJacobiSystems:
    def test_degree_zero_is_one(self):
        for alpha, beta in ((-0.5, -0.5), (0.0, 0.0), (1.0, 0.5)):
            sys_ = jacobi_system(alpha, beta, 8)
            xs = np.linspace(-1, 1, 5)
            assert np.allclose(sys_.values(xs, 0)[0], 1.0)

    def test_chebyshev_third_is_scaled_t3(self):
        sys_ = jacobi_system(-0.5, -0.5, 8)
        t3 = UniPoly([float(c) for c in cheb_t_coeffs(3)])
        xs = np.linspace(-1, 1, 21)
        vals = sys_.values(xs, 3)[3]
        # positive-leading normalization fixes the constant at +sqrt(2)
        assert np.allclose(vals, math.sqrt(2.0) * t3(xs), atol=1e-12)
        # unit L2 norm against its own measure, checked by quadrature
        nodes, weights = sys_.measure.gauss_rule(16)
        v3 = sys_.values(nodes, 3)[3]
        assert float(np.dot(weights, v3 * v3)) == pytest.approx(1.0, abs=1e-10)

    def test_legendre_first_is_sqrt3_x(self, legendre64):
        xs = np.linspace(-1, 1, 9)
        assert np.allclose(legendre64.values(xs, 1)[1], math.sqrt(3.0) * xs, atol=1e-12)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("beta", [-0.5, 0.0, 0.5, 1.0])
    def test_gram_identity_nmax64(self, alpha, beta):
        sys_ = jacobi_system(alpha, beta, 64)
        assert sys_.gram_defects()[-1] <= 1e-10

    def test_symmetric_weights_have_zero_centers(self):
        for alpha in (-0.5, 0.0, 1.0):
            sys_ = jacobi_system(alpha, alpha, 32)
            assert np.max(np.abs(sys_.alphas)) <= 1e-12

    def test_degrees_increase(self):
        sys_ = jacobi_system(0.0, 0.0, 12)
        for n, p in enumerate(sys_.polys):
            assert p.degree == n

    def test_nmax_cap(self):
        with pytest.raises(ValueError):
            jacobi_system(0.0, 0.0, 257)


class TestStieltjes:
    def test_matches_jacobi_closed_form(self):
        st = stieltjes_orthonormalize(lebesgue_measure(), 48)
        jc = jacobi_system(0.0, 0.0, 48)
        assert np.max(np.abs(st.alphas - jc.alphas)) <= 1e-8
        assert np.max(np.abs(st.betas - jc.betas)) <= 1e-8

    def test_chebyshev_measure(self):
        st = stieltjes_orthonormalize(jacobi_measure(-0.5, -0.5), 32)
        jc = jacobi_system(-0.5, -0.5, 32)
        assert np.max(np.abs(st.betas - jc.betas)) <= 1e-8

    def test_gram_identity(self):
        mu = tabulated_measure(lambda x: 1.0 + 0.25 * x**2)
        sys_ = stieltjes_orthonormalize(mu, 24)
        assert sys_.gram_defects()[-1] <= 1e-10

    def test_budget_guard(self):
        with pytest.raises(QuadratureBudgetError):
            stieltjes_orthonormalize(lebesgue_measure(), 129)

    def test_orthogonality_loss_names_degree(self):
        # a sign-changing weight is not a measure; some pi_k gets a
        # nonpositive norm and construction must name the failing degree
        mu = tabulated_measure(lambda x: x**2 - 0.2)
        with pytest.raises(OrthogonalityLossError) as err:
            stieltjes_orthonormalize(mu, 32)
        assert 1 <= err.value.degree <= 32

    def test_orthogonality_loss_names_the_first_failing_degree(self, monkeypatch):
        # a tolerance between the leading-block defects of two consecutive
        # degrees d - 1 and d, neither a multiple of 16, fails exactly at d
        mu, nmax = tabulated_measure(lambda x: 1.0 + 0.25 * x**2), 48
        sys_ = stieltjes_orthonormalize(mu, nmax)
        nodes, weights = mu.rule_for_degree(2 * nmax)
        V = sys_.values(nodes)
        G = np.abs((V * weights) @ V.T - np.eye(nmax + 1))
        defects = [G[: d + 1, : d + 1].max() for d in range(nmax + 1)]
        d = next(d for d in range(2, nmax + 1) if d % 16 not in (0, 1) and defects[d] > defects[d - 1])
        monkeypatch.setattr(orthopoly, "_DRIFT_TOL", (defects[d - 1] + defects[d]) / 2)
        with pytest.raises(OrthogonalityLossError) as err:
            stieltjes_orthonormalize(mu, nmax)
        assert (err.value.degree, err.value.defect) == (d, defects[d])
        np.testing.assert_array_equal(sys_.gram_defects(), defects)


class TestExpand:
    def test_constant(self, legendre64):
        c = expand(UniPoly((1.0,)), legendre64)
        assert c[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(c[1:])) <= 1e-12

    def test_basis_member_gives_unit_vector(self, legendre64):
        q2 = legendre64.polys[2]
        c = expand(q2, legendre64)
        want = np.zeros(legendre64.nmax + 1)
        want[2] = 1.0
        assert np.max(np.abs(c - want)) <= 1e-10

    def test_parseval(self, legendre64, rng):
        for _ in range(5):
            deg = int(rng.integers(1, 20))
            p = UniPoly(tuple(rng.uniform(-1, 1, deg + 1)))
            c = expand(p, legendre64)
            l2 = lp_norm(p, legendre64.measure, 2)
            assert float(np.sum(c * c)) == pytest.approx(l2**2, rel=1e-8)

    def test_reconstruction_round_trip(self, legendre64, rng):
        p = UniPoly(tuple(rng.uniform(-1, 1, 9)))
        coeffs = expand(p, legendre64)[: int(p.degree) + 1]
        rec = reconstruct(coeffs, legendre64)
        want = as_chebseries(p)
        assert rec.degree == want.degree
        assert max(abs(a - b) for a, b in zip(rec.coef, want.coef)) <= 1e-8

    def test_reconstructed_basis_matches_the_recurrence(self, legendre64):
        # the power basis lost Q_40(1) = 9 to 9.0993; Chebyshev coefficients keep it
        xs = np.linspace(-1.0, 1.0, 201)
        V = legendre64.values(xs)
        for n in range(legendre64.nmax + 1):
            e = np.zeros(n + 1)
            e[n] = 1.0
            np.testing.assert_allclose(reconstruct(e, legendre64)(xs), V[n], rtol=0, atol=1e-12)

    def test_degree_guard(self, legendre64):
        with pytest.raises(ValueError):
            expand(UniPoly((0.0,) * 65 + (1.0,)), legendre64)
        # one coefficient per Q_0..Q_nmax: more would be dropped, not summed
        with pytest.raises(ValueError):
            reconstruct([0.0] * 9 + [5.0], jacobi_system(0.0, 0.0, 8))


class TestDerivMatrix:
    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (0.3, -0.2), (-0.5, 1.5)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_columns_are_derivatives(self, alpha, beta, k):
        # column j, summed over Q_0..Q_n, is Q_j^(k)
        sys_ = jacobi_system(alpha, beta, 16)
        D = sys_.deriv_matrix(16, k)
        xs = np.linspace(-1.0, 1.0, 9)
        for j in range(17):
            want = sys_.polys[j].deriv(k)(xs)
            got = reconstruct(D[:, j], sys_)(xs)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * max(1.0, np.max(np.abs(want))))

    def test_leading_block_and_order_zero(self, legendre64):
        D = legendre64.deriv_matrix(64, 2)
        np.testing.assert_array_equal(legendre64.deriv_matrix(8, 0), np.eye(9))
        np.testing.assert_allclose(legendre64.deriv_matrix(8, 2), D[:9, :9], rtol=1e-15, atol=0)
        assert not np.any(np.tril(D, 1))  # each order lowers the degree

    def test_bad_order_or_degree(self, legendre64, unit_interval):
        with pytest.raises(ValueError):
            legendre64.deriv_matrix(8, -1)
        with pytest.raises(ValueError):
            legendre64.deriv_matrix(65, 1)
        with pytest.raises(ValueError):
            legendre64.sup_table(unit_interval, -1)


class TestGrowthExponent:
    def test_chebyshev_flat(self, chebsys64, unit_interval):
        fit = growth_exponent(chebsys64, unit_interval)
        assert abs(fit.slope_ls) <= 0.05

    def test_legendre_half(self, legendre64, unit_interval):
        # oracle: sup |Q_n| = Q_n(1) = sqrt(2n+1), slope 1/2
        sups = legendre64.sup_table(unit_interval)
        for n in (8, 32, 64):
            assert sups[n] == pytest.approx(math.sqrt(2 * n + 1), rel=1e-10)
        fit = growth_exponent(legendre64, unit_interval)
        assert fit.slope_ls == pytest.approx(0.5, abs=0.05)

    def test_union_sups_reach_the_endpoint_value(self, legendre64):
        # both unions contain x = 1, where |Q_n| peaks at sqrt(2n+1)
        gap = UnionSet((Interval(-1.0, -0.5), Interval(0.5, 1.0)))
        point = UnionSet((Interval(-0.5, 0.5),), (1.0,))
        for E in (gap, point):
            sups = legendre64.sup_table(E)
            np.testing.assert_allclose(sups, np.sqrt(2 * np.arange(65) + 1), rtol=0, atol=1e-12)
        assert growth_exponent(legendre64, gap).slope_ls == pytest.approx(0.5, abs=0.05)

    def test_needs_tail(self):
        with pytest.raises(ValueError):
            growth_exponent(jacobi_system(0.0, 0.0, 8), Interval(-1.0, 1.0))


class TestCsvExport:
    def test_columns_and_meta(self, tmp_path, chebsys64, unit_interval):
        path = tmp_path / "sys.csv"
        chebsys64.export_csv(path, E=unit_interval, meta={"seed": 7})
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed: 7"
        assert lines[1] == "n,a_n,b_n,supnorm_E"
        first = lines[2].split(",")
        assert first[0] == "0" and first[3] == "1.0"
