import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import legendre as npleg

from markovlab import (
    Bound,
    ChebSeries,
    DerivOp,
    DimensionMismatchError,
    DirOp,
    HomOp,
    Interval,
    LpSpec,
    MixedDerivSpec,
    MultiPoly,
    PrecisionOverflowError,
    QmsSpec,
    RationalComplex,
    SchurSpec,
    SpectralityError,
    SupPlusLpSpec,
    SupSpec,
    TaylorDiskSpec,
    UniPoly,
    UnionSet,
    asymptotic_exponent,
    bernstein_schur_check,
    chebyshev_measure,
    disk_boundary,
    domains,
    factor_table,
    family_exponent,
    fit_exponent,
    fit_power_law,
    jacobi_measure,
    jacobi_system,
    laplacian_vs_gradient_check,
    lebesgue_measure,
    markov_factor_l2,
    markov_factor_search,
    qms_exact_exponent,
    qms_log_norm,
    qms_norm_exact,
    spectral_exponent_floor,
)
from markovlab import exponents, norms
from markovlab.chebseries import chebyshev_t
from markovlab.domains import Measure
from markovlab.exponents import (
    DEFAULT_SEED,
    _ASCENT_ROUNDS,
    _BatchedRatio,
    _PlaneRatio,
    _PolyRatio,
    _ascend,
    _candidates_1d,
    _candidates_2d,
    _coarse_finalists,
    _coarse_ratio,
    _quotient,
    _ratios,
    _sampled_side,
    _search_row,
    operator_from_json,
    read_table_csv,
)
from markovlab.fitting import max_pairwise_slope
from markovlab.norms import _schur_weight, spec_nvars

from conftest import legendre_derivative_at_one

E = Interval(-1.0, 1.0)
MU = lebesgue_measure()


class TestMarkovFactorL2:
    def test_constants_annihilated(self):
        assert markov_factor_l2(0, 1, MU).factor == 0.0

    def test_degree_one_sqrt3(self):
        # hand oracle: basis {1, sqrt(3) x}; operator matrix [[0, sqrt(3)], [0, 0]]
        hand = np.linalg.svd(np.array([[0.0, math.sqrt(3.0)], [0.0, 0.0]]))[1][0]
        got = markov_factor_l2(1, 1, MU).factor
        assert got == pytest.approx(hand, abs=1e-10)
        assert got == pytest.approx(math.sqrt(3.0), abs=1e-8)

    def test_degree_two_sqrt15(self, rng):
        sys_ = jacobi_system(0.0, 0.0, 2)
        res = markov_factor_l2(2, 1, MU, sys=sys_)
        assert res.factor == pytest.approx(math.sqrt(15.0), abs=1e-8)
        # brute force: no random unit coefficient vector beats the factor
        D = sys_.deriv_matrix(2, 1)
        V = rng.standard_normal((3, 10_000))
        V /= np.linalg.norm(V, axis=0)
        ratios = np.linalg.norm(D @ V, axis=0)
        assert np.max(ratios) <= res.factor + 1e-12

    def test_rayleigh_quotient_of_witness(self):
        sys_ = jacobi_system(0.0, 0.0, 8)
        res = markov_factor_l2(8, 2, MU, sys=sys_)
        D = sys_.deriv_matrix(8, 2)
        v = res.witness
        assert np.linalg.norm(D @ v) / np.linalg.norm(v) == pytest.approx(
            res.factor, rel=1e-9
        )

    def test_monotone_in_degree(self):
        vals = [markov_factor_l2(n, 1, MU).factor for n in range(1, 10)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_chain_bound(self):
        # M_k(n) <= M_1(n) * M_1(n-1) * ... * M_1(n-k+1) on exact tables
        for n in (4, 8, 12):
            for k in (2, 3):
                lhs = markov_factor_l2(n, k, MU).factor
                rhs = 1.0
                for i in range(k):
                    rhs *= markov_factor_l2(n - i, 1, MU).factor
                assert lhs <= rhs * (1 + 1e-12)

    @pytest.mark.parametrize("a, b", [(0.0, 3.0), (-2.0, 2.0), (0.0, 1.0), (1.0, 5.5),
                                      (100.0, 101.0), (1e-3, 1.001e-3), (-1e6, 1e6)])
    @pytest.mark.parametrize("n, k", [(32, 1), (64, 2), (128, 1), (128, 3), (200, 1), (256, 3)])
    def test_shifted_interval_scales_the_unit_factor(self, a, b, n, k):
        # x -> (2x - a - b)/(b - a) maps L2 of [a, b] isometrically onto L2 of
        # [-1, 1] and scales the k-th derivative by (2/(b - a))^k
        got = markov_factor_l2(n, k, lebesgue_measure(a, b)).factor
        want = (2.0 / (b - a)) ** k * markov_factor_l2(n, k, MU).factor
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_degree_beyond_system(self):
        sys_ = jacobi_system(0.0, 0.0, 4)
        with pytest.raises(ValueError):
            markov_factor_l2(8, 1, MU, sys=sys_)

    @pytest.mark.parametrize("n", [128, 200, 256])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("family", ["legendre", "chebyshev"])
    def test_matches_closed_form_matrix(self, family, n, k):
        # reference: d^k on the orthonormal Legendre / Chebyshev basis, column j
        # the scaled P_j or T_j differentiated by numpy's closed-form map
        if family == "legendre":
            mu, der, scale = MU, npleg.legder, np.sqrt(2.0 * np.arange(n + 1) + 1.0)
        else:
            mu, der, scale = chebyshev_measure(), npcheb.chebder, np.r_[1.0, np.full(n, math.sqrt(2.0))]
        ref = der(np.diag(scale), k, axis=0) / scale[: n + 1 - k, None]
        want = np.linalg.svd(ref, compute_uv=False)[0]
        assert markov_factor_l2(n, k, mu).factor == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("mu", [lebesgue_measure(), jacobi_measure(0.7, -0.3),
                                    lebesgue_measure(0.5, 4.0)],
                             ids=["lebesgue", "jacobi", "shifted"])
    def test_needs_no_quadrature(self, monkeypatch, mu):
        def fail(*args, **kwargs):
            raise AssertionError("the L2 path asked for a Gauss rule")

        monkeypatch.setattr(domains, "gauss_jacobi", fail)
        monkeypatch.setattr(Measure, "rule_for_degree", fail)
        assert markov_factor_l2(64, 2, mu).factor > 0.0

    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.0, 3.0)])
    @pytest.mark.parametrize("n", [8, 32, 64])
    @pytest.mark.parametrize("k", [1, 2])
    def test_unit_tabulated_weight_is_lebesgue(self, a, b, n, k):
        # a tabulated weight takes the Stieltjes system; weight 1 is Lebesgue
        got = markov_factor_l2(n, k, domains.tabulated_measure(np.ones_like, a, b)).factor
        want = markov_factor_l2(n, k, lebesgue_measure(a, b)).factor
        assert got == pytest.approx(want, rel=1e-12, abs=0)


class TestMarkovFactorSearch:
    def test_identity_operator(self):
        assert markov_factor_search(5, DerivOp(0), SupSpec(E)).factor == 1.0

    def test_degree_one(self):
        # |a| / max|ax + b| is maximized by b = 0, giving exactly 1
        res = markov_factor_search(1, DerivOp(1), SupSpec(E))
        assert res.factor == pytest.approx(1.0, abs=1e-12)
        assert res.witness_id.startswith("chebyshev:1")

    def test_degree_two_attains_four(self):
        res = markov_factor_search(2, DerivOp(1), SupSpec(E))
        assert res.factor >= 4.0 * (1 - 1e-12)
        assert res.factor == pytest.approx(4.0, rel=1e-9)

    @pytest.mark.parametrize("n", [4, 8])
    def test_box_attains_markov_in_each_variable(self, n):
        # the search in two variables: Markov's inequality in each variable
        # bounds both partials by n^2 on the square, and T_n(y) attains it
        res = markov_factor_search(n, DerivOp(1), SupSpec(domains.box_region()))
        assert res.factor == pytest.approx(n * n, rel=1e-12)
        assert res.witness_id == f"chebprod:0,{n}"

    def test_directional_operator_univariate(self):
        res = markov_factor_search(2, DirOp((2.0,)), SupSpec(E))
        assert res.factor == pytest.approx(8.0, rel=1e-9)
        # the ascent runs here, and scaling by 2 is exact in binary
        one = markov_factor_search(16, DerivOp(1), SchurSpec(0.5))
        two = markov_factor_search(16, DirOp((2.0,)), SchurSpec(0.5))
        assert one.witness_id.endswith("+ascent")
        assert two.factor == 2.0 * one.factor
        assert two.witness_id == one.witness_id
        assert np.array_equal(two.witness.coef, one.witness.coef)

    @pytest.mark.xfail(strict=True, reason="Chebyshev terms cancel on the circle (ROADMAP item 1, step 2)")
    def test_circle_attains_bernstein(self):
        # Bernstein: max|p'| <= n max|p| on |z| = 1, with equality for z^n
        res = markov_factor_search(128, DerivOp(1), SupSpec(disk_boundary()))
        assert res.factor == pytest.approx(128.0, abs=1e-9)

    def test_complex_direction(self):
        # |i p'| = |p'|: the factors of D_(i) are those of d/dx
        for n in (2, 8):
            table = factor_table(SupSpec(E), DirOp((1j,)), [n])
            want = factor_table(SupSpec(E), DerivOp(1), [n]).factors()[0]
            assert table.factors()[0] == pytest.approx(want, rel=1e-12)
        assert table.op == "dirop:1j"
        assert DirOp((1.0, -2.0)).label == "dirop:1.0,-2.0"


F03 = Interval(0.0, 3.0)
GAP = UnionSet((Interval(-1.0, -0.5), Interval(0.5, 1.0)))
PARITY_SPECS = {
    "sup[-1,1]": SupSpec(E),
    "sup[0,3]": SupSpec(F03),
    "mixed_deriv[-1,1]": MixedDerivSpec(E),
    "mixed_deriv[0,3]": MixedDerivSpec(F03),
    "taylor_disk[-1,1]": TaylorDiskSpec(E, 1e-6),
    "taylor_disk[0,3]": TaylorDiskSpec(F03, 1e-6),
    "schur": SchurSpec(0.5),
    "sup+l2": SupPlusLpSpec(E, MU, 2.0),
    "l4": LpSpec(MU, 4.0),
    "sup-gap": SupSpec(GAP),
    "sup[-1,0]+points": SupSpec(UnionSet((Interval(-1.0, 0.0),), (1.0, 1.5j))),
    "sup-circle": SupSpec(disk_boundary()),
    "taylor_disk-gap": TaylorDiskSpec(GAP, 1e-6),
    "mixed_deriv-circle": MixedDerivSpec(disk_boundary()),
}


def _trial(coarse, coef, vals, i, step):
    """coef with ``step`` added to entry i, and its coarse ratio, by the
    matrix as one rank-1 update, as trials were taken before trial blocks;
    vals = coarse.values(coef)."""
    trial = coef.copy()
    trial[i] += step
    col = vals + (trial[i] - coef[i]) * coarse.matrix[:, i]
    return trial, float(coarse.ratios(col[:, None])[0])


def _block_of_one(coarse, coef, i, step):
    """The coarse ratio of one trial, as the search takes it: a block of one."""
    _, r = coarse.first_gain(coef, coarse.values(coef), np.array([i]), np.array([step]), -math.inf)
    return r


def _sequential_ascent(coarse, coef, cur_ratio, rounds):
    """The coordinate ascent one trial at a time, as the search ran it before
    trial blocks: the reference ``_ascend`` must equal bitwise.  Also counts
    the skipped iterations."""
    coef = np.array(coef, dtype=float, copy=True)
    steps = np.full(coef.size, 0.25 * max(np.max(np.abs(coef)), 1e-6))
    vals = coarse.values(coef)
    improved, skips = False, 0
    for it in range(rounds):
        i = it % coef.size
        if steps[i] < 1e-9:
            skips += 1
            continue
        gained = False
        for sgn in (1.0, -1.0):
            trial, r = _trial(coarse, coef, vals, i, sgn * steps[i])
            if r > cur_ratio * (1 + 1e-14):
                coef, cur_ratio, gained, improved = trial, r, True, True
                vals = coarse.values(coef)
                break
        if not gained:
            steps[i] /= 2.0
    return (coef if improved else None), skips


def _sequential_search(n, op, q, budget, seed):
    """``markov_factor_search`` on a set in one variable with the sequential
    ascent: (factor, witness id, witness coefficient bytes, skipped iterations)."""
    rng = np.random.default_rng(seed + 7919 * n)
    names, C = _candidates_1d(n, rng, budget)
    coarse = _coarse_ratio(op, q, n)
    screened = coarse.screen(C)
    best = max(range(len(C)), key=lambda j: (screened[j], -j))
    finalists = [(names[best], ChebSeries(C[best]))]
    coef, skips = _sequential_ascent(coarse, C[best], screened[best], _ASCENT_ROUNDS * budget)
    if coef is not None:
        finalists.append((names[best] + "+ascent", ChebSeries(coef)))
    certified = _ratios(op, q, [p for _, p in finalists], refine=True)
    j = max(range(len(finalists)), key=lambda j: (certified[j], -j))
    return float(max(certified[j], 0.0)), finalists[j][0], finalists[j][1].coef.tobytes(), skips


def _sides(q, order, n):
    """(table, grids, rule) of each side of the ratio: q's ``terms`` table at
    degree n and at the image degree, the sup points of each of its terms
    and its L^p Gauss rule (None without an L^p part)."""
    sides = []
    for deg in (n, max(n - order, 0)):
        t = q.terms(deg)
        grids = [domains.sup_points(t.set, max(deg - k, 0)) for k, _, _ in t.sups]
        sides.append((t, grids, t.lp[0].rule_for_degree(deg * int(t.lp[1])) if t.lp else None))
    return sides


def _side_totals(t, grids, sup, rule, lp):
    """One side's sums, one per column: the maxima of its sup blocks ``sup``
    (one per term, times the Schur weight) with their weights, in row
    order, plus its L^p power sum at the values ``lp`` on its rule."""
    total = 0.0
    if grids:
        sup = [np.abs(v) * (_schur_weight(t.alpha, g)[:, None] if t.alpha else 1.0) for v, g in zip(sup, grids)]
        coeffs = np.asarray([scale / divisor for _, scale, divisor in t.sups], dtype=float)
        total = np.add.accumulate(coeffs[:, None] * np.array([v.max(axis=0) for v in sup]))[-1]
    if rule:
        s = int(t.lp[1])
        total = total + np.add.accumulate(rule[1][:, None] * np.abs(lp) ** s)[-1] ** (1.0 / s)
    return total.tolist()


def _two_call_ratios(q, order, n, vals):
    """Reference: the coarse ratios of the columns of vals, one reduction per
    side of the ratio.  The rows of vals are one block per derivative order o
    either side reads, p^(o) at the sup points of degree n - o in ascending
    o, then the L^p Gauss nodes of both sides; the denominator's term of
    order i reads block i and the numerator's term of order j block j +
    order."""
    sides = _sides(q, order, n)
    reads = [[k for k, _, _ in sides[0][0].sups], [j + order for j, _, _ in sides[1][0].sups]]
    points = {o: g for (_, grids, _), ks in zip(sides, reads) for o, g in zip(ks, grids)}
    ends = np.cumsum([points[o].size for o in sorted(points)])
    block = dict(zip(sorted(points), np.split(vals[: ends[-1] if points else 0], ends[:-1])))
    lp_vals = np.split(vals[ends[-1] if points else 0 :], [sides[0][2][0].size if sides[0][2] else 0])
    totals = [_side_totals(t, grids, [block[o] for o in ks], rule, lp)
              for (t, grids, rule), ks, lp in zip(sides, reads, lp_vals)]
    return [_quotient(max(0.0, im), d) for d, im in zip(*totals)]


def _two_matrix_ratios(q, order, n, X):
    """Reference: the coarse ratios of the coefficient columns X from two
    matrices, one per side of the ratio, each term's values from its own
    derivative (``chebder``) at its own degree: the numerator's term j is
    (D^order p)^(j)."""
    (t, grids, rule), (num_t, num_grids, num_rule) = _sides(q, order, n)
    A = npcheb.chebder(np.eye(n + 1), order)
    nk = A.shape[0] - 1

    def values(x, deg, k, C):  # the k-th derivative at x of the series of degree deg in C's columns
        return npcheb.chebvander(x, max(deg - k, 0)) @ npcheb.chebder(C, k)

    den = [values(g, n, k, X) for (k, _, _), g in zip(t.sups, grids)]
    num = [values(g, nk, j, A @ X) for (j, _, _), g in zip(num_t.sups, num_grids)]
    lp = [npcheb.chebvander(r[0], d) @ C for r, d, C in ((rule, n, X), (num_rule, nk, A @ X))] if rule else [0, 0]
    totals = [_side_totals(t, grids, den, rule, lp[0]), _side_totals(num_t, num_grids, num, num_rule, lp[1])]
    return [_quotient(max(0.0, im), d) for d, im in zip(*totals)]


class TestBatchedSearch:
    """The search's matrix path against the per-polynomial coarse ratio."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(PARITY_SPECS))
    def test_screen_matches_per_polynomial(self, name, k):
        q, op, n = PARITY_SPECS[name], DerivOp(k), 12
        _, C = _candidates_1d(n, np.random.default_rng(5), 1)
        cands = [ChebSeries(c) for c in C]
        coarse = _coarse_ratio(op, q, n)
        assert isinstance(coarse, _BatchedRatio)
        want = [_ratios(op, q, [p], refine=False)[0] for p in cands]
        np.testing.assert_allclose(coarse.screen(C), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("budget", [1, 2])
    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("name", sorted(PARITY_SPECS))
    def test_search_matches_sequential_ascent(self, name, seed, budget):
        # the search entry itself: sup on one interval has a closed-form row
        q, skipped = PARITY_SPECS[name], 0
        for k in (1, 2, 3):
            for n in (3, 8, 12, 24):
                res = _search_row(n, DerivOp(k), q, budget, seed)
                *want, skips = _sequential_search(n, DerivOp(k), q, budget, seed)
                assert [res.factor, res.witness_id, res.witness.coef.tobytes()] == want
                skipped += skips
        # n = 3 runs 50 or 100 rounds per coordinate: steps fall below 1e-9
        assert skipped > 0

    def test_large_taylor_disk_matrix_not_built(self):
        # its denominator's points grow like 4*deg^3 values; past degree 62
        # they pass _PASS_MAX_ENTRIES, _sampled_side declines them, and the
        # search keeps the per-polynomial path.  The numerator reads the
        # denominator's blocks, so at degree 62 the matrix holds no more
        q = TaylorDiskSpec(E, 0.5)
        for n, batched in ((62, True), (63, False)):
            assert (_sampled_side(q, n) is not None) == batched
            coarse = _coarse_ratio(DerivOp(1), q, n)
            assert type(coarse) is (_BatchedRatio if batched else _PolyRatio)
        assert _coarse_ratio(DerivOp(1), q, 62).matrix.size <= norms._PASS_MAX_ENTRIES

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 8, 20, 40])
    @pytest.mark.parametrize("q", [TaylorDiskSpec(E, 0.5), TaylorDiskSpec(F03, 0.5), TaylorDiskSpec(GAP, 0.5),
                                   MixedDerivSpec(E)],
                             ids=["taylor_disk[-1,1]", "taylor_disk[0,3]", "taylor_disk-gap", "mixed_deriv"])
    def test_shared_blocks_match_two_matrices(self, q, n, k, rng):
        # each derivative order is sampled once, and the numerator's term j
        # reads the block of order j + k: every screened and every trial
        # ratio is that of two matrices, one per side, within 1e-13
        coarse = _coarse_ratio(DerivOp(k), q, n)
        orders = {o for o, _, _ in q.terms(n).sups} | {j + k for j, _, _ in q.terms(max(n - k, 0)).sups}
        assert coarse.starts.size == len(orders)
        X = rng.standard_normal((9, n + 1))
        np.testing.assert_allclose(coarse.screen(X), _two_matrix_ratios(q, k, n, X.T), rtol=1e-13, atol=0)
        coef, idx, steps = X[0], rng.integers(0, n + 1, 12), rng.standard_normal(12) / 4
        seen, ratios = [], coarse.ratios
        coarse.ratios = lambda block: seen.append(ratios(block)) or seen[-1]
        assert coarse.first_gain(coef, coarse.values(coef), idx, steps, math.inf) is None
        trials = np.tile(coef, (12, 1))
        trials[np.arange(12), idx] += steps
        np.testing.assert_allclose(seen[0], _two_matrix_ratios(q, k, n, trials.T), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("width", [1, 7, 39])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(PARITY_SPECS))
    def test_ratios_match_two_call_reduction(self, name, k, width, rng):
        # one reduction over both sides gives bitwise each side's own
        q, op, n = PARITY_SPECS[name], DerivOp(k), 12
        coarse = _coarse_ratio(op, q, n)
        vals = coarse.values(rng.standard_normal((n + 1, width)))
        assert coarse.ratios(vals) == _two_call_ratios(q, k, n, vals)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("screen", [_coarse_ratio, _PolyRatio])
    def test_overflowed_denominator_is_nan(self, screen):
        # T_2 at 1e200 overflows: q(p) = inf is no ratio, not best / inf = 0
        op, q = DerivOp(1), SupSpec(Interval(0.0, 1e200))
        coarse = screen(op, q, 2) if screen is _coarse_ratio else screen(op, q)
        assert all(math.isnan(r) for r in coarse.screen([chebyshev_t(2).coef, [1.0, 1.0, 1.0]]))
        assert math.isnan(_ratios(op, q, [chebyshev_t(2)], refine=True)[0])
        with pytest.raises(PrecisionOverflowError):
            _search_row(2, op, q, 1, DEFAULT_SEED)

    @pytest.mark.parametrize("name", sorted(PARITY_SPECS))
    def test_block_ratio_independent_of_width(self, name, rng):
        # each trial of a block, of any width, gets bitwise the ratio a block
        # of one gives it: the reduction sums its rows in one order
        op, n = DerivOp(1), 24
        coarse = _coarse_ratio(op, PARITY_SPECS[name], n)
        coef = rng.standard_normal(n + 1)
        idx, steps = rng.integers(0, n + 1, 39), rng.standard_normal(39) / 4
        alone = [_block_of_one(coarse, coef, i, step) for i, step in zip(idx, steps)]
        seen, ratios = [], coarse.ratios
        coarse.ratios = lambda block: seen.append(ratios(block)) or seen[-1]
        vals = coarse.values(coef)
        for width in (2, 7, 16, 39):
            assert coarse.first_gain(coef, vals, idx[:width], steps[:width], math.inf) is None
        assert [len(block) for block in seen] == [2, 7, 16, 39]
        assert all(block == alone[: len(block)] for block in seen)

    @pytest.mark.parametrize("q", [SupSpec(F03), SupSpec(E)], ids=["sup[0,3]", "sup[-1,1]"])
    def test_degree_drop_stays_on_the_matrix(self, q, rng):
        # a vector whose top entry is 0 is sampled at the degree-n points,
        # as any other: its ratio is the matrix's, alone and inside a block
        op, n = DerivOp(1), 10
        coarse = _coarse_ratio(op, q, n)
        coef = rng.standard_normal(n + 1)
        coef[n] = 0.5
        drop, r = _trial(coarse, coef, coarse.values(coef), n, -0.5)
        assert drop[n] == 0.0 and ChebSeries(drop).degree == n - 1
        assert r == _block_of_one(coarse, coef, n, -0.5)
        assert r == pytest.approx(coarse.ratios(coarse.values(drop)[:, None])[0], rel=1e-12)
        # trials from a vector whose top entry is 0, the top one included
        for start, idx in ((coef, [n, 3, n, 3]), (drop, [3, n, 3, n])):
            vals, steps = coarse.values(start), np.array([-0.5, 0.25, 0.125, -0.5])
            alone = [_trial(coarse, start, vals, i, step)[1] for i, step in zip(idx, steps)]
            assert alone == [_block_of_one(coarse, start, i, step) for i, step in zip(idx, steps)]
            for floor in [-math.inf, *alone]:
                want = next(((j, a) for j, a in enumerate(alone) if a > floor), None)
                assert coarse.first_gain(start, vals, np.array(idx), steps, floor) == want
        # an ascent whose -step trial on the top entry lands on exactly 0
        coef[n] = 0.25 * np.max(np.abs(coef[:n]))
        (ratio,) = coarse.ratios(coarse.values(coef)[:, None])
        want, _ = _sequential_ascent(coarse, coef, ratio, _ASCENT_ROUNDS)
        assert _ascend(coarse, coef, ratio, _ASCENT_ROUNDS).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["sup[-1,1]", "schur", "taylor_disk[-1,1]", "sup+l2"])
    def test_certification_matches_one_at_a_time(self, name, rng):
        # finalists of several degrees, certified in one refined pass
        q, op = PARITY_SPECS[name], DerivOp(2)
        finalists = [ChebSeries(rng.standard_normal(n + 1)) for n in (3, 12, 12, 20)]
        finalists.append(chebyshev_t(12))
        want = [_ratios(op, q, [p], refine=True)[0] for p in finalists]
        assert _ratios(op, q, finalists, refine=True) == want

    @pytest.mark.parametrize(
        "n, op, q, factor, witness",
        [
            (8, DerivOp(1), SupPlusLpSpec(E, MU, 2.0), 45.7357463188062, "chebyshev:8+ascent"),
            (16, DerivOp(1), SchurSpec(0.5), 99.5712200869218, "legendre:16+ascent"),
            (14, DerivOp(2), TaylorDiskSpec(E, 1e-6), 12737.9924948635, "chebyshev:14"),
            # far below V. Markov's 170.67 on [0, 3]: pinned only to show the row is unchanged
            (16, DerivOp(1), SupSpec(F03), 24.6195556806635, "random:4+ascent"),
            (8, DerivOp(2), SupSpec(GAP), 1346.5586193833124, "chebyshev:8+ascent"),
            (16, DerivOp(1), SupSpec(UnionSet((E,), (1.5j,))), 7140.1974176117465,
             "monomial:16+ascent"),
            (16, DerivOp(2), SupSpec(disk_boundary()), 239.99999999999775, "monomial:16"),
            (8, DerivOp(1), MixedDerivSpec(GAP), 36.03662230255499, "random:19+ascent"),
        ],
        ids=["sup+l2", "schur", "taylor_disk", "sup[0,3]", "sup-gap", "sup[-1,1]+1.5i",
             "sup-circle", "mixed_deriv-gap"],
    )
    def test_rows_unchanged(self, n, op, q, factor, witness):
        res = _search_row(n, op, q, 1, DEFAULT_SEED)
        assert res.factor == pytest.approx(factor, rel=1e-12)
        assert res.witness_id == witness


BOX81 = domains.box_region(grid=81)


class TestPolyRatioScreen:
    """The per-polynomial evaluator, and on a plane region the stacked
    screen, take every candidate in one evaluation."""

    @pytest.mark.parametrize(
        "q, n",
        [(SupSpec(domains.box_region()), 4), (SupSpec(domains.box_region()), 8),
         (SupSpec(domains.cusp_region()), 4), (SupSpec(domains.cusp_region()), 8),
         (QmsSpec(1, 2), 12), (LpSpec(chebyshev_measure(), 3.0), 16),
         (SupPlusLpSpec(E, MU, 1.0), 8), (TaylorDiskSpec(E, 0.5), 63)],
        ids=["box-4", "box-8", "cusp-4", "cusp-8", "qms", "chebyshev-L3", "sup+L1", "taylor_disk-63"],
    )
    def test_screen_matches_one_at_a_time(self, q, n):
        op, rng = DerivOp(1), np.random.default_rng(DEFAULT_SEED + 7919 * n)
        _, C = (_candidates_2d if spec_nvars(q) == 2 else _candidates_1d)(n, rng, 1)
        coarse = _coarse_ratio(op, q, n)
        assert type(coarse) is (_PlaneRatio if spec_nvars(q) == 2 else _PolyRatio)
        want = [_ratios(op, q, [ChebSeries(c)], refine=False)[0] for c in C]
        assert np.array(coarse.screen(C)).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize(
        "op, q",
        [(DerivOp(2), SupSpec(BOX81)), (DirOp((0.6, -0.8)), SupSpec(BOX81)),
         (DirOp((Fraction(1, 3), 1j)), SupSpec(BOX81)), (HomOp((((2, 0), 1.0), ((0, 2), 1.0))), SupSpec(BOX81)),
         (HomOp((((1, 1), 2.0), ((2, 0), -1.0))), SupSpec(BOX81)), (DerivOp(1), MixedDerivSpec(BOX81, 1)),
         (DerivOp(1), SchurSpec(0.5, BOX81)), (DerivOp(1), TaylorDiskSpec(BOX81, 0.5))],
        ids=["deriv-2", "dirop", "dirop-exact-complex", "laplacian", "hop-mixed", "mixed_deriv", "schur",
             "taylor_disk"],
    )
    @pytest.mark.parametrize("n", [3, 8])
    def test_plane_screen_matches_one_at_a_time(self, op, q, n):
        # every operator kind and every plane norm: the stacked images and
        # their norms are bitwise each candidate's own, complex ones and
        # candidates of other shapes in the same screen included
        _, C = _candidates_2d(n, np.random.default_rng(DEFAULT_SEED + 7919 * n), 1)
        C = [*C, C[-1][: n // 2 + 1, :2], C[0] + 0.5j * C[-1], np.zeros((n + 1, n + 1))]
        coarse = _coarse_ratio(op, q, n)
        want = [_ratios(op, q, [ChebSeries(c)], refine=False)[0] for c in C]
        assert np.array(coarse.screen(C)).tobytes() == np.array(want).tobytes()


def _ascent_start(n, op, q, seed):
    """The coarse evaluator, start vector and ratio of a search's ascent."""
    _, C = _candidates_1d(n, np.random.default_rng(seed + 7919 * n), 1)
    coarse = _coarse_ratio(op, q, n)
    screened = coarse.screen(C)
    best = max(range(len(C)), key=lambda j: (screened[j], -j))
    return coarse, C[best], screened[best]


class TestAscentKernel:
    """``_ascend``'s blocks, planned on floats, against one trial at a time."""

    @pytest.mark.parametrize("k, F", [(1, F03), (2, F03), (1, Interval(-2.0, 2.0))],
                             ids=["[0,3] k=1", "[0,3] k=2", "[-2,2] k=1"])
    def test_acceptance_heavy_rows(self, k, F):
        # the F1 rows: nearly every block keeps a trial
        coarse, coef, ratio = _ascent_start(16, DerivOp(k), SupSpec(F), DEFAULT_SEED)
        blocks, kept, first_gain = [0], [0], coarse.first_gain

        def counted(*args):
            hit = first_gain(*args)
            blocks[0], kept[0] = blocks[0] + 1, kept[0] + (hit is not None)
            return hit

        coarse.first_gain = counted
        got = _ascend(coarse, coef, ratio, _ASCENT_ROUNDS)
        want, _ = _sequential_ascent(coarse, coef, ratio, _ASCENT_ROUNDS)
        assert got.tobytes() == want.tobytes()
        assert kept[0] > 0.8 * blocks[0]

    @pytest.mark.parametrize("k", [1, 2])
    def test_complex_matrix(self, k):
        # the union's point 1.5i makes the sampling matrix complex
        q = SupSpec(UnionSet((Interval(-1.0, 0.0),), (1.0, 1.5j)))
        coarse, coef, ratio = _ascent_start(12, DerivOp(k), q, 7)
        assert np.iscomplexobj(coarse.matrix)
        got = _ascend(coarse, coef, ratio, _ASCENT_ROUNDS)
        want, _ = _sequential_ascent(coarse, coef, ratio, _ASCENT_ROUNDS)
        assert got.tobytes() == want.tobytes()

    def test_per_polynomial_evaluator(self):
        # the same _ascend drives the per-polynomial ratio (odd s: no matrix)
        op, q, n, rounds = DerivOp(1), LpSpec(MU, 3.0), 6, 60
        coarse, coef, ratio = _ascent_start(n, op, q, 3)
        assert type(coarse) is _PolyRatio
        got = _ascend(coarse, coef, ratio, rounds)
        steps = np.full(n + 1, 0.25 * max(np.max(np.abs(coef)), 1e-6))
        for it in range(rounds):  # one trial at a time
            i = it % (n + 1)
            if steps[i] < 1e-9:
                continue
            for step in (steps[i], -steps[i]):
                trial = coef.copy()
                trial[i] += step
                r = _ratios(op, q, [ChebSeries(trial)], refine=False)[0]
                if r > ratio * (1 + 1e-14):
                    coef, ratio = trial, r
                    break
            else:
                steps[i] /= 2.0
        assert got.tobytes() == coef.tobytes()


class TestFactorTable:
    @pytest.mark.parametrize("q", [SchurSpec(0.5), SupPlusLpSpec(E, MU, 2.0), LpSpec(MU, 3.0), MixedDerivSpec(E),
                                   SupSpec(GAP), TaylorDiskSpec(F03, 0.5)],
                             ids=["schur", "sup+l2", "l3", "mixed_deriv", "sup-gap", "taylor_disk[0,3]"])
    def test_rows_below_the_order_are_exact_zeros(self, q, monkeypatch):
        # D^k sends every polynomial of degree < k to 0: no search runs, and
        # the row carries V. Markov's witness T_n
        calls, search = [], exponents._search_row
        monkeypatch.setattr(exponents, "_search_row", lambda *args: calls.append(args) or search(*args))
        for k in (1, 2, 3):
            for row in [*factor_table(q, DerivOp(k), range(k)).rows, markov_factor_search(0, DirOp((-2.0,)), q)]:
                assert (row.factor, row.method, row.witness_id) == (0.0, "Exact", f"chebyshev:{row.n}")
                assert row.witness.coef.tobytes() == chebyshev_t(row.n).coef.tobytes()
        assert not calls
        assert markov_factor_search(1, DerivOp(1), q).method == "LowerBound" and len(calls) == 1

    def test_candidates_drop_an_underflowed_monomial(self):
        # past n = 1075 the top coefficients of x^n, 2^(1-n), underflow to 0:
        # the monomial candidate goes, every other keeps degree n
        for n, monomial_kept in ((1075, True), (1076, False)):
            names, C = _candidates_1d(n, np.random.default_rng(0), 1)
            assert (f"monomial:{n}" in names) == monomial_kept
            assert C.shape == (len(names), n + 1) and C[:, n].all()
            assert names[:2] == [f"chebyshev:{n}", f"monomial:{n}" if monomial_kept else f"legendre:{n}"]

    def test_l2_rows_exact(self):
        tab = factor_table(LpSpec(MU, 2.0), DerivOp(1), [1, 2])
        assert [row.method for row in tab.rows] == ["Exact", "Exact"]
        assert tab.rows[0].factor == pytest.approx(math.sqrt(3.0), abs=1e-8)
        assert tab.rows[1].factor == pytest.approx(math.sqrt(15.0), abs=1e-8)

    def test_identity_column(self):
        tab = factor_table(SupSpec(E), DerivOp(0), [1, 2, 3])
        assert all(r.factor == 1.0 for r in tab.rows)

    def test_sup_rows_at_least_n_squared(self):
        # the search entry: factor_table's sup rows on [-1, 1] are V. Markov's n^2
        tab = factor_table(SupSpec(E), DerivOp(1), list(range(1, 9)))
        assert [(row.factor, row.method) for row in tab.rows] == [(n * n, "Exact") for n in range(1, 9)]
        for row in (_search_row(n, DerivOp(1), SupSpec(E), 1, DEFAULT_SEED) for n in range(1, 9)):
            assert row.factor >= row.n**2 * (1 - 1e-8)
            assert row.method == "LowerBound"

    def test_monotone_in_degree(self):
        union = SupSpec(UnionSet((Interval(-1.0, 0.0),), (1.0,)))
        for q, degrees in ((SupSpec(E), list(range(1, 9))), (union, [4, 8])):
            tab = factor_table(q, DerivOp(1), degrees)
            fs = tab.factors()
            assert all(a <= b * (1 + 1e-9) for a, b in zip(fs, fs[1:]))
        # the search finds 64 at n = 8, below the n = 4 row: the row repeats it
        low, high = tab.rows
        assert high.factor == low.factor > 64.0
        assert high.witness_id == "n=4:" + low.witness_id
        assert high.witness is low.witness

    @pytest.mark.parametrize(
        "q, op, method",
        [(LpSpec(MU, 2.0), DerivOp(2), "Exact"), (LpSpec(MU, 2.0), DerivOp(0), "Exact"),
         (SupSpec(GAP), DerivOp(1), "LowerBound"), (SupSpec(E), DerivOp(1), "Exact"),
         (SchurSpec(0.5), DirOp((2.0,)), "LowerBound")],
        ids=["l2", "l2-identity", "sup", "sup[-1,1]", "schur-dirop"],
    )
    def test_every_row_is_a_bound(self, q, op, method, tmp_path):
        tab = factor_table(q, op, [2, 5, 8])
        assert all(type(row) is Bound and row.method == method for row in tab.rows)
        assert tab.degrees() == [2, 5, 8]
        path = tmp_path / "t.csv"
        tab.write_csv(path)
        with open(path, newline="") as fh:
            recs = list(csv.DictReader(fh))
        assert [rec["certification"] for rec in recs] == [row.method for row in tab.rows]
        assert [rec["witness_id"] for rec in recs] == [row.witness_id for row in tab.rows]

    def test_factor_functions_return_bounds(self):
        l2 = markov_factor_l2(6, 1, MU)
        assert type(l2) is Bound and (l2.n, l2.method, l2.witness_id) == (6, "Exact", "l2-extremal")
        assert l2.witness.shape == (7,)
        ident = markov_factor_search(6, DerivOp(0), SupSpec(E))
        assert ident == Bound(6, 1.0, "identity", None, "Exact")
        res = _search_row(6, DerivOp(1), SupSpec(E), 1, DEFAULT_SEED)
        assert type(res) is Bound and (res.n, res.method) == (6, "LowerBound")
        assert type(res.witness) is ChebSeries
        exact = markov_factor_search(6, DerivOp(1), SupSpec(E))
        assert type(exact) is Bound and (exact.n, exact.method, exact.factor) == (6, "Exact", 36.0)
        assert type(exact.witness) is ChebSeries

    def test_deterministic_given_seed(self):
        t1 = factor_table(SupSpec(E), DerivOp(1), [2, 4, 6], seed=99)
        t2 = factor_table(SupSpec(E), DerivOp(1), [2, 4, 6], seed=99)
        assert t1.factors() == t2.factors()

    def test_csv_round_trip(self, tmp_path):
        tab = factor_table(LpSpec(MU, 2.0), DerivOp(1), [1, 2, 3, 4])
        path = tmp_path / "t.csv"
        tab.write_csv(path, meta={"seed": 5})
        meta, rows = read_table_csv(path)
        assert meta["seed"] == "5"
        assert [n for n, _ in rows] == [1, 2, 3, 4]
        assert rows[0][1] == pytest.approx(math.sqrt(3.0))
        header = path.read_text().splitlines()[1]
        assert header == "op,n,factor,certification,witness_id,log_n,log_factor"

    def test_fit_reproducible_from_csv(self, tmp_path):
        # repr round-trips floats, so the CSV fit equals the in-memory fit
        tab = factor_table(LpSpec(MU, 2.0), DerivOp(1), list(range(4, 33)))
        direct = fit_exponent(tab)
        path = tmp_path / "t.csv"
        tab.write_csv(path)
        _, rows = read_table_csv(path)
        from_csv = fit_power_law([n for n, _ in rows], [v for _, v in rows])
        assert from_csv.slope_ls == direct.slope_ls
        assert from_csv.slope_envelope == direct.slope_envelope


def _cheb_deriv_at_one(nmax, k):
    """T_n^(k)(1) for n = 0..nmax, exact: the integer power coefficients of
    T_n from the bare recurrence, differentiated k times at x = 1."""
    out, prev, cur = [], [1], [0, 1]
    for _ in range(nmax + 1):
        out.append(sum(c * math.perm(j, k) for j, c in enumerate(prev)))
        prev, cur = cur, [a - b for a, b in zip([0] + [2 * c for c in cur], prev + [0, 0])]
    return out


V_MARKOV_SETS = {"[-1,1]": E, "[0,3]": F03, "[-2,2]": Interval(-2.0, 2.0), "[0,1]": Interval(0.0, 1.0)}


class TestVMarkovRows:
    """Sup rows on one interval: V. Markov's T_n^(k)(1) (2/(b - a))^k."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", list(V_MARKOV_SETS))
    def test_rows_are_v_markov(self, name, k):
        iv, nmax = V_MARKOV_SETS[name], 256
        rows = factor_table(SupSpec(iv), DerivOp(k), range(nmax + 1)).rows
        scale = (2 / (Fraction(iv.b) - Fraction(iv.a))) ** k
        assert [row.factor for row in rows] == [float(d * scale) for d in _cheb_deriv_at_one(nmax, k)]
        assert {row.method for row in rows} == {"Exact"}
        assert [row.witness_id for row in rows] == [f"chebyshev:{n}" for n in range(nmax + 1)]
        assert all(row.witness.coef.tobytes() == chebyshev_t(row.n).coef.tobytes() for row in rows)
        assert rows[k - 1].factor == 0.0 and rows[k].factor > 0.0

    @pytest.mark.parametrize("a, b", [(0.0, 3.0), (-2.0, 2.0), (0.0, 1.0), (-1e6, 1e6), (1e-3, 1.001e-3)])
    def test_rows_scale_from_the_unit_interval(self, a, b):
        # M_k(n; sup_[a,b]) = (2/(b - a))^k M_k(n; sup_[-1,1])
        for k in (1, 2, 3):
            unit = factor_table(SupSpec(E), DerivOp(k), [4, 9, 64]).rows
            rows = factor_table(SupSpec(Interval(a, b)), DerivOp(k), [4, 9, 64]).rows
            for row, base in zip(rows, unit):
                assert row.factor == pytest.approx((2 / (b - a)) ** k * base.factor, rel=1e-14, abs=0)

    @pytest.mark.parametrize("name", ["[0,3]", "[-2,2]"])
    def test_witness_attains_the_row_in_the_reference_coordinate(self, name):
        # T_n(t), t = (2x - a - b)/(b - a): sup 1 on [a, b], and its k-th derivative is the row at x = b
        iv = V_MARKOV_SETS[name]
        for n, k in ((8, 1), (12, 2), (16, 3)):
            row = markov_factor_search(n, DerivOp(k), SupSpec(iv))
            p = npcheb.Chebyshev(row.witness.coef, domain=[iv.a, iv.b])
            assert np.max(np.abs(p(np.linspace(iv.a, iv.b, 2001)))) == pytest.approx(1.0, rel=1e-12)
            assert p.deriv(k)(iv.b) == pytest.approx(row.factor, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rows_bound_the_search(self, k):
        # the search's certified rows never pass V. Markov's, and come within 1e-12 of them
        for n in range(25):
            row = markov_factor_search(n, DerivOp(k), SupSpec(E))
            found = _search_row(n, DerivOp(k), SupSpec(E), 1, DEFAULT_SEED)
            assert found.method == "LowerBound"
            assert found.factor <= row.factor
            assert found.factor == pytest.approx(row.factor, rel=1e-12, abs=0)

    def test_only_a_plain_sup_on_one_interval(self, monkeypatch):
        # a set with fixed samples or two pieces, a weight, an L^p part or a
        # second order keeps the search; budget and seed leave exact rows alone
        calls = []
        search = exponents._search_row
        monkeypatch.setattr(exponents, "_search_row", lambda *args: calls.append(args) or search(*args))
        # taylor_disk at degree 0 is sup|p| alone
        for q, n in ((SupSpec(F03), 8), (SupSpec(UnionSet((F03,))), 8), (TaylorDiskSpec(F03, 0.5), 0)):
            assert markov_factor_search(n, DerivOp(1), q).method == "Exact"
        rows = [markov_factor_search(8, DerivOp(1), SupSpec(E), **kw) for kw in ({}, {"budget": 3, "seed": 5})]
        assert len({(row.factor, row.witness_id, row.method, row.witness.coef.tobytes()) for row in rows}) == 1
        assert not calls
        searched = [SupSpec(GAP), SupSpec(UnionSet((E,), (1.5,))), SchurSpec(0.5), SupPlusLpSpec(E, MU, 4.0),
                    TaylorDiskSpec(E, 1e-6), MixedDerivSpec(E), SupSpec(disk_boundary())]
        for q in searched:
            assert markov_factor_search(4, DerivOp(1), q).method == "LowerBound"
        assert len(calls) == len(searched)

    def test_a_row_below_the_double_range_raises(self):
        # 3.2e-398 exactly: a nonzero factor that rounds to 0.0 is no row
        with pytest.raises(PrecisionOverflowError, match="leaves the double range"):
            factor_table(SupSpec(Interval(0.0, 1e200)), DerivOp(2), [4])
        assert factor_table(SupSpec(Interval(0.0, 1e200)), DerivOp(1), [2, 3]).factors() == [8e-200, 1.8e-199]
        # a search row too, and |c| times a zero row stays 0
        with pytest.raises(PrecisionOverflowError, match="leaves the double range"):
            factor_table(SchurSpec(0.5), DirOp((Fraction(1, 10**400),)), [4])
        assert markov_factor_search(0, DirOp((Fraction(1, 10**400),)), SupSpec(E)).factor == 0.0

    @pytest.mark.xfail(strict=True, reason="F1: the search works in Chebyshev coefficients on [-1, 1] "
                                           "(ROADMAP item 1, step 1)")
    def test_taylor_disk_off_the_unit_interval_reaches_v_markov(self):
        # T_16 in the coordinate of [0, 3] gives 170.645; the search gives 24.62
        (row,) = factor_table(TaylorDiskSpec(F03, 1e-6), DerivOp(1), [16]).rows
        assert row.factor >= 170.47


class TestFitExponent:
    def test_exact_square_law(self):
        fit = fit_power_law([1, 2, 3, 4, 5, 6], [n * n for n in range(1, 7)], window=(1, 6))
        assert fit.slope_ls == pytest.approx(2.0, abs=1e-12)
        assert fit.slope_envelope == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_table(self):
        fit = fit_power_law([1, 2, 3, 4, 5], [7.0] * 5, window=(1, 5))
        assert fit.slope_ls == pytest.approx(0.0, abs=1e-12)

    def test_zero_rows_excluded(self):
        fit = fit_power_law([1, 2, 3, 4, 5], [0.0, 4.0, 9.0, 16.0, 25.0], window=(1, 5))
        assert fit.excluded == 1
        assert fit.slope_ls == pytest.approx(2.0, abs=1e-10)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2, 3], [1.0, 2.0, 3.0], window=(1, 3))

    def test_l2_legendre_slope(self):
        tab = factor_table(LpSpec(MU, 2.0), DerivOp(1), list(range(4, 65)))
        fit = fit_exponent(tab)
        assert 1.9 <= fit.slope_ls <= 2.1

    def test_envelope_dominates_ls(self, rng):
        for _ in range(20):
            ns = np.arange(2, 12)
            vals = np.exp(rng.uniform(-1, 1, ns.size))
            fit = fit_power_law(ns, vals, window=(2, 11))
            assert fit.slope_envelope >= fit.slope_ls - 1e-9


class TestFamilyExponent:
    def test_chebyshev_first_derivative(self, unit_interval):
        sys_ = jacobi_system(-0.5, -0.5, 256)
        fit = family_exponent(sys_, unit_interval, 1, (1, 256))
        assert fit.slope_ls == pytest.approx(2.0, abs=0.15)
        # oracle: the ratio at n is exactly T_n^(k)(1) = prod_{j<k} (n^2 - j^2)/(2j + 1)
        base = sys_.sup_table(unit_interval, 0)
        for k in (1, 2, 3):
            der = sys_.sup_table(unit_interval, k)
            for n in (4, 64, 256):
                want = math.prod((n * n - j * j) / (2 * j + 1) for j in range(k))
                assert der[n] / base[n] == pytest.approx(want, rel=1e-10)

    def test_legendre_family(self, unit_interval):
        sys_ = jacobi_system(0.0, 0.0, 128)
        fit = family_exponent(sys_, unit_interval, 1, (1, 128))
        assert fit.slope_ls == pytest.approx(2.0, abs=0.15)
        base = sys_.sup_table(unit_interval, 0)
        der = sys_.sup_table(unit_interval, 1)
        for n in (8, 32, 128):
            want = legendre_derivative_at_one(n, 1) / 1.0  # P_n(1) = 1
            assert der[n] / base[n] == pytest.approx(want, rel=1e-9)

    def test_explicit_family_list(self, unit_interval):
        from markovlab import chebyshev_t

        family = [chebyshev_t(n) for n in range(33)]
        fit = family_exponent(family, unit_interval, 1, (1, 32))
        assert fit.slope_ls == pytest.approx(2.0, abs=0.15)


class TestAsymptoticTrend:
    def test_linear_exponents(self):
        trend = asymptotic_exponent({k: 2.0 * k for k in range(1, 9)})
        assert trend.limit_estimate == pytest.approx(2.0, abs=1e-9)
        assert trend.tail_max == pytest.approx(2.0)

    def test_block_ceiling_sequence(self):
        # m_k = 3*ceil(k/3): ratios oscillate in (1, 3] but tend to 1
        fits = {k: 3.0 * math.ceil(k / 3) for k in range(1, 13)}
        trend = asymptotic_exponent(fits)
        assert max(trend.ratios) == pytest.approx(3.0)
        assert trend.limit_estimate <= 1.1
        assert trend.limit_estimate >= 0.5

    def test_needs_three_orders(self):
        with pytest.raises(ValueError):
            asymptotic_exponent({1: 2.0, 2: 4.0})


class TestQmsRows:
    M_VALUES = (Fraction(1, 2), 1, 2, 3)

    @pytest.mark.parametrize("k, want", [(1, (18, 7200, 871200, 3726450)),
                                         (2, (36, 14400, 1742400, 7452900))])
    def test_qms_2_3_rows(self, k, want):
        table = factor_table(QmsSpec(2, 3), DerivOp(k), [4, 8, 12, 16])
        assert [row.factor for row in table.rows] == list(want)
        assert {row.method for row in table.rows} == {"Exact"}
        if k == 1:
            assert [row.witness_id for row in table.rows] == [
                "monomial:3", "monomial:6", "monomial:12", "monomial:15"]
        for row in table.rows:
            # the witness is the power-basis x^i the qms norms read, and attains the row
            i = int(row.witness_id.split(":")[1])
            assert row.witness == UniPoly.monomial(i)
            ratio = qms_norm_exact(row.witness.deriv(k), 2, 3) / qms_norm_exact(row.witness, 2, 3)
            assert float(ratio) == row.factor

    def test_witness_keeps_its_degree_past_the_float_series(self):
        # x^4095 as a Chebyshev series loses its underflowed top coefficients
        row = markov_factor_search(4096, DerivOp(1), QmsSpec(0.5, 3))
        assert row.witness_id == "monomial:4095"
        assert row.witness == UniPoly.monomial(4095) and row.witness.degree == 4095

    @pytest.mark.parametrize("m", M_VALUES, ids=str)
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rows_are_the_best_monomial_ratio(self, m, s, k):
        # the largest q(D^k x^i) / q(x^i) over i <= n, by the exact norm for
        # integer m and in logs for m = 1/2; attained first by the witness
        ratios = []
        for i in range(17):
            x_i = UniPoly.monomial(i, 1)
            if m == int(m):
                ratios.append(qms_norm_exact(x_i.deriv(k), int(m), s) / qms_norm_exact(x_i, int(m), s))
            else:
                ratios.append(math.exp(qms_log_norm(x_i.deriv(k), m, s) - qms_log_norm(x_i, m, s)))
        for n in range(17):
            row = markov_factor_search(n, DerivOp(k), QmsSpec(m, s))
            best = max(ratios[: n + 1])
            assert row.method == "Exact"
            if m == int(m):
                assert row.factor == float(best)
                assert row.witness_id == f"monomial:{ratios.index(best)}"
            else:
                assert row.factor == pytest.approx(best, rel=1e-12, abs=0)
                assert ratios[int(row.witness_id.split(":")[1])] == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("m", M_VALUES, ids=str)
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_no_candidate_exceeds_the_row(self, m, s):
        n = 16
        names, coefs = _candidates_1d(n, np.random.default_rng(DEFAULT_SEED + 7919 * n), 1)
        for k in (1, 2, 3):
            row = markov_factor_search(n, DerivOp(k), QmsSpec(m, s)).factor
            assert max(_coarse_ratio(DerivOp(k), QmsSpec(m, s), n).screen(coefs)) <= row * (1 + 1e-12)

    @pytest.mark.parametrize("m, s, k", [(Fraction(1, 2), 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 1)])
    def test_no_search_finalist_exceeds_the_row(self, m, s, k):
        n, op, q = 16, DerivOp(k), QmsSpec(m, s)
        finalists = _coarse_finalists(n, op, q, 1, DEFAULT_SEED)
        certified = _ratios(op, q, [p for _, p in finalists], refine=True)
        assert 0 < max(certified) <= markov_factor_search(n, op, q).factor * (1 + 1e-12)

    ONE_VARIABLE_NORMS = {"2": QmsSpec(2, 3), "2.0": QmsSpec(2.0, 3), "1/2": QmsSpec(Fraction(1, 2), 3),
                          "sup": SupSpec(E), "sup[0,3]": SupSpec(F03), "taylor_disk": TaylorDiskSpec(E, 0.5),
                          "sup+l2": SupPlusLpSpec(E, MU, 2.0), "schur": SchurSpec(0.5), "l2": LpSpec(MU, 2.0)}

    @pytest.mark.parametrize("name", list(ONE_VARIABLE_NORMS))
    def test_every_one_variable_operator_is_c_times_d_k(self, name):
        # the row of c*D^k is the row of D^k with |c| times its factor, under
        # every norm (the search, the L2 path and the qms rule alike)
        q, n = self.ONE_VARIABLE_NORMS[name], 10
        d1, d2 = (factor_table(q, DerivOp(k), [n]).rows[0] for k in (1, 2))
        for op, c, base in [(DirOp((-3.0,)), 3.0, d1), (DirOp((2.0,)), 2.0, d1), (DirOp((-2.0,)), 2.0, d1),
                            (DirOp((Fraction(1, 3),)), 1 / 3, d1), (DirOp((1j,)), 1.0, d1),
                            (DirOp((RationalComplex(1, 1),)), math.sqrt(2.0), d1),
                            (HomOp((((2,), 2.0), ((2,), 0.5))), 2.5, d2)]:
            (row,) = factor_table(q, op, [n]).rows
            assert (row.n, row.witness_id, row.method) == (n, base.witness_id, base.method)
            assert np.array_equal(getattr(row.witness, "coef", row.witness),
                                  getattr(base.witness, "coef", base.witness))
            if c in (1.0, 2.0):  # exact in binary: bitwise
                assert row.factor == c * base.factor
            assert row.factor == pytest.approx(c * base.factor, rel=1e-15, abs=0)
        assert markov_factor_search(n, DerivOp(0), q).factor == 1.0
        for big in (1e308, Fraction(10**400, 3), RationalComplex(1, 10**400)):
            with pytest.raises(PrecisionOverflowError, match="leaves the double range"):
                factor_table(q, DirOp((big,)), [n])
        with pytest.raises(DimensionMismatchError):
            factor_table(q, DirOp((1.0, 1.0)), [n])

    def test_rows_never_call_the_search(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a qms row ran the search")

        monkeypatch.setattr(exponents, "_coarse_finalists", fail)
        rows = factor_table(QmsSpec(Fraction(1, 2), 2), DerivOp(1), [0, 1, 8]).rows
        assert [(row.factor, row.witness_id) for row in rows[:2]] == [(0.0, "monomial:0"), (1.0, "monomial:1")]


class TestQmsExactExponent:
    def test_first_order(self):
        rep = qms_exact_exponent(1, 2, 1)
        assert rep.exact_exponent == 2
        assert rep.fitted_slope == pytest.approx(2.0, abs=0.1)

    def test_full_block(self):
        for m, s in ((1, 2), (2, 3), (Fraction(1, 2), 4)):
            rep = qms_exact_exponent(m, s, s)
            assert rep.exact_exponent == s * Fraction(m)

    def test_known_value_twelve(self):
        rep = qms_exact_exponent(2, 3, 4)
        assert rep.exact_exponent == 12
        assert rep.fitted_slope == pytest.approx(12.0, abs=0.1)

    def test_ceiling_is_exact_on_rationals(self):
        rep = qms_exact_exponent(Fraction(1, 2), 3, 4)
        assert rep.exact_exponent == Fraction(3, 2) * 2  # s*m*ceil(4/3) = 3*(1/2)*2

    # slopes on the default window, from log((rs)!) taken as math.log of the
    # big integer; lgamma moves them by about 1e-12 relative at most
    CHAIN_SLOPES = {
        ("1/2", 2, 2): 1.0005184288697697,
        ("1/2", 2, 3): 2.0031153921219857,
        ("1/2", 3, 3): 1.5010369914689683,
        ("1/2", 3, 4): 3.0051929914269135,
        ("1/2", 4, 4): 2.0015555875013953,
        ("1/2", 4, 5): 4.007270657850466,
        ("1", 2, 2): 2.0010368577395394,
        ("1", 2, 3): 4.0062307842439715,
        ("1", 3, 3): 3.0020739829379366,
        ("1", 3, 4): 6.01038598285269,
        ("1", 4, 4): 4.003111175002791,
        ("1", 4, 5): 8.014541315701363,
        ("2", 2, 2): 4.002073715479079,
        ("2", 2, 3): 8.012461568487943,
        ("2", 3, 3): 6.004147965875873,
        ("2", 3, 4): 12.020771965704244,
        ("2", 4, 4): 8.006222350005581,
        ("2", 4, 5): 16.02908263140319,
    }

    @pytest.mark.parametrize("m, s, k", sorted(CHAIN_SLOPES))
    def test_chain_slopes_frozen(self, m, s, k):
        slope = qms_exact_exponent(Fraction(m), s, k).fitted_slope
        assert slope == pytest.approx(self.CHAIN_SLOPES[m, s, k], rel=1e-11, abs=0)

    @pytest.mark.parametrize("window, points", [((256, 256), 9), ((256, 1024), 1)],
                             ids=["one-degree-window", "one-point"])
    def test_single_degree_window_raises(self, window, points):
        with pytest.raises(ValueError, match="two distinct degrees"):
            qms_exact_exponent(1, 2, 1, n_window=window, n_points=points)


class TestLaplacianCheck:
    def test_order_two(self):
        rep = laplacian_vs_gradient_check(l=1)
        assert rep.gradient_fit.slope_ls == pytest.approx(2.0, abs=0.3)
        assert rep.exponent_ratio == pytest.approx(2.0, abs=0.3)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            laplacian_vs_gradient_check(l=0)


class TestSpectralFloor:
    def test_interval_sup(self):
        rep = spectral_exponent_floor(SupSpec(E))
        assert rep.passed
        assert rep.slope == pytest.approx(2.0, abs=0.1)

    def test_complex_disk(self):
        rep = spectral_exponent_floor(SupSpec(disk_boundary()))
        assert rep.passed
        assert rep.slope == pytest.approx(1.0, abs=0.1)

    def test_identity_chain_trivially_passes(self):
        rep = spectral_exponent_floor(SupSpec(E), k=0)
        assert rep.passed

    def test_non_spectral_rejected(self):
        with pytest.raises(SpectralityError):
            spectral_exponent_floor(LpSpec(MU, 2.0))


class TestBernsteinSchur:
    def test_small_sweep(self):
        rep = bernstein_schur_check(nmax=20, seed=3)
        assert rep.total_violations == 0
        assert rep.chebyshev_equality_defect <= 1e-8
        assert rep.corpus_size == 20 * 4


class TestApplyAll:
    """Operator images against hand-written derivatives."""

    LAPLACIAN = HomOp((((2, 0), 1.0), ((0, 2), 1.0)))

    def test_chebseries2d(self, rng):
        p = ChebSeries(rng.standard_normal((5, 4)))
        dxx, dyy = DerivOp(2).apply_all(p)
        np.testing.assert_array_equal(dxx.coef, p.deriv(2, axis=0).coef)
        np.testing.assert_array_equal(dyy.coef, p.deriv(2, axis=1).coef)
        (dv,) = DirOp((1.0, 2.0)).apply_all(p)
        np.testing.assert_array_equal(dv.coef, (p.deriv(1, axis=0) + 2.0 * p.deriv(1, axis=1)).coef)
        (lap,) = self.LAPLACIAN.apply_all(p)
        np.testing.assert_array_equal(lap.coef, (p.deriv(2, axis=0) + p.deriv(2, axis=1)).coef)

    def test_multipoly(self):
        f = MultiPoly({(3, 1): 2, (1, 2): -3, (0, 4): 1, (2, 0): 1}, 2)  # 2x^3y - 3xy^2 + y^4 + x^2
        assert DerivOp(2).apply_all(f) == [
            MultiPoly({(1, 1): 12, (0, 0): 2}, 2),
            MultiPoly({(1, 0): -6, (0, 2): 12}, 2),
        ]
        assert DirOp((1.0, 2.0)).apply_all(f) == [
            MultiPoly({(2, 1): 6, (0, 2): -3, (1, 0): 2, (3, 0): 4, (1, 1): -12, (0, 3): 8}, 2)
        ]
        (lap,) = self.LAPLACIAN.apply_all(f)
        assert lap == MultiPoly({(1, 1): 12, (0, 0): 2, (1, 0): -6, (0, 2): 12}, 2)

    def test_scaled_derivative(self):
        # in one variable every operator is c*D^k; c is exact where the coefficients are
        assert DerivOp(2).scaled_derivative() == (1, 2)
        assert DirOp((1.5,)).scaled_derivative() == (1.5, 1)
        assert HomOp((((3,), -2.0),)).scaled_derivative() == (-2.0, 3)
        assert HomOp((((2,), Fraction(1, 3)), ((2,), 1))).scaled_derivative() == (Fraction(4, 3), 2)
        for op in (DirOp((1.0, 2.0)), self.LAPLACIAN):
            with pytest.raises(DimensionMismatchError):
                op.scaled_derivative()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            DirOp((1.0, 2.0)).apply_all(ChebSeries([0.0, 1.0]))
        with pytest.raises(ValueError):
            DirOp((1.0,)).apply_all(ChebSeries(np.ones((2, 2))))
        with pytest.raises(ValueError):
            self.LAPLACIAN.apply_all(UniPoly((0.0, 0.0, 1.0)))


class TestOperatorJson:
    def test_round_trip(self):
        assert operator_from_json({"kind": "deriv", "k": 2}) == DerivOp(2)
        assert operator_from_json({"kind": "dirop", "v": [1.0, -2.0]}) == DirOp((1.0, -2.0))
        op = operator_from_json({"kind": "hop", "H": [[[2, 0], 1.0], [[0, 2], 1.0]]})
        assert isinstance(op, HomOp) and op.order == 2

    def test_unknown(self):
        with pytest.raises(ValueError):
            operator_from_json({"kind": "magic"})

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            HomOp((((2, 0), 1.0), ((1, 0), 1.0)))


def test_max_pairwise_slope_bounds_ls(rng):
    xs = np.sort(rng.uniform(0, 3, 12))
    ys = rng.uniform(-2, 2, 12)
    A = np.vstack([xs, np.ones_like(xs)]).T
    ls = np.linalg.lstsq(A, ys, rcond=None)[0][0]
    assert max_pairwise_slope(xs, ys) >= ls - 1e-12
