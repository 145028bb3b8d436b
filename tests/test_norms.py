import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovlab import (
    DerivOp,
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
    monomial,
    norms,
    qms_norm,
    qms_norm_exact,
    qms_seminorm_terms,
    spec_from_json,
    spec_to_json,
    spectral_norm_estimate,
    sup_norm,
)
from markovlab.chebseries import ChebSeries, lobatto_points, random_unit
from markovlab.domains import Measure, tabulated_measure
from markovlab.exponents import _PolyRatio, _coarse_ratio, _sampled_side
from markovlab.norms import (
    NormTerms,
    _coef_columns,
    _degree_int,
    _grid_roots,
    _lp_cuts,
    _qms_poly,
    _real_roots_inside,
    _root_split_integral,
    _image_columns,
    _sup,
    _support_series,
    qms_log_norm,
)

from conftest import cheb_t_coeffs

E = Interval(-1.0, 1.0)
MU = lebesgue_measure()


def _true_sup(p, a, b, alpha):
    """Oracle: max of |p(y)| (1 - y^2)^alpha over [a, b] to 40 digits
    (mpmath), at the ends and at every maximum that the float slope of
    |p|^2 (1 - y^2)^(2 alpha) brackets on a dense Chebyshev grid, each
    solved there by a bracketing root finder."""
    mp = pytest.importorskip("mpmath")
    if p.is_zero:
        return 0.0
    dc = np.polynomial.chebyshev.chebder(p.coef) if p.coef.size > 1 else np.zeros(1)
    with mp.workdps(40):
        c, d = ([mp.mpc(complex(v)) for v in u] for u in (p.coef, dc))

        def val(cs, y):
            b1 = b2 = mp.mpc(0)
            for ck in reversed(cs[1:]):
                b1, b2 = 2 * y * b1 - b2 + ck, b1
            return y * b1 - b2 + cs[0]

        def F(y):
            return abs(val(c, y)) * (1 - y * y) ** alpha

        def slope(y):
            v = val(c, y)
            return mp.re(mp.conj(v) * val(d, y)) * (1 - y * y if alpha else 1) - 2 * alpha * y * abs(v) ** 2

        ys = (a + b) / 2 + (b - a) / 2 * lobatto_points(64 * (p.coef.size + 1))
        v, dv = p(ys), ChebSeries(dc)(ys)
        s = (np.conj(v) * dv).real * (1.0 - ys**2 if alpha else 1.0) - 2 * alpha * ys * np.abs(v) ** 2
        best = max(F(mp.mpf(a)), F(mp.mpf(b)))
        for j in np.flatnonzero((s[:-1] >= 0) & (s[1:] <= 0)):
            lo, hi = mp.mpf(ys[j]), mp.mpf(ys[j + 1])
            if slope(lo) > 0 > slope(hi):
                best = max(best, F(mp.findroot(slope, (lo, hi), solver="illinois", verify=False)))
        return float(best)


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

    # the Schur weight (alpha > 0) is defined on [-1, 1] only (SchurSpec)
    @pytest.mark.parametrize("E, alpha", [pytest.param(E, 0.0, id="[-1,1]-0.0"),
                                          pytest.param(E, 0.5, id="[-1,1]-0.5"),
                                          pytest.param(Interval(0.0, 3.0), 0.0, id="[0,3]-0.0")])
    def test_batched_refinement_matches_one_at_a_time(self, rng, E, alpha):
        # one Newton pass over all brackets gives each polynomial exactly the
        # value it gets alone: every bracket's path depends on its own values;
        # and that value is within rounding of the true maximum
        polys = [ChebSeries(rng.standard_normal(n + 1)) for n in (0, 1, 8, 40)]
        polys += [ChebSeries([0.0]), chebyshev_t(8), ChebSeries(rng.standard_normal(9))]
        batched = _sup(polys, E, True, alpha)
        assert batched == [_sup([p], E, True, alpha)[0] for p in polys]
        assert all(r >= c for r, c in zip(batched, _sup(polys, E, False, alpha)))
        for p, got in zip(polys, batched):
            want = _true_sup(p, E.a, E.b, alpha)
            assert abs(got - want) <= 4e-15 * want

    def test_schur_weight_off_the_unit_interval_raises(self):
        # the refinement solves for maxima of |p|^2 (1 - t^2)^(2 alpha) in the
        # piece's own coordinate t, which is x on [-1, 1] only
        for E in (Interval(0.0, 3.0), UnionSet((Interval(-1.0, 1.0), Interval(2.0, 3.0)))):
            with pytest.raises(ValueError, match="Schur weight"):
                _sup([chebyshev_t(3)], E, True, 0.5)

    def test_huge_values_keep_their_sup(self):
        # each cell's series comes from its grid values scaled by a power of
        # two, so values near the top of the double range do not overflow it;
        # a cell whose grid holds inf keeps inf, with no bracket refined
        assert sup_norm(ChebSeries([0.0, 1e307]), Interval(0.0, 1.5)) == 1.5e307
        assert sup_norm(ChebSeries([0.0, 1e307 + 1e307j]), Interval(0.0, 1.5)) == abs(1.5e307 + 1.5e307j)
        assert sup_norm(ChebSeries([1e300, 0.0, -1e300]), E) == pytest.approx(2e300, rel=1e-15)
        # 1.5e307 - 1e307 x^2 peaks at 0, between two grid points of [-1.5, 1.5]
        assert sup_norm(ChebSeries([1e307, 0.0, -0.5e307]), Interval(-1.5, 1.5)) == 1.5e307
        with np.errstate(over="ignore"):
            assert sup_norm(ChebSeries([0.0, 1e308]), Interval(0.0, 3.0)) == math.inf
            assert sup_norm(ChebSeries([0.0, 1e308, 1.0]), Interval(-3.0, 3.0)) == math.inf


    @staticmethod
    def _mixed(rng):
        # mixed degrees, complex coefficients, the zero polynomial, degree 0
        return [ChebSeries(rng.standard_normal(13)),
                ChebSeries(rng.standard_normal(4) + 1j * rng.standard_normal(4)),
                ChebSeries([0.0]), ChebSeries([-0.7]), ChebSeries(rng.standard_normal(41)),
                chebyshev_t(1), ChebSeries(1j * rng.standard_normal(7))]

    @pytest.mark.parametrize("iv", [E, Interval(0.0, 3.0), Interval(-2.0, -1.5)],
                             ids=["[-1,1]", "[0,3]", "[-2,-1.5]"])
    def test_support_series_in_one_pass_match_one_at_a_time(self, rng, iv):
        # one Clenshaw pass and one inverse FFT per degree give each column
        # bitwise the series it gets alone, zero-padded; scaled back, that
        # series takes p's values at the piece's points
        polys = self._mixed(rng)
        degs = [_degree_int(p) for p in polys]
        S, top = _support_series(_coef_columns(polys), degs, [iv] * len(polys))
        for j, (p, d) in enumerate(zip(polys, degs)):
            alone, top_alone = _support_series(_coef_columns([p]), [d], [iv])
            assert np.array_equal(S[: d + 1, j], alone[:, 0]) and not S[d + 1 :, j].any()
            assert top[j] == top_alone[0]
            t = lobatto_points(2 * d + 3)
            want = p(iv.at(t))
            got = np.ldexp(1.0, np.frexp(top[j])[1]) * ChebSeries(S[: d + 1, j])(t)
            assert np.abs(got - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize(
        "E, alpha",
        [(Interval(0.0, 3.0), 0.0), (E, 0.5),
         (UnionSet((Interval(-1.0, 0.0), Interval(0.5, 2.0)), (1.0, 2.5, 1.5j)), 0.0)],
        ids=["[0,3]", "schur", "union+points"],
    )
    def test_batched_sup_matches_one_at_a_time(self, rng, E, alpha, refine):
        polys = self._mixed(rng)
        assert _sup(polys, E, refine, alpha) == [_sup([p], E, refine, alpha)[0] for p in polys]

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize(
        "E, alpha",
        [(E, 0.0), (Interval(0.0, 3.0), 0.0), (E, 0.5),
         (UnionSet((Interval(-1.0, -0.5), Interval(0.5, 1.0)), (0.0,)), 0.0)],
        ids=["[-1,1]", "[0,3]", "schur", "E_0.5+point"],
    )
    def test_memory_bound_splits_without_moving_values(self, rng, monkeypatch, E, alpha, refine):
        # past _PASS_MAX_ENTRIES padded grid values a call halves its
        # polynomials, and past it in cosine terms the Newton pass goes in
        # chunks: every value stays bitwise the one a polynomial gets alone
        polys = [*self._mixed(rng), *(ChebSeries(rng.standard_normal(n + 1)) for n in (2, 8, 24, 24))]
        whole = _sup(polys, E, refine, alpha)
        calls, sup = [], norms._sup_columns
        monkeypatch.setattr(norms, "_sup_columns", lambda *args: calls.append(args[0].shape[1]) or sup(*args))
        monkeypatch.setattr(norms, "_PASS_MAX_ENTRIES", 300)
        split = norms._sup(polys, E, refine, alpha)
        alone = [norms._sup([p], E, refine, alpha)[0] for p in polys]
        assert calls[:3] == [len(polys), len(polys) // 2, len(polys) // 4]  # halved, and again
        assert np.array(split).tobytes() == np.array(alone).tobytes() == np.array(whole).tobytes()

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_pass_at_the_bound_holds_at_most_the_bound(self, rng, refine, cplx):
        # as many series of degree 128 as one real pass at the bound holds:
        # a complex pass counts twice, so each pass's traced peak stays
        # within _PASS_MAX_ENTRIES values (1.3 times it when counted once)
        count = norms._PASS_MAX_ENTRIES // norms._sup_entries(1, E, 128)
        polys = [ChebSeries(rng.standard_normal(129) + (1j * rng.standard_normal(129) if cplx else 0.0))
                 for _ in range(count)]
        tracemalloc.start()
        try:
            _sup(polys, E, refine)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * norms._PASS_MAX_ENTRIES

    @pytest.mark.parametrize("refine", [False, True])
    def test_evaluations_go_in_passes_within_the_bound(self, rng, monkeypatch, refine):
        # _evaluate_norms builds the images of one group of consecutive
        # polynomials at a time, each group one _sup pass within the bound;
        # every value stays bitwise its own
        spec = TaylorDiskSpec(Interval(-1.0, 1.0), 0.5)
        degs = (3, 9, 4, 12, 2, 7, 7)
        polys = [ChebSeries(rng.standard_normal(n + 1)) for n in degs]
        whole = norms._evaluate_norms(spec, polys, refine)
        passes, sup = [], norms._sup_columns
        monkeypatch.setattr(norms, "_sup_columns", lambda C, *args: passes.append(C) or sup(C, *args))
        monkeypatch.setattr(norms, "_PASS_MAX_ENTRIES", 10_000)
        split = norms._evaluate_norms(spec, polys, refine)
        assert np.array(split).tobytes() == np.array(whole).tobytes()
        # n + 1 images each (orders 0..n): degrees (3, 9, 4), (12, 2), (7, 7)
        assert [images.shape[1] for images in passes] == [4 + 10 + 5, 13 + 3, 8 + 8]
        assert all(norms._sup_entries(images.shape[1], spec.set, len(images) - 1) <= 10_000 for images in passes)

    @pytest.mark.parametrize(
        "E, c, K",
        [(UnionSet((Interval(-1.0, 0.0), Interval(0.5, 2.0)), (1.0, 2.5, 1.5j)), 1.999, 0.05),
         (UnionSet((Interval(-1.0, -0.5), Interval(0.5, 1.0))), 0.999, 0.25)],
        ids=["union+points", "gap"],
    )
    def test_union_matches_reference_per_piece(self, rng, E, c, K):
        # every piece of every polynomial in one pass, against the true
        # maximum on each piece.  The last polynomial, 1 - K(x - c)^2, peaks
        # at c, inside the last grid cell of the last piece, whose right end
        # is the best grid sample: only the end bracket finds the sup
        peak = ChebSeries([1.0 - K * c * c - K / 2, 2.0 * K * c, -K / 2])
        polys = [*self._mixed(rng), peak]
        pts = E.intervals[-1].grid(2)
        assert pts[-2] < c < pts[-1] and np.argmax(np.abs(peak(pts))) == pts.size - 1
        got = _sup(polys, E, True)
        assert got[-1] == pytest.approx(1.0, abs=1e-15) and got[-1] > abs(peak(pts[-1]))
        for p, value in zip(polys, got):
            want = max(_true_sup(p, piece.a, piece.b, 0.0) for piece in E.intervals)
            if E.points:
                want = max(want, float(np.max(np.abs(p(np.array(E.points))))))
            assert abs(value - want) <= 4e-15 * want

    @pytest.mark.parametrize("refine", [False, True])
    def test_one_pass_per_call(self, rng, monkeypatch, refine):
        # every piece of every polynomial: one Clenshaw pass over the Lobatto
        # values of the pieces (none is [-1, 1]); refined, one Newton pass over
        # the brackets and one Clenshaw pass over the maxima found
        calls = []
        for name in ("chebval_columns", "_newton_roots"):
            monkeypatch.setattr(norms, name, lambda *args, name=name, run=getattr(norms, name):
                                calls.append(name) or run(*args))
        E = UnionSet((Interval(-1.0, 0.0), Interval(0.5, 2.0), Interval(3.0, 4.0)), (1.5j,))
        _sup(self._mixed(rng), E, refine)
        passes = ["chebval_columns", "_newton_roots", "chebval_columns"]
        assert calls == (passes if refine else passes[:1])

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("E", [box_region(), cusp_region()], ids=["box", "cusp"])
    def test_plane_region_matches_chebval2d(self, E, alpha):
        # one Vandermonde pair for the whole call, each series at its own shape
        rng = np.random.default_rng(11)
        polys = [ChebSeries(rng.standard_normal((a, b))) for a in range(1, 14, 3) for b in range(1, 14, 2)]
        polys += [ChebSeries(np.zeros((1, 1))), ChebSeries([[-2.5]]),
                  ChebSeries(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))]
        w = norms._schur_weight(alpha, *E.samples) if alpha else 1.0
        want = [float(np.max(np.abs(np.polynomial.chebyshev.chebval2d(*E.samples, p.coef)) * w))
                if p.coef.size else 0.0 for p in polys]
        got = _sup(polys, E, refine=False, alpha=alpha)
        assert got[-3:-1] == [0.0, 2.5 * float(np.max(w))]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("E", [box_region(), cusp_region()], ids=["box", "cusp"])
    def test_plane_sup_does_not_depend_on_its_batch(self, rng, monkeypatch, E, alpha):
        # a column's sup is bitwise the same alone, in a chunk of 7 columns of
        # its shape, and with every other column: 20 of one shape, others of
        # other shapes, complex ones and one real column in a complex array
        polys = [ChebSeries(rng.standard_normal((5, 6))) for _ in range(20)]
        polys += [ChebSeries(rng.standard_normal(shape)) for shape in ((1, 9), (9, 1), (5, 6), (12, 3))]
        polys += [ChebSeries(rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))) for _ in range(9)]
        polys += [ChebSeries(rng.standard_normal((5, 6)).astype(complex))]
        whole = _sup(polys, E, False, alpha)
        alone = [_sup([p], E, False, alpha)[0] for p in polys]
        monkeypatch.setattr(norms, "_PASS_MAX_ENTRIES", 7 * E.axes[0].size * E.axes[1].size)
        chunked = norms._sup(polys, E, False, alpha)
        assert np.array(chunked).tobytes() == np.array(alone).tobytes() == np.array(whole).tobytes()

    # ROADMAP item 1, step 2: the circle samples Chebyshev series on |z| = 1,
    # where T_k grows like (1 + sqrt 2)^k and the terms of z^n cancel
    @pytest.mark.parametrize("n", [16, *(pytest.param(n, marks=pytest.mark.xfail(
        strict=True, reason="Chebyshev terms cancel on the circle")) for n in (64, 100, 128))])
    def test_monomial_on_the_circle(self, n):
        assert sup_norm(monomial(n), disk_boundary()) == pytest.approx(1.0, abs=1e-12)


class TestRulesSharedWithTheSearch:
    """The search samples where the evaluation does: each piece's
    ``Interval.grid`` and the Gauss rule of ``lp_norm``'s even-s path."""

    @pytest.mark.parametrize("piece", [Interval(-1.0, 1.0), Interval(0.0, 3.0),
                                       Interval(-1.0, -0.5), Interval(0.5, 1.0)],
                             ids=["[-1,1]", "[0,3]", "E_0.5-left", "E_0.5-right"])
    def test_coarse_sup_is_the_largest_grid_value(self, piece):
        rng = np.random.default_rng(27)
        for d in range(65):
            p = ChebSeries(rng.standard_normal(d + 1))
            grid = piece.grid(d)
            want = float(np.max(np.abs(p(grid))))  # Clenshaw at every grid point
            assert sup_norm(p, piece, refine=False) == pytest.approx(want, rel=1e-12, abs=0)
            _, grids, rule = _sampled_side(SupSpec(piece), d)
            assert rule is None and len(grids) == 1 and np.array_equal(grids[0], grid)

    @pytest.mark.parametrize("mu", [lebesgue_measure(), lebesgue_measure(0.0, 3.0), jacobi_measure(0.3, -0.4),
                                    tabulated_measure(lambda x: 1.0 + 0.25 * x**2)],
                             ids=["lebesgue", "lebesgue[0,3]", "jacobi", "tabulated"])
    @pytest.mark.parametrize("s", [1, 1.5, 2, 3, 4, 6])
    def test_search_declines_lp_exactly_off_the_gauss_path(self, monkeypatch, mu, s):
        asked, rule_for_degree = [], Measure.rule_for_degree
        monkeypatch.setattr(Measure, "rule_for_degree",
                            lambda self, degree: asked.append(rule_for_degree(self, degree)) or asked[-1])
        for d in (1, 8, 24):
            side = _sampled_side(LpSpec(mu, s), d)
            assert (side is None) == (s not in (2, 4, 6))
            asked.clear()
            lp_norm(random_unit(d, np.random.default_rng(d)), mu, s)
            assert len(asked) == (side is not None)  # lp_norm asks for a rule on its Gauss path only
            if side is not None:
                assert all(np.array_equal(a, b) for a, b in zip(side[2], asked[0]))


class TestSupRefinementOracles:
    """Refined sups against closed forms, and a floor under earlier values."""

    def test_schur_half_on_chebyshev_u(self):
        # sqrt(1 - x^2) * U_{n-1}(x) = sin(n * theta) at x = cos(theta): sup 1
        for n in range(1, 129):
            got = evaluate_norm(SchurSpec(0.5), chebyshev_u(n - 1))
            assert abs(got - 1.0) <= 1e-12, n

    @pytest.mark.parametrize("x0", [1 / math.pi, -0.3141, 0.7777, 2 / 3])
    @pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.0, 3.0), (-2.0, 2.0)])
    def test_off_grid_quadratic_peak(self, a, b, x0):
        # 1 - ((y - y0) / (b - a))^2 peaks at y0, between grid points, with value 1
        y0, w = (a + b) / 2 + (b - a) / 2 * x0, b - a
        p = UniPoly((1.0 - (y0 / w) ** 2, 2.0 * y0 / w**2, -1.0 / w**2))
        assert abs(sup_norm(p, Interval(a, b)) - 1.0) <= 4e-15

    def test_chebyshev_t_unit_sup(self):
        for n in range(1, 129):
            assert abs(sup_norm(chebyshev_t(n), E) - 1.0) <= 1e-13, n

    def test_dilated_chebyshev_t_unit_sup(self):
        # T_n(c x) with cos(pi/n) <= c < 1 reaches |T_n| = 1 at x = cos(j pi/n)/c,
        # interior points off the grid, and stays below 1 at the ends.  Its
        # coefficients are exact (c dyadic) by T_(n+1)(cx) = 2cx T_n(cx) -
        # T_(n-1)(cx), with x T_0 = T_1 and x T_j = (T_(j+1) + T_(j-1))/2,
        # then rounded once
        c = Fraction(4095, 4096)
        assert c >= math.cos(math.pi / 128)
        prev, cur = [Fraction(1)], [Fraction(0), c]
        for n in range(2, 129):
            nxt = [-a for a in prev] + [Fraction(0)] * 2
            nxt[1] += 2 * c * cur[0]
            for j in range(1, n):
                nxt[j + 1] += c * cur[j]
                nxt[j - 1] += c * cur[j]
            prev, cur = cur, nxt
            p = ChebSeries([float(a) for a in cur])
            assert abs(p(1.0)) < 1.0 - 1e-9
            assert abs(sup_norm(p, E) - 1.0) <= 1e-13, n

    # Refined values on seeded series (coefficients from default_rng(n)) as the
    # golden-section refinement gave them; refinement may only raise them,
    # up to rounding.
    FLOOR = {
        ("sup [-1,1]", 8): 6.538029852866428,
        ("sup [0,3]", 8): 718415.0289530975,
        ("schur", 8): 3.3010604862796535,
        ("taylor_disk", 8): 6.589062725167464,
        ("sup [-1,1]", 32): 9.740779501259775,
        ("sup [0,3]", 32): 1.8359800822646182e24,
        ("schur", 32): 9.103958381346942,
        ("taylor_disk", 32): 15.083273746357326,
        ("sup [-1,1]", 128): 25.133122992767884,
        ("sup [0,3]", 128): 4.8836829709412006e97,
        ("schur", 128): 19.421670375381996,
        ("taylor_disk", 128): 348.7015804496345,
    }
    SPECS = {
        "sup [-1,1]": SupSpec(E),
        "sup [0,3]": SupSpec(Interval(0.0, 3.0)),
        "schur": SchurSpec(0.5),
        "taylor_disk": TaylorDiskSpec(E, 1e-3),
    }

    @pytest.mark.parametrize("kind, n", sorted(FLOOR))
    def test_no_lower_than_before(self, kind, n):
        p = ChebSeries(np.random.default_rng(n).standard_normal(n + 1))
        got = evaluate_norm(self.SPECS[kind], p)
        assert got >= self.FLOOR[kind, n] * (1 - 2e-15)


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


# ---------------------------------------------------------------------------
# L^p away from the even-s rule: per-piece doubling and the odd-s antiderivative

_LP_SUPPORTS = {  # name -> (measure, a, b, alpha, beta)
    "lebesgue[-1,1]": (lebesgue_measure(), -1.0, 1.0, 0.0, 0.0),
    "lebesgue[0,3]": (lebesgue_measure(0.0, 3.0), 0.0, 3.0, 0.0, 0.0),
    "lebesgue[1,5.5]": (lebesgue_measure(1.0, 5.5), 1.0, 5.5, 0.0, 0.0),
    "chebyshev": (chebyshev_measure(), -1.0, 1.0, -0.5, -0.5),
    "jacobi(0.3,-0.4)": (jacobi_measure(0.3, -0.4), -1.0, 1.0, 0.3, -0.4),
}
_LP_ORDERS = (1.0, 1.5, 2.5, 3.0, 5.0)


def _lp_grid_coef(n: int, support: str, kind: str) -> np.ndarray:
    """Normal coefficients, divided by T_k(max|x|) on the support so that no
    term c_k T_k(x) leaves O(1) there and |p|^5 stays in range at n = 256."""
    _, a, b, _, _ = _LP_SUPPORTS[support]
    u = np.random.default_rng(n).standard_normal((2, n + 1))
    c = u[0] + 1j * u[1] if kind == "complex" else u[0]
    return c / np.cosh(np.arange(n + 1) * math.acosh(max(abs(a), abs(b))))


def _abs_minima(c: np.ndarray, a: float, b: float) -> np.ndarray:
    """Local minima of |p| on [a, b], found without chebroots: the grid minima
    of a 16(n+1)-point Chebyshev grid, each refined by 80 golden-section steps
    in its grid bracket.  They are the real roots and the dips towards complex
    roots near the support."""
    def absp(x):
        return np.abs(np.polynomial.chebyshev.chebval(x, c))

    n = len(c) - 1
    x = (a + b) / 2 - (b - a) / 2 * np.cos(np.linspace(0.0, np.pi, 16 * (n + 1) + 1))
    v = absp(x)
    i = np.nonzero((v[1:-1] <= v[:-2]) & (v[1:-1] <= v[2:]))[0] + 1
    lo, hi, g = x[i - 1], x[i + 1], (math.sqrt(5.0) - 1) / 2
    for _ in range(80):
        m1, m2 = hi - g * (hi - lo), lo + g * (hi - lo)
        left = absp(m1) <= absp(m2)
        lo, hi = np.where(left, lo, m1), np.where(left, m2, hi)
    return (lo + hi) / 2


@functools.lru_cache(maxsize=None)
def _lp_reference(n: int, support: str, kind: str) -> dict:
    """||p||_s for every s in _LP_ORDERS, by tanh-sinh on each piece between
    the minima of |p| and the real parts of p's roots near the support.

    x = lo + h (1 + tanh(pi/2 sinh u)) clusters nodes double-exponentially at
    both ends of a piece, where |p|^s and the weight are singular; x - lo and
    hi - x come without cancellation.  The step halves (only the new nodes are
    sampled) until every value moves less than 1e-14."""
    _, a, b, alpha, beta = _LP_SUPPORTS[support]
    c = _lp_grid_coef(n, support, kind)
    z = np.polynomial.chebyshev.chebroots(c) if n else np.zeros(0)
    near = z.real[(np.abs(z.imag) < 0.05 * (b - a)) & (a < z.real) & (z.real < b)]
    cuts = np.unique(np.concatenate([[a, b], near, _abs_minima(c, a, b) if n else []]))
    lo, hi = cuts[:-1, None], cuts[1:, None]
    h = (hi - lo) / 2
    log_mass = (alpha + beta + 1) * math.log(b - a) + _log_beta(alpha + 1, beta + 1)

    def sums(step, u):
        v = math.pi / 2 * np.sinh(u)
        e = np.exp(-2 * np.abs(v))
        plus = np.where(v >= 0, 2 / (1 + e), 2 * e / (1 + e))  # 1 + tanh(v)
        minus = np.where(v >= 0, 2 * e / (1 + e), 2 / (1 + e))  # 1 - tanh(v)
        from_lo, to_hi = h * plus, h * minus
        inside = (from_lo > 0) & (to_hi > 0)
        x = np.where(inside, np.where(v < 0, lo + from_lo, hi - to_hi), lo)
        w = step * math.pi / 2 * np.cosh(u) * plus * minus * h
        w = np.where(inside, w * ((b - hi) + to_hi) ** alpha * ((lo - a) + from_lo) ** beta, 0.0)
        ap = np.abs(np.polynomial.chebyshev.chebval(x, c))
        return np.array([np.sum(w * ap**s) for s in _LP_ORDERS])

    step, last = 1 / 8, 36  # nodes u = k * step for |k| <= last, so |u| <= 4.5
    total = sums(step, np.arange(-last, last + 1) * step)
    for _ in range(7):
        step, last = step / 2, 2 * last
        new = total / 2 + sums(step, np.arange(1 - last, last, 2) * step)
        if np.all(np.abs(new - total) <= 1e-14 * new):
            return {s: (t / math.exp(log_mass)) ** (1 / s) for s, t in zip(_LP_ORDERS, new)}
        total = new
    raise ArithmeticError(f"tanh-sinh reference did not settle: n={n} {support} {kind}")


def _lp_known_fault(n: int, support: str, kind: str, s: float):
    """Cases the root split gets wrong beyond 1e-12 (ROADMAP.md, item 11):
    complex p, whose roots near the support cut nothing.  They lie about
    1e-5 off [-1, 1] at n >= 64, and about 0.01 (in t) off the shifted
    supports at n = 128, where s <= 1.5 still feels them."""
    if kind != "complex":
        return None
    if support in ("lebesgue[0,3]", "lebesgue[1,5.5]"):
        near = n == 128 and s <= 1.5
    else:
        near = n >= 64
    return "roots of complex p near the support cut nothing" if near else None


def _lp_grid():
    # complex coefficients stop at n = 128: chebroots' complex eigenvalue
    # solve alone takes about 0.2 s per call at n = 256
    for n in (1, 2, 8, 64, 128, 256):
        for support in _LP_SUPPORTS:
            for kind in ("real", "complex") if n <= 128 else ("real",):
                for s in _LP_ORDERS:
                    fault = _lp_known_fault(n, support, kind, s)
                    marks = [pytest.mark.xfail(strict=True, reason=fault)] if fault else []
                    name = f"n={n}-{support}-{kind}-s={s:g}"
                    yield pytest.param(n, support, kind, s, marks=marks, id=name)


class TestLpPiecesAndAntiderivative:
    """Per-piece doubling (non-integer s, Jacobi measures, complex p) and the
    antiderivative (odd s, Lebesgue, real p) against a tanh-sinh reference
    computed here, to 1e-12."""

    @pytest.mark.parametrize("n, support, kind, s", list(_lp_grid()))
    def test_matches_tanh_sinh_reference(self, n, support, kind, s):
        mu = _LP_SUPPORTS[support][0]
        got = lp_norm(ChebSeries(_lp_grid_coef(n, support, kind)), mu, s)
        assert got == pytest.approx(_lp_reference(n, support, kind)[s], rel=1e-12, abs=0)

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.0, 4.5])
    @pytest.mark.parametrize("support", list(_LP_SUPPORTS))
    def test_zero_and_constants(self, support, s):
        mu = _LP_SUPPORTS[support][0]
        for zero in (ChebSeries([]), ChebSeries(np.zeros(0)), ChebSeries(np.zeros(5)), UniPoly((0.0,))):
            assert lp_norm(zero, mu, s) == 0.0
        for c in (2.5, -3.0, 1 + 2j):
            assert lp_norm(ChebSeries([c]), mu, s) == abs(c)

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0])
    def test_double_root(self, s):
        # int |x - 0.3|^(2s) dx/2 over [-1, 1] = (1.3^(2s+1) + 0.7^(2s+1)) / (2(2s+1))
        p = UniPoly((0.09, -0.6, 1.0))
        want = ((1.3 ** (2 * s + 1) + 0.7 ** (2 * s + 1)) / (2 * (2 * s + 1))) ** (1 / s)
        assert lp_norm(p, MU, s) == pytest.approx(want, rel=1e-12)

    def test_points_per_call(self, monkeypatch):
        # a degree-sized rule (2^9 nodes) on each of the ~130 pieces of this
        # n = 128 Chebyshev s = 3 call would take over 66,000 values of p;
        # doubling each piece by itself takes about 6,000
        points = []
        call = ChebSeries.__call__

        def counted(p, *x):
            points.append(np.size(x[0]))
            return call(p, *x)

        monkeypatch.setattr(ChebSeries, "__call__", counted)
        lp_norm(random_unit(128, np.random.default_rng(128)), chebyshev_measure(), 3.0)
        assert 0 < sum(points) < 15_000

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0], ids=["antiderivative", "pieces", "even"])
    @pytest.mark.parametrize("c", [1e200, 1e-200, 1.5e308])
    def test_no_overflow_for_finite_coefficients(self, c, s):
        unit = lp_norm(ChebSeries([1.0, 1.0, 1.0]), MU, s)
        assert lp_norm(ChebSeries([c] * 3), MU, s) == pytest.approx(c * unit, rel=1e-15)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0], ids=["pieces", "even", "antiderivative"])
    @pytest.mark.parametrize("b", [1e30, 1e40, 1e300])
    def test_wide_support_scaled_by_its_values(self, b, s):
        # T_8 has coefficients of size one but reaches 1.28e242 on [0, 1e30],
        # where it is 128 x^8 to 1e-60 relative, and no double on [0, 1e40]
        want = 128 * b**8 * (8 * s + 1) ** (-1 / s) if b < 1e38 else math.inf
        assert lp_norm(chebyshev_t(8), lebesgue_measure(0.0, b), s) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.0])
    def test_nan_coefficient_gives_nan(self, s):
        # as for sup, a NaN coefficient is the norm, which the search reads as
        # overflow; an inf one (a value that overflows) is inf
        for mu in (MU, lebesgue_measure(0.0, 3.0)):
            assert math.isnan(lp_norm(ChebSeries([1.0, math.nan, 0.5]), mu, s))
            assert math.isnan(lp_norm(ChebSeries([1.0, math.inf, math.nan]), mu, s))
        assert lp_norm(ChebSeries([1.0, math.inf, 0.5]), MU, s) == math.inf

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("k", [-1000, -7, 1, 900])
    def test_binary_scaling_is_exact(self, k, s):
        p = random_unit(12, np.random.default_rng(12))
        for mu in (MU, chebyshev_measure(), lebesgue_measure(0.0, 3.0)):
            assert lp_norm(2.0**k * p, mu, s) == math.ldexp(lp_norm(p, mu, s), k)

    @pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan, 0.5, 0.0])
    def test_order_is_checked_as_the_specs_do(self, s):
        message = "lp order s must be a finite number >= 1"
        with pytest.raises(ValueError, match=message):
            lp_norm(UniPoly((1.0, 2.0)), MU, s)
        with pytest.raises(ValueError, match=message):
            LpSpec(MU, s)
        with pytest.raises(ValueError, match=message):
            SupPlusLpSpec(E, MU, s)


# ---------------------------------------------------------------------------
# Real roots above degree 64: the certified grid search in theta

_CHEBROOTS = np.polynomial.chebyshev.chebroots


def _eig_roots(c) -> np.ndarray:
    """The real roots in (-1, 1) by the colleague matrix's eigenvalues."""
    z = np.atleast_1d(_CHEBROOTS(c))
    return np.sort(z.real[(np.abs(z.imag) < 1e-9) & (np.abs(z.real) < 1)])


@pytest.fixture
def chebroots_calls(monkeypatch):
    """The degrees of the series chebroots is called on, while the test runs."""
    calls = []

    def counted(c):
        calls.append(len(c) - 1)
        return _CHEBROOTS(c)

    monkeypatch.setattr(np.polynomial.chebyshev, "chebroots", counted)
    return calls


def _with_roots(roots, q: ChebSeries) -> ChebSeries:
    """q times the monic polynomial with these roots."""
    cheb = np.polynomial.chebyshev
    return ChebSeries(cheb.chebmul(cheb.chebfromroots(roots), q.coef))


class TestGridRoots:
    """``_real_roots_inside`` above degree 64, where no eigenvalue is solved
    unless the grid search gives up.  pyproject turns every RuntimeWarning
    into an error, and errstate(all="raise") checks numpy's own too."""

    def test_chebyshev_t_roots_on_grid_points(self, chebroots_calls):
        # cos((2j - 1) pi / 2n) lie on the grid of angles j pi / 64n
        with np.errstate(all="raise"):
            for n in range(65, 257):
                got = _real_roots_inside(chebyshev_t(n))
                want = np.cos((2 * np.arange(n, 0, -1) - 1) * np.pi / (2 * n))
                assert len(got) == n
                assert np.max(np.abs(np.array(got) - want)) <= 2e-15
        assert chebroots_calls == []

    @pytest.mark.parametrize("n", [128, 256])
    def test_legendre_roots_are_gauss_nodes(self, n, chebroots_calls):
        c = np.polynomial.Legendre.basis(n).convert(kind=np.polynomial.Chebyshev).coef
        got = _real_roots_inside(ChebSeries(c))
        assert np.max(np.abs(np.array(got) - np.polynomial.legendre.leggauss(n)[0])) <= 2e-15
        assert chebroots_calls == []

    def test_random_series_match_chebroots(self, chebroots_calls):
        rng = np.random.default_rng(65256)
        with np.errstate(all="raise"):
            for _ in range(20):
                p = random_unit(int(rng.integers(65, 257)), rng)
                got, want = np.array(_real_roots_inside(p)), _eig_roots(p.coef)
                assert got.size == want.size
                assert np.max(np.abs(got - want)) <= 1e-13
        assert chebroots_calls == []

    @pytest.mark.parametrize("s", [1.0, 1.5, 3.0])
    def test_no_eigensolve_at_degree_128(self, s, chebroots_calls):
        # a silent fallback to chebroots would only show as time; on [0, 3]
        # the coefficients are damped as in _lp_grid_coef, so that p stays
        # of size one there
        rng = np.random.default_rng(128)
        damp = np.cosh(np.arange(129) * math.acosh(3.0))
        for _ in range(10):
            p = random_unit(128, rng)
            _real_roots_inside(p)
            lp_norm(p, MU, s)
            lp_norm(p, chebyshev_measure(), s)
            lp_norm(ChebSeries(p.coef / damp), lebesgue_measure(0.0, 3.0), s)
        assert chebroots_calls == []

    @pytest.mark.parametrize("delta", [1e-7, 1e-10, 0.0], ids=["1e-7", "1e-10", "double"])
    def test_close_pair_gives_one_cut(self, delta, chebroots_calls):
        # the pair's values stay below the rounding floor: a tangency, cut once
        r, q = 0.3141, random_unit(126, np.random.default_rng(5))
        with np.errstate(all="raise"):
            got = _real_roots_inside(_with_roots([r, r + delta], q))
        near = [x for x in got if abs(x - r) < 1e-5]
        assert len(near) == 1 and abs(near[0] - r) < 1e-6
        rest = np.array([x for x in got if abs(x - r) >= 1e-5])
        want = _eig_roots(q.coef)
        assert rest.size == want.size and np.max(np.abs(rest - want)) <= 1e-12
        assert chebroots_calls == []

    def test_double_root_cut_at_the_critical_point(self, chebroots_calls):
        # the tangency cut is the zero of g' inside the run at the floor
        r, q = 0.3141, random_unit(126, np.random.default_rng(1))
        with np.errstate(all="raise"):
            got = _real_roots_inside(_with_roots([r, r], q))
        near = [x for x in got if abs(x - r) < 1e-5]
        assert len(near) == 1 and abs(near[0] - r) <= 1e-10
        assert chebroots_calls == []

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.5])
    def test_double_root_lp_matches_the_exact_cut(self, s):
        r, q = 0.3141, random_unit(126, np.random.default_rng(5))
        p = _with_roots([r, r], q)
        scale = 2.0 ** -math.frexp(np.max(np.abs(p.coef)))[1]
        roots = sorted([r, *_eig_roots(q.coef).tolist()])
        total = _root_split_integral(scale * p, MU, s, _lp_cuts(roots, MU), roots, 16)
        assert lp_norm(p, MU, s) == pytest.approx(total ** (1 / s) / scale, rel=1e-13)

    def test_three_roots_in_one_cell(self, chebroots_calls):
        # a sign change over a cell that holds three roots 2e-4 apart
        n = 65
        h = np.pi / (64 * n)
        mid = (64 * n // 2 + 3.5) * h
        roots = np.cos(mid) + np.array([-2e-4, 0.0, 2e-4])
        assert len(set((np.arccos(roots) // h).tolist())) == 1
        got = _real_roots_inside(_with_roots(roots, random_unit(n - 3, np.random.default_rng(1))))
        near = np.array([x for x in got if abs(x - roots[1]) < 1e-3])
        assert near.size == 3 and np.max(np.abs(near - roots)) <= 1e-6
        assert chebroots_calls == []

    @pytest.mark.parametrize("n", [65, 128, 256])
    def test_monomial_falls_back_to_chebroots(self, n, chebroots_calls):
        # x^n is below the rounding floor on most of the grid
        assert _grid_roots(monomial(n).coef) is None
        _real_roots_inside(monomial(n))
        assert chebroots_calls == [n]

    @pytest.mark.parametrize("n", [2, 64])
    def test_low_degree_keeps_chebroots(self, n, chebroots_calls):
        _real_roots_inside(random_unit(n, np.random.default_rng(n)))
        assert chebroots_calls == [n]


class TestSchurNorm:
    def test_constant(self):
        assert evaluate_norm(SchurSpec(0.5), UniPoly((1.0,))) == pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        # oracle: max |x| sqrt(1-x^2) on a dense grid, attained at 1/sqrt(2)
        xs = np.linspace(-1, 1, 200001)
        oracle = np.max(np.abs(xs) * np.sqrt(1 - xs**2))
        got = evaluate_norm(SchurSpec(0.5), UniPoly((0.0, 1.0)))
        assert got == pytest.approx(0.5, abs=1e-12)
        assert got >= oracle - 1e-9

    def test_sandwich_with_sup(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 33))
            p = random_unit(n, rng)
            w = evaluate_norm(SchurSpec(0.5), p)
            s = sup_norm(p, E)
            assert w <= s * (1 + 1e-10)
            assert s <= (n + 1) * w * (1 + 1e-10)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            SchurSpec(0.0)

    def test_ball_variant_on_point_cloud(self):
        # weight (1 - |x|^2)^alpha clips to zero outside the unit ball, so a
        # box cloud covering the ball is a valid carrier
        cloud = box_region(grid=81)
        one = MultiPoly({(0, 0): 1.0}, 2)
        assert evaluate_norm(SchurSpec(0.5, cloud), one) == pytest.approx(1.0, abs=1e-12)
        x1 = MultiPoly({(1, 0): 1.0}, 2)
        # max |x| sqrt(1 - x^2 - y^2) = 1/2 on the y = 0 slice
        assert evaluate_norm(SchurSpec(0.5, cloud), x1) == pytest.approx(0.5, abs=1e-3)


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

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_log_of_chain_monomials_matches_big_integer_log(self, s):
        # x^(sn) and its k-th derivatives up to sn = 4096 against math.log of the
        # exact rational value.  The log is formed from terms of size log((sn)!),
        # and with m = 1 the factorial cancels in the value but not in the sum,
        # so the error is measured against the larger of the two (plain relative
        # error to the value reaches 7e-14 at sn = 3072, m = 1)
        for n in (1, 2, 3, 8, 64, 256, 1024):
            sn = s * n
            if sn > 4096:
                continue
            base, scale = UniPoly.monomial(sn, 1), math.log(math.factorial(sn))
            for k in sorted({0, 1, s - 1, s, s + 1, 2 * s + 1}):
                if k > sn:
                    continue
                p = base.deriv(k)
                for m in (0, 1, 2, 3):
                    v = qms_norm_exact(p, m, s)
                    want = math.log(v.numerator) - math.log(v.denominator)
                    assert abs(qms_log_norm(p, m, s) - want) <= 1e-15 * max(abs(want), scale), \
                        (s, sn, k, m)

    def test_exact_requires_integer_m(self):
        with pytest.raises(ValueError):
            qms_norm_exact(UniPoly((1,)), 0.5, 2)

    def test_complex_coefficients_float_path(self):
        # with s = 1, m = 1 the norm is sum_r |p^(r)(0)|/r! = sum |c_r|
        p = UniPoly((0.5j, 0.0, 1j, -2.0))
        assert qms_norm(p, 1, 1) == pytest.approx(3.5, rel=1e-12)

    @pytest.mark.parametrize("m, s", [(1, 2), (2.5, 3)])
    @pytest.mark.parametrize(
        "p",
        [UniPoly((Fraction(1, 3), 0, Fraction(-5, 7), Fraction(2, 9))),
         UniPoly((0.5, -1.25, 0.0, 3.0)),
         ChebSeries([0.25, -1.5, 0.5, 0.75])],
        ids=["exact", "float", "ChebSeries"],
    )
    def test_evaluate_norm_is_the_table_entry(self, p, m, s):
        spec = QmsSpec(m, s)
        assert spec.terms(3) == NormTerms(sups=(), qms=(m, s))
        power = p.to_unipoly() if isinstance(p, ChebSeries) else p
        assert evaluate_norm(spec, p) == qms_norm(power, m, s)

    def test_reads_the_polynomial_as_given(self):
        # 10^400 has no double, so no Chebyshev copy of p exists
        p = UniPoly.monomial(300, 10**400)
        assert evaluate_norm(QmsSpec(2, 1), p) == qms_norm(p, 2, 1) > 0.0

    def test_not_sampled(self):
        assert type(_coarse_ratio(DerivOp(1), QmsSpec(1, 2), 8)) is _PolyRatio


class TestTaylorDiskNorm:
    def test_constant(self):
        assert evaluate_norm(TaylorDiskSpec(E, 0.7), UniPoly((1.0,))) == 1.0

    def test_linear_two_terms(self):
        assert evaluate_norm(TaylorDiskSpec(E, 1.0), UniPoly((0.0, 1.0))) == pytest.approx(2.0)

    def test_sandwich_with_shifted_sup(self, rng):
        # q_sigma oracle: max over a disk-boundary grid of sup |p(x + zeta)|
        zetas = np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
        xs = np.linspace(-1, 1, 801)
        for _ in range(8):
            n = int(rng.integers(1, 9))
            p = random_unit(n, rng)
            q = evaluate_norm(TaylorDiskSpec(E, 0.5), p)
            grid = xs[None, :] + 0.5 * zetas[:, None]
            q_sigma = float(np.max(np.abs(p(grid))))
            assert q_sigma <= q * (1 + 1e-9)
            assert q <= (n + 1) * q_sigma * (1 + 1e-9)

    def test_coarse_matches_refined(self):
        p = chebyshev_t(9)
        coarse = evaluate_norm(TaylorDiskSpec(E, 0.3), p, refine=False)
        refined = evaluate_norm(TaylorDiskSpec(E, 0.3), p, refine=True)
        assert coarse == pytest.approx(refined, rel=1e-6)


    @pytest.mark.parametrize("n", [8, 40, 64])
    def test_images_derive_each_order_from_the_last(self, n):
        # each order from the one before: bitwise numpy's chebder of order k
        c = np.random.default_rng(n).standard_normal(n + 1)
        images = _image_columns([ChebSeries(c)], [TaylorDiskSpec(E, 0.5).terms(n)])
        assert images.shape[1] == n + 1
        for k, image in enumerate(images.T):
            assert image[: n + 1 - k].tobytes() == np.polynomial.chebyshev.chebder(c, k).tobytes()
            assert not image[n + 1 - k :].any()

    @pytest.mark.parametrize("axis", [0, 1], ids=["one variable", "plane, axis 1"])
    def test_image_columns_are_each_polynomials_own_chain(self, rng, axis):
        # one chebder per order step over all columns of a dtype: each image is
        # bitwise its polynomial's own ChebSeries.deriv chain, for real and
        # complex columns of mixed degrees, and 0 past a column's degree
        # the real columns take one chebder per step, the complex ones one each
        if axis:
            shapes = [(5, 9), (3, 2), (7, 4), (1, 6), (2, 2), (4, 1), (6, 6)]
            tables = [MixedDerivSpec(box_region(grid=33), axis=1).terms(0)] * len(shapes)
        else:
            shapes = [(13,), (5,), (2,), (0,), (9,), (4,), (1,), (7,)]
            tables = [NormTerms(E, sups=tuple((k, 1.0, 1) for k in range(4)))] * len(shapes)
        polys = [ChebSeries(rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if i % 3 == 1 else 0.0))
                 for i, shape in enumerate(shapes)]
        real = sum(np.isrealobj(p.coef) for p in polys)
        assert real >= norms._STACK_COLUMNS > len(polys) - real
        C = _image_columns(polys, tables)
        images = [p.deriv(k, axis) for p in polys for k, _, _ in tables[0].sups]
        assert C.shape[-1] == len(images) and np.iscomplexobj(C)
        for j, image in enumerate(images):
            want = image.coef.astype(C.dtype)
            got = C[(*map(slice, want.shape), j)]
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(ChebSeries(C[..., j]).coef, image.coef)


class TestMixedDerivNorm:
    def test_constant(self):
        box = box_region(grid=33)
        p = MultiPoly({(0, 0): -3.0}, 2)
        assert evaluate_norm(MixedDerivSpec(box, 0), p) == pytest.approx(3.0)

    def test_coordinate_on_box(self):
        box = box_region(grid=33)
        p = MultiPoly({(1, 0): 1.0}, 2)
        assert evaluate_norm(MixedDerivSpec(box, 0), p) == pytest.approx(2.0)

    def test_univariate_union_variant(self):
        u = UnionSet((Interval(-1.0, 1.0),), (2.0,))
        p = UniPoly((0.0, 0.0, 1.0))  # x^2: sup 4 at the point, sup|2x| = 4
        assert evaluate_norm(MixedDerivSpec(u), p) == pytest.approx(8.0)

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
        assert evaluate_norm(SupPlusLpSpec(E, MU, 2), UniPoly((1.0,))) == pytest.approx(2.0)

    def test_linear(self):
        got = evaluate_norm(SupPlusLpSpec(E, MU, 2), UniPoly((0.0, 1.0)))
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

    # r^2 overflows at r = 1e300; 171! has no double
    @pytest.mark.parametrize("r, n", [(1e300, 4), (0.5, 171)])
    def test_taylor_disk_weight_overflow(self, r, n):
        with pytest.raises(PrecisionOverflowError, match=f"{n}!"):
            evaluate_norm(TaylorDiskSpec(E, r), chebyshev_t(n))


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
    "schur": lambda p: evaluate_norm(SchurSpec(0.5), p),
    "taylor_disk": lambda p: evaluate_norm(TaylorDiskSpec(E, 0.5), p),
    "mixed_deriv": lambda p: evaluate_norm(MixedDerivSpec(E), p),
    "sup+L2": lambda p: evaluate_norm(SupPlusLpSpec(E, MU, 2.0), p),
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
