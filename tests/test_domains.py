import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from markovlab import (
    Interval,
    MixedDerivSpec,
    SupSpec,
    QuadratureBudgetError,
    SampledRegion2D,
    UnionSet,
    box_region,
    chebyshev_measure,
    cusp_region,
    disk_boundary,
    jacobi_measure,
    lebesgue_measure,
    markov_factor_l2,
    set_from_json,
    set_to_json,
    sup_norm,
)
from markovlab.chebseries import ChebSeries, lobatto_points
from markovlab.domains import (
    DEGREE_BUDGET,
    Measure,
    gauss_jacobi,
    measure_from_json,
    measure_to_json,
    sup_points,
    tabulated_measure,
)
from markovlab.norms import _sup


def test_interval_orientation():
    with pytest.raises(ValueError):
        Interval(1.0, -1.0)


def test_union_disjointness():
    with pytest.raises(ValueError):
        UnionSet((Interval(-1, 1), Interval(0, 2)))
    u = UnionSet((Interval(0, 2), Interval(-2, -1)), (3 + 0j,))
    assert u.intervals[0].a == -2  # sorted


def test_union_nonempty():
    with pytest.raises(ValueError):
        UnionSet((), ())


class TestRegions:
    def test_cusp_region_includes_tips(self):
        E = cusp_region()
        assert len(E.points) >= 100
        assert any((x, y) == (1.0, 0.0) for x, y in E.points)
        assert any((x, y) == (-1.0, 0.0) for x, y in E.points)
        # every cloud point satisfies the defining bound
        for x, y in E.points[:: max(len(E.points) // 500, 1)]:
            if abs(x) < 1:
                assert abs(y) <= math.exp(-1.0 / (1.0 - abs(x))) + 1e-15
            else:
                assert y == 0.0

    def test_box_region_has_corners(self):
        E = box_region(grid=33)
        pts = {tuple(p) for p in E.points}
        assert (1.0, 1.0) in pts and (-1.0, -1.0) in pts

    def test_disk_boundary_is_complex(self):
        E = disk_boundary(512)
        assert E.as_complex
        assert np.allclose(np.abs(E.complex_points), 1.0)

    @pytest.mark.parametrize("grid", [10, 33, 65, 101])
    def test_box_region_points_unchanged(self, grid):
        # the Lobatto generator of Interval.grid gives the cos(linspace) points bitwise
        tx = np.cos(np.linspace(np.pi, 0.0, grid))
        xs, ys = 0.5 + 1.5 * tx, -1.0 + 2.0 * tx
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        E = box_region(-1.0, 2.0, -3.0, 1.0, grid=grid)
        assert np.array_equal(E.points, np.column_stack([X.ravel(), Y.ravel()]))


    @pytest.mark.parametrize("grid", [27, 101, 400, 401])
    def test_cusp_region_points_unchanged(self, grid):
        # the mask of the linspace grid in row-major order, then the two tips
        xs = np.linspace(-1.0, 1.0, grid)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        inside = np.abs(X) < 1.0
        with np.errstate(divide="ignore"):
            bound = np.where(inside, np.exp(-1.0 / np.maximum(1.0 - np.abs(X), 1e-300)), 0.0)
        mask = inside & (np.abs(Y) <= bound)
        tips = [[-1.0, 0.0], [1.0, 0.0]]
        E = cusp_region(grid)
        assert np.array_equal(E.points, np.vstack([np.column_stack([X[mask], Y[mask]]), tips]))
        assert np.array_equal(E.points[-2:], tips)

    @pytest.mark.parametrize("E", [box_region(-1.0, 2.0, -3.0, 1.0, grid=33), cusp_region(101), cusp_region(400)],
                             ids=["box", "cusp", "cusp-even-grid"])
    def test_plane_region_is_a_masked_tensor_grid(self, E):
        # each point is bitwise its grid point; on an even cusp grid y = 0
        # is on the axis for the tips alone; no index means the whole grid
        xs, ys = E.axes
        assert (np.diff(xs) > 0).all() and (np.diff(ys) > 0).all()
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        index = np.arange(X.size) if E.index is None else E.index
        assert np.array_equal(np.column_stack([X.ravel()[index], Y.ravel()[index]]), E.points)
        assert np.unique(index).size == len(E.points)

    @pytest.mark.parametrize("E, full", [(box_region(), True), (box_region(grid=81), True),
                                         (box_region(-1.0, 2.0, -3.0, 1.0, grid=33), True),
                                         (cusp_region(), False), (disk_boundary(), False)],
                             ids=["box", "box81", "box-off-center", "cusp", "circle"])
    def test_full_grid_is_recorded_once(self, E, full):
        # a box's points are its whole grid in row-major order, so it keeps
        # no index; a cusp keeps its index, and a complex point set has none
        assert (E.index is None) == (full or E.as_complex)

    def test_shuffled_box_keeps_its_gather(self, rng):
        # the box's points in another order are a masked grid like any other,
        # and give its sups bitwise
        box = box_region()
        order = rng.permutation(len(box.points))
        E = SampledRegion2D(box.points[order], {"predicate": "shuffled_box"})
        assert np.array_equal(E.index, order)
        for a, b in E.axes, box.axes:
            assert np.array_equal(a, b)
        polys = [ChebSeries(rng.standard_normal((a, b))) for a, b in ((1, 1), (4, 6), (9, 2), (9, 9))]
        polys.append(ChebSeries(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))))
        for alpha in (0.0, 0.5):
            got, want = (np.array(_sup(polys, F, False, alpha)) for F in (E, box))
            assert got.tobytes() == want.tobytes()

    def test_plane_region_specs_hash(self):
        # equal regions (one descriptor) hash alike, so their specs key a dict
        box = box_region()
        assert hash(SupSpec(box)) == hash(SupSpec(box_region())) == hash(SupSpec(set_from_json(set_to_json(box))))
        specs = {SupSpec(box): 1, SupSpec(box_region()): 2, SupSpec(cusp_region(101)): 3,
                 MixedDerivSpec(box, 1): 4, SupSpec(disk_boundary(128)): 5}
        assert list(specs.values()) == [2, 3, 4, 5]


class TestSamplePoints:
    """Each set names its gridded pieces and its fixed sample points."""

    def test_interval_grid(self):
        assert np.array_equal(Interval(-1.0, 1.0).grid(3), lobatto_points(32))
        np.testing.assert_array_equal(Interval(0.0, 3.0).grid(4), 1.5 + 1.5 * lobatto_points(40))

    def test_at_maps_the_reference_interval(self):
        # (a + b)/2 + (b - a)/2 t: its ends are a and b, 0 is the midpoint
        assert Interval(1.0, 5.5).at(np.array([-1.0, 0.0, 1.0])).tolist() == [1.0, 3.25, 5.5]
        assert Interval(0.0, 3.0).at(0.5) == 2.25

    def test_at_where_the_ends_sum_past_the_double_range(self):
        # a + b overflows; a/2 + b/2 does not, and a constant's sup is itself
        E = Interval(1e308, 1.7e308)
        assert E.at(np.array([-1.0, 0.0, 1.0])).tolist() == [1e308, 1.35e308, 1.7e308]
        assert np.isfinite(E.grid(4)).all()
        assert sup_norm(ChebSeries([1.0]), E) == 1.0

    def test_interval(self):
        E = Interval(0.0, 3.0)
        assert E.intervals == (E,)
        (pts,) = E.samples
        assert pts.size == 0

    def test_union_samples_real_or_complex(self):
        iv = Interval(0.0, 1.0)
        real = UnionSet((iv,), (4.0, -2.0 + 0j))
        assert real.intervals == (iv,)
        assert real.samples[0].dtype == float and real.samples[0].tolist() == [4.0, -2.0]
        mixed = UnionSet((), (1.0, 1.5j))
        assert mixed.intervals == ()
        assert mixed.samples[0].dtype == complex and mixed.samples[0].tolist() == [1.0, 1.5j]
        assert np.array_equal(sup_points(real, 0), np.r_[iv.grid(0), 4.0, -2.0])

    def test_region_samples(self):
        circle, box = disk_boundary(128), box_region(grid=11)
        assert circle.intervals == box.intervals == ()
        (z,) = circle.samples
        assert np.array_equal(z, circle.complex_points)
        x, y = box.samples
        assert np.array_equal(x, box.points[:, 0]) and np.array_equal(y, box.points[:, 1])


class TestSetJson:
    @pytest.mark.parametrize(
        "E",
        [
            Interval(-1.0, 1.0),
            UnionSet((Interval(-1.0, 1.0),), (2.0, 1j)),
            cusp_region(grid=101),
            box_region(grid=25),
            disk_boundary(256),
        ],
    )
    def test_round_trip(self, E):
        assert set_from_json(set_to_json(E)) == E

    def test_wire_format_matches_contract(self):
        assert set_to_json(Interval(-1, 1)) == {"kind": "interval", "a": -1, "b": 1}
        blob = set_to_json(cusp_region(grid=401))
        assert blob["kind"] == "region2d"
        assert blob["predicate"] == "cusp_exp"
        assert blob["grid"] == 401

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            set_from_json({"kind": "pentagon"})


class TestMeasures:
    @pytest.mark.parametrize(
        "mu",
        [
            lebesgue_measure(),
            jacobi_measure(0.5, 0.5),
            chebyshev_measure(),
            jacobi_measure(1.0, -0.25),
        ],
    )
    def test_probability_mass(self, mu):
        _, weights = mu.gauss_rule(48)
        assert float(weights.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_lebesgue_moments_exact(self):
        mu = lebesgue_measure()
        for k in range(0, 12):
            nodes, weights = mu.rule_for_degree(k)
            got = float(np.dot(weights, nodes**k))
            want = 0.0 if k % 2 else 1.0 / (k + 1)
            assert got == pytest.approx(want, abs=1e-14)

    def test_jacobi_moments_match_quad(self):
        alpha, beta = 0.5, -0.25
        mu = jacobi_measure(alpha, beta)
        m0 = quad(lambda x: (1 - x) ** alpha * (1 + x) ** beta, -1, 1)[0]
        for k in (1, 2, 5):
            nodes, weights = mu.rule_for_degree(k)
            got = float(np.dot(weights, nodes**k))
            want = quad(lambda x: x**k * (1 - x) ** alpha * (1 + x) ** beta, -1, 1)[0] / m0
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 64, 257, 512])
    def test_chebyshev_rule_matches_closed_form(self, n):
        # Gauss-Chebyshev: nodes cos((2k - 1) pi / (2n)), all weights 1/n
        nodes, weights = chebyshev_measure().gauss_rule(n)
        want = np.cos((2 * np.arange(n, 0, -1) - 1) * np.pi / (2 * n))
        np.testing.assert_allclose(nodes, want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(weights * n, 1.0, rtol=1e-12)

    def test_budget_enforced(self):
        assert 2 * DEGREE_BUDGET == 512
        lebesgue_measure().rule_for_degree(512)
        with pytest.raises(QuadratureBudgetError):
            lebesgue_measure().rule_for_degree(513)

    @pytest.mark.parametrize(
        "mu", [lebesgue_measure(), jacobi_measure(0.0, 0.0), jacobi_measure(0.5, -0.25), chebyshev_measure()]
    )
    def test_unit_interval_rules_are_the_cached_arrays(self, mu):
        nodes, weights = mu.gauss_rule(33)
        cached = gauss_jacobi(33, mu.alpha, mu.beta)
        assert nodes is cached[0] and weights is cached[1]
        assert not nodes.flags.writeable and not weights.flags.writeable

    @pytest.mark.parametrize("a, b", [(0.0, 3.0), (-2.0, 2.0), (1.0, 5.5)])
    def test_shifted_lebesgue_rule_is_the_mapped_legendre_rule(self, a, b):
        x, w = gauss_jacobi(40, 0.0, 0.0)
        nodes, weights = lebesgue_measure(a, b).gauss_rule(40)
        np.testing.assert_array_equal(nodes, (a + b) / 2 + (b - a) / 2 * x)
        assert weights is w

    def test_measures_are_frozen(self):
        mu = lebesgue_measure()
        with pytest.raises(dataclasses.FrozenInstanceError):
            mu.support = Interval(0.0, 1.0)

    def test_tabulated_self_consistency(self):
        mu = tabulated_measure(lambda x: 1.0 + 0.5 * np.cos(np.pi * x))
        nodes, weights = mu.gauss_rule(64)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_tabulated_weight_not_finite_fails_self_consistency(self, bad):
        # checked before the totals, whose inf - inf would warn
        mu = tabulated_measure(lambda x: np.where(x > 0.5, bad, 1.0))
        with pytest.raises(QuadratureBudgetError, match="self-consistency: it is NaN or inf"):
            mu.gauss_rule(64)

    def test_measure_json_round_trip(self):
        for mu in (lebesgue_measure(-2.0, 3.0), jacobi_measure(0.5, 0.5)):
            back = measure_from_json(measure_to_json(mu))
            assert back.kind == mu.kind
            assert back.support == mu.support

    def test_lebesgue_is_jacobi_zero(self):
        assert lebesgue_measure() == jacobi_measure(0, 0)
        assert measure_to_json(jacobi_measure(0, 0)) == {"kind": "lebesgue", "a": -1.0, "b": 1.0}

    def test_weight_with_exponent_rejected(self):
        with pytest.raises(ValueError, match="no jacobi exponents"):
            Measure(Interval(-1.0, 1.0), alpha=0.5, weight_fn=np.ones_like)

    def test_exponents_alone_give_the_jacobi_l2_factor(self):
        got = markov_factor_l2(8, 1, Measure(Interval(-1.0, 1.0), alpha=0.5)).factor
        assert got == markov_factor_l2(8, 1, jacobi_measure(0.5, 0)).factor
        assert got == pytest.approx(28.400, abs=1e-3)

    def test_tabulated_not_serializable(self):
        with pytest.raises(TypeError):
            measure_to_json(tabulated_measure(lambda x: np.ones_like(x)))
