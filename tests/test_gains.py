"""Gain algebra: evaluation, closure operations, and the identity check."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import gain_trees
from smallgain.gains import (
    Compose,
    DEFAULT_GRID,
    GridSpec,
    Identity,
    Linear,
    Max,
    Power,
    SaturatingRational,
    VerdictStatus,
    additive_to_max,
    compose,
    compose_chain,
    less_than_identity,
    max_of,
    pointwise_max,
)


def eval_oracle(f, s: float) -> float:
    """Plain-float reference evaluation, independent of the numpy path."""
    if isinstance(f, Identity):
        return float(s)
    if isinstance(f, Linear):
        return f.a * s
    if isinstance(f, Power):
        return s**f.p
    if isinstance(f, SaturatingRational):
        u = s**f.q
        return f.c * u / (1.0 + u)
    if isinstance(f, Compose):
        return eval_oracle(f.outer, eval_oracle(f.inner, s))
    if isinstance(f, Max):
        return max(eval_oracle(f.left, s), eval_oracle(f.right, s))
    raise AssertionError(f"unknown node {f!r}")


class TestEvaluation:
    def test_hand_values(self):
        assert Linear(2.0)(3.0) == 6.0
        assert Power(3.0)(2.0) == 8.0
        assert SaturatingRational(0.5, 2.0)(1.0) == 0.25
        assert Identity()(0.7) == 0.7
        assert Max(Linear(2.0), Linear(3.0))(1.0) == 3.0

    def test_compose_order(self):
        inner_first = Compose(Linear(2.0), Power(2.0))
        outer_first = Compose(Power(2.0), Linear(2.0))
        assert inner_first(3.0) == 18.0
        assert outer_first(3.0) == 36.0

    def test_scalar_results_are_floats(self):
        for f in (Identity(), Linear(2), Power(2), SaturatingRational(1, 1)):
            assert isinstance(f(1), float)
            assert isinstance(f(np.float64(1.0)), float)

    @given(gain_trees())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_oracle(self, f):
        for s in (0.0, 1e-3, 0.1, 1.0, 3.7, 50.0):
            expected = eval_oracle(f, s)
            assert f(s) == pytest.approx(expected, rel=1e-13, abs=1e-300)

    @given(gain_trees())
    @settings(max_examples=100, deadline=None)
    def test_vectorized_matches_scalar(self, f):
        pts = np.geomspace(1e-2, 1e2, 33)
        vec = f(pts)
        assert isinstance(vec, np.ndarray)
        scalars = np.array([f(float(s)) for s in pts])
        np.testing.assert_allclose(vec, scalars, rtol=1e-13)

    def test_scalar_overflow_gives_inf(self):
        f = Compose(Power(16.0), Identity())
        assert f(1e32) == math.inf
        assert f(np.array([1e32]))[0] == math.inf

    @given(gain_trees())
    @settings(max_examples=100, deadline=None)
    def test_scalar_overflows_exactly_where_vectorized_does(self, f):
        pts = np.geomspace(1e-300, 1e300, 61)
        vec = f(pts)
        scalars = np.array([f(float(s)) for s in pts])
        assert not np.isnan(vec).any() and not np.isnan(scalars).any()
        np.testing.assert_array_equal(np.isinf(scalars), np.isinf(vec))

    def test_saturating_gives_its_level_where_power_overflows(self):
        f = SaturatingRational(0.5, 40.0)
        assert f(1e8) == 0.5
        assert f(math.inf) == 0.5
        np.testing.assert_array_equal(f(np.array([1e8, math.inf])), [0.5, 0.5])
        assert math.isnan(f(math.nan))

    @given(gain_trees())
    @settings(max_examples=200, deadline=None)
    def test_zero_at_zero_and_positive(self, f):
        assert f(0.0) == 0.0
        pts = np.geomspace(0.1, 10.0, 21)
        assert np.all(f(pts) > 0.0)

    @given(gain_trees())
    @settings(max_examples=200, deadline=None)
    def test_nondecreasing_on_grid(self, f):
        pts = np.geomspace(0.1, 10.0, 201)
        vals = f(pts)
        assert np.all(np.diff(vals) >= 0.0)

    @given(gain_trees(saturating=False))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_without_saturation(self, f):
        # Saturating gains flatten at double resolution for huge inner
        # values, so the strict version of the property excludes them.
        pts = np.geomspace(0.1, 10.0, 201)
        vals = f(pts)
        assert np.all(np.diff(vals) > 0.0)


class TestConstruction:
    def test_parameters_must_be_positive(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Linear(bad)
            with pytest.raises(ValueError):
                Power(bad)
            with pytest.raises(ValueError):
                SaturatingRational(bad, 1.0)
            with pytest.raises(ValueError):
                SaturatingRational(1.0, bad)

    def test_operands_must_be_gains(self):
        with pytest.raises(TypeError):
            Compose(Linear(1.0), 2.0)
        with pytest.raises(TypeError):
            Max("s", Identity())

    def test_equality_and_hashing(self):
        assert Linear(2.0) == Linear(2)
        assert Power(2.0) != Power(3.0)
        table = {Compose(Linear(2), Identity()): "x"}
        assert table[Compose(Linear(2.0), Identity())] == "x"

    def test_frozen(self):
        with pytest.raises(Exception):
            Linear(2.0).a = 3.0

    def test_helpers(self):
        f, g, h = Linear(2.0), Power(2.0), SaturatingRational(1.0, 1.0)
        assert compose(f, g) == Compose(f, g)
        assert pointwise_max(f, g) == Max(f, g)
        chained = compose_chain(f, g, h)
        assert chained(2.0) == f(g(h(2.0)))
        assert compose_chain(f) is f
        assert max_of([f]) is f
        assert max_of([f, g, h])(3.0) == max(f(3.0), g(3.0), h(3.0))
        with pytest.raises(ValueError):
            compose_chain()
        with pytest.raises(ValueError):
            max_of([])

    def test_expression_strings(self):
        assert Identity().to_expr() == "s"
        assert Linear(2.0).to_expr() == "2.0*s"
        assert Power(3.0).to_expr() == "s^3.0"
        assert SaturatingRational(0.5, 2.0).to_expr() == "0.5*s^2.0/(1+s^2.0)"
        assert Compose(Linear(2.0), Power(2.0)).to_expr() == "compose(2.0*s,s^2.0)"
        assert Max(Identity(), Linear(2.0)).to_expr() == "max(s,2.0*s)"
        assert str(Linear(2.0)) == "2.0*s"


class TestGridSpec:
    def test_defaults(self):
        assert DEFAULT_GRID.s_min == 1e-8
        assert DEFAULT_GRID.s_max == 1e8
        assert DEFAULT_GRID.n_points == 4096
        pts = DEFAULT_GRID.points()
        assert pts[0] == pytest.approx(1e-8)
        assert pts[-1] == pytest.approx(1e8)
        assert len(pts) == 4096

    def test_points_cached_and_read_only(self):
        grid = GridSpec(s_min=1e-3, s_max=1e4, n_points=257)
        pts = grid.points()
        np.testing.assert_array_equal(pts, np.geomspace(1e-3, 1e4, 257))
        assert grid.points() is pts
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0] = 1.0
        assert GridSpec(s_min=1e-3, s_max=1e4, n_points=258).points().size == 258

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(s_min=0.0)
        with pytest.raises(ValueError):
            GridSpec(s_min=10.0, s_max=1.0)
        with pytest.raises(ValueError):
            GridSpec(n_points=1)
        with pytest.raises(ValueError):
            GridSpec(refinement_depth=-1)
        with pytest.raises(ValueError):
            GridSpec(margin=1.5)
        with pytest.raises(ValueError):
            GridSpec(spacing="linear")


class TestLessThanIdentity:
    def test_contractive_linear(self):
        v = less_than_identity(Linear(0.5))
        assert v.verified
        assert v.margin == pytest.approx(0.5)

    def test_expanding_linear_violates_with_witness(self):
        v = less_than_identity(Linear(2.0))
        assert v.violated
        assert v.margin == pytest.approx(-1.0)
        assert v.value >= v.witness
        assert DEFAULT_GRID.s_min <= v.witness <= DEFAULT_GRID.s_max

    def test_identity_itself_is_a_violation(self):
        # The comparison is strict, so g = id does not pass.
        v = less_than_identity(Identity())
        assert v.violated
        assert v.margin == 0.0

    def test_near_identity_is_inconclusive(self):
        v = less_than_identity(Linear(1.0 - 1e-15))
        assert v.status is VerdictStatus.INCONCLUSIVE
        assert 0.0 < v.margin <= DEFAULT_GRID.margin

    def test_saturating_verifies_with_small_margin(self):
        # s/(1+s) < s everywhere, but at s_min the relative margin is
        # only about s_min itself.
        v = less_than_identity(SaturatingRational(1.0, 1.0))
        assert v.verified
        assert v.margin == pytest.approx(DEFAULT_GRID.s_min, rel=1e-2)

    def test_refinement_tightens_the_sampled_margin(self):
        g = Compose(SaturatingRational(0.5, 2.0), Power(6.0))
        coarse = less_than_identity(g, GridSpec(refinement_depth=0))
        refined = less_than_identity(g)
        assert refined.verified and coarse.verified
        assert refined.margin <= coarse.margin + 1e-15

    def test_ring_cycle_margin_against_dense_oracle(self):
        # Independent oracle: dense linear sweep over the bracket where
        # the minimizer of 1 - g(s)/s is known to live.
        s = np.linspace(1.0, 1.5, 1_000_001)
        g_vals = s**12 / (2.0 * (1.0 + s**12))
        oracle = float(np.min(1.0 - g_vals / s))

        g = Compose(SaturatingRational(0.5, 2.0), Power(6.0))
        v = less_than_identity(g)
        assert v.verified
        assert v.margin == pytest.approx(oracle, rel=1e-6)
        assert 1.1 < v.witness < 1.35

    def test_saturation_overflow_keeps_verdicts(self):
        # s^q overflows on the default grid; a nan there would win the
        # worst-margin search and turn both verdicts inconclusive.
        v = less_than_identity(SaturatingRational(0.5, 40.0))
        assert v.verified and not math.isnan(v.margin)
        g = Compose(SaturatingRational(2.0, 1.0), Power(400.0))
        v = less_than_identity(g)
        assert v.violated and not math.isnan(v.margin)
        assert g(v.witness) >= v.witness

    @given(gain_trees(max_leaves=4))
    @settings(max_examples=60, deadline=None)
    def test_violation_witness_is_genuine(self, f):
        v = less_than_identity(f, GridSpec(n_points=512, refinement_depth=4))
        if v.violated:
            assert f(v.witness) >= v.witness

    @given(gain_trees(max_leaves=3), gain_trees(max_leaves=3))
    @example(r1=Compose(Power(2.0), Power(2.0)), r2=Compose(Power(2.0), Power(2.0)))
    @settings(max_examples=60, deadline=None)
    def test_violation_transports_through_cyclic_rotation(self, r1, r2):
        # If r1(r2(s*)) >= s*, then applying r2 to both sides moves the
        # witness to t* = r2(s*) for the rotated composition.
        grid = GridSpec(n_points=512, refinement_depth=4)
        v1 = less_than_identity(Compose(r1, r2), grid)
        if not v1.violated:
            return
        t_star = r2(v1.witness)
        if t_star <= 0.0 or not math.isfinite(t_star):
            return
        assert Compose(r2, r1)(t_star) >= t_star * (1.0 - 1e-9)
        v2 = less_than_identity(Compose(r2, r1), grid)
        assert not (v2.verified and v2.margin > 1e-6)


class TestAdditiveToMax:
    def test_default_split(self):
        a, b = additive_to_max(1.0, 6.0)
        assert a == 7.0
        assert b == 7.0

    @given(
        a=st.floats(0, 1e6, allow_nan=False),
        b=st.floats(0, 1e6, allow_nan=False),
        eps=st.floats(0.01, 10.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_majorizes_the_sum(self, a, b, eps):
        lhs = a + b
        ga, gb = additive_to_max(a, b, eps)
        assert max(ga, gb) >= lhs * (1.0 - 1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            additive_to_max(1.0, 1.0, eps=0.0)
        with pytest.raises(ValueError):
            additive_to_max(-1.0, 1.0)
