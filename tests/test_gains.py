"""Gain algebra: evaluation, closure operations, and the identity check."""

import importlib
import json
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import smallgain.gains as gains
from conftest import gain_leaves, gain_trees
from smallgain.gains import (
    Compose,
    DEFAULT_GRID,
    GridSpec,
    Identity,
    Linear,
    Max,
    Power,
    SaturatingRational,
    Verdict,
    VerdictStatus,
    additive_to_max,
    compose,
    compose_chain,
    less_than_identity,
    less_than_identity_chains,
    max_of,
    pointwise_max,
)
from smallgain.dsl import parse_system
import smallgain.graph as graph
from smallgain.graph import build_gain_digraph, check_cyclic_small_gain, cycle_gain, enumerate_simple_cycles
from smallgain.reduction import closed_loop_input_gains


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


def reference_eval(f, s):
    """The plain tree recursion: every occurrence of a node is evaluated,
    and every power is ``**`` on every entry."""
    if isinstance(f, Compose):
        return reference_eval(f.outer, reference_eval(f.inner, s))
    if isinstance(f, Max):
        return np.maximum(reference_eval(f.left, s), reference_eval(f.right, s))
    if isinstance(f, Identity):
        return s
    if isinstance(f, Linear):
        return f.a * s
    if isinstance(f, Power):
        return s**f.p
    u = s**f.q

    def saturate():
        return f.c * (u / (1.0 + u)) if f.c > 1.0 else f.c * u / (1.0 + u)

    try:
        return saturate()
    except FloatingPointError:
        with np.errstate(invalid="ignore"):
            return np.where(np.isinf(u), f.c, saturate())


def reference_call(f, s):
    """``KFunction.__call__`` on top of the tree recursion."""
    if np.isscalar(s) or isinstance(s, (int, float)):
        try:
            out = float(reference_eval(f, s))
        except OverflowError:
            out = math.nan
        if not math.isnan(out) or math.isnan(s):
            return out
        with np.errstate(invalid="raise"):
            return float(reference_eval(f, np.float64(s)))
    with np.errstate(invalid="raise"):
        return reference_eval(f, s)


def reference_expr(f) -> str:
    """The plain tree recursion of ``to_expr``."""
    if isinstance(f, Compose):
        return f"compose({reference_expr(f.outer)},{reference_expr(f.inner)})"
    if isinstance(f, Max):
        return f"max({reference_expr(f.left)},{reference_expr(f.right)})"
    return f._expr()


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@st.composite
def gain_dags(draw, max_ops: int = 12):
    """Gains whose trees share subtrees: each new node combines two nodes
    already built, so one node object can sit under many parents.
    Returns the pool, newest last."""
    pool = draw(st.lists(gain_leaves(), min_size=1, max_size=4))
    for _ in range(draw(st.integers(1, max_ops))):
        a = draw(st.sampled_from(pool))
        b = draw(st.sampled_from(pool))
        pool.append(draw(st.sampled_from([Compose, Max]))(a, b))
    return pool


# Points that overflow float ** (1e300 under Power(2)), make inf/inf
# (1.7e308 times a coefficient above 1 under a saturation) or are not
# finite, next to ordinary ones.
DAG_POINTS = (0.0, 1e-300, 1e-8, 0.37, 1.0, 2.5, 1e8, 1e154, 1e300, 1.7e308, math.inf, math.nan)

contractive_gains = st.one_of(
    st.builds(Linear, st.floats(0.05, 0.7)),
    st.builds(SaturatingRational, st.floats(0.05, 0.7), st.floats(1.0, 2.0)),
)


@st.composite
def verified_digraphs(draw):
    """Small digraphs whose edges all lie below 0.7*s, so every cycle
    verifies; input gains are arbitrary."""
    k = draw(st.integers(2, 4))
    pairs = [(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    edges = {p: draw(contractive_gains) for p in chosen}
    nodes = draw(st.lists(st.integers(1, k), unique=True, max_size=k))
    inputs = {i: draw(gain_leaves()) for i in nodes}
    return build_gain_digraph(k, edges, input_gains=inputs)


class TestSharedSubexpressions:
    """Memoised evaluation and serialization against the tree recursion."""

    @given(gain_dags(), st.lists(st.one_of(st.sampled_from(DAG_POINTS), st.floats(0.0, 1e308)), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    @example(
        pool=[Compose(Power(2.0), Identity()), Compose(SaturatingRational(0.5, 1.0), Linear(10.0))],
        points=[1e300, 1.7e308],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_scalars_equal_the_tree_recursion_bit_for_bit(self, pool, points):
        for x in points:
            want = [bits(reference_call(g, x)) for g in pool]
            # One memo shared by every gain at this argument, as in
            # ClosedLoopGains.to_dict, and a fresh one per call.
            memo: dict = {}
            assert [bits(g(x, memo)) for g in pool] == want
            assert [bits(g(x)) for g in pool] == want

    @given(gain_dags())
    @settings(max_examples=100, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_arrays_equal_the_tree_recursion_bit_for_bit(self, pool):
        pts = np.array([p for p in DAG_POINTS if not math.isnan(p)] + list(np.geomspace(1e-3, 1e3, 9)))
        memo: dict = {}  # shared by every gain, as in ClosedLoopGains.to_dict
        for g in pool:
            want = bits(reference_call(g, pts))
            assert bits(g(pts)) == want
            assert bits(g(pts, memo)) == want

    @given(gain_dags())
    @settings(max_examples=100, deadline=None)
    def test_strings_equal_the_tree_recursion(self, pool):
        for g in pool:
            assert g.to_expr() == reference_expr(g)

    def test_shared_node_is_evaluated_once_per_argument(self):
        calls = []

        class Counted(Linear):
            def _eval(self, s):
                calls.append(s)
                return super()._eval(s)

        leaf = Counted(0.5)
        g = leaf
        for _ in range(30):
            g = Max(g, g)  # 2^30 leaf occurrences in the tree
        x = 3.0
        assert g(x) == 1.5
        assert len(calls) == 1
        memo: dict = {}
        g(x, memo), Compose(g, g)(x, memo)
        assert len(calls) == 3  # leaf at x again, then at g(x) for the outer g
        # An array call takes a memo the same way; without one it walks
        # the DAG with a fresh memo, as a scalar call does.
        h = leaf
        for _ in range(10):
            h = Max(h, h)  # 2^10 leaf occurrences
        xs = np.array([1.0, 3.0])
        del calls[:]
        memo = {}
        np.testing.assert_array_equal(h(xs, memo), [0.5, 1.5])
        np.testing.assert_array_equal(Compose(h, h)(xs, memo), [0.25, 0.75])
        assert [c is xs for c in calls] == [True, False]  # leaf at xs, then at h(xs)
        np.testing.assert_array_equal(h(xs), [0.5, 1.5])
        np.testing.assert_array_equal(Compose(h, h)(xs), [0.25, 0.75])
        assert [c is xs for c in calls[2:]] == [True, True, False]  # once per call and argument

    @given(verified_digraphs())
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_closed_loop_gains_equal_the_tree_recursion(self, g):
        closed = closed_loop_input_gains(g, GridSpec(n_points=256, refinement_depth=2))
        samples = np.array([1e-3, 0.5, 1.0, 7.0, 1e300])
        doc = closed.to_dict(samples)
        for i in range(1, g.k + 1):
            entry = doc["nodes"][str(i)]
            sigma, gain = closed.sigmas[i], closed.input_gains[i]
            assert entry["sigma"] == reference_expr(sigma)
            assert bits(entry["table"]["sigma"]) == bits(reference_call(sigma, samples))
            if gain is None:
                assert entry["input_gain"] is None and entry["table"]["input_gain"] is None
            else:
                assert entry["input_gain"] == reference_expr(gain)
                assert bits(entry["table"]["input_gain"]) == bits(reference_call(gain, samples))


# Input gains that leave float range: s^400 overflows at 1e3, s^40 does
# above 1e8, and Linear(1e300) gives inf above 1e8, where the saturation
# takes inf/inf.
OVERFLOWING_INPUTS = (
    Power(400.0),
    SaturatingRational(0.5, 40.0),
    Compose(SaturatingRational(0.5, 2.0), Linear(1e300)),
)
TABLE_POINTS = (*DAG_POINTS, 1e3, 1e10)


@st.composite
def elimination_dags(draw):
    """Closed-loop gains of a verified digraph, some of whose input gains
    overflow on some samples."""
    g = draw(verified_digraphs())
    inputs = dict(g.input_gains)
    for i in draw(st.lists(st.integers(1, g.k), unique=True, max_size=2)):
        inputs[i] = draw(st.sampled_from(OVERFLOWING_INPUTS))
    g = build_gain_digraph(g.k, g.edges, input_gains=inputs)
    return closed_loop_input_gains(g, GridSpec(n_points=256, refinement_depth=2))


def closed_loop_tables(closed, samples):
    return {
        (name, int(i)): doc["table"][name]
        for i, doc in closed.to_dict(samples)["nodes"].items()
        for name in ("sigma", "input_gain")
        if doc["table"][name] is not None
    }


def tabled_gain(closed, name, i):
    return (closed.sigmas if name == "sigma" else closed.input_gains)[i]


class TestGainTables:
    """Closed-loop tables: the values of one array call at the samples."""

    @given(elimination_dags(), st.lists(st.one_of(st.sampled_from(TABLE_POINTS), st.floats(0.0, 1e12)), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    @example(
        closed=closed_loop_input_gains(
            build_gain_digraph(2, {(1, 2): Linear(0.5), (2, 1): SaturatingRational(0.5, 2.0)}, input_gains={1: Power(400.0)})
        ),
        samples=[1e-3, 1.0, 1e3],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_tables_equal_the_array_call_bit_for_bit(self, closed, samples):
        xs = np.array(samples, dtype=float)
        for (name, i), vals in closed_loop_tables(closed, samples).items():
            gain = tabled_gain(closed, name, i)
            assert bits(vals) == bits(gain(xs))
            # Within the tolerance between array and scalar calls; the
            # absolute one covers subnormal values, which carry fewer bits.
            np.testing.assert_allclose(vals, [gain(x) for x in samples], rtol=1e-13, atol=1e-300)

    @pytest.mark.parametrize(
        "input_gain, leaving, value",
        [
            (Power(400.0), 1e3, math.inf),  # 1e3^400 overflows
            (SaturatingRational(0.5, 40.0), 1e10, 0.5),  # (1e10)^40 overflows
            (Compose(SaturatingRational(0.5, 2.0), Linear(1e300)), 1e10, 0.5),  # inf/inf
        ],
    )
    def test_values_that_leave_float_range_take_their_limits(self, input_gain, leaving, value):
        edges = {(1, 2): Linear(0.5), (2, 3): SaturatingRational(1.2, 2.0), (3, 1): SaturatingRational(0.5, 4.0)}
        closed = closed_loop_input_gains(build_gain_digraph(3, edges, input_gains={1: input_gain}))
        samples = [1e-3, 0.5, 1.2, leaving]
        tables = closed_loop_tables(closed, samples)
        assert tables[("input_gain", 1)][-1] == value == input_gain(leaving)
        for (name, i), vals in tables.items():
            gain = tabled_gain(closed, name, i)
            assert bits(vals) == bits(reference_call(gain, np.array(samples)))


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

    @pytest.mark.parametrize(
        "call",
        [
            lambda: Power(0.5)(-1.0),
            lambda: Linear(0.5)(-1.0),
            lambda: Power(0.5)(np.array([1.0, -1.0, -2.0])),
            lambda: closed_loop_input_gains(
                build_gain_digraph(2, {(1, 2): Linear(0.5), (2, 1): Linear(0.5)}, input_gains={1: Power(0.5)})
            ).to_dict([1.0, -1.0]),
        ],
        ids=["power", "linear", "array", "table"],
    )
    def test_negative_argument_raises(self, call):
        with pytest.raises(ValueError, match=r"^gain argument must be nonnegative, got -1\.0$"):
            call()

    def test_signed_zero_nan_and_inf_are_evaluated(self):
        for g in (Linear(0.5), Power(0.5), SaturatingRational(0.5, 2.0)):
            xs = np.array([-0.0, math.nan, math.inf])
            assert bits(g(xs)) == bits(reference_call(g, xs))
            assert bits([g(x) for x in xs.tolist()]) == bits([reference_call(g, x) for x in xs.tolist()])

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scalar_overflow_gives_inf(self):
        # Silently: a numpy scalar argument, or a Max's numpy scalar value,
        # overflows as a float does.
        f = Compose(Power(16.0), Identity())
        assert f(1e32) == math.inf
        assert f(np.float64(1e32)) == math.inf
        assert f(np.array([1e32]))[0] == math.inf
        assert Compose(Power(16.0), Max(Linear(0.5), Identity()))(1e32) == math.inf

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

    def test_saturating_stays_below_its_level_where_c_times_power_overflows(self):
        # s^q is finite where c*s^q overflows; the gain stays at c there.
        g = Compose(SaturatingRational(10.0, 1.0), Linear(1e300))
        assert g(5e7) == 10.0
        assert g(1e-300) == pytest.approx(5.0)
        vals = g(np.array([1e-300, 1.0, 5e7, 1e300, math.inf]))
        np.testing.assert_array_equal(vals[1:], [10.0] * 4)
        assert vals[0] == pytest.approx(5.0)
        # Levels up to 1 keep c*u/(1+u) bit for bit.
        s = np.geomspace(1e-8, 1e8, 101)
        for c in (0.5, 1.0):
            np.testing.assert_array_equal(SaturatingRational(c, 2.0)(s), c * s**2.0 / (1.0 + s**2.0))

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
        with pytest.raises(TypeError):
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

    @pytest.mark.parametrize(
        "g, grid",
        [
            # The worst margin of a linear gain lies at s_min, where
            # s_min times its neighbour underflows to 0.
            (Linear(0.5), GridSpec(s_min=1e-162, s_max=1e10, n_points=256)),
            (Linear(0.5), GridSpec(s_min=1e-200)),
            # The worst margin lies at s_max, where s_max squared overflows.
            (Compose(Linear(0.001), Power(1.001)), GridSpec(s_max=1e200)),
        ],
    )
    def test_refinement_probes_at_extreme_grid_ends(self, g, grid):
        v = less_than_identity(g, grid)
        assert v.verified and v.witness in (grid.s_min, grid.s_max)
        assert v.margin == 1.0 - g(v.witness) / v.witness

    def test_saturation_level_overflow_keeps_verdict(self):
        # At most 1e-9 everywhere, though c*s^q of the inner gain
        # overflows for s above about 1.8e7.
        g = Compose(Linear(1e-10), Compose(SaturatingRational(10.0, 1.0), Linear(1e300)))
        v = less_than_identity(g)
        assert v.verified
        assert v.value <= 1e-9

    @given(gain_trees(max_leaves=4))
    @settings(max_examples=60, deadline=None)
    def test_violation_witness_is_genuine(self, f):
        v = less_than_identity(f, GridSpec(n_points=512, refinement_depth=4))
        if v.violated:
            assert f(v.witness) >= v.witness

    @given(gain_trees(max_leaves=3), gain_trees(max_leaves=3))
    @example(r1=Compose(Power(2.0), Power(2.0)), r2=Compose(Power(2.0), Power(2.0)))
    # Rotated witnesses below and above the first grid: 1e-10, 1.6e-10,
    # 1e10 and 1e12.
    @example(r1=SaturatingRational(0.01, 0.5), r2=Linear(0.01))
    @example(r1=SaturatingRational(0.0625, 0.625), r2=Linear(0.015625))
    @example(r1=Linear(0.015625), r2=Power(1.25))
    @example(r1=Compose(Linear(0.125), Linear(0.015625)), r2=Power(1.5))
    @settings(max_examples=60, deadline=None)
    def test_violation_transports_through_cyclic_rotation(self, r1, r2):
        # If r1(r2(s*)) >= s*, then applying r2 to both sides moves the
        # witness to t* = r2(s*) for the rotated composition.  t* can lie
        # outside the first grid (r2 = Linear(0.01) moves s* = 1e-8 to
        # 1e-10), where a grid verdict says nothing, so the rotation is
        # checked on a grid with t* as an endpoint: np.geomspace makes
        # the endpoints exact.
        grid = GridSpec(n_points=512, refinement_depth=4)
        v1 = less_than_identity(Compose(r1, r2), grid)
        if not v1.violated:
            return
        t_star = r2(v1.witness)
        if t_star <= 0.0 or not math.isfinite(t_star):
            return
        assert Compose(r2, r1)(t_star) >= t_star * (1.0 - 1e-9)
        if t_star < grid.s_max:
            grid = replace(grid, s_min=t_star)
        else:
            grid = replace(grid, s_max=t_star)
        assert t_star in (grid.points()[0], grid.points()[-1])
        v2 = less_than_identity(Compose(r2, r1), grid)
        assert not (v2.verified and v2.margin > 1e-6)


def geometric_mean(a: float, b: float) -> float:
    """A refinement probe: sqrt(a*b), or sqrt(a)*sqrt(b) where a*b is
    not a normal finite float (it would make the probe 0 or inf)."""
    ab = float(a) * float(b)
    if sys.float_info.min <= ab < math.inf:
        return math.sqrt(ab)
    return math.sqrt(a) * math.sqrt(b)


@np.errstate(invalid="raise")
def reference_less_than_identity(g, grid: GridSpec = DEFAULT_GRID) -> Verdict:
    """One gain at a time: the grid sweep and refinement loop that
    ``less_than_identity_chains`` batches."""

    def relative_margins(pts):
        vals = np.asarray(reference_call(g, pts), dtype=float)
        if vals.shape != pts.shape:
            vals = np.broadcast_to(vals, pts.shape).astype(float)
        return vals, 1.0 - vals / pts

    pts = grid.points()
    vals, margins = relative_margins(pts)
    worst = int(np.argmin(margins))
    best_margin, best_s, best_val = float(margins[worst]), float(pts[worst]), float(vals[worst])
    if best_margin <= 0.0 and vals[worst] >= pts[worst]:
        return Verdict(VerdictStatus.VIOLATED, best_margin, best_s, best_val)
    lo = pts[max(worst - 1, 0)]
    hi = pts[min(worst + 1, len(pts) - 1)]
    centre_s, centre_margin, centre_val = best_s, best_margin, best_val
    for _ in range(grid.refinement_depth):
        probes = np.array([geometric_mean(lo, centre_s), geometric_mean(centre_s, hi)])
        pvals, pmargins = relative_margins(probes)
        for j in range(2):
            if pmargins[j] < best_margin:
                best_margin, best_s, best_val = float(pmargins[j]), float(probes[j]), float(pvals[j])
            if pvals[j] >= probes[j]:
                return Verdict(VerdictStatus.VIOLATED, float(pmargins[j]), float(probes[j]), float(pvals[j]))
        candidates = [
            (float(pmargins[0]), float(probes[0]), float(pvals[0]), lo, centre_s),
            (centre_margin, centre_s, centre_val, float(probes[0]), float(probes[1])),
            (float(pmargins[1]), float(probes[1]), float(pvals[1]), centre_s, hi),
        ]
        centre_margin, centre_s, centre_val, lo, hi = min(candidates, key=lambda c: c[0])
    if best_margin > grid.margin:
        return Verdict(VerdictStatus.VERIFIED_ON_GRID, best_margin, best_s, best_val)
    return Verdict(VerdictStatus.INCONCLUSIVE, best_margin, best_s, best_val)


# Gains that reach every verdict and every overflow path: a violation, a
# tangency below floating-point trust, s^q overflowing under a saturation
# (the inf fallback), and c*s^q overflowing for c > 1.
SPECIAL_GAINS = (
    Linear(2.0),
    Linear(1.0 - 1e-13),
    SaturatingRational(0.5, 40.0),
    Compose(SaturatingRational(2.0, 1.0), Power(400.0)),
    Compose(SaturatingRational(10.0, 1.0), Linear(1e300)),
    Power(1.01),
)

edge_gains = st.one_of(gain_trees(max_leaves=3), st.sampled_from(SPECIAL_GAINS))

grids = st.builds(
    GridSpec,
    s_min=st.sampled_from([1e-8, 1e-3]),
    s_max=st.sampled_from([1e3, 1e8]),
    n_points=st.integers(2, 300),
    refinement_depth=st.integers(0, 12),
)


@st.composite
def shared_edge_digraphs(draw):
    """Digraphs on up to 5 nodes whose edges mostly reuse a few gain
    objects (some of them sharing subtrees), so that cycles share
    innermost runs of edges by identity."""
    k = draw(st.integers(2, 5))
    pool = draw(gain_dags(max_ops=4)) + draw(st.lists(edge_gains, min_size=1, max_size=3))
    edges = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i != j and draw(st.booleans()):
                edges[(i, j)] = draw(st.one_of(st.sampled_from(pool), st.sampled_from(pool), edge_gains))
    return build_gain_digraph(k, edges)


class TestBatchedCycleCheck:
    @given(shared_edge_digraphs(), grids)
    @settings(max_examples=60, deadline=None)
    def test_reports_match_the_per_cycle_reference(self, g, grid):
        result = check_cyclic_small_gain(g, grid)
        cycles = enumerate_simple_cycles(g)
        assert [r.cycle for r in result.reports] == cycles
        for report in result.reports:
            assert report.gain == cycle_gain(g, report.cycle)
            assert report.verdict.to_dict() == reference_less_than_identity(report.gain, grid).to_dict()

    @given(shared_edge_digraphs(), grids)
    @settings(max_examples=40, deadline=None)
    def test_text_and_reports_built_on_demand_match_their_oracles(self, g, grid):
        check = check_cyclic_small_gain(g, grid)
        worst = check.worst()  # built before the reports
        assert check.to_json() == json.dumps(check.to_dict(), indent=2, sort_keys=True) + "\n"
        assert [r.cycle for r in check.reports] == check.cycles == enumerate_simple_cycles(g)
        for report in check.reports:
            assert report.gain == cycle_gain(g, report.cycle)
        assert worst == (min(check.reports, key=lambda r: r.margin) if check.reports else None)
        assert check.worst() == worst

    @given(st.one_of(gain_trees(max_leaves=4), st.sampled_from(SPECIAL_GAINS)), grids)
    @settings(max_examples=60, deadline=None)
    def test_batch_of_one_matches_the_reference(self, f, grid):
        assert less_than_identity(f, grid) == reference_less_than_identity(f, grid)

    def test_every_verdict_and_overflow_path_matches(self):
        # A saturation with a steep step is below the identity at the
        # three grid points but above it near s = 1.5, which only the
        # refinement finds.
        steep = SaturatingRational(1.9, 20.0)
        coarse = GridSpec(s_min=1e-3, s_max=1e3, n_points=3)
        assert less_than_identity(steep, replace(coarse, refinement_depth=0)).verified
        shared = Power(1.5)
        chains = [
            (steep,),
            (Linear(0.5), shared),
            (shared, Linear(0.5)),
            (Linear(0.5), Linear(0.5), shared),
            (Linear(0.5),),
            *((f,) for f in SPECIAL_GAINS),
            (Linear(0.5), SaturatingRational(0.5, 40.0)),
            (Linear(0.9), Linear(0.9)),
            (SaturatingRational(0.5, 40.0), Linear(0.9), Linear(0.9)),
        ]
        for grid in (DEFAULT_GRID, coarse, GridSpec(n_points=2, refinement_depth=12)):
            got = less_than_identity_chains(chains, grid)
            want = [reference_less_than_identity(compose_chain(*c), grid) for c in chains]
            assert got == want
        statuses = {v.status for v in less_than_identity_chains(chains, coarse)}
        assert statuses == set(VerdictStatus)
        assert less_than_identity_chains([(steep,)], coarse)[0].violated

    def test_empty_chain_is_rejected(self):
        with pytest.raises(ValueError, match="at least one gain"):
            less_than_identity_chains([(Linear(0.5),), ()])
        assert less_than_identity_chains([]) == []

    def test_complete_digraph_check_keeps_memory_small(self):
        # Complete k=6 has 409 cycles; holding each cycle's grid array
        # would take about 13 MB.  The sweep evaluates arrays of at most
        # 8,192 grid points, the coarse points of 63 cycles or 256 of the
        # blocks it keeps: under 1 MB.
        edges = {
            (i, j): SaturatingRational(0.5 + 0.1 * ((i * j) % 5), 2.0 + 2.0 * ((i + j) % 2))
            for i in range(1, 7)
            for j in range(1, 7)
            if i != j
        }
        g = build_gain_digraph(6, edges)
        DEFAULT_GRID.points()
        tracemalloc.start()
        try:
            result = check_cyclic_small_gain(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.reports) == 409
        assert peak < 1.5e6

    def test_seven_node_complete_digraph_check_keeps_memory_small(self):
        # Complete k=7 has 2,365 cycles.  Sweeping them took a peak of
        # 2.4 MB before the coarse points were evaluated once per distinct
        # suffix; the check must not hold more than that.
        edges = {
            (i, j): SaturatingRational(0.5 + 0.1 * ((i * j) % 5), 2.0 + 2.0 * ((i + j) % 2))
            for i in range(1, 8)
            for j in range(1, 8)
            if i != j
        }
        g = build_gain_digraph(7, edges)
        DEFAULT_GRID.points()
        tracemalloc.start()
        try:
            result = check_cyclic_small_gain(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.cycles) == 2365
        assert peak < 2.4e6


# Saturations of both exponents on both sides of c = 1, which share a
# refinement step at each depth, next to edges that keep steps of their own.
SATURATION_FAMILIES = tuple(SaturatingRational(c, q) for c in (0.5, 0.9, 1.2, 1.5) for q in (2.0, 4.0))
OWN_STEP_EDGES = (
    Identity(),
    Linear(0.5),
    Power(1.01),
    Compose(Linear(0.3), Power(1.2)),
    Max(Linear(0.4), SaturatingRational(0.5, 2.0)),
    SaturatingRational(0.5, 40.0),  # s^40 overflows: the inf/inf lane
)
COARSE = GridSpec(s_min=1e-3, s_max=1e3, n_points=3)
# Worst margins at the ends of this grid put probes where the product of
# two points underflows or overflows.
EXTREME = GridSpec(s_min=1e-300, s_max=1e300, n_points=40, refinement_depth=10)


BENCH = Path(__file__).resolve().parent.parent / "bench"

# A 6-cycle of dense6 (seed 0, cycle (1, 6, 4, 3, 5, 2)) whose worst margin,
# 1 - 3.5e-14, is tied over grid indices 2282-2291 of the default grid:
# the tie starts inside the block between coarse indices 2272 and 2304.
TIED_CYCLE = tuple(
    SaturatingRational(c, q)
    for c, q in [
        (0.9626922210856335, 2.0),
        (0.6399104799264763, 4.0),
        (1.1650902979414126, 2.0),
        (0.8332102055034482, 4.0),
        (1.1181144717134208, 2.0),
        (1.3215320773128396, 2.0),
    ]
)
SWEPT = replace(DEFAULT_GRID, refinement_depth=0)


def coarse_indices(n: int) -> set:
    return set(range(0, n, gains._BLOCK)) | {n - 1}


def sweep_margins(chain, grid):
    pts = grid.points()
    return pts, 1.0 - reference_call(compose_chain(*chain), pts) / pts


@pytest.fixture(scope="module")
def workloads():
    """bench/workloads.py, imported without writing bytecode next to it."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved


class TestBlockSweep:
    """The grid sweep evaluates the coarse points and only the blocks
    that can hold a chain's worst point, and finds the argmin of the full
    grid: the per-chain reference evaluates every grid point."""

    @given(shared_edge_digraphs(), st.builds(
        GridSpec,
        s_min=st.sampled_from([1e-8, 1e-3]),
        s_max=st.sampled_from([1e3, 1e8]),
        n_points=st.sampled_from([1000, 4096]),
        refinement_depth=st.integers(0, 8),
    ))
    @settings(max_examples=25, deadline=None)
    def test_large_grids_match_the_per_cycle_reference(self, g, grid):
        for report in check_cyclic_small_gain(g, grid).reports:
            assert report.verdict.to_dict() == reference_less_than_identity(report.gain, grid).to_dict()

    def test_tied_margins_keep_the_first_index(self):
        pts, margins = sweep_margins(TIED_CYCLE, SWEPT)
        ties = np.flatnonzero(margins == margins.min())
        assert len(ties) > 1 and ties[0] not in coarse_indices(len(pts))
        chains = [TIED_CYCLE, TIED_CYCLE[::-1], TIED_CYCLE[1:]]
        got = less_than_identity_chains(chains, SWEPT)
        assert got[0].margin == margins.min() and got[0].witness == pts[ties[0]]
        for grid in (SWEPT, DEFAULT_GRID):
            assert less_than_identity_chains(chains, grid) == [
                reference_less_than_identity(compose_chain(*c), grid) for c in chains
            ]

    @pytest.mark.parametrize(
        "chain, violated",
        [
            # Worst margin at grid index 2073, inside a block.
            ((SaturatingRational(0.5, 3.0),), False),
            # Above the identity at grid index 2049 alone.
            ((SaturatingRational(1.015, 1000.0),), True),
            # s^50 overflows from about 1.4e6 on: inf at the upper coarse
            # points of the blocks there, and the first inf inside a block.
            ((Linear(1e-10), Power(50.0)), True),
        ],
        ids=["worst-inside", "violated-inside", "inf-at-coarse"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_worst_points_inside_a_block(self, chain, violated):
        pts, margins = sweep_margins(chain, SWEPT)
        worst = int(np.argmin(margins))
        assert worst not in coarse_indices(len(pts))
        if violated:
            coarse = sorted(coarse_indices(len(pts)))
            values = reference_call(compose_chain(*chain), pts[coarse])
            assert np.isinf(values).any() or np.all(values < pts[coarse])
        got = less_than_identity_chains([chain, (Linear(0.5),)], SWEPT)[0]
        assert got.violated == violated and got.witness == pts[worst]
        for grid in (SWEPT, DEFAULT_GRID):
            assert less_than_identity(compose_chain(*chain), grid) == reference_less_than_identity(
                compose_chain(*chain), grid
            )

    @pytest.mark.parametrize("n", [2, 31, 32, 33, 65])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_short_grids_match_the_reference(self, n):
        pool = SATURATION_FAMILIES + OWN_STEP_EDGES + SPECIAL_GAINS
        chains = [(f,) for f in pool] + [(f, g) for f in pool[::2] for g in pool[1::2]] + [TIED_CYCLE]
        for grid in (GridSpec(n_points=n), GridSpec(s_min=0.1, s_max=10.0, n_points=n, refinement_depth=3)):
            got = less_than_identity_chains(chains, grid)
            assert got == [reference_less_than_identity(compose_chain(*c), grid) for c in chains]

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, EXTREME, GridSpec(n_points=65)], ids=["default", "extreme", "n65"])
    def test_no_warning_that_the_reference_does_not_give(self, grid):
        pool = SATURATION_FAMILIES + OWN_STEP_EDGES + (Linear(1.0 - 1e-13), Linear(1e-10), Power(50.0))
        chains = [(f,) for f in pool] + [(f, g) for f in pool for g in pool]
        quiet = []
        for chain in chains:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                reference_less_than_identity(compose_chain(*chain), grid)
            if not any(issubclass(w.category, RuntimeWarning) for w in caught):
                quiet.append(chain)
        assert len(quiet) >= 30
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            less_than_identity_chains(quiet, grid)

    @pytest.mark.parametrize("seed", range(4))
    def test_dense6_verdicts_match_the_reference(self, workloads, seed):
        cfg = parse_system(workloads.build("dense6", seed).doc)
        result = check_cyclic_small_gain(cfg.digraph, cfg.checks.grid)
        assert len(result.reports) == 409
        for report in result.reports:
            assert report.verdict == reference_less_than_identity(report.gain, cfg.checks.grid)


def mixed_complete_digraph(k: int):
    """A complete digraph whose edges cycle through saturations of both
    exponents and both sides of c = 1, Linear gains and own-step gains."""
    pool = SATURATION_FAMILIES + (Linear(0.5), Linear(0.9)) + OWN_STEP_EDGES
    return build_gain_digraph(
        k, {(i, j): pool[(3 * i + 5 * j) % len(pool)] for i in range(1, k + 1) for j in range(1, k + 1) if i != j}
    )


def longest_first(index: np.ndarray) -> np.ndarray:
    """The order in which _chain_verdicts takes chains: longest first,
    in the given order among chains of one length."""
    return np.argsort(-np.count_nonzero(index >= 0, axis=1), kind="stable")


@st.composite
def planned_rows(draw):
    """Chains longest first, as _chain_verdicts orders them, and rows of
    them in that order that repeat chains as the fine pass repeats a chain
    for each block it keeps: the cycles of a mixed complete digraph, or
    chains drawn from the saturation families and the own-step edges."""
    if draw(st.booleans()):
        g = mixed_complete_digraph(draw(st.integers(2, 5)))
        distinct, index = graph._cycle_index(g, enumerate_simple_cycles(g))
    else:
        distinct = list(SATURATION_FAMILIES + OWN_STEP_EDGES)
        chains = draw(st.lists(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=4), min_size=1, max_size=12))
        index = np.array([c + [-1] * (4 - len(c)) for c in chains], dtype=np.intp)
    index = index[longest_first(index)]
    picked = sorted(draw(st.lists(st.integers(0, len(index) - 1), min_size=1, max_size=12)))
    repeats = draw(st.lists(st.integers(1, 4), min_size=len(picked), max_size=len(picked)))
    return distinct, index, np.repeat(picked, repeats), draw(st.integers(0, 2**32 - 1))


class TestSuffixTree:
    """Every pass evaluates its rows depth by depth, with the chains taken
    longest first: the rows that reach a depth are the first rows."""

    @pytest.mark.parametrize("k", [3, 5, 6])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_coarse_values_keep_the_bits_of_each_chain(self, k):
        g = mixed_complete_digraph(k)
        distinct, index = graph._cycle_index(g, enumerate_simple_cycles(g))
        index = index[longest_first(index)]
        plan = gains._plan(distinct, index)
        rows = np.arange(len(index))
        pts = DEFAULT_GRID.points()[sorted(coarse_indices(DEFAULT_GRID.n_points))]
        with np.errstate(invalid="raise"):
            got = gains._run(gains._steps(plan, rows), np.tile(pts, (len(rows), 1)))
        for row, values in zip(index.tolist(), got):
            chain = [distinct[e] for e in reversed(row) if e >= 0]
            assert bits(values) == bits(reference_call(compose_chain(*chain), pts))

    @given(planned_rows())
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_steps_keep_the_bits_of_each_row(self, case):
        distinct, index, rows, seed = case
        # Points of the default grid and of one reaching over- and underflow.
        pts = np.concatenate([DEFAULT_GRID.points(), EXTREME.points()])
        x = pts[np.random.default_rng(seed).integers(0, len(pts), (len(rows), 5))]
        with np.errstate(invalid="raise"):
            got = gains._run(gains._steps(gains._plan(distinct, index), rows), x.copy())
        for r, points, values in zip(rows.tolist(), x, got):
            chain = [distinct[e] for e in reversed(index[r].tolist()) if e >= 0]
            assert bits(values) == bits(reference_call(compose_chain(*chain), points))

    def test_steps_refuse_rows_whose_chains_get_longer(self):
        distinct = [Linear(0.5), SaturatingRational(0.9, 2.0)]
        plan = gains._plan(distinct, np.array([[0, 1], [1, -1]]))
        assert len(gains._steps(plan, np.array([0, 0, 1]))) == 3
        for rows in ([1, 0], [0, 1, 1, 0]):
            with pytest.raises(ValueError, match="must not get longer"):
                gains._steps(plan, np.array(rows))

    @pytest.mark.parametrize("k", [3, 16])
    def test_linear_ring_steps_are_slices(self, k, monkeypatch):
        edges = {(i, i % k + 1): Linear(0.5 + 0.01 * i) for i in range(1, k + 1)}
        edges.update({(i % k + 1, i): Linear(0.9 - 0.01 * i) for i in range(1, k + 1)})
        g = build_gain_digraph(k, edges)
        planned, steps_of = [], gains._steps
        monkeypatch.setattr(gains, "_steps", lambda *args: planned.append(steps_of(*args)) or planned[-1])
        check = check_cyclic_small_gain(g)
        monkeypatch.undo()
        assert check.verified and len(check.cycles) == k + 2
        assert planned and all(isinstance(sel, slice) for steps in planned for _, sel, _ in steps)
        for report in check.reports:
            assert report.verdict == reference_less_than_identity(report.gain, DEFAULT_GRID)

    def test_chunks_keep_every_verdict(self, monkeypatch):
        # Chunks of two chains, some of them holding chains of two lengths.
        g = mixed_complete_digraph(5)
        want = check_cyclic_small_gain(g)
        monkeypatch.setattr(gains, "_CHAINS", 2)
        got = check_cyclic_small_gain(g)
        assert got == want and got.numbers.tobytes() == want.numbers.tobytes()
        assert {r.verdict.status for r in got.reports} == {VerdictStatus.VERIFIED_ON_GRID, VerdictStatus.VIOLATED}


class TestArrayRefinement:
    """The refinement state of all chains in arrays, against the
    one-chain-at-a-time reference."""

    def test_probes_match_the_scalar_geometric_mean(self):
        rng = np.random.default_rng(11)
        special = [5e-324, 1e-310, sys.float_info.min, 1e-300, 1e-160, 1.0, 1e160, 1e300, sys.float_info.max]
        a = np.concatenate([np.repeat(special, len(special)), 10.0 ** rng.uniform(-323.0, 308.0, 4000)])
        b = np.concatenate([np.tile(special, len(special)), 10.0 ** rng.uniform(-323.0, 308.0, 4000)])
        want = [geometric_mean(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert bits(gains._geometric_means(a, b)) == bits(want)

    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec(n_points=64),
            COARSE,
            GridSpec(n_points=2, refinement_depth=12),
            EXTREME,
        ],
        ids=["n64", "coarse", "n2", "extreme"],
    )
    def test_mixed_steps_match_the_reference(self, grid, monkeypatch):
        pool = SATURATION_FAMILIES + OWN_STEP_EDGES + (Linear(1.0 - 1e-13),)
        chains = [(f,) for f in pool] + [(f, g) for f in pool for g in pool]
        chains += [(f, g, h) for f in SATURATION_FAMILIES[::3] for g in OWN_STEP_EDGES[:3] for h in SATURATION_FAMILIES]
        plans, plan_of = [], gains._plan
        monkeypatch.setattr(gains, "_plan", lambda *args: plans.append((args[1], plan_of(*args))) or plans[-1][1])
        got = less_than_identity_chains(chains, grid)
        monkeypatch.undo()
        assert got == [reference_less_than_identity(compose_chain(*c), grid) for c in chains]
        assert {v.status for v in got} == set(VerdictStatus)

        # The chains are planned longest first, in their given order
        # among chains of one length.
        [(index, (group, level, heads, _))] = plans
        at = {id(f): i for i, f in enumerate({id(f): f for c in chains for f in c}.values())}
        want = [[at[id(f)] for f in reversed(c)] + [-1] * (3 - len(c)) for c in sorted(chains, key=len, reverse=True)]
        assert index.tolist() == want
        # Each depth evaluates the families in one step per (q, c > 1),
        # each step with the levels of its gains.
        grouped = [(k, (f.q, f.c > 1.0)) for k, f in enumerate(heads) if type(f) is SaturatingRational]
        keys = [key for _, key in grouped]
        assert {(2.0, False), (2.0, True), (4.0, False), (4.0, True)} <= set(keys) and len(set(keys)) == len(keys)
        assert any(len(set(level[group == k])) > 1 for k, _ in grouped)

    @pytest.mark.parametrize(
        "f, grid",
        [
            # The margins of a linear gain take a few values one ulp apart,
            # so both probes can tie below the best sample so far: probe a
            # must win.
            (Linear(0.69), GridSpec(s_min=0.1, s_max=1e4, n_points=2, refinement_depth=12)),
            (Linear(0.99), GridSpec(n_points=3, refinement_depth=12)),
            # Tangent to the identity at s = 1, a probe of these grids:
            # g(1) = 1 exactly is a violation.
            (SaturatingRational(2.0, 2.0), GridSpec(s_min=1e-2, s_max=1e2, n_points=2)),
            (SaturatingRational(2.0, 2.0), GridSpec(s_min=1e-3, s_max=1e1, n_points=2)),
        ],
    )
    def test_ties_keep_the_order_of_comparisons(self, f, grid):
        chains = [(f,), (Linear(0.5),), (f, Linear(1.0)), (Linear(1.0), f)]
        got = less_than_identity_chains(chains, grid)
        assert got == [reference_less_than_identity(compose_chain(*c), grid) for c in chains]

    def test_mid_batch_violations_keep_the_plan(self, monkeypatch):
        # Below the identity at the three grid points, above it between
        # them: found in refinement round 4 and round 5 respectively.
        late = {SaturatingRational(1.6, 8.0): 4, SaturatingRational(1.4, 12.0): 5}
        for f, round_ in late.items():
            assert not less_than_identity(f, replace(COARSE, refinement_depth=round_ - 1)).violated
            assert less_than_identity(f, replace(COARSE, refinement_depth=round_)).violated
        chains = [(f, g) for f in (Linear(1.0 - 1e-9), *SATURATION_FAMILIES[:4]) for g in late]
        chains += [(f,) for f in late] + [(f,) for f in SATURATION_FAMILIES] + [(Linear(1.0 - 1e-13),)]
        plans = []

        def recorded(distinct, index):
            plans.append(len(index))
            return plan_of(distinct, index)

        plan_of = gains._plan
        monkeypatch.setattr(gains, "_plan", recorded)
        got = less_than_identity_chains(chains, COARSE)
        monkeypatch.undo()
        assert got == [reference_less_than_identity(compose_chain(*c), COARSE) for c in chains]
        # Built once for the whole batch: the chains that leave it in
        # rounds 4 and 5 only drop their rows.
        assert plans == [len(chains)]
        assert {v.status for v in got} == set(VerdictStatus)


STACKED_PRIMITIVES = (
    Identity(),
    Linear(0.7),
    Linear(3.3),
    Power(0.37),
    Power(1.5),
    Power(2.0),
    Power(6.0),
    Power(2.718281828),
    SaturatingRational(0.5, 2.0),
    SaturatingRational(10.0, 1.7),
    SaturatingRational(0.5, 40.0),
    SaturatingRational(2.0, 0.3),
)


class TestStackedEvaluation:
    """The premise of the batched refinement: numpy evaluates gains
    elementwise, so stacking the probes of many chains into one array
    gives every entry the bits it gets in its own two-entry array."""

    @pytest.mark.parametrize("f", [*STACKED_PRIMITIVES, Max(Power(1.3), Linear(0.2)), Compose(Power(1.1), Power(0.9))])
    def test_rows_of_a_stacked_batch_keep_their_bits(self, f):
        rows = 10.0 ** np.random.default_rng(7).uniform(-8.0, 8.0, size=(67, 2))
        # s^40 overflows at 1e10: this row alone takes the inf fallback of
        # SaturatingRational(0.5, 40.0).
        rows[11] = (3.0, 1e10)
        alone = [bits(f(row)) for row in rows]
        stacked = f(rows)
        assert [bits(row) for row in stacked] == alone
        flat = f(rows.ravel())
        assert [bits(flat[2 * r : 2 * r + 2]) for r in range(len(rows))] == alone
        picked = np.array([4, 5, 22, 23, 8, 9])
        assert bits(f(rows.ravel()[picked])) == b"".join(alone[r] for r in (2, 11, 4))
        view = rows.ravel()[2:30]
        assert bits(f(view)) == b"".join(alone[1:15])


def zero_below(p: float) -> float:
    """Inputs whose p-th power must round to +0: s^p <= 2^-1100."""
    return 2.0 ** (-1100.0 / p) if p >= 1.0 else 0.0


POWER_EXPONENTS = sorted({getattr(f, "p", getattr(f, "q", None)) for f in STACKED_PRIMITIVES} - {None} | {4.0})


class PowerRecorder(np.ndarray):
    """An array that records the entries handed to numpy's power."""

    entries: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, PowerRecorder) else x for x in inputs]
        if ufunc is np.power:
            PowerRecorder.entries.append((plain[0].copy(), plain[1]))
        return getattr(ufunc, method)(*plain, **kwargs)


class TestPowersOffTheSlowPath:
    """Array powers skip the entries whose power must round to +0, with
    the bits of taking ``s**p`` on every entry."""

    @pytest.mark.parametrize("p", POWER_EXPONENTS)
    @pytest.mark.parametrize("n", [1, 2, 3, 4096])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_bits_are_those_of_plain_power(self, p, n):
        t = zero_below(p)
        special = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-80]
        special += [np.nextafter(t, 0.0), t, np.nextafter(t, 1.0), 1e-8, 0.37, 1.0, 2.5, 1e8, 1e200, 1.7e308]
        special += [math.inf, math.nan, -1e-300, -2.0]
        if n < gains._MASK_MIN:
            arrays = [np.array(special[k : k + n]) for k in range(len(special) - n + 1)]
        else:
            rng = np.random.default_rng(int(p * 1000))
            x = np.concatenate([special, np.zeros(500), 10.0 ** rng.uniform(-330.0, 10.0, n - 500 - len(special))])
            rng.shuffle(x)
            arrays = [x, np.sort(x[np.isfinite(x)])]
        for s in arrays:
            with np.errstate(all="ignore"):
                assert bits(gains._pow(s, p)) == bits(s**p)

    @given(gain_dags(), st.integers(256, 600), st.floats(-320.0, -20.0))
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sweep_arrays_equal_the_plain_evaluation(self, pool, n, low):
        x = np.concatenate([[0.0], np.geomspace(10.0**low, 1e10, n)])
        # Every gain extends x, whose entries reach down to 1e-320.
        extending = pool + list(STACKED_PRIMITIVES) + [Compose(f, g) for f in STACKED_PRIMITIVES for g in pool[-2:]]
        with np.errstate(invalid="raise"):
            got = [bits(gains._evaluate(g, x, {})) for g in extending]
        assert got == [bits(reference_call(g, x)) for g in extending]
        # The grid stays above 1e-150, where the refinement's geometric
        # midpoints do not underflow; its powers still reach 1e-320.
        grid = GridSpec(s_min=max(10.0**low, 1e-150), s_max=1e10, n_points=n, refinement_depth=3)
        chains = [(f, g) for f in pool[-3:] for g in pool] + [(g,) for g in pool]
        want = [reference_less_than_identity(compose_chain(*c), grid) for c in chains]
        assert less_than_identity_chains(chains, grid) == want

    def test_complete_digraph_takes_each_power_once_off_the_slow_path(self, monkeypatch):
        # The digraph of test_complete_digraph_check_keeps_memory_small:
        # q = 2 or 4, so zeros and underflow reach s^4 down every cycle.
        edges = {
            (i, j): SaturatingRational(0.5 + 0.1 * ((i * j) % 5), 2.0 + 2.0 * ((i + j) % 2))
            for i in range(1, 7)
            for j in range(1, 7)
            if i != j
        }
        g = build_gain_digraph(6, edges)
        calls, pow_of = [], gains._pow
        swept, run_of = [], gains._run

        def recorded(s, p):
            if isinstance(s, np.ndarray) and s.size >= gains._MASK_MIN:
                calls.append((s, p))
                return pow_of(s.view(PowerRecorder), p)
            return pow_of(s, p)

        def run(steps, x):
            if x.shape[1] > 2:  # not an (n, 2) array of refinement probes
                swept.append(x.size)
            return run_of(steps, x)

        monkeypatch.setattr(gains, "_pow", recorded)
        monkeypatch.setattr(gains, "_run", run)
        PowerRecorder.entries = []
        got = check_cyclic_small_gain(g)
        monkeypatch.undo()
        assert got == check_cyclic_small_gain(g)

        # No entry at or below the threshold reaches numpy's power, but
        # for p = 2, which numpy evaluates as a square.
        assert PowerRecorder.entries
        for entries, p in PowerRecorder.entries:
            if p != 2.0:
                assert not np.any((entries <= zero_below(p)) & ~np.signbit(entries))
        assert any(np.any(s <= zero_below(p)) for s, p in calls if p == 4.0)

        # The sweep evaluates each cycle at its coarse points and in the
        # few blocks that can hold its worst point: at most a tenth of
        # the grid points of all cycles.
        assert 0 < sum(swept) <= 0.1 * len(got.reports) * DEFAULT_GRID.n_points


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
