"""Node elimination and closed-loop gain construction."""

import math
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from smallgain.gains import (
    Compose,
    GridSpec,
    Identity,
    Linear,
    Max,
    Power,
    SaturatingRational,
)
from smallgain.graph import build_gain_digraph, check_cyclic_small_gain
from smallgain.reduction import (
    SmallGainViolation,
    closed_loop_input_gains,
    combined_initial_constant,
    eliminate_node,
    global_gs_sigma,
)
from smallgain.ring import ring_gains


# ---------------------------------------------------------------------------
# Oracle 1: hand-coded three-node closed loop.
#
# Eliminating node 3 from the max-form inequalities, solving the
# remaining two-node system, and back-substituting gives
#
#   t12 = max{g12, g13 o g32}          t1u = max{g1u, g13 o g3u}
#   t21 = max{g21, g23 o g31}          t2u = max{g2u, g23 o g3u}
#   hat1 = max{t12 o t2u, t1u}
#   hat2 = max{t21 o t1u, t2u}
#   hat3 = max{g31 o hat1, g32 o hat2, g3u}
#
# written here with plain floats and python max, independent of the
# package's expression trees.


def hand_closed_loop_3(g, s: float) -> dict[int, float]:
    def t12(r):
        return max(g["12"](r), g["13"](g["32"](r)))

    def t21(r):
        return max(g["21"](r), g["23"](g["31"](r)))

    def t1u(r):
        return max(g["1u"](r), g["13"](g["3u"](r)))

    def t2u(r):
        return max(g["2u"](r), g["23"](g["3u"](r)))

    hat1 = max(t12(t2u(s)), t1u(s))
    hat2 = max(t21(t1u(s)), t2u(s))
    hat3 = max(g["31"](hat1), g["32"](hat2), g["3u"](s))
    return {1: hat1, 2: hat2, 3: hat3}


def generic_three_node():
    """Full 3-node digraph satisfying every cyclic condition."""
    edges = {
        (1, 2): Linear(0.3),
        (2, 1): Linear(0.4),
        (1, 3): SaturatingRational(0.5, 1.0),
        (3, 1): Linear(0.6),
        (2, 3): Linear(0.2),
        (3, 2): SaturatingRational(0.9, 2.0),
    }
    inputs = {1: Linear(1.2), 2: SaturatingRational(2.0, 1.0), 3: Power(0.5)}
    g = build_gain_digraph(3, edges, input_gains=inputs)
    plain = {
        "12": lambda r: 0.3 * r,
        "21": lambda r: 0.4 * r,
        "13": lambda r: 0.5 * r / (1.0 + r),
        "31": lambda r: 0.6 * r,
        "23": lambda r: 0.2 * r,
        "32": lambda r: 0.9 * r**2.0 / (1.0 + r**2.0),
        "1u": lambda r: 1.2 * r,
        "2u": lambda r: 2.0 * r / (1.0 + r),
        "3u": lambda r: r**0.5,
    }
    return g, plain


# ---------------------------------------------------------------------------
# Oracle 2: iterated max fixed point.
#
# For class-K gains gamma_ij and input terms gamma_iu(s), the smallest
# solution of b_i = max{gamma_iu(s), max_j gamma_ij(b_j)} is the limit of
# the monotone iteration from zero.  Every iterate is a lower bound on
# any solution of the gain inequalities, so the closed-loop gains must
# dominate it; when every cycle is below the identity the increasing
# iterates stay bounded and converge.


def max_fixed_point(k, gains, inputs, s, sweeps=500):
    x = {i: 0.0 for i in range(1, k + 1)}
    for _ in range(sweeps):
        changed = False
        for i in range(1, k + 1):
            best = inputs[i](s) if i in inputs else 0.0
            for j in range(1, k + 1):
                if (i, j) in gains:
                    best = max(best, gains[(i, j)](x[j]))
            if best > x[i] * (1.0 + 1e-15) + 0.0:
                x[i] = best
                changed = True
        if not changed:
            break
    return x


def plain_linear(coeffs):
    return {key: (lambda r, a=a: a * r) for key, a in coeffs.items()}


def admissible_orders(k):
    """Every elimination order closed_loop_input_gains accepts."""
    nodes = range(1, k + 1)
    return [order for r in range(max(k - 2, 0), k) for order in permutations(nodes, r)]


def random_linear_digraph(rng):
    """Random linear-gain digraph rescaled so cycle products stay small."""
    from smallgain.graph import enumerate_simple_cycles

    k = int(rng.integers(2, 6))
    coeffs = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i != j and rng.random() < 0.5:
                coeffs[(i, j)] = float(rng.uniform(0.1, 1.5))
    gains = {pair: Linear(a) for pair, a in coeffs.items()}
    g = build_gain_digraph(k, gains)
    cycles = enumerate_simple_cycles(g)
    if cycles:
        worst = max(
            math.prod(coeffs[(c[n], c[(n + 1) % len(c)])] for n in range(len(c)))
            for c in cycles
        )
        if worst >= 0.85:
            # Scaling every edge by f < 1 scales an r-cycle product by
            # f^r <= f^2, so sqrt(0.8 / worst) caps all products at 0.8.
            f = (0.8 / worst) ** 0.5
            coeffs = {pair: a * f for pair, a in coeffs.items()}
            gains = {pair: Linear(a) for pair, a in coeffs.items()}
    input_coeffs = {i: float(rng.uniform(0.1, 2.0)) for i in range(1, k + 1)}
    g = build_gain_digraph(
        k, gains, input_gains={i: Linear(a) for i, a in input_coeffs.items()}
    )
    return g, k, coeffs, input_coeffs


def random_gain(rng, scale):
    """A random Linear, Power or SaturatingRational gain, and the same
    function on plain floats."""
    kind = int(rng.integers(3))
    if kind == 0:
        a = float(rng.uniform(0.1, 0.9)) * scale
        return Linear(a), lambda r: a * r
    if kind == 1:
        p = float(rng.uniform(1.0, 2.0))
        return Power(p), lambda r: r**p
    c, q = float(rng.uniform(0.1, 0.9)) * scale, float(rng.uniform(1.0, 3.0))
    return SaturatingRational(c, q), lambda r: c * r**q / (1.0 + r**q)


def random_nonlinear_digraph(rng):
    """Random digraph of Linear, Power and SaturatingRational couplings,
    with an input gain into every node; many of them violate a cycle."""
    k = int(rng.integers(2, 5))
    gains, plain = {}, {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i != j and rng.random() < 0.6:
                gains[(i, j)], plain[(i, j)] = random_gain(rng, 1.0)
    inputs, plain_inputs = {}, {}
    for i in range(1, k + 1):
        inputs[i], plain_inputs[i] = random_gain(rng, 2.0)
    return build_gain_digraph(k, gains, input_gains=inputs), plain, plain_inputs


class TestEliminateNode:
    def test_chain_substitution_trees(self):
        g13 = Linear(0.5)
        g32 = Power(2.0)
        g3u = Linear(0.3)
        g1u = Linear(1.0)
        reduced = eliminate_node(
            {(1, 3): g13, (3, 2): g32}, {1: g1u, 3: g3u}, 3
        )
        assert reduced.nodes == (1, 2)
        assert reduced.edges == {(1, 2): Compose(g13, g32)}
        assert reduced.input_gains == {1: Max(g1u, Compose(g13, g3u))}
        step = reduced.step
        assert step.node == 3
        assert dict(step.out_gains) == {2: g32}
        assert step.inputs["u"] == g3u
        assert dict(step.dropped_self) == {}

    def test_absent_terms_are_left_out(self):
        reduced = eliminate_node({(1, 3): Linear(0.5)}, {3: Linear(2.0)}, 3)
        # Node 3 has no outgoing edges, so nothing new is created and
        # node 1 picks up only the routed input term.
        assert reduced.edges == {}
        assert reduced.input_gains == {1: Compose(Linear(0.5), Linear(2.0))}

    def test_two_cycle_term_dropped_when_contractive(self):
        gains = {(1, 2): Linear(0.5), (2, 1): Linear(0.5)}
        reduced = eliminate_node(gains, {2: Linear(1.0)}, 2)
        assert reduced.nodes == (1,)
        assert reduced.edges == {}
        assert dict(reduced.step.dropped_self) == {
            1: Compose(Linear(0.5), Linear(0.5))
        }

    def test_refuses_violated_two_cycle(self):
        gains = {(1, 2): Linear(1.5), (2, 1): Linear(1.5)}
        with pytest.raises(SmallGainViolation) as err:
            eliminate_node(gains, {}, 2)
        assert err.value.report.cycle == (1, 2)
        assert err.value.report.verdict.violated

    def test_refuses_inconclusive_two_cycle(self):
        gains = {(1, 2): Linear(1.0 - 1e-15), (2, 1): Linear(1.0)}
        with pytest.raises(SmallGainViolation):
            eliminate_node(gains, {}, 2)

    def test_unknown_node(self):
        with pytest.raises(ValueError):
            eliminate_node({(1, 2): Linear(0.5)}, {}, 7)


class TestClosedLoopGains:
    def test_three_node_matches_hand_formulas(self):
        g, plain = generic_three_node()
        closed = closed_loop_input_gains(g)
        assert closed.order == (3,)
        for s in np.geomspace(1e-4, 1e4, 20):
            expected = hand_closed_loop_3(plain, float(s))
            for i in (1, 2, 3):
                got = closed.input_gains[i](float(s))
                assert got == pytest.approx(expected[i], rel=1e-12)

    def test_single_node_passthrough(self):
        g = build_gain_digraph(
            1, {}, input_gains={1: Linear(0.5)}, gs_gains={1: Linear(7.0)}
        )
        closed = closed_loop_input_gains(g)
        assert closed.input_gains[1] == Linear(0.5)
        assert closed.sigmas[1] == Identity()

    def test_unreachable_input_is_none(self):
        g = build_gain_digraph(2, {(1, 2): Linear(0.5)}, input_gains={1: Linear(1.0)})
        closed = closed_loop_input_gains(g)
        assert closed.input_gains[1] == Linear(1.0)
        assert closed.input_gains[2] is None
        # The transient channel still reaches every node.
        assert closed.sigmas[2](1.0) >= 1.0

    def test_refuses_on_global_violation(self):
        g = build_gain_digraph(
            2, {(1, 2): Linear(1.5), (2, 1): Linear(1.5)}, input_gains={1: Linear(1.0)}
        )
        with pytest.raises(SmallGainViolation) as err:
            closed_loop_input_gains(g)
        assert err.value.report is not None
        assert err.value.report.cycle == (1, 2)

    def test_accepts_its_own_check_without_checking_again(self, monkeypatch):
        import smallgain.gains
        import smallgain.graph
        import smallgain.reduction

        g, _ = generic_three_node()
        grid = GridSpec(n_points=512)
        check = check_cyclic_small_gain(g, grid)
        assert check.digraph is g and check.grid == grid
        fresh = closed_loop_input_gains(g, grid)

        def refuse(*args, **kwargs):
            raise AssertionError("grid work after the check was handed in")

        monkeypatch.setattr(smallgain.reduction, "check_cyclic_small_gain", refuse)
        monkeypatch.setattr(smallgain.gains, "less_than_identity", refuse)
        monkeypatch.setattr(smallgain.gains, "less_than_identity_chains", refuse)
        for module in (smallgain.gains, smallgain.graph):
            monkeypatch.setattr(module, "_chain_verdicts", refuse)
        closed = closed_loop_input_gains(g, GridSpec(n_points=512), check=check)
        assert closed == fresh
        assert closed.to_dict((0.5, 2.0)) == fresh.to_dict((0.5, 2.0))

    def test_unverified_check_raises_violation(self):
        g = build_gain_digraph(
            2, {(1, 2): Linear(1.5), (2, 1): Linear(1.5)}, input_gains={1: Linear(1.0)}
        )
        check = check_cyclic_small_gain(g)
        assert not check.verified
        with pytest.raises(SmallGainViolation) as err:
            closed_loop_input_gains(g, check=check)
        assert err.value.report is not None
        assert err.value.report.cycle == (1, 2)

    def test_refuses_a_check_of_another_digraph_or_grid(self):
        g, _ = generic_three_node()
        twin = build_gain_digraph(g.k, g.edges, g.input_gains, g.gs_gains)
        assert twin == g
        check = check_cyclic_small_gain(g)
        with pytest.raises(ValueError, match="another digraph or grid"):
            closed_loop_input_gains(twin, check=check)
        with pytest.raises(ValueError, match="another digraph or grid"):
            closed_loop_input_gains(g, GridSpec(n_points=512), check=check)
        # A check built by hand records neither.
        with pytest.raises(ValueError, match="another digraph or grid"):
            closed_loop_input_gains(g, check=replace(check, digraph=None, grid=None))

    def test_order_validation(self):
        g, _ = generic_three_node()
        with pytest.raises(ValueError):
            closed_loop_input_gains(g, order=(3, 3))
        with pytest.raises(ValueError):
            closed_loop_input_gains(g, order=(1, 2, 3))
        with pytest.raises(ValueError):
            closed_loop_input_gains(g, order=(9,))

    def test_every_order_is_sound_for_linear_network(self):
        coeffs = {
            (1, 2): Linear(0.4),
            (2, 3): Linear(0.5),
            (3, 1): Linear(0.6),
            (1, 3): Linear(0.2),
        }
        inputs = {1: Linear(1.0), 2: Linear(0.5), 3: Linear(2.0)}
        g = build_gain_digraph(3, coeffs, input_gains=inputs)
        a = {pair: gain.a for pair, gain in coeffs.items()}
        b = {i: gain.a for i, gain in inputs.items()}
        for order in ((3,), (2,), (1,), (3, 2), (2, 1), (1, 3)):
            closed = closed_loop_input_gains(g, order=order)
            for s in (0.1, 1.0, 10.0):
                fp = max_fixed_point(3, plain_linear(a), plain_linear(b), s)
                for i in (1, 2, 3):
                    assert closed.input_gains[i](s) >= fp[i] - 1e-9

    def test_randomized_linear_networks_dominate_fixed_point(self):
        rng = np.random.default_rng(20240817)
        for _ in range(30):
            g, k, coeffs, input_coeffs = random_linear_digraph(rng)
            closed = closed_loop_input_gains(g)
            for s in (0.1, 1.0, 10.0):
                fp = max_fixed_point(k, plain_linear(coeffs), plain_linear(input_coeffs), s)
                for i in range(1, k + 1):
                    assert closed.input_gains[i](s) >= fp[i] - 1e-9

    def test_every_order_accepts_a_verified_check(self):
        # Near zero the rotation g21 o g12 (about 1e-3 * s^0.5) exceeds s
        # on the grid, but the check's rotation g12 o g21 (about
        # 1e-4 * s^0.5) only below it.  The check verifies the digraph,
        # and no elimination order may refuse what it verified.
        g = build_gain_digraph(
            3,
            {
                (1, 2): Linear(0.01),
                (2, 1): SaturatingRational(0.01, 0.5),
                (2, 3): Linear(0.5),
                (3, 2): Linear(0.5),
            },
        )
        check = check_cyclic_small_gain(g)
        assert check.verified
        for order in admissible_orders(3):
            assert closed_loop_input_gains(g, check=check, order=order).order == order

    def test_random_nonlinear_networks_dominate_fixed_point(self):
        """Every order's input gains and sigmas dominate the least fixed
        point of the gain inequalities, with the input channel and with
        an identity channel into every node."""
        rng = np.random.default_rng(20261019)
        grid = GridSpec(n_points=512, refinement_depth=2)
        cyclic = 0
        for _ in range(80):
            g, plain, plain_inputs = random_nonlinear_digraph(rng)
            check = check_cyclic_small_gain(g, grid)
            if not check.verified:
                continue
            cyclic += bool(check.reports)
            identity = {i: (lambda r: r) for i in range(1, g.k + 1)}
            for order in admissible_orders(g.k):
                closed = closed_loop_input_gains(g, grid, order, check=check)
                for s in (0.1, 1.0, 10.0):
                    fp = max_fixed_point(g.k, plain, plain_inputs, s)
                    fp_sigma = max_fixed_point(g.k, plain, identity, s)
                    for i in range(1, g.k + 1):
                        assert closed.input_gains[i](s) >= fp[i] * (1.0 - 1e-9)
                        assert closed.sigmas[i](s) >= fp_sigma[i] * (1.0 - 1e-9)
        assert cyclic >= 20

    def test_trace_records_the_eliminated_row(self):
        g, _ = generic_three_node()
        closed = closed_loop_input_gains(g)
        (step,) = closed.trace
        assert step.node == 3
        assert dict(step.out_gains) == {
            1: g.edges[(3, 1)],
            2: g.edges[(3, 2)],
        }
        # Both 2-cycles through node 3 exist, so both contractive
        # self-terms were dropped.
        assert set(step.dropped_self) == {1, 2}

    def test_serialization_shape(self):
        g, _ = generic_three_node()
        closed = closed_loop_input_gains(g)
        doc = closed.to_dict(samples=(0.5, 1.0, 2.0))
        assert set(doc["nodes"]) == {"1", "2", "3"}
        entry = doc["nodes"]["1"]
        assert isinstance(entry["input_gain"], str)
        assert entry["table"]["s"] == [0.5, 1.0, 2.0]
        assert len(entry["table"]["sigma"]) == 3
        assert "minimality" in doc["certifies"]
        assert "constant channel" in doc["transient_bounds_via"]


class TestTransientBounds:
    def test_ring_sigma_values_by_hand(self):
        # Iterating the raw inequalities with the combined constant c:
        # x2 <= max{c, (x3)^3} and x3 <= max{c, (x1)^2} give the chain
        # c, c^3, c^6 at node 2, so sigma_2(c) = c^6 dominates.
        g = ring_gains()
        closed = closed_loop_input_gains(g)
        assert closed.sigmas[2](7.0) == pytest.approx(7.0**6)
        assert closed.sigmas[1](7.0) == pytest.approx(7.0)
        assert closed.sigmas[3](7.0) == pytest.approx(49.0)

    def test_combined_initial_constant_for_ring(self):
        g = ring_gains()
        c = combined_initial_constant(g, {1: 1.0, 2: 1.0, 3: 1.0})
        # max of sigma_i(1) = 7, 4, 3 and the coupling gains at 1.
        assert c == pytest.approx(7.0)

    def test_combined_initial_constant_edge_cases(self):
        g = ring_gains()
        with pytest.raises(ValueError):
            combined_initial_constant(g, {1: 1.0, 2: 1.0})
        with pytest.raises(ValueError):
            combined_initial_constant(g, {1: -1.0, 2: 1.0, 3: 1.0})
        empty = build_gain_digraph(1, {})
        assert combined_initial_constant(empty, {1: 5.0}) == 0.0

    def test_global_gs_sigma_for_ring(self):
        g = ring_gains()
        closed = closed_loop_input_gains(g)
        sigma = global_gs_sigma(g, closed)
        # With unit histories c = 7 and the worst node bound is 7^6.
        assert sigma(1.0) == pytest.approx(7.0**6)
        assert sigma(0.0) == 0.0
