"""Bound checking against trajectories: sup norms, limsup estimates, verdicts."""

import math

import numpy as np
import pytest

from smallgain.checks import (
    BoundReport,
    _history_norms,
    check_ag,
    check_gas,
    check_gs,
    limsup_estimate,
    sup_norm,
)
from smallgain.gains import Linear
from smallgain.graph import build_gain_digraph
from smallgain.reduction import closed_loop_input_gains
from smallgain.sim import (
    HistoryFunction,
    InputSignal,
    Subsystem,
    build_interconnection,
    simulate,
)


def scalar_traj(rhs, x0=1.0, T=10.0, h=0.01, input_dim=0, u=None):
    sub = Subsystem(dim=1, rhs=rhs, input_dim=input_dim)
    sys = build_interconnection([sub], [])
    hist = [HistoryFunction.constant([x0])]
    return simulate(sys, hist, u, T=T, h=h)


def one_node_digraph(input_gain=None, gs_gain=None):
    inputs = None if input_gain is None else {1: input_gain}
    sigmas = None if gs_gain is None else {1: gs_gain}
    return build_gain_digraph(1, {}, inputs, sigmas)


class TestSupNorm:
    def test_decaying_exponential(self):
        traj = scalar_traj(lambda t, x, z, u: -3.0 * x, T=2.0)
        assert sup_norm(traj) == pytest.approx(1.0, abs=1e-10)
        assert sup_norm(traj, (0.5, 1.0)) == pytest.approx(math.exp(-1.5), rel=1e-7)

    def test_history_segment_included(self):
        sub = Subsystem(
            dim=1, rhs=lambda t, x, z, u: -z[(1, 0.5)], references=((1, 0.5),)
        )
        sys = build_interconnection([sub], [0.5])
        traj = simulate(sys, [HistoryFunction.constant([2.0])], None, T=2.0, h=0.05)
        assert sup_norm(traj, (-0.5, 0.0)) == pytest.approx(2.0)

    def test_subsystem_selection(self):
        sub1 = Subsystem(dim=1, rhs=lambda t, x, z, u: -x)
        sub2 = Subsystem(dim=1, rhs=lambda t, x, z, u: -x)
        sys = build_interconnection([sub1, sub2], [])
        hist = [HistoryFunction.constant([1.0]), HistoryFunction.constant([3.0])]
        traj = simulate(sys, hist, None, T=1.0, h=0.01)
        assert sup_norm(traj, subsystem=1) == pytest.approx(1.0, abs=1e-10)
        assert sup_norm(traj, subsystem=2) == pytest.approx(3.0, abs=1e-10)
        assert sup_norm(traj) == pytest.approx(3.0, abs=1e-10)

    def test_midpoint_sampling_sees_interior_peak(self):
        # x = sin t peaks at pi/2, strictly between the h = 0.1 nodes 1.5
        # and 1.6; the midpoint sample at 1.55 must tighten the estimate
        # past the best node value sin(1.6) ~ 0.99957.
        def rhs(t, x, z, u):
            return np.array([math.cos(t)])

        traj = scalar_traj(rhs, x0=0.0, T=2.0, h=0.1)
        s = sup_norm(traj)
        assert 0.9997 < s <= 1.0 + 1e-9

    def test_interval_validation(self):
        traj = scalar_traj(lambda t, x, z, u: -x, T=1.0)
        with pytest.raises(ValueError):
            sup_norm(traj, (0.5, 0.2))
        with pytest.raises(ValueError):
            sup_norm(traj, (0.0, 2.0))
        with pytest.raises(ValueError):
            sup_norm(traj, (-1.0, 0.5))


class TestLimsupEstimate:
    def test_decaying(self):
        traj = scalar_traj(lambda t, x, z, u: -x, T=10.0)
        est = limsup_estimate(traj, tail_fraction=0.2)
        assert est.value == pytest.approx(math.exp(-8.0), rel=1e-6)
        assert est.window == (8.0, 10.0)
        assert est.horizons == (2.5, 5.0, 10.0)
        assert est.tail_sups[0] > est.tail_sups[1] > est.tail_sups[2]
        assert est.settled

    def test_oscillation_around_offset(self):
        # x = 1 + 0.5 sin t; the tail window [20, 25] contains the crest
        # at 6.5 pi, so the estimate should land on 1.5.
        def rhs(t, x, z, u):
            return np.array([0.5 * math.cos(t)])

        traj = scalar_traj(rhs, x0=1.0, T=25.0, h=0.01)
        est = limsup_estimate(traj, tail_fraction=0.2)
        assert est.value == pytest.approx(1.5, abs=1e-4)

    def test_growth_flags_unsettled(self):
        traj = scalar_traj(lambda t, x, z, u: 0.3 * x, T=10.0)
        est = limsup_estimate(traj)
        assert not est.settled
        assert est.tail_sups[0] < est.tail_sups[1] < est.tail_sups[2]

    def test_rejects_blow_up_and_degenerate_runs(self):
        blown = scalar_traj(lambda t, x, z, u: x * x, x0=2.0, T=1.0, h=1e-3)
        assert blown.blow_up
        with pytest.raises(ValueError):
            limsup_estimate(blown)
        flat = scalar_traj(lambda t, x, z, u: -x, T=0.0)
        with pytest.raises(ValueError):
            limsup_estimate(flat)
        ok = scalar_traj(lambda t, x, z, u: -x, T=1.0)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                limsup_estimate(ok, tail_fraction=bad)

    def test_to_dict(self):
        traj = scalar_traj(lambda t, x, z, u: -x, T=4.0)
        d = limsup_estimate(traj).to_dict()
        assert set(d) == {"value", "tail_fraction", "window", "horizons", "tail_sups", "settled"}
        assert d["window"] == [3.2, 4.0]


class TestCheckGS:
    def test_holds_with_margin(self):
        # Transient sigma 7 s and unit history give bound 7; the forced
        # decay x' = -x + u with u = 0.3 never exceeds its start value 1.
        g = one_node_digraph(input_gain=Linear(0.5), gs_gain=Linear(7.0))
        closed = closed_loop_input_gains(g)
        u = [InputSignal.constant([0.3])]
        traj = scalar_traj(
            lambda t, x, z, u: -x + u[0], T=5.0, input_dim=1, u=u
        )
        hist = [HistoryFunction.constant([1.0])]
        report = check_gs(traj, g, closed, hist, u)
        assert report.holds
        assert report.kind == "GS"
        assert report.node_bounds[1] == pytest.approx(7.0)
        assert report.margin == pytest.approx(6.0, abs=1e-9)
        assert report.witness is None
        assert report.details["c"] == pytest.approx(7.0)
        assert report.details["u_norm"] == pytest.approx(0.3)

    def test_violation_witnessed_at_start(self):
        # Overshoot gain 0.5 s undersells a trajectory starting at 1.
        g = one_node_digraph(gs_gain=Linear(0.5))
        closed = closed_loop_input_gains(g)
        traj = scalar_traj(lambda t, x, z, u: -x, T=2.0)
        report = check_gs(traj, g, closed, [HistoryFunction.constant([1.0])])
        assert not report.holds
        assert report.margin == pytest.approx(-0.5, abs=1e-10)
        assert report.witness is not None
        assert report.witness.t == 0.0
        assert report.witness.observed == pytest.approx(1.0)
        assert report.witness.bound == pytest.approx(0.5)

    def test_blow_up_fails_outright(self):
        g = one_node_digraph(gs_gain=Linear(7.0))
        closed = closed_loop_input_gains(g)
        traj = scalar_traj(lambda t, x, z, u: x * x, x0=2.0, T=1.0, h=1e-3)
        assert traj.blow_up
        report = check_gs(traj, g, closed, [HistoryFunction.constant([2.0])])
        assert not report.holds
        assert report.witness is not None
        assert report.details["blow_up"] is True

    def test_input_gain_can_dominate_bound(self):
        # Small history, big input: the bound comes from the input side.
        g = one_node_digraph(input_gain=Linear(2.0), gs_gain=Linear(1.0))
        closed = closed_loop_input_gains(g)
        u = [InputSignal.constant([5.0])]
        traj = scalar_traj(
            lambda t, x, z, u: -x + u[0], x0=0.1, T=10.0, input_dim=1, u=u
        )
        hist = [HistoryFunction.constant([0.1])]
        report = check_gs(traj, g, closed, hist, u)
        # max{sigma(c), gamma_u(5)} = max{0.1, 10} = 10; state tends to 5.
        assert report.node_bounds[1] == pytest.approx(10.0)
        assert report.holds


class TestCheckAG:
    def test_holds_with_matching_gain(self):
        g = one_node_digraph(input_gain=Linear(0.5), gs_gain=Linear(1.0))
        closed = closed_loop_input_gains(g)
        u = [InputSignal.constant([0.5])]
        traj = scalar_traj(
            lambda t, x, z, u: -x + 0.5 * u[0], T=20.0, input_dim=1, u=u
        )
        report = check_ag(traj, closed, u)
        assert report.holds
        assert report.kind == "AG"
        assert report.node_bounds[1] == pytest.approx(0.25)
        # Tail sits on the equilibrium, so the whole atol is margin.
        assert report.margin == pytest.approx(1e-3, abs=1e-6)
        assert report.limsups["1"].settled
        assert report.details["settled"] is True

    def test_unforced_node_gets_zero_bound(self):
        g = one_node_digraph(gs_gain=Linear(1.0))
        closed = closed_loop_input_gains(g)
        assert closed.input_gains[1] is None
        traj = scalar_traj(lambda t, x, z, u: -x, T=20.0)
        report = check_ag(traj, closed)
        assert report.holds
        assert report.node_bounds[1] == 0.0
        assert report.margin == pytest.approx(1e-3 - math.exp(-16.0), rel=1e-5)

    def test_optimistic_gain_violated(self):
        # Declared gain 0.5 s, but the dynamics pass the input through
        # fully: the tail settles at 0.5, above bound 0.25 + atol.
        g = one_node_digraph(input_gain=Linear(0.5), gs_gain=Linear(1.0))
        closed = closed_loop_input_gains(g)
        u = [InputSignal.constant([0.5])]
        traj = scalar_traj(
            lambda t, x, z, u: -x + u[0], T=20.0, input_dim=1, u=u
        )
        report = check_ag(traj, closed, u)
        assert not report.holds
        assert report.witness is not None
        assert report.witness.observed == pytest.approx(0.5, abs=1e-6)
        assert report.witness.bound == pytest.approx(0.25)

    def test_blow_up_rejected(self):
        g = one_node_digraph(gs_gain=Linear(1.0))
        closed = closed_loop_input_gains(g)
        blown = scalar_traj(lambda t, x, z, u: x * x, x0=2.0, T=1.0, h=1e-3)
        with pytest.raises(ValueError):
            check_ag(blown, closed)


class TestCheckGAS:
    def test_holds(self):
        traj = scalar_traj(lambda t, x, z, u: -x, T=20.0)
        report = check_gas(traj, Linear(7.0), [HistoryFunction.constant([1.0])], eps=1e-3)
        assert report.holds
        assert report.kind == "GAS"
        assert report.details["overshoot_bound"] == pytest.approx(7.0)
        # Margin is the eps side: 1e-3 minus the tiny tail supremum.
        assert report.margin == pytest.approx(1e-3 - math.exp(-16.0), rel=1e-5)
        assert report.witness is None

    def test_overshoot_violation(self):
        traj = scalar_traj(lambda t, x, z, u: -x, T=5.0)
        report = check_gas(traj, Linear(0.5), [HistoryFunction.constant([1.0])], eps=1e-3)
        assert not report.holds
        assert report.witness is not None
        assert report.witness.t == 0.0
        assert report.witness.bound == pytest.approx(0.5)

    def test_slow_decay_misses_eps(self):
        # e^{-0.05 t} only reaches ~0.45 by t = 16; eps = 1e-3 fails.
        traj = scalar_traj(lambda t, x, z, u: -0.05 * x, T=20.0)
        report = check_gas(traj, Linear(7.0), [HistoryFunction.constant([1.0])], eps=1e-3)
        assert not report.holds
        assert report.witness is not None
        assert report.witness.t == pytest.approx(16.0)
        assert report.witness.observed == pytest.approx(math.exp(-0.8), rel=1e-6)
        assert report.witness.bound == pytest.approx(1e-3)

    def test_blow_up(self):
        traj = scalar_traj(lambda t, x, z, u: x * x, x0=2.0, T=1.0, h=1e-3)
        report = check_gas(traj, Linear(7.0), [HistoryFunction.constant([2.0])], eps=1e-3)
        assert not report.holds
        assert report.details["blow_up"] is True
        assert report.witness is not None
        assert report.witness.t == pytest.approx(traj.escape_time)

    def test_eps_validation(self):
        traj = scalar_traj(lambda t, x, z, u: -x, T=1.0)
        hist = [HistoryFunction.constant([1.0])]
        for eps in (0.0, -1.0):
            with pytest.raises(ValueError):
                check_gas(traj, Linear(1.0), hist, eps=eps)


class TestHistoryNorms:
    @staticmethod
    def delayed_pair(T=1.0, h=0.05):
        subs = [
            Subsystem(dim=2, rhs=lambda t, x, z, u: -x + 0.1 * z[(2, 0.35)].sum(), references=((2, 0.35),)),
            Subsystem(dim=1, rhs=lambda t, x, z, u: -x + 0.1 * z[(1, 0.7)][:1], references=((1, 0.7),)),
        ]
        sys = build_interconnection(subs, [0.35, 0.7])
        calls = []

        def counted(dim, fn):
            def wrapped(t):
                calls.append(t)
                return fn(t)
            return HistoryFunction(dim=dim, fn=wrapped)

        hist = [
            counted(2, lambda t: np.array([np.cos(3.0 * t), t * t - 0.3])),
            counted(1, lambda t: np.array([np.exp(t) / 3.0])),
        ]
        return simulate(sys, hist, None, T=T, h=h), hist, calls

    @staticmethod
    def norms_calling_every_time(traj, hist):
        times = traj.hist_times
        sample = np.concatenate([times, (times[:-1] + times[1:]) / 2.0])
        return {
            i: float(np.max(np.linalg.norm(np.vstack([fn(float(t)) for t in sample]), axis=1)))
            for i, fn in enumerate(hist, start=1)
        }

    def test_reads_stored_samples_and_calls_only_at_midpoints(self):
        traj, hist, calls = self.delayed_pair()
        want = self.norms_calling_every_time(traj, hist)
        calls.clear()
        assert _history_norms(traj, hist) == want
        mids = traj.hist_times.size - 1
        assert mids == 14
        assert len(calls) == len(hist) * mids

    def test_other_functions_are_sampled_at_every_time(self):
        traj, hist, calls = self.delayed_pair()
        doubled = [HistoryFunction(dim=f.dim, fn=lambda t, f=f: 2.0 * f(t)) for f in hist]
        want = self.norms_calling_every_time(traj, doubled)
        assert _history_norms(traj, doubled) == want
        assert want[1] > self.norms_calling_every_time(traj, hist)[1]

    def test_gs_and_gas_sample_each_midpoint_once(self):
        traj, hist, calls = self.delayed_pair()
        g = build_gain_digraph(2, {(1, 2): Linear(0.1), (2, 1): Linear(0.1)}, gs_gains={1: Linear(1.0), 2: Linear(1.0)})
        closed = closed_loop_input_gains(g)
        calls.clear()
        gs = check_gs(traj, g, closed, hist)
        gas = check_gas(traj, Linear(4.0), hist, eps=1.0)
        mids = set(((traj.hist_times[:-1] + traj.hist_times[1:]) / 2.0).tolist())
        assert sum(t in mids for t in calls) == len(hist) * len(mids)
        norms = self.norms_calling_every_time(traj, hist)
        assert gas.details["history_norm"] == max(norms.values())
        assert gs.details["c"] > 0.0

    def test_cached_norms_are_returned_as_a_copy(self):
        traj, hist, calls = self.delayed_pair()
        want = self.norms_calling_every_time(traj, hist)
        first = _history_norms(traj, hist)
        first[1] = -1.0
        calls.clear()
        assert _history_norms(traj, hist) == want
        assert calls == []

    def test_no_delay_reads_the_single_stored_sample(self):
        traj = scalar_traj(lambda t, x, z, u: -x, x0=-2.5, T=1.0)
        assert traj.hist_times.size == 1
        assert _history_norms(traj, traj.history) == {1: 2.5}


class TestBoundReport:
    def make_report(self) -> BoundReport:
        traj = scalar_traj(lambda t, x, z, u: -x, T=20.0)
        return check_gas(traj, Linear(7.0), [HistoryFunction.constant([1.0])], eps=1e-3)

    def test_to_dict_shape(self):
        d = self.make_report().to_dict()
        assert set(d) == {
            "kind", "holds", "margin", "witness",
            "node_bounds", "node_margins", "limsups", "details",
        }
        assert d["kind"] == "GAS"
        assert d["witness"] is None
        assert "all" in d["limsups"]

    def test_summary_strings(self):
        ok = self.make_report()
        assert "GAS" in ok.summary()
        assert "holds" in ok.summary()
        traj = scalar_traj(lambda t, x, z, u: -x, T=5.0)
        bad = check_gas(traj, Linear(0.5), [HistoryFunction.constant([1.0])], eps=1e-3)
        assert "VIOLATED" in bad.summary()
        assert "witness" in bad.summary()

    def test_mappings_frozen(self):
        report = self.make_report()
        with pytest.raises(TypeError):
            report.details["eps"] = 5.0
