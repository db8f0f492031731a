"""Bound checking against trajectories: sup norms, limsup estimates, verdicts."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallgain.checks import (
    BoundReport,
    check_ag,
    check_gas,
    check_gs,
    limsup_estimate,
    sup_norm,
)
from smallgain.dsl import parse_system
from smallgain.gains import Linear, Power, SaturatingRational
from smallgain.graph import build_gain_digraph
from smallgain.reduction import closed_loop_input_gains, combined_initial_constant
from smallgain.ring import ring_config
from smallgain.sim import (
    HistoryFunction,
    InputSignal,
    Subsystem,
    Trajectory,
    build_auxiliary_system,
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
        report = check_gs(traj, g, closed)
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
        report = check_gs(traj, g, closed)
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
        report = check_gs(traj, g, closed)
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
        report = check_gs(traj, g, closed)
        # max{sigma(c), gamma_u(5)} = max{0.1, 10} = 10; state tends to 5.
        assert report.node_bounds[1] == pytest.approx(10.0)
        assert report.holds


    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e150])
    def test_sigmas_share_one_memo_with_the_bits_of_fresh_calls(self, scale):
        # Four nodes whose sigmas share subtrees.  At scale 1e150 the
        # overshoot gain s^3 overflows, c is inf and the saturations take
        # inf/inf, so the shared memo holds NaN for nodes whose calls
        # fall back to np.float64.
        k = 4
        edges = {
            (i, j): SaturatingRational(0.3 + 0.05 * ((i * j) % 3), 2.0) if (i + j) % 2 else Linear(0.4)
            for i in range(1, k + 1)
            for j in range(1, k + 1)
            if i != j
        }
        g = build_gain_digraph(k, edges, gs_gains={1: Power(3.0), 2: Linear(2.0)})
        closed = closed_loop_input_gains(g)
        subs = [Subsystem(dim=1, rhs=lambda t, x, z, u: -x) for _ in range(k)]
        hist = [HistoryFunction.constant([scale * i]) for i in range(1, k + 1)]
        traj = simulate(build_interconnection(subs, []), hist, None, T=1.0, h=0.1)
        with np.errstate(over="ignore"):
            report = check_gs(traj, g, closed)
            c = report.details["c"]
            assert c == combined_initial_constant(g, traj.history_norms)
        assert math.isinf(c) == (scale > 1e100)
        fresh = {i: float(closed.sigmas[i](c)) for i in range(1, k + 1)}
        assert np.array(list(report.node_bounds.values())).tobytes() == np.array(list(fresh.values())).tobytes()
        assert list(report.node_bounds) == list(fresh)


class TestCheckAG:
    def test_holds_with_matching_gain(self):
        g = one_node_digraph(input_gain=Linear(0.5), gs_gain=Linear(1.0))
        closed = closed_loop_input_gains(g)
        u = [InputSignal.constant([0.5])]
        traj = scalar_traj(
            lambda t, x, z, u: -x + 0.5 * u[0], T=20.0, input_dim=1, u=u
        )
        report = check_ag(traj, closed)
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
        report = check_ag(traj, closed)
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
        report = check_gas(traj, Linear(7.0), eps=1e-3)
        assert report.holds
        assert report.kind == "GAS"
        assert report.details["overshoot_bound"] == pytest.approx(7.0)
        # Margin is the eps side: 1e-3 minus the tiny tail supremum.
        assert report.margin == pytest.approx(1e-3 - math.exp(-16.0), rel=1e-5)
        assert report.witness is None

    def test_overshoot_violation(self):
        traj = scalar_traj(lambda t, x, z, u: -x, T=5.0)
        report = check_gas(traj, Linear(0.5), eps=1e-3)
        assert not report.holds
        assert report.witness is not None
        assert report.witness.t == 0.0
        assert report.witness.bound == pytest.approx(0.5)

    def test_slow_decay_misses_eps(self):
        # e^{-0.05 t} only reaches ~0.45 by t = 16; eps = 1e-3 fails.
        traj = scalar_traj(lambda t, x, z, u: -0.05 * x, T=20.0)
        report = check_gas(traj, Linear(7.0), eps=1e-3)
        assert not report.holds
        assert report.witness is not None
        assert report.witness.t == pytest.approx(16.0)
        assert report.witness.observed == pytest.approx(math.exp(-0.8), rel=1e-6)
        assert report.witness.bound == pytest.approx(1e-3)

    def test_blow_up(self):
        traj = scalar_traj(lambda t, x, z, u: x * x, x0=2.0, T=1.0, h=1e-3)
        report = check_gas(traj, Linear(7.0), eps=1e-3)
        assert not report.holds
        assert report.details["blow_up"] is True
        assert report.witness is not None
        assert report.witness.t == pytest.approx(traj.escape_time)

    def test_eps_validation(self):
        traj = scalar_traj(lambda t, x, z, u: -x, T=1.0)
        for eps in (0.0, -1.0):
            with pytest.raises(ValueError):
                check_gas(traj, Linear(1.0), eps=eps)


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

    def test_reads_stored_samples_and_calls_only_at_midpoints(self):
        traj, hist, calls = self.delayed_pair()
        want = segment_norms(traj.hist_times, hist)
        calls.clear()
        assert dict(traj.history_norms) == want
        mids = traj.hist_times.size - 1
        assert mids == 14
        assert len(calls) == len(hist) * mids

    def test_gs_and_gas_sample_each_midpoint_once(self):
        traj, hist, calls = self.delayed_pair()
        g = build_gain_digraph(2, {(1, 2): Linear(0.1), (2, 1): Linear(0.1)}, gs_gains={1: Linear(1.0), 2: Linear(1.0)})
        closed = closed_loop_input_gains(g)
        calls.clear()
        gs = check_gs(traj, g, closed)
        gas = check_gas(traj, Linear(4.0), eps=1.0)
        mids = set(((traj.hist_times[:-1] + traj.hist_times[1:]) / 2.0).tolist())
        assert sum(t in mids for t in calls) == len(hist) * len(mids)
        norms = segment_norms(traj.hist_times, hist)
        assert gas.details["history_norm"] == max(norms.values())
        assert gs.details["c"] > 0.0

    def test_no_delay_reads_the_single_stored_sample(self):
        traj = scalar_traj(lambda t, x, z, u: -x, x0=-2.5, T=1.0)
        assert traj.hist_times.size == 1
        assert dict(traj.history_norms) == {1: 2.5}


class TestWindowNorms:
    def test_each_window_is_interpolated_once(self, monkeypatch):
        # GS and GAS both sample [0, T], and AG's limsup per subsystem and
        # GAS's limsup read the same three tail windows.
        cfg = parse_system(ring_config())
        closed = closed_loop_input_gains(cfg.digraph)
        traj = simulate(cfg.system, cfg.history, None, cfg.sim.T, cfg.sim.h)
        calls = []
        interpolate_many = Trajectory.interpolate_many

        def counted(self, times):
            calls.append(list(times))
            return interpolate_many(self, times)

        monkeypatch.setattr(Trajectory, "interpolate_many", counted)
        for _ in range(2):
            check_gs(traj, cfg.digraph, closed)
            check_ag(traj, closed, tail_fraction=0.2)
            check_gas(traj, Linear(7.0), eps=1e-3, tail_fraction=0.2)
        T = traj.t_end
        windows = {(0.0, T), *((H * 0.8, H) for H in (T / 4.0, T / 2.0, T))}
        times = traj.norm_table[0].tolist()
        off_grid = [w for w in windows if not set(w) <= set(times)]
        # The norm table's midpoints, then the ends of each window that
        # are not samples, once.
        assert len(off_grid) == 3
        assert len(calls) == 1 + len(off_grid)
        assert sorted(calls[1:]) == sorted(sorted(t for t in w if t not in times) for w in off_grid)
        for w in windows:
            got = traj.window_norms(*w)
            assert got[0] is traj.window_norms(*w)[0]
            assert not got[0].flags.writeable and not got[1].flags.writeable


class TestBoundReport:
    def make_report(self) -> BoundReport:
        traj = scalar_traj(lambda t, x, z, u: -x, T=20.0)
        return check_gas(traj, Linear(7.0), eps=1e-3)

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
        bad = check_gas(traj, Linear(0.5), eps=1e-3)
        assert "VIOLATED" in bad.summary()
        assert "witness" in bad.summary()

    def test_mappings_frozen(self):
        report = self.make_report()
        with pytest.raises(TypeError):
            report.details["eps"] = 5.0


# ---------------------------------------------------------------------------
# The sampling that Trajectory.norm_table replaced, kept as its oracle:
# every window interpolates its own sample times, and the history norms
# call every history function at every sample.


def window_times(traj, a, b):
    """Grid nodes in [a, b] plus step midpoints and the two endpoints."""
    nodes = traj.grid_times()
    inside = nodes[(nodes >= a - 1e-12) & (nodes <= b + 1e-12)]
    mids = (nodes[:-1] + nodes[1:]) / 2.0
    mids = mids[(mids >= a) & (mids <= b)]
    extra = [t for t in (a, b) if -traj.theta <= t <= traj.t_end]
    return np.unique(np.concatenate([inside, mids, np.asarray(extra)]))


def block_norms(traj, arr, subsystem):
    """One block's Euclidean norms, or the maximum over blocks for None."""
    arr = np.atleast_2d(arr)
    off = traj.offsets()
    if subsystem is not None:
        return np.linalg.norm(arr[:, traj.block(subsystem)], axis=1)
    norms = np.zeros(arr.shape[0])
    for i in range(len(traj.dims)):
        norms = np.maximum(norms, np.linalg.norm(arr[:, off[i] : off[i + 1]], axis=1))
    return norms


def reference_sup_norm(traj, interval, subsystem=None):
    vals = traj.interpolate_many(window_times(traj, *interval))
    return float(np.max(block_norms(traj, vals, subsystem)))


def reference_samples(traj, a, b):
    """What Trajectory.window_norms returns, sampled per window."""
    times = window_times(traj, a, b)
    vals = traj.interpolate_many(times)
    return times, np.column_stack(
        [block_norms(traj, vals, i) for i in range(1, len(traj.dims) + 1)]
    )


def segment_norms(times, hist):
    """Sup norm of each history function over ``times`` and their
    midpoints, calling the function at every one."""
    mids = (times[:-1] + times[1:]) / 2.0
    return {
        i: float(np.max(np.linalg.norm(np.vstack([fn(float(t)) for t in (*times, *mids)]), axis=1)))
        for i, fn in enumerate(hist, start=1)
    }


def report_dicts(traj, g, closed):
    """The GS, AG and GAS reports as dicts, or the message they raise."""
    out = {}
    for kind, check in (
        ("gs", lambda: check_gs(traj, g, closed)),
        ("ag", lambda: check_ag(traj, closed)),
        ("gas", lambda: check_gas(traj, Linear(3.0), eps=0.5)),
    ):
        try:
            out[kind] = check().to_dict()
        except ValueError as exc:
            out[kind] = str(exc)
    return out


def build_network(h, dims, steps, refs, rates, coeffs, inputs, T, closed_loop=False):
    """A delay network, its trajectory and its gain digraph.

    Subsystem i has dimension dims[i], reads the delayed blocks
    refs[i] = ((j, delay step count), ...) through sin, decays at
    rates[i] (a negative rate grows, and blows the run up past 20),
    starts from the polynomial history with per-component coefficients
    coeffs[i], and takes the scalar input inputs[i] when it is not None.
    Delays are the step counts times h rounded to ten decimals, so M h
    need not equal the largest delay in binary.
    """
    delays = sorted({round(m * h, 10) for m in steps})
    k = len(dims)

    def rhs_of(dim, rate, keys, forced):
        def rhs(t, x, z, u):
            dx = -rate * x + np.cos(t)
            for key in keys:
                dx = dx + 0.5 * np.resize(np.sin(z[key]), dim)
            return dx + u[0] if forced else dx

        return rhs

    subs = []
    for i in range(k):
        keys = tuple(sorted({(j, round(m * h, 10)) for j, m in refs[i]}))
        forced = inputs[i] is not None
        subs.append(Subsystem(dim=dims[i], rhs=rhs_of(dims[i], rates[i], keys, forced),
                              references=keys, input_dim=int(forced)))
    sys = build_interconnection(subs, delays)
    hist = [HistoryFunction.polynomial(c) for c in coeffs]
    u = [sig if sig is not None else InputSignal.zero(0) for sig in inputs]
    if closed_loop:
        sys = build_auxiliary_system(sys, Linear(0.5), InputSignal.constant([0.8] * sys.total_input_dim))
        u = None
    traj = simulate(sys, hist, u, T=T, h=h, divergence_threshold=20.0)
    edges = {(i + 1, j): Linear(0.2) for i in range(k) for j, _ in refs[i] if j != i + 1}
    input_gains = {i + 1: Linear(1.0) for i in range(k) if inputs[i] is not None}
    g = build_gain_digraph(k, edges, input_gains or None, {i: Linear(2.0) for i in range(1, k + 1)})
    return traj, g


def assert_table_matches_reference(traj, g, windows):
    for a, b in windows:
        for subsystem in (None, *range(1, len(traj.dims) + 1)):
            got = sup_norm(traj, (a, b), subsystem)
            assert got == reference_sup_norm(traj, (a, b), subsystem), (a, b, subsystem)
    assert dict(traj.history_norms) == segment_norms(traj.hist_times, traj.history)

    closed = closed_loop_input_gains(g)
    got = report_dicts(traj, g, closed)
    ref = dataclasses.replace(traj)
    ref.__dict__["history_norms"] = segment_norms(traj.hist_times, traj.history)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Trajectory, "window_norms", reference_samples)
        want = report_dicts(ref, g, closed)
    assert "norm_table" not in ref.__dict__
    assert got == want


def polynomial_rows(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, size=(dim, 3)).tolist()


@st.composite
def networks(draw):
    h = draw(st.sampled_from([0.05, 0.1, 0.25]))
    k = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    steps = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
    ref = st.tuples(st.integers(1, k), st.sampled_from(steps))
    refs = draw(st.lists(st.lists(ref, max_size=2), min_size=k, max_size=k))
    blow_up = draw(st.booleans())
    rate = st.just(-3.0) if blow_up else st.floats(0.5, 2.0)
    rates = draw(st.lists(rate, min_size=k, max_size=k))
    coef = st.floats(-2.0, 2.0)
    coeffs = [
        draw(st.lists(st.lists(coef, min_size=1, max_size=3), min_size=d, max_size=d))
        for d in dims
    ]
    c = draw(st.floats(-2.0, 2.0))
    signal = st.sampled_from([
        None,
        InputSignal.constant([c]),
        InputSignal.piecewise_constant([0.0, 0.5], [[c], [-0.5 * c]]),
        InputSignal.from_callable(lambda t: np.array([c * math.sin(3.0 * t)]), 1),
    ])
    inputs = draw(st.lists(signal, min_size=k, max_size=k))
    closed_loop = any(sig is not None for sig in inputs) and draw(st.booleans())
    T = draw(st.one_of(
        st.just(0.0),
        st.integers(1, 12).map(lambda n: n * h),
        st.floats(0.0, 3.0, allow_nan=False),
    ))
    return build_network(h, dims, steps, refs, rates, coeffs, inputs, T, closed_loop)


class TestNormTableOracle:
    """The cached norm table gives the bits of per-window sampling."""

    @settings(max_examples=60, deadline=None)
    @given(networks(), st.data())
    def test_agrees_with_per_window_sampling(self, net, data):
        traj, g = net
        lo, hi = -traj.theta, traj.t_end
        samples = st.sampled_from(traj.norm_table[0].tolist())
        point = st.one_of(
            samples,
            samples.map(lambda t: t + 5e-13),
            samples.map(lambda t: t - 5e-13),
            st.floats(lo, hi),
        )
        windows = data.draw(st.lists(st.tuples(point, point).map(sorted), min_size=1, max_size=6))
        windows = [(a, b) for a, b in windows if lo - 1e-12 <= a and b <= hi + 1e-12]
        assert_table_matches_reference(traj, g, windows)

    @pytest.mark.parametrize(
        "case",
        ["multi_dim", "several_delays", "shortened_final_step", "blown_up", "closed_loop"],
    )
    def test_fixed_cases(self, case):
        h, T, closed_loop = 0.1, 2.0, False
        dims, rates = [2, 3, 1], [1.0, 0.5, 2.0]
        steps, refs = [3], [[(2, 3)], [(3, 3), (1, 3)], [(1, 3)]]
        inputs = [InputSignal.constant([0.7]), None,
                  InputSignal.from_callable(lambda t: np.array([math.sin(t)]), 1)]
        if case == "several_delays":
            steps, refs = [3, 7, 2], [[(2, 7)], [(3, 3), (2, 2)], [(1, 7), (2, 3)]]
        elif case == "shortened_final_step":
            T = 1.33
        elif case == "blown_up":
            rates = [-3.0, -3.0, -3.0]
        elif case == "closed_loop":
            closed_loop = True
        coeffs = [polynomial_rows(d, i) for i, d in enumerate(dims)]
        traj, g = build_network(h, dims, steps, refs, rates, coeffs, inputs, T, closed_loop)
        assert traj.blow_up == (case == "blown_up")
        if case == "shortened_final_step":
            assert traj.t_nodes[-1] - traj.t_nodes[-2] < h / 2
        if case == "several_delays":
            # 0.7 is 7 steps of 0.1, but 7 * 0.1 rounds above 0.7.
            assert traj.hist_times[0] < -traj.theta
        lo, hi = -traj.theta, traj.t_end
        windows = [(lo, hi), (lo, 0.0), (lo + 0.013, 0.37), (0.0, hi), (0.05, 0.05),
                   (hi * 0.6, hi), (0.1 - 5e-13, 0.3 + 5e-13), (0.05 + 5e-13, 0.25 - 5e-13),
                   (lo - 5e-13, lo + 0.02)]
        assert_table_matches_reference(traj, g, windows)
