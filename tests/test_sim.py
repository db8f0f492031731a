"""Delay-system integrator: accuracy, dense output, and failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallgain.gains import Linear
from smallgain.sim import (
    HistoryFunction,
    InputSignal,
    SimulationError,
    Subsystem,
    Trajectory,
    build_auxiliary_system,
    build_interconnection,
    simulate,
)


# ---------------------------------------------------------------------------
# Closed-form oracles, worked out by direct integration.


def delayed_decay_oracle(t: float) -> float:
    """x'(t) = -x(t-1) with x = 1 on [-1, 0], integrated piecewise.

    On [0, 1]: x' = -1, so x(t) = 1 - t.
    On [1, 2]: x'(t) = -(1 - (t-1)) = t - 2, so x(t) = t^2/2 - 2t + 3/2.
    """
    if t <= 0.0:
        return 1.0
    if t <= 1.0:
        return 1.0 - t
    if t <= 2.0:
        return t * t / 2.0 - 2.0 * t + 1.5
    raise ValueError("oracle only covers [0, 2]")


def coupled_relay_oracle(t: float) -> float:
    """First state of x1' = -x1 + v2(t - 1/2), x2' = -x2.

    With histories x1 = 0 and x2 = 1, node 2 decays as e^{-t} and node 1
    sees input 1 until t = 1/2 and e^{-(t-1/2)} afterwards:

      [0, 1/2]:  x1(t) = 1 - e^{-t}
      [1/2, oo): x1(t) = (0.5 e^{1/2} - 1) e^{-t} + e^{1/2} t e^{-t}
    """
    if t <= 0.5:
        return 1.0 - math.exp(-t)
    c = 0.5 * math.exp(0.5) - 1.0
    return c * math.exp(-t) + math.exp(0.5) * t * math.exp(-t)


def scalar_system(rhs, dim: int = 1, references=(), input_dim: int = 0, delays=()):
    sub = Subsystem(dim=dim, rhs=rhs, references=tuple(references), input_dim=input_dim)
    return build_interconnection([sub], delays)


class TestHistoryAndInputs:
    def test_history_kinds(self):
        const = HistoryFunction.constant([2.0, 3.0])
        assert const.dim == 2
        np.testing.assert_array_equal(const(-0.7), [2.0, 3.0])

        poly = HistoryFunction.polynomial([[1.0, 2.0]])
        assert poly(-0.5)[0] == pytest.approx(0.0)
        assert poly(0.0)[0] == pytest.approx(1.0)

        table = HistoryFunction.table([-1.0, 0.0], [[0.0], [4.0]])
        assert table(-0.5)[0] == pytest.approx(2.0)
        with pytest.raises(ValueError):
            HistoryFunction.table([0.0, 0.0], [[1.0], [2.0]])

    def test_piecewise_input_hold_semantics(self):
        u = InputSignal.piecewise_constant([0.0, 1.0], [[2.0], [5.0]])
        assert u(0.0)[0] == 2.0
        assert u(0.999)[0] == 2.0
        assert u(1.0)[0] == 5.0
        assert u(10.0)[0] == 5.0

    def test_sup_norms(self):
        assert InputSignal.zero(2).sup_norm([0.0, 1.0]) == 0.0
        # Max-abs over components, not Euclidean.
        assert InputSignal.constant([3.0, -4.0]).sup_norm([0.0]) == pytest.approx(4.0)
        pw = InputSignal.piecewise_constant([0.0, 1.0], [[1.0], [-7.0]])
        assert pw.sup_norm([0.0, 0.5]) == pytest.approx(7.0)


class TestValidation:
    def test_bad_step_and_horizon(self):
        sys = scalar_system(lambda t, x, z, u: -x)
        hist = [HistoryFunction.constant([1.0])]
        with pytest.raises(ValueError):
            simulate(sys, hist, None, T=1.0, h=0.0)
        with pytest.raises(ValueError):
            simulate(sys, hist, None, T=-1.0, h=0.1)

    def test_step_must_divide_delays(self):
        sub = Subsystem(dim=1, rhs=lambda t, x, z, u: -z[(1, 0.25)], references=((1, 0.25),))
        sys = build_interconnection([sub], [0.25])
        hist = [HistoryFunction.constant([1.0])]
        with pytest.raises(SimulationError):
            simulate(sys, hist, None, T=1.0, h=0.1)
        traj = simulate(sys, hist, None, T=1.0, h=0.05)
        assert traj.t_end == pytest.approx(1.0)

    def test_history_dimension_mismatch(self):
        sys = scalar_system(lambda t, x, z, u: -x)
        with pytest.raises(ValueError):
            simulate(sys, [HistoryFunction.constant([1.0, 2.0])], None, 1.0, 0.1)
        with pytest.raises(ValueError):
            simulate(sys, [], None, 1.0, 0.1)

    def test_input_mismatch(self):
        sys = scalar_system(lambda t, x, z, u: -x + u[0], input_dim=1)
        hist = [HistoryFunction.constant([1.0])]
        with pytest.raises(ValueError):
            simulate(sys, hist, [InputSignal.zero(2)], 1.0, 0.1)

    def test_reference_must_use_declared_delay(self):
        sub = Subsystem(dim=1, rhs=lambda t, x, z, u: -x, references=((1, 0.5),))
        with pytest.raises(ValueError):
            build_interconnection([sub], [0.25])


class TestAccuracy:
    def test_exponential_decay(self):
        sys = scalar_system(lambda t, x, z, u: -3.0 * x)
        traj = simulate(sys, [HistoryFunction.constant([1.0])], None, T=1.0, h=1e-3)
        assert abs(traj.states[-1, 0] - math.exp(-3.0)) < 1e-9

    def test_delayed_decay_matches_piecewise_oracle(self):
        sub = Subsystem(
            dim=1, rhs=lambda t, x, z, u: -z[(1, 1.0)], references=((1, 1.0),)
        )
        sys = build_interconnection([sub], [1.0])
        traj = simulate(sys, [HistoryFunction.constant([1.0])], None, T=2.0, h=0.1)
        # The exact solution is piecewise polynomial of degree <= 2, so
        # the integrator and the dense output should both be exact to
        # rounding.
        for t in np.linspace(0.0, 2.0, 41):
            assert traj.interpolate(float(t))[0] == pytest.approx(
                delayed_decay_oracle(float(t)), abs=1e-12
            )

    def test_cross_reference_matches_closed_form(self):
        sub1 = Subsystem(
            dim=1,
            rhs=lambda t, x, z, u: -x + z[(2, 0.5)],
            references=((2, 0.5),),
        )
        sub2 = Subsystem(dim=1, rhs=lambda t, x, z, u: -x)
        sys = build_interconnection([sub1, sub2], [0.5])
        hist = [HistoryFunction.constant([0.0]), HistoryFunction.constant([1.0])]
        traj = simulate(sys, hist, None, T=2.0, h=1e-3)
        for t in (0.25, 0.5, 0.75, 1.0, 1.7, 2.0):
            assert traj.interpolate(t)[0] == pytest.approx(
                coupled_relay_oracle(t), abs=1e-10
            )
            assert traj.interpolate(t)[1] == pytest.approx(math.exp(-t), abs=1e-10)

    def test_constant_input_is_exact(self):
        sys = scalar_system(lambda t, x, z, u: u[0], input_dim=1)
        traj = simulate(
            sys,
            [HistoryFunction.constant([0.0])],
            [InputSignal.constant([0.5])],
            T=2.0,
            h=0.1,
        )
        assert traj.states[-1, 0] == pytest.approx(1.0, abs=1e-13)

    def test_shortened_final_step(self):
        sys = scalar_system(lambda t, x, z, u: -3.0 * x)
        traj = simulate(sys, [HistoryFunction.constant([1.0])], None, T=0.35, h=0.1)
        np.testing.assert_allclose(traj.t_nodes, [0.0, 0.1, 0.2, 0.3, 0.35])
        assert abs(traj.states[-1, 0] - math.exp(-1.05)) < 1e-4
        # Dense output stays usable on the short interval.
        assert traj.interpolate(0.33)[0] == pytest.approx(math.exp(-0.99), abs=1e-4)

    def test_zero_stays_zero(self):
        sub = Subsystem(
            dim=1, rhs=lambda t, x, z, u: -x + z[(1, 0.5)] ** 2, references=((1, 0.5),)
        )
        sys = build_interconnection([sub], [0.5])
        traj = simulate(sys, [HistoryFunction.constant([0.0])], None, T=1.0, h=0.05)
        assert np.all(traj.states == 0.0)

    def test_multidim_rotation(self):
        def rhs(t, x, z, u):
            return np.array([x[1], -x[0]])

        sys = scalar_system(rhs, dim=2)
        traj = simulate(sys, [HistoryFunction.constant([1.0, 0.0])], None, T=1.0, h=1e-3)
        assert traj.states[-1, 0] == pytest.approx(math.cos(1.0), abs=1e-10)
        assert traj.states[-1, 1] == pytest.approx(-math.sin(1.0), abs=1e-10)
        norms = traj.node_norms(subsystem=1, include_history=False)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)


class TestDenseOutput:
    def test_nodes_reproduced_exactly(self):
        sys = scalar_system(lambda t, x, z, u: -2.0 * x)
        traj = simulate(sys, [HistoryFunction.constant([1.0])], None, T=1.0, h=0.1)
        for j, t in enumerate(traj.t_nodes):
            assert traj.interpolate(float(t))[0] == traj.states[j, 0]

    def test_cubic_reproduced_exactly(self):
        # x' = 3t^2 integrates to t^3; both the integrator and the cubic
        # Hermite interpolant are exact for cubics.
        def rhs(t, x, z, u):
            return np.array([3.0 * t * t])

        sys = scalar_system(rhs)
        traj = simulate(sys, [HistoryFunction.constant([0.0])], None, T=1.0, h=0.1)
        for t in np.linspace(0.0, 1.0, 57):
            assert traj.interpolate(float(t))[0] == pytest.approx(float(t) ** 3, abs=1e-13)

    def test_history_side(self):
        sub = Subsystem(
            dim=1, rhs=lambda t, x, z, u: -z[(1, 1.0)], references=((1, 1.0),)
        )
        sys = build_interconnection([sub], [1.0])
        hist = [HistoryFunction.polynomial([[1.0, 0.5]])]
        traj = simulate(sys, hist, None, T=1.0, h=0.1)
        assert traj.interpolate(-0.6)[0] == pytest.approx(0.7)
        assert traj.interpolate(0.0)[0] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            traj.interpolate(-1.5)
        with pytest.raises(ValueError):
            traj.interpolate(1.5)

    def test_continuity_across_nodes(self):
        sys = scalar_system(lambda t, x, z, u: -2.0 * x + math.sin(t))
        traj = simulate(sys, [HistoryFunction.constant([1.0])], None, T=1.0, h=0.1)
        for t in (0.1, 0.5, 0.9):
            left = traj.interpolate(t - 1e-10)[0]
            right = traj.interpolate(t + 1e-10)[0]
            assert abs(left - right) < 1e-8


def reference_interpolate(traj: Trajectory, t: float) -> np.ndarray:
    """Per-point cubic Hermite dense output, the oracle of interpolate_many."""
    t = float(t)
    if t < -traj.theta - 1e-12 or t > traj.t_end + 1e-12:
        raise ValueError(f"time {t} outside trajectory range [{-traj.theta}, {traj.t_end}]")
    if t <= 0.0:
        return traj._hist_value(max(t, -traj.theta))
    if len(traj.t_nodes) == 1:
        return traj.states[0].copy()
    t = min(t, traj.t_end)
    j = int(np.searchsorted(traj.t_nodes, t, side="right")) - 1
    j = min(max(j, 0), len(traj.t_nodes) - 2)
    ta, tb = float(traj.t_nodes[j]), float(traj.t_nodes[j + 1])
    if t == ta:
        return traj.states[j].copy()
    if t == tb:
        return traj.states[j + 1].copy()
    dt = tb - ta
    u = (t - ta) / dt
    h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
    h10 = u * (1.0 - u) ** 2
    h01 = u * u * (3.0 - 2.0 * u)
    h11 = u * u * (u - 1.0)
    return (
        h00 * traj.states[j]
        + h10 * dt * traj.derivs[j]
        + h01 * traj.states[j + 1]
        + h11 * dt * traj.derivs[j + 1]
    )


@st.composite
def coupled_trajectories(draw):
    """Two coupled scalar delay equations with polynomial histories.

    The horizon is zero, a whole number of steps, or arbitrary, so the
    last step is often shortened.
    """
    h = draw(st.sampled_from([0.05, 0.1, 0.25]))
    tau = draw(st.integers(1, 4)) * h
    T = draw(
        st.one_of(
            st.just(0.0),
            st.integers(1, 12).map(lambda n: n * h),
            st.floats(0.0, 3.0, allow_nan=False),
        )
    )
    a, b = draw(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    coeffs = draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=3))
    key = (2, tau), (1, tau)
    subs = [
        Subsystem(dim=1, rhs=lambda t, x, z, u: -x + a * z[key[0]], references=(key[0],)),
        Subsystem(dim=1, rhs=lambda t, x, z, u: -x + b * np.sin(z[key[1]]) + np.cos(t), references=(key[1],)),
    ]
    hist = [HistoryFunction.polynomial([coeffs]), HistoryFunction.polynomial([coeffs[::-1]])]
    return simulate(build_interconnection(subs, [tau]), hist, None, T=T, h=h)


class TestVectorisedDenseOutput:
    @settings(max_examples=60, deadline=None)
    @given(coupled_trajectories(), st.data())
    def test_agrees_with_per_point_reference(self, traj, data):
        lo, hi = -traj.theta, traj.t_end
        nodes = traj.grid_times()
        mids = (nodes[:-1] + nodes[1:]) / 2.0
        ends = np.array([lo, lo - 5e-13, 0.0, hi, hi + 5e-13])
        exact = np.concatenate([nodes, mids, ends])
        free = np.array(data.draw(st.lists(st.floats(lo, hi), max_size=40)))
        # Shuffled together, so the rows must come back in input order.
        times = data.draw(st.permutations(np.concatenate([exact, free]).tolist()))
        got = traj.interpolate_many(times)
        ref = np.vstack([reference_interpolate(traj, t) for t in times])
        assert got.shape == (len(times), traj.total_dim)
        is_exact = np.isin(times, exact) | (np.asarray(times) <= 0.0)
        np.testing.assert_array_equal(got[is_exact], ref[is_exact])
        # Elsewhere numpy squares (1 - u) exactly where the scalar ** may
        # round differently, so the two agree to a few ulp of the step.
        scale = max(np.abs(traj.states).max(), traj.h * np.abs(traj.derivs).max())
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=4 * np.spacing(scale))
        for t, row in zip(times[:5], got):
            np.testing.assert_array_equal(traj.interpolate(t), row)

    def test_shortened_final_step_and_t_end(self):
        sys = scalar_system(lambda t, x, z, u: -x + np.sin(t))
        traj = simulate(sys, [HistoryFunction.constant([1.0])], None, T=0.33, h=0.1)
        assert traj.t_nodes[-1] - traj.t_nodes[-2] == pytest.approx(0.03)
        times = [0.3, 0.315, 0.33, 0.33 + 1e-13]
        ref = np.vstack([reference_interpolate(traj, t) for t in times])
        np.testing.assert_allclose(traj.interpolate_many(times), ref, rtol=0.0, atol=1e-15)
        assert traj.interpolate_many([0.33])[0, 0] == traj.states[-1, 0]

    def test_zero_horizon(self):
        hist = HistoryFunction.polynomial([[1.0, 0.5]])
        sub = Subsystem(dim=1, rhs=lambda t, x, z, u: -z[(1, 1.0)], references=((1, 1.0),))
        traj = simulate(build_interconnection([sub], [1.0]), [hist], None, T=0.0, h=0.1)
        got = traj.interpolate_many([-1.0, -0.5, 0.0, 1e-13])
        np.testing.assert_array_equal(got[:, 0], [0.5, 0.75, 1.0, traj.states[0, 0]])

    def test_out_of_range_and_empty(self):
        sys = scalar_system(lambda t, x, z, u: -x, dim=1)
        traj = simulate(sys, [HistoryFunction.constant([1.0])], None, T=1.0, h=0.1)
        for bad in ([1.0 + 1e-9], [0.5, -1e-9 - traj.theta], [0.2, float("nan")]):
            with pytest.raises(ValueError, match="outside trajectory range"):
                traj.interpolate_many(bad)
        assert traj.interpolate_many([]).shape == (0, 1)
        assert traj.interpolate_many(np.empty(0)).shape == (0, 1)


class TestFailureModes:
    def test_blow_up_flagged_before_analytic_escape_window_closes(self):
        # x' = x^2 from 2 escapes at t = 1/2.
        sys = scalar_system(lambda t, x, z, u: x * x)
        traj = simulate(sys, [HistoryFunction.constant([2.0])], None, T=1.0, h=1e-3)
        assert traj.blow_up
        assert traj.escape_time is not None
        assert 0.45 < traj.escape_time < 0.55
        assert traj.t_end == pytest.approx(traj.escape_time)
        assert np.all(np.isfinite(traj.states))

    def test_lower_threshold_trips_earlier(self):
        sys = scalar_system(lambda t, x, z, u: x * x)
        hist = [HistoryFunction.constant([2.0])]
        early = simulate(sys, hist, None, 1.0, 1e-3, divergence_threshold=1e3)
        late = simulate(sys, hist, None, 1.0, 1e-3, divergence_threshold=1e9)
        assert early.blow_up and late.blow_up
        assert early.escape_time < late.escape_time

    def test_nan_raises(self):
        sys = scalar_system(lambda t, x, z, u: float("nan") * x)
        with pytest.raises(SimulationError):
            simulate(sys, [HistoryFunction.constant([1.0])], None, 1.0, 0.1)

    def test_nonfinite_history_raises(self):
        sys = scalar_system(lambda t, x, z, u: -x)
        bad = HistoryFunction.from_callable(lambda t: np.array([float("inf")]), 1)
        with pytest.raises(SimulationError):
            simulate(sys, [bad], None, 1.0, 0.1)


class TestFeedbackSystems:
    def test_norm_scaled_feedback_matches_linear_closed_form(self):
        # u = 0.5 * ||x_t|| * d with d = 1 and x > 0 decaying turns
        # x' = -x + u into x' = -0.5 x exactly.
        sub = Subsystem(dim=1, rhs=lambda t, x, z, u: -x + u[0], input_dim=1)
        base = build_interconnection([sub], [])
        aux = build_auxiliary_system(base, Linear(0.5), InputSignal.constant([1.0]))
        traj = simulate(aux, [HistoryFunction.constant([1.0])], None, T=1.0, h=1e-3)
        assert traj.states[-1, 0] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_disturbance_clamped_with_warning(self):
        sub = Subsystem(dim=1, rhs=lambda t, x, z, u: -x + u[0], input_dim=1)
        base = build_interconnection([sub], [])
        loud = build_auxiliary_system(base, Linear(0.5), InputSignal.constant([3.0]))
        quiet = build_auxiliary_system(base, Linear(0.5), InputSignal.constant([1.0]))
        hist = [HistoryFunction.constant([1.0])]
        with pytest.warns(UserWarning):
            traj_loud = simulate(loud, hist, None, T=1.0, h=0.01)
        traj_quiet = simulate(quiet, hist, None, T=1.0, h=0.01)
        np.testing.assert_array_equal(traj_loud.states, traj_quiet.states)

    def test_feedback_system_rejects_external_inputs(self):
        sub = Subsystem(dim=1, rhs=lambda t, x, z, u: -x + u[0], input_dim=1)
        base = build_interconnection([sub], [])
        aux = build_auxiliary_system(base, Linear(0.5), InputSignal.constant([1.0]))
        with pytest.raises(ValueError):
            simulate(aux, [HistoryFunction.constant([1.0])], [InputSignal.zero(1)], 1.0, 0.1)

    def test_auxiliary_requires_input_channels(self):
        sub = Subsystem(dim=1, rhs=lambda t, x, z, u: -x)
        base = build_interconnection([sub], [])
        with pytest.raises(ValueError):
            build_auxiliary_system(base, Linear(0.5), InputSignal.constant([1.0]))


class TestTrajectoryExport:
    def make_traj(self, T=0.2) -> Trajectory:
        sub = Subsystem(
            dim=1, rhs=lambda t, x, z, u: -z[(1, 0.2)], references=((1, 0.2),)
        )
        sys = build_interconnection([sub], [0.2])
        return simulate(sys, [HistoryFunction.constant([1.0])], None, T, 0.1)

    def test_csv_layout(self):
        import io

        traj = self.make_traj()
        buf = io.StringIO()
        traj.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "t,x_1"
        # Two history rows (-0.2, -0.1) then nodes 0.0, 0.1, 0.2.
        assert len(lines) == 1 + 2 + 3
        first = lines[1].split(",")
        assert float(first[0]) == -0.2
        assert float(first[1]) == 1.0

    def test_csv_round_trips_by_repr(self):
        import io

        traj = self.make_traj()
        buf = io.StringIO()
        traj.to_csv(buf)
        rows = [line.split(",") for line in buf.getvalue().strip().split("\n")[1:]]
        parsed = np.array([[float(v) for v in row] for row in rows])
        np.testing.assert_array_equal(parsed[:, 0], traj.grid_times())
        np.testing.assert_array_equal(parsed[:, 1:], traj.grid_states())

    def test_zero_horizon(self):
        traj = self.make_traj(T=0.0)
        assert list(traj.t_nodes) == [0.0]
        assert traj.states.shape == (1, 1)
        assert traj.metadata()["n_steps"] == 0

    def test_metadata_keys(self):
        meta = self.make_traj().metadata()
        assert meta["h"] == 0.1
        assert meta["requested_T"] == 0.2
        assert meta["blow_up"] is False
        assert meta["delays"] == [0.2]
        assert meta["dims"] == [1]
