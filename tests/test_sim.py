"""Delay-system integrator: accuracy, dense output, and failure modes."""

import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smallgain.cli
import smallgain.sim
from smallgain.cli import _sweep_trajectories
from smallgain.dsl import SimParams, parse_system
from smallgain.gains import Linear, SaturatingRational
from smallgain.ring import ring_config, ring_system
from smallgain.sim import (
    DEFAULT_DIVERGENCE_THRESHOLD,
    HistoryFunction,
    InputSignal,
    SimulationError,
    Subsystem,
    Trajectory,
    resolve_steps,
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

    @pytest.mark.parametrize(
        "make, read",
        [
            (HistoryFunction.constant, lambda f: np.vstack([f(-0.5), f.many(np.array([-0.5, 0.0]))])),
            (InputSignal.constant, lambda f: f(0.5)),
            (lambda values: InputSignal.zero(2), lambda f: f(0.5)),
        ],
        ids=["history-constant", "input-constant", "input-zero"],
    )
    def test_constant_kinds_return_read_only_copies(self, make, read):
        values = np.array([2.0, 3.0])
        f = make(values)
        before = read(f)
        with pytest.raises(ValueError, match="read-only"):
            f(-0.5)[0] = 7.0
        values[0] = 7.0  # the caller's array is not aliased
        np.testing.assert_array_equal(read(f), before)
        assert 7.0 not in read(f)

    @pytest.mark.parametrize(
        "make, read",
        [
            (
                lambda values: HistoryFunction.table([-1.0, 0.0], values),
                lambda f: np.vstack([f(-0.5), f.many(np.array([-0.5, 0.0]))]),
            ),
            (
                lambda values: HistoryFunction.polynomial([values[:, 0]]),
                lambda f: np.vstack([f(1.0), f.many(np.array([-0.5, 1.0]))]),
            ),
            (
                lambda values: InputSignal.piecewise_constant([0.0, 1.0], values),
                lambda f: np.vstack([f(0.2), f(1.5), [f.sup_norm([])]]),
            ),
        ],
        ids=["history-table", "history-polynomial", "input-piecewise"],
    )
    def test_data_kinds_keep_read_only_copies(self, make, read):
        values = np.array([[2.0], [1.0]])
        f = make(values)
        before = read(f)
        values[:] = 50.0  # the caller's array is not aliased
        row = f(0.5)
        if f.kind == "piecewise":  # rows of the stored table
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 9.0
        else:  # computed afresh by every call
            row[0] = 9.0
        np.testing.assert_array_equal(read(f), before)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: HistoryFunction.table([-1.0, 0.0], 5.0), "table values must have one row per time"),
            (lambda: HistoryFunction.polynomial([]), "one nonempty row per component"),
            (lambda: HistoryFunction.polynomial([[]]), "one nonempty row per component"),
            (lambda: InputSignal.piecewise_constant([0.0], 5.0), "one per value row"),
            (lambda: InputSignal.piecewise_constant([], []), "one or more strictly increasing times"),
            (lambda: HistoryFunction.table([-1.0, 0.0], [[], []]), "each a nonempty flat row"),
            (lambda: HistoryFunction.table([-1.0, 0.0], np.zeros((2, 2, 2))), "each a nonempty flat row"),
            (lambda: InputSignal.piecewise_constant([0.0], [[]]), "values must be nonempty flat rows"),
        ],
        ids=["table-scalar-values", "polynomial-no-rows", "polynomial-empty-row", "piecewise-scalar-values",
             "piecewise-no-times", "table-empty-rows", "table-nested-rows", "piecewise-empty-row"],
    )
    def test_malformed_data_raises_at_construction(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

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
        # The first stored history node may lie just below -theta.
        t = max(t, min(-traj.theta, float(traj.hist_times[0])))
        return np.concatenate([fn(t) for fn in traj.history])
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

    def test_blocks_match_one_pass(self, monkeypatch):
        sys = scalar_system(lambda t, x, z, u: -x + np.sin(t) * z[(1, 0.5)], references=((1, 0.5),), delays=(0.5,))
        traj = simulate(sys, [HistoryFunction.polynomial([[1.0, 0.3]])], None, T=150.05, h=0.1)
        nodes = traj.grid_times()
        rng = np.random.default_rng(0)
        free = rng.uniform(-traj.theta, traj.t_end, 500)
        times = rng.permutation(np.concatenate([nodes, (nodes[:-1] + nodes[1:]) / 2.0, free]))
        assert times.size > 4 * smallgain.sim._DENSE_BLOCK
        blocked = traj.interpolate_many(times)
        monkeypatch.setattr(smallgain.sim, "_DENSE_BLOCK", times.size)
        assert blocked.tobytes() == traj.interpolate_many(times).tobytes()

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

    def test_stored_history_nodes_read_back_exactly(self):
        # 3 * 0.1 rounds above the delay 0.3: the first stored history
        # node lies just below -theta and still reads its own sample.
        sub = Subsystem(dim=1, rhs=lambda t, x, z, u: -z[(1, 0.3)], references=((1, 0.3),))
        hist = HistoryFunction.polynomial([[1.0, 1000.0]])
        traj = simulate(build_interconnection([sub], [0.3]), [hist], None, T=0.5, h=0.1)
        assert traj.hist_times[0] < -traj.theta
        np.testing.assert_array_equal(traj.interpolate_many(traj.hist_times), traj.hist_states)
        assert traj.interpolate(-traj.theta)[0] == hist(-0.3)[0]

    def test_out_of_range_and_empty(self):
        sys = scalar_system(lambda t, x, z, u: -x, dim=1)
        traj = simulate(sys, [HistoryFunction.constant([1.0])], None, T=1.0, h=0.1)
        for bad in ([1.0 + 1e-9], [0.5, -1e-9 - traj.theta], [0.2, float("nan")]):
            with pytest.raises(ValueError, match="outside trajectory range"):
                traj.interpolate_many(bad)
        assert traj.interpolate_many([]).shape == (0, 1)
        assert traj.interpolate_many(np.empty(0)).shape == (0, 1)


class _RefDiverged(Exception):
    pass


def reference_simulate(sys, hist, inputs, T, h, divergence_threshold=DEFAULT_DIVERGENCE_THRESHOLD):
    """The per-subsystem, per-reference stage loop, the oracle of simulate.

    It calls every subsystem's own rhs with a dict of delayed blocks, one
    delayed lookup per reference, and evaluates the history functions at
    every delayed midpoint that falls in the history window.  Argument
    checks are left to simulate.
    """
    k = sys.k
    hist = list(hist)
    feedback = sys.feedback
    if feedback is None:
        if inputs is None:
            inputs = [InputSignal.zero(s.input_dim) for s in sys.subsystems]
        inputs = list(inputs)
    delay_steps = resolve_steps(sys.delays, h)
    M = max(delay_steps.values(), default=0)
    n = sys.total_dim
    off = sys.offsets()
    in_off = [0]
    for s in sys.subsystems:
        in_off.append(in_off[-1] + s.input_dim)
    m_total = sys.total_input_dim
    ref_plumbing = [
        [((j, th), delay_steps[th], slice(off[j - 1], off[j])) for j, th in s.references]
        for s in sys.subsystems
    ]

    hist_times = np.array([(j - M) * h for j in range(M + 1)])
    hist_states = np.empty((M + 1, n))
    for row, t in enumerate(hist_times):
        vals = np.concatenate([fn(float(t)) for fn in hist])
        if not np.all(np.isfinite(vals)):
            raise SimulationError("history function produced non-finite values", float(t), vals)
        hist_states[row] = vals

    N_full = int(math.floor(T / h + 1e-12))
    remainder = T - N_full * h
    if remainder <= 1e-12 * max(T, h):
        remainder = 0.0
    N = N_full + (1 if remainder > 0.0 else 0)
    states = np.empty((N + 1, n))
    derivs = np.zeros((N + 1, n))
    states[0] = hist_states[-1]
    norms_all = np.empty(M + N + 1)

    def block_max_norm(x):
        return max([0.0] + [float(np.linalg.norm(x[off[i] : off[i + 1]])) for i in range(k)])

    for row in range(M + 1):
        norms_all[row] = block_max_norm(hist_states[row])

    def input_vector(t, step, frac, x_stage, completed):
        if m_total == 0:
            return np.empty(0)
        if feedback is None:
            return np.concatenate([inputs[i](t) for i in range(k)])
        pos = step + frac
        lo = max(int(math.ceil(pos - M - 1e-9)), -M)
        wnorm = float(norms_all[lo + M : completed + M + 1].max(initial=0.0))
        wnorm = max(wnorm, block_max_norm(x_stage))
        return feedback.rho(wnorm) * np.clip(feedback.d(t), -1.0, 1.0)

    def hermite(u, dt, xa, fa, xb, fb):
        h00 = (1.0 + 2.0 * u) * (1.0 - u) ** 2
        h10 = u * (1.0 - u) ** 2
        h01 = u * u * (3.0 - 2.0 * u)
        h11 = u * u * (u - 1.0)
        return h00 * xa + h10 * dt * fa + h01 * xb + h11 * dt * fb

    def delayed_value(step, frac, msteps, src):
        idx = step - msteps
        if frac == 1.0:
            idx += 1
        if frac in (0.0, 1.0):
            return states[idx, src] if idx >= 0 else hist_states[idx + M, src]
        if idx + 1 <= 0:
            return np.concatenate([fn((idx + 0.5) * h) for fn in hist])[src]
        return 0.5 * (states[idx, src] + states[idx + 1, src]) + (h / 8.0) * (derivs[idx, src] - derivs[idx + 1, src])

    def dense_lookup(tq, current, src):
        if tq <= 0.0:
            return np.concatenate([fn(tq) for fn in hist])[src]
        j = min(int(math.floor(tq / h + 1e-12)), current - 1)
        u = (tq - j * h) / h
        if u <= 1e-12:
            return states[j, src]
        if u >= 1.0 - 1e-12:
            return states[j + 1, src]
        return hermite(u, h, states[j, src], derivs[j, src], states[j + 1, src], derivs[j + 1, src])

    def eval_rhs(step, frac, t, x_stage, completed, aligned=True):
        u_full = input_vector(t, step, frac, x_stage, completed)
        dx = np.empty(n)
        for i, sub in enumerate(sys.subsystems):
            if aligned:
                z = {key: delayed_value(step, frac, m, src) for key, m, src in ref_plumbing[i]}
            else:
                z = {key: dense_lookup(t - key[1], completed, src) for key, m, src in ref_plumbing[i]}
            out = np.asarray(sub.rhs(t, x_stage[off[i] : off[i + 1]], z, u_full[in_off[i] : in_off[i + 1]]), dtype=float)
            dx[off[i] : off[i + 1]] = out.reshape(-1)
        return dx

    def checked(vec, t, x_ref, what="right-hand side evaluation"):
        if np.all(np.isfinite(vec)):
            return vec
        if np.any(np.isnan(vec)):
            raise SimulationError(f"NaN in {what}", t, x_ref)
        raise _RefDiverged

    t_nodes = np.empty(N + 1)
    t_nodes[0] = 0.0
    blow_up, escape_time, completed = False, None, 0
    final = N
    for nstep, hs in enumerate([h] * N_full + ([remainder] if remainder > 0.0 else [])):
        t_n = nstep * h
        x_n = states[nstep]
        mid = hs / 2.0
        aligned = hs == h
        fr_mid, fr_end = (0.5, 1.0) if aligned else (mid / h, hs / h)
        t_next = t_n + hs if aligned else T
        try:
            k1 = checked(eval_rhs(nstep, 0.0, t_n, x_n, completed, aligned), t_n, x_n)
            derivs[nstep] = k1
            k2 = checked(eval_rhs(nstep, fr_mid, t_n + mid, x_n + mid * k1, completed, aligned), t_n, x_n)
            k3 = checked(eval_rhs(nstep, fr_mid, t_n + mid, x_n + mid * k2, completed, aligned), t_n, x_n)
            k4 = checked(eval_rhs(nstep, fr_end, t_n + hs, x_n + hs * k3, completed, aligned), t_n, x_n)
            x_next = x_n + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            checked(x_next, t_next, x_n, "state update")
        except _RefDiverged:
            final = nstep
            blow_up, escape_time = True, t_n
            break
        states[nstep + 1] = x_next
        t_nodes[nstep + 1] = t_next
        norms_all[M + nstep + 1] = block_max_norm(x_next)
        completed = nstep + 1
        if norms_all[M + nstep + 1] > divergence_threshold:
            final = nstep + 1
            blow_up, escape_time = True, float(t_next)
            break

    t_fin = float(t_nodes[final])
    try:
        dfin = eval_rhs(final, 0.0, t_fin, states[final], completed, remainder == 0.0 or final < N)
        if np.all(np.isfinite(dfin)):
            derivs[final] = dfin
    except (SimulationError, FloatingPointError, OverflowError):
        pass
    return Trajectory(
        dims=sys.dims,
        delays=sys.delays,
        h=h,
        t_nodes=t_nodes[: final + 1],
        states=states[: final + 1],
        derivs=derivs[: final + 1],
        hist_times=hist_times,
        hist_states=hist_states,
        history=tuple(hist),
        blow_up=blow_up,
        escape_time=escape_time,
        requested_T=T,
    )


def dsl_doc(exprs, delays, input_dims=None):
    """The document of a network given as one list of expressions per subsystem."""
    input_dims = input_dims or [0] * len(exprs)
    return {
        "k": len(exprs),
        "delays": list(delays),
        "subsystems": [{"rhs": e, "input_dim": m} for e, m in zip(exprs, input_dims)],
        "gains": {},
    }


def dsl_system(exprs, delays, input_dims=None):
    """Parse a network given as one list of expressions per subsystem."""
    return parse_system(dsl_doc(exprs, delays, input_dims)).system


def outcome(run):
    """Everything a run produces, as bytes, or the error it raised."""
    try:
        traj = run()
    except Exception as exc:
        return type(exc), str(exc)
    arrays = (traj.t_nodes, traj.states, traj.derivs, traj.hist_times, traj.hist_states)
    return traj.blow_up, traj.escape_time, [(a.shape, a.tobytes()) for a in arrays]


def recorded(run):
    """outcome(run), and the messages of the warnings that arithmetic on
    numpy scalars (the right-hand sides) raised during it, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = outcome(run)
    return result, [str(w.message) for w in caught if " encountered in scalar " in str(w.message)]


def same_as_reference(sys, hist, inputs, T, h, **kw):
    """simulate on sys and on its subsystem adapter both match the oracle,
    also in the warnings of right-hand side arithmetic."""
    with np.errstate(invalid="ignore"):  # simulate reports a NaN itself
        ref = recorded(lambda: reference_simulate(sys, hist, inputs, T, h, **kw))
    assert recorded(lambda: simulate(sys, hist, inputs, T, h, **kw)) == ref
    adapted = replace(sys, expressions=None)
    assert recorded(lambda: simulate(adapted, hist, inputs, T, h, **kw)) == ref
    return ref[0]


_coef = st.floats(-1.5, 1.5).map(lambda v: round(v, 3))


@st.composite
def histories(draw, dim):
    kind = draw(st.sampled_from(["constant", "polynomial", "table", "callable"]))
    if kind == "constant":
        return HistoryFunction.constant(draw(st.lists(_coef, min_size=dim, max_size=dim)))
    if kind == "polynomial":
        rows = st.lists(_coef, min_size=1, max_size=3)
        return HistoryFunction.polynomial(draw(st.lists(rows, min_size=dim, max_size=dim)))
    if kind == "table":
        row = st.lists(_coef, min_size=dim, max_size=dim)
        return HistoryFunction.table([-1.6, -0.35, 0.0], draw(st.lists(row, min_size=3, max_size=3)))
    w, c0 = draw(_coef), draw(_coef)
    return HistoryFunction.from_callable(lambda t: c0 + np.cos(w * t) * np.ones(dim), dim)


@st.composite
def input_signals(draw, dim):
    kind = draw(st.sampled_from(["zero", "constant", "piecewise", "callable"]))
    if dim == 0 or kind == "zero":
        return InputSignal.zero(dim)
    vec = st.lists(_coef, min_size=dim, max_size=dim)
    if kind == "constant":
        return InputSignal.constant(draw(vec))
    if kind == "piecewise":
        return InputSignal.piecewise_constant([0.0, draw(st.floats(0.01, 3.0))], [draw(vec), draw(vec)])
    w = draw(_coef)
    return InputSignal.from_callable(lambda t: np.sin(w * t + np.arange(dim)), dim)


# Terms whose float evaluation raises or overflows: a ^ that overflows
# always or for |v| > 3.1, a negative base with a fractional exponent, a
# division by zero and 0^-1.  v is a delayed reference.
_HAZARDS = ("(1 + {v}^2)^1100", "(1 + {v}^2)^300", "({v} - 0.5)^1.5", "{v}/({x} - {x})", "(0*{v})^-1")


@st.composite
def dsl_documents(draw, h, hazards=False):
    """A random DSL network document at step h with histories, and input
    signals when it declares inputs and draws them: (doc, hist, inputs).

    With hazards, a network may also read a delay of one step (so the
    integrator gathers Z in blocks of one step) and carry one term of
    _HAZARDS half of the time."""
    k = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    input_dims = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    delays = [m * h for m in draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))]
    one_step = hazards and draw(st.booleans())
    if one_step and h not in delays:
        delays.append(h)

    def delayed(i, delay=None):
        j = draw(st.integers(1, k))
        name = draw(st.sampled_from(["x", "v"])) if j == i else "v"
        delay = draw(st.sampled_from(delays)) if delay is None else delay
        return f"{name}_{j}_{draw(st.integers(1, dims[j - 1]))}[-{delay!r}]"

    exprs = []
    for i in range(1, k + 1):
        rows = []
        for c in range(1, dims[i - 1] + 1):
            terms = [f"-{draw(st.floats(0.5, 3.0).map(lambda v: round(v, 3)))!r}*x_{i}_{c}"]
            for _ in range(draw(st.integers(0, 3))):
                fn = draw(st.sampled_from(["", "tanh", "sin", "cos"]))
                ref = f"{fn}({delayed(i)})" if fn else delayed(i)
                terms.append(f"{draw(_coef)!r}*{ref}" + draw(st.sampled_from(["", "^2"])))
            if input_dims[i - 1]:
                terms.append(f"{draw(_coef)!r}*u_{i}_{draw(st.integers(1, input_dims[i - 1]))}")
            if draw(st.booleans()):
                terms.append(f"{draw(_coef)!r}*sin(t)")
            if draw(st.integers(0, 9)) == 0:  # occasionally a run that escapes
                terms.append(f"{draw(st.floats(0.5, 3.0).map(lambda v: round(v, 3)))!r}*x_{i}_{c}^2")
            rows.append(" + ".join(terms))
        exprs.append(rows)
    if hazards:
        i = draw(st.integers(1, k))
        c = draw(st.integers(1, dims[i - 1]))
        ref = delayed(i, h if one_step else None)
        term = draw(st.sampled_from(_HAZARDS)) if draw(st.booleans()) else "{v}"
        exprs[i - 1][c - 1] += f" + {draw(_coef)!r}*{term.format(v=ref, x=f'x_{i}_{c}')}"
    hist = [draw(histories(d)) for d in dims]
    inputs = None
    if sum(input_dims) and draw(st.booleans()):
        inputs = [draw(input_signals(d)) for d in input_dims]
    return dsl_doc(exprs, delays, input_dims), hist, inputs


@st.composite
def dsl_networks(draw, h, hazards=False):
    """A random DSL network at step h with histories, and inputs or a
    feedback closure: (sys, hist, inputs)."""
    doc, hist, inputs = draw(dsl_documents(h, hazards))
    sys = parse_system(doc).system
    m = sys.total_input_dim
    if m and inputs is None and draw(st.booleans()):
        rho = draw(st.sampled_from([Linear(0.5), Linear(2.0), SaturatingRational(1.5, 2.0)]))
        sys = build_auxiliary_system(sys, rho, draw(input_signals(m)))
    return sys, hist, inputs


_steps = st.sampled_from([0.05, 0.1, 0.25])


def _horizons(h):
    return st.one_of(st.integers(0, 30).map(lambda n: n * h), st.floats(0.0, 4.0))


@st.composite
def dsl_cases(draw):
    """Random DSL networks with histories, inputs or a feedback closure,
    some reading a one-step delay or carrying a term that overflows,
    divides by zero or takes a root of a negative number."""
    h = draw(_steps)
    sys, hist, inputs = draw(dsl_networks(h, hazards=True))
    return sys, hist, inputs, draw(_horizons(h)), h


class TestStageGatherAgainstReference:
    @settings(max_examples=120, deadline=None)
    @given(dsl_cases())
    def test_bit_identical_to_reference_loop(self, case):
        sys, hist, inputs, T, h = case
        assert sys.expressions is not None
        same_as_reference(sys, hist, inputs, T, h)

    def test_blow_up_matches_reference(self):
        sys = dsl_system([["x_1^2 + 0.5*v_1[-0.1]"]], [0.1])
        hist = [HistoryFunction.constant([2.0])]
        blow_up, escape_time, _ = same_as_reference(sys, hist, None, 1.0, 0.01)
        assert blow_up and 0.3 < escape_time < 0.6
        blow_up, _, _ = same_as_reference(sys, hist, None, 1.0, 0.01, divergence_threshold=1e3)
        assert blow_up

    @pytest.mark.parametrize(
        "term, warning",
        [
            ("(1 + v_1[-0.01]^2)^1100", "overflow encountered in scalar power"),
            ("x_1^4", "overflow encountered in scalar power"),
            ("1e300*x_1*v_1[-0.01]*1e300", "overflow encountered in scalar multiply"),
            ("v_1[-0.01]/(x_1 - x_1)", "divide by zero encountered in scalar divide"),
            ("(0*v_1[-0.01])^-1", "divide by zero encountered in scalar power"),
            ("(v_1[-0.01] - 2.5)^1.5", None),
        ],
    )
    def test_float_errors_match_reference_and_its_warnings(self, term, warning):
        # A delay of one step: Z is gathered in blocks of one step.
        sys = dsl_system([[f"-x_1 + {term}"]], [0.01])
        hist = [HistoryFunction.constant([2.0])]
        result = same_as_reference(sys, hist, None, 1.0, 0.01)
        with np.errstate(invalid="ignore"):
            _, messages = recorded(lambda: simulate(sys, hist, None, 1.0, 0.01))
        if warning is None:
            assert result[0] is SimulationError and messages == []
        else:
            assert result[0] is True and messages and set(messages) == {warning}

    def test_repeated_powers_match_reference(self):
        # The network function takes each distinct power once per stage,
        # also across subsystems and inside another power's base.
        sys = dsl_system(
            [
                ["-x_1 + v_2[-0.1]^2/(1 + v_2[-0.1]^2) + 0.1*(1 + v_2[-0.1]^2)^1.5"],
                ["-2*x_2 + 0.5*v_1[-0.1]^4/(1 + v_1[-0.1]^4) + 0.2*v_2[-0.1]^2"],
            ],
            [0.1],
        )
        hist = [HistoryFunction.constant([0.7]), HistoryFunction.constant([-1.2])]
        blow_up, _, _ = same_as_reference(sys, hist, None, 2.0, 0.01)
        assert not blow_up
        # A stage that overflows is evaluated again on numpy scalars,
        # which warn once per occurrence of the power, as the oracle does.
        hist = [HistoryFunction.constant([2.0])]
        once = dsl_system([["-x_1 + 2*(1 + v_1[-0.01]^2)^1100"]], [0.01])
        _, once_messages = recorded(lambda: simulate(once, hist, None, 1.0, 0.01))
        sys = dsl_system([["-x_1 + (1 + v_1[-0.01]^2)^1100 + (1 + v_1[-0.01]^2)^1100"]], [0.01])
        result, messages = recorded(lambda: simulate(sys, hist, None, 1.0, 0.01))
        assert result[0] is True and once_messages and messages == 2 * once_messages
        same_as_reference(sys, hist, None, 1.0, 0.01)

    def test_overflow_inside_a_finite_value_gives_no_warning(self):
        # 1e300*x_1*1e300 overflows to inf and 1/inf is 0.0: the stage
        # value is finite, so the float evaluation stands and raises no
        # numpy warning, where the oracle's numpy scalars warn.
        sys = dsl_system([["-x_1 + 1/(1e300*x_1*1e300)"]], [0.01])
        hist = [HistoryFunction.constant([2.0])]
        with np.errstate(invalid="ignore"):
            ref, ref_messages = recorded(lambda: reference_simulate(sys, hist, None, 1.0, 0.01))
            result, messages = recorded(lambda: simulate(sys, hist, None, 1.0, 0.01))
        assert result == ref and ref[0] is False
        assert messages == [] and set(ref_messages) == {"overflow encountered in scalar multiply"}

    def test_nan_matches_reference(self):
        sys = dsl_system([["x_1^0.5 + v_1[-0.1]"]], [0.1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            err, message = same_as_reference(sys, [HistoryFunction.constant([-1.0])], None, 1.0, 0.01)
        assert err is SimulationError and message.startswith("NaN in right-hand side evaluation")

    def test_history_sampled_once_per_half_step(self):
        calls = Counter()

        def counted(i):
            def fn(t):
                calls[i] += 1
                return np.array([1.0 + 0.1 * i * t])

            return HistoryFunction.from_callable(fn, 1)

        exprs = [[f"-x_{i} + 0.3*v_{i % 3 + 1}[-0.5] + 0.2*v_{(i + 1) % 3 + 1}[-1.0]"] for i in (1, 2, 3)]
        sys = dsl_system(exprs, [0.5, 1.0])
        hist = [counted(i) for i in (1, 2, 3)]
        M = 100  # steps in the longest delay
        simulate(sys, hist, None, T=3.0, h=0.01)
        assert calls == {1: 2 * M + 1, 2: 2 * M + 1, 3: 2 * M + 1}
        calls.clear()
        reference_simulate(sys, hist, None, T=3.0, h=0.01)
        # The oracle calls every history function once per reference at
        # each of the two midpoint stages of every step whose delayed
        # midpoint lies in the history window: 50 steps for each of the
        # three 0.5 references, 100 for each of the three 1.0 ones.
        assert calls == {i: M + 1 + 2 * (3 * 50 + 3 * 100) for i in (1, 2, 3)}

    def test_block_length_is_capped(self):
        # The same 2,000 steps and the same 20,000-step history window,
        # reading four delays of 20,000 or more steps or four of 50 or
        # more: Z is gathered in blocks of at most _DENSE_BLOCK steps, so
        # the first run holds 512 rows of it at a time, not 2,000.
        h = 0.001
        long = [(20000 + i) * h for i in range(4)]
        short = [(50 + i) * h for i in range(4)]

        def peak(read):
            rhs = "-x_1 + " + " + ".join(f"0.1*v_1[-{d!r}]" for d in read)
            sys = dsl_system([[rhs]], long + short)
            tracemalloc.start()
            try:
                simulate(sys, [HistoryFunction.constant([1.0])], None, 2000 * h, h)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(long) < 1.75 * peak(short)

    def test_nonfinite_history_at_half_steps_is_bad_input(self):
        h = 0.1
        spiky = HistoryFunction.from_callable(
            lambda t: np.array([1.0 if abs(t / h - round(t / h)) < 0.25 else math.inf]), 1
        )
        sys = dsl_system([["-x_1 + v_1[-0.2]"]], [0.2])
        with pytest.raises(SimulationError, match="history function produced non-finite values"):
            simulate(sys, [spiky], None, 1.0, h)
        # The oracle reads it unchecked and reports a blow-up at t=0.
        traj = reference_simulate(sys, [spiky], None, 1.0, h)
        assert traj.blow_up and traj.escape_time == 0.0


def ring_union(deltas):
    """The delta-sweep union of the bundled ring: (sys, hist)."""
    docs = [smallgain.cli._sweep_doc(ring_config(), "delta", d) for d in deltas]
    hist = [HistoryFunction.constant([1.0 + 0.1 * i]) for i in range(3 * len(deltas))]
    return parse_system(smallgain.cli._union_doc(docs)).system, hist


def block_pair(feedback=False):
    """Two hand-built subsystems of dims 2 and 1 with an input each."""
    subs = [
        Subsystem(2, lambda t, x, z, u: np.array([-x[0] + 0.4 * np.sin(z[(2, 0.2)][0]) + u[0], -2.0 * x[1] + 0.1 * x[0]]),
                  references=((2, 0.2),), input_dim=1),
        Subsystem(1, lambda t, x, z, u: -x + 0.3 * z[(1, 0.5)][1] ** 2 + 0.5 * u, references=((1, 0.5),), input_dim=1),
    ]
    sys = build_interconnection(subs, [0.2, 0.5])
    if feedback:
        sys = build_auxiliary_system(sys, Linear(0.5), InputSignal.from_callable(lambda t: np.array([np.sin(t), 0.5]), 2))
    return sys


class TestFusedStep:
    """simulate takes every full step in one generated function; the
    stage-by-stage oracle gives the same bits, errors and warnings."""

    @pytest.mark.parametrize(
        "case",
        ["one_step_delay", "inputs", "feedback", "interconnection", "interconnection_feedback", "sweep_union"],
    )
    def test_fixed_networks_match_reference(self, case):
        h, T, hist, inputs = 0.01, 2.005, [HistoryFunction.constant([1.0])] * 3, None
        if case == "one_step_delay":
            # Every block is one step long.
            sys = parse_system(ring_config(delta=h)).system
        elif case in ("inputs", "feedback"):
            sys = dsl_system([["-x_1_1 + 0.5*tanh(v_2[-0.1]) + u_1", "-x_1_2 + u_1^2 - 0.1*x_1_2^2"], ["-x_2 + 0.2*v_1_2[-0.1]^2"]],
                             [0.1], input_dims=[1, 0])
            hist = [HistoryFunction.polynomial([[1.0, 0.5], [0.2]]), HistoryFunction.constant([0.3])]
            if case == "inputs":
                inputs = [InputSignal.from_callable(lambda t: np.array([np.cos(3.0 * t)]), 1), InputSignal.zero(0)]
            else:
                sys = build_auxiliary_system(sys, SaturatingRational(1.5, 2.0), InputSignal.constant([0.8]))
        elif case.startswith("interconnection"):
            sys = block_pair(feedback=case.endswith("feedback"))
            hist = [HistoryFunction.constant([1.0, -0.5]), HistoryFunction.constant([0.7])]
            if not case.endswith("feedback"):
                inputs = [InputSignal.constant([0.2]), InputSignal.piecewise_constant([0.0, 1.0], [[0.0], [1.0]])]
        else:
            sys, hist = ring_union([0.5, 1.0, 2.0])
        blow_up, _, arrays = same_as_reference(sys, hist, inputs, T, h)
        assert not blow_up and arrays[0][0] == (202,)

    @pytest.mark.parametrize(
        "term, error",
        [
            ("(2.25 - t)^0.5", "NaN in right-hand side evaluation (t=2.2"),
            ("sqrt(2.25 - t)", "math domain error in right-hand side evaluation (t=2.3"),
            ("exp(1e4*(t - 2.31))", "math range error in right-hand side evaluation (t=2.4"),
            ("(0*x_1 + t/2.26)^60000", None),
        ],
    )
    def test_errors_after_fused_steps_match_reference(self, term, error):
        # The term first fails at the last stage of step 22 or 23, in the
        # middle of a block of 10 steps.  The oracle's subsystem function
        # raises a math function's error itself; the network function
        # reports it at the stage time and state.
        sys = dsl_system([[f"-3*x_1 + 0.1*v_1[-1.0] + 0.001*{term}"]], [1.0])
        [sub] = sys.subsystems

        def rhs(t, x, z, u):
            try:
                return sub.rhs(t, x, z, u)
            except (ValueError, OverflowError) as exc:
                raise SimulationError(f"{exc} in right-hand side evaluation", t, x) from None

        oracle = replace(sys, subsystems=(replace(sub, rhs=rhs),))
        hist = [HistoryFunction.constant([1.0])]
        with np.errstate(invalid="ignore"):
            ref = recorded(lambda: reference_simulate(oracle, hist, None, 4.0, 0.1))
        assert recorded(lambda: simulate(sys, hist, None, 4.0, 0.1)) == ref
        (result, messages) = ref
        if error is None:
            assert result[:2] == (True, 22 * 0.1) and messages == ["overflow encountered in scalar power"]
        else:
            assert result[0] is SimulationError and result[1].startswith(error) and messages == []

    def test_only_block_starts_and_the_shortened_step_take_the_per_stage_code(self, monkeypatch):
        # The bundled ring gathers Z in blocks of 100 steps.  The fused
        # step evaluates stages inline and classifies nothing; _checked
        # classifies the first stage of each block, which the loop takes
        # to fill the midpoint rows, and the four stages and the state
        # update of the shortened final step.
        sys = ring_system()
        calls = Counter()
        checked = smallgain.sim._checked

        def counted(vec, t, x_ref, what="right-hand side evaluation"):
            calls[t, what] += 1
            return checked(vec, t, x_ref, what)

        monkeypatch.setattr(smallgain.sim, "_checked", counted)
        hist = [HistoryFunction.constant([1.0])] * 3
        starts = {(t, "right-hand side evaluation"): 1 for t in (0.0, 1.0, 2.0)}
        shortened = {(3.0, "right-hand side evaluation"): 4, (3.005, "state update"): 1}
        for T, want in ((3.0, starts), (3.005, {**starts, **shortened})):
            calls.clear()
            traj = simulate(sys, hist, None, T, 0.01)
            assert calls == want
            assert outcome(lambda: traj) == outcome(lambda: reference_simulate(sys, hist, None, T, 0.01))

    @pytest.mark.parametrize(
        "term, signal",
        [
            # The input overflows at the second stage of step 12, inside a
            # block of 10 steps, and the run blows up.
            ("0", lambda t: np.exp(1e5 * (t - 1.2))),
            # 0^(-1) raises on floats and is inf on numpy scalars, where
            # the stage's value is finite: every fused step is refused,
            # after its first stage's input call, and the run goes on.
            ("1/(1 + (0*v_1[-1.0])^(-1))", np.sin),
        ],
    )
    def test_a_refused_step_calls_each_input_once_per_stage(self, term, signal):
        sys = dsl_system([[f"-3*x_1 + 0.1*v_1[-1.0] + 0.001*u_1 + {term}"]], [1.0], input_dims=[1])
        hist = [HistoryFunction.constant([1.0])]

        def run(integrate):
            calls = []

            def logged(t):
                calls.append(t)
                return np.array([signal(t)])

            inputs = [InputSignal.from_callable(logged, 1)]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = outcome(lambda: integrate(sys, hist, inputs, 4.0, 0.1))
            return result, calls, [str(w.message) for w in caught]

        ref = run(reference_simulate)
        assert run(simulate) == ref
        assert ref[0][0] is (term == "0") and ref[2]


def _nan_child(h, m):
    """Raises NaN at the first stage: the root of the history -1."""
    return dsl_doc([["x_1^0.5 + v_1[-%r]" % (m * h)]], [m * h]), [HistoryFunction.constant([-1.0])], None


def _escaping_child(h, m):
    """Escapes near t = 0.4 (x' = x^2 from 2)."""
    return dsl_doc([["x_1^2 + 0.5*v_1[-%r]" % (m * h)]], [m * h]), [HistoryFunction.constant([2.0])], None


def _resting_child(h, m):
    """Stays at zero, so its final derivative is zero."""
    return dsl_doc([["-x_1 + 0.5*v_1[-%r]" % (m * h)]], [m * h]), [HistoryFunction.constant([0.0])], None


def _finite_only_in_own_window(sys, hist):
    """hist made non-finite before the child's own window [-theta, 0]."""
    edge = -sys.theta - 1e-9

    def guarded(fn):
        def read(t, g=fn.fn):
            if np.ndim(t) == 0:
                return g(t) if t >= edge else np.full(fn.dim, np.inf)
            return np.where((t >= edge)[:, None], g(t), np.inf)

        return replace(fn, fn=read)

    return tuple(guarded(fn) for fn in hist)


def sweep_child(doc, hist, inputs, T, h, outside=False):
    """The parsed config of a delta-sweep child that runs doc from hist
    with inputs; outside makes hist non-finite before its own window."""
    cfg = parse_system(doc)
    hist = _finite_only_in_own_window(cfg.system, hist) if outside else tuple(hist)
    return replace(cfg, history=hist, inputs=inputs and tuple(inputs), sim=SimParams(T, h))


_SPECIAL_CHILDREN = {"nan": _nan_child, "escape": _escaping_child, "rest": _resting_child}


@st.composite
def sweep_cases(draw):
    """Two or three delta-sweep children sharing T and h: random DSL
    documents (some with histories that are not finite outside their own
    window) and NaN, escaping and resting children: (docs, cfgs)."""
    h = draw(_steps)
    T = draw(_horizons(h))
    docs, cfgs = [], []
    for _ in range(draw(st.integers(2, 3))):
        kind = draw(st.sampled_from(["network", "network", "network", "outside", *_SPECIAL_CHILDREN]))
        if kind in _SPECIAL_CHILDREN:
            doc, hist, inputs = _SPECIAL_CHILDREN[kind](h, draw(st.integers(1, 6)))
        else:
            doc, hist, inputs = draw(dsl_documents(h))
        docs.append(doc)
        cfgs.append(sweep_child(doc, hist, inputs, T, h, outside=kind == "outside"))
    return docs, cfgs


def sweep_matches_own_runs(docs, cfgs):
    """Every child of a delta sweep gets exactly its own simulate outcome,
    each history is read only inside its child's window, and the sweep
    integrates once when every child's own run completes with a nonzero
    final derivative, and once more per child when one does not."""
    reads = [[] for _ in cfgs]

    def recorded(b, fn):
        def read(t):
            reads[b].extend(np.atleast_1d(t).tolist())
            return fn.fn(t)

        return replace(fn, fn=read)

    cfgs = [replace(cfg, history=tuple(recorded(b, fn) for fn in cfg.history)) for b, cfg in enumerate(cfgs)]
    runs = []

    def own_run(cfg):
        runs.append(simulate(cfg.system, cfg.history, cfg.inputs, cfg.sim.T, cfg.sim.h))
        return runs[-1]

    own = [outcome(lambda c=c: own_run(c)) for c in cfgs]
    for read in reads:
        read.clear()
    calls = []

    def counted(*args):
        calls.append(args)
        return simulate(*args)

    smallgain.cli.simulate = counted
    try:
        take = _sweep_trajectories("delta", docs, cfgs)
        for i, (cfg, mine) in enumerate(zip(cfgs, own)):
            taken = []
            assert outcome(lambda: taken.append(take(i)) or taken[0]) == mine
            if taken:
                traj = taken[0]
                assert traj.history == cfg.history and traj.dims == cfg.system.dims
                assert traj.delays == cfg.system.delays and len(traj.inputs) == cfg.system.k
    finally:
        smallgain.cli.simulate = simulate
    for cfg, read in zip(cfgs, reads):
        assert all(-cfg.system.theta - 1e-9 <= t <= 0.0 for t in read)
    resting = [not traj.derivs[-1].any() for traj in runs]
    if len(runs) < len(cfgs) or any(traj.blow_up for traj in runs) or all(resting):
        assert len(calls) == 1 + len(cfgs)
    elif not any(resting):
        assert len(calls) == 1
    return own


class TestDeltaSweepAgainstOwnRuns:
    @settings(max_examples=80, deadline=None)
    @given(sweep_cases())
    def test_children_match_their_own_runs(self, case):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sweep_matches_own_runs(*case)

    def test_different_delays_and_dims(self):
        a = dsl_doc([["-x_1_1 + 0.5*v_2[-0.3]", "-2*x_1_2"], ["-x_2 + 0.2*v_1_2[-0.1]"]], [0.1, 0.3])
        b = dsl_doc([["-x_1 + 0.4*sin(v_1[-0.7])"]], [0.7])
        hist_a = [HistoryFunction.polynomial([[1.0, 0.5], [0.2]]), HistoryFunction.constant([0.3])]
        hist_b = [HistoryFunction.table([-0.7, 0.0], [[1.0], [-1.0]])]
        for T in (2.0, 1.23, 0.05):
            cfgs = [sweep_child(a, hist_a, None, T, 0.1), sweep_child(b, hist_b, None, T, 0.1, outside=True)]
            own = sweep_matches_own_runs([a, b], cfgs)
            assert all(len(o) == 3 and not o[0] for o in own)

    def test_inputs(self):
        doc = dsl_doc([["-x_1 + u_1_2 + 0.3*v_1[-0.2]"]], [0.2], input_dims=[2])
        hist = [HistoryFunction.constant([1.0])]
        signals = [InputSignal.piecewise_constant([0.0, 0.45], [[0.0, 1.0], [0.0, -2.0]])]
        cfgs = [sweep_child(doc, hist, signals, 1.0, 0.1), sweep_child(doc, hist, None, 1.0, 0.1)]
        own = sweep_matches_own_runs([doc, doc], cfgs)
        assert own[0] != own[1]

    def test_escape_and_nan_fall_back(self):
        ring = dsl_doc([["-x_1 + 0.5*v_1[-0.2]"]], [0.2])
        children = [(ring, [HistoryFunction.constant([1.0])], None), _escaping_child(0.01, 5), _nan_child(0.01, 3)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfgs = [sweep_child(*child, 1.0, 0.01) for child in children]
            own = sweep_matches_own_runs([doc for doc, _, _ in children], cfgs)
        assert not own[0][0] and own[1][0] and own[2][0] is SimulationError

    def test_resting_children_fall_back(self):
        children = [_resting_child(0.1, 2), _resting_child(0.1, 3)]
        cfgs = [sweep_child(*child, 1.05, 0.1) for child in children]
        own = sweep_matches_own_runs([doc for doc, _, _ in children], cfgs)
        assert all(len(o) == 3 and not o[0] for o in own)


_history_values = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308]),
)


@st.composite
def array_histories(draw):
    """A constant, polynomial or table history, a guard start lo, and
    times to read it at: inside and outside the table's range, at lo,
    and at -0.0 and 0.0."""
    dim = draw(st.integers(1, 3))
    row = st.lists(_history_values, min_size=dim, max_size=dim)
    kind = draw(st.sampled_from(["constant", "polynomial", "table"]))
    if kind == "constant":
        fn = HistoryFunction.constant(draw(row))
    elif kind == "polynomial":
        coeffs = st.lists(_history_values, min_size=1, max_size=4)
        fn = HistoryFunction.polynomial(draw(st.lists(coeffs, min_size=dim, max_size=dim)))
    else:
        times = sorted(draw(st.lists(st.floats(-3.0, 0.0), min_size=2, max_size=5, unique=True)))
        fn = HistoryFunction.table(times, [draw(row) for _ in times])
    lo = draw(st.floats(-3.0, 0.0))
    times = draw(st.lists(st.floats(-4.0, 0.5), max_size=12)) + [lo, -0.0, 0.0]
    return fn, lo, np.array(draw(st.permutations(times)))


class TestHistoryArrays:
    @settings(max_examples=200, deadline=None)
    @given(array_histories())
    def test_array_read_equals_per_time_rows(self, case):
        fn, lo, times = case
        with np.errstate(all="ignore"):  # a polynomial may overflow
            for read in (fn, smallgain.cli._guarded(fn, lo)):
                rows = np.array([read(t) for t in times.tolist()]).reshape(times.size, read.dim)
                got = read.many(times)
                assert got.shape == rows.shape and got.tobytes() == rows.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(dsl_cases())
    def test_simulate_matches_per_time_reads(self, case):
        sys, hist, inputs, T, h = case
        per_time = [HistoryFunction.from_callable(fn.fn, fn.dim) for fn in hist]
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("ignore")
            runs = [outcome(lambda fns=fns: simulate(sys, fns, inputs, T, h)) for fns in (hist, per_time)]
            assert runs[0] == runs[1]
            if len(runs[0]) == 3 and not runs[0][0]:
                tables = [simulate(sys, fns, inputs, T, h).norm_table for fns in (hist, per_time)]
                assert [a.tobytes() for a in tables[0]] == [a.tobytes() for a in tables[1]]


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

    @pytest.mark.parametrize(
        "bad, delay, h",
        [
            (HistoryFunction.constant([math.inf]), 0.2, 0.1),
            # inf only between the table's times -0.2 and -0.1: at the
            # midpoint -0.15, not at a node.
            (HistoryFunction.table([-0.2, -0.15, -0.1, 0.0], [[1.0], [math.inf], [1.0], [1.0]]), 0.2, 0.1),
            # 1e308 * t overflows at the node t = -2.
            (HistoryFunction.polynomial([[0.0, 1e308]]), 2.0, 0.5),
        ],
        ids=["constant", "table_midpoint", "polynomial_overflow"],
    )
    def test_nonfinite_array_history_raises_as_per_time(self, bad, delay, h):
        sys = dsl_system([[f"-x_1 + v_1[-{delay!r}]"]], [delay])
        per_time = HistoryFunction.from_callable(bad.fn, bad.dim)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got, want = (outcome(lambda fn=fn: simulate(sys, [fn], None, 1.0, h)) for fn in (bad, per_time))
        assert got == want and got[0] is SimulationError
        assert got[1].startswith("history function produced non-finite values (t=")

    def test_wrong_array_shape_raises(self):
        # Right at one time; flat, not one column, on an array of times.
        flat = HistoryFunction(dim=1, fn=lambda t: 1.0 if np.ndim(t) == 0 else np.ones(len(t)), kind="constant")
        sys = dsl_system([["-x_1 + v_1[-0.2]"]], [0.2])
        with pytest.raises(SimulationError, match=r"history function returned shape \(3,\), expected \(3, 1\) \(t=-0.2\)"):
            simulate(sys, [flat], None, 1.0, 0.1)


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


def reference_to_csv(traj, fileobj):
    """Trajectory.to_csv one value at a time: the oracle of its one-pass writer."""
    fileobj.write("t," + ",".join(f"x_{c}" for c in range(1, traj.total_dim + 1)) + "\n")
    for t, row in zip(traj.grid_times(), traj.grid_states()):
        fileobj.write(repr(float(t)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def stored_trajectory(dims, t_nodes, states, hist_times, hist_states):
    """A trajectory holding the given values as they are."""
    states = np.asarray(states, dtype=float)
    return Trajectory(
        dims=tuple(dims),
        delays=(),
        h=0.1,
        t_nodes=np.asarray(t_nodes, dtype=float),
        states=states,
        derivs=np.zeros_like(states),
        hist_times=np.asarray(hist_times, dtype=float),
        hist_states=np.asarray(hist_states, dtype=float),
        history=(),
    )


_csv_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308]),
)


@st.composite
def csv_trajectories(draw):
    """Trajectories of arbitrary finite values, history segment included."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    nodes, hist = draw(st.integers(1, 5)), draw(st.integers(1, 4))

    def values(count, width=None):
        row = st.lists(_csv_values, min_size=width, max_size=width) if width else _csv_values
        return draw(st.lists(row, min_size=count, max_size=count))

    n = sum(dims)
    return stored_trajectory(dims, values(nodes), values(nodes, n), values(hist), values(hist, n))


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

    @settings(max_examples=100, deadline=None)
    @given(csv_trajectories())
    def test_csv_bytes_match_per_value_writer(self, traj):
        import io

        per_value = io.StringIO()
        reference_to_csv(traj, per_value)
        block = smallgain.sim._DENSE_BLOCK
        for rows_per_block in (block, 2):  # one block, and several
            smallgain.sim._DENSE_BLOCK = rows_per_block
            try:
                blocked = io.StringIO()
                traj.to_csv(blocked)
            finally:
                smallgain.sim._DENSE_BLOCK = block
            assert blocked.getvalue() == per_value.getvalue()

    def test_csv_special_values(self):
        import io

        traj = stored_trajectory(
            [1, 2], [0.0, 0.1], [[-0.0, 5e-324, 1e308], [-2.5e-310, -1e308, 0.1]], [-0.2, -0.1, 0.0], [[1.0, -0.0, 2.0]] * 3
        )
        buf = io.StringIO()
        traj.to_csv(buf)
        assert buf.getvalue() == (
            "t,x_1,x_2,x_3\n-0.2,1.0,-0.0,2.0\n-0.1,1.0,-0.0,2.0\n"
            "0.0,-0.0,5e-324,1e+308\n0.1,-2.5e-310,-1e+308,0.1\n"
        )

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
