"""End-to-end acceptance checks for the whole toolkit.

Each test pins one externally meaningful behavior: the bundled ring's
closed-form cycle gain and its verdict, enumeration counts against a
brute-force oracle, hand-derived elimination formulas, fixed-point
soundness on random linear networks, trajectory bounds with an
independent scalar integrator as the oracle, integrator convergence
order, the violation exit path, and byte-level run determinism.
"""

import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import subprocess_env
from smallgain.checks import check_gs, sup_norm
from smallgain.cli import main
from smallgain.gains import (
    Compose,
    GridSpec,
    Linear,
    Power,
    SaturatingRational,
    VerdictStatus,
    less_than_identity,
)
from smallgain.graph import (
    build_gain_digraph,
    enumerate_simple_cycles,
    linear_cycle_products,
)
from smallgain.reduction import (
    closed_loop_input_gains,
    combined_initial_constant,
    global_gs_sigma,
)
from smallgain.ring import ring_gains, ring_system
from smallgain.sim import (
    HistoryFunction,
    InputSignal,
    Subsystem,
    build_interconnection,
    simulate,
)


def ring_cycle_gain():
    g = ring_gains()
    return Compose(g.edges[(1, 2)], Compose(g.edges[(2, 3)], g.edges[(3, 1)]))


class TestRingCycleGain:
    def test_composition_matches_closed_form(self):
        gamma = ring_cycle_gain()
        for s in np.geomspace(1e-6, 1e6, 50):
            s = float(s)
            expected = s**12 / (2.0 * (1.0 + s**12))
            assert gamma(s) == pytest.approx(expected, rel=1e-12)

    def test_verdict_below_identity_everywhere(self):
        gamma = ring_cycle_gain()
        verdict = less_than_identity(gamma)
        assert verdict.status is VerdictStatus.VERIFIED_ON_GRID
        assert verdict.margin > 0.0
        pts = np.geomspace(1e-8, 1e8, 4096)
        assert np.all(gamma(pts) < pts)


class TestCycleEnumeration:
    @staticmethod
    def brute_force(k, edges):
        found = []
        for r in range(2, k + 1):
            for nodes in itertools.combinations(range(1, k + 1), r):
                first = nodes[0]
                for perm in itertools.permutations(nodes[1:]):
                    cyc = (first,) + perm
                    if all(
                        (cyc[i], cyc[(i + 1) % r]) in edges for i in range(r)
                    ):
                        found.append(cyc)
        return sorted(found, key=lambda c: (len(c), c))

    @pytest.mark.parametrize("k, expected", [(3, 5), (4, 20), (5, 84)])
    def test_complete_digraph_counts(self, k, expected):
        edges = {(i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j}
        cycles = enumerate_simple_cycles({pair: Linear(0.1) for pair in edges}, k)
        assert len(cycles) == expected
        assert cycles == self.brute_force(k, edges)


class TestEliminationFormulas:
    def test_three_node_hand_formulas(self):
        """Eliminating the third node of a generic three-node network must
        reproduce the closed-loop input gains assembled by hand from the
        substitution rules (coupling transfer, two-node solve, and
        back-substitution)."""
        edges = {
            (1, 2): Linear(0.3),
            (2, 1): Linear(0.4),
            (1, 3): SaturatingRational(0.5, 1.0),
            (3, 1): Linear(0.6),
            (2, 3): Linear(0.2),
            (3, 2): SaturatingRational(0.9, 2.0),
        }
        inputs = {1: Linear(1.2), 2: SaturatingRational(2.0, 1.0), 3: Power(0.5)}
        closed = closed_loop_input_gains(build_gain_digraph(3, edges, input_gains=inputs))
        assert closed.order == (3,)

        g12 = lambda s: 0.3 * s
        g21 = lambda s: 0.4 * s
        g13 = lambda s: 0.5 * s / (1.0 + s)
        g31 = lambda s: 0.6 * s
        g23 = lambda s: 0.2 * s
        g32 = lambda s: 0.9 * s**2 / (1.0 + s**2)
        g1u = lambda s: 1.2 * s
        g2u = lambda s: 2.0 * s / (1.0 + s)
        g3u = lambda s: s**0.5
        t12 = lambda s: max(g12(s), g13(g32(s)))
        t21 = lambda s: max(g21(s), g23(g31(s)))
        t1u = lambda s: max(g1u(s), g13(g3u(s)))
        t2u = lambda s: max(g2u(s), g23(g3u(s)))
        hat1 = lambda s: max(t12(t2u(s)), t1u(s))
        hat2 = lambda s: max(t21(t1u(s)), t2u(s))
        hat3 = lambda s: max(g31(hat1(s)), g32(hat2(s)), g3u(s))

        for s in np.geomspace(1e-3, 1e3, 20):
            s = float(s)
            assert closed.input_gains[1](s) == pytest.approx(hat1(s), rel=1e-12)
            assert closed.input_gains[2](s) == pytest.approx(hat2(s), rel=1e-12)
            assert closed.input_gains[3](s) == pytest.approx(hat3(s), rel=1e-12)


class TestFixedPointSoundness:
    @staticmethod
    def fixed_point(k, coeffs, input_coeffs, s, sweeps=500):
        x = {i: 0.0 for i in range(1, k + 1)}
        for _ in range(sweeps):
            changed = False
            for i in range(1, k + 1):
                best = input_coeffs.get(i, 0.0) * s
                for j in range(1, k + 1):
                    if (i, j) in coeffs:
                        best = max(best, coeffs[(i, j)] * x[j])
                if best > x[i] * (1.0 + 1e-15):
                    x[i] = best
                    changed = True
            if not changed:
                break
        return x

    def test_hundred_random_linear_networks(self):
        """The eliminated input gains must dominate the iterated
        max-linear fixed point, which is the smallest solution of the
        gain inequalities and therefore a lower bound on any valid
        closed-loop description."""
        rng = np.random.default_rng(20250817)
        grid = GridSpec(n_points=512, refinement_depth=2)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            coeffs = {}
            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    if i != j and rng.random() < 0.5:
                        coeffs[(i, j)] = float(rng.uniform(0.1, 1.5))
            gains = {pair: Linear(a) for pair, a in coeffs.items()}
            cycles = enumerate_simple_cycles(gains, k)
            if cycles:
                products = linear_cycle_products(build_gain_digraph(k, gains), cycles)
                worst = max(products.values())
                if worst >= 0.85:
                    # f < 1 scales an r-cycle product by f^r <= f^2, so
                    # sqrt(0.8 / worst) caps every product at 0.8 < 0.9.
                    f = (0.8 / worst) ** 0.5
                    coeffs = {pair: a * f for pair, a in coeffs.items()}
                    gains = {pair: Linear(a) for pair, a in coeffs.items()}
            input_coeffs = {i: float(rng.uniform(0.1, 2.0)) for i in range(1, k + 1)}
            g = build_gain_digraph(
                k, gains, input_gains={i: Linear(a) for i, a in input_coeffs.items()}
            )
            closed = closed_loop_input_gains(g, grid)
            for s in (0.1, 1.0, 10.0):
                fp = self.fixed_point(k, coeffs, input_coeffs, s)
                for i in range(1, k + 1):
                    hat = closed.input_gains[i](s)
                    assert hat >= fp[i] - 1e-9 * max(1.0, fp[i])


def ring_oracle_final_state(T: float, h: float, delta: float = 1.0):
    """Independent integrator for the bundled ring, sharing no code with
    the package: scalar Python floats, per-node classical RK4 under the
    method of steps.  Delayed stage values at half steps use linear
    interpolation between stored nodes, which at h = 1e-4 contributes
    error far below the comparison tolerance."""
    m = round(delta / h)
    n_steps = round(T / h)
    x1 = [1.0]
    x2 = [1.0]
    x3 = [1.0]

    def past(arr, idx):
        # Fractional node index; everything at t <= 0 is identically 1.
        if idx <= 0.0:
            return 1.0
        i = int(idx)
        frac = idx - i
        if frac == 0.0:
            return arr[i]
        return arr[i] * (1.0 - frac) + arr[i + 1] * frac

    half = 0.5 * h
    sixth = h / 6.0
    for n in range(n_steps):
        a1 = x1[n]
        a2 = x2[n]
        a3 = x3[n]
        base = n - m
        w2a = past(x2, base)
        w2b = past(x2, base + 0.5)
        w2c = past(x2, base + 1.0)
        w3a = past(x3, base)
        w3b = past(x3, base + 0.5)
        w3c = past(x3, base + 1.0)
        w1a = past(x1, base)
        w1b = past(x1, base + 0.5)
        w1c = past(x1, base + 1.0)

        ca = w2a * w2a / (1.0 + w2a * w2a)
        cb = w2b * w2b / (1.0 + w2b * w2b)
        cc = w2c * w2c / (1.0 + w2c * w2c)
        k1 = -3.0 * a1 + ca
        k2 = -3.0 * (a1 + half * k1) + cb
        k3 = -3.0 * (a1 + half * k2) + cb
        k4 = -3.0 * (a1 + h * k3) + cc
        x1.append(a1 + sixth * (k1 + 2.0 * (k2 + k3) + k4))

        ca = w3a * w3a * w3a
        cb = w3b * w3b * w3b
        cc = w3c * w3c * w3c
        k1 = -1.5 * a2 + ca
        k2 = -1.5 * (a2 + half * k1) + cb
        k3 = -1.5 * (a2 + half * k2) + cb
        k4 = -1.5 * (a2 + h * k3) + cc
        x2.append(a2 + sixth * (k1 + 2.0 * (k2 + k3) + k4))

        ca = w1a * w1a
        cb = w1b * w1b
        cc = w1c * w1c
        k1 = -2.0 * a3 + ca
        k2 = -2.0 * (a3 + half * k1) + cb
        k3 = -2.0 * (a3 + half * k2) + cb
        k4 = -2.0 * (a3 + h * k3) + cc
        x3.append(a3 + sixth * (k1 + 2.0 * (k2 + k3) + k4))

    return x1[-1], x2[-1], x3[-1]


class TestRingTrajectory:
    def test_gs_bound_tail_decay_and_oracle_state(self):
        g = ring_gains()
        hist = [HistoryFunction.constant([1.0])] * 3
        traj = simulate(ring_system(1.0), hist, None, T=20.0, h=1e-2)
        assert not traj.blow_up

        # Transient bound from the constant-channel elimination.
        closed = closed_loop_input_gains(g)
        c = combined_initial_constant(g, {1: 1.0, 2: 1.0, 3: 1.0})
        assert c == pytest.approx(7.0)
        for i in (1, 2, 3):
            assert sup_norm(traj, subsystem=i) <= closed.sigmas[i](c)
        sigma = global_gs_sigma(g, closed)
        assert sup_norm(traj) <= sigma(1.0)

        # Tail supremum over the final fifth of the horizon.
        assert sup_norm(traj, (16.0, 20.0)) < 1e-3

        # Final state against the independent fine-step integrator.
        oracle = ring_oracle_final_state(T=20.0, h=1e-4)
        for i in range(3):
            assert traj.states[-1, i] == pytest.approx(oracle[i], abs=1e-5)


class TestIntegratorOrder:
    def test_fourth_order_convergence(self):
        def final_error(h):
            sub = Subsystem(dim=1, rhs=lambda t, x, z, u: -3.0 * x)
            sys = build_interconnection([sub], [])
            traj = simulate(sys, [HistoryFunction.constant([1.0])], None, T=1.0, h=h)
            return abs(traj.states[-1, 0] - math.exp(-3.0))

        errors = [final_error(h) for h in (1e-2, 5e-3, 2.5e-3, 1.25e-3)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 < coarse / fine < 20.0
        assert final_error(1e-3) < 1e-9


class TestTransientBoundFixture:
    def test_forced_scalar_node_stays_under_bound(self):
        g = build_gain_digraph(
            1, {}, input_gains={1: Linear(0.5)}, gs_gains={1: Linear(7.0)}
        )
        closed = closed_loop_input_gains(g)
        sub = Subsystem(dim=1, rhs=lambda t, x, z, u: -3.0 * x + u[0], input_dim=1)
        sys = build_interconnection([sub], [])
        hist = [HistoryFunction.constant([1.0])]
        u = [InputSignal.constant([0.3])]
        traj = simulate(sys, hist, u, T=10.0, h=0.01)

        report = check_gs(traj, g, closed)
        assert report.holds
        bound = max(7.0 * 1.0, 0.5 * 0.3)
        assert report.node_bounds[1] == pytest.approx(bound)
        assert report.margin == pytest.approx(bound - 1.0, abs=1e-9)
        # Pointwise, not just via the report: every grid value clears it.
        assert np.all(np.abs(traj.grid_states()) < bound)


class TestViolationGate:
    def test_analyze_exits_2_with_genuine_witness(self, tmp_path):
        doc = {
            "k": 2,
            "delays": [],
            "subsystems": [{"rhs": ["-x_1"]}, {"rhs": ["-x_2"]}],
            "gains": {
                "edges": {"1,2": "1.5*s", "2,1": "1.5*s"},
                "sigma": {"1": "2*s", "2": "2*s"},
            },
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main(["analyze", str(cfg), "--out", str(out)])
        assert code == 2
        reports = json.loads((out / "cycle_reports.json").read_text())
        assert reports["status"] == "violated"
        verdict = reports["cycles"][0]["verdict"]
        s_star = verdict["witness"]
        assert s_star is not None and s_star > 0.0
        assert verdict["value"] == pytest.approx(2.25 * s_star, rel=1e-9)
        assert verdict["value"] >= s_star


class TestRunDeterminism:
    def test_bundled_example_verifies_identically(self, tmp_path):
        results = []
        for name in ("first", "second"):
            d = tmp_path / name
            d.mkdir()
            gen = subprocess.run(
                [sys.executable, "-m", "smallgain", "example", "--out", "config.json"],
                cwd=d,
                env=subprocess_env(),
                capture_output=True,
                text=True,
            )
            assert gen.returncode == 0, gen.stderr
            run = subprocess.run(
                [sys.executable, "-m", "smallgain", "verify", "config.json",
                 "--out", "result", "--seed", "42"],
                cwd=d,
                env=subprocess_env(),
                capture_output=True,
                text=True,
            )
            assert run.returncode == 0, run.stderr
            results.append(d / "result")
        names = sorted(p.name for p in results[0].iterdir())
        assert names == sorted(p.name for p in results[1].iterdir())
        assert names == [
            "bound_reports.json",
            "closed_loop_gains.json",
            "cycle_reports.json",
            "manifest.json",
            "trajectory.csv",
            "trajectory_meta.json",
        ]
        for name in names:
            a = (results[0] / name).read_bytes()
            b = (results[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
