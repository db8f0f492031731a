"""Text grammars and JSON configuration parsing.

The dynamics-grammar test generates random expression trees, renders
them to source text, and evaluates the original tree directly with
plain-float recursion; the compiled callable must agree.  The generator
is the oracle, so the compiler is never checked against itself.
"""

import json
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import gain_trees
from smallgain.dsl import (
    CheckParams,
    ConfigError,
    GainParseError,
    ParsedConfig,
    RhsParseError,
    SimParams,
    _numpy_pow,
    compile_rhs,
    compile_time_expression,
    load_config,
    parse_gain,
    parse_system,
)
from smallgain.gains import (
    Compose,
    Identity,
    Linear,
    Max,
    Power,
    SaturatingRational,
)
from smallgain.graph import build_gain_digraph
from smallgain.ring import ring_config, ring_gains, ring_system
from smallgain.sim import HistoryFunction, Subsystem, build_interconnection, simulate


class TestGainGrammar:
    def test_atoms(self):
        assert parse_gain("s") == Identity()
        assert parse_gain("0.5*s") == Linear(0.5)
        assert parse_gain("s^2") == Power(2.0)
        assert parse_gain("s^2/(2*(1+s^2))") == SaturatingRational(0.5, 2.0)
        assert parse_gain("3*s^2/(1+s^2)") == SaturatingRational(3.0, 2.0)

    def test_operators(self):
        assert parse_gain("max(0.5*s, s^2)") == Max(Linear(0.5), Power(2.0))
        assert parse_gain("compose(2*s, s^3)") == Compose(Linear(2.0), Power(3.0))
        # Infix "." composes left-of-dot after right-of-dot.
        assert parse_gain("2*s . s^2")(3.0) == pytest.approx(18.0)
        assert parse_gain("s^2 . 2*s . s^3")(1.0) == pytest.approx(4.0)

    def test_whitespace_and_parens(self):
        assert parse_gain("  ( 0.5 * s )  ") == Linear(0.5)
        assert parse_gain("((s^2))") == Power(2.0)

    @settings(max_examples=150, deadline=None)
    @given(gain_trees())
    def test_round_trip(self, g):
        assert parse_gain(g.to_expr()) == g

    @pytest.mark.parametrize(
        "text",
        [
            "3",
            "s + 1",
            "s + s",
            "s*s",
            "2*s*s^2",
            "-0.5*s",
            "0*s",
            "s^0",
            "s^-2",
            "s^s",
            "s/(2+s)",
            "s^2/(1+s^3)",
            "2*s^2/(3+s^2)",
            "max(s)",
            "compose(s)",
            "max(s, s, s)",
            "(s",
            "s)",
            "s .",
            "",
            "   ",
            "foo(s, s)",
            "q",
            "s $ 2",
            "-s",
            "s - 1",
            "t",
            "x_1",
            "s[-1.0]",
            "exp(s)",
            "1e999*s",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(GainParseError):
            parse_gain(text)

    def test_error_positions(self):
        with pytest.raises(GainParseError) as exc_info:
            parse_gain("max(s, q)")
        err = exc_info.value
        assert (err.line, err.col) == (1, 8)
        assert str(err).startswith("line 1, column 8:")
        assert err.bare_message
        with pytest.raises(GainParseError) as exc_info:
            parse_gain("s $ 2")
        assert exc_info.value.col == 3

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            parse_gain(2.5)


# ---------------------------------------------------------------------------
# Random dynamics expressions: generator doubles as the oracle.

FUNCS = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "tanh": math.tanh,
    "abs": abs,
    "sqrt": math.sqrt,
}

# Fixed two-node context: subsystem 1 (dim 3, 2 inputs) is compiled,
# subsystem 2 has dim 2, and two delays are declared.
DIMS = [3, 2]
INPUT_DIMS = [2, 0]
DELAYS = [0.5, 1.0]


def gen_leaf(rng):
    roll = rng.random()
    if roll < 0.25:
        return ("num", round(rng.uniform(0.1, 5.0), 6))
    if roll < 0.35:
        return ("t",)
    if roll < 0.55:
        return ("x", 1, rng.randint(1, 3), None)
    if roll < 0.7:
        return ("x", 1, rng.randint(1, 3), rng.choice(DELAYS))
    if roll < 0.85:
        j = rng.randint(1, 2)
        return ("v", j, rng.randint(1, DIMS[j - 1]), rng.choice(DELAYS))
    return ("u", 1, rng.randint(1, 2), None)


def gen_small(rng):
    """Bounded-magnitude subtree, safe as a function or power argument."""
    roll = rng.random()
    if roll < 0.5:
        return gen_leaf(rng)
    if roll < 0.7:
        return ("neg", gen_leaf(rng))
    return (rng.choice(["+", "-"]), gen_leaf(rng), gen_leaf(rng))


def gen_expr(rng, depth):
    if depth == 0:
        return gen_leaf(rng)
    roll = rng.random()
    if roll < 0.15:
        name = rng.choice(list(FUNCS))
        arg = gen_small(rng)
        if name == "sqrt":
            arg = ("call", "abs", arg)
        return ("call", name, arg)
    if roll < 0.25:
        return ("neg", gen_expr(rng, depth - 1))
    if roll < 0.35:
        return ("^", gen_small(rng), ("num", float(rng.choice([2, 3]))))
    if roll < 0.45:
        return ("/", gen_expr(rng, depth - 1), ("num", round(rng.uniform(0.5, 5.0), 6)))
    op = rng.choice(["+", "-", "*"])
    return (op, gen_expr(rng, depth - 1), gen_expr(rng, depth - 1))


def render(node) -> str:
    kind = node[0]
    if kind == "num":
        return repr(node[1])
    if kind == "t":
        return "t"
    if kind in ("x", "v", "u"):
        _, j, c, delay = node
        text = f"{kind}_{j}_{c}"
        if delay is not None:
            text += f"[-{delay!r}]"
        return text
    if kind == "neg":
        return f"(-{render(node[1])})"
    if kind == "call":
        return f"{node[1]}({render(node[2])})"
    op, left, right = node
    return f"({render(left)} {op} {render(right)})"


def direct_eval(node, t, x, z, u) -> float:
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "t":
        return t
    if kind == "x":
        _, j, c, delay = node
        return x[c - 1] if delay is None else z[(j, delay)][c - 1]
    if kind == "v":
        _, j, c, delay = node
        return z[(j, delay)][c - 1]
    if kind == "u":
        return u[node[2] - 1]
    if kind == "neg":
        return -direct_eval(node[1], t, x, z, u)
    if kind == "call":
        return FUNCS[node[1]](direct_eval(node[2], t, x, z, u))
    op, left, right = node
    a = direct_eval(left, t, x, z, u)
    b = direct_eval(right, t, x, z, u)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    if op == "^":
        return a ** b
    raise AssertionError(op)


def collect_refs(node, acc):
    kind = node[0]
    if kind in ("x", "v") and node[3] is not None:
        acc.add((node[1], node[3]))
    for child in node[1:]:
        if isinstance(child, tuple):
            collect_refs(child, acc)


class TestRhsCompiler:
    def test_randomized_against_direct_evaluation(self):
        rng = random.Random(987123)
        for _ in range(200):
            trees = [gen_expr(rng, rng.randint(1, 3)) for _ in range(3)]
            exprs = [render(tree) for tree in trees]
            rhs, refs = compile_rhs(exprs, 1, DIMS, INPUT_DIMS, DELAYS)
            expected_refs = set()
            for tree in trees:
                collect_refs(tree, expected_refs)
            assert refs == tuple(sorted(expected_refs))
            for _ in range(3):
                t = rng.uniform(0.0, 10.0)
                x = [rng.uniform(-2.0, 2.0) for _ in range(3)]
                z = {
                    (j, theta): [rng.uniform(-2.0, 2.0) for _ in range(DIMS[j - 1])]
                    for j in (1, 2)
                    for theta in DELAYS
                }
                u = [rng.uniform(-2.0, 2.0) for _ in range(2)]
                got = rhs(t, np.array(x), {k: np.array(v) for k, v in z.items()}, np.array(u))
                want = [direct_eval(tree, t, x, z, u) for tree in trees]
                assert got.shape == (3,)
                for have, expect in zip(got, want):
                    assert math.isfinite(expect)
                    assert abs(have - expect) <= 1e-12 * max(1.0, abs(expect))

    def test_bare_names_for_scalar_subsystems(self):
        rhs, refs = compile_rhs(["-x_1 + v_2[-0.5]"], 1, [1, 1], [0, 0], [0.5])
        out = rhs(0.0, np.array([2.0]), {(2, 0.5): np.array([3.0])}, np.zeros(0))
        assert out[0] == pytest.approx(1.0)
        assert refs == ((2, 0.5),)

    def test_own_delayed_state(self):
        rhs, refs = compile_rhs(["x_1[-1.0]"], 1, [1], [0], [1.0])
        assert refs == ((1, 1.0),)
        assert rhs(0.0, np.array([5.0]), {(1, 1.0): np.array([7.0])}, np.zeros(0))[0] == 7.0

    def test_expression_count_must_match_dim(self):
        with pytest.raises(ValueError):
            compile_rhs(["-x_1_1"], 1, [2], [0], [])

    @pytest.mark.parametrize(
        "expr, fragment",
        [
            ("x_2_1", "use v_2"),
            ("v_2", "needs an explicit delay"),
            ("v_2_1[-0.3]", "not declared"),
            ("v_5_1[-0.5]", "out of range"),
            ("x_1_9", "out of range"),
            ("x_1", "dimension 3"),
            ("u_2_1", "subsystem 1 can only read"),
            ("u_1_1[-0.5]", "cannot carry a delay"),
            ("q_1", "unknown identifier"),
            ("floor(x_1_1)", "unknown identifier"),
            ("x_1_1 +", "expected an expression"),
            ("(x_1_1", r"expected '\)'"),
            ("x_1_1)", "trailing input"),
            ("x_1_1[-w]", "delay literal"),
            ("x_1_1 . x_1_2", "composes gains"),
            ("max(x_1_1, x_1_2)", "unknown identifier"),
            ("exp(x_1_1, x_1_2)", "takes one argument"),
            ("t[-0.5]", "t cannot carry a delay"),
            ("s", "unknown identifier"),
            ("-3*x_1 + 1e999*v_2[-1.0]", "beyond the float range"),
            ("v_2[-1e999]", "beyond the float range"),
        ],
    )
    def test_rejects(self, expr, fragment):
        exprs = [expr, "-x_1_2", "-x_1_3"]
        with pytest.raises(RhsParseError, match=fragment):
            compile_rhs(exprs, 1, DIMS, INPUT_DIMS, DELAYS)

    def test_input_requires_declared_channels(self):
        with pytest.raises(RhsParseError, match="input_dim"):
            compile_rhs(["u_2", "-x_2_2"], 2, DIMS, INPUT_DIMS, DELAYS)

    def test_error_position_spans_lines(self):
        exprs = ["x_1_1 +\nq_2", "-x_1_2", "-x_1_3"]
        with pytest.raises(RhsParseError) as exc_info:
            compile_rhs(exprs, 1, DIMS, INPUT_DIMS, DELAYS)
        assert (exc_info.value.line, exc_info.value.col) == (2, 1)

    def test_time_expression(self):
        fn = compile_time_expression(["3*t + 1", "sin(t)"])
        out = fn(2.0)
        assert out[0] == pytest.approx(7.0)
        assert out[1] == pytest.approx(math.sin(2.0))

    def test_power_of_python_floats_is_numpy_nan(self):
        # No complex number, and no warning: numpy's NaN, as on numpy scalars.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(compile_time_expression(["(1 + t)^0.5"])(-2.0)[0])
            rhs, _ = compile_rhs(["-3*x_1 + (-8)^(1/3)"], 1, [1], [0], [])
            assert math.isnan(rhs(0.0, np.array([1.0]), {}, np.zeros(0))[0])
        with np.errstate(invalid="ignore"):
            assert math.isnan(_numpy_pow(np.float64(-8.0), 1 / 3))
        # Numpy scalar operands keep numpy's bits and type.
        for a, b in [(np.float64(2.0), 0.5), (1.7, np.float64(2.3)), (np.float64(3.1), np.float64(-1.2))]:
            assert type(_numpy_pow(a, b)) is np.float64 and _numpy_pow(a, b) == a ** b
        assert _numpy_pow(2.0, 0.5) == 2.0 ** 0.5

    def test_time_expression_rejects_state(self):
        for expr in ("x_1", "v_1[-0.5]", "u_1"):
            with pytest.raises(RhsParseError, match="only t and numeric"):
                compile_time_expression([expr])


# ---------------------------------------------------------------------------
# One parser reads both grammars; each back end rejects what the other
# language allows.


def compile_dynamics(expr):
    return compile_rhs([expr, "-x_1_2", "-x_1_3"], 1, DIMS, INPUT_DIMS, DELAYS)


def compile_time(expr):
    return compile_time_expression([expr])


@pytest.mark.parametrize(
    "compile_fn, text, error_cls, line, col, fragment",
    [
        (parse_gain, "-s", GainParseError, 1, 1, "negative"),
        (parse_gain, "s - 1", GainParseError, 1, 3, "negative"),
        (parse_gain, "t", GainParseError, 1, 1, "unknown symbol 't'"),
        (parse_gain, "x_1", GainParseError, 1, 1, "unknown symbol 'x_1'"),
        (parse_gain, "s[-1.0]", GainParseError, 1, 1, "delay suffix"),
        (parse_gain, "exp(s)", GainParseError, 1, 1, "unknown symbol 'exp'"),
        (parse_gain, "max(s)", GainParseError, 1, 1, "max takes two gains"),
        (parse_gain, "max(s, s, s)", GainParseError, 1, 1, "max takes two gains"),
        (parse_gain, "compose + s", GainParseError, 1, 1, "compose takes two gains"),
        (parse_gain, "s(2)", GainParseError, 1, 1, "variable, not a function"),
        # Unknown names are found before the shape of the gain is checked.
        (parse_gain, "s/(2+s) . q", GainParseError, 1, 11, "unknown symbol 'q'"),
        (parse_gain, "max(s,\n  s^2 - s)", GainParseError, 2, 7, "negative"),
        (compile_dynamics, "x_1_1 . x_1_2", RhsParseError, 1, 7, "composes gains"),
        (compile_dynamics, "max(x_1_1, x_1_2)", RhsParseError, 1, 1, "unknown identifier 'max'"),
        (compile_dynamics, "exp(x_1_1, x_1_2)", RhsParseError, 1, 1, "exp takes one argument, got 2"),
        (compile_dynamics, "t[-0.5]", RhsParseError, 1, 1, "t cannot carry a delay"),
        (compile_dynamics, "s", RhsParseError, 1, 1, "unknown identifier 's'"),
        (compile_dynamics, "1 + exp", RhsParseError, 1, 5, "call it as exp(...)"),
        (compile_dynamics, "t(1)", RhsParseError, 1, 1, "variable, not a function"),
        (compile_dynamics, "x_1_1 +\n  cos(t) . t", RhsParseError, 2, 10, "composes gains"),
        # A literal beyond float range would become inf.
        (parse_gain, "1e999*s", GainParseError, 1, 1, "'1e999' is beyond the float range"),
        (compile_dynamics, "-3*x_1 + 1e999*v_2[-1.0]", RhsParseError, 1, 10, "beyond the float range"),
        (compile_dynamics, "v_2[-1e999]", RhsParseError, 1, 6, "beyond the float range"),
        (compile_time, "1e999*t", RhsParseError, 1, 1, "beyond the float range"),
    ],
)
def test_cross_grammar_rejections(compile_fn, text, error_cls, line, col, fragment):
    with pytest.raises(error_cls) as exc_info:
        compile_fn(text)
    err = exc_info.value
    assert type(err) is error_cls
    assert (err.line, err.col) == (line, col)
    assert fragment in err.bare_message


# ---------------------------------------------------------------------------
# JSON configuration


def base_doc() -> dict:
    return {
        "k": 2,
        "delays": [0.5],
        "subsystems": [
            {"rhs": ["-x_1 + 0.25*v_2[-0.5]"]},
            {"rhs": ["-x_2 + 0.25*v_1[-0.5]"], "input_dim": 1},
        ],
        "gains": {
            "edges": {"1,2": "0.5*s", "2,1": "0.5*s"},
            "input": {"2": "2*s"},
            "sigma": {"1": "2*s", "2": "2*s"},
        },
    }


def hand_built_ring_system(delta: float = 1.0):
    """The bundled ring written as closures: the oracle of its config."""

    def rhs1(t, x, z, u):
        w = z[(2, delta)][0]
        return np.array([-3.0 * x[0] + w * w / (1.0 + w * w)])

    def rhs2(t, x, z, u):
        w = z[(3, delta)][0]
        return np.array([-1.5 * x[0] + w * w * w])

    def rhs3(t, x, z, u):
        w = z[(1, delta)][0]
        return np.array([-2.0 * x[0] + w * w])

    subsystems = [
        Subsystem(dim=1, rhs=rhs1, references=((2, delta),), name="node1"),
        Subsystem(dim=1, rhs=rhs2, references=((3, delta),), name="node2"),
        Subsystem(dim=1, rhs=rhs3, references=((1, delta),), name="node3"),
    ]
    return build_interconnection(subsystems, [delta])


def hand_built_ring_gains():
    return build_gain_digraph(
        k=3,
        gains={
            (1, 2): SaturatingRational(0.5, 2.0),
            (2, 3): Power(3.0),
            (3, 1): Power(2.0),
        },
        gs_gains={1: Linear(7.0), 2: Linear(4.0), 3: Linear(3.0)},
    )


class TestParseSystem:
    def test_ring_config_matches_hand_built_system(self):
        cfg = parse_system(ring_config())
        assert isinstance(cfg, ParsedConfig)
        assert cfg.k == 3
        assert cfg.name == "delayed-ring-3"
        assert cfg.digraph == hand_built_ring_gains()
        assert ring_gains() == hand_built_ring_gains()
        assert cfg.sim == SimParams(T=20.0, h=0.01)
        assert cfg.inputs is None
        assert cfg.checks.eps == pytest.approx(1e-3)

        # The oracle hand-codes its closures, so integrating both is a
        # genuine two-route comparison of the compiled dynamics.
        hist = [HistoryFunction.constant([1.0])] * 3
        a = simulate(ring_system(), hist, None, T=3.0, h=0.01)
        b = simulate(hand_built_ring_system(), hist, None, T=3.0, h=0.01)
        np.testing.assert_allclose(a.states, b.states, atol=1e-9)
        with pytest.raises(ValueError, match="delta must be positive"):
            ring_system(0.0)

    def test_ring_network_source_is_pinned(self):
        # Trajectories keep their bits only while the emitted source does.
        import smallgain.sim as sim

        source = sim._network_source(ring_system().expressions)
        assert source.splitlines() == [
            "def _f(t, x, Z, u):",
            "    try:",
            "        _p0 = _pow(Z[1], 2.0)",
            "        _p1 = _pow(Z[2], 3.0)",
            "        _p2 = _pow(Z[0], 2.0)",
            "        dx = [(((-3.0) * x[0]) + (_p0 / (1.0 + _p0))), (((-1.5) * x[1]) + _p1), (((-2.0) * x[2]) + _p2)]",
            "    except _FLOAT_ERRORS:",
            "        return _fallback(t, x, Z, u)",
            "    return dx if _isfinite(_sum(dx)) else _fallback(t, x, Z, u)",
        ]

    def test_parse_system_compiles_no_step(self, monkeypatch):
        # simulate writes out its RK4 step on the first run of a system: a
        # delta sweep parses four networks and integrates only their union.
        # Parsing a document with constant histories compiles nothing; the
        # first run compiles the network function and the step.
        import builtins

        import smallgain.sim as sim

        emitted, compiled = [], []
        step_source, compile_source = sim._step_source, builtins.compile

        def recorded(*args):
            emitted.append(step_source(*args))
            return emitted[-1]

        def counted(source, filename, *args, **kwargs):
            compiled.append(filename)
            return compile_source(source, filename, *args, **kwargs)

        monkeypatch.setattr(sim, "_step_source", recorded)
        monkeypatch.setattr(builtins, "compile", counted)
        cfg = parse_system(ring_config())
        assert {f.kind for f in cfg.history} == {"constant"}
        assert emitted == [] and compiled == []
        for _ in range(2):
            simulate(cfg.system, cfg.history, None, T=0.1, h=0.01)
        assert len(emitted) == 1
        assert compiled == ["<network rhs>", "<rk4 step>"]

    def test_ring_step_source_is_pinned(self):
        # Trajectories keep their bits only while the fused step keeps the
        # operations of the stage-by-stage code.
        import smallgain.sim as sim

        system = ring_system()
        source = sim._step_source(system.dims, False, system.expressions)
        assert source.splitlines() == [
            "def _step(t, h, x, Z0, Zm, Z1, k1, u_at, step, completed):",
            "    [x0, x1, x2] = x",
            "    mid = h / 2.0",
            "    t2 = t + mid",
            "    t4 = t + h",
            "    try:",
            "        if k1 is None:",
            "            _p0 = _pow(Z0[1], 2.0)",
            "            _p1 = _pow(Z0[2], 3.0)",
            "            _p2 = _pow(Z0[0], 2.0)",
            "            a0 = (((-3.0) * x0) + (_p0 / (1.0 + _p0)))",
            "            a1 = (((-1.5) * x1) + _p1)",
            "            a2 = (((-2.0) * x2) + _p2)",
            "        else:",
            "            [a0, a1, a2] = k1",
            "        s0 = x0 + mid * a0",
            "        s1 = x1 + mid * a1",
            "        s2 = x2 + mid * a2",
            "        _p0 = _pow(Zm[1], 2.0)",
            "        _p1 = _pow(Zm[2], 3.0)",
            "        _p2 = _pow(Zm[0], 2.0)",
            "        b0 = (((-3.0) * s0) + (_p0 / (1.0 + _p0)))",
            "        b1 = (((-1.5) * s1) + _p1)",
            "        b2 = (((-2.0) * s2) + _p2)",
            "        s0 = x0 + mid * b0",
            "        s1 = x1 + mid * b1",
            "        s2 = x2 + mid * b2",
            "        c0 = (((-3.0) * s0) + (_p0 / (1.0 + _p0)))",
            "        c1 = (((-1.5) * s1) + _p1)",
            "        c2 = (((-2.0) * s2) + _p2)",
            "        s0 = x0 + h * c0",
            "        s1 = x1 + h * c1",
            "        s2 = x2 + h * c2",
            "        _p0 = _pow(Z1[1], 2.0)",
            "        _p1 = _pow(Z1[2], 3.0)",
            "        _p2 = _pow(Z1[0], 2.0)",
            "        d0 = (((-3.0) * s0) + (_p0 / (1.0 + _p0)))",
            "        d1 = (((-1.5) * s1) + _p1)",
            "        d2 = (((-2.0) * s2) + _p2)",
            "        w = h / 6.0",
            "        y0 = x0 + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0)",
            "        y1 = x1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1)",
            "        y2 = x2 + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2)",
            "    except _FLOAT_ERRORS:",
            "        return None",
            "    if not _isfinite(y0 + y1 + y2): return None",
            "    return [a0, a1, a2], [y0, y1, y2], _sqrt(_max(y0 * y0, y1 * y1, y2 * y2))",
        ]

    def test_network_expressions_say_which_powers_read_the_state(self):
        # A power that reads x or u, itself or through a power in it,
        # differs between the two middle stages; one over t, Z and
        # constants does not.
        doc = base_doc()
        doc["subsystems"][0]["rhs"] = ["-x_1 + v_2[-0.5]^2 + (1 + v_2[-0.5]^2)^1.5 + (x_1 + t^2)^3"]
        doc["subsystems"][1]["rhs"] = ["-x_2 + (t + u_2^2)^0.5"]
        system = parse_system(doc).system
        assert system.expressions.bindings == (
            ("_p0", "_pow({Z}[0], 2.0)", False),
            ("_p1", "_pow((1.0 + _p0), 1.5)", False),
            ("_p2", "_pow({t}, 2.0)", False),
            ("_p3", "_pow(({x[0]} + _p2), 3.0)", True),
            ("_p4", "_pow(u[0], 2.0)", True),
            ("_p5", "_pow(({t} + _p4), 0.5)", True),
        )
        assert system.expressions.pieces == ("((((-{x[0]}) + _p0) + _p1) + _p3)", "((-{x[1]}) + _p5)")
        # The expressions are tuples, so a parsed spec stays hashable.
        assert hash(replace(system)) == hash(system)

    def test_network_takes_each_distinct_power_once(self):
        import smallgain.sim as sim

        doc = base_doc()
        doc["subsystems"][0]["rhs"] = ["-x_1 + v_2[-0.5]^2/(1 + v_2[-0.5]^2) + (1 + v_2[-0.5]^2)^1.5"]
        doc["subsystems"][1]["rhs"] = ["-x_2 + v_2[-0.5]^2"]
        system = parse_system(doc).system
        lines = sim._network_source(system.expressions).splitlines()
        assert lines[2:5] == [
            "        _p0 = _pow(Z[0], 2.0)",
            "        _p1 = _pow((1.0 + _p0), 1.5)",
            "        dx = [(((-x[0]) + (_p0 / (1.0 + _p0))) + _p1), ((-x[1]) + _p0)]",
        ]
        z = 0.8
        assert system.rhs(0.0, [1.0, 2.0], [z], []) == [-1.0 + z**2 / (1.0 + z**2) + (1.0 + z**2) ** 1.5, -2.0 + z**2]

    def test_subsystem_rhs_is_compiled_on_first_call(self, monkeypatch):
        import smallgain.dsl as dsl

        compiled = []
        vector_function = dsl._vector_function

        def counted(name, *rest):
            compiled.append(name)
            return vector_function(name, *rest)

        monkeypatch.setattr(dsl, "_vector_function", counted)
        cfg = parse_system(base_doc())
        # The network function evaluates on floats; a stage that gives inf
        # or NaN is evaluated again through the subsystem functions.
        assert compiled == []
        rhs = cfg.system.subsystems[0].rhs
        for x1 in (1.0, 3.0):
            out = rhs(0.0, np.array([x1]), {(2, 0.5): np.array([2.0])}, np.zeros(0))
            assert out.tolist() == [-x1 + 0.5]
        assert compiled == ["_rhs"]
        assert cfg.system.rhs(0.0, [-np.inf, 0.0], [2.0, 2.0], [0.0]) == [np.inf, 0.5]
        assert compiled == ["_rhs", "_rhs"]

    def test_json_text_accepted(self):
        cfg = parse_system(json.dumps(ring_config()))
        assert cfg.k == 3
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_system("{not json")
        with pytest.raises(ConfigError, match="root must be"):
            parse_system(json.dumps([1, 2]))

    def test_defaults_without_simulation_section(self):
        doc = base_doc()
        cfg = parse_system(doc)
        assert cfg.sim is None
        assert cfg.history is None
        assert cfg.inputs is None
        assert cfg.name is None
        assert cfg.checks == CheckParams()

    def test_schema_violations_carry_paths(self):
        doc = base_doc()
        del doc["k"]
        with pytest.raises(ConfigError, match="'k' is a required property"):
            parse_system(doc)

        doc = base_doc()
        doc["k"] = "two"
        with pytest.raises(ConfigError, match=r"\$\.k"):
            parse_system(doc)

        doc = base_doc()
        doc["unexpected"] = 1
        with pytest.raises(ConfigError, match="unexpected"):
            parse_system(doc)

        doc = base_doc()
        doc["gains"]["edges"]["1-2"] = "s"
        with pytest.raises(ConfigError, match=r"\$\.gains\.edges"):
            parse_system(doc)

        # Schema errors and semantic errors render one path style.
        doc = base_doc()
        doc["gains"]["edges"]["1,2"] = 5
        with pytest.raises(ConfigError, match=r"^\$\.gains\.edges\['1,2'\]: 5 is not of type 'string'$"):
            parse_system(doc)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("k",), 2),
            (("subsystems", 0, "dim"), 1),
            (("subsystems", 1, "input_dim"), 1),
            (("checks", "grid", "n_points"), 64),
            (("checks", "grid", "refinement_depth"), 2),
        ],
    )
    def test_integral_floats_read_as_integers(self, path, value):
        # JSON Schema counts 3.0 as an integer, so the schema accepts it.
        def parsed(v):
            doc = base_doc()
            doc["checks"] = {"grid": {}}
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = v
            cfg = parse_system(doc)
            subs = [(s.dim, s.input_dim, s.references, s.name) for s in cfg.system.subsystems]
            # repr tells 2 from 2.0.
            return repr((cfg.k, subs, cfg.system.delays, cfg.digraph, cfg.checks))

        assert parsed(float(value)) == parsed(value)

    def test_semantic_validation(self):
        doc = base_doc()
        doc["k"] = 3
        with pytest.raises(ConfigError, match="k is 3 but 2 subsystems"):
            parse_system(doc)

        doc = base_doc()
        doc["delays"] = [0.5, 0.5]
        with pytest.raises(ConfigError, match="distinct"):
            parse_system(doc)

        doc = base_doc()
        doc["subsystems"][0]["dim"] = 2
        with pytest.raises(ConfigError, match=r"\$\.subsystems\[0\]"):
            parse_system(doc)

        doc = base_doc()
        doc["subsystems"][0]["rhs"] = ["-x_1 + v_2[-0.3]"]
        with pytest.raises(ConfigError, match="not declared"):
            parse_system(doc)

    def test_gain_validation(self):
        doc = base_doc()
        doc["gains"]["edges"]["0,1"] = "s"
        with pytest.raises(ConfigError, match="indices must lie in 1..2"):
            parse_system(doc)

        doc = base_doc()
        doc["gains"]["edges"]["1,1"] = "s"
        with pytest.raises(ConfigError, match="self gains"):
            parse_system(doc)

        doc = base_doc()
        doc["gains"]["edges"]["1,2"] = "s + 1"
        with pytest.raises(ConfigError, match=r"\$\.gains\.edges\['1,2'\]"):
            parse_system(doc)

        doc = base_doc()
        doc["gains"]["sigma"]["5"] = "s"
        with pytest.raises(ConfigError, match=r"\$\.gains\.sigma\['5'\]"):
            parse_system(doc)

    def test_history_entries(self):
        doc = base_doc()
        doc["simulation"] = {
            "T": 1.0,
            "h": 0.05,
            "history": [
                {"type": "polynomial", "coeffs": [[1.0, 0.5]]},
                {"type": "expression", "exprs": ["2 + sin(t)"]},
            ],
        }
        cfg = parse_system(doc)
        assert cfg.history[0](-1.0)[0] == pytest.approx(0.5)
        assert cfg.history[1](-0.5)[0] == pytest.approx(2.0 + math.sin(-0.5))

        doc["simulation"]["history"] = [[1.0, 2.0], [1.0]]
        with pytest.raises(ConfigError, match=r"\$\.simulation\.history\[0\]"):
            parse_system(doc)

        doc["simulation"]["history"] = [[1.0]]
        with pytest.raises(ConfigError, match="expected 2 entries"):
            parse_system(doc)

        doc["simulation"]["history"] = [
            {"type": "expression", "exprs": ["x_1"]},
            [1.0],
        ]
        with pytest.raises(ConfigError, match="only t and numeric"):
            parse_system(doc)

    def test_input_entries(self):
        doc = base_doc()
        doc["simulation"] = {
            "T": 1.0,
            "h": 0.05,
            "history": [[1.0], [1.0]],
            "inputs": [None, {"type": "piecewise", "times": [0.0, 0.5], "values": [[1.0], [2.0]]}],
        }
        cfg = parse_system(doc)
        assert cfg.inputs[0].kind == "zero"
        assert cfg.inputs[1](0.75)[0] == pytest.approx(2.0)

        doc["simulation"]["inputs"] = [{"type": "constant", "values": [1.0]}, None]
        with pytest.raises(ConfigError, match="no input channels"):
            parse_system(doc)

    def test_checks_section(self):
        doc = base_doc()
        doc["checks"] = {
            "grid": {"n_points": 512, "refinement_depth": 2},
            "eps": 0.01,
            "tail_fraction": 0.25,
            "ag_atol": 0.005,
            "run": ["gs", "ag"],
        }
        cfg = parse_system(doc)
        assert cfg.checks.grid.n_points == 512
        assert cfg.checks.grid.refinement_depth == 2
        assert cfg.checks.grid.s_min == CheckParams().grid.s_min
        assert cfg.checks.eps == pytest.approx(0.01)
        assert cfg.checks.run == ("gs", "ag")

        doc["checks"] = {"run": ["xyz"]}
        with pytest.raises(ConfigError):
            parse_system(doc)

    def test_load_config(self, tmp_path):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(ring_config()))
        cfg = load_config(path)
        assert cfg.k == 3
        assert cfg.digraph == hand_built_ring_gains()
        with pytest.raises(ConfigError, match="configuration file not found"):
            load_config(tmp_path / "absent.json")
