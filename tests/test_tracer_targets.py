"""The functions and methods that bench/tracer.py patches exist in the
package, so a rename in src/ fails here rather than in a traced benchmark
run.  The tracer's tables are read from its source, not imported."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import smallgain.graph as graph
from smallgain.dsl import parse_system
from smallgain.gains import Linear
from smallgain.ring import ring_config
from smallgain.sim import HistoryFunction, Subsystem, build_interconnection, simulate

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _table(name: str) -> tuple:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no {name}")


@pytest.mark.parametrize("module, attr, span", _table("FUNCTIONS"))
def test_function_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr} ({span})"


@pytest.mark.parametrize("module, cls, meth, span", _table("METHODS"))
def test_method_resolves(module, cls, meth, span):
    owner = getattr(importlib.import_module(module), cls, None)
    assert owner is not None and callable(vars(owner).get(meth)), f"{module}.{cls}.{meth} ({span})"


@pytest.mark.parametrize(
    "history",
    [HistoryFunction.constant([1.0]), HistoryFunction.polynomial([[1.0, 0.5]]),
     HistoryFunction.table([-0.3, 0.0], [[1.0], [0.2]])],
    ids=lambda f: f.kind,
)
def test_counted_history_is_called(history):
    # The tracer counts history reads by replacing fn with a counter; the
    # array reads must go through it, or sim.hist_calls would read 0.
    calls = []

    def counter(*args):
        calls.append(args)
        return history.fn(*args)

    counted = dataclasses.replace(history, fn=counter)
    sub = Subsystem(dim=1, rhs=lambda t, x, z, u: -z[(1, 0.2)], references=((1, 0.2),))
    traj = simulate(build_interconnection([sub], [0.2]), [counted], None, 1.0, 0.1)
    assert calls
    calls.clear()
    traj.interpolate_many([-0.15, 0.5])
    assert calls


def test_counted_subsystems_keep_the_fused_step():
    # The tracer counts right-hand side calls by replacing every
    # Subsystem.rhs of a parsed system with a counter (_post_dsl_parse).
    # The spec still compiles its own expressions, so the run keeps its
    # bits and the fused step takes every full step: the counter reads 0.
    cfg = parse_system(ring_config())
    calls = []

    def counter(rhs):
        def counted(*args):
            calls.append(args)
            return rhs(*args)

        return counted

    subsystems = tuple(dataclasses.replace(s, rhs=counter(s.rhs)) for s in cfg.system.subsystems)
    counted = dataclasses.replace(cfg.system, subsystems=subsystems)
    runs = [simulate(system, cfg.history, None, cfg.sim.T, cfg.sim.h) for system in (cfg.system, counted)]
    assert calls == []
    assert [(a.t_nodes.tobytes(), a.states.tobytes(), a.derivs.tobytes()) for a in runs] == [
        (b.t_nodes.tobytes(), b.states.tobytes(), b.derivs.tobytes()) for b in reversed(runs)
    ]


def test_check_takes_its_cycles_from_the_traced_enumeration(monkeypatch):
    # The tracer's graph.cycles counts the cycles that the module
    # attribute graph.enumerate_simple_cycles returns, so the check must
    # call it, once, and check every cycle it returns.
    returned = []
    enumerate_cycles = graph.enumerate_simple_cycles

    def counted(*args, **kwargs):
        returned.append(enumerate_cycles(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(graph, "enumerate_simple_cycles", counted)
    g = graph.build_gain_digraph(6, {(i, j): Linear(0.1) for i in range(1, 7) for j in range(1, 7) if i != j})
    check = graph.check_cyclic_small_gain(g)
    assert len(returned) == 1 and len(returned[0]) == 409
    assert check.cycles is returned[0]
    assert [r.cycle for r in check.reports] == returned[0]
