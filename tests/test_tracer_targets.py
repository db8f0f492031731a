"""The functions and methods that bench/tracer.py patches exist in the
package, so a rename in src/ fails here rather than in a traced benchmark
run.  The tracer's tables are read from its source, not imported."""

import ast
import importlib
from pathlib import Path

import pytest

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
