"""config_schema.json is checked by smallgain.dsl itself, without a JSON
Schema library.  jsonschema's Draft 2020-12 validator is the oracle: on
documents mutated from the bundled ring and the benchmark's configs, both
must reject the same documents with the same paths and messages."""

import copy
import importlib.util
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import subprocess_env
from smallgain import dsl
from smallgain.dsl import ConfigError, parse_system
from smallgain.ring import ring_config

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workload_docs() -> list[dict]:
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return [module.build(name, 0).doc for name in ("ring_sweep", "dense6")]


BASES = [ring_config(), *_workload_docs()]


def _subschemas(schema: dict):
    """schema's (keyword, argument) pairs, and those of every subschema."""
    for keyword, arg in schema.items():
        yield keyword, arg
        if keyword in ("properties", "patternProperties"):
            subs = list(arg.values())
        elif keyword == "oneOf":
            subs = arg
        else:
            subs = [arg] if keyword in ("items", "additionalProperties") and isinstance(arg, dict) else []
        for sub in subs:
            yield from _subschemas(sub)


# Extra keys are the schema's own property names, so that a key lands
# where it is valid elsewhere, and a few that match no property.
_NAMES = sorted(
    {name for keyword, arg in _subschemas(dsl._schema()) if keyword == "properties" for name in arg}
    | {"x", "1", "1,2", "1-2"}
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70),
    st.sampled_from([0.0, 1.0, 2.0, 64.0, -1.0, 0.5, 1e-9]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["s", "constant", "zero", "table", "gs", "1,2", ""]),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_NAMES), inner, max_size=3),
    max_leaves=5,
)


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, item in items:
        yield from _paths(item, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_docs(draw):
    """A base document with one to three values replaced, keys or items
    deleted, or keys or items added."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        node = _at(doc, path)
        if action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(_NAMES))] = draw(_values)
        elif action == "add" and isinstance(node, list):
            node.append(draw(_values))
        elif action == "replace" and path:
            _at(doc, path[:-1])[path[-1]] = draw(_values)
        elif action == "delete" and path:
            del _at(doc, path[:-1])[path[-1]]
    return doc


@settings(max_examples=300, deadline=None)
@given(mutated_docs())
def test_validator_agrees_with_jsonschema(doc):
    oracle = jsonschema.Draft202012Validator(dsl._schema()).iter_errors(doc)
    expected = [(tuple(e.absolute_path), e.message) for e in sorted(oracle, key=lambda e: list(e.absolute_path))]
    assert sorted(dsl._schema_errors(doc, dsl._schema()), key=lambda e: e[0]) == expected
    if expected:
        path, message = expected[0]
        with pytest.raises(ConfigError) as info:
            parse_system(doc)
        assert str(info.value) == f"{dsl._where(path)}: {message}"


def test_base_documents_are_valid():
    for doc in BASES:
        assert list(dsl._schema_errors(doc, dsl._schema())) == []


def test_every_schema_keyword_is_implemented():
    # _schema_errors raises on a keyword it does not know, whatever the value.
    for keyword, arg in _subschemas(dsl._schema()):
        list(dsl._schema_errors(None, {keyword: arg}))
    with pytest.raises(ValueError, match="unsupported 'multipleOf'"):
        list(dsl._schema_errors(3, {"multipleOf": 2}))


def test_paths_render_keys_that_are_not_identifiers_in_brackets():
    assert dsl._where(()) == "$"
    assert dsl._where(("simulation", "history", 0, "type")) == "$.simulation.history[0].type"
    assert dsl._where(("gains", "edges", "1,2")) == "$.gains.edges['1,2']"
    assert dsl._where(("gains", "sigma", "5")) == "$.gains.sigma['5']"


def test_parse_system_does_not_import_jsonschema():
    code = (
        "import sys, smallgain\n"
        "smallgain.parse_system(smallgain.ring_config())\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"
