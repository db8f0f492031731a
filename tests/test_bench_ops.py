"""One full-size op of each benchmarked workload, run twice through
``smallgain.cli.main`` and judged by the benchmark's own oracle.

The oracle checks the exit code, the cycle count, the verdicts, the gain
tables and the final state against its references, and on the second
run that every artifact but the manifest is byte-identical to the
first.  ``bench/oracle.py`` and ``bench/workloads.py`` are imported
without writing bytecode next to them.
"""

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from smallgain.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("oracle"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved


@pytest.mark.parametrize("name", ["ring_sweep", "dense6"])
def test_full_size_op_passes_the_oracle_twice(bench, name, tmp_path):
    oracle, workloads = bench
    workload = workloads.build(name, 1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.doc, indent=2) + "\n", encoding="utf-8")
    reference = oracle.Reference(workload)
    for run in range(2):
        out = tmp_path / f"op{run}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", str(config), "--out", str(out), *workload.args])
        assert reference.check(out, code) == []
    assert reference.digests
