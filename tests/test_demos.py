"""Every narrative demo, and the README's Python quick start, runs to
completion from a clean working directory."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


def run_python(args, cwd):
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=subprocess_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    run_python([str(demo)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    m = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S)
    assert m is not None, "README has no Python quick start"
    code = m.group(1)
    # The summary the README promises in its last comment is what prints.
    promised = re.search(r'print\(report\.summary\(\)\)\s+# "(.*)"', code).group(1)
    assert run_python(["-c", code], tmp_path) == promised + "\n"
