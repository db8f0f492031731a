"""Output oracle: decides whether one ``smallgain verify`` op was correct.

An op fails when any of these hold:

* its exit code differs from the expected one (0: every workload is
  generated so that the small-gain check verifies and GS, AG and GAS hold);
* the small-gain status or the cycle count differs from the reference;
* any GS/AG/GAS ``holds`` differs from the reference (all true);
* the closed-loop gain tables or the final trajectory state leave the
  tolerances below around the references of ``workloads.Model``;
* its artifacts are not byte-identical to those of the first op of the
  run.  ``manifest.json`` is excluded: it records the per-op ``out`` path.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import GAIN_TABLE_SAMPLES, Workload

EXPECTED_EXIT = 0
EXPECTED_CHECKS = {"gs": True, "ag": True, "gas": True}

# Reordering the same floating-point operations moves results by a few
# ulps; a wrong delay index, stage or elimination term moves them by many
# orders more.  The final states are small (1e-13 to 1e-5), hence atol.
SIGMA_RTOL = 1e-9
STATE_RTOL = 1e-8
STATE_ATOL = 1e-15


class Reference:
    """Expected outputs of every sub-run of a workload, computed once."""

    def __init__(self, workload: Workload):
        self.runs = {
            sub: {
                "cycles": model.cycle_count(),
                "sigma": model.sigma_tables(),
                "final": model.final_state(),
                "T": model.T,
                "k": model.k,
            }
            for sub, model in workload.runs.items()
        }
        self.digests: dict[str, str] | None = None

    def check(self, out: Path, code: int) -> list[str]:
        """Problems with one op's exit code and artifacts (empty: correct)."""
        problems = []
        if code != EXPECTED_EXIT:
            problems.append(f"exit code {code}, expected {EXPECTED_EXIT}")
        if len(self.runs) > 1:
            problems += self._check_sweep(out)
        for sub, ref in self.runs.items():
            try:
                problems += [f"{sub or '.'}: {p}" for p in _check_run(out / sub, ref)]
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"{sub or '.'}: unreadable artifacts: {exc!r}")
        digests = artifact_digests(out)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(
                set(digests) ^ set(self.digests)
                | {p for p in digests if self.digests.get(p) != digests[p]}
            )
            problems.append(f"artifacts differ from the first op: {changed}")
        return problems

    def _check_sweep(self, out: Path) -> list[str]:
        try:
            runs = json.loads((out / "manifest.json").read_text())["runs"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"sweep manifest unreadable: {exc!r}"]
        got = {r["dir"]: r["exit_code"] for r in runs}
        want = {sub: EXPECTED_EXIT for sub in self.runs}
        return [] if got == want else [f"sweep runs {got}, expected {want}"]


def _check_run(run: Path, ref: dict) -> list[str]:
    problems = []
    cycles = json.loads((run / "cycle_reports.json").read_text())
    if cycles["status"] != "verified_on_grid":
        problems.append(f"small-gain status {cycles['status']!r}")
    if len(cycles["cycles"]) != ref["cycles"]:
        problems.append(f"{len(cycles['cycles'])} cycles, expected {ref['cycles']}")

    bounds = json.loads((run / "bound_reports.json").read_text())
    holds = {kind: rep["holds"] for kind, rep in bounds.items()}
    if holds != EXPECTED_CHECKS:
        problems.append(f"bound checks {holds}, expected {EXPECTED_CHECKS}")

    nodes = json.loads((run / "closed_loop_gains.json").read_text())["nodes"]
    for i in range(1, ref["k"] + 1):
        table = nodes[str(i)]["table"]
        if nodes[str(i)]["input_gain"] is not None or table["input_gain"] is not None:
            problems.append(f"node {i}: input gain present, the config has no inputs")
        if not np.allclose(table["s"], GAIN_TABLE_SAMPLES, rtol=1e-15, atol=0.0):
            problems.append(f"node {i}: gain table samples differ")
        if not np.allclose(table["sigma"], ref["sigma"][i - 1], rtol=SIGMA_RTOL, atol=0.0):
            problems.append(f"node {i}: sigma table off the reference")

    last = _last_line(run / "trajectory.csv").split(",")
    t_end, state = float(last[0]), np.array([float(v) for v in last[1:]])
    if abs(t_end - ref["T"]) > 1e-9 * ref["T"]:
        problems.append(f"trajectory ends at t={t_end!r}, expected {ref['T']!r}")
    if state.shape != ref["final"].shape or not np.allclose(
        state, ref["final"], rtol=STATE_RTOL, atol=STATE_ATOL
    ):
        problems.append("final state off the reference")
    return problems


def _last_line(path: Path) -> str:
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        fh.seek(max(fh.tell() - 65536, 0))
        return fh.read().decode("ascii").rstrip("\n").rsplit("\n", 1)[-1]


def artifact_digests(out: Path) -> dict[str, str]:
    """sha256 of every artifact below ``out`` except the manifests."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
