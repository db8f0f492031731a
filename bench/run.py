"""Benchmark of ``smallgain verify``, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

One op is one ``smallgain verify`` invocation, run in-process through
``smallgain.cli.main`` on a configuration generated from the seed.  Ops
run back to back (a closed loop with one client) for at least
``--seconds`` and at least MIN_OPS ops, and every op is checked by the
oracle (oracle.py).

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics of the traced ones (tracer.py) plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit and record the environment.

``--smoke`` runs every workload at tiny sizes and checks the benchmark
itself: every metric prints with the unit BENCHMARK.json gives, the
oracle flags a corrupted artifact and a wrong exit code, and the count
metrics repeat exactly across two traced runs.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path

from oracle import Reference
from tracer import Tracer, op_metrics, tree_sizes
from workloads import SIZES, build

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The tail percentile needs ten samples beyond it, so a run makes at least
# eleven ops even when they outlast --seconds.
MIN_OPS = 11
# Traced runs alternate an untraced and a traced op, in alternating order.
MIN_PAIRS = 2
SETUP_REPEATS = 13

END_TO_END = {
    "wall_s": "s",
    "wall_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "dsl.parse_s": "s",
    "gains.lti_calls": "count",
    "gains.lti_s": "s",
    "gains.sigma_tree_nodes": "count",
    "gains.sigma_dag_nodes": "count",
    "gains.eval_grid_s": "s",
    "graph.check_calls": "count",
    "graph.cycles": "count",
    "graph.check_s": "s",
    "graph.enumerate_s": "s",
    "reduction.closed_loop_s": "s",
    "reduction.closed_loop_self_s": "s",
    "reduction.to_dict_s": "s",
    "reduction.json_bytes": "bytes",
    "sim.simulate_s": "s",
    "sim.simulate_cpu_s": "s",
    "sim.steps": "count",
    "sim.rhs_calls": "count",
    "sim.hist_calls": "count",
    "sim.rhs_s": "s",
    "sim.us_per_node_step": "us",
    "sim.to_csv_s": "s",
    "sim.csv_bytes": "bytes",
    "checks.gs_s": "s",
    "checks.ag_s": "s",
    "checks.gas_s": "s",
    "checks.interp_calls": "count",
    "checks.interp_points": "count",
    "checks.interp_s": "s",
    "cli.self_s": "s",
    "cli.wait_s": "s",
    "trace.overhead": "ratio",
}
# Deterministic per-op counts: every traced op of a run must repeat them.
COUNTS = tuple(n for n, u in PER_LAYER.items() if u in ("count", "bytes"))

SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import smallgain
with open(sys.argv[2], encoding="utf-8") as fh:
    smallgain.parse_system(json.load(fh))
"""


def load_program():
    """Import smallgain from this checkout's sources, never from elsewhere."""
    init = SRC / "smallgain" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import smallgain

    if Path(smallgain.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported smallgain from {smallgain.__file__}, not {init}")
    return smallgain


class Bench:
    """One workload's config, reference and op runner inside a work dir."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workload.doc, indent=2) + "\n", encoding="utf-8")
        self.ref = Reference(workload)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, tracer=None, keep: bool = False):
        """Run one op; returns (wall s, process CPU s, artifact dir or None)."""
        from smallgain.cli import main

        out = self.work / f"op{self.attempted}"
        argv = ["verify", str(self.config), "--out", str(out), *self.workload.args]
        self.attempted += 1
        sink = io.StringIO()
        code: object = None
        error = None
        with tracer.installed() if tracer else nullcontext():
            if tracer:
                tracer.begin_op()
            # Every op starts from the collector state a fresh process has.
            gc.collect()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                with redirect_stdout(sink), redirect_stderr(sink):
                    code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a failed op is counted, not fatal
                error = exc
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        problems = [f"raised {error!r}"] if error else self.ref.check(out, code)
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"op {self.attempted - 1}: " + "; ".join(problems))
        if keep:
            return wall, cpu, out
        shutil.rmtree(out, ignore_errors=True)
        return wall, cpu, None


def setup_time(config: Path) -> float:
    """Fresh interpreter, ``import smallgain``, first ``parse_system``.

    The child's output goes through a pipe: with a timeout and no pipe,
    ``subprocess`` polls for the exit in sleeps of up to 50 ms, which
    would round every sample up to that step; a pipe's end of file
    wakes the parent when the child exits.
    """
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
        timeout=120, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        sys.stdout.write(done.stdout.decode(errors="replace"))
        done.check_returncode()
    return elapsed


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(walls)
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * rank / (len(ordered) - 1)


def warm_up(name: str, seed: int) -> None:
    """One untimed op at smoke size: lazy imports, schema load, thread pool."""
    with work_dir() as work:
        Bench(build(name, seed, "smoke"), work).op()


def measure_end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    # Set-up samples are spread over the run, not taken in a burst, so that
    # they meet the same spells of host contention as the ops.
    setups, walls = [], []
    start = time.perf_counter()
    while len(walls) < MIN_OPS or time.perf_counter() - start < seconds:
        if len(setups) < SETUP_REPEATS * (time.perf_counter() - start) / max(seconds, 1e-9):
            setups.append(setup_time(bench.config))
        walls.append(bench.op()[0])
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_time(bench.config))
    tail_value, pct = tail(walls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"# ops: {len(walls)}, op walls (s): {[round(w, 4) for w in walls]}")
    print(f"# setup_s samples (s): {[round(s, 4) for s in setups]}")
    print(f"# wall_s.tail is p{pct:.1f} of {len(walls)} ops (10 beyond it)")
    print(f"# fail_rate = {bench.failed / bench.attempted} "
          f"({bench.failed} failed / {bench.attempted} attempted)")
    return {
        "wall_s": statistics.median(walls),
        "wall_s.tail": tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }


def measure_per_layer(bench: Bench, seconds: float) -> tuple[dict[str, float], list[str]]:
    from smallgain.gains import DEFAULT_GRID

    tracer = Tracer()
    plain_walls, traced_walls, per_op = [], [], []
    grid = DEFAULT_GRID.points()
    start = time.perf_counter()
    pair = 0
    while pair < MIN_PAIRS or time.perf_counter() - start < seconds:
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if not traced:
                plain_walls.append(bench.op()[0])
                continue
            wall, cpu, out = bench.op(tracer, keep=True)
            traced_walls.append(wall)
            m = op_metrics(tracer, wall, cpu)
            m["reduction.json_bytes"] = _size(out, "closed_loop_gains.json")
            m["sim.csv_bytes"] = _size(out, "trajectory.csv")
            shutil.rmtree(out, ignore_errors=True)
            sizes = [tree_sizes(list(c.sigmas.values())) for c in tracer.closed]
            m["gains.sigma_tree_nodes"] = sum(s[0] for s in sizes)
            m["gains.sigma_dag_nodes"] = sum(s[1] for s in sizes)
            t0 = time.perf_counter()
            for closed in tracer.closed:
                for sigma in closed.sigmas.values():
                    sigma(grid)
            m["gains.eval_grid_s"] = time.perf_counter() - t0
            per_op.append(m)
        pair += 1

    problems = []
    for name in COUNTS:
        values = {m[name] for m in per_op}
        if len(values) != 1:
            problems.append(f"count {name} differs between ops: {sorted(values)}")
    metrics = {name: statistics.median(m[name] for m in per_op) for name in PER_LAYER
               if name != "trace.overhead"}
    for name in COUNTS:
        metrics[name] = int(metrics[name])
    metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(plain_walls)
    print(f"# traced ops: {len(traced_walls)}, untraced ops: {len(plain_walls)}")
    for m, wall in zip(per_op, traced_walls):
        print(f"# traced op wall {wall:.4f} s = layer spans {m['layers_s']:.4f} s"
              f" + cli.self_s {m['cli.self_s']:.4f} s (wall - CPU {m['cli.wait_s']:.4f} s)")
    return metrics, problems


def _size(out: Path, name: str) -> int:
    return sum(p.stat().st_size for p in out.rglob(name))


@contextmanager
def work_dir():
    path = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def environment(args) -> dict:
    import numpy

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jsonschema": version("jsonschema"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _commit() -> str | None:
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def report(metrics: dict[str, float], units: dict[str, str]) -> dict:
    out = {}
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
        out[name] = {"value": metrics[name], "unit": unit}
    return out


def run(args) -> int:
    warm_up(args.workload, args.seed)
    with work_dir() as work:
        bench = Bench(build(args.workload, args.seed), work)
        print("# env " + json.dumps(environment(args), sort_keys=True))
        if args.trace:
            metrics, problems = measure_per_layer(bench, args.seconds)
            shown = report(metrics, PER_LAYER)
        else:
            metrics, problems = measure_end_to_end(bench, args.seconds), []
            shown = report(metrics, END_TO_END)
    for line in bench.problems + problems:
        print(f"# FAILED {line}")
    print(json.dumps({
        "correct": bench.failed == 0 and not problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": shown,
    }))
    return 0


def smoke() -> int:
    """Self-test at tiny sizes; exits non-zero on the first broken promise."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")
    }
    _expect(declared["end_to_end"] == END_TO_END and declared["per_layer"] == PER_LAYER,
            "metric names or units differ from BENCHMARK.json")
    _expect({w["name"] for w in spec["workloads"]} <= set(SIZES),
            "BENCHMARK.json names a workload that workloads.py lacks")

    for name in SIZES:
        print(f"== {name} (smoke size)")
        with work_dir() as work:
            bench = Bench(build(name, 1, "smoke"), work)
            shown = report(measure_end_to_end(bench, 0.0), END_TO_END)
            _expect(set(shown) == set(END_TO_END), "end-to-end metrics missing")
            counts = []
            for _ in range(2):
                metrics, problems = measure_per_layer(bench, 0.0)
                _expect(not problems, f"{name}: {problems}")
                counts.append({n: metrics[n] for n in COUNTS})
            report(metrics, PER_LAYER)
            _expect(counts[0] == counts[1], f"{name}: counts differ across runs")
            _expect(bench.failed == 0, f"{name}: {bench.problems}")

            _, _, out = bench.op(keep=True)
            _expect(any("exit code" in p for p in bench.ref.check(out, 5)),
                    "oracle missed a wrong exit code")
            csv = next(out.rglob("trajectory.csv"))
            data = bytearray(csv.read_bytes())
            data[-2] = ord("7") if data[-2] != ord("7") else ord("3")
            csv.write_bytes(bytes(data))
            problems = bench.ref.check(out, 0)
            _expect(any("first op" in p for p in problems)
                    and any("final state" in p for p in problems),
                    f"oracle missed a corrupted trajectory.csv: {problems}")
    print("smoke: ok")
    return 0


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(SIZES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    load_program()
    os.environ.pop("SMALLGAIN_LOG", None)
    return smoke() if args.smoke else run(args)


if __name__ == "__main__":
    sys.exit(main())
