"""Command-line front-end.

Four subcommands: ``analyze`` checks the cyclic small-gain conditions of
a configured interconnection and derives closed-loop gains, ``simulate``
integrates the delay equations and writes a CSV trajectory, ``verify``
chains both and checks the stability bounds against the trajectory, and
``example`` emits the bundled three-node ring configuration.

The children of ``verify --sweep delta=...`` differ only in delays and
right-hand sides: they share one analysis, and one simulate call
integrates the union of their documents as one parsed network.

Exit codes: 0 success, 1 configuration or usage error, 2 small-gain
violation, 3 inconclusive small-gain check, 4 finite-time blow-up,
5 bound-check violation.  Every run writes a ``manifest.json`` listing
the emitted artifacts and the options needed to reproduce the run.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import logging
import os
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checks import check_ag, check_gas, check_gs
from .dsl import ConfigError, ParsedConfig, SimParams, check_document, load_document, parse_system
from .gains import VerdictStatus
from .graph import CycleCountExceeded, check_cyclic_small_gain
from .reduction import (
    SmallGainViolation,
    closed_loop_input_gains,
    global_gs_sigma,
)
from .ring import ring_config
from .sim import (
    HistoryFunction,
    InputSignal,
    SimulationError,
    history_start,
    resolve_steps,
    simulate,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATED = 2
EXIT_INCONCLUSIVE = 3
EXIT_BLOWUP = 4
EXIT_BOUNDS = 5

log = logging.getLogger("smallgain")

# Sample points for the closed-loop gain evaluation tables.
_GAIN_TABLE_SAMPLES = tuple(float(s) for s in np.geomspace(1e-3, 1e3, 13))

_DELAY_SUFFIX_RE = re.compile(
    r"\[\s*-\s*(?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)\s*\]"
)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the config-error code.

    argparse exits with 2 by default, which this tool reserves for
    small-gain violations.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


class _Run:
    """Artifact directory plus the bookkeeping for its manifest."""

    def __init__(self, out_dir: str | os.PathLike):
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.artifacts: list[str] = []

    def write_json(self, name: str, obj) -> None:
        self.write_text(name, json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def write_text(self, name: str, text: str) -> None:
        (self.out / name).write_text(text, encoding="utf-8")
        self.artifacts.append(name)
        log.info("wrote %s", self.out / name)

    def write_csv(self, name: str, traj) -> None:
        with open(self.out / name, "w", encoding="utf-8", newline="") as fh:
            traj.to_csv(fh)
        self.artifacts.append(name)
        log.info("wrote %s", self.out / name)

    def manifest(self, args, extra: dict | None = None) -> None:
        doc = {
            "subcommand": args.command,
            "config": getattr(args, "config", None),
            "out": str(args.out),
            "seed": getattr(args, "seed", 0),
            "options": {
                "grid_points": getattr(args, "grid_points", None),
                "horizon": getattr(args, "horizon", None),
                "step": getattr(args, "step", None),
                "tail_fraction": getattr(args, "tail_fraction", None),
                "force_simulate": getattr(args, "force_simulate", False),
                "sweep": getattr(args, "sweep", None),
            },
            "artifacts": sorted(self.artifacts),
        }
        if extra:
            doc.update(extra)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        (self.out / "manifest.json").write_text(text, encoding="utf-8")


def _apply_overrides(cfg: ParsedConfig, args) -> ParsedConfig:
    checks = cfg.checks
    grid_points = getattr(args, "grid_points", None)
    if grid_points is not None:
        try:
            grid = replace(checks.grid, n_points=grid_points)
        except ValueError as exc:
            raise ConfigError(f"--grid-points: {exc}") from exc
        checks = replace(checks, grid=grid)
    tail = getattr(args, "tail_fraction", None)
    if tail is not None:
        if not 0 < tail <= 1:
            raise ConfigError("--tail-fraction must lie in (0, 1]")
        checks = replace(checks, tail_fraction=tail)
    sim = cfg.sim
    horizon = getattr(args, "horizon", None)
    step = getattr(args, "step", None)
    if horizon is not None or step is not None:
        if sim is None:
            raise ConfigError(
                "--horizon/--step override a config's simulation section, "
                "but this config has none"
            )
        sim = SimParams(
            T=horizon if horizon is not None else sim.T,
            h=step if step is not None else sim.h,
        )
    if checks is not cfg.checks or sim is not cfg.sim:
        cfg = replace(cfg, checks=checks, sim=sim)
    return cfg


def _check_steps(cfg: ParsedConfig) -> ParsedConfig:
    """Reject a step that does not divide every delay before any stage runs."""
    if cfg.sim is not None:
        try:
            resolve_steps(cfg.system.delays, cfg.sim.h)
        except SimulationError as exc:
            raise ConfigError(str(exc)) from exc
    return cfg


class _Analysis:
    """A config's small-gain check and closed-loop gains, each with the
    text of its artifact, computed when first read.  The children of a
    delta sweep share one: they differ only in delays and right-hand
    sides."""

    def __init__(self, cfg: ParsedConfig):
        self.digraph, self.grid = cfg.digraph, cfg.checks.grid

    @functools.cached_property
    def check(self):
        try:
            result = check_cyclic_small_gain(self.digraph, self.grid)
        except CycleCountExceeded as exc:
            raise ConfigError(str(exc))
        return result, result.to_json()

    @functools.cached_property
    def closed(self):
        closed = closed_loop_input_gains(self.digraph, self.grid, check=self.check[0])
        return closed, json.dumps(closed.to_dict(_GAIN_TABLE_SAMPLES), indent=2, sort_keys=True) + "\n"


def _analyze_stage(analysis: _Analysis, run: _Run, say=print) -> tuple[int, object]:
    """Small-gain check plus closed-loop gains.  Returns (exit, closed)."""
    result, text = analysis.check
    run.write_text("cycle_reports.json", text)
    say(f"cycles: {len(result.cycles)}")
    if result.status is VerdictStatus.VERIFIED_ON_GRID:
        worst = result.worst()
        if worst is None:
            say("small-gain: verified (no cycles)")
        else:
            say(f"small-gain: verified, min margin {worst.margin:.6g}")
        closed, text = analysis.closed
        run.write_text("closed_loop_gains.json", text)
        return EXIT_OK, closed
    worst = result.worst()
    if result.status is VerdictStatus.VIOLATED:
        say(
            "small-gain: VIOLATED on cycle "
            f"{'-'.join(map(str, worst.cycle))} at s = {worst.witness!r}"
        )
        return EXIT_VIOLATED, None
    say(
        "small-gain: inconclusive on cycle "
        f"{'-'.join(map(str, worst.cycle))} (margin {worst.margin:.3g})"
    )
    return EXIT_INCONCLUSIVE, None


def _simulate_stage(cfg: ParsedConfig, run: _Run, say=print, trajectory=None):
    """Write cfg's trajectory; trajectory(), when given, supplies it."""
    if cfg.sim is None or cfg.history is None:
        raise ConfigError(
            "this command needs a 'simulation' section (T, h, history)"
        )
    traj = _own_run(cfg) if trajectory is None else trajectory()
    run.write_csv("trajectory.csv", traj)
    run.write_json("trajectory_meta.json", traj.metadata())
    if traj.blow_up:
        say(f"simulation: BLOW-UP, escape time {traj.escape_time!r}")
    else:
        say(f"simulation: completed to t = {traj.t_end!r}")
    return traj


def _own_run(cfg: ParsedConfig):
    return simulate(cfg.system, cfg.history, cfg.inputs, cfg.sim.T, cfg.sim.h)


def _requested_checks(cfg: ParsedConfig) -> tuple[str, ...]:
    if cfg.checks.run is not None:
        if "gas" in cfg.checks.run and cfg.inputs is not None:
            raise ConfigError(
                "the gas check applies to unforced systems; this config "
                "declares inputs"
            )
        return cfg.checks.run
    if cfg.inputs is None:
        return ("gs", "ag", "gas")
    return ("gs", "ag")


def _checks_stage(cfg: ParsedConfig, closed, traj, run: _Run, say=print) -> int:
    reports = {}
    for kind in _requested_checks(cfg):
        if kind == "gs":
            rep = check_gs(traj, cfg.digraph, closed)
        elif kind == "ag":
            rep = check_ag(
                traj,
                closed,
                tail_fraction=cfg.checks.tail_fraction,
                atol=cfg.checks.ag_atol,
            )
        else:
            sigma = global_gs_sigma(cfg.digraph, closed)
            rep = check_gas(
                traj, sigma, cfg.checks.eps, tail_fraction=cfg.checks.tail_fraction
            )
        reports[kind] = rep
        say(rep.summary())
    run.write_json(
        "bound_reports.json", {k: r.to_dict() for k, r in reports.items()}
    )
    if all(r.holds for r in reports.values()):
        return EXIT_OK
    return EXIT_BOUNDS


def cmd_analyze(args) -> int:
    cfg = _apply_overrides(parse_system(load_document(args.config)), args)
    run = _Run(args.out)
    code, _ = _analyze_stage(_Analysis(cfg), run)
    run.manifest(args, {"exit_code": code})
    return code


def cmd_simulate(args) -> int:
    cfg = _check_steps(_apply_overrides(parse_system(load_document(args.config)), args))
    run = _Run(args.out)
    traj = _simulate_stage(cfg, run)
    code = EXIT_BLOWUP if traj.blow_up else EXIT_OK
    run.manifest(args, {"exit_code": code})
    return code


def _verify_one(
    cfg: ParsedConfig, args, out_dir, say=print, trajectory=None, analysis=None
) -> int:
    run = _Run(out_dir)
    code, closed = _analyze_stage(analysis or _Analysis(cfg), run, say)
    if code != EXIT_OK:
        if not args.force_simulate:
            say("verify: refusing to check bounds without the small-gain "
                "precondition (use --force-simulate to integrate anyway)")
            run.manifest(args, {"exit_code": code})
            return code
        # Exploratory mode: integrate the system but make no bound claims.
        traj = _simulate_stage(cfg, run, say, trajectory)
        code = EXIT_BLOWUP if traj.blow_up else EXIT_OK
        run.manifest(args, {"exit_code": code, "bounds_checked": False})
        return code
    traj = _simulate_stage(cfg, run, say, trajectory)
    if traj.blow_up:
        run.manifest(args, {"exit_code": EXIT_BLOWUP})
        return EXIT_BLOWUP
    code = _checks_stage(cfg, closed, traj, run, say)
    run.manifest(args, {"exit_code": code})
    return code


def _parse_sweep(spec: str) -> tuple[str, list[float]]:
    key, sep, rest = spec.partition("=")
    if not sep or not rest:
        raise ConfigError(
            "--sweep expects key=v1,v2,... with key 'delta' or 'gain_scale'"
        )
    key = key.strip()
    if key not in ("delta", "gain_scale"):
        raise ConfigError(f"unknown sweep key {key!r} (use delta or gain_scale)")
    try:
        values = [float(v) for v in rest.split(",")]
    except ValueError:
        raise ConfigError(f"sweep values must be numbers, got {rest!r}")
    if any(not np.isfinite(v) or v <= 0 for v in values):
        raise ConfigError("sweep values must be positive and finite")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(
                f"sweep value {value!r} is given twice; each run writes {key}_{value!r}"
            )
    return key, values


def _sweep_doc(doc: dict, key: str, value: float) -> dict:
    out = copy.deepcopy(doc)
    if key == "delta":
        if len(out.get("delays", [])) != 1:
            raise ConfigError(
                "a delta sweep needs a config with exactly one declared delay"
            )
        out["delays"] = [value]
        for sub in out["subsystems"]:
            sub["rhs"] = [
                _DELAY_SUFFIX_RE.sub(f"[-{value!r}]", expr) for expr in sub["rhs"]
            ]
    else:  # gain_scale
        edges = out.get("gains", {}).get("edges", {})
        out["gains"]["edges"] = {
            k: f"{value!r}*({expr})" for k, expr in edges.items()
        }
    return out


_SUBSYSTEM_NAME_RE = re.compile(r"\b([xvu])_(\d+)")


def _renumber(expr: str, shift: int) -> str:
    """expr with every x_i, v_j and u_i moved up by shift subsystems.
    parse_system has accepted expr, so each name in it is t, a function
    or [xvu]_<i>[_<c>]: the word boundary leaves functions, components
    and delays alone."""
    return _SUBSYSTEM_NAME_RE.sub(lambda m: f"{m[1]}_{int(m[2]) + shift}", expr)


def _union_doc(docs: list[dict]) -> dict:
    """The disjoint union of the networks of docs: document b's x_i, v_j
    and u_i are renumbered after document b-1's subsystems."""
    subsystems, delays = [], set()
    for doc in docs:
        shift = len(subsystems)
        for sub in doc["subsystems"]:
            rhs = [_renumber(expr, shift) for expr in sub["rhs"]]
            subsystems.append({**sub, "rhs": rhs})
        delays.update(doc["delays"])
    return {
        "k": len(subsystems),
        "delays": sorted(delays),
        "subsystems": subsystems,
        "gains": {},
    }


def _guarded(fn: HistoryFunction, lo: float) -> HistoryFunction:
    """fn on [lo, 0], zeros before lo, at a time or, for the history kinds
    read on arrays, at an array of times; fn is never read before lo."""
    zero = np.zeros(fn.dim)

    def read(t, g=fn.fn):
        if np.ndim(t) == 0:
            return g(t) if t >= lo else zero
        inside = t >= lo
        out = np.zeros((len(t), fn.dim))
        if inside.any():
            out[inside] = g(t[inside])
        return out

    return replace(fn, fn=read)


def _union_trajectories(docs: list[dict], cfgs: list[ParsedConfig]):
    """Each sweep child's trajectory, cut from one simulate call on the
    union of their networks; None for each when the union raised, warned,
    blew up or ended with an all-zero final derivative.  simulate keeps
    only a finite one, so a nonzero entry proves that every child's own
    run keeps its block.  No history is read before its child's own
    window (sim.history_start): the union rows there hold zeros."""
    T, h = cfgs[0].sim.T, cfgs[0].sim.h
    hist, inputs = [], []
    for cfg in cfgs:
        lo = history_start(cfg.system, h)
        hist += [_guarded(fn, lo) for fn in cfg.history]
        subs = cfg.system.subsystems
        inputs.append(cfg.inputs or [InputSignal.zero(s.input_dim) for s in subs])
    try:
        # Warnings are left to each child's own run.
        with warnings.catch_warnings(record=True) as caught:
            union = parse_system(_union_doc(docs)).system
            flat = [u for own in inputs for u in own]
            traj = simulate(union, hist, flat, T, h)
    except Exception:  # the child's own run raises it at its own stage
        return [None] * len(cfgs)
    if caught or traj.blow_up or not traj.derivs[-1].any():
        return [None] * len(cfgs)
    start, out = 0, []
    for cfg, own in zip(cfgs, inputs):
        out.append(traj.member(start, cfg.system, cfg.history, own))
        start += cfg.system.total_dim
    return out


def _sweep_trajectories(key: str, docs: list[dict], cfgs: list[ParsedConfig]):
    """take(i) returns sweep child i's trajectory, or raises the error its
    own simulate run would raise.  The first call integrates a delta
    sweep's children as one union network and a gain_scale sweep's once,
    since only their gains differ; a child the union cannot serve runs on
    its own.  Each result is handed out once and then dropped."""
    results = []

    def take(i: int):
        if not results:
            if key == "delta":
                results.extend(_union_trajectories(docs, cfgs))
            else:
                results.extend([_own_run(cfgs[0])] * len(cfgs))
        result, results[i] = results[i], None
        return _own_run(cfgs[i]) if result is None else result

    return take


def cmd_verify(args) -> int:
    doc = load_document(args.config)
    if args.sweep is None:
        cfg = _check_steps(_apply_overrides(parse_system(doc), args))
        return _verify_one(cfg, args, args.out)

    check_document(doc)  # _sweep_doc rewrites only a valid document
    key, values = _parse_sweep(args.sweep)
    docs, jobs = [], []
    for value in values:
        docs.append(_sweep_doc(doc, key, value))
        cfg = _apply_overrides(parse_system(docs[-1]), args)
        sub = Path(args.out) / f"{key}_{value!r}"
        child_args = argparse.Namespace(
            **{**vars(args), "sweep": None, "out": str(sub)}
        )
        jobs.append((value, sub, _check_steps(cfg), child_args))

    parent = _Run(args.out)
    take = _sweep_trajectories(key, docs, [cfg for _, _, cfg, _ in jobs])
    shared = _Analysis(jobs[0][2]) if key == "delta" else None
    runs = []
    for i, (value, sub, cfg, child_args) in enumerate(jobs):
        say = functools.partial(print, f"[{key}={value!r}]")
        trajectory = functools.partial(take, i)
        code = _verify_one(cfg, child_args, sub, say, trajectory, shared)
        runs.append({"value": value, "dir": sub.name, "exit_code": code})
    code = max(r["exit_code"] for r in runs)
    parent.manifest(args, {"sweep_key": key, "runs": runs, "exit_code": code})
    print(f"sweep: {len(runs)} runs, worst exit code {code}")
    return code


def cmd_example(args) -> int:
    text = json.dumps(ring_config(), indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_OK


def _add_config_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "config_pos",
        nargs="?",
        metavar="CONFIG",
        help="path to a JSON configuration file",
    )
    sub.add_argument(
        "--config", dest="config_flag", help="alternative to the positional path"
    )


def _add_seed_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--seed",
        type=int,
        default=0,
        help="label recorded in manifest.json; the pipeline draws no random numbers",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="smallgain",
        description=(
            "Stability analysis for interconnected time-delay systems: "
            "cyclic small-gain verification, closed-loop gain construction, "
            "and simulation-backed bound checking."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="check cyclic small-gain conditions, derive gains"
    )
    _add_config_arg(analyze)
    analyze.add_argument("--out", default="smallgain_out", help="artifact directory")
    analyze.add_argument("--grid-points", type=int, help="override grid resolution")
    _add_seed_arg(analyze)
    analyze.set_defaults(fn=cmd_analyze)

    simulate_p = sub.add_parser("simulate", help="integrate the delay system")
    _add_config_arg(simulate_p)
    simulate_p.add_argument("--out", default="smallgain_out")
    simulate_p.add_argument("--horizon", type=float, help="override final time T")
    simulate_p.add_argument("--step", type=float, help="override step size h")
    _add_seed_arg(simulate_p)
    simulate_p.set_defaults(fn=cmd_simulate)

    verify = sub.add_parser(
        "verify", help="analyze, simulate, and check stability bounds"
    )
    _add_config_arg(verify)
    verify.add_argument("--out", default="smallgain_out")
    verify.add_argument("--grid-points", type=int)
    verify.add_argument("--horizon", type=float)
    verify.add_argument("--step", type=float)
    verify.add_argument("--tail-fraction", type=float)
    verify.add_argument(
        "--force-simulate",
        action="store_true",
        help="simulate even when the small-gain check fails (skips bounds)",
    )
    verify.add_argument(
        "--sweep",
        help="fan out runs over delta=... or gain_scale=... value lists; "
        "children are analysed, checked and written in the order given, "
        "and their trajectories are integrated together",
    )
    _add_seed_arg(verify)
    verify.set_defaults(fn=cmd_verify)

    example = sub.add_parser(
        "example", help="emit the bundled three-node ring configuration"
    )
    example.add_argument(
        "--out", default=None, help="write to this file instead of stdout"
    )
    example.set_defaults(fn=cmd_example)
    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("SMALLGAIN_LOG", "").strip().upper()
    if not level_name:
        return
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "example":
        config = args.config_flag or args.config_pos
        if config is None:
            parser.error(f"{args.command} needs a configuration file")
        args.config = config
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SmallGainViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATED
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
