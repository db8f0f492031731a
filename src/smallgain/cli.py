"""Command-line front-end.

Four subcommands: ``analyze`` checks the cyclic small-gain conditions of
a configured interconnection and derives closed-loop gains, ``simulate``
integrates the delay equations and writes a CSV trajectory, ``verify``
chains both and checks the stability bounds against the trajectory, and
``example`` emits the bundled three-node ring configuration.

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
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checks import check_ag, check_gas, check_gs
from .dsl import ConfigError, ParsedConfig, SimParams, parse_system
from .gains import VerdictStatus
from .graph import CycleCountExceeded, check_cyclic_small_gain
from .reduction import (
    SmallGainViolation,
    closed_loop_input_gains,
    global_gs_sigma,
)
from .ring import ring_config
from .sim import SimulationError, simulate

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
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
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


def _load_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}")


def _apply_overrides(cfg: ParsedConfig, args) -> ParsedConfig:
    checks = cfg.checks
    grid_points = getattr(args, "grid_points", None)
    if grid_points is not None:
        checks = replace(checks, grid=replace(checks.grid, n_points=grid_points))
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


def _analyze_stage(cfg: ParsedConfig, run: _Run, say=print) -> tuple[int, object]:
    """Small-gain check plus closed-loop gains.  Returns (exit, closed)."""
    try:
        result = check_cyclic_small_gain(cfg.digraph, cfg.checks.grid)
    except CycleCountExceeded as exc:
        raise ConfigError(str(exc))
    run.write_json("cycle_reports.json", result.to_dict())
    say(f"cycles: {len(result.reports)}")
    if result.status is VerdictStatus.VERIFIED_ON_GRID:
        worst = result.worst()
        if worst is None:
            say("small-gain: verified (no cycles)")
        else:
            say(f"small-gain: verified, min margin {worst.margin:.6g}")
        closed = closed_loop_input_gains(cfg.digraph, cfg.checks.grid)
        run.write_json(
            "closed_loop_gains.json", closed.to_dict(_GAIN_TABLE_SAMPLES)
        )
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


def _simulate_stage(cfg: ParsedConfig, run: _Run, say=print):
    if cfg.sim is None or cfg.history is None:
        raise ConfigError(
            "this command needs a 'simulation' section (T, h, history)"
        )
    traj = simulate(cfg.system, cfg.history, cfg.inputs, cfg.sim.T, cfg.sim.h)
    run.write_csv("trajectory.csv", traj)
    run.write_json("trajectory_meta.json", traj.metadata())
    if traj.blow_up:
        say(f"simulation: BLOW-UP, escape time {traj.escape_time!r}")
    else:
        say(f"simulation: completed to t = {traj.t_end!r}")
    return traj


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
            rep = check_gs(traj, cfg.digraph, closed, cfg.history, u=cfg.inputs)
        elif kind == "ag":
            rep = check_ag(
                traj,
                closed,
                u=cfg.inputs,
                tail_fraction=cfg.checks.tail_fraction,
                atol=cfg.checks.ag_atol,
            )
        else:
            sigma = global_gs_sigma(cfg.digraph, closed)
            rep = check_gas(
                traj,
                sigma,
                cfg.history,
                cfg.checks.eps,
                tail_fraction=cfg.checks.tail_fraction,
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
    cfg = _apply_overrides(parse_system(_load_doc(args.config)), args)
    run = _Run(args.out)
    code, _ = _analyze_stage(cfg, run)
    run.manifest(args, {"exit_code": code})
    return code


def cmd_simulate(args) -> int:
    cfg = _apply_overrides(parse_system(_load_doc(args.config)), args)
    run = _Run(args.out)
    traj = _simulate_stage(cfg, run)
    code = EXIT_BLOWUP if traj.blow_up else EXIT_OK
    run.manifest(args, {"exit_code": code})
    return code


def _verify_one(cfg: ParsedConfig, args, out_dir, say=print) -> int:
    run = _Run(out_dir)
    code, closed = _analyze_stage(cfg, run, say)
    if code != EXIT_OK:
        if not args.force_simulate:
            say("verify: refusing to check bounds without the small-gain "
                "precondition (use --force-simulate to integrate anyway)")
            run.manifest(args, {"exit_code": code})
            return code
        # Exploratory mode: integrate the system but make no bound claims.
        traj = _simulate_stage(cfg, run, say)
        code = EXIT_BLOWUP if traj.blow_up else EXIT_OK
        run.manifest(args, {"exit_code": code, "bounds_checked": False})
        return code
    traj = _simulate_stage(cfg, run, say)
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


def cmd_verify(args) -> int:
    doc = _load_doc(args.config)
    if args.sweep is None:
        cfg = _apply_overrides(parse_system(doc), args)
        return _verify_one(cfg, args, args.out)

    key, values = _parse_sweep(args.sweep)
    jobs = []
    for value in values:
        cfg = _apply_overrides(parse_system(_sweep_doc(doc, key, value)), args)
        sub = Path(args.out) / f"{key}_{value!r}"
        child_args = argparse.Namespace(
            **{**vars(args), "sweep": None, "out": str(sub)}
        )
        jobs.append((value, sub, cfg, child_args))

    parent = _Run(args.out)
    runs = []
    for value, sub, cfg, child_args in jobs:
        say = functools.partial(print, f"[{key}={value!r}]")
        code = _verify_one(cfg, child_args, sub, say=say)
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
    analyze.add_argument("--seed", type=int, default=0)
    analyze.set_defaults(fn=cmd_analyze)

    simulate_p = sub.add_parser("simulate", help="integrate the delay system")
    _add_config_arg(simulate_p)
    simulate_p.add_argument("--out", default="smallgain_out")
    simulate_p.add_argument("--horizon", type=float, help="override final time T")
    simulate_p.add_argument("--step", type=float, help="override step size h")
    simulate_p.add_argument("--seed", type=int, default=0)
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
        help="fan out runs over delta=... or gain_scale=... value lists, "
        "run one after another in the order given",
    )
    verify.add_argument("--seed", type=int, default=0)
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
