"""Command-line interface: exit codes, artifacts, overrides, and sweeps."""

import json
import subprocess
import sys

import pytest

from conftest import subprocess_env
from smallgain.cli import _sweep_doc, _union_doc, main
from smallgain.dsl import parse_system
from smallgain.ring import ring_config


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def ring_doc(tmp_path, **kwargs):
    kwargs.setdefault("T", 2.0)
    return write_doc(tmp_path, ring_config(**kwargs))


def violating_doc(tmp_path, **extra):
    doc = {
        "k": 2,
        "delays": [0.5],
        "subsystems": [
            {"rhs": ["-x_1 + 0.1*v_2[-0.5]"]},
            {"rhs": ["-x_2 + 0.1*v_1[-0.5]"]},
        ],
        "gains": {
            "edges": {"1,2": "1.5*s", "2,1": "1.5*s"},
            "sigma": {"1": "2*s", "2": "2*s"},
        },
        "simulation": {"T": 1.0, "h": 0.1, "history": [[0.1], [0.1]]},
    }
    doc.update(extra)
    return write_doc(tmp_path, doc)


def nan_ring(delta):
    """The ring whose first rhs reads the root of the history 1 + t at
    t - delta: NaN at t = 0 for delta 2.0, not for delta up to 1.0."""
    doc = ring_config(delta=delta, T=4.0, h=0.1)
    doc["subsystems"][0]["rhs"] = [f"-3*x_1 + 0.1*v_1[-{delta!r}]^0.5"]
    doc["simulation"]["history"][0] = {"type": "expression", "exprs": ["1 + t"]}
    return doc


def count_calls(monkeypatch, modules, name):
    """Count the calls of function name through every given module binding."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted)
    return calls


def read_json(out_dir, name):
    return json.loads((out_dir / name).read_text())


def plain_sweep_doc(key, value):
    """The ring a sweep child runs, written without the sweep."""
    if key == "delta":
        return ring_config(delta=value, T=4.0)
    doc = ring_config(T=4.0)
    doc["gains"]["edges"] = {e: f"{value!r}*({g})" for e, g in doc["gains"]["edges"].items()}
    return doc


def assert_sweep_matches_plain_runs(tmp_path, capsys, key, values, options):
    """Each sweep child's stdout lines and artifacts are those of a plain
    verify run of its config."""
    out = tmp_path / "sweep"
    spec = f"{key}=" + ",".join(repr(v) for v in values)
    cmd = ["verify", ring_doc(tmp_path, T=4.0), "--out", str(out), "--sweep", spec, *options]
    sweep_code = main(cmd)
    sweep_lines = capsys.readouterr().out.splitlines()
    expected_lines, codes = [], []
    for v in values:
        plain = tmp_path / f"plain_{v!r}"
        cfg = write_doc(tmp_path, plain_sweep_doc(key, v), name=f"ring_{v!r}.json")
        codes.append(main(["verify", cfg, "--out", str(plain), *options]))
        expected_lines += [f"[{key}={v!r}] {line}" for line in capsys.readouterr().out.splitlines()]
        assert_same_artifacts(out / f"{key}_{v!r}", plain)
    assert sweep_code == max(codes)
    assert sweep_lines == expected_lines + [
        f"sweep: {len(values)} runs, worst exit code {max(codes)}"
    ]


def assert_same_artifacts(child, plain):
    """Same files with the same bytes; the manifests differ only in paths."""
    names = sorted(p.name for p in child.iterdir())
    assert names == sorted(p.name for p in plain.iterdir())
    for name in names:
        if name == "manifest.json":
            a, b = read_json(child, name), read_json(plain, name)
            for doc in (a, b):
                del doc["out"], doc["config"]
            assert a == b
        else:
            assert (child / name).read_bytes() == (plain / name).read_bytes(), name


class TestExample:
    def test_stdout(self, capsys):
        assert main(["example"]) == 0
        doc = json.loads(capsys.readouterr().out)
        cfg = parse_system(doc)
        assert cfg.k == 3

    def test_to_file(self, tmp_path):
        target = tmp_path / "sub" / "ring.json"
        assert main(["example", "--out", str(target)]) == 0
        assert parse_system(json.loads(target.read_text())).k == 3


class TestAnalyze:
    def test_verified_ring(self, tmp_path):
        out = tmp_path / "out"
        code = main(["analyze", ring_doc(tmp_path), "--out", str(out)])
        assert code == 0
        reports = read_json(out, "cycle_reports.json")
        assert reports["status"] == "verified_on_grid"
        assert len(reports["cycles"]) == 1
        assert reports["cycles"][0]["cycle"] == [1, 2, 3]
        assert reports["cycles"][0]["verdict"]["margin"] == pytest.approx(
            0.6246825822137088, rel=1e-9
        )
        closed = read_json(out, "closed_loop_gains.json")
        assert set(closed["nodes"]) == {"1", "2", "3"}
        manifest = read_json(out, "manifest.json")
        assert manifest["subcommand"] == "analyze"
        assert manifest["exit_code"] == 0
        assert "cycle_reports.json" in manifest["artifacts"]

    def test_violation_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["analyze", violating_doc(tmp_path), "--out", str(out)])
        assert code == 2
        assert "VIOLATED" in capsys.readouterr().out
        reports = read_json(out, "cycle_reports.json")
        assert reports["status"] == "violated"
        assert not (out / "closed_loop_gains.json").exists()

    def test_inconclusive_exits_3(self, tmp_path):
        # Gains compose to (1 - 1e-15) s: below identity but inside the
        # grid's margin of error.
        doc = {
            "k": 2,
            "delays": [],
            "subsystems": [{"rhs": ["-x_1"]}, {"rhs": ["-x_2"]}],
            "gains": {
                "edges": {"1,2": "0.999999999999999*s", "2,1": "s"},
                "sigma": {"1": "s", "2": "s"},
            },
        }
        code = main(["analyze", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_grid_points_override(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["analyze", ring_doc(tmp_path), "--out", str(out), "--grid-points", "128"]
        )
        assert code == 0
        assert read_json(out, "manifest.json")["options"]["grid_points"] == 128


class TestSimulate:
    def test_ring_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", ring_doc(tmp_path), "--out", str(out)])
        assert code == 0
        meta = read_json(out, "trajectory_meta.json")
        assert meta["blow_up"] is False
        assert meta["requested_T"] == 2.0
        lines = (out / "trajectory.csv").read_text().strip().split("\n")
        assert lines[0] == "t,x_1,x_2,x_3"
        # 100 history rows (theta/h) plus 201 integration nodes.
        assert len(lines) == 1 + 100 + 201

    def test_horizon_and_step_overrides(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["simulate", ring_doc(tmp_path), "--out", str(out), "--horizon", "1.0", "--step", "0.02"]
        )
        assert code == 0
        meta = read_json(out, "trajectory_meta.json")
        assert meta["requested_T"] == 1.0
        assert meta["h"] == 0.02

    def test_blow_up_exits_4(self, tmp_path):
        doc = {
            "k": 1,
            "delays": [],
            "subsystems": [{"rhs": ["x_1^2"]}],
            "gains": {"sigma": {"1": "2*s"}},
            "simulation": {"T": 1.0, "h": 0.001, "history": [[2.0]]},
        }
        out = tmp_path / "out"
        code = main(["simulate", write_doc(tmp_path, doc), "--out", str(out)])
        assert code == 4
        meta = read_json(out, "trajectory_meta.json")
        assert meta["blow_up"] is True
        assert 0.45 < meta["escape_time"] < 0.55

    def test_zero_horizon(self, tmp_path):
        doc = {
            "k": 1,
            "delays": [],
            "subsystems": [{"rhs": ["-x_1"]}],
            "gains": {"sigma": {"1": "2*s"}},
            "simulation": {"T": 0.0, "h": 0.1, "history": [[1.0]]},
        }
        out = tmp_path / "out"
        code = main(["simulate", write_doc(tmp_path, doc), "--out", str(out)])
        assert code == 0
        lines = (out / "trajectory.csv").read_text().strip().split("\n")
        assert len(lines) == 2

    def test_missing_simulation_section(self, tmp_path):
        doc = ring_config()
        del doc["simulation"]
        code = main(["simulate", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert code == 1


class TestVerify:
    def test_full_pipeline(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify", ring_doc(tmp_path, T=10.0), "--out", str(out)])
        assert code == 0
        bounds = read_json(out, "bound_reports.json")
        assert set(bounds) == {"gs", "ag", "gas"}
        assert all(rep["holds"] for rep in bounds.values())
        manifest = read_json(out, "manifest.json")
        assert manifest["exit_code"] == 0
        for name in (
            "cycle_reports.json",
            "closed_loop_gains.json",
            "trajectory.csv",
            "trajectory_meta.json",
            "bound_reports.json",
        ):
            assert name in manifest["artifacts"]
        text = capsys.readouterr().out
        assert "GS" in text and "GAS" in text

    def test_cycles_checked_once(self, tmp_path, monkeypatch):
        import smallgain.cli
        import smallgain.reduction

        calls = count_calls(monkeypatch, (smallgain.cli, smallgain.reduction), "check_cyclic_small_gain")
        out = tmp_path / "out"
        assert main(["verify", ring_doc(tmp_path, T=10.0), "--out", str(out)]) == 0
        assert len(calls) == 1
        assert read_json(out, "closed_loop_gains.json")["k"] == 3

    def test_refusal_on_violation(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify", violating_doc(tmp_path), "--out", str(out)])
        assert code == 2
        assert "refusing" in capsys.readouterr().out
        assert not (out / "trajectory.csv").exists()
        assert not (out / "bound_reports.json").exists()

    def test_force_simulate(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["verify", violating_doc(tmp_path), "--out", str(out), "--force-simulate"]
        )
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert not (out / "bound_reports.json").exists()
        manifest = read_json(out, "manifest.json")
        assert manifest["bounds_checked"] is False

    def test_run_selection(self, tmp_path):
        doc = ring_config(T=2.0)
        doc["checks"]["run"] = ["gs"]
        out = tmp_path / "out"
        code = main(["verify", write_doc(tmp_path, doc), "--out", str(out)])
        assert code == 0
        assert set(read_json(out, "bound_reports.json")) == {"gs"}

    def test_gas_with_inputs_rejected(self, tmp_path):
        doc = {
            "k": 1,
            "delays": [],
            "subsystems": [{"rhs": ["-x_1 + u_1"], "input_dim": 1}],
            "gains": {"input": {"1": "s"}, "sigma": {"1": "2*s"}},
            "simulation": {
                "T": 1.0,
                "h": 0.1,
                "history": [[1.0]],
                "inputs": [{"type": "constant", "values": [0.1]}],
            },
            "checks": {"run": ["gas"]},
        }
        code = main(["verify", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_bound_violation_exits_5(self, tmp_path):
        # Sigma 0.5 s undersells the unit history, so GS fails on contact.
        doc = {
            "k": 1,
            "delays": [],
            "subsystems": [{"rhs": ["-x_1"]}],
            "gains": {"sigma": {"1": "0.5*s"}},
            "simulation": {"T": 2.0, "h": 0.01, "history": [[1.0]]},
            "checks": {"run": ["gs"]},
        }
        out = tmp_path / "out"
        code = main(["verify", write_doc(tmp_path, doc), "--out", str(out)])
        assert code == 5
        report = read_json(out, "bound_reports.json")["gs"]
        assert report["holds"] is False
        assert report["witness"] is not None


class TestSweep:
    def test_delta_sweep(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "verify",
                ring_doc(tmp_path, T=10.0),
                "--out",
                str(out),
                "--sweep",
                "delta=0.5,1.0",
            ]
        )
        assert code == 0
        manifest = read_json(out, "manifest.json")
        assert manifest["sweep_key"] == "delta"
        assert [r["value"] for r in manifest["runs"]] == [0.5, 1.0]
        assert manifest["exit_code"] == 0
        for sub in ("delta_0.5", "delta_1.0"):
            child = read_json(out / sub, "manifest.json")
            assert child["exit_code"] == 0
            assert child["options"]["sweep"] is None
            assert (out / sub / "trajectory.csv").exists()
        # The delay rewrite must reach the dynamics, not just the header.
        meta = read_json(out / "delta_0.5", "trajectory_meta.json")
        assert meta["delays"] == [0.5]

    def test_sweep_children_match_plain_runs(self, tmp_path, capsys):
        # Not sorted: children run in the given order.
        assert_sweep_matches_plain_runs(tmp_path, capsys, "delta", (1.0, 0.5, 2.0), [])

    @pytest.mark.parametrize(
        "values, options", [((1.0, 3.0, 0.5), []), ((3.0, 1.0), ["--force-simulate"])]
    )
    def test_gain_scale_children_match_plain_runs(self, tmp_path, capsys, values, options):
        assert_sweep_matches_plain_runs(tmp_path, capsys, "gain_scale", values, options)

    @pytest.mark.parametrize("spec", ["delta=0.5,1.0,2.0", "gain_scale=0.5,1.0,3.0"])
    def test_sweep_simulates_once(self, tmp_path, monkeypatch, spec):
        import smallgain
        import smallgain.cli
        import smallgain.sim

        calls = count_calls(monkeypatch, (smallgain.sim, smallgain, smallgain.cli), "simulate")
        out = tmp_path / "out"
        main(["verify", ring_doc(tmp_path, T=4.0), "--out", str(out), "--sweep", spec])
        assert len(calls) == 1
        runs = read_json(out, "manifest.json")["runs"]
        assert sum((out / r["dir"] / "trajectory.csv").exists() for r in runs) == (
            3 if spec.startswith("delta") else 2
        )

    @pytest.mark.parametrize(
        "spec, cycle_checks", [("delta=0.5,1.0,2.0", 1), ("gain_scale=0.5,1.0,3.0", 3)]
    )
    def test_delta_sweep_checks_cycles_once(self, tmp_path, monkeypatch, spec, cycle_checks):
        import smallgain.cli
        import smallgain.reduction

        calls = count_calls(monkeypatch, (smallgain.cli, smallgain.reduction), "check_cyclic_small_gain")
        main(["verify", ring_doc(tmp_path, T=4.0), "--out", str(tmp_path / "out"), "--sweep", spec])
        assert len(calls) == cycle_checks

    def test_delta_union_is_one_generated_network(self):
        docs = [_sweep_doc(ring_config(), "delta", d) for d in (0.5, 1.0, 2.0)]
        union = _union_doc(docs)
        assert union["subsystems"][3]["rhs"] == ["-3*x_4 + v_5[-1.0]^2/(1+v_5[-1.0]^2)"]
        system = parse_system(union).system
        assert system.k == 9 and system.delays == (0.5, 1.0, 2.0)
        assert system.rhs.__code__.co_filename == "<network rhs>"
        pair = {"k": 1, "delays": [0.2], "subsystems": [{"rhs": ["-x_1_1 + u_1", "exp(-v_1_2[-0.2])"], "input_dim": 1}]}
        assert _union_doc([pair, pair])["subsystems"][1]["rhs"] == ["-x_2_1 + u_2", "exp(-v_2_2[-0.2])"]

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "delta=2.0,1.0"]])
    def test_nan_is_one_error_line(self, tmp_path, sweep):
        proc = subprocess.run(
            [sys.executable, "-m", "smallgain", "verify", write_doc(tmp_path, nan_ring(2.0)),
             "--out", str(tmp_path / "out"), *sweep],
            env=subprocess_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("error: NaN in right-hand side evaluation"), proc.stderr

    def test_simulation_error_in_second_child(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["verify", write_doc(tmp_path, nan_ring(1.0)), "--out", str(out), "--sweep", "delta=0.5,2.0"])
        captured = capsys.readouterr()
        expected_out, expected_err, codes = [], [], []
        for d in (0.5, 2.0):
            plain = tmp_path / f"plain_{d!r}"
            cfg = write_doc(tmp_path, nan_ring(d), name=f"ring_{d!r}.json")
            codes.append(main(["verify", cfg, "--out", str(plain)]))
            plain_run = capsys.readouterr()
            expected_out += [f"[delta={d!r}] {line}" for line in plain_run.out.splitlines()]
            expected_err += plain_run.err.splitlines()
            assert_same_artifacts(out / f"delta_{d!r}", plain)
        assert codes[1] == code == 1
        assert len(expected_err) == 1 and expected_err[0].startswith("error: NaN in right-hand side")
        assert captured.out.splitlines() == expected_out
        assert captured.err.splitlines() == expected_err
        assert not (out / "manifest.json").exists()
        assert not (out / "delta_2.0" / "trajectory.csv").exists()

    def test_gain_scale_sweep_reports_worst_code(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "verify",
                ring_doc(tmp_path, T=10.0),
                "--out",
                str(out),
                "--sweep",
                "gain_scale=1.0,3.0",
            ]
        )
        assert code == 2
        manifest = read_json(out, "manifest.json")
        codes = {r["value"]: r["exit_code"] for r in manifest["runs"]}
        assert codes == {1.0: 0, 3.0: 2}

    def test_bad_sweep_specs(self, tmp_path):
        cfg = ring_doc(tmp_path)
        specs = ("delta", "delta=", "radius=1,2", "delta=1,-2", "delta=a,b", "delta=0.5,0.5", "delta=0.5,0.50")
        for spec in specs:
            assert main(["verify", cfg, "--out", str(tmp_path / "x"), "--sweep", spec]) == 1
            assert not (tmp_path / "x").exists()

    def test_step_must_divide_every_child_delay(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify", ring_doc(tmp_path), "--out", str(out), "--sweep", "delta=0.5,0.015"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: step h=0.01 must divide every delay; delay 0.015 is 1.5 steps\n"
        assert not out.exists()

    def test_delta_sweep_needs_single_delay(self, tmp_path):
        doc = ring_config(T=1.0)
        doc["delays"] = [1.0, 2.0]
        doc["subsystems"][0]["rhs"] = ["-3*x_1 + v_2[-1.0]^2/(1+v_2[-2.0]^2)"]
        cfg = write_doc(tmp_path, doc)
        assert main(["verify", cfg, "--out", str(tmp_path / "x"), "--sweep", "delta=1.0"]) == 1


class TestErrors:
    def test_missing_file(self, tmp_path):
        assert main(["analyze", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")]) == 1

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["analyze", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_no_config_given(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["analyze"])
        assert exc_info.value.code == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 1

    def test_config_flag_equivalent_to_positional(self, tmp_path):
        cfg = ring_doc(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["analyze", cfg, "--out", str(out1)]) == 0
        assert main(["analyze", "--config", cfg, "--out", str(out2)]) == 0
        a = read_json(out1, "cycle_reports.json")
        b = read_json(out2, "cycle_reports.json")
        assert a == b

    def test_horizon_without_simulation_section(self, tmp_path):
        doc = ring_config()
        del doc["simulation"]
        cfg = write_doc(tmp_path, doc)
        assert main(["verify", cfg, "--out", str(tmp_path / "o"), "--horizon", "1.0"]) == 1

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_step_must_divide_delay(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        code = main([command, write_doc(tmp_path, ring_config(delta=0.015)), "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: step h=0.01 must divide every delay; delay 0.015 is 1.5 steps\n"
        assert not out.exists()

    def test_bad_tail_fraction(self, tmp_path):
        cfg = ring_doc(tmp_path)
        code = main(["verify", cfg, "--out", str(tmp_path / "o"), "--tail-fraction", "1.5"])
        assert code == 1

    @pytest.mark.parametrize(
        "option, value, fragment",
        [
            ("--horizon", "-1", "horizon T"),
            ("--horizon", "inf", "horizon T"),
            ("--horizon", "nan", "horizon T"),
            ("--step", "0", "step h"),
            ("--step", "inf", "step h"),
            ("--grid-points", "1", "--grid-points"),
        ],
    )
    def test_out_of_range_overrides(self, tmp_path, capsys, option, value, fragment):
        cfg = ring_doc(tmp_path)
        code = main(["verify", cfg, "--out", str(tmp_path / "o"), option, value])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and fragment in err[0]

    @pytest.mark.parametrize(
        "old, new, fragment",
        [
            ('"T": 2.0', '"T": 1e999', "horizon T"),
            ('"h": 0.01', '"h": 1e999', "step h"),
            ('"3,1": "s^2"', '"3,1": "1e999*s"', "'1e999' is beyond"),
            ('"-3*x_1 + ', '"-3*x_1 + 1e999*v_2[-1.0] + ', "'1e999' is beyond"),
            ("v_3[-1.0]^3", "v_3[-1e999]^3", "'1e999' is beyond"),
            ("[1.0], [1.0], [1.0]", '[1.0], [1.0], {"type": "expression", "exprs": ["1e999*t"]}',
             "'1e999' is beyond"),
        ],
    )
    def test_out_of_range_config_numbers(self, tmp_path, capsys, old, new, fragment):
        text = json.dumps(ring_config(T=2.0))
        assert old in text
        path = tmp_path / "config.json"
        path.write_text(text.replace(old, new, 1))
        code = main(["verify", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and fragment in err[0]


class TestDeterminism:
    def test_identical_runs_from_different_directories(self, tmp_path):
        """Same config, seed, and relative --out from two working
        directories must produce byte-identical artifacts."""
        doc = ring_config(T=10.0)
        dirs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            (d / "config.json").write_text(json.dumps(doc))
            proc = subprocess.run(
                [sys.executable, "-m", "smallgain", "verify", "config.json",
                 "--out", "result", "--seed", "0"],
                cwd=d,
                env=subprocess_env(),
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            dirs.append(d / "result")
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
