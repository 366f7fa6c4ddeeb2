import json
import math
import pathlib
import re
import shlex
import tracemalloc
import warnings

import numpy as np
import pytest

import neharifrac as nf
from neharifrac import cli
from neharifrac import form as form_mod
from neharifrac import problem as problem_mod
from neharifrac.errors import NehariError
from neharifrac import solver
from neharifrac import thresholds


BASE_CONFIG = {
    "grid": {"left": -1.0, "right": 1.0, "cells": 48},
    "s": 0.4, "q": 0.5, "alpha": 1.5, "beta": 1.5,
    "lambda": 0.01, "mu": 0.01,
    "f": {"kind": "constant", "value": 1.0},
    "g": {"kind": "constant", "value": 1.0},
    "b": {"kind": "cos_pi_x", "amplitude": 1.0},
    "solver": {"restarts": 2, "seed": 1},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    # a dict updates the block it names, except that a weight given with its
    # kind replaces the whole weight: a new kind takes none of the old keys
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict) and "kind" not in value:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_constants_fixture(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["constants", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["in_gamma"] is True
    assert 0 < report["Lambda"] < report["C"]
    assert report["q_star"] == pytest.approx(1.2)


def test_constants_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["constants", str(path)]) == 2


def test_config_root_must_be_a_json_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([BASE_CONFIG]))
    assert cli.main(["constants", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: config root must be a JSON object\n"
    assert captured.out == ""


def test_constants_missing_field(tmp_path):
    path = tmp_path / "missing.json"
    cfg = json.loads(json.dumps(BASE_CONFIG))
    del cfg["s"]
    path.write_text(json.dumps(cfg))
    assert cli.main(["constants", str(path)]) == 2


def test_constants_invalid_value(tmp_path):
    path = write_config(tmp_path, {"q": 1.5})
    assert cli.main(["constants", path]) == 3


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("command", ["constants", "solve"])
def test_nonfinite_parameter_is_a_validation_error(tmp_path, capsys, command, value):
    # json writes these as NaN / Infinity / -Infinity, which json.load accepts
    path = write_config(tmp_path, {"lambda": value})
    args = [command, path] + (["--out", str(tmp_path / "run")] if command == "solve" else [])
    assert cli.main(args) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error:") and "lambda" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_nonfinite_solver_option_is_a_validation_error(tmp_path, capsys, value):
    for option in ("seed", "restarts"):
        path = write_config(tmp_path, {"solver": {option: value}})
        assert cli.main(["solve", path, "--out", str(tmp_path / "run")]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("validation error:") and option in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("override", [
    {"s": "abc"}, {"grid": {"cells": 12.7}}, {"grid": {"cells": math.inf}},
    # weight parameters: missing or non-numeric (b starts as cos_pi_x)
    {"b": {"kind": "constant"}}, {"f": {"value": "abc"}},
    {"g": {"kind": "gaussian", "center": 0.0, "width": 1.0}},
    {"b": {"kind": "samples"}}, {"b": {"kind": "samples", "values": 5}},
    # a key the weight's kind does not read
    {"f": {"amplitude": 7}}, {"b": {"kind": "samples", "values": [1.0] * 49, "scale": 2.0}},
    # a solver block that is no JSON object
    {"solver": 5}, {"solver": "ab"}, {"solver": [1, 2]},
])
def test_mistyped_config_value_is_a_config_error(tmp_path, capsys, override):
    path = write_config(tmp_path, override)
    commands = [["solve", path, "--out", str(tmp_path / "run")],
                ["sweep", path, "--lambdas", "0.01", "--mus", "0.01",
                 "--out", str(tmp_path / "sweep.csv")]]
    if "solver" not in override:  # the other commands read no solver block
        commands += [["constants", path], ["fiber", path, "--out", str(tmp_path / "f.csv")]]
    for argv in commands:
        assert cli.main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert captured.out == ""
    assert not (tmp_path / "run").exists() and not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("option,value", [("restarts", 1.5), ("seed", 0.5), ("restarts", "3"),
                                          ("seed", -1)])
def test_non_integer_solver_option_is_a_validation_error(tmp_path, capsys, option, value):
    path = write_config(tmp_path, {"solver": {option: value}})
    assert cli.main(["solve", path, "--out", str(tmp_path / "run")]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error:") and option in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("option,value", [("max_iters", 2000), ("step", 0.5),
                                          ("tol_energy", 1e-10), ("tol_manifold", 1e-8),
                                          ("eps_singular", 1e-8)])
def test_removed_solver_option_is_a_config_error(tmp_path, capsys, option, value):
    # the solver block takes seed and restarts alone; the descent's other
    # settings are module constants, so a config that sets one, even to the
    # value it used to default to, fails before anything is written
    path = write_config(tmp_path, {"solver": {option: value}})
    commands = [["solve", path, "--out", str(tmp_path / "run")],
                ["sweep", path, "--lambdas", "0.01", "--mus", "0.01",
                 "--out", str(tmp_path / "sweep.csv")]]
    for argv in commands:
        assert cli.main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: unknown solver option:")
        assert repr(option) in captured.err and captured.out == ""
    assert not (tmp_path / "run").exists() and not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["solve", "sweep", "fiber"])
def test_negative_seed_flag_is_a_validation_error(tmp_path, capsys, command):
    # numpy's generator rejects a negative seed; the options reject it first
    path = write_config(tmp_path)
    out = tmp_path / ("run" if command == "solve" else f"{command}.csv")
    extra = ["--lambdas", "0.01", "--mus", "0.01"] if command == "sweep" else []
    flag = "--direction-seed" if command == "fiber" else "--seed"
    assert cli.main([command, path, *extra, flag, "-5", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error:") and "seed" in captured.err
    assert captured.out == "" and not out.exists()


def test_solve_both_writes_files_and_gap(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve", path, "--branch", "both", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    plus = json.loads((out / "solution_plus.json").read_text())
    minus = json.loads((out / "solution_minus.json").read_text())
    gap = json.loads((out / "gap.json").read_text())
    assert plus["branch"] == "plus" and minus["branch"] == "minus"
    assert plus["converged"] and minus["converged"]
    assert plus["J"] < 0
    assert gap["ordering_ok"] is True
    assert summary["problem_hash"] == plus["problem_hash"] == minus["problem_hash"]
    assert len(plus["u"]) == BASE_CONFIG["grid"]["cells"] + 1
    assert "timings_ms" in summary
    # stationarity is reported on stdout only, never in the solution files
    for branch, sol in (("plus", plus), ("minus", minus)):
        assert 0 <= summary["solutions"][branch]["stationarity"] < 1e-4
        assert "stationarity" not in sol


@pytest.mark.parametrize("cells", [48, form_mod.MATRIX_FREE_CELLS])
def test_solve_times_the_riesz_setup_apart_from_the_descents(tmp_path, capsys, cells):
    # the factors the first Riesz map builds are timed under their own key,
    # and building them ahead of the descents changes no persisted byte
    path = write_config(tmp_path, {"grid": {"cells": cells}})
    out = tmp_path / "run"
    assert cli.main(["solve", path, "--branch", "both", "--out", str(out)]) == 0
    timings = json.loads(capsys.readouterr().out)["timings_ms"]
    assert list(timings) == ["assemble_ms", "riesz_setup_ms", "descent_ms", "constants_ms"]
    cfg, problem = cli._load(path)
    opts = cli.solver_options_from_config(cfg)
    form = cli.assemble_form(problem.grid, problem.s)
    for branch, [report] in cli.solve_points([problem], form, list(cli.Branch), opts).items():
        expected = tmp_path / f"expected_{branch.value}.json"
        cli._write_json(str(expected), cli.solution_to_json(report, cli.problem_hash(cfg), form))
        assert (out / f"solution_{branch.value}.json").read_bytes() == expected.read_bytes()


def test_solve_deterministic_bytes(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", path, "--branch", "both", "--out", str(out1),
                     "--seed", "7"]) == 0
    assert cli.main(["solve", path, "--branch", "both", "--out", str(out2),
                     "--seed", "7"]) == 0
    for name in ("solution_plus.json", "solution_minus.json", "gap.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_gap_file_key_order(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve", path, "--branch", "both", "--out", str(out)]) == 0
    gap = json.loads((out / "gap.json").read_text())
    assert list(gap) == ["norm_plus", "norm_minus", "A0", "A_lm", "ordering_ok"]


def test_solve_rejects_never_positive_coupling_weight(tmp_path):
    path = write_config(tmp_path, {"b": {"kind": "constant", "value": -1.0}})
    assert cli.main(["solve", path, "--branch", "minus", "--out", str(tmp_path)]) == 3


def test_coupling_weight_positive_only_on_the_boundary_is_rejected(tmp_path, capsys):
    # b > 0 only at the node x = 1; the discrete B sums interior nodes, so
    # no direction has B > 0 and the minus branch is unreachable
    cfg = {"grid": {"cells": 32}, "solver": {"restarts": 8, "seed": 0},
           "b": {"kind": "linear_x", "slope": 1.0, "offset": -0.95}}
    path = write_config(tmp_path, cfg)
    for args in (["constants", path],
                 ["solve", path, "--branch", "minus", "--out", str(tmp_path / "run")]):
        assert cli.main(args) == 3
        assert capsys.readouterr().err.startswith("validation error:")
    cfg["b"]["offset"] = -0.9
    path = write_config(tmp_path, cfg, name="interior.json")
    assert cli.main(["solve", path, "--branch", "both", "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize("branch", ["plus", "both"])
def test_solve_exit_code_no_direction(tmp_path, capsys, branch):
    # negative parameters pass validation but admit no descent direction;
    # the first branch asked for fails the run before any file is written
    path = write_config(tmp_path, {"lambda": -0.01, "mu": -0.01})
    out = tmp_path / "run"
    assert cli.main(["solve", path, "--branch", branch, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(
        "no admissible direction: all 2 restarts failed to reach branch plus; ")
    assert not out.exists()


def test_fiber_without_an_admissible_direction_exits_4(tmp_path, capsys):
    # the same parameters as above: fiber searches directions as solve
    # does, and fails the same way before its CSV is written
    path = write_config(tmp_path, {"lambda": -0.01, "mu": -0.01})
    out = tmp_path / "fiber.csv"
    assert cli.main(["fiber", path, "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        "no admissible direction: found no direction with positive singular integral "
        "in 1000 samples\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["constants", "solve"])
def test_a_samples_weight_that_does_not_fit_the_grid_is_a_validation_error(tmp_path, capsys,
                                                                            command):
    path = write_config(tmp_path, {"b": {"kind": "samples", "values": [0.0, 1.0, 0.0]}})
    out = tmp_path / "run"
    args = [command, path] + (["--out", str(out)] if command == "solve" else [])
    assert cli.main(args) == 3
    captured = capsys.readouterr()
    assert captured.err == ("validation error: weight b: samples weight has 3 entries, "
                            "grid has 49 nodes\n")
    assert captured.out == ""
    assert not out.exists()


def test_solve_exit_code_not_converged(monkeypatch, tmp_path):
    # one iteration stops no row on its energy tolerance
    monkeypatch.setattr(solver, "MAX_ITERS", 1)
    path = write_config(tmp_path, {"solver": {"restarts": 1}})
    out = tmp_path / "u"
    assert cli.main(["solve", path, "--branch", "plus", "--out", str(out)]) == 5
    assert cli.main(["solve", path, "--branch", "plus", "--out", str(out),
                     "--allow-unconverged"]) == 0


# the README config far out on the ray lambda = mu, with its 8 restarts
RAY_160 = {"lambda": 160.0, "mu": 160.0, "solver": {"restarts": 8, "seed": 0}}


@pytest.mark.parametrize("cells", [64, 128])
def test_solve_far_outside_the_region_is_not_converged(tmp_path, capsys, cells):
    # each branch stops at the edge of its part of the manifold, inside its
    # band but at stationarity 0.1-0.19: no solution, so solve exits 5
    path = write_config(tmp_path, {**RAY_160, "grid": {"cells": cells}})
    out = tmp_path / "ray"
    assert cli.main(["solve", path, "--branch", "both", "--out", str(out)]) == 5
    capsys.readouterr()
    assert cli.main(["solve", path, "--branch", "both", "--out", str(out),
                     "--allow-unconverged"]) == 0
    summary = json.loads(capsys.readouterr().out)
    for branch in ("plus", "minus"):
        assert json.loads((out / f"solution_{branch}.json").read_text())["converged"] is False
        assert summary["solutions"][branch]["stationarity"] > solver.TOL_STATIONARITY
    assert summary["gap"] is None and not (out / "gap.json").exists()


def test_sweep_reads_a_point_far_outside_the_region_as_not_converged(tmp_path):
    path = write_config(tmp_path, {**RAY_160, "grid": {"cells": 64}})
    out = tmp_path / "ray.csv"
    assert cli.main(["sweep", path, "--lambdas", "0.01,160", "--mus", "0.01,160",
                     "--out", str(out)]) == 0
    rows = {(float(r["lambda"]), float(r["mu"])): r for r in _read_sweep(out)}
    assert len(rows) == 4
    assert rows[160.0, 160.0]["plus_converged"] == rows[160.0, 160.0]["minus_converged"] == "false"
    assert rows[0.01, 0.01]["plus_converged"] == rows[0.01, 0.01]["minus_converged"] == "true"


MIXED_SIGN = {"grid": {"cells": 32}, "lambda": -0.01, "mu": 0.01,
              "solver": {"restarts": 8, "seed": 0}}


def test_solve_vanished_component_is_not_converged(tmp_path):
    # lambda < 0 drives u to zero on the local-min branch; the system asks
    # for u, w > 0, so the branch must not be reported as converged
    path = write_config(tmp_path, MIXED_SIGN)
    out = tmp_path / "mixed"
    assert cli.main(["solve", path, "--branch", "plus", "--out", str(out)]) == 5
    sol = json.loads((out / "solution_plus.json").read_text())
    assert max(sol["u"]) == 0.0
    assert sol["converged"] is False


def test_verify_vanished_component_is_a_named_error(tmp_path, capsys):
    path = write_config(tmp_path, MIXED_SIGN)
    out = tmp_path / "mixed"
    cli.main(["solve", path, "--branch", "plus", "--out", str(out)])
    capsys.readouterr()
    assert cli.main(["verify", path, "--solution",
                     str(out / "solution_plus.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("delta", ["nan", "inf", "0", "-1"])
def test_verify_rejects_a_bad_delta(tmp_path, capsys, delta):
    # an infinite delta would pass a bare > 0 test and mask every node
    path = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve", path, "--branch", "plus", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", path, "--solution", str(out / "solution_plus.json"),
                     "--delta", delta]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error:") and "--delta" in captured.err
    assert captured.out == ""


def test_verify_takes_a_valid_delta(tmp_path, capsys):
    # a larger delta masks every node the default masks, and more
    path = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve", path, "--branch", "plus", "--out", str(out)]) == 0
    solution = str(out / "solution_plus.json")
    capsys.readouterr()
    assert cli.main(["verify", path, "--solution", solution]) == 0
    default = json.loads(capsys.readouterr().out)["residual"]
    delta = 10 * default["delta"]
    assert cli.main(["verify", path, "--solution", solution, "--delta", repr(delta)]) == 0
    residual = json.loads(capsys.readouterr().out)["residual"]
    assert residual["delta"] == delta
    assert residual["masked_fraction"] >= default["masked_fraction"]


@pytest.mark.parametrize("res_tol", ["nan", "inf", "0", "-1"])
def test_verify_rejects_a_bad_residual_tolerance(tmp_path, capsys, res_tol):
    path = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve", path, "--branch", "plus", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", path, "--solution", str(out / "solution_plus.json"),
                     "--res-tol", res_tol]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error:") and "--res-tol" in captured.err
    assert captured.out == ""


def test_sweep_grid(tmp_path):
    path = write_config(tmp_path, {"grid": {"cells": 32}})
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", path,
                     "--lambdas", "0.005,0.01,50.0",
                     "--mus", "0.005,0.01,50.0",
                     "--out", str(out), "--seed", "2"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("lambda,mu,Lambda,C,in_gamma,plus_converged,minus_converged,"
                       "J_plus,J_minus,norm_plus,norm_minus,A0,A_lm,gap_ok")
    assert len(lines) == 10
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    # rows sorted by (lambda, mu)
    keys = [(float(r["lambda"]), float(r["mu"])) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        if r["in_gamma"] == "true" and r["plus_converged"] == "true" \
                and r["minus_converged"] == "true":
            assert r["gap_ok"] == "true"
    # the large-parameter corner leaves the admissible region
    big = [r for r in rows if float(r["lambda"]) == 50.0 and float(r["mu"]) == 50.0]
    assert big and big[0]["in_gamma"] == "false"
    assert float(big[0]["Lambda"]) > float(big[0]["C"])


def test_sweep_deterministic(tmp_path):
    path = write_config(tmp_path, {"grid": {"cells": 32}})
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["--lambdas", "0.01,0.02", "--mus", "0.01", "--seed", "3"]
    assert cli.main(["sweep", path, *args, "--out", str(out1)]) == 0
    assert cli.main(["sweep", path, *args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_records_failed_points_and_continues(tmp_path):
    path = write_config(tmp_path, {"grid": {"cells": 32}})
    out = tmp_path / "failpoint.csv"
    # the (0, 0) point is excluded by validation; the row stays with
    # status columns false and the sweep still completes
    assert cli.main(["sweep", path, "--lambdas", "0.0,0.01", "--mus", "0.0",
                     "--out", str(out), "--seed", "1"]) == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 2
    zero = [r for r in rows if float(r["lambda"]) == 0.0][0]
    assert zero["plus_converged"] == "false" and zero["gap_ok"] == "false"
    assert math.isnan(float(zero["J_plus"]))
    good = [r for r in rows if float(r["lambda"]) == 0.01][0]
    assert good["plus_converged"] == "true"


@pytest.mark.parametrize("lambdas,mus", [("0", "0"), ("nan", "0.01")])
def test_a_sweep_without_a_valid_point_writes_its_failure_row(tmp_path, lambdas, mus):
    # no point is left to descend: the sweep still exits 0 and writes the
    # header and the point's row with every failure column
    path = write_config(tmp_path, {"grid": {"cells": 32}})
    out = tmp_path / "invalid.csv"
    assert cli.main(["sweep", path, "--lambdas", lambdas, "--mus", mus,
                     "--out", str(out), "--seed", "1"]) == 0
    header, line = out.read_text().splitlines()
    assert header == cli.SWEEP_HEADER
    row = dict(zip(header.split(","), line.split(",")))
    assert (row["lambda"], row["mu"]) == (repr(float(lambdas)), repr(float(mus)))
    for key in ("in_gamma", "plus_converged", "minus_converged", "gap_ok"):
        assert row[key] == "false"
    for key in ("Lambda", "C", "J_plus", "J_minus", "norm_plus", "norm_minus", "A0", "A_lm"):
        assert row[key] == "nan"


def test_sweep_nonfinite_points_are_failed_rows(tmp_path):
    path = write_config(tmp_path, {"grid": {"cells": 32}})
    out = tmp_path / "nonfinite.csv"
    assert cli.main(["sweep", path, "--lambdas=nan,inf,-inf,0.01", "--mus", "0.01",
                     "--out", str(out), "--seed", "1"]) == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    # sorted, with NaN last
    assert [r["lambda"] for r in rows] == ["-inf", "0.01", "inf", "nan"]
    for r in rows:
        ok = r["lambda"] == "0.01"
        assert r["plus_converged"] == r["minus_converged"] == ("true" if ok else "false")
        assert math.isnan(float(r["C"])) is not ok


def test_sweep_mixed_sign_parameters(tmp_path):
    # a negative parameter collapses a solution component to zero; the
    # quotient search must skip it rather than lose the whole grid
    path = write_config(tmp_path, {"grid": {"cells": 32}})
    out = tmp_path / "mixed.csv"
    assert cli.main(["sweep", path, "--lambdas=-0.01,0.01", "--mus=0.01,-0.01",
                     "--out", str(out), "--seed", "1"]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == cli.SWEEP_HEADER
    keys = sorted((float(ln.split(",")[0]), float(ln.split(",")[1])) for ln in lines[1:])
    assert keys == [(-0.01, -0.01), (-0.01, 0.01), (0.01, -0.01), (0.01, 0.01)]
    # the collapsed component leaves no positive local-min solution; the
    # local-max branch still has one
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    for r in rows:
        if float(r["lambda"]) * float(r["mu"]) < 0:
            assert r["plus_converged"] == "false"
            assert r["minus_converged"] == "true"


def test_sweep_non_numeric_grid_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {"grid": {"cells": 32}})
    out = tmp_path / "bad.csv"
    assert cli.main(["sweep", path, "--lambdas", "0.01,abc", "--mus", "0.01",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "abc" in err
    assert not out.exists()


def test_sweep_empty_grid_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {"grid": {"cells": 32}})
    out = tmp_path / "empty.csv"
    assert cli.main(["sweep", path, "--lambdas=,", "--mus=0.01", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: empty sweep grid\n"
    assert not out.exists()


def test_sweep_row_with_one_failed_branch(tmp_path):
    # far outside the admissible region the local-max branch has no
    # direction; the row keeps the local-min branch's numbers and the
    # constants. That branch stops at stationarity about 20, far from a
    # solution, so it reads not converged
    path = write_config(tmp_path, {"grid": {"cells": 32}})
    out = tmp_path / "one.csv"
    assert cli.main(["sweep", path, "--lambdas", "1e5", "--mus", "1e5",
                     "--out", str(out), "--seed", "2"]) == 0
    header, line = out.read_text().strip().split("\n")
    row = dict(zip(header.split(","), line.split(",")))
    assert row["plus_converged"] == "false"
    for key in ("J_plus", "norm_plus", "Lambda", "C", "A0", "A_lm"):
        assert math.isfinite(float(row[key]))
    assert row["in_gamma"] == "false"
    assert row["minus_converged"] == "false"
    assert math.isnan(float(row["J_minus"])) and math.isnan(float(row["norm_minus"]))
    assert row["gap_ok"] == "false"


def _read_sweep(path):
    header, *lines = path.read_text().strip().split("\n")
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


@pytest.mark.parametrize("matrix_free", [False, True], ids=["dense", "FFT"])
def test_sweep_rows_are_their_points_lone_solves(tmp_path, monkeypatch, matrix_free):
    # one sweep whose grid holds an invalid point (0, 0), mixed-sign points,
    # points at 1e5 where the local-max branch finds no direction, and
    # admissible points. Every valid point's restarts on both branches
    # descend in one block, and each point comes out as from a solve of its
    # own: on the FFT path bit for bit, on the dense path (whose products
    # round by the block's width) with the same iterations and verdicts
    monkeypatch.setattr(form_mod, "MATRIX_FREE_CELLS", 2 if matrix_free else 10**9)
    path = write_config(tmp_path, {"grid": {"cells": 32}})
    calls = []
    solve_points = cli.solve_points

    def record(problems, form, branches, opts):
        calls.append((problems, form, branches, opts, solve_points(problems, form, branches,
                                                                   opts)))
        return calls[-1][-1]

    monkeypatch.setattr(cli, "solve_points", record)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", path, "--lambdas=0,0.01,1e5", "--mus=-0.01,0,0.01,1e5",
                     "--out", str(out), "--seed", "1"]) == 0
    rows = {(float(r["lambda"]), float(r["mu"])): r for r in _read_sweep(out)}
    assert len(rows) == 12
    assert rows[0.0, 0.0]["plus_converged"] == rows[0.0, 0.0]["minus_converged"] == "false"
    assert math.isnan(float(rows[0.0, 0.0]["C"]))

    seen = set()
    [(problems, form, branches, opts, solved)] = calls
    assert branches == list(nf.Branch) and list(solved) == branches
    assert form.matrix_free is matrix_free
    assert sorted((p.lam, p.mu) for p in problems) == sorted(set(rows) - {(0.0, 0.0)})
    for branch, results in solved.items():
        for problem, result in zip(problems, results):
            row = rows[problem.lam, problem.mu]
            [lone] = nf.solve_points([problem], form, [branch], opts)[branch]
            if isinstance(lone, NehariError):
                assert type(result) is type(lone) and str(result) == str(lone)
                assert row[f"{branch.value}_converged"] == "false"
                assert math.isnan(float(row[f"J_{branch.value}"]))
                seen.add("no direction")
                continue
            assert result.iters == lone.iters and result.converged == lone.converged
            assert row[f"{branch.value}_converged"] == str(lone.converged).lower()
            assert float(row[f"J_{branch.value}"]) == result.J
            if matrix_free:
                assert result.J == lone.J and result.stationarity == lone.stationarity
                assert result.restarts_used == lone.restarts_used
                assert np.array_equal(result.u, lone.u)
                assert np.array_equal(result.w, lone.w)
            else:
                assert result.J == pytest.approx(lone.J, rel=1e-12)
            if problem.lam * problem.mu < 0:
                seen.add("mixed sign")
            if lone.converged:
                seen.add("converged")
    assert seen == {"no direction", "mixed sign", "converged"}


def test_one_block_descent_per_command(tmp_path, monkeypatch):
    # with 2 restarts, a 3x3 sweep descends once, 36 rows of both branches,
    # and so does solve --branch both, 4 rows
    from neharifrac import solver
    widths = []
    descend = solver._descend
    monkeypatch.setattr(solver, "_descend", lambda problems, points, *rest: widths.append(
        (len(problems), len(points))) or descend(problems, points, *rest))
    path = write_config(tmp_path, {"grid": {"cells": 32}})
    assert cli.main(["sweep", path, "--lambdas", "0.005,0.01,0.02", "--mus", "0.005,0.01,0.02",
                     "--out", str(tmp_path / "sweep.csv"), "--seed", "3"]) == 0
    assert widths == [(9, 36)]
    widths.clear()
    assert cli.main(["solve", path, "--branch", "both", "--out", str(tmp_path / "run")]) == 0
    assert widths == [(1, 2 * BASE_CONFIG["solver"]["restarts"])]


def test_sweep_rejects_a_bad_solver_block(tmp_path, capsys):
    # the solver options are shared by every point, so they fail the sweep
    path = write_config(tmp_path, {"grid": {"cells": 32}, "solver": {"restarts": 0}})
    out = tmp_path / "bad.csv"
    assert cli.main(["sweep", path, "--lambdas", "0.01,0.02", "--mus", "0.01",
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("validation error:")
    assert not out.exists()


def test_sweep_assembles_the_form_once(tmp_path, monkeypatch):
    # the form depends only on (grid, s), which every point shares
    path = write_config(tmp_path, {"grid": {"cells": 32}})
    calls = []
    assemble = cli.assemble_form
    monkeypatch.setattr(cli, "assemble_form",
                        lambda grid, s: calls.append((grid, s)) or assemble(grid, s))
    assert cli.main(["sweep", path, "--lambdas", "0.01,0.02", "--mus", "0.005,0.01",
                     "--out", str(tmp_path / "once.csv"), "--seed", "3"]) == 0
    assert len(calls) == 1


def test_dense_inverse_is_built_once_per_solve_and_per_sweep(tmp_path, monkeypatch):
    # both branches, and every sweep point, share the form and its inverse
    path = write_config(tmp_path)
    calls = []
    build = form_mod.riesz_map
    monkeypatch.setattr(form_mod, "riesz_map", lambda form: calls.append(form) or build(form))
    assert cli.main(["solve", path, "--branch", "both", "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == 1
    assert cli.main(["sweep", path, "--lambdas", "0.01,0.02", "--mus", "0.005,0.01",
                     "--out", str(tmp_path / "once.csv"), "--seed", "3"]) == 0
    assert len(calls) == 2


def test_a_sweep_computes_the_weight_norms_once(tmp_path, monkeypatch):
    # the weight norms of f and g depend on neither lambda nor mu: the
    # config's validation computes them, and each point of a 2x2 sweep
    # carries them, so weight_norm runs twice, not twice per point
    path = write_config(tmp_path)
    calls = []
    norm = problem_mod.weight_norm
    monkeypatch.setattr(problem_mod, "weight_norm", lambda *a: calls.append(a) or norm(*a))
    assert cli.main(["sweep", path, "--lambdas", "0.01,0.02", "--mus", "0.005,0.01",
                     "--out", str(tmp_path / "norms.csv"), "--seed", "3"]) == 0
    assert len(calls) == 2


def test_a_sweep_samples_each_branch_once(tmp_path, monkeypatch):
    # one sampler call per branch draws the directions of every point: a
    # 2x2 sweep with 2 restarts asks for 4 points x 2 restarts rows twice
    path = write_config(tmp_path)
    calls = []
    sample = solver.sample_directions

    def counted(problems, form, rngs, branch):
        calls.append((len(problems), len(rngs), branch))
        return sample(problems, form, rngs, branch)

    monkeypatch.setattr(solver, "sample_directions", counted)
    assert cli.main(["sweep", path, "--lambdas", "0.01,0.02", "--mus", "0.005,0.01",
                     "--out", str(tmp_path / "once.csv"), "--seed", "3"]) == 0
    assert calls == [(4, 2, nf.Branch.PLUS), (4, 2, nf.Branch.MINUS)]


def test_one_inverse_iteration_per_S_estimate(tmp_path, monkeypatch, capsys):
    # the candidates only bound S; one refinement of two fixed starts serves
    # constants, a two-branch solve, and all points of a sweep, which share
    # the form and alpha + beta; verify checks at the pair's own quotient
    # and refines nothing
    path = write_config(tmp_path)
    calls = []
    refine = thresholds._inverse_iteration
    monkeypatch.setattr(thresholds, "_inverse_iteration",
                        lambda *a: calls.append(1) or refine(*a))
    assert cli.main(["constants", path]) == 0
    assert len(calls) == 1
    out = tmp_path / "run"
    assert cli.main(["solve", path, "--branch", "both", "--out", str(out)]) == 0
    assert len(calls) == 2
    for name in ("solution_plus.json", "solution_minus.json"):
        assert cli.main(["verify", path, "--solution", str(out / name)]) == 0
    assert len(calls) == 2
    assert cli.main(["sweep", path, "--lambdas", "0.01,0.02", "--mus", "0.005,0.01",
                     "--out", str(tmp_path / "sweep.csv"), "--seed", "3"]) == 0
    assert len(calls) == 3


def _raise(*args):
    raise AssertionError("verify refined S or built the Riesz factors")


@pytest.mark.parametrize("cells", [128, 1024], ids=["dense", "FFT"])
def test_verify_builds_no_riesz_factors(tmp_path, monkeypatch, capsys, cells):
    # verify applies G only: neither the first column of G^{-1} (which the
    # dense inverse and the FFT-path Riesz map both start from) nor the S
    # refinement runs; it applies G twice, once to each component, and the
    # residual, the pair statistics and both quotients read those products
    path = write_config(tmp_path, {"grid": {"cells": cells}})
    out = tmp_path / "run"
    assert cli.main(["solve", path, "--branch", "both", "--out", str(out)]) == 0
    monkeypatch.setattr(form_mod, "inverse_first_column", _raise)
    monkeypatch.setattr(thresholds, "_inverse_iteration", _raise)
    applies = []
    apply = form_mod.GagliardoForm.apply
    monkeypatch.setattr(form_mod.GagliardoForm, "apply",
                        lambda form, x: applies.append(1) or apply(form, x))
    for name in ("solution_plus.json", "solution_minus.json"):
        applies.clear()
        assert cli.main(["verify", path, "--solution", str(out / name)]) == 0
        assert len(applies) == 2


@pytest.mark.parametrize("cells", [64, 128, 1024])
def test_verify_checks_at_the_pair_quotient(tmp_path, capsys, cells):
    # S_pair is the smaller quotient of the two components, the largest S
    # the chains allow for the pair, and no smaller than the refined S of a
    # constants report with the pair as candidates: every check passes there
    path = write_config(tmp_path, {"grid": {"cells": cells}})
    out = tmp_path / "run"
    assert cli.main(["solve", path, "--branch", "both", "--out", str(out)]) == 0
    _, problem = cli._load(path)
    form = nf.assemble_form(problem.grid, problem.s)
    for name in ("solution_plus.json", "solution_minus.json"):
        capsys.readouterr()
        assert cli.main(["verify", path, "--solution", str(out / name)]) == 0
        report = json.loads(capsys.readouterr().out)
        sol = json.loads((out / name).read_text())
        pair = np.array([sol["u"], sol["w"]])[:, 1:-1]
        quotients = [nf.rayleigh_quotient(form, 3.0, c) for c in pair]
        assert report["S_pair"] == min(quotients)
        assert "S_estimate" not in report
        assert all(c["ok"] for c in report["checks"]["checks"])
        assert nf.estimate_S(form, 3.0, list(pair)) <= report["S_pair"]


def test_constants_builds_no_dense_matrix_at_large_n(tmp_path, capsys):
    # a dense form at 2048 cells takes 2047^2 * 8 bytes = 33.5 MB
    path = write_config(tmp_path, {"grid": {"cells": 2048}})
    tracemalloc.start()
    try:
        assert cli.main(["constants", path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert json.loads(capsys.readouterr().out)["S"] > 0


def test_constants_refuses_an_unconverged_first_column(tmp_path, capsys, monkeypatch):
    # one CG iteration cannot reach roundoff, so the Riesz map would be wrong
    monkeypatch.setattr(form_mod, "CG_MAX_ITERS", 1)
    path = write_config(tmp_path, {"grid": {"cells": 1024}})
    assert cli.main(["constants", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: CG for the first column of G^-1 left a residual")
    assert "Traceback" not in captured.err


def test_constants_refuses_an_unfinished_S_refinement(tmp_path, capsys, monkeypatch):
    # two inverse iterations leave S, and so C, too high
    monkeypatch.setattr(thresholds, "MAX_INVERSE_ITERATIONS", 2)
    path = write_config(tmp_path)
    assert cli.main(["constants", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the inverse iteration for S still dropped by")
    assert "after 2 iterations" in captured.err
    assert "Traceback" not in captured.err


# the README config at 64 cells with one change each, at the edges of the
# admissible region: alpha+beta just above 2 (at s = 0.4, and at s = 0.1667
# where the window is narrow) makes the exponents 1/(alpha+beta-2) of C
# overflow, alpha+beta = 8000 the powers of E, and lambda = mu = 1e300 the
# powers of Lambda, and f = 1e308 the weight norm of f; at lambda = mu =
# 1e-300 the descent's first projections leave the float range
EDGE_CONFIGS = {
    "alpha_beta_above_2": {"alpha": 1.0000000005, "beta": 1.0000000005},
    "narrow_window": {"s": 0.1667, "alpha": 1.0001, "beta": 1.0001},
    "huge_alpha_beta": {"s": 0.4999, "alpha": 4000.0, "beta": 4000.0},
    "huge_lambda": {"lambda": 1e300, "mu": 1e300},
    "tiny_lambda": {"lambda": 1e-300, "mu": 1e-300},
    "huge_f": {"f": {"kind": "constant", "value": 1e308}},
}


@pytest.mark.parametrize("command,edge", [
    ("constants", "alpha_beta_above_2"), ("constants", "narrow_window"),
    ("constants", "huge_alpha_beta"), ("constants", "huge_lambda"), ("constants", "huge_f"),
    ("solve", "alpha_beta_above_2"), ("solve", "narrow_window"),
    ("solve", "huge_alpha_beta"), ("solve", "huge_lambda"), ("solve", "tiny_lambda"),
    ("solve", "huge_f"),
])
def test_the_edges_of_the_float_range_are_a_named_error(tmp_path, capsys, command, edge):
    # a closed form or a projection that overflows ends in one error line
    # and exit 1, never a traceback
    path = write_config(tmp_path, {"grid": {"cells": 64}, "solver": {"restarts": 8, "seed": 0},
                                   **EDGE_CONFIGS[edge]})
    args = [command, path] + (["--out", str(tmp_path / "run")] if command == "solve" else [])
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] \
        == captured.err.splitlines()[-1:]
    assert "Traceback" not in captured.err
    assert not (tmp_path / "run").exists()
    if command == "constants":
        assert "overflow the float range" in captured.err
        assert f"s={float(EDGE_CONFIGS[edge].get('s', 0.4))}, alpha+beta=" in captured.err


def test_a_branch_no_restart_reaches_at_the_float_edge_exits_4(tmp_path, capsys):
    # at lambda = mu = 1e300 one restart at seed 0 reaches no branch and none
    # raises, so the run exits 4; with 8 restarts one raises, and the first
    # error wins over a restart that reached the branch (exit 1, above)
    path = write_config(tmp_path, {"grid": {"cells": 64}, "solver": {"restarts": 1, "seed": 0},
                                   **EDGE_CONFIGS["huge_lambda"]})
    assert cli.main(["solve", path, "--out", str(tmp_path / "run")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("no admissible direction: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command,flag,target", [
    ("solve", "--out", "file"), ("sweep", "--out", "directory"),
    ("fiber", "--out", "missing/x.csv"), ("assemble", "--dump-matrix", "directory"),
])
def test_an_output_path_that_cannot_be_written_is_a_named_error(tmp_path, capsys, command,
                                                                  flag, target):
    path = write_config(tmp_path)
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "directory").mkdir()
    extra = ["--lambdas", "0.01", "--mus", "0.01"] if command == "sweep" else []
    assert cli.main([command, path, flag, str(tmp_path / target)] + extra) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert lines and [line for line in lines if line.startswith("error: ")] == lines[-1:]
    assert "Traceback" not in err
    assert (tmp_path / "file").read_text() == "kept\n"
    assert not any((tmp_path / "directory").iterdir())


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_verify_at_the_edges_of_the_float_range_is_a_named_error(tmp_path, capsys, scale):
    # a solution scaled to either end of the float range: at 1e-300 the
    # sums of its quotients underflow to zero, at 1e300 its residual terms
    # overflow; each ends in one error line and exit 1, with no warning and
    # no output
    path = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve", path, "--branch", "plus", "--out", str(out)]) == 0
    sol = json.loads((out / "solution_plus.json").read_text())
    for key in ("u", "w"):
        sol[key] = [scale * v for v in sol[key]]
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(sol))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert cli.main(["verify", path, "--solution", str(scaled)]) == 1
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
    assert "float range" in captured.err


@pytest.mark.parametrize("command", ["constants", "solve", "sweep", "assemble"])
@pytest.mark.parametrize("cells,code,message", [
    (1e18, 1, "error: out of memory: "), (1e20, 3, "validation error: grid requires at most "),
], ids=["1e18", "1e20"])
def test_a_grid_too_large_to_hold_is_a_named_error(tmp_path, capsys, command, cells, code,
                                                   message):
    # 1e18 cells numpy can index but no host can hold, and 1e20 numpy
    # cannot index: both fail on validation's first array, which numpy
    # refuses without allocating it, before any file is written
    path = write_config(tmp_path, {"grid": {"cells": cells}})
    extra = {"solve": ["--out", str(tmp_path / "run")],
             "sweep": ["--lambdas", "0.01", "--mus", "0.01", "--out", str(tmp_path / "s.csv")],
             }.get(command, [])
    assert cli.main([command, path] + extra) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and len(captured.err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_a_sweep_validates_its_config_once(tmp_path, monkeypatch):
    # every point is the shared problem at its (lambda, mu): the config is
    # read and validated once, and a point that breaks the (lambda, mu)
    # rules keeps its failure row
    path = write_config(tmp_path)
    calls = []
    validate = cli.validate_params
    monkeypatch.setattr(cli, "validate_params", lambda spec: calls.append(spec) or validate(spec))
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", path, "--lambdas=0,0.01", "--mus=0,0.02", "--out", str(out)]) == 0
    assert len(calls) == 1
    rows = _read_sweep(out)
    assert [(r["lambda"], r["mu"]) for r in rows] == [("0.0", "0.0"), ("0.0", "0.02"),
                                                      ("0.01", "0.0"), ("0.01", "0.02")]
    assert rows[0]["Lambda"] == "nan" and rows[0]["plus_converged"] == "false"
    assert all(r["Lambda"] != "nan" for r in rows[1:])


def test_an_underflowed_Lambda_is_still_in_gamma(tmp_path, capsys):
    # validation excludes (lambda, mu) = (0, 0) and f, g <= 0, so Lambda = 0
    # can only be an underflow: the point lies in Gamma, and E stays inf
    path = write_config(tmp_path, {"grid": {"cells": 64}, **EDGE_CONFIGS["tiny_lambda"]})
    assert cli.main(["constants", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["Lambda"] == 0.0 and report["E"] == math.inf
    assert report["in_gamma"] is True


def test_a_sweep_point_whose_constants_overflow_keeps_its_failure_columns(tmp_path):
    # the point at lambda = 1e300 fills its branch columns as usual and
    # leaves NaN constants; the other point reads as it does alone
    path = write_config(tmp_path, {"grid": {"cells": 64}})
    both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
    assert cli.main(["sweep", path, "--lambdas=0.01,1e300", "--mus=0.01",
                     "--out", str(both), "--seed", "1"]) == 0
    assert cli.main(["sweep", path, "--lambdas=0.01", "--mus=0.01",
                     "--out", str(alone), "--seed", "1"]) == 0
    assert len(both.read_text().splitlines()) == 3
    small, huge = _read_sweep(both)
    [lone] = _read_sweep(alone)
    assert small.keys() == lone.keys()
    for key, value in lone.items():
        if value in ("true", "false"):
            assert small[key] == value, key
        else:
            assert float(small[key]) == pytest.approx(float(value), rel=1e-12), key
    assert lone["gap_ok"] == "true"
    assert float(huge["lambda"]) == 1e300
    for key in ("Lambda", "C", "A0", "A_lm"):
        assert huge[key] == "nan"
    assert huge["in_gamma"] == huge["gap_ok"] == "false"


def _sign_pattern(ts, vals, cuts):
    """Signs of vals on the segments of ts delimited by the cut points."""
    signs = []
    for lo, hi in zip([0.0] + cuts, cuts + [math.inf]):
        seg = [v for t, v in zip(ts, vals) if lo * 1.01 < t < hi * 0.99]
        if seg:
            signs.append(all(v < 0 for v in seg) and "-" or
                         all(v > 0 for v in seg) and "+" or "?")
    return signs


def test_fiber_positive_coupling_sign_pattern(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "fiber.csv"
    assert cli.main(["fiber", path, "--direction-seed", "0",
                     "--coupling", "positive", "--t-lo", "1e-3", "--t-hi", "1e3",
                     "--samples", "400", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("#")
    assert "t1=" in lines[0] and "t2=" in lines[0] and "t_max=" in lines[0]
    assert lines[1] == "t,phi,dphi,psi"
    meta = dict(kv.split("=") for kv in lines[0][2:].split() if "=" in kv)
    t1, t2 = float(meta["t1"]), float(meta["t2"])
    data = [tuple(map(float, ln.split(","))) for ln in lines[2:]]
    ts = [d[0] for d in data]
    dphi = [d[2] for d in data]
    assert _sign_pattern(ts, dphi, [t1, t2]) == ["-", "+", "-"]


def test_fiber_negative_coupling_sign_pattern(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "fiber_neg.csv"
    assert cli.main(["fiber", path, "--direction-seed", "0",
                     "--coupling", "negative", "--t-lo", "1e-3", "--t-hi", "1e3",
                     "--samples", "400", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    meta = dict(kv.split("=") for kv in lines[0][2:].split() if "=" in kv)
    assert meta["case"] == "single_root"
    t1 = float(meta["t1"])
    data = [tuple(map(float, ln.split(","))) for ln in lines[2:]]
    ts = [d[0] for d in data]
    dphi = [d[2] for d in data]
    assert _sign_pattern(ts, dphi, [t1]) == ["-", "+"]


@pytest.mark.parametrize("t_lo,t_hi", [("nan", "1e2"), ("1e-3", "nan"), ("1e-3", "inf"),
                                       ("0", "1"), ("2", "1")])
def test_fiber_rejects_bad_t_range(tmp_path, capsys, t_lo, t_hi):
    path = write_config(tmp_path)
    out = tmp_path / "bad_range.csv"
    assert cli.main(["fiber", path, "--t-lo", t_lo, "--t-hi", t_hi, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("validation error:")
    assert not out.exists()


def test_fiber_rejects_more_samples_than_the_ceiling(tmp_path, capsys):
    # 10**11 samples would ask np.linspace for 745 GiB; the check comes first
    path = write_config(tmp_path)
    out = tmp_path / "huge.csv"
    assert cli.main(["fiber", path, "--samples", str(10**11), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("validation error:")
    assert not out.exists()


def test_fiber_two_samples(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "two.csv"
    assert cli.main(["fiber", path, "--samples", "2", "--t-lo", "0.5",
                     "--t-hi", "2.0", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4  # comment + header + 2 rows


def test_verify_round_trip(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve", path, "--branch", "plus", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", path, "--solution",
                     str(out / "solution_plus.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    sol = json.loads((out / "solution_plus.json").read_text())
    assert report["J_recomputed"] == pytest.approx(sol["J"], rel=1e-12)
    assert report["residual"]["ok"] is True
    assert report["checks"]["all_ok"] is True


def test_verify_flags_noise(tmp_path, capsys):
    path = write_config(tmp_path)
    cells = BASE_CONFIG["grid"]["cells"]
    rng = np.random.default_rng(0)
    u = np.zeros(cells + 1)
    u[1:-1] = np.abs(rng.standard_normal(cells - 1))
    sol = {"branch": "plus", "u": list(u), "w": list(u), "J": 0.0}
    sol_path = tmp_path / "noise.json"
    sol_path.write_text(json.dumps(sol))
    assert cli.main(["verify", path, "--solution", str(sol_path)]) != 0


def _unreadable_json(tmp_path, kind):
    # a file that is not UTF-8, and JSON nested deeper than the recursion limit
    path = tmp_path / f"{kind}.json"
    if kind == "not_utf8":
        path.write_bytes(b"\xff\xfe{}")
    else:
        path.write_text("[" * 100_000 + "]" * 100_000)
    return str(path)


@pytest.mark.parametrize("kind", ["not_utf8", "nested"])
@pytest.mark.parametrize("command", ["constants", "solve", "sweep", "fiber", "verify", "assemble"])
def test_an_unreadable_config_is_a_config_error(tmp_path, capsys, command, kind):
    config = _unreadable_json(tmp_path, kind)
    out = tmp_path / "out"
    extra = {"solve": ["--out", str(out)],
             "sweep": ["--lambdas", "0.01", "--mus", "0.01", "--out", str(out)],
             "fiber": ["--out", str(out)],
             "verify": ["--solution", config]}.get(command, [])
    assert cli.main([command, config, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot read config {config}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("kind", ["not_utf8", "nested"])
def test_verify_an_unreadable_solution_is_a_config_error(tmp_path, capsys, kind):
    # the solution is read through the config's reader, so it fails as a
    # config does
    path = write_config(tmp_path)
    solution = _unreadable_json(tmp_path, kind)
    assert cli.main(["verify", path, "--solution", solution]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: cannot read solution {solution}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("content", ["[1, 2]", '{"u": ["abc"], "w": [0.0]}'])
def test_verify_malformed_solution_is_a_config_error(tmp_path, capsys, content):
    path = write_config(tmp_path)
    sol_path = tmp_path / "malformed.json"
    sol_path.write_text(content)
    assert cli.main(["verify", path, "--solution", str(sol_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read solution")


def test_verify_solution_of_another_grid_is_a_config_error(tmp_path, capsys):
    # a 64-cell solution checked against the 32-cell config names both lengths
    out = tmp_path / "run"
    fine = write_config(tmp_path, {"grid": {"cells": 64}}, name="fine.json")
    assert cli.main(["solve", fine, "--branch", "plus", "--out", str(out)]) == 0
    coarse = write_config(tmp_path, {"grid": {"cells": 32}}, name="coarse.json")
    capsys.readouterr()
    assert cli.main(["verify", coarse, "--solution", str(out / "solution_plus.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: solution ")
    assert "u has 65 nodal values, the grid has 33" in err


def test_assemble_dump_matrix_above_the_ceiling_is_refused(tmp_path, monkeypatch):
    # refused before the form is assembled, and no file is written
    path = write_config(tmp_path, {"grid": {"cells": cli.MAX_DUMP_CELLS + 2}})
    monkeypatch.setattr(cli, "assemble_form", lambda grid, s: pytest.fail("assembled"))
    out = tmp_path / "matrix.csv"
    assert cli.main(["assemble", path, "--dump-matrix", str(out)]) == 3
    assert not out.exists()


def test_assemble_dump_matrix(tmp_path):
    path = write_config(tmp_path, {"grid": {"cells": 16}})
    out = tmp_path / "matrix.csv"
    assert cli.main(["assemble", path, "--dump-matrix", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("# N=16, s=0.4")
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    mat = np.array(rows)
    assert mat.shape == (15, 15)
    assert np.abs(mat - mat.T).max() == 0.0


def test_problem_hash_canonicalization():
    a = {"s": 0.4, "grid": {"left": -1.0, "right": 1.0, "cells": 8}}
    b = {"grid": {"cells": 8, "right": 1.0, "left": -1.0}, "s": 0.4}
    assert cli.problem_hash(a) == cli.problem_hash(b)
    c = {"s": 0.41, "grid": {"left": -1.0, "right": 1.0, "cells": 8}}
    assert cli.problem_hash(a) != cli.problem_hash(c)


def test_main_builds_the_parser_once(tmp_path, capsys):
    # every call after the first parses with the parser the first one built
    path = write_config(tmp_path)
    cli.build_parser.cache_clear()
    assert cli.main(["assemble", path]) == 0
    assert json.loads(capsys.readouterr().out)["N"] == 48
    assert cli.main(["constants", path]) == 0
    assert "Lambda" in json.loads(capsys.readouterr().out)
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_readme_command_lines_parse():
    # every neharifrac command line in the README's bash blocks must stay
    # valid for the parser; nothing is executed
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```bash\n(.*?)```", readme, flags=re.S)
    commands = [ln.strip() for ln in "\n".join(blocks).replace("\\\n", " ").splitlines()
                if ln.strip().startswith("neharifrac ")]
    assert commands
    for command in commands:
        cli.build_parser().parse_args(shlex.split(command, comments=True)[1:])


@pytest.mark.parametrize("command, overrides, code", [
    (["sweep", "--lambdas=0.01,1e300", "--mus=0.01"], {}, 0),
    (["solve"], EDGE_CONFIGS["huge_alpha_beta"], 1),
    (["sweep", "--lambdas=0.01,0.02", "--mus=0.01"], EDGE_CONFIGS["huge_f"], 0),
    (["solve"], EDGE_CONFIGS["huge_f"], 1),
    (["constants"], {"f": {"kind": "gaussian", "center": 0.0, "width": 0.0, "amplitude": 1.0}}, 3),
    (["constants"], {"f": {"kind": "gaussian", "center": 0.0, "width": 1e-200,
                           "amplitude": 1.0}}, 3),
], ids=["sweep", "solve", "sweep_huge_f", "solve_huge_f", "zero_width_f", "tiny_width_f"])
def test_edge_runs_print_no_numpy_warnings(tmp_path, capsys, command, overrides, code):
    # a statistic beyond the float range already ends as NoBracket or NaN
    # columns, so the kernels that compute it warn of nothing on the way;
    # nor does sampling a weight whose values leave it, which validation
    # refuses by the weight's name
    path = write_config(tmp_path, {"grid": {"cells": 64}, "solver": {"restarts": 8, "seed": 0},
                                   **overrides})
    out = [] if command[0] == "constants" else ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert cli.main(command[:1] + [path] + command[1:] + out) == code
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err


def test_solve_reports_the_restarts_that_joined_another(tmp_path, capsys):
    # on the README config at 64 cells every restart of a branch reaches
    # one critical point, and all but the lowest join it; the files gain no key
    path = write_config(tmp_path, {"grid": {"cells": 64}, "solver": {"restarts": 8, "seed": 0}})
    out = tmp_path / "run"
    assert cli.main(["solve", path, "--branch", "both", "--out", str(out)]) == 0
    solutions = json.loads(capsys.readouterr().out)["solutions"]
    for branch in ("plus", "minus"):
        assert solutions[branch]["restarts_used"] == 8
        assert solutions[branch]["restarts_joined"] == 7
        assert "restarts_joined" not in (out / f"solution_{branch}.json").read_text()
    assert "restarts_joined" not in (out / "gap.json").read_text()
