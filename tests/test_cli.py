import json
import math
import pathlib
import re
import shlex
import tracemalloc

import numpy as np
import pytest

from neharifrac import cli
from neharifrac import form as form_mod
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
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in (overrides or {}).items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
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
    path = write_config(tmp_path, {"solver": {"step": value}})
    assert cli.main(["solve", path, "--out", str(tmp_path / "run")]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("validation error:") and "step" in captured.err
    assert captured.out == ""


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


def test_solve_deterministic_bytes(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", path, "--branch", "both", "--out", str(out1),
                     "--seed", "7"]) == 0
    assert cli.main(["solve", path, "--branch", "both", "--out", str(out2),
                     "--seed", "7"]) == 0
    for name in ("solution_plus.json", "solution_minus.json", "gap.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_rejects_never_positive_coupling_weight(tmp_path):
    path = write_config(tmp_path, {"b": {"kind": "constant", "value": -1.0}})
    assert cli.main(["solve", path, "--branch", "minus", "--out", str(tmp_path)]) == 3


def test_solve_exit_code_no_direction(tmp_path):
    # negative parameters pass validation but admit no descent direction
    path = write_config(tmp_path, {"lambda": -0.01, "mu": -0.01})
    assert cli.main(["solve", path, "--branch", "plus", "--out", str(tmp_path)]) == 4


def test_solve_exit_code_not_converged(tmp_path):
    path = write_config(tmp_path, {"solver": {"max_iters": 1, "restarts": 1,
                                              "tol_manifold": 1e-300}})
    out = tmp_path / "u"
    assert cli.main(["solve", path, "--branch", "plus", "--out", str(out)]) == 5
    assert cli.main(["solve", path, "--branch", "plus", "--out", str(out),
                     "--allow-unconverged"]) == 0


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


def test_verify_rejects_nonpositive_delta(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve", path, "--branch", "plus", "--out", str(out)]) == 0
    assert cli.main(["verify", path, "--solution", str(out / "solution_plus.json"),
                     "--delta", "0"]) == 3


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


def test_one_inverse_iteration_per_S_estimate(tmp_path, monkeypatch, capsys):
    # the candidates only bound S; one refinement of two fixed starts serves
    # constants, a two-branch solve, each verify and each sweep point
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
    assert len(calls) == 4
    assert cli.main(["sweep", path, "--lambdas", "0.01,0.02", "--mus", "0.005,0.01",
                     "--out", str(tmp_path / "sweep.csv"), "--seed", "3"]) == 0
    assert len(calls) == 8


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
