"""The benchmark's workloads: inputs drawn from a seed, one operation each,
and the checks on every output.

Every operation goes through the documented command line
(``neharifrac.cli.main``), in process, one at a time: a closed loop with a
single client. Only CLI arguments, documented output files and names
exported by ``neharifrac`` are used, so the exact Toeplitz form, a new
descent or a new sweep pool can land without changing this file.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import time

import neharifrac as nf

cli = importlib.import_module("neharifrac.cli")

HERE = os.path.dirname(os.path.abspath(__file__))

# inputs drawn per run: more than a run uses, so each operation gets its own
POOL = 32

# the sweep CSV header is part of the README's CLI contract
SWEEP_HEADER = ("lambda,mu,Lambda,C,in_gamma,plus_converged,minus_converged,"
                "J_plus,J_minus,norm_plus,norm_minus,A0,A_lm,gap_ok")

README_CONFIG = {
    "grid": {"left": -1.0, "right": 1.0, "cells": 256},
    "s": 0.4, "q": 0.5, "alpha": 1.5, "beta": 1.5,
    "lambda": 0.01, "mu": 0.01,
    "f": {"kind": "constant", "value": 1.0},
    "g": {"kind": "constant", "value": 1.0},
    "b": {"kind": "cos_pi_x", "amplitude": 1.0},
    "solver": {"restarts": 8, "seed": 0},
}


class OpFailed(Exception):
    """A CLI call exited nonzero."""


class CheckFailed(Exception):
    """An output does not satisfy its check."""


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def call(argv: list[str], tracer=None) -> str:
    """Run one CLI command in process; returns its stdout, raises on nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.span("cli." + argv[0]):
                rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"`{argv[0]}` exited {rc}: {err.getvalue().strip()[-200:]}")
    return out.getvalue()


def config(cells: int, **overrides) -> dict:
    cfg = json.loads(json.dumps(README_CONFIG))
    cfg["grid"]["cells"] = cells
    cfg.update(overrides)
    return cfg


def validate(cfg: dict) -> None:
    """Validate a config through the library's own checks (raises on violation)."""
    g = cfg["grid"]
    nf.validate_params(nf.ProblemSpec(
        grid=nf.GridSpec(g["left"], g["right"], g["cells"]),
        s=cfg["s"], q=cfg["q"], alpha=cfg["alpha"], beta=cfg["beta"],
        lam=cfg["lambda"], mu=cfg["mu"],
        f=nf.WeightSpec.from_json(cfg["f"]), g=nf.WeightSpec.from_json(cfg["g"]),
        b=nf.WeightSpec.from_json(cfg["b"])))


def write_config(path: str, cfg: dict) -> str:
    validate(cfg)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, sort_keys=True)
    return path


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _num(x: float) -> float:
    return float("%.6g" % x)


def _weight(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        return {"kind": "constant", "value": _num(rng.uniform(0.8, 1.25))}
    return {"kind": "gaussian", "center": _num(rng.uniform(-0.3, 0.3)),
            "width": _num(rng.uniform(0.6, 1.5)), "amplitude": _num(rng.uniform(0.8, 1.25))}


class Strata:
    """Uniform draws in which every four consecutive draws of one parameter
    fall one in each quarter of its range. The dozen operations of a run
    then cover each range evenly, which keeps run medians close across
    seeds."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.pending: dict[str, list[int]] = {}

    def uniform(self, key: str, lo: float, hi: float) -> float:
        queue = self.pending.setdefault(key, [])
        if not queue:
            queue.extend(range(4))
            self.rng.shuffle(queue)
        return lo + (queue.pop() + self.rng.random()) / 4 * (hi - lo)


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_bytes(outdir: str, names) -> dict[str, bytes]:
    out = {}
    for name in names:
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


class Workload:
    """One workload. Its inputs are dicts with at least "cfg", the path of a
    validated config."""

    name = ""
    cells = 0
    points_per_op = 1
    # the calibration kernel that matches the work (see run.Calibrator)
    host_kernel = "loop"

    def draw(self, rng: random.Random, st: Strata) -> dict:
        raise NotImplementedError

    def make_inputs(self, seed: int, workdir: str) -> list[dict]:
        """The README config first, checked against stored values, then
        configs drawn from the seed."""
        rng = random.Random(seed)
        st = Strata(rng)
        cfgs = [config(self.cells)] + [self.draw(rng, st) for _ in range(POOL - 1)]
        return [{"cfg": write_config(os.path.join(workdir, f"{self.name}_{i}.json"), cfg),
                 "reference": i == 0} for i, cfg in enumerate(cfgs)]

    def run(self, inp: dict, outdir: str, tracer=None) -> None:
        raise NotImplementedError

    def outputs(self, outdir: str) -> dict[str, bytes]:
        """The persisted artifacts of one operation, for byte comparisons."""
        raise NotImplementedError

    def check(self, inp: dict, outdir: str) -> list[str]:
        """Raises CheckFailed on a wrong output; returns report lines."""
        raise NotImplementedError

    def final_checks(self, workdir: str, seed: int) -> tuple[list[str], dict]:
        """Checks that need CLI calls of their own; returns report lines
        and the counts they measured."""
        return [], {}


class SolveVerify(Workload):
    name = "solve_verify_n128"
    cells = 128
    solution_files = ("solution_plus.json", "solution_minus.json", "gap.json")

    def draw(self, rng: random.Random, st: Strata) -> dict:
        # inside the admissible region: small positive (lambda, mu) with a
        # bounded ratio, s and alpha+beta well inside their windows
        ab = st.uniform("ab", 2.7, 3.3)
        alpha = _num(ab / 2 * (1 + rng.uniform(-0.05, 0.05)))
        lam = _num(10 ** st.uniform("lambda", -2.3, -1.7))
        return config(self.cells, s=_num(st.uniform("s", 0.37, 0.43)),
                      q=_num(st.uniform("q", 0.42, 0.58)), alpha=alpha, beta=_num(ab - alpha),
                      **{"lambda": lam, "mu": _num(lam * rng.uniform(0.67, 1.5))},
                      f=_weight(rng), g=_weight(rng),
                      b={"kind": "cos_pi_x", "amplitude": _num(rng.uniform(0.8, 1.25))},
                      solver={"restarts": 8, "seed": rng.randrange(1000)})

    def run(self, inp, outdir, tracer=None):
        call(["solve", inp["cfg"], "--branch", "both", "--out", outdir], tracer)
        for branch in ("plus", "minus"):
            call(["verify", inp["cfg"], "--solution",
                  os.path.join(outdir, f"solution_{branch}.json")], tracer)

    def outputs(self, outdir):
        return _read_bytes(outdir, self.solution_files)

    def check(self, inp, outdir):
        sols = {b: _read_json(os.path.join(outdir, f"solution_{b}.json"))
                for b in ("plus", "minus")}
        for branch, sol in sols.items():
            if sol["converged"] is not True:
                raise CheckFailed(f"branch {branch} did not converge")
        if _read_json(os.path.join(outdir, "gap.json"))["ordering_ok"] is not True:
            raise CheckFailed("gap.json: ordering_ok is not true")
        if not inp["reference"]:
            return []
        ref = load_reference()
        lines = []
        for branch, sol in sols.items():
            for key in ("J", "norm"):
                expect = ref["solve_n128_restarts8_seed0"][branch][key]
                err = rel_err(sol[key], expect)
                if not err <= ref["rel_tol"]:
                    raise CheckFailed(f"reference {key}_{branch} = {sol[key]!r}, stored "
                                      f"{expect!r} (rel err {err:.2e})")
                lines.append(f"reference {key}_{branch}: rel err {err:.1e}")
        return lines


class Sweep(Workload):
    name = "sweep_n64"
    cells = 64
    points_per_op = 4

    def make_inputs(self, seed, workdir):
        rng = random.Random(seed)
        cfg = write_config(os.path.join(workdir, "sweep.json"),
                           config(self.cells, solver={"restarts": 4, "seed": 0}))
        st = Strata(rng)
        inputs = []
        for _ in range(POOL):
            # one small and one large value per axis: (small, small) lies
            # inside the admissible region, the other three points outside
            lams = [_num(10 ** st.uniform("lambda_small", -2.3, -1.7)),
                    _num(10 ** st.uniform("lambda_large", 1.7, 2.1))]
            mus = [_num(10 ** st.uniform("mu_small", -2.3, -1.7)),
                   _num(10 ** st.uniform("mu_large", 1.7, 2.1))]
            for lam in lams:
                for mu in mus:
                    validate(config(self.cells, **{"lambda": lam, "mu": mu}))
            inputs.append({"cfg": cfg, "lambdas": lams, "mus": mus})
        return inputs

    @staticmethod
    def argv(cfg, lams, mus, out):
        # "=" keeps argparse from reading a negative value as a flag
        return ["sweep", cfg, "--lambdas=" + ",".join(map(repr, lams)),
                "--mus=" + ",".join(map(repr, mus)), "--out", out]

    def run(self, inp, outdir, tracer=None):
        os.makedirs(outdir, exist_ok=True)
        call(self.argv(inp["cfg"], inp["lambdas"], inp["mus"],
                       os.path.join(outdir, "sweep.csv")), tracer)

    def outputs(self, outdir):
        return _read_bytes(outdir, ("sweep.csv",))

    @staticmethod
    def read_rows(path: str, lams, mus) -> list[dict]:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != SWEEP_HEADER:
            raise CheckFailed("sweep CSV header differs from the README contract")
        keys = SWEEP_HEADER.split(",")
        rows = [dict(zip(keys, line.split(","))) for line in lines[1:]]
        got = sorted((float(r["lambda"]), float(r["mu"])) for r in rows)
        if got != sorted((lam, mu) for lam in lams for mu in mus):
            raise CheckFailed(f"sweep CSV has rows for {got}, not one per grid point")
        return rows

    def check(self, inp, outdir):
        for r in self.read_rows(os.path.join(outdir, "sweep.csv"), inp["lambdas"], inp["mus"]):
            both = r["plus_converged"] == "true" and r["minus_converged"] == "true"
            if r["in_gamma"] == "true" and both and r["gap_ok"] != "true":
                raise CheckFailed(f"point ({r['lambda']}, {r['mu']}) is admissible and "
                                  "converged but gap_ok is false")
        return []

    def mixed_sign_probe(self, workdir: str, seed: int) -> tuple[str | None, list[str]]:
        """Sweep a grid with mixed-sign (lambda, mu) points.

        At the seed commit this dies with an uncaught ZeroDivisionError: a
        solution component collapses to zero and reaches estimate_S as a
        candidate. The probe runs outside the timed operations and is
        reported on its own; returns the exception type (None if the sweep
        succeeded) and report lines. A sweep that exits 0 must still write
        one row per point under the contract header.
        """
        rng = random.Random(seed + 1_000_003)
        a, b = _num(10 ** rng.uniform(-2.5, -1.5)), _num(10 ** rng.uniform(-2.5, -1.5))
        lams, mus = [-a, a], [-b, b]
        cfg = os.path.join(workdir, "sweep.json")
        out = os.path.join(workdir, "mixed_sign.csv")
        try:
            call(self.argv(cfg, lams, mus, out))
        except OpFailed as exc:
            return "OpFailed", [f"mixed-sign probe lambdas={lams} mus={mus}: the sweep "
                                f"was lost: {exc}"]
        except Exception as exc:  # the known crash escapes the CLI as a raw exception
            return type(exc).__name__, [
                f"mixed-sign probe lambdas={lams} mus={mus}: KNOWN DEFECT, the sweep "
                f"raised {type(exc).__name__}: {exc}; the whole grid is lost"]
        self.read_rows(out, lams, mus)
        return None, [f"mixed-sign probe lambdas={lams} mus={mus}: sweep completed"]

    def final_checks(self, workdir, seed):
        crash, lines = self.mixed_sign_probe(workdir, seed)
        return lines, {"cli.mixed_sign_crashes": 0 if crash is None else 1}


class Constants(Workload):
    name = "constants_n1024"
    cells = 1024
    host_kernel = "matvec"
    report_file = "constants.json"

    def draw(self, rng: random.Random, st: Strata) -> dict:
        s = st.uniform("s", 0.18, 0.48)
        window = min(2 / (1 - 2 * s) - 3, 1.0)  # alpha+beta < 2/(1-2s) - 1
        ab = 2 + rng.uniform(0.2, 0.8) * window
        alpha = _num(ab / 2)
        # Lambda spans both sides of the threshold C
        lam = _num(10 ** st.uniform("lambda", -3, 2.5))
        return config(self.cells, s=_num(s), q=_num(rng.uniform(0.3, 0.7)),
                      alpha=alpha, beta=_num(ab - alpha),
                      **{"lambda": lam, "mu": _num(lam * rng.uniform(0.5, 2.0))},
                      f=_weight(rng), g=_weight(rng),
                      b={"kind": "cos_pi_x", "amplitude": _num(rng.uniform(0.75, 1.5))})

    def run(self, inp, outdir, tracer=None):
        text = call(["constants", inp["cfg"]], tracer)
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, self.report_file), "w", encoding="utf-8") as fh:
            fh.write(text)

    def outputs(self, outdir):
        return _read_bytes(outdir, (self.report_file,))

    def check(self, inp, outdir):
        rep = _read_json(os.path.join(outdir, self.report_file))
        for key, value in rep.items():
            if key != "in_gamma" and not (isinstance(value, (int, float))
                                          and math.isfinite(value)):
                raise CheckFailed(f"constants field {key} = {value!r} is not finite")
        if (rep["E"] > 0) != (rep["C"] > rep["Lambda"]):
            raise CheckFailed(f"sign(E) != sign(C - Lambda): E={rep['E']}, "
                              f"C={rep['C']}, Lambda={rep['Lambda']}")
        if (rep["A_lm"] < rep["A0"]) != rep["in_gamma"]:
            raise CheckFailed(f"A_lm < A0 is {rep['A_lm'] < rep['A0']} but "
                              f"in_gamma is {rep['in_gamma']}")
        if not inp["reference"]:
            return []
        ref = load_reference()
        expect = ref["constants_n1024"]["S"]
        err = rel_err(rep["S"], expect)
        if not err <= ref["rel_tol"]:
            raise CheckFailed(f"reference S = {rep['S']!r}, stored {expect!r} "
                              f"(rel err {err:.2e})")
        return [f"reference S: rel err {err:.1e}"]


WORKLOADS = {w.name: w for w in (SolveVerify(), Sweep(), Constants())}


def bump(grid) -> "nf.GridFunction":
    x = grid.nodes()
    mid = 0.5 * (grid.left + grid.right)
    half = 0.5 * (grid.right - grid.left)
    v = ((1 - ((x - mid) / (0.6 * half)) ** 2).clip(min=0.0)) ** 2
    v[0] = v[-1] = 0.0
    return nf.GridFunction(grid, v)


def oracle_check(cells: int, s: float = 0.4) -> tuple[float, str]:
    """The form's norm of one bump against the brute-force oracle.

    The oracle runs on a 2048-cell refinement whatever the grid, which
    keeps its own error near 1e-5. Returns the oracle's time and a report
    line; raises CheckFailed beyond the stored tolerance.
    """
    grid = nf.GridSpec(-1.0, 1.0, cells)
    u = bump(grid)
    form = nf.assemble_form(grid, s)
    assembled = nf.seminorm_sq(form, u)
    t0 = time.perf_counter()
    oracle = nf.brute_force_norm(grid, s, u.values, refine=max(2, 2048 // cells))
    elapsed = time.perf_counter() - t0
    err = rel_err(assembled, oracle)
    if not err <= load_reference()["rel_tol"]:
        raise CheckFailed(f"form norm {assembled!r} vs oracle {oracle!r} (rel err {err:.2e})")
    return elapsed, f"form vs brute-force oracle at N={cells}: rel err {err:.1e}"
