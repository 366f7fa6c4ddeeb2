"""Command-line front end: config ingestion, subcommands, persistence.

Exit-code contract (so sweeps and CI can triage mechanically):
  0 success, 2 config parse error, 3 validation error,
  4 no admissible direction, 5 not converged (unless --allow-unconverged).

All persisted artifacts (solution JSON, sweep/fiber CSV, matrix dumps)
are byte-deterministic for a fixed config and seeds; timings appear only
in the stdout summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import thresholds, verify as verify_mod
from .energy import energy, pair_stats, phi_from_stats
from .errors import (
    AllMasked,
    ConfigParseError,
    NehariError,
    NoAdmissibleDirection,
    ValidationError,
)
from .fiber import project, psi
from .form import GagliardoForm, assemble_form
from .problem import (
    GridPair,
    GridSpec,
    ProblemSpec,
    ValidatedProblem,
    WeightSpec,
    validate_params,
)
from .solver import (
    Branch,
    SolutionReport,
    SolverOptions,
    gap_check,
    initial_direction,
    solve_branch,
)
from .thresholds import ConstantsReport, compute_constants

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NO_DIRECTION = 4
EXIT_NOT_CONVERGED = 5


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def problem_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigParseError("config root must be a JSON object")
    return cfg


def problem_from_config(cfg: dict) -> ProblemSpec:
    try:
        grid = GridSpec(left=float(cfg["grid"]["left"]),
                        right=float(cfg["grid"]["right"]),
                        cells=int(cfg["grid"]["cells"]))
        return ProblemSpec(
            grid=grid,
            s=float(cfg["s"]), q=float(cfg["q"]),
            alpha=float(cfg["alpha"]), beta=float(cfg["beta"]),
            lam=float(cfg["lambda"]), mu=float(cfg["mu"]),
            f=WeightSpec.from_json(cfg["f"]),
            g=WeightSpec.from_json(cfg["g"]),
            b=WeightSpec.from_json(cfg["b"]),
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, AttributeError) as exc:
        raise ConfigParseError(f"config is missing or mistypes a field: {exc}") from exc


def solver_options_from_config(cfg: dict, seed_override: int | None = None) -> SolverOptions:
    overrides = dict(cfg.get("solver", {}))
    if seed_override is not None:
        overrides["seed"] = seed_override
    try:
        return SolverOptions(**overrides)
    except TypeError as exc:
        raise ConfigParseError(f"unknown solver option: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _float_str(x: float) -> str:
    return repr(float(x))


def solution_to_json(report: SolutionReport, phash: str) -> dict:
    return {
        "branch": report.branch.value,
        "u": [float(v) for v in report.pair.u.values],
        "w": [float(v) for v in report.pair.w.values],
        "J": report.J,
        "norm": report.norm,
        "phi1": report.phi1,
        "phi2": report.phi2,
        "t_used": report.t_used,
        "iters": report.iters,
        "converged": report.converged,
        "problem_hash": phash,
    }


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_constants(args) -> int:
    cfg = load_config(args.config)
    problem = validate_params(problem_from_config(cfg))
    form = assemble_form(problem.grid, problem.s)
    report = compute_constants(problem, form)
    print(json.dumps(report.as_dict(), indent=2))
    return EXIT_OK


def _solve_pipeline(problem: ValidatedProblem, branches: list[Branch],
                    opts: SolverOptions, timings: dict) -> tuple[dict, ConstantsReport]:
    t0 = time.perf_counter()
    form = assemble_form(problem.grid, problem.s)
    timings["assemble_ms"] = 1e3 * (time.perf_counter() - t0)

    solutions: dict[Branch, SolutionReport] = {}
    for branch in branches:
        t0 = time.perf_counter()
        solutions[branch] = solve_branch(problem, form, branch, opts)
        timings[f"solve_{branch.value}_ms"] = 1e3 * (time.perf_counter() - t0)

    # the solution components join the quotient-search candidates so the
    # reported constants are consistent with the computed norms
    extra = []
    for rep in solutions.values():
        extra.extend([rep.pair.u.values, rep.pair.w.values])
    t0 = time.perf_counter()
    constants = compute_constants(problem, form, extra_candidates=extra)
    timings["constants_ms"] = 1e3 * (time.perf_counter() - t0)
    return solutions, constants


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    problem = validate_params(problem_from_config(cfg))
    opts = solver_options_from_config(cfg, args.seed)
    phash = problem_hash(cfg)

    branches = {"plus": [Branch.PLUS], "minus": [Branch.MINUS],
                "both": [Branch.PLUS, Branch.MINUS]}[args.branch]
    timings: dict[str, float] = {}
    solutions, constants = _solve_pipeline(problem, branches, opts, timings)

    os.makedirs(args.out, exist_ok=True)
    paths = {}
    for branch, rep in solutions.items():
        path = os.path.join(args.out, f"solution_{branch.value}.json")
        _write_json(path, solution_to_json(rep, phash))
        paths[branch.value] = path

    unconverged = [rep for rep in solutions.values() if not rep.converged]
    gap = None
    if len(branches) == 2 and not unconverged:
        gap = gap_check(solutions[Branch.PLUS], solutions[Branch.MINUS], constants)
        gap_path = os.path.join(args.out, "gap.json")
        _write_json(gap_path, {
            "norm_plus": gap.norm_plus,
            "norm_minus": gap.norm_minus,
            "A0": gap.A0,
            "A_lm": gap.A_lm,
            "ordering_ok": gap.ordering_ok,
        })
        paths["gap"] = gap_path

    summary = {
        "problem_hash": phash,
        "files": paths,
        "constants": constants.as_dict(),
        "solutions": {b.value: {"J": r.J, "norm": r.norm, "converged": r.converged,
                                "iters": r.iters, "restarts_used": r.restarts_used,
                                "stationarity": r.stationarity}
                      for b, r in solutions.items()},
        "gap": None if gap is None else gap.ordering_ok,
        "timings_ms": timings,
    }
    print(json.dumps(summary, indent=2))

    if unconverged and not args.allow_unconverged:
        print(f"{len(unconverged)} branch(es) did not converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


SWEEP_HEADER = ("lambda,mu,Lambda,C,in_gamma,plus_converged,minus_converged,"
                "J_plus,J_minus,norm_plus,norm_minus,A0,A_lm,gap_ok")


def _sweep_point(cfg: dict, form: GagliardoForm, lam: float, mu: float,
                 seed: int | None):
    """One sweep point; never raises, failures land in the status columns.

    form is the sweep's shared form: it depends only on (grid, s), which
    the points do not vary.
    """
    point_cfg = dict(cfg)
    point_cfg["lambda"] = lam
    point_cfg["mu"] = mu
    nan = float("nan")
    row = {"lambda": lam, "mu": mu, "Lambda": nan, "C": nan, "in_gamma": False,
           "plus_converged": False, "minus_converged": False,
           "J_plus": nan, "J_minus": nan, "norm_plus": nan, "norm_minus": nan,
           "A0": nan, "A_lm": nan, "gap_ok": False}
    try:
        problem = validate_params(problem_from_config(point_cfg))
        opts = solver_options_from_config(point_cfg, seed)
    except NehariError:
        return row

    solutions: dict[Branch, SolutionReport] = {}
    for branch in (Branch.PLUS, Branch.MINUS):
        try:
            solutions[branch] = solve_branch(problem, form, branch, opts)
        except NehariError:
            pass

    extra = []
    for rep in solutions.values():
        extra.extend([rep.pair.u.values, rep.pair.w.values])
    constants = compute_constants(problem, form, extra_candidates=extra)
    row.update({"Lambda": constants.Lambda, "C": constants.C,
                "in_gamma": constants.in_gamma,
                "A0": constants.A0, "A_lm": constants.A_lm})
    plus = solutions.get(Branch.PLUS)
    minus = solutions.get(Branch.MINUS)
    if plus is not None:
        row.update({"plus_converged": plus.converged, "J_plus": plus.J,
                    "norm_plus": plus.norm})
    if minus is not None:
        row.update({"minus_converged": minus.converged, "J_minus": minus.J,
                    "norm_minus": minus.norm})
    if plus is not None and minus is not None and plus.converged and minus.converged:
        row["gap_ok"] = gap_check(plus, minus, constants).ordering_ok
    return row


def _parse_grid_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigParseError(f"sweep grid {text!r} is not a list of numbers: {exc}") from exc
    if not values:
        raise ConfigParseError("empty sweep grid")
    # NaN compares false both ways, so it is put last by hand
    return sorted(values, key=lambda v: (math.isnan(v), v))


def _row_to_csv(row: dict) -> str:
    cells = []
    for key in SWEEP_HEADER.split(","):
        v = row[key]
        if isinstance(v, bool):
            cells.append("true" if v else "false")
        elif isinstance(v, float):
            cells.append(_float_str(v))
        else:
            cells.append(str(v))
    return ",".join(cells)


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    # fail early on structural problems shared by every point
    shared = validate_params(problem_from_config(cfg))
    lambdas = _parse_grid_list(args.lambdas)
    mus = _parse_grid_list(args.mus)
    form = assemble_form(shared.grid, shared.s)
    # both grids are sorted, so the rows are too, whatever the input order
    rows = [_sweep_point(cfg, form, lam, mu, args.seed) for lam in lambdas for mu in mus]

    lines = [SWEEP_HEADER] + [_row_to_csv(r) for r in rows]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_fiber(args) -> int:
    cfg = load_config(args.config)
    problem = validate_params(problem_from_config(cfg))
    form = assemble_form(problem.grid, problem.s)
    if not (math.isfinite(args.t_hi) and 0 < args.t_lo < args.t_hi):
        raise ValidationError(f"need finite 0 < t-lo < t-hi, got t-lo={args.t_lo}, "
                              f"t-hi={args.t_hi}")
    if args.samples < 2:
        raise ValidationError("need at least 2 samples")

    rng = np.random.default_rng(args.direction_seed)
    direction = None
    for _ in range(1000):
        cand = initial_direction(problem, rng, Branch.PLUS)
        st = pair_stats(problem, form, cand)
        if args.coupling == "any":
            direction = cand
        elif args.coupling == "positive" and st.B > 0:
            direction = cand
        elif args.coupling == "negative" and st.B <= 0:
            direction = cand
        if direction is not None:
            break
    if direction is None:
        raise NoAdmissibleDirection(
            f"found no direction with coupling sign {args.coupling!r}")

    st = pair_stats(problem, form, direction)
    roots = project(st, problem.q, problem.alpha + problem.beta)
    ts = np.exp(np.linspace(math.log(args.t_lo), math.log(args.t_hi), args.samples))
    lines = [
        f"# case={roots.case.value} t1={_fmt_opt(roots.t1)} t2={_fmt_opt(roots.t2)} "
        f"t_max={_float_str(roots.t_max)} psi_at_tmax={_float_str(roots.psi_at_tmax)}",
        "t,phi,dphi,psi",
    ]
    ab = problem.alpha + problem.beta
    for t in ts:
        val, d1, _ = phi_from_stats(st, problem.q, ab, float(t))
        p = psi(st, problem.q, ab, float(t))
        lines.append(",".join(_float_str(v) for v in (t, val, d1, p)))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.samples} samples to {args.out}")
    return EXIT_OK


def _fmt_opt(v) -> str:
    return "none" if v is None else _float_str(v)


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    problem = validate_params(problem_from_config(cfg))
    form = assemble_form(problem.grid, problem.s)
    try:
        with open(args.solution, "r", encoding="utf-8") as fh:
            sol = json.load(fh)
        pair = GridPair.from_arrays(problem.grid,
                                    np.asarray(sol["u"], dtype=float),
                                    np.asarray(sol["w"], dtype=float))
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise ConfigParseError(f"cannot read solution {args.solution}: {exc}") from exc

    parts = energy(problem, form, pair)
    if args.delta is None:
        delta = 1e-4 * min(float(np.max(pair.u.values)), float(np.max(pair.w.values)))
        if delta <= 0:
            raise AllMasked("a solution component vanishes at every node; "
                            "the stationarity residual has nothing to test")
    elif args.delta > 0:
        delta = args.delta
    else:
        raise ValidationError(f"--delta must be positive, got {args.delta}")
    residual = verify_mod.weak_residual(problem, form, pair, delta)

    candidates = thresholds.default_candidates(problem.grid) + [pair.u.values, pair.w.values]
    S_est = thresholds.estimate_S(form, problem.alpha + problem.beta, candidates)
    checks = verify_mod.inequality_suite(problem, form, pair, S_est)

    residual_ok = (residual.res_u <= args.res_tol and residual.res_w <= args.res_tol)
    out = {
        "J_recomputed": parts.J,
        "J_file": sol.get("J"),
        "S_estimate": S_est,
        "residual": {"res_u": residual.res_u, "res_w": residual.res_w,
                     "masked_fraction": residual.masked_fraction,
                     "delta": residual.delta, "tol": args.res_tol,
                     "ok": residual_ok},
        "checks": checks.as_dict(),
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK if (checks.all_ok and residual_ok) else 1


def cmd_assemble(args) -> int:
    cfg = load_config(args.config)
    problem = validate_params(problem_from_config(cfg))
    form = assemble_form(problem.grid, problem.s)
    if args.dump_matrix:
        lines = [f"# N={problem.grid.cells}, s={_float_str(problem.s)}"]
        for row in form.matrix:
            lines.append(",".join(_float_str(v) for v in row))
        with open(args.dump_matrix, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {form.matrix.shape[0]}x{form.matrix.shape[1]} matrix "
              f"to {args.dump_matrix}")
    else:
        print(json.dumps({"N": problem.grid.cells, "s": problem.s,
                          "interior_nodes": len(form.symbol)}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neharifrac",
        description="Two-branch constrained minimization for a singular "
                    "fractional-order system on an interval.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print the constants report as JSON")
    p.add_argument("config")
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("solve", help="minimize over one or both branches")
    p.add_argument("config")
    p.add_argument("--branch", choices=["plus", "minus", "both"], default="both")
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--allow-unconverged", action="store_true")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sweep", help="solve on a (lambda, mu) grid, write CSV")
    p.add_argument("config")
    p.add_argument("--lambdas", required=True, help="comma-separated values")
    p.add_argument("--mus", required=True, help="comma-separated values")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("fiber", help="sample the fiber map of a random direction")
    p.add_argument("config")
    p.add_argument("--direction-seed", type=int, default=0)
    p.add_argument("--coupling", choices=["positive", "negative", "any"], default="any")
    p.add_argument("--t-lo", type=float, default=1e-3)
    p.add_argument("--t-hi", type=float, default=1e2)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_fiber)

    p = sub.add_parser("verify", help="residuals and inequality checks of a solution")
    p.add_argument("config")
    p.add_argument("--solution", required=True)
    p.add_argument("--delta", type=float, default=None,
                   help="positivity mask threshold (default 1e-4 * the smaller "
                        "of max u and max w)")
    p.add_argument("--res-tol", type=float, default=1e-3)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("assemble", help="assemble the form matrix")
    p.add_argument("config")
    p.add_argument("--dump-matrix", default=None)
    p.set_defaults(fn=cmd_assemble)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NoAdmissibleDirection as exc:
        print(f"no admissible direction: {exc}", file=sys.stderr)
        return EXIT_NO_DIRECTION
    except NehariError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
