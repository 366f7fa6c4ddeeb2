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
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import verify as verify_mod
from .energy import pair_stats, phi_from_stats
from .errors import (
    AllMasked,
    ConfigParseError,
    ConstantsOutOfRange,
    NehariError,
    NoAdmissibleDirection,
    ValidationError,
)
from .fiber import project, psi
from .form import GagliardoForm, assemble_form
from .problem import (
    GridSpec,
    ProblemSpec,
    ValidatedProblem,
    WeightSpec,
    validate_params,
)
from .solver import (
    Branch,
    GapReport,
    SolutionReport,
    SolverOptions,
    gap_check,
    initial_direction,
    solve_points,
)
from .thresholds import ConstantsReport, compute_constants, estimate_S

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NO_DIRECTION = 4
EXIT_NOT_CONVERGED = 5

# fiber samples above this are refused before the t grid is allocated
MAX_FIBER_SAMPLES = 1_000_000
# grids above this many cells are refused a matrix dump before the dense
# matrix is built (128 MiB at 4096 cells, before its CSV lines)
MAX_DUMP_CELLS = 4096


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
        cells = cfg["grid"]["cells"]
        if int(cells) != cells:
            raise ConfigParseError(f"grid cells must be an integer, got {cells!r}")
        grid = GridSpec(left=float(cfg["grid"]["left"]),
                        right=float(cfg["grid"]["right"]),
                        cells=int(cells))
        return ProblemSpec(
            grid=grid,
            s=float(cfg["s"]), q=float(cfg["q"]),
            alpha=float(cfg["alpha"]), beta=float(cfg["beta"]),
            lam=float(cfg["lambda"]), mu=float(cfg["mu"]),
            f=WeightSpec.from_json(cfg["f"]),
            g=WeightSpec.from_json(cfg["g"]),
            b=WeightSpec.from_json(cfg["b"]),
        )
    except NehariError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise ConfigParseError(f"config is missing or mistypes a field: {exc}") from exc


def solver_options_from_config(cfg: dict, seed_override: int | None = None) -> SolverOptions:
    block = cfg.get("solver", {})
    if not isinstance(block, dict):
        raise ConfigParseError(f"solver block must be a JSON object, got {block!r}")
    overrides = dict(block)
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


def solution_to_json(report: SolutionReport, phash: str, form: GagliardoForm) -> dict:
    return {
        "branch": report.branch.value,
        "u": form.written_values(report.u).tolist(),
        "w": form.written_values(report.w).tolist(),
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


def _load(path: str) -> tuple[dict, ValidatedProblem]:
    cfg = load_config(path)
    return cfg, validate_params(problem_from_config(cfg))


def _constants_and_gap(problem: ValidatedProblem, form: GagliardoForm,
                       solutions: dict[Branch, SolutionReport]
                       ) -> tuple[ConstantsReport, GapReport | None]:
    """The constants of a run, and its gap verdict if it has one.

    The solution components join the quotient-search candidates, so the
    reported constants are consistent with the computed norms. The gap
    needs both branches present and converged; otherwise it is None.
    """
    extra = [a for rep in solutions.values() for a in (rep.u, rep.w)]
    constants = compute_constants(problem, estimate_S(form, problem.alpha + problem.beta, extra))
    plus, minus = solutions.get(Branch.PLUS), solutions.get(Branch.MINUS)
    if plus is None or minus is None or not (plus.converged and minus.converged):
        return constants, None
    return constants, gap_check(plus, minus, constants)


def cmd_constants(args) -> int:
    _, problem = _load(args.config)
    form = assemble_form(problem.grid, problem.s)
    report = compute_constants(problem, estimate_S(form, problem.alpha + problem.beta, []))
    print(json.dumps(report.as_dict(), indent=2))
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg, problem = _load(args.config)
    opts = solver_options_from_config(cfg, args.seed)
    phash = problem_hash(cfg)

    branches = {"plus": [Branch.PLUS], "minus": [Branch.MINUS],
                "both": [Branch.PLUS, Branch.MINUS]}[args.branch]
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    form = assemble_form(problem.grid, problem.s)
    timings["assemble_ms"] = 1e3 * (time.perf_counter() - t0)
    # the first Riesz map builds the factors every later one reuses (the
    # first column of G^{-1}, and below the crossover the dense inverse),
    # so the descent timing below is the descent alone
    t0 = time.perf_counter()
    form.riesz(np.zeros(form.nodes.size))
    timings["riesz_setup_ms"] = 1e3 * (time.perf_counter() - t0)
    # every branch's restarts descend as the rows of one block; a branch
    # without a solution fails the run, the first one asked for first,
    # before any file is written
    t0 = time.perf_counter()
    solved = solve_points([problem], form, branches, opts)
    timings["descent_ms"] = 1e3 * (time.perf_counter() - t0)
    solutions: dict[Branch, SolutionReport] = {}
    for branch in branches:
        [result] = solved[branch]
        if isinstance(result, NehariError):
            raise result
        solutions[branch] = result
    t0 = time.perf_counter()
    constants, gap = _constants_and_gap(problem, form, solutions)
    timings["constants_ms"] = 1e3 * (time.perf_counter() - t0)

    os.makedirs(args.out, exist_ok=True)
    paths = {}
    for branch, rep in solutions.items():
        path = os.path.join(args.out, f"solution_{branch.value}.json")
        _write_json(path, solution_to_json(rep, phash, form))
        paths[branch.value] = path
    if gap is not None:
        paths["gap"] = os.path.join(args.out, "gap.json")
        _write_json(paths["gap"], dataclasses.asdict(gap))

    summary = {
        "problem_hash": phash,
        "files": paths,
        "constants": constants.as_dict(),
        "solutions": {b.value: {"J": r.J, "norm": r.norm, "converged": r.converged,
                                "iters": r.iters, "restarts_used": r.restarts_used,
                                "restarts_joined": r.restarts_joined,
                                "stationarity": r.stationarity}
                      for b, r in solutions.items()},
        "gap": None if gap is None else gap.ordering_ok,
        "timings_ms": timings,
    }
    print(json.dumps(summary, indent=2))

    unconverged = [rep for rep in solutions.values() if not rep.converged]
    if unconverged and not args.allow_unconverged:
        print(f"{len(unconverged)} branch(es) did not converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


SWEEP_HEADER = ("lambda,mu,Lambda,C,in_gamma,plus_converged,minus_converged,"
                "J_plus,J_minus,norm_plus,norm_minus,A0,A_lm,gap_ok")


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
    # fail early on problems shared by every point
    cfg, shared = _load(args.config)
    opts = solver_options_from_config(cfg, args.seed)
    lambdas = _parse_grid_list(args.lambdas)
    mus = _parse_grid_list(args.mus)
    form = assemble_form(shared.grid, shared.s)
    # both grids are sorted, so the rows are too, whatever the input order;
    # each point is the shared problem at its (lambda, mu), so the config is
    # validated and its weights and grid arrays built once, and a point that
    # breaks the (lambda, mu) rules keeps its failure columns
    nan = float("nan")
    rows, points = [], []  # every point's row; the row and problem of each valid one
    for lam in lambdas:
        for mu in mus:
            rows.append({"lambda": lam, "mu": mu, "Lambda": nan, "C": nan, "in_gamma": False,
                         "plus_converged": False, "minus_converged": False,
                         "J_plus": nan, "J_minus": nan, "norm_plus": nan, "norm_minus": nan,
                         "A0": nan, "A_lm": nan, "gap_ok": False})
            try:
                points.append((rows[-1], shared.with_parameters(lam, mu)))
            except ValidationError:
                pass
    # form and opts do not depend on (lambda, mu), which is all the points
    # vary, so one block descent solves every valid point on both
    # branches; a branch a point does not reach keeps its failure columns,
    # and so do constants that overflow
    solved = solve_points([p for _, p in points], form, list(Branch), opts)
    for k, (row, problem) in enumerate(points):
        solutions = {branch: results[k] for branch, results in solved.items()
                     if isinstance(results[k], SolutionReport)}
        try:
            constants, gap = _constants_and_gap(problem, form, solutions)
            row.update({"Lambda": constants.Lambda, "C": constants.C,
                        "in_gamma": constants.in_gamma, "A0": constants.A0,
                        "A_lm": constants.A_lm, "gap_ok": gap is not None and gap.ordering_ok})
        except ConstantsOutOfRange:
            pass
        for branch, rep in solutions.items():
            row.update({f"{branch.value}_converged": rep.converged,
                        f"J_{branch.value}": rep.J, f"norm_{branch.value}": rep.norm})

    lines = [SWEEP_HEADER] + [_row_to_csv(r) for r in rows]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_fiber(args) -> int:
    _, problem = _load(args.config)
    form = assemble_form(problem.grid, problem.s)
    if not (math.isfinite(args.t_hi) and 0 < args.t_lo < args.t_hi):
        raise ValidationError(f"need finite 0 < t-lo < t-hi, got t-lo={args.t_lo}, "
                              f"t-hi={args.t_hi}")
    if not 2 <= args.samples <= MAX_FIBER_SAMPLES:
        raise ValidationError(f"need 2 to {MAX_FIBER_SAMPLES} samples, got {args.samples}")
    # numpy's generator would reject a negative seed with its own error
    if args.direction_seed < 0:
        raise ValidationError(f"--direction-seed must be at least 0, got {args.direction_seed}")

    rng = np.random.default_rng(args.direction_seed)
    for _ in range(1000):
        st = pair_stats(problem, form, initial_direction(problem, form, rng, Branch.PLUS))
        if {"any": True, "positive": st.B > 0, "negative": st.B <= 0}[args.coupling]:
            break
    else:
        raise NoAdmissibleDirection(
            f"found no direction with coupling sign {args.coupling!r}")

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
    _, problem = _load(args.config)
    if not (math.isfinite(args.res_tol) and args.res_tol > 0):
        raise ValidationError(f"--res-tol must be positive and finite, got {args.res_tol}")
    form = assemble_form(problem.grid, problem.s)
    try:
        with open(args.solution, "r", encoding="utf-8") as fh:
            sol = json.load(fh)
        u, w = (np.asarray(sol[key], dtype=float) for key in ("u", "w"))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        # ValueError covers a JSON syntax error and a non-numeric entry
        raise ConfigParseError(f"cannot read solution {args.solution}: {exc}") from exc
    nodes = problem.grid.node_count
    for key, values in (("u", u), ("w", w)):
        if values.shape != (nodes,):
            got = len(values) if values.ndim == 1 else f"an array of shape {values.shape} of"
            raise ConfigParseError(f"solution {args.solution} does not fit the config's grid: "
                                   f"{key} has {got} nodal values, the grid has {nodes}")
    pair = form.interior_values(np.stack([u, w]))

    if args.delta is None:
        delta = 1e-4 * min(float(np.max(pair[0])), float(np.max(pair[1])))
        if delta <= 0:
            raise AllMasked("a solution component vanishes at every node; "
                            "the stationarity residual has nothing to test")
    elif math.isfinite(args.delta) and args.delta > 0:
        delta = args.delta
    else:
        raise ValidationError(f"--delta must be positive and finite, got {args.delta}")
    residual = verify_mod.weak_residual(problem, form, pair, delta)

    # the chains hold at the pair's own quotient, so no G^{-1} is built
    checks = verify_mod.inequality_suite(problem, form, pair)

    residual_ok = (residual.res_u <= args.res_tol and residual.res_w <= args.res_tol)
    out = {
        "J_recomputed": checks.J,
        "J_file": sol.get("J"),
        "S_pair": checks.S,
        "residual": {"res_u": residual.res_u, "res_w": residual.res_w,
                     "masked_fraction": residual.masked_fraction,
                     "delta": residual.delta, "tol": args.res_tol,
                     "ok": residual_ok},
        "checks": checks.as_dict(),
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK if (checks.all_ok and residual_ok) else 1


def cmd_assemble(args) -> int:
    _, problem = _load(args.config)
    if args.dump_matrix and problem.grid.cells > MAX_DUMP_CELLS:
        raise ValidationError(f"--dump-matrix writes the dense matrix, so at most "
                              f"{MAX_DUMP_CELLS} cells, got {problem.grid.cells}")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: a build costs about a tenth of a constants
    # report at 1024 cells, and a parse leaves the parser as it was
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
    except (NehariError, OSError) as exc:
        # every read already names its failure, so an OSError is an output
        # path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a grid numpy can index but the host cannot hold fails on its first
        # array, before anything is written
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
