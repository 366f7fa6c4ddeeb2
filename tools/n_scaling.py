"""N-scaling benchmark of the CLI: `solve --branch both`, then `verify` on
both solution files, and a 2x2 `sweep`, on the README config at a range of
cell counts.

Run from the repository root:

    python3 tools/n_scaling.py                       # writes BENCH_nscaling.json
    python3 tools/n_scaling.py --cells 128,1024 --out scaling.json
    python3 tools/n_scaling.py --before parent.json  # with another run's verify times

It imports the program from ``src/`` of the checkout it lives in. Each cell
count runs the solve and its two verifies in a process of its own, and the
sweep in another, so each peak RSS is that of its own commands. Grids up to
4096 cells take 8 restarts, finer ones 1. A row gives `solve`'s
`timings_ms`, its wall time, each branch's iterations, `restarts_joined`,
stationarity and verdict, each `verify`'s wall time and exit code, and the
sweep's wall time, exit code and peak RSS. Each cell count runs RUNS times,
since one run on a shared host is noise, and a row gives each time and peak
RSS as the median over the runs. The file also records the run count, the
`src/` line count (as `cat src/neharifrac/*.py | wc -l` counts it) and the
Python, numpy and core counts of the host, and, with ``--before``, the
verify times of another file of this tool's, such as a run of the parent
commit, by cell count.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DEFAULT_CELLS = (128, 256, 512, 1024, 2048, 4096, 16384, 65536)
# above this many cells a solve takes one restart instead of eight
MANY_RESTARTS_CELLS = 4096
RUNS = 3
README_CONFIG = {
    "grid": {"left": -1.0, "right": 1.0, "cells": 256},
    "s": 0.4, "q": 0.5, "alpha": 1.5, "beta": 1.5,
    "lambda": 0.01, "mu": 0.01,
    "f": {"kind": "constant", "value": 1.0},
    "g": {"kind": "constant", "value": 1.0},
    "b": {"kind": "cos_pi_x", "amplitude": 1.0},
    "solver": {"restarts": 8, "seed": 0},
}
# the sweep's (lambda, mu) grid: one point inside the admissible region,
# and points beyond the threshold C on either axis
SWEEP_LAMBDAS = "0.005,0.02"
SWEEP_MUS = "0.005,0.05"


def _quiet(cli, argv: list[str]) -> tuple[int, str, float]:
    """Exit code, stdout and wall seconds of one in-process CLI command."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - t0


def _config(work: str, cells: int) -> tuple[str, int]:
    """The README config at this cell count, written into work; its path
    and restart count."""
    restarts = 8 if cells <= MANY_RESTARTS_CELLS else 1
    cfg = json.loads(json.dumps(README_CONFIG))
    cfg["grid"]["cells"] = cells
    cfg["solver"]["restarts"] = restarts
    path = os.path.join(work, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path, restarts


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(cells: int) -> dict:
    """One row: the solve and both verifies at one cell count, in this process."""
    sys.path.insert(0, SRC)
    from neharifrac import cli

    with tempfile.TemporaryDirectory() as work:
        path, restarts = _config(work, cells)
        out = os.path.join(work, "run")
        code, stdout, solve_s = _quiet(cli, ["solve", path, "--branch", "both", "--out", out])
        if code != 0:
            raise SystemExit(f"solve exited {code} at {cells} cells")
        summary = json.loads(stdout)
        verify = {}
        for branch in ("plus", "minus"):
            code, _, seconds = _quiet(cli, ["verify", path, "--solution",
                                            os.path.join(out, f"solution_{branch}.json")])
            verify[branch] = {"exit": code, "s": seconds}
    keep = ("iters", "restarts_used", "restarts_joined", "stationarity", "converged")
    return {"cells": cells, "restarts": restarts, "solve_s": solve_s,
            "timings_ms": summary["timings_ms"],
            "solutions": {b: {k: sol[k] for k in keep}
                          for b, sol in summary["solutions"].items()},
            "verify": verify,
            "peak_rss_mb": _peak_rss_mb()}


def measure_sweep(cells: int) -> dict:
    """The sweep of one row, at one cell count, in this process."""
    sys.path.insert(0, SRC)
    from neharifrac import cli

    with tempfile.TemporaryDirectory() as work:
        path, _ = _config(work, cells)
        code, _, seconds = _quiet(cli, ["sweep", path, "--lambdas", SWEEP_LAMBDAS,
                                        "--mus", SWEEP_MUS, "--out",
                                        os.path.join(work, "sweep.csv")])
    return {"lambdas": SWEEP_LAMBDAS, "mus": SWEEP_MUS, "exit": code, "s": seconds,
            "peak_rss_mb": _peak_rss_mb()}


def _child(flag: str, cells: str) -> dict:
    child = subprocess.run([sys.executable, os.path.abspath(__file__), flag, cells],
                           capture_output=True, text=True)
    if child.returncode != 0:
        raise SystemExit(f"{cells} cells: {child.stderr.strip()}")
    return json.loads(child.stdout)


def _median(runs: list):
    """The runs of one row as one: the median of each float, and the first
    run's value of every other field (counts, verdicts, exit codes)."""
    first = runs[0]
    if isinstance(first, dict):
        return {key: _median([run[key] for run in runs]) for key in first}
    return statistics.median(runs) if isinstance(first, float) else first


def metadata() -> dict:
    import numpy as np

    lines = 0
    for path in glob.glob(os.path.join(SRC, "neharifrac", "*.py")):
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")
    return {"src_lines": lines, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cells", default=",".join(map(str, DEFAULT_CELLS)),
                        help="comma-separated cell counts")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_nscaling.json"))
    parser.add_argument("--before", help="an earlier file of this tool's, whose verify "
                        "times to record beside these")
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--one-sweep", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one is not None:
        print(json.dumps(measure(args.one)))
        return 0
    if args.one_sweep is not None:
        print(json.dumps(measure_sweep(args.one_sweep)))
        return 0
    rows = []
    for cells in args.cells.split(","):
        rows.append(_median([{**_child("--one", cells), "sweep": _child("--one-sweep", cells)}
                             for _ in range(RUNS)]))
        print(f"{cells} cells: solve {rows[-1]['solve_s']:.3f} s, verify "
              + " / ".join(f"{v['s']:.3f}" for v in rows[-1]["verify"].values())
              + f" s, sweep {rows[-1]['sweep']['s']:.3f} s", file=sys.stderr)
    bench = {"base_config": README_CONFIG, "host": {**metadata(), "runs": RUNS},
             "rows": rows}
    if args.before:
        with open(args.before, encoding="utf-8") as fh:
            before = json.load(fh)
        bench["verify_before"] = {"host": before["host"],
                                  "rows": [{"cells": row["cells"], "verify": row["verify"]}
                                           for row in before["rows"]]}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
