"""Benchmark of the neharifrac CLI: closed-loop workloads with output checks.

Run from the repository root:

    python3 perfbench/run.py --workload solve_verify_n128 --seed 1 --seconds 30 --trace 0

It imports the program from ``src/`` of the same checkout, draws the
workload's inputs from ``--seed``, runs one operation at a time for
``--seconds`` seconds, checks every output, and prints the metrics named in
``BENCHMARK.json``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. The last line of stdout is one
JSON object; the lines above it give every metric with its unit, the
checks and the run's metadata. Traced runs also write their spans to
``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

SETUP_REPS = 5
# the first input runs again as this operation, so that a timed run
# repeats an input and its artifacts can be compared byte for byte
REPEAT_AT = 6
SCAN_SIZES = (128, 256, 512, 1024)
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import neharifrac.cli"


def import_program():
    """Import neharifrac from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "neharifrac", "__init__.py")):
        sys.exit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, SRC)
    import neharifrac
    if not os.path.abspath(neharifrac.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported neharifrac from {neharifrac.__file__}, not {SRC}")
    return neharifrac


def metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
            "why": {w["name"]: w["why"] for w in spec["workloads"]}}


def metadata(seed: int) -> dict:
    import numpy as np
    files = sorted(os.path.join(d, f) for d, _, fs in os.walk(SRC) for f in fs
                   if f.endswith(".py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"seed": seed, "git_commit": commit, "src_sha256": digest.hexdigest(),
            "src_py_lines": lines, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be found."""
    import ctypes
    import glob
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


class Calibrator:
    """Times a fixed kernel between operations to measure how fast the host
    runs right now.

    On a shared host the same operation runs up to 1.7x slower for seconds
    to minutes at a time. Timed end-to-end metrics are scaled by the ratio
    of a nominal kernel time to the run's median kernel time, so they
    follow the program's speed rather than the host's load. There is one
    kernel per kind of work the program does: "loop", a Python loop over
    small dense products like the solver's at N=128, and "matvec",
    products with a 1024x1024 matrix like the form's at N=1024. A workload
    is scaled by the kernel that matches its work.
    """

    # kernel times the scaled metrics refer to, near this host's typical ones
    NOMINAL_S = {"loop": 0.040, "matvec": 0.037}

    def __init__(self, kind: str):
        import numpy as np
        rng = np.random.default_rng(0)
        if kind == "loop":
            a, x = rng.random((127, 127)), rng.random(127)
            self.step, self.reps = (lambda: float(x @ a @ x)), 6000
        else:
            a, x = rng.random((1024, 1024)), rng.random(1024)
            self.step, self.reps = (lambda: float(x @ (a @ x))), 160
        self.kind = kind
        self.samples: list[float] = []

    def sample(self) -> None:
        # a short untimed pass first: an operation has just evicted the
        # kernel's data from the caches
        for _ in range(self.reps // 10):
            self.step()
        t0 = time.perf_counter()
        for _ in range(self.reps):
            self.step()
        self.samples.append(time.perf_counter() - t0)

    def scale(self, since: int = 0) -> float:
        """Nominal over measured kernel time, from the samples since `since`."""
        return self.NOMINAL_S[self.kind] / statistics.median(self.samples[since:])


def set_up(wl, seed: int, workdir: str, reps: int, cal: Calibrator) -> tuple[float, list]:
    """Time imports (in a fresh interpreter), input generation and
    validation; median over `reps` repetitions, scaled to nominal host
    speed."""
    samples, inputs = [], None
    first = len(cal.samples)
    for _ in range(reps):
        cal.sample()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True, timeout=60)
        inputs = wl.make_inputs(seed, workdir)
        inputs.insert(REPEAT_AT, inputs[0])
        samples.append(time.perf_counter() - t0)
    cal.sample()
    return statistics.median(samples) * cal.scale(first), inputs


def run_op(wl, inp, outdir: str, tracer=None) -> tuple[float, str | None]:
    t0 = time.perf_counter()
    try:
        wl.run(inp, outdir, tracer)
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, None


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest order statistic with ten samples beyond it (needs more than
    ten samples), and its percentile."""
    xs = sorted(samples)
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def closed_loop(wl, inputs: list, seconds: float, workdir: str, cal: Calibrator,
                tracer=None) -> list[dict]:
    """Run the inputs in turn, one operation at a time, for `seconds`, with
    a calibration sample before each operation and after the last. With a
    tracer, each operation runs untraced ("plain") and then traced."""
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() < start + seconds:
        i = len(records)
        rec = {"input": i % len(inputs), "dir": os.path.join(workdir, f"op{i}")}
        inp = inputs[rec["input"]]
        cal.sample()
        rec["wall"], rec["error"] = run_op(wl, inp, rec["dir"])
        if tracer is not None and rec["error"] is None:
            rec["plain"] = rec["wall"]
            with tracer.operation(i):
                rec["wall"], rec["error"] = run_op(wl, inp, rec["dir"] + "t", tracer)
            if rec["error"] is None and wl.outputs(rec["dir"] + "t") != wl.outputs(rec["dir"]):
                rec["error"] = "traced artifacts differ from the untraced ones"
        records.append(rec)
    cal.sample()
    return records


def check_records(wl, inputs: list, records: list[dict], log: list) -> None:
    """Output checks, outside the timed region; repeats of an input must
    leave byte-identical artifacts."""
    first = {}
    for rec in records:
        if rec["error"] is not None:
            continue
        try:
            lines = wl.check(inputs[rec["input"]], rec["dir"])
        except Exception as exc:  # a failed check fails its operation
            rec["error"] = f"check {type(exc).__name__}: {exc}"
            continue
        key = json.dumps(inputs[rec["input"]], sort_keys=True)
        artifacts = wl.outputs(rec["dir"])
        if key not in first:
            first[key] = artifacts
            log.extend(lines)
        elif first[key] != artifacts:
            rec["error"] = "artifacts differ from an earlier run of the same input"


def untraced(wl, inputs, seconds: float, workdir: str, cal: Calibrator, log) -> dict:
    first_cal = len(cal.samples)
    records = closed_loop(wl, inputs, seconds, workdir, cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = cal.scale(first_cal)

    if len(records) > REPEAT_AT:
        check_records(wl, inputs, records, log)
        repeat = records[REPEAT_AT]
    else:  # too short a run to repeat an input: repeat one now, untimed
        repeat = {"input": REPEAT_AT, "dir": os.path.join(workdir, "repeat")}
        repeat["wall"], repeat["error"] = run_op(wl, inputs[REPEAT_AT], repeat["dir"])
        check_records(wl, inputs, records + [repeat], log)
        if repeat["error"] is not None and records[0]["error"] is None:
            records[0]["error"] = f"repeat: {repeat['error']}"
    log.append(f"repeat of input 0: {repeat['error'] or 'byte-identical artifacts'}")

    ok = [r["wall"] for r in records if r["error"] is None]
    if not ok:
        return {"records": records, "metrics": dict.fromkeys(
            ("op_p50_s", "ops_per_s", "points_per_s"), 0.0) | {"peak_rss_mb": peak_rss_mb}}
    log.append(f"{len(records)} operations; {cal.kind} kernel median "
               f"{Calibrator.NOMINAL_S[cal.kind] / scale * 1e3:.3f} ms, so timed metrics are "
               f"scaled by {scale:.4f}")
    log.append("operation times as measured (s): "
               + " ".join(f"{r['wall']:.4f}" if r["error"] is None else "failed" for r in records))
    log.append(f"{cal.kind} kernel before each operation and after the last (ms): "
               + " ".join(f"{1e3 * t:.3f}" for t in cal.samples[first_cal:]))
    log.append(f"as measured: op_p50_s {statistics.median(ok):.4f}, "
               f"ops_per_s {len(ok) / sum(ok):.4f}")
    if len(ok) > 10:
        value, pct = tail(ok)
        log.append(f"op_tail_s {value * scale:.4f} s: p{pct:.1f} of n={len(ok)} operations, "
                   "10 beyond it")
    else:
        log.append(f"op_tail_s: n={len(ok)} operations, none has 10 beyond it")
    ops_per_s = len(ok) / sum(ok) / scale
    return {"records": records, "metrics": {
        "op_p50_s": statistics.median(ok) * scale,
        "ops_per_s": ops_per_s,
        "points_per_s": ops_per_s * wl.points_per_op,
        "peak_rss_mb": peak_rss_mb,
    }}


def form_scan(nf, cells: int) -> dict:
    """Assembly and apply time of the form across N, and its memory at the
    workload's N (tracemalloc peak; operator bytes computed from array sizes)."""
    import numpy as np
    from workloads import bump
    out = {}
    for n in SCAN_SIZES:
        grid = nf.GridSpec(-1.0, 1.0, n)
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            form = nf.assemble_form(grid, 0.4)
            times.append(time.perf_counter() - t0)
        out[f"form.assemble_s.n{n}"] = statistics.median(times)
        u = bump(grid)
        batch = max(5, 131072 // n)
        per_call = []
        for _ in range(9):
            t0 = time.perf_counter()
            for _ in range(batch):
                nf.apply_form(form, u)
            per_call.append((time.perf_counter() - t0) / batch)
        out[f"form.apply_s.n{n}"] = statistics.median(per_call)
    grid = nf.GridSpec(-1.0, 1.0, cells)
    tracemalloc.start()
    try:
        form = nf.assemble_form(grid, 0.4)
        out["form.assemble_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    out["form.operator_bytes"] = float(sum(
        v.nbytes for v in getattr(form, "__dict__", {}).values() if isinstance(v, np.ndarray)))
    return out


def traced(wl, inputs, seconds: float, workdir: str, cal: Calibrator, nf, log) -> dict:
    from tracing import LAYERS, PSI_COUNTED, SPANNED, COUNTED, Tracer
    tracer = Tracer()
    records = closed_loop(wl, inputs, seconds, workdir, cal, tracer)
    check_records(wl, inputs, records, log)
    ok = [r for r in records if r["error"] is None]
    n = max(len(ok), 1)
    log.append(f"traced operations: {len(ok)} of {len(records)}; traced artifacts are "
               "byte-identical to the untraced ones" if len(ok) == len(records) else
               f"traced operations: {len(ok)} of {len(records)} succeeded")

    s = tracer.summary()
    inc, calls, self_time = s["inclusive"], s["calls"], s["self"]
    counts = tracer.counts
    absent_labels = {label for _, _, label in SPANNED + COUNTED} - {
        label for m, d, label in SPANNED + COUNTED if f"{m}.{d}" not in tracer.absent}

    # psi evaluations, counted in a pass of their own
    psi_per_project = 0.0  # no projections, no psi evaluations
    if calls["fiber.project"]:
        psi_tracer = Tracer(counted=PSI_COUNTED, spanned=())
        with psi_tracer.operation(0):
            _, err = run_op(wl, inputs[0], os.path.join(workdir, "psi"))
        projects = psi_tracer.counts["fiber.project"]
        absent = err is not None or not projects or "neharifrac.fiber.psi" in psi_tracer.absent
        psi_per_project = None if absent else psi_tracer.counts["fiber.psi"] / projects

    traced_wall = sum(r["wall"] for r in ok)
    m = {}

    def put(name, value, label=None):
        m[name] = None if label in absent_labels else value

    put("problem.validate_s", inc["problem.validate"] / n, "problem.validate")
    put("problem.gridfunction_count", counts["problem.gridfunction"] / n, "problem.gridfunction")
    put("form.assemble_s", inc["form.assemble"] / n, "form.assemble")
    put("form.assemble_calls", calls["form.assemble"] / n, "form.assemble")
    put("energy.gradient_calls", calls["energy.gradient"] / n, "energy.gradient")
    put("energy.gradient_s", inc["energy.gradient"] / n, "energy.gradient")
    put("energy.pair_stats_calls", calls["energy.pair_stats"] / n, "energy.pair_stats")
    put("energy.pair_stats_s", inc["energy.pair_stats"] / n, "energy.pair_stats")
    put("fiber.project_calls", calls["fiber.project"] / n, "fiber.project")
    put("fiber.project_s", inc["fiber.project"] / n, "fiber.project")
    m["fiber.psi_per_project"] = psi_per_project
    for branch in ("plus", "minus"):
        put(f"solver.solve_s.{branch}", counts[f"solver.solve_s.{branch}"] / n, "solver.solve")
        put(f"solver.iters.{branch}", counts[f"solver.iters.{branch}"] / n, "solver.solve")
    put("solver.iters_total", calls["energy.gradient"] / n, "energy.gradient")
    put("solver.accept_ratio", calls["energy.gradient"] / max(calls["fiber.project"], 1),
        "fiber.project")
    put("solver.self_s", self_time["solver"] / n)
    put("thresholds.constants_s", inc["thresholds.constants"] / n, "thresholds.constants")
    put("thresholds.estimate_S_s", inc["thresholds.estimate_S"] / n, "thresholds.estimate_S")
    put("thresholds.estimate_S_coupled_s", inc["thresholds.estimate_S_coupled"] / n,
        "thresholds.estimate_S_coupled")
    put("verify.residual_s", inc["verify.residual"] / n, "verify.residual")
    put("verify.inequality_s", inc["verify.inequality"] / n, "verify.inequality")
    for cmd in ("solve", "verify", "sweep", "constants"):
        put(f"cli.{cmd}_s", inc[f"cli.{cmd}"] / n)
    put("cli.op_s", traced_wall / n)
    put("cli.self_s", self_time["cli"] / n)
    for layer in LAYERS:
        put(f"{layer}.self_share", 100.0 * self_time[layer] / max(s["root"], 1e-300))
    put("trace.overhead_ratio", statistics.median(r["wall"] / r["plain"] for r in ok)
        if ok else 0.0)
    log.append(f"self times of {', '.join(LAYERS)} add up to "
               f"{sum(self_time.values()):.4f} s of {traced_wall:.4f} s traced operation "
               f"time ({100 * sum(self_time.values()) / max(traced_wall, 1e-300):.2f}%); "
               f"tracing overhead ratio {m['trace.overhead_ratio']:.3f}")
    if tracer.absent:
        log.append("absent from the program: " + ", ".join(sorted(tracer.absent)))
    m.update(form_scan(nf, wl.cells))
    return {"records": records, "metrics": m, "tracer": tracer}


def unit_of(name: str, units: dict) -> str:
    if name in units:
        return units[name]
    for suffix, unit in (("_s", "s"), ("_share", "%"), ("_ratio", "ratio"), ("_mb", "MB")):
        if name.endswith(suffix) or suffix + "." in name:
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nf = import_program()
    specs = metric_specs()
    os.environ.pop("NEHARI_FRAC_JOBS", None)  # the sweep runs at the CLI's default concurrency
    from workloads import WORKLOADS, oracle_check
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    meta = metadata(args.seed)
    log = [f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
           f"workload: {specs['why'].get(wl.name)}", "meta " + json.dumps(meta, sort_keys=True)]
    workdir = os.path.join(WORK, f"{wl.name}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    correct = True
    cal = Calibrator(wl.host_kernel)
    try:
        setup_s, inputs = set_up(wl, args.seed, workdir,
                                 SETUP_REPS if args.trace == 0 else 1, cal)
        if args.trace == 0:
            result = untraced(wl, inputs, args.seconds, workdir, cal, log)
            result["metrics"]["setup_s"] = setup_s
        else:
            result = traced(wl, inputs, args.seconds, workdir, cal, nf, log)
        records = result["records"]
        metrics = result["metrics"]
        try:
            oracle_s, line = oracle_check(wl.cells)
            log.append(line)
            extra_lines, extra = wl.final_checks(workdir, args.seed)
            log.extend(extra_lines)
        except Exception as exc:  # a failed check is reported, not fatal
            correct = False
            oracle_s, extra = 0.0, {}
            log.append(f"CHECK FAILED {type(exc).__name__}: {exc}")
        metrics["verify.oracle_s"] = oracle_s
        metrics["cli.mixed_sign_crashes"] = extra.get("cli.mixed_sign_crashes", 0)
        if args.trace == 1:
            path = os.path.join(WORK, f"trace-{wl.name}-s{args.seed}.json.gz")
            with gzip.open(path, "wt", encoding="utf-8") as fh:
                json.dump({"meta": meta, "metrics": metrics,
                           "trace": result["tracer"].export()}, fh)
            log.append(f"spans written to {os.path.relpath(path, ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r["error"] is not None]
    for rec in failed[:5]:
        log.append(f"FAILED operation on input {rec['input']}: {rec['error']}")
    correct = correct and not failed
    log.append(f"fail_ratio {len(failed)}/{len(records)} = {len(failed) / len(records):.4f}")

    wanted = specs["per_layer" if args.trace else "end_to_end"]
    shown = metrics if args.trace else {k: metrics[k] for k in wanted}
    for name in sorted(shown):
        value = shown[name]
        text = "absent" if value is None else f"{value:.6g}"
        log.append(f"{name:34s} {text:>14s} {unit_of(name, wanted)}")
    print("\n".join(log))
    missing = set(wanted) - set(metrics)
    if missing:
        sys.exit(f"perfbench: BENCHMARK.json names metrics this run does not make: {missing}")
    # numbers only: an absent metric (its name left the program) reads 0
    out = {name: {"value": float(metrics[name] or 0.0), "unit": unit}
           for name, unit in wanted.items()}
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
