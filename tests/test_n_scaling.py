import glob
import importlib.util
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_n_scaling_smoke(tmp_path):
    # one cell count, in processes of its own, gives one complete row, the
    # median of three runs, with the verify times of a --before file beside it
    out, before = tmp_path / "scaling.json", tmp_path / "before.json"
    earlier = {"cells": 32, "verify": {"plus": {"exit": 0, "s": 1.0}}}
    before.write_text(json.dumps({"host": {"src_lines": 1}, "rows": [earlier]}))
    subprocess.run([sys.executable, str(ROOT / "tools" / "n_scaling.py"), "--cells", "32",
                    "--out", str(out), "--before", str(before)],
                   check=True, capture_output=True, timeout=120)
    bench = json.loads(out.read_text())
    assert bench["host"]["runs"] == 3
    assert bench["verify_before"] == {"host": {"src_lines": 1}, "rows": [earlier]}
    [row] = bench["rows"]
    assert (row["cells"], row["restarts"]) == (32, 8)
    assert set(row["timings_ms"]) == {"assemble_ms", "riesz_setup_ms", "descent_ms",
                                      "constants_ms"}
    for branch in ("plus", "minus"):
        sol = row["solutions"][branch]
        assert sol["converged"] is True
        assert 0 <= sol["restarts_joined"] < sol["restarts_used"] == 8
        assert sol["stationarity"] <= 1e-3
        assert row["verify"][branch]["exit"] == 0
        assert row["verify"][branch]["s"] > 0
    assert row["peak_rss_mb"] > 0
    # the 2x2 sweep runs in a process of its own, so its peak RSS is its own
    sweep = row["sweep"]
    assert sweep["exit"] == 0 and sweep["s"] > 0 and sweep["peak_rss_mb"] > 0
    assert [len(sweep[key].split(",")) for key in ("lambdas", "mus")] == [2, 2]
    lines = sum(pathlib.Path(p).read_text().count("\n")
                for p in glob.glob(str(ROOT / "src" / "neharifrac" / "*.py")))
    assert bench["host"]["src_lines"] == lines
    assert {"python", "numpy", "nproc"} <= set(bench["host"])


def test_a_row_is_the_median_of_its_runs():
    # each float is its median over the runs; counts and verdicts the first run's
    spec = importlib.util.spec_from_file_location("n_scaling", ROOT / "tools" / "n_scaling.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = [{"s": s, "iters": 8, "ok": True, "verify": {"plus": {"s": 10 * s, "exit": 0}}}
            for s in (3.0, 1.0, 2.0)]
    assert tool._median(runs) == {"s": 2.0, "iters": 8, "ok": True,
                                  "verify": {"plus": {"s": 20.0, "exit": 0}}}
