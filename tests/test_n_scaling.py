import glob
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_n_scaling_smoke(tmp_path):
    # one cell count, in a process of its own, gives one complete row
    out = tmp_path / "scaling.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "n_scaling.py"), "--cells", "32",
                    "--out", str(out)], check=True, capture_output=True, timeout=120)
    bench = json.loads(out.read_text())
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
