"""Smoke tests of the measurement scripts in tools/."""

import json
import os
import subprocess
import sys
from pathlib import Path

import markovlab

ROOT = Path(__file__).resolve().parents[1]


def _run_tool(name, out, *args):
    """Run tools/<name> from this checkout with BLAS on one thread, writing JSON to out."""
    src = str(Path(markovlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
           "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / name), "--seed", "1", *args, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_rational_layers_reports_every_kind_and_phase(tmp_path):
    # one timed round on seed 1; the tool checks its phase-by-phase residual
    # against every identity operation's own, so a drift fails it too
    out = tmp_path / "layers.json"
    proc = _run_tool("rational_layers.py", out, "--rounds", "1")
    rows = {row["kind"]: row for row in json.loads(out.read_text())}
    identity = [f"identity {mode} nvars={n}" for mode in ("exact", "float") for n in (1, 2)]
    assert sorted(rows) == sorted([*identity, "qms golden", "qms chain"])
    for name in identity:
        phases = rows[name]["phases_ms"]
        assert list(phases) == ["powers", "images", "products and sums", "scale"]
        assert all(ms > 0 for ms in phases.values())
    assert all("phases_ms" not in rows[name] for name in ("qms golden", "qms chain"))
    for name in rows:
        assert name in proc.stdout


def test_search_layers_matches_the_search_entry(tmp_path):
    # one timed repetition on seed 1: every searched row's phases end where
    # the search entry does, and V. Markov's sup rows are timed as one call
    out = tmp_path / "layers.json"
    proc = _run_tool("search_layers.py", out, "--reps", "1")
    assert "MISMATCH" not in proc.stdout
    rows = json.loads(out.read_text())
    assert all(row["match"] for row in rows)
    exact = [row["row"] for row in rows if "exact" in row]
    assert exact == [row["row"] for row in rows if row["row"].startswith("sup[")] and len(exact) == 15
    for row in rows:
        if "exact" not in row:
            assert set(row) == {"row", "cand", "build", "screen", "ascent", "cert", "total", "match",
                                "path", "matrix_rows", "chebder_calls"}
            # the box rows take the stacked plane screen, every other one the matrix
            plane = row["row"].startswith("sup_box2d")
            assert row["path"] == ("plane" if plane else "matrix") and row["chebder_calls"] > 0
            assert (row["matrix_rows"] > 0) != plane


def test_suite_times_reports_each_suite_with_versions(tmp_path):
    # one timed run of two suites: each row has its median and its checks,
    # which every run repeats, and the report names the versions it ran on
    out = tmp_path / "suites.json"
    proc = _run_tool("suite_times.py", out, "--reps", "1", "--suite", "qms", "--suite", "laplacian")
    report = json.loads(out.read_text())
    assert report["versions"]["blas_threads"] == "OPENBLAS_NUM_THREADS=1"
    assert set(report["versions"]) == {"python", "numpy", "blas_threads"} and report["seed"] == 1
    assert [row["suite"] for row in report["suites"]] == ["qms", "laplacian"]
    for row in report["suites"]:
        assert row["median_s"] > 0 and row["passed"] and row["same_checks"] and row["checks"]
        assert row["suite"] in proc.stdout
    assert "CHANGED" not in proc.stdout
