"""Smoke tests of the measurement scripts in tools/."""

import json
import os
import subprocess
import sys
from pathlib import Path

import markovlab

ROOT = Path(__file__).resolve().parents[1]


def test_rational_layers_reports_every_kind_and_phase(tmp_path):
    # one timed round on seed 1; the tool checks its phase-by-phase residual
    # against every identity operation's own, so a drift fails it too
    src = str(Path(markovlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
           "OPENBLAS_NUM_THREADS": "1"}
    out = tmp_path / "layers.json"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "rational_layers.py"), "--seed", "1",
                           "--rounds", "1", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
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
