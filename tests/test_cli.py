import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import markovlab
from markovlab.cli import main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SUP_SPEC = {"kind": "sup", "set": {"kind": "interval", "a": -1, "b": 1}}


class TestNormCommand:
    def test_chebyshev_sup(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"normspec": SUP_SPEC, "poly": "chebyshev:8"})
        assert main(["norm", "--config", cfg]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(1.0, abs=1e-10)

    def test_unit_polynomial(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"normspec": SUP_SPEC, "poly": "1"})
        assert main(["norm", "--config", cfg]) == 0
        assert float(capsys.readouterr().out.strip()) == 1.0

    def test_missing_normspec_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"poly": "chebyshev:8"})
        assert main(["norm", "--config", cfg]) == 2
        assert "normspec" in capsys.readouterr().err

    def test_exact_qms_value(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "normspec": {"kind": "qms", "m": 2, "s": 2},
                "poly": "monomial:6",
                "mode": "exact",
            },
        )
        assert main(["norm", "--config", cfg]) == 0
        assert capsys.readouterr().out.strip() == f"1/{math.factorial(6)}"

    def test_json_artifact_embeds_metadata(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"normspec": SUP_SPEC, "poly": "1", "seed": 5})
        out = tmp_path / "norm.json"
        assert main(["norm", "--config", cfg, "--out", str(out)]) == 0
        blob = json.loads(out.read_text())
        for key in ("config_hash", "seed", "mode", "version", "value"):
            assert key in blob
        assert blob["seed"] == 5


class TestFactorTableCommand:
    def _config(self, tmp_path, out_name="tab.csv"):
        return write_config(
            tmp_path,
            "t.json",
            {
                "normspec": {
                    "kind": "lp",
                    "measure": {"kind": "lebesgue", "a": -1, "b": 1},
                    "s": 2,
                },
                "operator": {"kind": "deriv", "k": 1},
                "degrees": [1, 2, 3, 4],
                "seed": 7,
                "output": str(tmp_path / out_name),
            },
        )

    def test_golden_first_rows(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert main(["factor-table", "--config", cfg]) == 0
        lines = (tmp_path / "tab.csv").read_text().splitlines()
        header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_idx] == "op,n,factor,certification,witness_id,log_n,log_factor"
        row1 = lines[header_idx + 1].split(",")
        row2 = lines[header_idx + 2].split(",")
        assert float(row1[2]) == pytest.approx(math.sqrt(3.0), abs=1e-8)
        assert float(row2[2]) == pytest.approx(math.sqrt(15.0), abs=1e-8)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert main(["factor-table", "--config", cfg]) == 0
        first = (tmp_path / "tab.csv").read_bytes()
        assert main(["factor-table", "--config", cfg, "--out", str(tmp_path / "tab2.csv")]) == 0
        assert (tmp_path / "tab2.csv").read_bytes() == first

    def test_degrees_must_increase(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "bad.json",
            {
                "normspec": SUP_SPEC,
                "operator": {"kind": "deriv", "k": 1},
                "degrees": [3, 2],
                "output": str(tmp_path / "x.csv"),
            },
        )
        assert main(["factor-table", "--config", cfg]) == 2
        assert "degrees" in capsys.readouterr().err


class TestFitCommand:
    def test_square_law(self, tmp_path, capsys):
        table = tmp_path / "sq.csv"
        rows = ["op,n,factor,certification,witness_id,log_n,log_factor"]
        for n in range(1, 9):
            rows.append(f"deriv:1,{n},{float(n * n)!r},Exact,w,,")
        table.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--table", str(table), "--window", "1", "8"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[0]) == pytest.approx(2.0, abs=1e-10)
        assert float(out[1]) == pytest.approx(2.0, abs=1e-10)

    def test_too_few_rows(self, tmp_path, capsys):
        table = tmp_path / "tiny.csv"
        table.write_text(
            "op,n,factor,certification,witness_id,log_n,log_factor\n"
            "deriv:1,1,1.0,Exact,w,,\n"
        )
        assert main(["fit", "--table", str(table)]) == 2

    def test_fit_artifact_embeds_metadata(self, tmp_path, capsys):
        table = tmp_path / "sq.csv"
        rows = ["op,n,factor,certification,witness_id,log_n,log_factor"]
        for n in range(1, 9):
            rows.append(f"deriv:1,{n},{float(n * n)!r},Exact,w,,")
        table.write_text("\n".join(rows) + "\n")
        out = tmp_path / "fit.json"
        assert main(["fit", "--table", str(table), "--out", str(out)]) == 0
        blob = json.loads(out.read_text())
        for key in ("config_hash", "seed", "mode", "version", "slope_ls", "slope_envelope", "window", "r2"):
            assert key in blob


class TestVerifyCommand:
    def test_all_aggregates_with_prefixes(self, monkeypatch, capsys):
        import markovlab.verify as verify
        from markovlab.verify import CheckResult, SuiteReport

        def fake(name, status):
            def suite(seed, mode):
                rep = SuiteReport(name, seed, mode)
                rep.checks.append(CheckResult("only", status, 0.0, 0.0, 0.0))
                return rep

            return suite

        monkeypatch.setattr(verify, "SUITES", {"aa": fake("aa", "pass"), "bb": fake("bb", "pass")})
        rep = verify.run_suite("all", seed=1)
        assert [c.name for c in rep.checks] == ["aa/only", "bb/only"]
        assert rep.passed

    def test_failing_suite_exits_one(self, tmp_path, monkeypatch, capsys):
        import markovlab.verify as verify
        from markovlab.verify import CheckResult, SuiteReport

        def failing(seed, mode):
            rep = SuiteReport("synthetic", seed, mode)
            rep.checks.append(CheckResult("broken", "fail", 1.0, 0.0, 0.0))
            return rep

        monkeypatch.setattr(verify, "SUITES", {**verify.SUITES, "synthetic": failing})
        cfg = write_config(tmp_path, "v.json", {"suite": "synthetic"})
        assert main(["verify", "--config", cfg]) == 1

    def test_floor_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["verify", "--suite", "floor", "--out", str(out)]) == 0
        blob = json.loads(out.read_text())
        assert blob["suite"] == "floor"
        assert blob["passed"] is True
        assert {c["name"] for c in blob["checks"]} >= {"interval-sup-floor", "disk-sup-floor"}

    def test_unknown_suite(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "v.json", {"suite": "everything"})
        assert main(["verify", "--config", cfg]) == 2

    def test_suite_from_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "v.json", {"suite": "nikolskii", "seed": 3})
        assert main(["verify", "--config", cfg]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["suite"] == "nikolskii"
        assert blob["seed"] == 3


class TestOrthoExportCommand:
    def test_jacobi_export(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "o.json",
            {
                "family": {"kind": "jacobi", "alpha": 0.0, "beta": 0.0},
                "nmax": 8,
                "set": {"kind": "interval", "a": -1, "b": 1},
                "output": str(tmp_path / "sys.csv"),
            },
        )
        assert main(["ortho-export", "--config", cfg]) == 0
        lines = (tmp_path / "sys.csv").read_text().splitlines()
        header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_idx] == "n,a_n,b_n,supnorm_E"
        assert len(lines) == header_idx + 1 + 9

    def test_union_export(self, tmp_path, capsys):
        union = {"kind": "union", "parts": [{"kind": "interval", "a": -1, "b": -0.5},
                                            {"kind": "interval", "a": 0.5, "b": 1}]}
        cfg = write_config(tmp_path, "o.json", {"family": {"kind": "jacobi", "alpha": 0.0, "beta": 0.0},
                                                "nmax": 8, "set": union, "output": str(tmp_path / "sys.csv")})
        assert main(["ortho-export", "--config", cfg]) == 0
        rows = [ln.split(",") for ln in (tmp_path / "sys.csv").read_text().splitlines()
                if ln[:1].isdigit()]
        # the union contains 1, where the orthonormal Legendre Q_n peaks at sqrt(2n+1)
        assert [float(r[3]) for r in rows] == pytest.approx([math.sqrt(2 * n + 1) for n in range(9)],
                                                            abs=1e-12)

    def test_unknown_family(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "o.json", {"family": {"kind": "fourier"}, "output": "x"})
        assert main(["ortho-export", "--config", cfg]) == 2


def test_missing_config_file(tmp_path, capsys):
    assert main(["norm", "--config", str(tmp_path / "nope.json")]) == 2


LP_SPEC = {"kind": "lp", "measure": {"kind": "lebesgue", "a": -1, "b": 1}, "s": 2}
JACOBI_FAMILY = {"kind": "jacobi", "alpha": 0.5, "beta": 0.5}
TABLE = {"normspec": SUP_SPEC, "operator": {"kind": "deriv", "k": 1}, "degrees": [2, 4]}


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("factor-table", {**TABLE, "degrees": ["a"]}, "degrees"),
        ("factor-table", {**TABLE, "operator": {"kind": "deriv", "k": -1}}, "operator"),
        ("norm", {"normspec": SUP_SPEC, "poly": "chebyshev:-3"}, "poly"),
        ("norm", {"normspec": {**LP_SPEC, "s": math.nan}, "poly": "chebyshev:4"}, "normspec"),
        ("norm", {"normspec": SUP_SPEC, "poly": "chebyshev:4", "seed": "abc"}, "seed"),
        ("norm", {"normspec": SUP_SPEC, "poly": "chebyshev:4", "seed": 1.5}, "seed"),
        ("factor-table", {**TABLE, "seed": True}, "seed"),
        ("factor-table", {**TABLE, "budget": 0}, "budget"),
        ("factor-table", {**TABLE, "budget": 1.5}, "budget"),
        ("norm", {"normspec": {"kind": "schur", "alpha": 0.5, "set": {"kind": "interval", "a": 0, "b": 1}},
                  "poly": "chebyshev:4"}, "normspec"),
        ("factor-table", {**TABLE, "normspec": LP_SPEC, "degrees": [300]}, "degrees"),
        ("norm", {"normspec": "sup", "poly": "chebyshev:4"}, "normspec"),
        ("norm", {"normspec": {"kind": "schur", "alpha": 0.5, "set": None}, "poly": "chebyshev:4"},
         "normspec"),
        ("norm", {"normspec": SUP_SPEC, "poly": "chebyshev:4", "mode": "fast"}, "mode"),
        ("ortho-export", {"family": "jacobi"}, "family"),
        ("ortho-export", {"family": {"kind": "stieltjes"}}, "family"),
        ("ortho-export", {"family": {**JACOBI_FAMILY, "alpha": -2}}, "family"),
        ("ortho-export", {"family": JACOBI_FAMILY, "nmax": "abc"}, "nmax"),
        ("ortho-export", {"family": JACOBI_FAMILY, "nmax": 1000}, "nmax"),
        ("ortho-export", {"family": JACOBI_FAMILY, "set": {"kind": "blob"}}, "set"),
        ("ortho-export", {"family": {"kind": "stieltjes", "measure": {"kind": "lebesgue"}}, "nmax": 200},
         "nmax"),
        ("ortho-export", {"family": JACOBI_FAMILY, "set": {"kind": "region2d", "predicate": "disk_boundary"}}, "set"),
        ("ortho-export", {"family": JACOBI_FAMILY, "set": {"kind": "union", "parts": [{"kind": "point", "im": 1}]}},
         "set"),
        ("factor-table", {**TABLE, "operator": {"kind": "dirop", "v": [0.0]}}, "operator"),
        ("factor-table", {**TABLE, "operator": {"kind": "dirop", "v": [1.0, 2.0]}}, "operator"),
        ("factor-table", {**TABLE, "operator": {"kind": "hop", "H": [[[1], 0.0]]}}, "operator"),
    ],
    ids=["degree-string", "negative-k", "negative-poly-degree", "nan-lp-order", "seed-string",
         "seed-float", "seed-bool", "budget-zero", "budget-float", "schur-off-unit-interval",
         "l2-degree-over-cap", "normspec-not-object", "null-set", "unknown-mode",
         "ortho-family-string", "ortho-stieltjes-no-measure", "ortho-jacobi-alpha",
         "ortho-nmax-string", "ortho-nmax-over-cap", "ortho-unknown-set", "ortho-stieltjes-over-budget",
         "ortho-region-set", "ortho-complex-point", "dirop-zero-direction", "dirop-wrong-length",
         "hop-zero"],
)
def test_malformed_config_names_field(tmp_path, capsys, command, config, field):
    cfg = write_config(tmp_path, "bad.json", {**config, "output": str(tmp_path / "x.csv")})
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert f"config field '{field}'" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only reference
    code = "import sys, markovlab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(markovlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
