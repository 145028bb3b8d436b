import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_qms_rows_are_exact(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "qms.json", {
            "normspec": {"kind": "qms", "m": 2, "s": 3}, "operator": {"kind": "deriv", "k": 1},
            "degrees": [4, 16], "output": str(tmp_path / "qms.csv")})
        assert main(["factor-table", "--config", cfg]) == 0
        rows = [ln.split(",") for ln in (tmp_path / "qms.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert [row[1:5] for row in rows] == [["4", "18.0", "Exact", "monomial:3"],
                                              ["16", "3726450.0", "Exact", "monomial:15"]]
        # a factor past the double range is an error, not a traceback
        over = write_config(tmp_path, "over.json", {
            "normspec": {"kind": "qms", "m": 2, "s": 3}, "operator": {"kind": "dirop", "v": [1e308]},
            "degrees": [8], "output": str(tmp_path / "over.csv")})
        assert main(["factor-table", "--config", over]) == 1
        assert "leaves the double range" in capsys.readouterr().err

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
            def suite(seed):
                rep = SuiteReport(name, seed)
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

        def failing(seed):
            rep = SuiteReport("synthetic", seed)
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


_HEADER = "op,n,factor,certification,witness_id,log_n,log_factor\n"
_TABLES = {
    "square.csv": _HEADER + "".join(f"deriv:1,{n},{float(n * n)!r},Exact,w,,\n" for n in range(1, 9)),
    "n-float.csv": _HEADER + "".join(f"deriv:1,{n}.5,1.0,Exact,w,,\n" for n in range(1, 9)),
    "no-factor.csv": "op,n,value\n" + "".join(f"deriv:1,{n},1.0\n" for n in range(1, 9)),
}
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
        ("norm", {"normspec": SUP_SPEC, "poly": {"coeffs": ["a"]}}, "poly"),
        ("norm", {"normspec": SUP_SPEC, "poly": ["1", None]}, "poly"),
        ("norm", {"normspec": SUP_SPEC, "poly": [1.0, math.inf]}, "poly"),
        ("norm", {"normspec": {"kind": "qms", "m": 2, "s": 2}, "poly": ["1/2", "x"], "mode": "exact"},
         "poly"),
        ("norm", {"normspec": SUP_SPEC, "poly": [True, False]}, "poly"),
        ("norm", {"normspec": {"kind": "qms", "m": 2, "s": 2}, "poly": [False, True], "mode": "exact"},
         "poly"),
        ("fit", {"table": "missing.csv"}, "table"),
        ("fit", {"table": "n-float.csv"}, "table"),
        ("fit", {"table": "no-factor.csv"}, "table"),
        ("fit", {"table": ["square.csv"]}, "table"),
        ("fit", {"table": "square.csv", "window": 5}, "window"),
        ("factor-table", {**TABLE, "output": ["x.csv"]}, "output"),
        ("factor-table", {**TABLE, "output": "no-such-dir/x.csv"}, "output"),
        ("ortho-export", {"family": JACOBI_FAMILY, "output": {"path": "x.csv"}}, "output"),
        ("ortho-export", {"family": JACOBI_FAMILY, "output": "."}, "output"),
        ("verify", {"suite": ["di"]}, "suite"),
        ("norm", {"normspec": {"kind": "qms", "m": math.nan, "s": 2}, "poly": "chebyshev:4"}, "normspec"),
        ("norm", {"normspec": {"kind": "qms", "m": 2, "s": math.inf}, "poly": "chebyshev:4"}, "normspec"),
        ("norm", {"normspec": {"kind": "schur", "alpha": math.inf}, "poly": "chebyshev:4"}, "normspec"),
        ("norm", {"normspec": {"kind": "taylor_disk", "set": SUP_SPEC["set"], "r": math.nan},
                  "poly": "chebyshev:4"}, "normspec"),
        ("norm", {"normspec": {"kind": "sup", "set": {"kind": "interval", "a": -1, "b": math.inf}},
                  "poly": "chebyshev:4"}, "normspec"),
        ("norm", {"normspec": {**LP_SPEC, "measure": {"kind": "lebesgue", "a": -1e308, "b": 1e308}},
                  "poly": "chebyshev:4"}, "normspec"),
        ("norm", {"normspec": {**LP_SPEC, "measure": {"kind": "jacobi", "alpha": math.nan, "beta": 0}},
                  "poly": "chebyshev:4"}, "normspec"),
        ("norm", {"normspec": {"kind": "sup", "set": {"kind": "union", "parts": [{"kind": "point", "re": math.nan}]}},
                  "poly": "chebyshev:4"}, "normspec"),
        # a JSON number is never a boolean, and an integer field takes no fraction
        ("factor-table", {**TABLE, "operator": {"kind": "deriv", "k": 1.7}}, "operator"),
        ("factor-table", {**TABLE, "operator": {"kind": "hop", "H": [[[2.5], 1.0]]}}, "operator"),
        ("factor-table", {**TABLE, "operator": {"kind": "dirop", "v": [True]}}, "operator"),
        ("norm", {"normspec": {"kind": "qms", "m": 2, "s": 2.5}, "poly": "chebyshev:4"}, "normspec"),
        ("norm", {"normspec": {**LP_SPEC, "s": True}, "poly": "chebyshev:4"}, "normspec"),
        ("norm", {"normspec": {"kind": "sup", "set": {"kind": "interval", "a": False, "b": 1}},
                  "poly": "chebyshev:4"}, "normspec"),
        ("norm", {"normspec": {"kind": "sup", "set": {"kind": "union", "parts": [{"kind": "point", "im": True}]}},
                  "poly": "chebyshev:4"}, "normspec"),
        ("norm", {"normspec": {"kind": "sup", "set": {"kind": "region2d", "predicate": "disk_boundary",
                                                       "points": 128.5}}, "poly": "chebyshev:4"}, "normspec"),
        ("norm", {"normspec": {**LP_SPEC, "measure": {"kind": "jacobi", "alpha": True, "beta": 0}},
                  "poly": "chebyshev:4"}, "normspec"),
        ("norm", {"normspec": {**LP_SPEC, "measure": {"kind": "lebesgue", "a": "-1", "b": 1}},
                  "poly": "chebyshev:4"}, "normspec"),
        ("ortho-export", {"family": {**JACOBI_FAMILY, "alpha": True}}, "family"),
        ("ortho-export", {"family": {**JACOBI_FAMILY, "beta": 10**400}}, "family"),
        ("ortho-export", {"family": JACOBI_FAMILY, "set": {"kind": "interval", "a": -1, "b": True}}, "set"),
    ],
    ids=["degree-string", "negative-k", "negative-poly-degree", "nan-lp-order", "seed-string",
         "seed-float", "seed-bool", "budget-zero", "budget-float", "schur-off-unit-interval",
         "l2-degree-over-cap", "normspec-not-object", "null-set", "unknown-mode",
         "ortho-family-string", "ortho-stieltjes-no-measure", "ortho-jacobi-alpha",
         "ortho-nmax-string", "ortho-nmax-over-cap", "ortho-unknown-set", "ortho-stieltjes-over-budget",
         "ortho-region-set", "ortho-complex-point", "dirop-zero-direction", "dirop-wrong-length",
         "hop-zero", "coeff-string", "coeff-null", "coeff-infinite", "exact-coeff-string",
         "coeff-bool", "exact-coeff-bool",
         "fit-missing-table", "fit-n-not-integer", "fit-no-factor-column", "fit-table-list",
         "fit-window-number", "output-list", "output-missing-dir", "ortho-output-object",
         "ortho-output-directory", "verify-suite-list", "qms-m-nan", "qms-s-infinite",
         "schur-alpha-infinite", "taylor-r-nan", "interval-infinite", "interval-width-overflow",
         "jacobi-alpha-nan", "union-point-nan", "deriv-k-fraction", "hop-exponent-fraction",
         "dirop-bool", "qms-s-fraction", "lp-s-bool", "interval-a-bool", "union-point-bool",
         "circle-points-fraction", "jacobi-alpha-bool", "lebesgue-a-string", "ortho-alpha-bool",
         "ortho-beta-huge", "ortho-interval-b-bool"],
)
def test_malformed_config_names_field(tmp_path, monkeypatch, capsys, command, config, field):
    # relative paths in a case resolve in tmp_path, which holds the tables of _TABLES
    monkeypatch.chdir(tmp_path)
    for name, text in _TABLES.items():
        (tmp_path / name).write_text(text)
    cfg = write_config(tmp_path, "bad.json", {"output": str(tmp_path / "x.csv"), **config})
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert f"config field '{field}'" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "fields, named",
    [({"xmax": math.nan}, "xmax"), ({"xmin": 1, "xmax": 1}, "xmax"), ({"xmin": 2, "xmax": 1}, "xmin"),
     ({"ymin": -math.inf}, "ymin"), ({"grid": 100000}, "grid"), ({"grid": 5}, "grid"),
     ({"predicate": "cusp_exp", "grid": 2000}, "grid"), ({"predicate": "cusp_exp", "grid": 20}, "grid")],
    ids=["xmax-nan", "segment", "mirrored", "ymin-infinite", "grid-huge", "grid-small", "cusp-grid-huge",
         "cusp-grid-small"],
)
@pytest.mark.filterwarnings("error")
def test_malformed_plane_region_names_its_field(tmp_path, capsys, fields, named):
    # a plane region is checked where it is built: exit 2 naming the field,
    # no warning and no traceback (a segment is no region: x - 1 vanishes on it)
    region = {"kind": "region2d", "predicate": "box", **fields}
    cfg = write_config(tmp_path, "c.json", {**TABLE, "normspec": {"kind": "sup", "set": region},
                                            "output": str(tmp_path / "x.csv")})
    assert main(["factor-table", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "config field 'normspec'" in captured.err and named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and not (tmp_path / "x.csv").exists()


HUGE_SET = {"kind": "interval", "a": 0, "b": 1e200}
HUGE_MIXED = {"kind": "mixed_deriv", "set": HUGE_SET}  # sup|p| + sup|p'|: a search row
TAYLOR_SPEC = {"kind": "taylor_disk", "set": {"kind": "interval", "a": -1, "b": 1}}


@pytest.mark.parametrize(
    "command, config",
    [
        ("norm", {"normspec": {"kind": "sup", "set": HUGE_SET}, "poly": "chebyshev:4"}),
        ("norm", {"normspec": {**LP_SPEC, "measure": {"kind": "lebesgue", "a": 0, "b": 1e300}},
                  "poly": [1, 1e200]}),
        ("factor-table", {**TABLE, "normspec": HUGE_MIXED, "degrees": [2, 3]}),
        # every denominator overflows to inf while no numerator does
        ("factor-table", {**TABLE, "normspec": HUGE_MIXED, "degrees": [2]}),
        # V. Markov's exact 3.2e-398 rounds to 0.0
        ("factor-table", {**TABLE, "normspec": {"kind": "sup", "set": HUGE_SET},
                          "operator": {"kind": "deriv", "k": 2}, "degrees": [4]}),
        ("norm", {"normspec": {"kind": "sup", "set": {"kind": "union", "parts": [
            {"kind": "interval", "a": -2, "b": -1}, HUGE_SET]}}, "poly": "chebyshev:4"}),
        # 171! has no double
        ("norm", {"normspec": {**TAYLOR_SPEC, "r": 0.5}, "poly": "chebyshev:171"}),
        ("factor-table", {**TABLE, "normspec": {**TAYLOR_SPEC, "r": 1e-6}, "degrees": [171]}),
        # T_8 leaves the double range on [0, 1e40]
        ("norm", {"normspec": {**LP_SPEC, "measure": {"kind": "lebesgue", "a": 0, "b": 1e40},
                               "s": 1.5}, "poly": "chebyshev:8"}),
        # 1e308 times a row of d/dx: a search row and an L2 row past the double range
        ("factor-table", {**TABLE, "operator": {"kind": "dirop", "v": [1e308]}}),
        ("factor-table", {**TABLE, "normspec": LP_SPEC, "operator": {"kind": "dirop", "v": [1e308]}}),
        # a qms row taken in logs, M_1(2000) = 2000^100.5 for s = 1
        ("factor-table", {**TABLE, "normspec": {"kind": "qms", "m": 100.5, "s": 1}, "degrees": [2000]}),
    ],
    ids=["sup-nan", "l2-inf", "factor-table-nan", "factor-table-inf", "factor-table-underflow", "union-nan",
         "taylor-factorial", "factor-table-taylor-factorial", "lp-wide-inf", "dirop-1e308-sup",
         "dirop-1e308-l2", "qms-log"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_result_exits_1(tmp_path, capsys, command, config):
    # a norm that overflows to nan or inf is an error, not a reported value
    artifact = tmp_path / "out.file"
    cfg = write_config(tmp_path, "c.json", {**config, "output": str(artifact)})
    assert main([command, "--config", cfg, "--out", str(artifact)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not artifact.exists()


def test_sup_table_on_a_huge_interval_is_exact(tmp_path, capsys):
    # V. Markov's rows need no sample of p: 4 * 2e-200 and 9 * 2e-200
    out = tmp_path / "tab.csv"
    cfg = write_config(tmp_path, "c.json", {**TABLE, "normspec": {"kind": "sup", "set": HUGE_SET},
                                            "degrees": [2, 3], "output": str(out)})
    assert main(["factor-table", "--config", cfg]) == 0
    rows = list(csv.DictReader(ln for ln in out.read_text().splitlines() if not ln.startswith("#")))
    assert [(row["factor"], row["certification"], row["witness_id"]) for row in rows] == [
        ("8e-200", "Exact", "chebyshev:2"), ("1.8e-199", "Exact", "chebyshev:3")]


@pytest.mark.parametrize(
    "a, b, degrees",
    [(0, 1, [8, 200]), (-1e6, 1e6, [8, 64]), (1e-3, 1.001e-3, [8, 64])],
    ids=["unit", "wide", "narrow"],
)
def test_l2_table_is_exact_on_any_interval(tmp_path, capsys, a, b, degrees):
    # every row is the [-1, 1] factor times 2/(b - a), for k = 1
    out = tmp_path / "tab.csv"
    normspec = {**LP_SPEC, "measure": {"kind": "lebesgue", "a": a, "b": b}}
    cfg = write_config(tmp_path, "c.json",
                       {**TABLE, "normspec": normspec, "degrees": degrees, "output": str(out)})
    assert main(["factor-table", "--config", cfg]) == 0
    rows = list(csv.DictReader(ln for ln in out.read_text().splitlines() if not ln.startswith("#")))
    assert [int(row["n"]) for row in rows] == degrees
    for row in rows:
        unit = markovlab.markov_factor_l2(int(row["n"]), 1, markovlab.lebesgue_measure()).factor
        assert row["certification"] == "Exact"
        assert float(row["factor"]) == 2.0 / (b - a) * unit


@pytest.mark.parametrize("operator, code", [({"kind": "deriv", "k": 0}, 0), ({"kind": "deriv", "k": 1}, 2),
                                            ({"kind": "dirop", "v": [-2]}, 2),
                                            ({"kind": "hop", "H": [[[2], 1.5]]}, 2)],
                         ids=["identity", "deriv", "dirop", "hop"])
def test_l2_degree_cap_only_on_the_exact_path(tmp_path, capsys, operator, code):
    # the degree cap is the exact L2 path's, which every operator of order
    # k >= 1 takes; k = 0 is the identity row 1.0 at any degree
    out = tmp_path / "tab.csv"
    cfg = write_config(tmp_path, "c.json", {"normspec": {"kind": "lp", "measure": {"kind": "lebesgue"}, "s": 2},
                                            "operator": operator,
                                            "degrees": [4, 300], "output": str(out)})
    assert main(["factor-table", "--config", cfg]) == code
    captured = capsys.readouterr()
    if code:
        assert "config field 'degrees'" in captured.err and not out.exists()
    else:
        rows = list(csv.DictReader(ln for ln in out.read_text().splitlines() if not ln.startswith("#")))
        assert [(int(row["n"]), float(row["factor"])) for row in rows] == [(4, 1.0), (300, 1.0)]


def test_l2_table_of_c_times_d_is_exact(tmp_path, capsys):
    # D_(-2) = -2 d/dx: twice the singular values of d/dx, with their witness
    out = tmp_path / "tab.csv"
    cfg = write_config(tmp_path, "c.json", {"normspec": LP_SPEC, "operator": {"kind": "dirop", "v": [-2]},
                                            "degrees": [4, 8], "output": str(out)})
    assert main(["factor-table", "--config", cfg]) == 0
    rows = list(csv.DictReader(ln for ln in out.read_text().splitlines() if not ln.startswith("#")))
    assert [(row["op"], row["factor"], row["certification"], row["witness_id"]) for row in rows] == [
        ("dirop:-2.0", "19.49961875292266", "Exact", "l2-extremal"),
        ("dirop:-2.0", "57.787940006334615", "Exact", "l2-extremal")]
    for row in rows:
        unit = markovlab.markov_factor_l2(int(row["n"]), 1, markovlab.lebesgue_measure()).factor
        assert float(row["factor"]) == 2.0 * unit


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only reference
    code = "import sys, markovlab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(markovlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "command, config, field",
    [("factor-table", {**TABLE, "output": True}, "output"), ("fit", {"table": 5}, "table")],
    ids=["output-bool", "table-int"],
)
def test_descriptor_paths_rejected(tmp_path, command, config, field):
    # open() takes an int or a bool for a file descriptor, so these run in a
    # child process: before the check they wrote to or closed its own stdio
    cfg = write_config(tmp_path, "bad.json", config)
    src = str(Path(markovlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-m", "markovlab", command, "--config", cfg],
                         env=env, capture_output=True, text=True, cwd=tmp_path)
    assert out.returncode == 2
    assert f"config field '{field}'" in out.stderr
    assert "Traceback" not in out.stderr
    assert out.stdout == ""


# ---------------------------------------------------------------------------
# Fuzzing: any config, valid or not, ends in exit 0, 1 or 2 and no exception

_ABSENT = object()
_JUNK = [_ABSENT, None, True, -1, 1.5, 10**20, "abc", [], {}]
_INTERVAL = {"kind": "interval", "a": -1, "b": 1}
_UNION = {"kind": "union", "parts": [{"kind": "interval", "a": -1, "b": -0.5}, {"kind": "point", "re": 1.0}]}
_BOX = {"kind": "region2d", "predicate": "box", "grid": 9}
_SETS = ([_INTERVAL, {"kind": "interval", "a": 0, "b": 3}, _UNION],
         [{"kind": "interval", "a": 1, "b": -1}, {"kind": "union", "parts": [{"kind": "point", "re": "x"}]},
          _BOX, {"kind": "region2d", "predicate": "disk_boundary", "points": 128},
          {"kind": "region2d", "predicate": "blob"}, {"kind": "interval", "a": "x", "b": 1},
          {"kind": "interval", "a": -1, "b": math.inf}, {"kind": "union", "parts": [{"kind": "point", "im": math.nan}]},
          *_JUNK])
_MEASURES = ([{"kind": "lebesgue", "a": 0, "b": 3}, {"kind": "jacobi", "alpha": 0.5, "beta": -0.5}],
             [{"kind": "lebesgue", "a": 2, "b": 2}, {"kind": "jacobi", "alpha": -2, "beta": 0},
              {"kind": "jacobi", "alpha": math.nan, "beta": 0}, {"kind": "lebesgue", "a": -1e308, "b": 1e308},
              {"kind": "jacobi"}, {"kind": "tabulated"}, *_JUNK])
_NUMBERS = ([1, 2, 1.5, 3], [0, -1, 1e300, math.inf, math.nan, "2", None, True, _ABSENT])
_LEBESGUE = {"kind": "lebesgue", "a": -1, "b": 1}
_VALID_SPECS = [
    {"kind": "sup", "set": _INTERVAL}, {"kind": "sup", "set": _UNION}, {"kind": "sup", "set": _BOX},
    {"kind": "sup", "set": {"kind": "region2d", "predicate": "disk_boundary", "points": 128}},
    {"kind": "lp", "measure": _LEBESGUE, "s": 2}, {"kind": "lp", "measure": _MEASURES[0][0], "s": 3},
    {"kind": "lp", "measure": _MEASURES[0][1], "s": 1.5},
    {"kind": "sup_plus_lp", "set": _INTERVAL, "measure": _LEBESGUE, "s": 2},
    {"kind": "schur", "alpha": 0.5, "set": _INTERVAL}, {"kind": "qms", "m": 2, "s": 2},
    {"kind": "taylor_disk", "set": _INTERVAL, "r": 0.5}, {"kind": "mixed_deriv", "set": _BOX, "axis": 1},
]
_POLYS = (["chebyshev:4", "legendre:3", "monomial:2", "chebyshev2:1", "1", "1/2", [1, 2], [0.5, -1.0, 0.25],
           {"coeffs": [1, 0, 0, 1]}, ["1/2", "3"]],
          ["chebyshev:-1", "chebyshev:x", "foo", "inf", ["a"], ["1", None], ["1/2", "x"], [1, math.nan],
           {"coeffs": [0.5, "x"]},
           {"coeffs": None}, [[1]], *_JUNK])
_OPERATORS = ([{"kind": "deriv", "k": 1}, {"kind": "deriv", "k": 2}, {"kind": "dirop", "v": [1.0]},
               {"kind": "dirop", "v": [0.6, 0.8]}, {"kind": "hop", "H": [[[2, 0], 1.0], [[0, 2], 1.0]]}],
              [{"kind": "deriv", "k": k} for k in (-1, "a", None)]
              + [{"kind": "dirop", "v": v} for v in ([0.0], [1, 2, 3], "a", [None])]
              + [{"kind": "hop", "H": H} for H in ([[[1], 0.0]], [[[2, 0], 1.0], [[1], 1.0]], "a", [[1]])]
              + [{"kind": "curl"}, *_JUNK])
_FAMILIES = ([{"kind": "jacobi", "alpha": 0.0, "beta": 0.0}, {"kind": "jacobi", "alpha": 0.5, "beta": 1},
              {"kind": "stieltjes", "measure": {"kind": "lebesgue", "a": 0, "b": 3}},
              {"kind": "stieltjes", "measure": {"kind": "jacobi", "alpha": 0.5, "beta": 0.5}}],
             [{"kind": "jacobi", "alpha": -2, "beta": 0}, {"kind": "jacobi", "alpha": "a", "beta": 0},
              {"kind": "jacobi"}, {"kind": "stieltjes", "measure": {"kind": "lebesgue", "a": 1, "b": 0}},
              {"kind": "stieltjes"}, {"kind": "fourier"}, "jacobi", *_JUNK])


def _present(obj):
    """obj with every _ABSENT dict value and list item left out."""
    if isinstance(obj, dict):
        return {k: _present(v) for k, v in obj.items() if v is not _ABSENT}
    if isinstance(obj, list):
        return [_present(v) for v in obj if v is not _ABSENT]
    return obj


def _either(pools, bad: bool):
    """A value from the valid pool, or (bad) from the malformed one."""
    return st.sampled_from(pools[1] if bad else pools[0])


def _normspec(bad: bool):
    if not bad:
        return st.sampled_from(_VALID_SPECS)
    # a known kind whose fields come from both pools, or no spec at all
    sets, measures, numbers = (st.sampled_from(p[0] + p[1]) for p in (_SETS, _MEASURES, _NUMBERS))
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("sup"), "set": sets}),
        st.fixed_dictionaries({"kind": st.just("lp"), "measure": measures, "s": numbers}),
        st.fixed_dictionaries({"kind": st.just("sup_plus_lp"), "set": sets, "measure": measures, "s": numbers}),
        st.fixed_dictionaries({"kind": st.just("schur"), "alpha": numbers, "set": sets}),
        st.fixed_dictionaries({"kind": st.just("qms"), "m": numbers, "s": numbers}),
        st.fixed_dictionaries({"kind": st.just("taylor_disk"), "set": sets, "r": numbers}),
        st.fixed_dictionaries({"kind": st.just("mixed_deriv"), "set": sets, "axis": numbers}),
        st.sampled_from([{"kind": "pentagon"}, {"kind": "sup"}, *_JUNK]),
    )


def _fuzz_fields(d: Path) -> dict:
    """command -> field -> (valid values, malformed values), or a strategy
    where the values are built from smaller pools.  Paths are strings under
    ``d`` or non-path JSON; never an int or a bool, which open() would take for
    one of this process's descriptors.  Degrees stay <= 4 and nmax <= 16 so
    every run is quick; ``suite`` is always malformed (a valid one runs a
    whole verification suite)."""
    bad_paths = [str(d / "no-such-dir" / "out.csv"), str(d), str(d / "missing.csv"), "", ["out.csv"],
                 {"path": "x"}, None, _ABSENT]
    output = ([str(d / "out.csv")], bad_paths + [str(d / name) for name in _TABLES])
    common = {"seed": ([1, 7, 10**20], [-1, 1.5, math.nan, "abc", None, True]),
              "mode": (["float", "exact", _ABSENT], ["fast", None, 3])}
    return {
        "norm": {**common, "normspec": _normspec, "poly": _POLYS},
        "factor-table": {**common, "normspec": _normspec, "operator": _OPERATORS,
                         "degrees": ([[1, 2, 3, 4], [2, 4], [4], [0, 1, 2]],
                                     [[], [3, 2], [-1, 2], [1.5], ["a"], [1, 1], *_JUNK]),
                         "budget": ([1, 2, _ABSENT], [0, -1, 1.5, "a", None]), "output": output},
        "fit": {**common, "table": ([str(d / "square.csv")], bad_paths + [str(d / "n-float.csv"),
                                                                          str(d / "no-factor.csv")]),
                "window": ([[1, 8], [2, 6], _ABSENT], [[8, 1], [1], [1, "a"], "ab", 5, None])},
        "verify": {**common, "suite": ([], ["everything", "", None, ["di"], 5, {"di": 1}])},
        "ortho-export": {**common, "family": _FAMILIES, "nmax": ([1, 8, 16], [0, -1, 1000, 10**20, "a", 1.5, None]),
                         "set": (_SETS[0] + [_ABSENT], _SETS[1]), "output": output},
    }


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, text in _TABLES.items():
        (d / name).write_text(text)
    return d


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # random configs may overflow
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_configs_exit_cleanly(fuzz_dir, data):
    fields = _fuzz_fields(fuzz_dir)
    command = data.draw(st.sampled_from(sorted(fields)), label="command")
    # most fields valid, so that the run gets past the early checks
    broken = data.draw(st.sets(st.sampled_from(sorted(fields[command])), max_size=2), label="broken")
    cfg = {}
    for key, pools in fields[command].items():
        bad = key in broken or key == "suite"
        cfg[key] = data.draw(pools(bad) if callable(pools) else _either(pools, bad), label=key)
    config = fuzz_dir / "config.json"
    config.write_text(json.dumps(_present(cfg)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(config)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
