"""Config-driven experiment runner.

One JSON config file describes a run; flags only select the config, override
the seed, or redirect output.  Every artifact embeds the effective config
hash, seed, mode, and tool version (never a timestamp), so identical configs
produce byte-identical files.

Exit codes: 0 success, 1 check failure or a result that left the double
range, 2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .chebseries import chebyshev_t, chebyshev_u, legendre_orthonormal, monomial
from .domains import json_number, measure_from_json, set_from_json
from .errors import ConfigError, MarkovLabError, PrecisionOverflowError, QuadratureBudgetError
from .exponents import (
    DEFAULT_SEED,
    factor_table,
    operator_from_json,
    read_table_csv,
)
from .fitting import fit_power_law
from .norms import LpSpec, QmsSpec, evaluate_norm, qms_norm_exact, spec_from_json
from .orthopoly import NMAX_HARD_CAP, jacobi_system, stieltjes_orthonormalize
from .polynomials import UniPoly
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return cfg


def _require(cfg: dict, name: str):
    if name not in cfg:
        raise ConfigError(name)
    return cfg[name]


def _parsed(name: str, parse, *args):
    """parse(*args), with a malformed value or an unusable path reported as
    config field ``name``."""
    try:
        return parse(*args)
    except (KeyError, ValueError, TypeError, OverflowError, OSError) as exc:
        raise ConfigError(name, str(exc))


def _path(flag, cfg: dict, name: str) -> str:
    """The path a flag gives, else config field ``name``'s: a nonempty string
    (``open`` would take an int or a bool for a file descriptor)."""
    path = flag or cfg.get(name)
    if not path or not isinstance(path, str):
        raise ConfigError(name, f"give a path string (config '{name}' or its flag), got {path!r}")
    return path


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _is_count(n) -> bool:
    """A JSON integer >= 0 (4.0 counts as 4; true does not)."""
    try:
        return json_number(n, "count", integer=True) >= 0
    except (TypeError, ValueError):
        return False


def _seed_and_mode(args, cfg: dict) -> tuple:
    """The effective seed (flag over config) and the config's mode."""
    seed = args.seed if args.seed is not None else cfg.get("seed", DEFAULT_SEED)
    if not _is_count(seed):
        raise ConfigError("seed", f"must be a nonnegative integer, got {seed!r}")
    mode = cfg.get("mode", "float")
    if mode not in ("float", "exact"):
        raise ConfigError("mode", f"must be 'float' or 'exact', got {mode!r}")
    return int(seed), mode


def _meta(cfg: dict, seed: int, mode: str) -> dict:
    return {
        "config_hash": _config_hash(cfg),
        "seed": seed,
        "mode": mode,
        "version": __version__,
    }


_FAMILIES = {
    "chebyshev": chebyshev_t,
    "chebyshev2": chebyshev_u,
    "legendre": legendre_orthonormal,
    "monomial": monomial,
}


def _parse_poly(desc, mode: str):
    """Polynomial descriptor: 'family:n', a coefficient list, or {'coeffs': [...]}."""
    if isinstance(desc, str):
        name, _, arg = desc.partition(":")
        if name in _FAMILIES:
            try:
                n = int(arg)
            except ValueError:
                raise ConfigError("poly", f"bad degree in {desc!r}")
            if n < 0:
                raise ConfigError("poly", f"negative degree in {desc!r}")
            if mode == "exact":
                if name != "monomial":
                    raise ConfigError(
                        "poly", "exact mode supports 'monomial:n' or rational coefficients"
                    )
                return UniPoly.monomial(n, 1)
            return _FAMILIES[name](n)
        return UniPoly((_coefficient(desc, mode),))
    if isinstance(desc, dict):
        desc = desc.get("coeffs")
    if isinstance(desc, (list, tuple)):
        return UniPoly(tuple(_coefficient(c, mode) for c in desc))
    raise ConfigError("poly", "expected 'family:n', a list, or {'coeffs': [...]}")


def _coefficient(c, mode: str):
    """A coefficient of a 'poly' config: a rational in exact mode, else a finite
    float; never a boolean (``float(True)`` is 1.0)."""
    if isinstance(c, bool):
        raise ConfigError("poly", f"a coefficient must be a number, not {c!r}")
    try:
        value = Fraction(str(c)) if mode == "exact" else float(c)
    except (ValueError, TypeError):
        raise ConfigError("poly", f"neither a known family nor a number: {c!r}")
    if not math.isfinite(value):
        raise ConfigError("poly", f"coefficient {c!r} is not finite")
    return value


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if not path:
        print(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ConfigError("output", str(exc))


def cmd_norm(args) -> int:
    cfg = _load_config(args.config)
    seed, mode = _seed_and_mode(args, cfg)
    spec_json = _require(cfg, "normspec")
    spec = _parsed("normspec", spec_from_json, spec_json)
    poly = _parse_poly(_require(cfg, "poly"), mode)
    if mode == "exact":
        if not isinstance(spec, QmsSpec):
            raise ConfigError("mode", "exact mode is defined for qms norms")
        if not float(spec.m).is_integer():
            raise ConfigError("normspec", "exact qms values need an integer m")
        value = qms_norm_exact(poly, int(spec.m), spec.s)
        printed = f"{value.numerator}/{value.denominator}"
        payload_value: object = printed
    else:
        value = evaluate_norm(spec, poly)
        if not math.isfinite(value):
            raise PrecisionOverflowError(f"norm value {value!r}: a magnitude left the double range")
        printed = repr(float(value))
        payload_value = float(value)
    print(printed)
    if args.out:
        _write_json(
            args.out,
            {"value": payload_value, "normspec": spec_json, **_meta(cfg, seed, mode)},
        )
    return EXIT_OK


def cmd_factor_table(args) -> int:
    cfg = _load_config(args.config)
    seed, mode = _seed_and_mode(args, cfg)
    spec = _parsed("normspec", spec_from_json, _require(cfg, "normspec"))
    op = _parsed("operator", operator_from_json, _require(cfg, "operator"))
    _parsed("operator", op.images, getattr(getattr(spec, "set", None), "nvars", 1))
    degrees = _require(cfg, "degrees")
    if not isinstance(degrees, list) or not degrees:
        raise ConfigError("degrees", "must be a nonempty list")
    if not all(_is_count(n) for n in degrees):
        raise ConfigError("degrees", "must be nonnegative integers")
    degrees = [int(n) for n in degrees]
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ConfigError("degrees", "must be strictly increasing")
    if isinstance(spec, LpSpec) and spec.s == 2 and degrees[-1] > NMAX_HARD_CAP:
        raise ConfigError("degrees", f"L2 factor tables stop at degree {NMAX_HARD_CAP}")
    out_path = _path(args.out, cfg, "output")
    budget = cfg.get("budget", 1)
    if not _is_count(budget) or budget < 1:
        raise ConfigError("budget", f"must be an integer >= 1, got {budget!r}")
    table = factor_table(spec, op, degrees, seed=seed, budget=int(budget))
    _parsed("output", table.write_csv, out_path, _meta(cfg, seed, mode))
    print(out_path)
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    seed, mode = _seed_and_mode(args, cfg)
    table_path = _path(args.table, cfg, "table")
    window = cfg.get("window")
    if args.window:
        window = args.window
    meta, rows = _parsed("table", read_table_csv, table_path)
    if len(rows) < 4:
        raise ConfigError("table", f"need at least 4 rows, found {len(rows)}")
    ns = [n for n, _ in rows]
    vals = [v for _, v in rows]
    window = _parsed("window", tuple, window) if window else None
    fit = _parsed("window", fit_power_law, ns, vals, window)
    payload = fit.to_json()
    payload["source"] = meta.get("config_hash", "")
    payload.update(_meta(cfg, seed, mode))
    print(repr(fit.slope_ls))
    print(repr(fit.slope_envelope))
    if args.out:
        _write_json(args.out, payload)
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    seed, mode = _seed_and_mode(args, cfg)
    suite = args.suite or cfg.get("suite", "all")
    try:
        report = run_suite(suite, seed=seed, mode=mode)
    except ValueError as exc:
        raise ConfigError("suite", str(exc))
    payload = report.to_json()
    payload.update(_meta(cfg, seed, mode))
    _write_json(args.out, payload)
    if args.out:
        for check in report.checks:
            print(f"{check.status.upper():4s} {report.suite}/{check.name}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_ortho_export(args) -> int:
    cfg = _load_config(args.config)
    seed, mode = _seed_and_mode(args, cfg)
    family = _require(cfg, "family")
    nmax = cfg.get("nmax", 64)
    if not _is_count(nmax) or not 1 <= nmax <= NMAX_HARD_CAP:
        raise ConfigError("nmax", f"must be an integer in [1, {NMAX_HARD_CAP}], got {nmax!r}")
    kind = family.get("kind") if isinstance(family, dict) else None
    if kind not in ("jacobi", "stieltjes"):
        raise ConfigError("family", f"kind must be 'jacobi' or 'stieltjes', got {family!r}")
    try:
        if kind == "jacobi":
            sys_ = jacobi_system(json_number(family["alpha"], "alpha"),
                                 json_number(family["beta"], "beta"), int(nmax))
        else:
            sys_ = stieltjes_orthonormalize(measure_from_json(family["measure"]), int(nmax))
    except QuadratureBudgetError as exc:
        raise ConfigError("nmax", str(exc))
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError("family", str(exc))
    E = _parsed("set", set_from_json, cfg["set"]) if "set" in cfg else None
    out_path = _path(args.out, cfg, "output")
    try:
        sys_.export_csv(out_path, E, _meta(cfg, seed, mode))
    except OSError as exc:
        raise ConfigError("output", str(exc))
    except (ValueError, TypeError) as exc:
        raise ConfigError("set", str(exc))
    print(out_path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovlab",
        description="Markov-factor and norm-equivalence experiments on polynomials",
    )
    parser.add_argument("--version", action="version", version=f"markovlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output path")

    p_norm = sub.add_parser("norm", help="evaluate one norm of one polynomial")
    common(p_norm)
    p_norm.set_defaults(func=cmd_norm)

    p_table = sub.add_parser("factor-table", help="sweep Markov factors over degrees")
    common(p_table)
    p_table.set_defaults(func=cmd_factor_table)

    p_fit = sub.add_parser("fit", help="fit a power-law exponent to a table CSV")
    common(p_fit)
    p_fit.add_argument("--table", help="table CSV path (overrides config)")
    p_fit.add_argument("--window", type=int, nargs=2, metavar=("LO", "HI"))
    p_fit.set_defaults(func=cmd_fit)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    common(p_verify)
    p_verify.add_argument(
        "--suite",
        choices=[*SUITES, "all"],
        help="suite name (overrides config)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_ortho = sub.add_parser("ortho-export", help="export recurrence/sup-norm tables")
    common(p_ortho)
    p_ortho.set_defaults(func=cmd_ortho_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MarkovLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
