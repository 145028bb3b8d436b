"""Per-layer spans recorded from outside the package.

The tracer replaces public markovlab functions, at every name the package
binds them under, with wrappers that time each call.  numpy's ``chebder`` and
``chebval`` are traced as ``markovlab.chebseries`` calls them, through a view
of the numpy module that only that module sees.  A function missing from a
later version of the package is skipped: its spans are simply absent.

Self time is a span's duration minus the time its traced children took.
Aggregates are kept per round; the spans of the first traced round (capped)
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from fractions import Fraction

from markovlab.scalars import RationalComplex

SPAN_CAP = 20000


def lp_path(s, measure_kind: str, real: bool = True) -> str:
    """The lp_norm path the program takes: even s Gauss, odd s root split on
    Lebesgue measures, adaptive quadrature otherwise."""
    s = float(s)
    if s.is_integer() and int(s) % 2 == 0:
        return "gauss"
    if s.is_integer() and measure_kind == "lebesgue" and real:
        return "rootsplit"
    return "adaptive"


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _evaluate_norm_name(args, kwargs):
    refine = _arg(args, kwargs, 2, "refine", True)
    return "norms.evaluate_norm.refined" if refine else "norms.evaluate_norm.coarse"


def _lp_norm_name(args, kwargs):
    p, mu, s = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "mu"), _arg(args, kwargs, 2, "s")
    real = getattr(getattr(p, "coef", None), "dtype", None) is None or p.coef.dtype.kind != "c"
    return "norms.lp_norm." + lp_path(s, getattr(mu, "kind", ""), real)


def _gauss_rule_name(args, kwargs):
    measure, nnodes = args[0], _arg(args, kwargs, 1, "nnodes")
    rules = getattr(measure, "_rules", None)
    if rules is None:
        return "domains.rule_request"
    return "domains.rule_hit" if max(int(nnodes), 1) in rules else "domains.rule_build"


def _identity_name(args, kwargs):
    f, d = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "d")
    exact = f.is_exact and all(isinstance(c, (int, Fraction, RationalComplex)) for c in d.v)
    return "polynomials.identity_exact" if exact else "polynomials.identity_float"


# (module, attribute path, span name or naming function)
TARGETS = (
    ("markovlab.exponents", "markov_factor_search", "exponents.markov_factor_search"),
    ("markovlab.exponents", "markov_factor_l2", "exponents.markov_factor_l2"),
    ("markovlab.exponents", "qms_exact_exponent", "exponents.qms_exact_exponent"),
    ("markovlab.norms", "evaluate_norm", _evaluate_norm_name),
    ("markovlab.norms", "sup_norm", "norms.sup_norm"),
    ("markovlab.norms", "taylor_disk_norm", "norms.taylor_disk_norm"),
    ("markovlab.norms", "schur_norm", "norms.schur_norm"),
    ("markovlab.norms", "lp_norm", _lp_norm_name),
    ("markovlab.norms", "qms_norm_exact", "norms.qms_norm_exact"),
    ("markovlab.domains", "Measure.gauss_rule", _gauss_rule_name),
    ("markovlab.orthopoly", "jacobi_system", "orthopoly.system_build"),
    ("markovlab.orthopoly", "stieltjes_orthonormalize", "orthopoly.system_build"),
    ("markovlab.orthopoly", "OrthoSystem.values", "orthopoly.values"),
    ("markovlab.orthopoly", "OrthoSystem.deriv_values", "orthopoly.deriv_values"),
    ("markovlab.polynomials", "power_identity_residual", _identity_name),
    ("markovlab.polynomials", "MultiPoly.__mul__", "polynomials.multipoly_mul"),
    ("markovlab.fitting", "fit_power_law", "fitting.fit_power_law"),
    ("markovlab.chebseries", "nch.chebder", "chebseries.chebder"),
    ("markovlab.chebseries", "nch.chebval", "chebseries.chebval"),
)


class _ModuleView:
    """A stand-in for a foreign module with some attributes replaced."""

    def __init__(self, module, overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self._stack = []  # frames: [name, start, child seconds, span id]
        self._patches = []  # (owner, attribute, original)
        self.absent = []
        self.agg = {}  # span name -> [calls, inclusive s, self s]
        self.spans = []
        self.dropped = 0
        self.keep_spans = False
        self.op_index = -1
        self._next_id = 0

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, namer):
        stack, agg, clock = self._stack, self.agg, time.perf_counter

        def traced(*args, **kwargs):
            name = namer if isinstance(namer, str) else namer(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            frame = [name, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                entry = agg.get(name)
                if entry is None:
                    entry = agg[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[2]
                if self.keep_spans:
                    if len(self.spans) < SPAN_CAP:
                        parent = stack[-1][3] if stack else None
                        self.spans.append((span_id, parent, self.op_index, name, frame[1], end))
                    else:
                        self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        self.absent = []
        package = [m for k, m in list(sys.modules.items()) if k == "markovlab" or k.startswith("markovlab.")]
        views = {}
        for modname, path, namer in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ModuleNotFoundError:
                self.absent.append(f"{modname}.{path}")
                continue
            head, _, attr = path.rpartition(".")
            owner = getattr(module, head, None) if head else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{modname}.{path}")
                continue
            wrapped = self._wrap(original, namer)
            if isinstance(owner, type):
                for key, value in list(owner.__dict__.items()):
                    if value is original:  # __rmul__ = __mul__ and similar aliases
                        self._patch(owner, key, wrapped)
            elif head:  # a foreign module the package reaches through an attribute
                views.setdefault((module, head), {})[attr] = wrapped
            else:
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
        for (module, head), overrides in views.items():
            self._patch(module, head, _ModuleView(getattr(module, head), overrides))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- rounds ---------------------------------------------------------

    def take_round(self) -> dict:
        """Aggregates since the previous call, then reset."""
        out = {name: tuple(v) for name, v in self.agg.items()}
        self.agg.clear()
        return out


def layer_metrics(agg: dict, quad_warnings: int) -> dict:
    """Per-layer metrics of one traced round: name -> (value, unit)."""

    def calls(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl_ms(*names):
        return 1e3 * sum(agg.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_ms(*names):
        return 1e3 * sum(agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    requests = calls("domains.rule_hit", "domains.rule_build", "domains.rule_request")
    hits = calls("domains.rule_hit")
    out = {
        "exponents.search_calls": (calls("exponents.markov_factor_search"), "count"),
        "exponents.search_self_ms": (self_ms("exponents.markov_factor_search"), "ms"),
        "norms.coarse_evals": (calls("norms.evaluate_norm.coarse"), "count"),
        "norms.coarse_ms": (incl_ms("norms.evaluate_norm.coarse"), "ms"),
        "norms.refined_evals": (calls("norms.evaluate_norm.refined"), "count"),
        "norms.refined_ms": (incl_ms("norms.evaluate_norm.refined"), "ms"),
        "norms.sup_ms": (self_ms("norms.sup_norm"), "ms"),
        "norms.taylor_disk_ms": (self_ms("norms.taylor_disk_norm"), "ms"),
        "norms.schur_ms": (self_ms("norms.schur_norm"), "ms"),
        "chebseries.chebder_calls": (calls("chebseries.chebder"), "count"),
        "chebseries.chebval_calls": (calls("chebseries.chebval"), "count"),
        "chebseries.chebder_ms": (self_ms("chebseries.chebder"), "ms"),
        "chebseries.chebval_ms": (self_ms("chebseries.chebval"), "ms"),
    }
    for path in ("gauss", "rootsplit", "adaptive"):
        out[f"norms.lp_{path}_calls"] = (calls(f"norms.lp_norm.{path}"), "count")
        out[f"norms.lp_{path}_ms"] = (incl_ms(f"norms.lp_norm.{path}"), "ms")
    out.update({
        "norms.quad_warnings": (quad_warnings, "count"),
        "domains.rule_requests": (requests, "count"),
        "domains.rule_builds": (calls("domains.rule_build"), "count"),
        "domains.rule_hit_ratio": (hits / requests if requests else 0.0, "1"),
        "domains.rule_build_ms": (incl_ms("domains.rule_build"), "ms"),
        "orthopoly.system_builds": (calls("orthopoly.system_build"), "count"),
        "orthopoly.system_build_ms": (incl_ms("orthopoly.system_build"), "ms"),
        "orthopoly.values_ms": (self_ms("orthopoly.values"), "ms"),
        "orthopoly.deriv_values_ms": (self_ms("orthopoly.deriv_values"), "ms"),
        "exponents.l2_self_ms": (self_ms("exponents.markov_factor_l2"), "ms"),
        "polynomials.identity_exact_ms": (incl_ms("polynomials.identity_exact"), "ms"),
        "polynomials.identity_float_ms": (incl_ms("polynomials.identity_float"), "ms"),
        "polynomials.multipoly_mul_calls": (calls("polynomials.multipoly_mul"), "count"),
        "norms.qms_exact_ms": (incl_ms("norms.qms_norm_exact"), "ms"),
        "exponents.qms_exponent_ms": (incl_ms("exponents.qms_exact_exponent"), "ms"),
        "fitting.fit_ms": (incl_ms("fitting.fit_power_law"), "ms"),
    })
    return out
