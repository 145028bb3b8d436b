"""Reference values computed apart from markovlab, and the checks that use them.

Nothing here imports markovlab: every reference comes from closed forms,
``math``/``fractions`` or numpy's own polynomial routines, so a fault in the
package cannot hide behind an identical fault in its oracle.

Each check is an object with ``failure(output)``, which returns ``None`` for a
correct output and a one-line reason otherwise, and ``wrong()``, which builds
an output the check must reject (the self-tests feed it back in).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import chebyshev as C
from numpy.polynomial import legendre as L

# ---------------------------------------------------------------------------
# Closed forms


def cheb_deriv_at_one(n: int, k: int) -> float:
    """T_n^(k)(1) = prod_{i<k} (n^2 - i^2) / (2i + 1); zero for k > n."""
    out = 1.0
    for i in range(k):
        out *= (n * n - i * i) / (2 * i + 1)
    return out


def v_markov(n: int, k: int, a: float, b: float) -> float:
    """V. Markov's exact sup-norm factor on [a, b]: (2/(b-a))^k T_n^(k)(1)."""
    return (2.0 / (b - a)) ** k * cheb_deriv_at_one(n, k)


def monomial_lp_lebesgue(n: int, s: float) -> float:
    """||x^n||_s under dx/2 on [-1, 1]: (ns + 1)^(-1/s)."""
    return (n * s + 1.0) ** (-1.0 / s)


def monomial_lp_chebyshev(n: int, s: float) -> float:
    """||x^n||_s under dx/(pi sqrt(1-x^2)): (Gamma((ns+1)/2) / (sqrt(pi) Gamma(ns/2+1)))^(1/s)."""
    a = n * s
    log_int = math.lgamma((a + 1) / 2) - 0.5 * math.log(math.pi) - math.lgamma(a / 2 + 1)
    return math.exp(log_int / s)


def qms_base_value(s: int, n: int, m: int) -> Fraction:
    """qms(m, s) norm of x^(sn): ((sn)!)^(1-m)."""
    return Fraction(math.factorial(s * n)) ** (1 - m)


def qms_deriv_value(s: int, n: int, m: int, t: int, j: int) -> Fraction:
    """qms(m, s) norm of the (st+j)-th derivative of x^(sn), 0 < j < s."""
    return Fraction(math.factorial(s * n), math.factorial(s - j)) / Fraction(
        math.factorial(s * (n - t - 1))
    ) ** m


def qms_chain_exponent(m: Fraction, s: int, k: int) -> Fraction:
    """Closed-form order-k exponent of qms(m, s): s * m * ceil(k/s)."""
    return s * Fraction(m) * (-(-k // s))


# ---------------------------------------------------------------------------
# Witness ratios and proven ceilings for Markov factor rows


def legendre_l2_of_cheb(n: int, j: int) -> float:
    """||T_n^(j)||_2 under dx/2, by an (n+1)-point Gauss-Legendre rule (exact)."""
    c = np.zeros(n + 1)
    c[n] = 1.0
    d = C.chebder(c, j) if j else c
    x, w = L.leggauss(n + 1)
    return math.sqrt(float(np.dot(w / 2.0, C.chebval(x, d) ** 2)))


def taylor_disk_witness(n: int, k: int, r: float) -> float:
    """Ratio q(T_n^(k)) / q(T_n) for q(p) = sum_j sup|p^(j)| r^j / j!.

    sup|T_n^(j)| over [-1, 1] is T_n^(j)(1), so the ratio is a closed form.
    """
    num = sum(cheb_deriv_at_one(n, j + k) * r**j / math.factorial(j) for j in range(n + 1))
    den = sum(cheb_deriv_at_one(n, j) * r**j / math.factorial(j) for j in range(n + 1))
    return num / den


def sup_plus_l2_witness(n: int, k: int) -> float:
    """Ratio q(T_n^(k)) / q(T_n) for q = sup + L2(dx/2)."""
    num = cheb_deriv_at_one(n, k) + legendre_l2_of_cheb(n, k)
    return num / (1.0 + legendre_l2_of_cheb(n, 0))


def l2_factor_legendre(n: int, k: int) -> float:
    """Largest singular value of d^k on span(Q_0..Q_n), Q_j = sqrt(2j+1) P_j (dx/2)."""
    M = np.zeros((n + 1, n + 1))
    scale = np.sqrt(2.0 * np.arange(n + 1) + 1.0)
    for j in range(k, n + 1):
        e = np.zeros(j + 1)
        e[j] = scale[j]
        d = L.legder(e, k)
        M[: d.size, j] = d / scale[: d.size]
    return float(np.linalg.svd(M, compute_uv=False)[0])


def l2_factor_chebyshev(n: int, k: int) -> float:
    """Largest singular value of d^k on span(T_0, sqrt2 T_1, ..., sqrt2 T_n)."""
    M = np.zeros((n + 1, n + 1))
    scale = np.full(n + 1, math.sqrt(2.0))
    scale[0] = 1.0
    for j in range(k, n + 1):
        e = np.zeros(j + 1)
        e[j] = scale[j]
        d = C.chebder(e, k)
        M[: d.size, j] = d / scale[: d.size]
    return float(np.linalg.svd(M, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# Norms of one polynomial given by Chebyshev coefficients on [-1, 1]


def _real_points(roots, tol: float = 1e-6) -> np.ndarray:
    roots = np.atleast_1d(roots)
    xs = roots[np.abs(roots.imag) <= tol].real
    return np.clip(xs, -1.0, 1.0)


def sup_reference(c) -> float:
    """max |p| on [-1, 1] over the endpoints and the real critical points."""
    pts = np.concatenate([[-1.0, 1.0], _real_points(C.chebroots(C.chebder(c)))])
    return float(np.max(np.abs(C.chebval(pts, c))))


def schur_reference(c, alpha: float) -> float:
    """max |p(x)| (1-x^2)^alpha on [-1, 1] over the critical points.

    Interior extrema of |p| (1-x^2)^alpha are roots of p'(1-x^2) - 2 alpha x p.
    """
    one_minus_x2 = np.array([0.5, 0.0, -0.5])
    x = np.array([0.0, 1.0])
    q = C.chebsub(C.chebmul(C.chebder(c), one_minus_x2), 2.0 * alpha * C.chebmul(x, c))
    pts = _real_points(C.chebroots(q))
    vals = np.abs(C.chebval(pts, c)) * np.maximum(1.0 - pts * pts, 0.0) ** alpha
    return float(np.max(vals)) if vals.size else 0.0


def _tanh_sinh(h: float, tmax: float = 4.0):
    """Nodes as distances from the nearer end (fraction of the panel) and weights.

    Returns (e, w, w0): the panel [lo, hi] gets nodes lo + (hi-lo) e and
    hi - (hi-lo) e with weights (hi-lo)/2 * w, plus its midpoint with (hi-lo)/2 * w0.
    """
    t = h * np.arange(1, int(math.ceil(tmax / h)) + 1)
    u = 0.5 * math.pi * np.sinh(t)
    with np.errstate(over="ignore", under="ignore"):
        emu = np.exp(-2.0 * u)
        e = emu / (1.0 + emu)
        w = h * 0.5 * math.pi * np.cosh(t) * 4.0 * emu / (1.0 + emu) ** 2
    return e, w, h * 0.5 * math.pi


def _theta_integral(c, s: float, measure: str, h: float, cuts: np.ndarray) -> float:
    e, w, w0 = _tanh_sinh(h)
    lo, hi = cuts[:-1, None], cuts[1:, None]
    width = hi - lo
    thetas = np.concatenate([lo + width * e, hi - width * e, (lo + hi) / 2], axis=1)
    weights = np.concatenate([np.broadcast_to(w, (len(lo), w.size))] * 2 + [np.full((len(lo), 1), w0)], axis=1)
    weights = weights * (width / 2)
    f = np.abs(C.chebval(np.cos(thetas), c)) ** s
    if measure == "lebesgue":
        f = f * np.sin(thetas) / 2.0
    elif measure == "chebyshev":
        f = f / math.pi
    else:
        raise ValueError(f"unknown measure {measure!r}")
    return float(np.sum(weights * f))


def lp_theta_reference(c, s: float, measure: str) -> float:
    """||p||_s under dx/2 ("lebesgue") or dx/(pi sqrt(1-x^2)) ("chebyshev").

    Substitutes x = cos(theta), splits [0, pi] at the arccos of every real root
    of p, and runs tanh-sinh on each panel (|p|^s is smooth inside a panel and
    behaves like |t|^s at its ends, which tanh-sinh handles).  The step is
    halved until two successive values differ by less than 1e-12 relative.
    """
    roots = np.arccos(_real_points(C.chebroots(c), tol=1e-6)) if len(c) > 1 else np.zeros(0)
    cuts = np.unique(np.concatenate([[0.0, math.pi], roots]))
    h = 1.0 / 16
    prev = _theta_integral(c, s, measure, h, cuts)
    for _ in range(6):
        h /= 2
        cur = _theta_integral(c, s, measure, h, cuts)
        if abs(cur - prev) <= 1e-12 * abs(cur):
            return cur ** (1.0 / s)
        prev = cur
    raise ArithmeticError(f"theta reference did not settle (s={s}, {measure})")


# ---------------------------------------------------------------------------
# Checks


class _Lazy:
    """A reference value computed on first use, after the timed phase."""

    def __init__(self, fn):
        self._fn = fn
        self._done = False
        self._value = None

    def get(self):
        if not self._done:
            self._value = self._fn() if callable(self._fn) else self._fn
            self._done = True
        return self._value


class Close:
    """|output - ref| <= rtol * |ref|."""

    def __init__(self, ref, rtol: float):
        self.ref = _Lazy(ref)
        self.rtol = rtol

    def failure(self, v):
        ref = self.ref.get()
        if abs(v - ref) <= self.rtol * abs(ref):
            return None
        return f"{v!r} differs from {ref!r} by {abs(v - ref) / abs(ref):.3g} relative (allowed {self.rtol:g})"

    def wrong(self):
        return self.ref.get() * (1.0 + 100.0 * self.rtol)


class Within:
    """lo <= output <= hi; bounds are relaxed by ``rslack`` relative."""

    def __init__(self, lo, hi, rslack: float = 0.0):
        self.lo = _Lazy(lo)
        self.hi = _Lazy(hi)
        self.rslack = rslack

    def bounds(self):
        lo, hi = self.lo.get(), self.hi.get()
        return lo - self.rslack * abs(lo), hi + self.rslack * abs(hi)

    def failure(self, v):
        lo, hi = self.bounds()
        if lo <= v <= hi:
            return None
        return f"{v!r} outside [{lo!r}, {hi!r}]"

    def wrong(self):
        lo, _ = self.bounds()
        return lo - 0.01 * max(abs(lo), 1.0)


class Equal:
    """output == ref exactly (Fractions, tuples of them, or 0.0 for exact residuals)."""

    def __init__(self, ref):
        self.ref = _Lazy(ref)

    def failure(self, v):
        ref = self.ref.get()
        return None if v == ref else f"{v!r} != {ref!r}"

    def wrong(self):
        ref = self.ref.get()
        if isinstance(ref, tuple):
            return (ref[0] + Fraction(1, 10**30),) + ref[1:]
        return ref + (Fraction(1, 10**30) if isinstance(ref, Fraction) else 1e-300)


class Sandwich:
    """Nikolskii sandwich Lp <= sup <= (2(s+1)n^2)^(1/s) Lp for every s.

    Output: (sup, (Lp for each s in ``ss``)).  Slack 1e-10 relative.
    """

    def __init__(self, n: int, ss):
        self.n = n
        self.ss = tuple(ss)

    def failure(self, v):
        sup, lps = v
        for s, lp in zip(self.ss, lps):
            if lp > sup * (1 + 1e-10):
                return f"L{s} norm {lp!r} exceeds sup {sup!r}"
            factor = (2.0 * (s + 1) * self.n * self.n) ** (1.0 / s)
            if sup > factor * lp * (1 + 1e-10):
                return f"sup {sup!r} exceeds {factor:.6g} * L{s} norm {lp!r}"
        return None

    def wrong(self):
        return (1.0, tuple(2.0 for _ in self.ss))
