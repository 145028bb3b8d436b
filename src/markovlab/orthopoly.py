"""Orthonormal polynomial systems and their sup-norm growth.

Systems are defined by three-term recurrence coefficients in orthonormal form,

    b[n+1] * Q_{n+1}(x) = (x - a[n]) * Q_n(x) - b[n] * Q_{n-1}(x),

with Q_0 = 1 for a probability measure.  Values are evaluated through the
recurrence (stable far past the degrees where monomial coefficients become
unusable), derivatives by the differentiation matrix its coefficients give;
the coefficients come from the closed-form Jacobi formulas or from a discrete
Stieltjes procedure against an arbitrary measure's quadrature rule.
"""

from __future__ import annotations

import csv
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import chebyshev as nch

from .chebseries import ChebSeries, as_chebseries
from .domains import (
    DEGREE_BUDGET,
    CompactSet,
    Measure,
    jacobi_measure,
    jacobi_monic_recurrence,
    sup_points,
)
from .errors import OrthogonalityLossError, QuadratureBudgetError
from .fitting import ExponentFit, fit_power_law

NMAX_HARD_CAP = 256
_DRIFT_TOL = 1e-9


class OrthoSystem:
    """Orthonormal polynomial family Q_0..Q_nmax for a probability measure.

    Attributes
    ----------
    alphas : ndarray
        Recurrence centers a[0..nmax-1].
    betas : ndarray
        Orthonormal off-diagonal coefficients b[0..nmax] (b[0] = 0 unused).
    measure : Measure
        The measure the family is orthonormal against.
    nmax : int
        Largest degree available.
    """

    def __init__(self, alphas, betas, measure: Measure, nmax: int):
        if nmax < 1:
            raise ValueError("nmax must be >= 1")
        if nmax > NMAX_HARD_CAP:
            raise ValueError(f"nmax {nmax} exceeds the hard cap {NMAX_HARD_CAP}")
        self.alphas = np.asarray(alphas, dtype=float)[: nmax]
        self.betas = np.asarray(betas, dtype=float)[: nmax + 1]
        if self.alphas.size < nmax or self.betas.size < nmax + 1:
            raise ValueError("recurrence coefficient arrays too short for nmax")
        self.measure = measure
        self.nmax = int(nmax)

    def values(self, x, upto: Optional[int] = None) -> np.ndarray:
        """Matrix of Q_n(x) values, shape (upto + 1, len(x))."""
        upto = self.nmax if upto is None else int(upto)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros((upto + 1, xs.size))
        out[0] = 1.0
        if upto >= 1:
            out[1] = (xs - self.alphas[0]) / self.betas[1]
        for n in range(1, upto):
            out[n + 1] = (
                (xs - self.alphas[n]) * out[n] - self.betas[n] * out[n - 1]
            ) / self.betas[n + 1]
        return out

    @cached_property
    def _ddx(self) -> np.ndarray:
        """d/dx on span(Q_0..Q_nmax), read-only: column j holds the coefficients
        of Q_j'.  Differentiating the recurrence gives
        b[n+1] Q_{n+1}' = Q_n + (x - a[n]) Q_n' - b[n] Q_{n-1}', and
        x Q_i = b[i+1] Q_{i+1} + a[i] Q_i + b[i] Q_{i-1} expands x Q_n'."""
        a, b = self.alphas, self.betas
        D = np.zeros((self.nmax + 1, self.nmax + 1))
        D[0, 1] = 1.0 / b[1]
        for n in range(1, self.nmax):
            q, col = D[:n, n], D[:, n + 1]  # Q_n' has degree n - 1
            col[n] = 1.0
            col[:n] += (a[:n] - a[n]) * q - b[n] * D[:n, n - 1]
            col[1 : n + 1] += b[1 : n + 1] * q
            col[: n - 1] += b[1:n] * q[1:]
            col /= b[n + 1]
        D.flags.writeable = False
        return D

    def deriv_matrix(self, n: int, k: int) -> np.ndarray:
        """Matrix of d^k/dx^k on span(Q_0..Q_n): column j holds the coefficients
        of Q_j^(k) in Q_0..Q_n (for k = 1, a read-only view of the cached d/dx)."""
        if k < 0 or not 0 <= n <= self.nmax:
            raise ValueError(f"need k >= 0 and 0 <= n <= nmax = {self.nmax}, got n={n}, k={k}")
        return np.linalg.matrix_power(self._ddx[: n + 1, : n + 1], k)

    @cached_property
    def polys(self) -> tuple:
        """Q_0..Q_nmax as Chebyshev series, by the recurrence on their
        Chebyshev coefficients (multiplication by x is ``chebmulx``)."""
        out = [np.ones(1)]
        for n in range(self.nmax):
            nxt = nch.chebmulx(out[n])
            nxt[: n + 1] -= self.alphas[n] * out[n]
            if n:
                nxt[:n] -= self.betas[n] * out[n - 1]
            out.append(nxt / self.betas[n + 1])
        return tuple(ChebSeries(c) for c in out)

    def gram_defects(self) -> np.ndarray:
        """Entry d: max |<Q_i, Q_j> - delta_ij| over i, j <= d, from one Gram matrix."""
        nodes, weights = self.measure.rule_for_degree(2 * self.nmax)
        V = self.values(nodes)
        D = np.abs((V * weights) @ V.T - np.eye(self.nmax + 1))
        return np.maximum.accumulate(np.tril(np.maximum(D, D.T)).max(axis=1))

    def sup_table(self, E: CompactSet, k: int = 0) -> np.ndarray:
        """sup |Q_n^(k)| over E for every n <= nmax (grid estimate): E, a set of
        real points in one variable, is sampled where an unrefined sup of
        degree nmax samples it, endpoints included, so endpoint extrema are exact;
        derivatives there are ``deriv_matrix(nmax, k)`` applied to the values."""
        return self.sup_tables(E, (k,))[0]

    def sup_tables(self, E: CompactSet, orders) -> list:
        """``sup_table(E, k)`` for each k in orders, from one evaluation of the
        recurrence on E's points."""
        if E.nvars != 1 or np.iscomplexobj(E.samples[0]):
            raise ValueError(f"sup tables need a set of real points in one variable, not {E!r}")
        values = self.values(sup_points(E, self.nmax))
        return [np.max(np.abs(self.deriv_matrix(self.nmax, k).T @ values if k else values), axis=1)
                for k in orders]

    def export_csv(self, path, E: Optional[CompactSet] = None, meta: Optional[dict] = None):
        """Write rows n, a_n, b_n, supnorm_E (sup column empty without E)."""
        sups = self.sup_table(E) if E is not None else None
        with open(path, "w", newline="", encoding="utf-8") as fh:
            for key, value in (meta or {}).items():
                fh.write(f"# {key}: {value}\n")
            writer = csv.writer(fh)
            writer.writerow(["n", "a_n", "b_n", "supnorm_E"])
            for n in range(self.nmax + 1):
                a_n = repr(float(self.alphas[n])) if n < self.nmax else ""
                b_n = repr(float(self.betas[n])) if n >= 1 else ""
                sup = repr(float(sups[n])) if sups is not None else ""
                writer.writerow([n, a_n, b_n, sup])


def jacobi_system(alpha: float, beta: float, nmax: int = 64) -> OrthoSystem:
    """Orthonormal system for the normalized Jacobi weight (1-x)^a (1+x)^b."""
    mu = jacobi_measure(alpha, beta)  # checks alpha and beta
    a, b_monic = jacobi_monic_recurrence(alpha, beta, nmax)
    betas = np.sqrt(b_monic)
    betas[0] = 0.0
    return OrthoSystem(a, betas, mu, nmax)


def stieltjes_orthonormalize(mu: Measure, nmax: int = 64) -> OrthoSystem:
    """Discrete Stieltjes construction of the orthonormal recurrence.

    Runs on the measure's Gauss nodes (exact inner products up to the needed
    degree), then checks the finished system's Gram matrix once: the first
    degree d whose leading block has a defect above 1e-9 (``gram_defects``)
    raises OrthogonalityLossError naming d, as does a nonpositive norm.
    """
    if 2 * nmax > DEGREE_BUDGET:
        raise QuadratureBudgetError(
            f"stieltjes needs a quadrature budget >= 2*nmax = {2 * nmax}, "
            f"got {DEGREE_BUDGET}"
        )
    nodes, weights = mu.rule_for_degree(2 * nmax + 1)
    a = np.zeros(nmax)
    b_monic = np.zeros(nmax + 1)
    b_monic[0] = 1.0
    pi_prev = np.zeros_like(nodes)
    pi_cur = np.ones_like(nodes)
    norm_prev = float(np.dot(weights, pi_cur * pi_cur))
    for k in range(nmax):
        ak = float(np.dot(weights, nodes * pi_cur * pi_cur) / norm_prev)
        pi_next = (nodes - ak) * pi_cur - (b_monic[k] if k else 0.0) * pi_prev
        norm_next = float(np.dot(weights, pi_next * pi_next))
        if norm_next <= 0.0:
            raise OrthogonalityLossError(k + 1, float("inf"))
        a[k] = ak
        b_monic[k + 1] = norm_next / norm_prev
        pi_prev, pi_cur = pi_cur, pi_next
        norm_prev = norm_next
    betas = np.sqrt(b_monic)
    betas[0] = 0.0
    sys = OrthoSystem(a, betas, mu, nmax)
    for degree, defect in enumerate(sys.gram_defects()):
        if defect > _DRIFT_TOL:
            raise OrthogonalityLossError(degree, float(defect))
    return sys


def expand(p, sys: OrthoSystem) -> np.ndarray:
    """Coefficients <p, Q_j> of p in the orthonormal basis, by quadrature."""
    p = as_chebseries(p)
    deg = 0 if p.is_zero else int(p.degree)
    if deg > sys.nmax:
        raise ValueError(f"degree {deg} exceeds system nmax {sys.nmax}")
    nodes, weights = sys.measure.rule_for_degree(2 * sys.nmax)
    V = sys.values(nodes, sys.nmax)
    pv = p(nodes)
    return (V * weights) @ pv


def reconstruct(coeffs: Sequence[float], sys: OrthoSystem) -> ChebSeries:
    """Linear combination sum_j coeffs[j] * Q_j as a Chebyshev series."""
    if len(coeffs) > sys.nmax + 1:
        raise ValueError(f"{len(coeffs)} coefficients exceed system nmax {sys.nmax}")
    out = ChebSeries([0.0])
    for c, q in zip(coeffs, sys.polys):
        if c:
            out = out + float(c) * q
    return out


def growth_exponent(
    sys: OrthoSystem, E: CompactSet, window: Optional[tuple] = None
) -> ExponentFit:
    """Fit of log sup|Q_n|_E against log n over the tail (default [nmax/4, nmax])."""
    if sys.nmax < 16:
        raise ValueError("growth fits need nmax >= 16")
    sups = sys.sup_table(E)
    ns = np.arange(1, sys.nmax + 1)
    return fit_power_law(ns, sups[1:], window=window)
