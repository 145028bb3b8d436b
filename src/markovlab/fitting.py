"""Power-law exponent fitting on log-log tables.

Every exponent of interest here is defined as a limsup, which finite data
cannot certify; fits therefore always report the least-squares slope together
with the upper-envelope slope (the largest two-point slope in the window),
and consumers surface the gap instead of resolving it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

log = logging.getLogger(__name__)

_MIN_FIT_POINTS = 4  # usable rows a power-law fit needs inside its window


@dataclass(frozen=True)
class ExponentFit:
    slope_ls: float
    slope_envelope: float
    intercept: float
    window: tuple
    r_squared: float
    n_points: int
    excluded: int = 0

    def to_json(self) -> dict:
        return {
            "slope_ls": self.slope_ls,
            "slope_envelope": self.slope_envelope,
            "window": [self.window[0], self.window[1]],
            "r2": self.r_squared,
        }


def default_window(degrees: Sequence[int]) -> tuple:
    """Tail window [n_max/4, n_max]; small-n transients bias slopes."""
    top = max(degrees)
    return (max(1, top // 4), top)


def max_pairwise_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    """Largest two-point slope over all point pairs.

    The least-squares slope is a convex combination of pairwise slopes
    (weights (x_j - x_i)^2), so this upper envelope dominates it on every
    table, which is the property the limsup proxy must keep.
    """
    order = np.argsort(xs)
    x = np.asarray(xs, dtype=float)[order]
    y = np.asarray(ys, dtype=float)[order]
    if x.size < 2:
        return 0.0
    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    mask = dx > 0
    return float(np.max(dy[mask] / dx[mask]))


def fit_power_law(
    degrees: Sequence[int],
    values: Sequence[float],
    window: Optional[tuple] = None,
) -> ExponentFit:
    """Fit values ~ C * n^slope on a degree window.

    Nonpositive rows (factor 0, e.g. annihilated constants) are excluded from
    the fit with a logged count; a fit needs at least ``_MIN_FIT_POINTS``
    usable rows inside the window.
    """
    ns = np.asarray(degrees, dtype=float)
    vals = np.asarray(values, dtype=float)
    if ns.shape != vals.shape:
        raise ValueError("degrees and values must have matching shapes")
    if window is None:
        window = default_window([int(n) for n in ns])
    lo, hi = window
    in_window = (ns >= lo) & (ns <= hi)
    positive = vals > 0.0
    excluded = int(np.sum(in_window & ~positive))
    if excluded:
        log.debug("excluded %d nonpositive rows from exponent fit", excluded)
    keep = in_window & positive
    if int(keep.sum()) < _MIN_FIT_POINTS:
        raise ValueError(
            f"need at least {_MIN_FIT_POINTS} usable rows in window {window}, "
            f"got {int(keep.sum())}"
        )
    x = np.log(ns[keep])
    y = np.log(vals[keep])
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum((A @ np.array([slope, intercept]) - y) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ExponentFit(
        slope_ls=float(slope),
        slope_envelope=float(max_pairwise_slope(x, y)),
        intercept=float(intercept),
        window=(lo, hi),
        r_squared=float(r2),
        n_points=int(keep.sum()),
        excluded=excluded,
    )


@dataclass(frozen=True)
class AsymptoticTrend:
    """The sequence m_k/k and its limit estimate.

    ``limit_estimate`` is the intercept of a least-squares fit of m_k/k
    against 1/k (the sequence approaches its limit with a 1/k-order
    correction); ``tail_max`` is the raw max over the last half, kept as the
    envelope-style diagnostic.
    """

    ks: tuple
    exponents: tuple
    ratios: tuple
    limit_estimate: float
    tail_max: float

    def rows(self):
        return list(zip(self.ks, self.exponents, self.ratios))


def asymptotic_exponent(fits: Mapping[int, float]) -> AsymptoticTrend:
    """The trend of m_k/k, and its limit estimate, from finitely many
    order-k exponents m_k = fits[k] (see AsymptoticTrend)."""
    ks = sorted(int(k) for k in fits)
    if len(ks) < 3:
        raise ValueError("need at least 3 orders k")
    mks = [float(fits[k]) for k in ks]
    ratios = [m / k for m, k in zip(mks, ks)]
    u = np.array([1.0 / k for k in ks])
    y = np.array(ratios)
    A = np.vstack([np.ones_like(u), u]).T
    (intercept, _), *_ = np.linalg.lstsq(A, y, rcond=None)
    tail = ratios[len(ratios) // 2 :]
    return AsymptoticTrend(
        ks=tuple(ks),
        exponents=tuple(mks),
        ratios=tuple(ratios),
        limit_estimate=float(intercept),
        tail_max=float(max(tail)),
    )
