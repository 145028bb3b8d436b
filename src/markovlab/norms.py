"""Norm families on polynomial spaces and their evaluators.

The public entry points (``evaluate_norm`` and ``_evaluate_norms``,
``sup_norm``, ``lp_norm``, ``spectral_norm_estimate``) accept a ``ChebSeries``
or a ``MultiPoly`` and evaluate its ``as_chebseries`` copy, except for the
qms norms, which read the power coefficients as given (``_qms_poly``), so
exact coefficients stay exact.

Each norm is defined once, by its spec's ``terms(deg)`` table
(``NormTerms``): sups of derivatives over a set with their weights, an
optional Schur weight on the samples, an optional L^p part, and for qms its
(m, s) entry.  ``_column_norms`` sums that table for every Chebyshev series
of a coefficient stack (one per column, last axis), on a set in one variable
or two: ``evaluate_norm`` is its one-column case and the Markov search's
ratios (``exponents._ratios``) stack both sides of every ratio; the batched
search (``exponents._BatchedRatio``) turns the same table into one sampling
matrix for a batch of series.

Sup norms on intervals are read on the ``Interval.grid`` of each piece, one
rfft per degree (``grid_values``), and every near-maximal bracket of that
grid is refined by Newton's method in theta = arccos t, t the piece's
coordinate (``_peak_angles``, on the kernel ``_newton_roots`` that the L^p
root cuts use too).  A coarse sup (``refine=False``) is the largest grid
value, an FFT value at the exact angle; a refined one is the larger of that
and a Clenshaw sample at each maximum found.  Either can exceed the truth by
rounding (ROADMAP F5).  One ``_sup`` call is one pass over every piece of
every polynomial it is given, with one Newton loop for all brackets, within
``_PASS_MAX_ENTRIES`` values in all its arrays; ``_evaluate_norms`` takes the
sup terms of many polynomials in as few passes as that bound allows.

A plane region is a masked tensor grid (``SampledRegion2D.axes`` and
``index``): a sup over it reads each series' values on the grid, Vx C Vy^T,
by two matrix products and takes them at the region's points, or as they
are where the points are the whole grid (``_plane_sup``, which
``_sup_columns`` calls for every plane sup).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from functools import partial, reduce
from typing import Optional, Union, get_args

import numpy as np
from numpy.polynomial import chebyshev as nch

from .chebseries import (ChebSeries, as_chebseries, chebval_columns, grid_values, lobatto_coef,
                         lobatto_points)
from .domains import (
    CompactSet,
    Interval,
    Measure,
    gauss_jacobi,
    grid_size,
    jacobi_log_mass,
    json_number,
    measure_from_json,
    measure_to_json,
    set_from_json,
    set_to_json,
)
from .errors import DimensionMismatchError, PrecisionOverflowError
from .polynomials import NEG_INF, MultiPoly, chebder_columns

# Root-split L^p: first and largest Gauss-Jacobi rule per piece (the largest
# one's dense Jacobi matrix is 2 MB) and the relative agreement of a piece's
# two estimates that ends its doubling.
_LP_FIRST_NODES = 16
_LP_MAX_NODES = 512
_LP_RTOL = 1e-13
# Real roots (``_real_roots_inside``): above this degree a real series is
# searched on a grid of _GRID_CELLS cells per unit of degree in theta, and a
# flagged cell is split _GRID_SPLIT ways; more than _GRID_MAX_FLAGGED flagged
# cells at one level, or any left after _GRID_MAX_LEVELS splits, send the
# series back to the eigenvalue solve.
_EIG_MAX_DEGREE = 64
_GRID_CELLS = 64
_GRID_SPLIT = 16
_GRID_MAX_FLAGGED = 32
_GRID_MAX_LEVELS = 8
# Values one coarse pass holds at once (8 MB): the search's sampling matrix
# (``exponents._sampled_side``), a ``_sup`` pass in all its arrays
# (``_sup_entries``), a ``_peak_angles`` chunk.
_PASS_MAX_ENTRIES = 1 << 20
# The values a ``_sup`` pass holds per padded grid value: the grid array V,
# and where one degree fills the pass its rfft's zero-padded input (2m rows
# for m + 1 values), complex output (two) and absolute values; twice that for
# complex series, whose real and imaginary parts take an rfft each.
_SUP_ARRAYS = 6


def _schur_weight(alpha: float, *coords) -> np.ndarray:
    """max(1 - sum_j |x_j|^2, 0)^alpha at the points with these coordinates."""
    rest = 1.0
    for x in coords:
        rest = rest - np.abs(x) ** 2
    return np.maximum(rest, 0.0) ** alpha


def _coef_columns(polys) -> np.ndarray:
    """The coefficients of polys along the last axis of one zero-padded array
    (one nonempty polynomial's own array, as its one column)."""
    if len(polys) == 1 and polys[0].coef.size:
        return polys[0].coef[..., None]
    shape = [max(1, *sizes) for sizes in zip(*(p.coef.shape for p in polys))]
    C = np.zeros((*shape, len(polys)), dtype=np.result_type(*(p.coef for p in polys)))
    for j, p in enumerate(polys):
        C[(*map(slice, p.coef.shape), j)] = p.coef
    return C


def _sup(polys, E: CompactSet, refine: bool, alpha: float = 0.0) -> list:
    """``_sup_columns`` of the coefficients of polys, series on E."""
    return _sup_columns(_coef_columns(polys), E, refine, alpha)


def _sup_columns(C: np.ndarray, E: CompactSet, refine: bool, alpha: float = 0.0) -> list:
    """max over E of |p| for the series p in each column (last axis) of C,
    times the Schur weight when alpha > 0 (ValueError on a piece other than
    [-1, 1]): NaN for a column with a NaN coefficient, else inf for one with
    an inf; any other on a plane region off its tensor grid (``_plane_sup``; refine
    changes nothing there), and in one variable in one pass over the fixed
    ``E.samples`` and the cells, the (column, piece of ``E.intervals``)
    pairs, a column of the degree of its last nonzero row.

    Each cell takes its series in the piece's coordinate t once, scaled
    (``_support_series``), and its ``Interval.grid`` values off it, one
    ``grid_values`` per degree; a cell with a value that is not finite has
    that value as its sup.  Refinement brackets every interior local maximum
    of a finite cell's grid within 0.9 of its best sample (under-refining a
    competing one is what would let ratio estimates drift above true extremal
    ratios) and the best sample at an end of the piece; ``_peak_angles``
    finds a maximum in every bracket on the same series, each sampled in one
    Clenshaw pass; the larger of those samples and the best grid value is the
    cell's sup.  A NaN anywhere is the result (np.maximum).  Where the pass
    would hold more than ``_PASS_MAX_ENTRIES`` values (``_sup_entries``),
    each half of the columns takes its own pass.
    """
    if C.ndim - 1 != E.nvars:
        raise DimensionMismatchError(
            f"a set in {E.nvars} variable(s) takes polynomials in as many, not {C.ndim - 1}")
    if alpha and any((iv.a, iv.b) != (-1.0, 1.0) for iv in E.intervals):
        raise ValueError("the Schur weight is defined on [-1, 1], not on other intervals")
    if not np.isfinite(C).all():  # as lp_norm: NaN where a coefficient is NaN, else inf
        cols = C.reshape(-1, C.shape[-1])
        out, finite = np.where(np.isnan(cols).any(axis=0), np.nan, np.inf), np.isfinite(cols).all(axis=0)
        out[finite] = _sup_columns(C[..., finite], E, refine, alpha) if finite.any() else []
        return out.tolist()
    if E.nvars == 2:
        return _plane_sup(C, E, alpha).tolist()
    count, nonzero = C.shape[1], C != 0
    nonzero[0] = True  # a zero column has degree 0
    degs = len(C) - 1 - np.argmax(nonzero[::-1], axis=0)
    if count > 1 and _sup_entries(count, E, degs.max(), np.iscomplexobj(C)) > _PASS_MAX_ENTRIES:
        half = count // 2
        return _sup_columns(C[:, :half], E, refine, alpha) + _sup_columns(C[:, half:], E, refine, alpha)
    weight = partial(_schur_weight, alpha) if alpha else None
    best = np.full(count, -np.inf)
    if E.samples[0].size:
        w = weight(*E.samples) if weight else 1.0
        best = np.array([np.max(np.abs(nch.chebval(E.samples[0], C[: d + 1, j])) * w)
                         for j, d in enumerate(degs)])
    if E.intervals:
        pieces = [iv for iv in E.intervals for _ in range(count)]
        owner = np.arange(len(pieces)) % count
        degs = degs[owner]
        S, top = _support_series(C[:, owner], degs, pieces)
        S[1::2] *= -1  # p(-t), whose value at cos(pi l / m) is p's at grid point l
        m = grid_size(degs) - 1  # the points of ``Interval.grid``, l = 0..m
        V = np.empty((len(pieces), m.max() + 1))  # scaled as S: only the best is scaled back
        for d in set(degs.tolist()):
            cells = np.flatnonzero(degs == d)
            G = np.abs(grid_values(S[: d + 1, cells], m[cells[0]])).T
            G = G * weight(pieces[cells[0]].grid(d)) if weight else G
            V[cells, : G.shape[1]], V[cells, G.shape[1] :] = G, G[:, -1:]
        V[~np.isfinite(top)] = top[~np.isfinite(top), None]
        at = np.argmax(V, axis=1)
        top_v = V[np.arange(len(pieces)), at]
        cell_best = np.ldexp(top_v, np.frexp(top)[1])
        np.maximum.at(best, owner, cell_best)
        if refine:
            finite = np.isfinite(cell_best)  # a cell with inf or NaN keeps that value
            mid = V[:, 1:-1]
            peak = (mid >= V[:, :-2]) & (mid >= V[:, 2:]) & (mid >= 0.9 * top_v[:, None])
            # a peak at index c + 1 of its cell's own grid (not the padding)
            r, c = np.nonzero(peak & (np.arange(1, V.shape[1] - 1) < m[:, None]) & finite[:, None])
            end = np.flatnonzero(((at == 0) | (at == m)) & finite)
            r, j = np.concatenate([r, end]), np.concatenate([c + 1, at[end]])
            # grid point j is t = cos(theta), theta = pi (m - j) / m, in the piece's
            # coordinate t.  Bracket (j + 1, j - 1) is solved in psi = theta + pi,
            # g(psi) = p(-cos psi), to keep the ulps of [pi, 2 pi]; at an end, about
            # which g is even, it holds the mirror image and starts half a cell in
            m = m[r]
            lo, hi, start = np.pi * ((2 * m - [j + 1, j - 1, j + (j == 0) / 2 - (j == m) / 2]) / m)
            series = [S[: d + 1, i] for i, d in enumerate(degs)]
            x = -np.cos(_peak_angles(series, r, start, lo, hi, alpha))
            for i, iv in enumerate(E.intervals):
                x[r // count == i] = iv.at(x[r // count == i])
            refined = np.abs(chebval_columns(x[:, None], C[:, owner[r], None]))[:, 0]
            np.maximum.at(best, owner[r], refined * weight(x) if weight else refined)
    return best.tolist()


def _plane_sup(C: np.ndarray, E: CompactSet, alpha: float = 0.0) -> np.ndarray:
    """max over the points of the plane region E of |p|, times the Schur
    weight where alpha > 0, for the two-variable series p in each column
    (last axis) of C.

    A column cut to its own shape (a, b), its last nonzero row and column,
    takes its values on E's tensor grid by two matrix products, Vx C Vy^T
    with Vx and Vy the Chebyshev-Vandermonde matrices of ``E.axes``, and
    reads them at E's points (``E.index``; the grid values themselves where
    it is None, E's points being its whole grid).  Columns go in groups of
    one shape and one kind, complex where an imaginary part is nonzero, each
    product one BLAS call per column, and a group in chunks of at most
    ``_PASS_MAX_ENTRIES`` grid values; so a column's value is the one it has
    alone, whatever columns come with it.  A real chunk's one grid-sized
    array is the product itself, made absolute and weighted in place.  A
    zero column gives 0."""
    count, nz = C.shape[-1], C != 0
    a, b = (np.where(m.any(0), len(m) - np.argmax(m[::-1], axis=0), 0) for m in (nz.any(1), nz.any(0)))
    cplx = (C.imag != 0).any(axis=(0, 1))
    w = _schur_weight(alpha, *E.samples) if alpha else None
    X, Y = (nch.chebvander(x, max(size - 1, 0)) for x, size in zip(E.axes, C.shape))
    C = np.moveaxis(C, -1, 0)
    out = np.zeros(count)
    key = (a * (C.shape[2] + 1) + b) * 2 + cplx
    for k in np.unique(key[(a > 0) & (b > 0)]):
        cols = np.flatnonzero(key == k)
        i, j, c = a[cols[0]], b[cols[0]], cplx[cols[0]]
        Xi, Yj = np.ascontiguousarray(X[:, :i]), np.ascontiguousarray(Y[:, :j].T)
        width = max(1, _PASS_MAX_ENTRIES // (len(X) * len(Y) * (1 + c)))
        for start in range(0, cols.size, width):
            part = cols[start : start + width]
            block = np.ascontiguousarray(C[part, :i, :j] if c else C[part, :i, :j].real)
            vals = (Xi @ block @ Yj).reshape(part.size, -1)
            vals = vals if E.index is None else np.take(vals, E.index, axis=1)
            vals = np.abs(vals) if c else np.abs(vals, out=vals)
            if w is not None:
                vals *= w
            out[part] = np.max(vals, axis=1)
    return out


def _sup_entries(count: int, E: CompactSet, deg: int, cplx: bool = False) -> int:
    """The values a ``_sup`` pass over count polynomials of degree at most
    deg on E holds at once, ``_SUP_ARRAYS`` per padded grid value (V), twice
    that where cplx (complex series).  It counts the grids of E's intervals
    only, so it is 0 on a plane region, whose bound is ``_plane_sup``'s own
    chunking."""
    return _SUP_ARRAYS * (1 + cplx) * count * len(E.intervals) * grid_size(deg)


def _peak_angles(series, cell, start, lo, hi, alpha: float) -> np.ndarray:
    """An angle psi of a local maximum of |g(psi)|^2 sin(theta)^(4 alpha),
    theta = psi - pi, in each bracket [lo[i], hi[i]], g(psi) = sum_k c_k
    cos(k psi) for c = series[cell[i]]: the zero, by ``_newton_roots`` from
    start[i], of S = sin(theta) A + 2 alpha cos(theta) B, A = Re(conj(g) g'),
    B = |g|^2, which has the sign of its slope; |S''| <= 4 (1 + 2 alpha)
    (n + 1)^3 G^2, G = sum_k |c_k| (Bernstein).  Brackets go in chunks of
    about ``_PASS_MAX_ENTRIES`` terms (``_cos_sums``)."""
    if not lo.size:
        return start
    K = np.array([c.size for c in series])
    off = np.cumsum(K) - K
    coef = np.concatenate(series)
    G = np.add.reduceat(np.abs(coef), off)
    K, off, curvature = K[cell], off[cell], (4 * (1 + 2 * alpha) * K**3 * G**2)[cell]
    out = np.empty(lo.size)
    chunk = (np.cumsum(K) - 1) // _PASS_MAX_ENTRIES
    for idx in np.split(np.arange(lo.size), np.flatnonzero(np.diff(chunk)) + 1):
        # term i of the chunk: k[i] and c_k[i] of the series of one bracket
        n = K[idx]
        seg = np.cumsum(n) - n
        k = np.arange(seg[-1] + n[-1]) - np.repeat(seg, n)
        c, psi = coef[np.repeat(off[idx], n) + k], start[idx]

        def slope(x, live):
            psi[live] = x
            g, d1, d2 = _cos_sums(c, k, n, psi)
            A, dA = (g.conj() * d1).real, (d1.conj() * d1 + g.conj() * d2).real
            if alpha:
                B, s, co = (g.conj() * g).real, -np.sin(psi), -np.cos(psi)
                A, dA = s * A + 2 * alpha * co * B, (1 + 4 * alpha) * co * A + s * dA - 2 * alpha * s * B
            return A[live], dA[live]

        out[idx] = _newton_roots(slope, start[idx], lo[idx], hi[idx], curvature[idx])
    return out


def sup_norm(p, E: CompactSet, refine: bool = True) -> float:
    """Supremum norm of p over E: a grid value by FFT or a Clenshaw sample at
    a maximum found, either rounded (see module note)."""
    return _sup([as_chebseries(p)], E, refine)[0]


# ---------------------------------------------------------------------------
# L^p norms


def _cos_sums(c: np.ndarray, k: np.ndarray, n: np.ndarray, theta: np.ndarray) -> list:
    """g, g' and g'' at theta[i] of g(theta) = sum_k c_k cos(k theta), p(cos
    theta) for a Chebyshev series c: segment i of the flat terms (k, c_k), the
    n[i] after those of the segments before, is summed by itself."""
    kx = k * np.repeat(theta, n)
    seg = np.cumsum(n) - n
    cos = np.cos(kx)
    return [np.add.reduceat(u, seg) for u in (cos * c, np.sin(kx) * (-k * c), cos * (-k * k * c))]


def _cubic_range(A, B, C, D) -> tuple:
    """The least and the largest value over s in [0, 1] of A s^3 + B s^2 +
    C s + D, elementwise: at an end or at a critical point inside."""
    disc = B * B - 3 * A * C
    root = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # where A = 0 the first two are not finite and -C/2B is the one
        crit = ((-B - root) / (3 * A), (-B + root) / (3 * A), -C / (2 * B))
    v = np.array([((A * s + B) * s + C) * s + D for s in
                  (0.0, 1.0, *(np.where((disc >= 0) & (0 < s) & (s < 1), s, 0.0) for s in crit))])
    return v.min(axis=0), v.max(axis=0)


def _flagged(cells, n: int, G: float, floor: float, dfloor: float) -> np.ndarray:
    """The cells (lo, hi, g(lo), g(hi), g'(lo), g'(hi)) of ``_grid_roots``
    that may hold two roots or more as far as its tests can tell.

    The cheap test goes first, on the end values alone: two roots without a
    sign change need both |g| at most (nh)^2 G / 2, three with one at most
    (nh)^3 G / 6.  The cells it leaves take the cubic H of g and g' at both
    ends: those where neither H nor H' keeps one sign by more than its error
    are flagged."""
    lo, hi, glo, ghi, dlo, dhi = cells
    nh = n * (hi - lo)
    change = (glo > 0) != (ghi > 0)
    flagged = np.maximum(np.abs(glo), np.abs(ghi)) <= np.where(change, nh, 1.0) * nh**2 * G + floor
    i = np.flatnonzero(flagged)
    h, glo = hi[i] - lo[i], glo[i]
    # H(s) = A s^3 + B s^2 + C s + glo for theta = lo + s h; the errors add
    # what rounding g and g' moves H and H' by
    C, D = h * dlo[i], h * dhi[i]
    A, B = 2 * (glo - ghi[i]) + C + D, 3 * (ghi[i] - glo) - 2 * C - D
    err = (n * h) ** 4 * G / 384 + floor + h * dfloor / 3
    derr = h * ((n * h) ** 3 * n * G / 24 + 2 * dfloor) + 3 * floor  # for H' = h g'
    low, high = _cubic_range(A, B, C, glo)
    dlow, dhigh = _cubic_range(np.zeros_like(A), 3 * A, 2 * B, C)
    flagged[i] = ~((low > err) | (high < -err) | (dlow > derr) | (dhigh < -derr))
    return flagged


def _grid_roots(c: np.ndarray) -> Optional[np.ndarray]:
    """The real roots of the real Chebyshev series c on [-1, 1], and a cut at
    each tangency, from a certified search in theta, where g(theta) =
    p(cos theta) = sum_k c_k cos(k theta); None where the search gives up.

    ``grid_values`` gives g, and one more rfft g', on the M + 1 angles
    j pi / M, M = ``_GRID_CELLS`` * n, and every sign change of g there
    brackets a root.  By Ehlich and Zeller, G = max |g_j| / cos(n pi / 2M)
    bounds |g|, and by Bernstein |g^(k)| <= n^k G.  Most cells pass a test on their end values alone
    (``_flagged``).  On a cell of width h the cubic H matching g and g' at
    both ends is then within (nh)^4 G / 384 of g, and H' within (nh)^3 n G / 24
    of g' (g' - H' has three zeros in the cell).  Where H keeps one sign by
    more than that, the cell holds no root; where H' does, g is monotone
    there and holds one root if its end values differ in sign, else none.
    Every other cell is flagged and split ``_GRID_SPLIT`` ways, where the
    tests repeat.  A flagged cell whose end values are both within four
    rounding floors (eps sum (64 + pi k) |c_k|) of 0 is not split: a run of
    them is a tangency, cut at the critical point of g inside it, or, where
    the run's ends differ in sign, one more bracket.  More than ``_GRID_MAX_FLAGGED``
    flagged cells at one level, or any still flagged after
    ``_GRID_MAX_LEVELS`` splits, give None: a polynomial tiny on a long
    stretch, such as x^n, flags thousands.  ``_newton_roots`` polishes every
    bracket and places every tangency cut.
    """
    n = c.size - 1
    M = _GRID_CELLS * n
    k = np.arange(c.size)
    g, dg = grid_values(c, M), np.fft.rfft(k * c, 2 * M).imag
    # rounding: 64 eps |c_k| for the FFT, pi k eps |c_k| for k theta in a direct sum
    floor = np.finfo(float).eps * float(np.sum((64 + np.pi * k) * np.abs(c)))
    dfloor = np.finfo(float).eps * float(np.sum((64 + np.pi * k) * k * np.abs(c)))
    G = (float(np.max(np.abs(g))) + floor) / math.cos(n * math.pi / (2 * M))
    theta = np.arange(M + 1) * (math.pi / M)
    cells = [theta[:-1], theta[1:], g[:-1], g[1:], dg[:-1], dg[1:]]
    t = np.linspace(0.0, 1.0, _GRID_SPLIT + 1)

    def sums(theta):  # g, g' and g'' at each theta
        return _cos_sums(np.tile(c, theta.size), np.tile(k, theta.size), np.full(theta.size, c.size), theta)

    brackets, at_floor = [], [np.zeros((6, 0))]
    for level in range(_GRID_MAX_LEVELS + 1):
        lo, hi, glo, ghi, dlo, dhi = cells
        flagged = _flagged(cells, n, G, floor, dfloor)
        keep = ((glo > 0) != (ghi > 0)) & ~flagged
        brackets.append((lo[keep], hi[keep], glo[keep], ghi[keep]))
        idx = np.flatnonzero(flagged)
        if not idx.size:
            break
        if idx.size > _GRID_MAX_FLAGGED or level == _GRID_MAX_LEVELS:
            return None
        tangent = np.maximum(np.abs(glo[idx]), np.abs(ghi[idx])) <= 4 * floor
        at_floor.append(np.stack(cells)[:, idx[tangent]])
        idx = idx[~tangent]
        x = lo[idx, None] + (hi - lo)[idx, None] * t
        x[:, -1] = hi[idx]  # so neighbouring cells share their end exactly
        v, dv = np.empty_like(x), np.empty_like(x)
        v[:, 0], v[:, -1], dv[:, 0], dv[:, -1] = glo[idx], ghi[idx], dlo[idx], dhi[idx]
        inner = sums(x[:, 1:-1].ravel())[:2]
        v[:, 1:-1], dv[:, 1:-1] = (u.reshape(idx.size, _GRID_SPLIT - 1) for u in inner)
        split = (x[:, :-1], x[:, 1:], v[:, :-1], v[:, 1:], dv[:, :-1], dv[:, 1:])
        cells = [a.ravel() for a in split]
    flat = np.concatenate(at_floor, axis=1)
    flat = flat[:, np.argsort(flat[0])]
    first = flat[0] != np.r_[np.nan, flat[1, :-1]]  # a cell that does not touch the one before
    last = np.roll(first, -1)
    lo, hi, glo, ghi = flat[0, first], flat[1, last], flat[2, first], flat[3, last]
    change = (glo > 0) != (ghi > 0)
    brackets.append((lo[change], hi[change], glo[change], ghi[change]))
    lo, hi, glo, ghi = (np.concatenate(part) for part in zip(*brackets))
    sign = np.where(glo > 0, 1.0, -1.0)  # each function positive left of its zero
    roots = _newton_roots(lambda x, live: [sign[live] * u for u in sums(x)[:2]],
                          lo - glo * (hi - lo) / (ghi - glo), lo, hi, np.full(lo.size, n * n * G))
    # a tangency: the critical point of g in the run, a zero of g'
    lo, hi, sign = flat[0, first][~change], flat[1, last][~change], np.sign(flat[4, first][~change])
    cuts = _newton_roots(lambda x, live: [sign[live] * u for u in sums(x)[1:]],
                         (lo + hi) / 2, lo, hi, np.full(lo.size, n**3 * G))
    return np.cos(np.concatenate([roots, cuts]))


def _newton_roots(f, x, lo, hi, curvature) -> np.ndarray:
    """A zero of f in each bracket [lo, hi] from the start x in it, all at
    once: f(x, live) gives the values and slopes at x of the functions
    numbered live, each positive left of its zero and not right of it, and
    curvature[i] bounds |f''| on bracket i.  Each step shrinks the bracket to
    the sign change at x and takes the Newton step, unless that leaves the
    bracket (as a step with slope >= 0 does) or is not half as long as the
    step before, where it bisects; so each bracket ends.  It is done once f
    is 0, its bracket is two ulps wide, or Newton's error bound curvature /
    |f'| * step^2 says the next step would move it by at most one ulp (the
    last step is taken).  A bracket's path depends on its own values only.
    """
    last = hi - lo
    out = np.empty(lo.size)
    live = np.arange(lo.size)
    while live.size:
        g, dg = f(x, live)
        right = g > 0  # the zero lies right of x
        lo, hi = np.where(right, x, lo), np.where(right, hi, x)
        # |step| < |last| / 2, and no division where the step is not taken
        newton = 2 * np.abs(g) < np.abs(dg * last)
        new = x - g / np.where(newton, dg, np.inf)
        newton &= (lo <= new) & (new <= hi)
        new = np.where(newton, new, (lo + hi) / 2)
        step = new - x
        done = (g == 0) | (hi - lo <= 2 * np.spacing(hi)) | ~np.isfinite(g)
        done |= newton & (curvature * step**2 <= np.abs(dg) * np.spacing(new))
        if done.any():
            out[live[done]] = np.where(g == 0, x, new)[done]
            live, new, step, lo, hi, curvature = (u[~done] for u in (live, new, step, lo, hi, curvature))
        x, last = new, step
    return out


def _real_roots_inside(p: ChebSeries) -> list:
    """Sorted real roots of p in (-1, 1), the support's own coordinate; one
    within 1e-12 of the last kept is dropped.

    A real series of degree above ``_EIG_MAX_DEGREE`` goes through the
    certified grid search ``_grid_roots``, which also cuts at tangencies (a
    double root, or a root pair too close to resolve).  Lower degrees, where
    LAPACK is faster than any numpy pass, complex series and the series the
    grid search gives up on take the eigenvalues of the colleague matrix
    (``chebroots``) whose imaginary part is below 1e-9.
    """
    if p.degree in (NEG_INF, 0):
        return []
    roots = _grid_roots(p.coef) if p.degree > _EIG_MAX_DEGREE and np.isrealobj(p.coef) else None
    if roots is None:
        z = np.atleast_1d(nch.chebroots(p.coef))
        roots = z.real[np.abs(z.imag) < 1e-9]
    merged = []
    for r in sorted(float(x) for x in roots if -1.0 < x < 1.0):
        if not merged or r - merged[-1] > 1e-12:
            merged.append(r)
    return merged


def _lp_cuts(roots: list, mu: Measure) -> np.ndarray:
    """The support's ends, the roots, and towards an end where the density is
    singular a geometric mesh (ratio 4) from the outermost root to the middle:
    a piece ending at a root near b carries (b - x)^alpha, nearly singular
    there, and on the mesh no piece is much wider than its distance from b."""
    a, b = mu.support.a, mu.support.b
    cuts = [a, *roots, b]
    for end, exponent, near in ((b, mu.alpha, roots[-1:]), (a, mu.beta, roots[:1])):
        d = near[0] - end if near and exponent else 0.0
        while 0 < 4 * abs(d) < (b - a) / 2:
            d *= 4
            cuts.append(end + d)
    return np.unique(cuts)


def _root_split_integral(p, mu: Measure, s: float, cuts, roots: list, nnodes: int) -> float:
    """integral of |p|^s dmu: on each piece between cuts a Gauss-Jacobi rule
    with exponent s at a root, alpha at b, beta at a and 0 at a mesh cut.

    Every piece starts with the nnodes- and 2*nnodes-point rules, sampled in
    one p(x) call since one estimate settles nothing, and doubles its rule, up
    to ``_LP_MAX_NODES``, while its last two estimates differ by more than
    ``_LP_RTOL`` of its own value, or of the mean piece where that is larger:
    a piece at the rounding floor, such as the one around the 8-fold root of
    x^8, never settles by itself, and the floor keeps the error of the sum
    within twice ``_LP_RTOL``.  The pieces still doubling share one p(x) call
    per stage.  Returns the sum of the pieces' last estimates."""
    root = np.zeros(len(cuts), dtype=bool)
    root[np.searchsorted(cuts, roots)] = True
    e = np.where(root, float(s), 0.0)
    e[0], e[-1] = mu.beta, mu.alpha
    keys = list(zip(e[1:].tolist(), e[:-1].tolist()))  # (exponent at hi, exponent at lo)
    lo, hi = cuts[:-1], cuts[1:]
    mid, half, to_b, from_a = (lo + hi) / 2, (hi - lo) / 2, cuts[-1] - hi, lo - cuts[0]
    masses = np.exp([jacobi_log_mass(*k, width) for k, width in zip(keys, hi - lo)])
    # the exponents of (b - x) and (x - a) that a piece's rule leaves out
    ea, eb = np.where(to_b > 0, mu.alpha, 0.0), np.where(from_a > 0, mu.beta, 0.0)
    est = np.empty(len(keys))
    live = np.arange(len(keys))
    sizes = (nnodes, 2 * nnodes)
    while True:
        rules = [np.array([gauss_jacobi(m, *keys[i]) for i in live]) for m in sizes]
        tw = np.concatenate(rules, axis=2)  # piece, (nodes, weights), node
        t, w, c, h = tw[:, 0], tw[:, 1], mid[live, None], half[live, None]
        x = c + h * t
        to_lo, to_hi = h * (1 + t), h * (1 - t)  # x - lo, hi - x without cancellation
        vals = np.abs(p(x.ravel())).reshape(x.shape)
        vals /= np.where(root[live, None], to_lo, 1.0) * np.where(root[live + 1, None], to_hi, 1.0)
        g = vals**s * mu.density(x)
        if mu.alpha:
            g *= (to_b[live, None] + to_hi) ** ea[live, None]
        if mu.beta:
            g *= (from_a[live, None] + to_lo) ** eb[live, None]
        wg, start = w * g, 0
        for m in sizes:
            prev, est[live] = est[live], masses[live] * np.sum(wg[:, start : start + m], axis=1)
            start += m
        live = live[np.abs(est[live] - prev) > _LP_RTOL * np.maximum(est[live], np.mean(est))]
        if not live.size or sizes[-1] >= _LP_MAX_NODES:
            return float(np.sum(est))
        sizes = (2 * sizes[-1],)  # powers of two, so never past _LP_MAX_NODES


def _support_top(C: np.ndarray, degs, pieces) -> tuple:
    """(S, top): S is C cut to degree max(degs), except that a column j on a
    piece other than [-1, 1] holds p's values at degs[j] + 1
    Chebyshev-Lobatto points of pieces[j], in descending order, then zeros
    (one Clenshaw pass for all such columns); top[j] is the largest real or
    imaginary part in column j, the magnitude that sets p's scale on its
    piece (coefficients in x are graded beyond [-1, 1])."""
    degs = np.asarray(degs)
    S = C[: degs.max() + 1].copy()
    shifted = np.flatnonzero([(iv.a, iv.b) != (-1.0, 1.0) for iv in pieces])
    if shifted.size:
        X = np.empty((shifted.size, degs[shifted].max() + 1))
        for row, j in zip(X, shifted):
            pts = pieces[j].at(lobatto_points(degs[j] + 1)[::-1])
            row[: pts.size], row[pts.size :] = pts, pts[-1]
        P = chebval_columns(X, C[:, shifted, None])  # rows past deg + 1 repeat the last
        S[: X.shape[1], shifted] = np.where(np.arange(X.shape[1]) <= degs[shifted, None], P, 0).T
    return S, np.maximum(np.abs(S.real), np.abs(S.imag)).max(axis=0)


def _support_series(C: np.ndarray, degs, pieces) -> tuple:
    """(S, top): column j of S is column j of C, of degree degs[j], in the
    coordinate t = (2x - a - b)/(b - a) of pieces[j], scaled by the power of
    two that brings top[j] (``_support_top``) into [0.5, 1), and 0 where
    top[j] is inf or NaN.  Off [-1, 1] it is the series through p's values
    there, one ``lobatto_coef`` per degree: roots found from coefficients in
    x drift near the far end."""
    S, top = _support_top(C, degs, pieces)
    degs = np.asarray(degs)
    shifted = np.flatnonzero([(iv.a, iv.b) != (-1.0, 1.0) for iv in pieces])
    S[:, ~np.isfinite(top)] = 0
    S = np.ldexp(S.view(float), -np.repeat(np.frexp(top)[1], S.itemsize // 8)).view(S.dtype)
    for d in set(degs[shifted].tolist()) - {0}:  # a constant is its one value
        cols = shifted[degs[shifted] == d]
        S[: d + 1, cols] = lobatto_coef(S[: d + 1, cols])
    return S, top


def _odd_power_integral(t: ChebSeries, s: int) -> float:
    """integral of |p|^s dmu for real p, odd s and mu Lebesgue on [a, b],
    from p's series t in the support's coordinate: its real roots, and the
    coefficients d_k of p^s from the s-th powers of its ``grid_values`` at
    m = deg*s.  p^s keeps one sign between two roots, so each piece adds the
    absolute change across it of the antiderivative, whose coefficients are
    (d_(k-1) - d_(k+1))/(2k) and whose values at t = cos(theta) are sums of
    cos(k theta).
    """
    m = t.degree * s
    roots = _real_roots_inside(t)
    d = np.append(lobatto_coef(grid_values(t.coef, m) ** s), (0.0, 0.0))
    d[0] *= 2
    k = np.arange(1, m + 2)
    theta = np.arccos([1.0, *roots[::-1], -1.0])
    P = np.cos(np.outer(theta, k)) @ ((d[:-2] - d[2:]) / (2 * k))
    return float(np.sum(np.abs(np.diff(P)))) / 2


def _gauss_power_rule(mu: Measure, s: float, deg: int):
    """mu's rule exact for |p|^s, deg p = deg, where s is an even integer (``lp_norm``'s
    Gauss path and the Markov search's L^p nodes); None for any other s."""
    even = float(s).is_integer() and int(s) % 2 == 0
    return mu.rule_for_degree(deg * int(s)) if even else None


def _check_lp_order(s) -> None:
    """The order of an L^p norm: a finite number >= 1."""
    if not math.isfinite(s) or s < 1:
        raise ValueError("lp order s must be a finite number >= 1")


def lp_norm(p, mu: Measure, s: float) -> float:
    """(integral of |p|^s dmu)^(1/s).

    p is first scaled by the power of two of ``_support_top``, and the
    norm scaled back, so that |p|^s does not overflow; the norm is NaN where
    a coefficient is NaN, else inf where a value that sets the scale is not
    finite.  A constant c gives |c| directly.

    Even integer s: one Gauss rule matched to the weight, exact for the
    polynomial |p|^s.  Odd s under a Lebesgue measure with real p: no
    quadrature, p^s keeps one sign between two real roots of p, so each piece
    adds the change of an antiderivative of p^s across it
    (``_odd_power_integral``).  Every other case cuts the support at the real
    roots of p and gives each piece a Gauss-Jacobi rule whose exponent is s at
    a root and the measure's own exponent at an end of the support, so what
    is left of the integrand is smooth on the piece (``_lp_cuts`` adds the
    cuts that keep it so near a singular end).  Each piece starts at 16 nodes
    (fewer at low degree) and doubles them by itself, up to 512, until its
    two estimates agree to 1e-13 of its value (or of the mean piece, where
    that is larger); the sum of the last estimates is returned
    (``_root_split_integral``).

    Both root-cutting paths find the roots of p's series in the support's
    coordinate (``_support_series``) by ``_real_roots_inside``: eigenvalues
    up to degree 64 and for complex p, a certified grid search in theta =
    arccos(t) with Newton polishing above it.
    """
    _check_lp_order(s)
    p = as_chebseries(p)
    if p.nvars != 1:
        raise DimensionMismatchError("lp_norm takes univariate polynomials")
    if p.coef.size <= 1:  # the zero polynomial or a constant; mu has mass 1
        return float(abs(p.coef[0])) if p.coef.size else 0.0
    deg, support = p.coef.size - 1, mu.support
    rule = _gauss_power_rule(mu, s, deg)
    with np.errstate(over="ignore", invalid="ignore"):  # the Gauss path needs only the scale
        S, top = (_support_top if rule else _support_series)(p.coef[:, None], [deg], [support])
    if not np.isfinite(top[0]):
        return math.nan if np.isnan(p.coef).any() else math.inf
    scale = math.frexp(top[0])[1]
    coef = np.ldexp(p.coef.view(float), -scale).view(p.coef.dtype)

    if rule:
        nodes, weights = rule
        total = float(np.dot(weights, np.abs(nch.chebval(nodes, coef)) ** int(s)))
    elif float(s).is_integer() and mu.kind == "lebesgue" and np.isrealobj(coef):
        total = _odd_power_integral(ChebSeries(S[:, 0]), int(s))
    else:
        t, a, b = np.array(_real_roots_inside(ChebSeries(S[:, 0]))), support.a, support.b
        roots = [x for x in support.at(t).tolist() if a < x < b]
        nnodes = min(_LP_FIRST_NODES, 1 << (deg * math.ceil(s) // 2).bit_length())
        total = _root_split_integral(ChebSeries(coef), mu, s, _lp_cuts(roots, mu), roots, nnodes)
    try:
        return math.ldexp(total ** (1.0 / s), scale)
    except OverflowError:  # the norm itself leaves the double range
        return math.inf


# ---------------------------------------------------------------------------
# Factorial-weighted jet norms qms(m, s): block r sums |p^(i)(0)| / j! =
# |c_i| i!/j! over i = rs + j, 0 <= j < s, weighted by ((rs)!)^(-m); as
# i!/j! = C(i, j) (rs)!, the norm is sum_i w_i |c_i|, w_i = C(i, j) ((i - j)!)^(1-m)


def _qms_terms(p: MultiPoly, s: int, exact: bool = False) -> list:
    """(i, c_i) over the nonzero power coefficients of p, in ascending i, with
    ``exact`` each an int or ``Fraction`` (else TypeError)."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    if p.nvars != 1:
        raise DimensionMismatchError(f"qms norms take one variable, not {p.nvars}")
    terms = sorted((i, c) for (i,), c in p.terms.items())
    if exact and not all(isinstance(c, (int, Fraction)) for _, c in terms):
        raise TypeError("exact qms evaluation needs int/Fraction coefficients")
    return terms


def _qms_weights(degrees, m, s: int, log: bool = False) -> list:
    """w_i for the ascending degrees i, one factorial per block: exact for an
    integer m, and with ``log`` log w_i from ``lgamma`` for any m."""
    out, block, scale = [], None, None
    for i in degrees:
        j = i % s
        if i - j != block:
            block = i - j
            if log:
                scale = (1 - float(m)) * math.lgamma(block + 1)
            else:
                scale = Fraction(math.factorial(block)) ** (1 - int(m))
        out.append(math.log(math.comb(i, j)) + scale if log else math.comb(i, j) * scale)
    return out


def qms_seminorm_terms(p: MultiPoly, s: int) -> dict:
    """Exact map r -> seminorm of p^(rs), the m-independent part of the norm:
    block r's sum of w_i |c_i| at m = 0.

    The norm value for any exponent m is sum_r terms[r] * ((r*s)!)^(-m), so
    equality of these maps certifies the norm equality for every rational m
    at once, without evaluating irrational factorial powers.
    """
    terms, out = _qms_terms(p, s, exact=True), {}
    for (i, c), w in zip(terms, _qms_weights([i for i, _ in terms], 0, s)):
        out[i // s] = out.get(i // s, 0) + abs(c) * w
    return out


def _log_abs(c) -> float:
    """log|c| for a nonzero c, an exact one's from its numerator and denominator."""
    if isinstance(c, (int, Fraction)):
        return math.log(abs(c.numerator)) - math.log(c.denominator)
    return math.log(abs(complex(c)))


def _logsumexp(vals) -> float:
    vals = [v for v in vals if v != NEG_INF]
    if not vals:
        return NEG_INF
    top = max(vals)
    return top + math.log(sum(math.exp(v - top) for v in vals))


def qms_log_norm(p: MultiPoly, m, s: int) -> float:
    """log of the qms norm, safe for factorial-sized magnitudes: the log-sum-exp
    of log|c_i| + log w_i, with no factorial built (at degree 4096 one costs
    about 1 ms).  Returns -inf for the zero polynomial."""
    terms = _qms_terms(p, s)
    logs = _qms_weights([i for i, _ in terms], m, s, log=True)
    return _logsumexp([_log_abs(c) + w for (_, c), w in zip(terms, logs)])


def qms_norm(p: MultiPoly, m, s: int) -> float:
    """Factorial-weighted jet norm; raises on float overflow/underflow."""
    lv = qms_log_norm(p, m, s)
    if lv == NEG_INF:
        return 0.0
    if lv > 700.0 or lv < -700.0:
        raise PrecisionOverflowError(
            "qms value leaves the double range; use qms_log_norm or exact mode"
        )
    return math.exp(lv)


def qms_norm_exact(p: MultiPoly, m: int, s: int) -> Fraction:
    """Exact rational norm value sum_i w_i |c_i|; needs an integer exponent m >= 0."""
    if not isinstance(m, int) or m < 0:
        raise ValueError("exact qms values are rational only for integer m >= 0")
    terms = _qms_terms(p, s, exact=True)
    return sum((abs(c) * w for (_, c), w in zip(terms, _qms_weights([i for i, _ in terms], m, s))),
               Fraction(0))


# ---------------------------------------------------------------------------
# Norm specifications: each one a table of terms (wire format below)


@dataclass(frozen=True)
class NormTerms:
    """A norm as a sum of terms: the one definition both evaluation paths read.

    Each entry ``(k, scale, divisor)`` of ``sups``, in orders k = 0, 1, 2, ...,
    adds ``sup|D^k p| * scale / divisor`` over ``set`` (the two factors apart,
    so a term rounds as sup * r^k / k!), D differentiating along variable
    ``axis``; with ``alpha > 0`` the sup samples carry the Schur weight
    (1 - |x|^2)^alpha.  ``lp = (mu, s)`` adds the L^s(mu) norm of p, and
    ``qms = (m, s)`` adds ``qms_norm(p, m, s)`` of p as given (not its
    Chebyshev copy, so exact coefficients stay exact).
    """

    set: Optional[CompactSet] = None
    sups: tuple = ((0, 1.0, 1),)
    alpha: float = 0.0
    axis: int = 0
    lp: Optional[tuple] = None
    qms: Optional[tuple] = None


@dataclass(frozen=True)
class SupSpec:
    set: CompactSet
    kind: str = field(default="sup", init=False)

    def terms(self, deg: int) -> NormTerms:
        return NormTerms(self.set)


@dataclass(frozen=True)
class LpSpec:
    measure: Measure
    s: float
    kind: str = field(default="lp", init=False)

    def __post_init__(self):
        _check_lp_order(self.s)

    def terms(self, deg: int) -> NormTerms:
        return NormTerms(sups=(), lp=(self.measure, self.s))


@dataclass(frozen=True)
class SupPlusLpSpec:
    set: CompactSet
    measure: Measure
    s: float
    kind: str = field(default="sup_plus_lp", init=False)

    def __post_init__(self):
        _check_lp_order(self.s)
        if self.set.nvars != 1:
            raise ValueError(f"sup+L^p takes a set in one variable, not {self.set.nvars}")

    def terms(self, deg: int) -> NormTerms:
        return NormTerms(self.set, lp=(self.measure, self.s))


@dataclass(frozen=True)
class SchurSpec:
    """Weighted sup on [-1, 1] (the default set) or on a plane region."""

    alpha: float
    set: Optional[CompactSet] = None
    kind: str = field(default="schur", init=False)

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError("weight exponent alpha must be finite and positive")
        E = self.set
        if E is not None and E.nvars == 1 and E != Interval(-1.0, 1.0):
            raise ValueError("the weighted sup norm is defined on [-1, 1] or a plane region")

    def terms(self, deg: int) -> NormTerms:
        return NormTerms(Interval(-1.0, 1.0) if self.set is None else self.set, alpha=self.alpha)


@dataclass(frozen=True)
class QmsSpec:
    """Factorial-weighted jet norm: no sup terms, evaluated by ``qms_norm``."""

    m: float
    s: int
    kind: str = field(default="qms", init=False)

    def __post_init__(self):
        if not 0 < float(self.m) < math.inf or self.s < 1:
            raise ValueError("qms needs a finite m > 0 and a positive integer s")

    def terms(self, deg: int) -> NormTerms:
        return NormTerms(sups=(), qms=(self.m, self.s))


@dataclass(frozen=True)
class TaylorDiskSpec:
    set: CompactSet
    r: float
    kind: str = field(default="taylor_disk", init=False)

    def __post_init__(self):
        if not 0 < self.r < math.inf:
            raise ValueError("disk radius must be finite and positive")

    def terms(self, deg: int) -> NormTerms:
        """sup|p^(k)| * r^k / k! for k = 0..deg (the rest vanish); r^k and k!
        must be doubles, which k! is up to k = 170."""
        try:
            weights = [self.r**k for k in range(deg + 1)]
            float(math.factorial(deg))
        except OverflowError:
            raise PrecisionOverflowError(
                f"taylor_disk weight r^{deg} or {deg}! leaves the double range")
        return NormTerms(
            self.set, sups=tuple((k, w, math.factorial(k)) for k, w in enumerate(weights))
        )


@dataclass(frozen=True)
class MixedDerivSpec:
    set: CompactSet
    axis: int = 0
    kind: str = field(default="mixed_deriv", init=False)

    def __post_init__(self):
        if not 0 <= self.axis < self.set.nvars:
            raise ValueError(f"axis {self.axis} is not a variable of the set")

    def terms(self, deg: int) -> NormTerms:
        return NormTerms(self.set, sups=((0, 1.0, 1), (1, 1.0, 1)), axis=self.axis)


NormSpec = Union[
    SupSpec, LpSpec, SupPlusLpSpec, SchurSpec, QmsSpec, TaylorDiskSpec, MixedDerivSpec
]


def spec_nvars(spec: NormSpec) -> int:
    """The variables of the polynomials spec takes: its ``terms`` set's, else 1."""
    return getattr(spec.terms(0).set, "nvars", 1)


def evaluate_norm(spec: NormSpec, p, refine: bool = True) -> float:
    """q(p): the sum of the spec's ``terms`` table."""
    return _evaluate_norms(spec, [p], refine)[0]


def _evaluate_norms(spec: NormSpec, polys, refine: bool = True) -> list:
    """``evaluate_norm`` of each of polys: a table without sup terms (L^p,
    qms) reads each polynomial by itself (``_part``); every other one takes
    their ``as_chebseries`` as the columns of one stack (``_column_norms``)."""
    t = spec.terms(0)
    if not t.sups:
        return [_part(t, p) for p in polys]
    polys = [as_chebseries(p) for p in polys]
    return _column_norms(spec, _coef_columns(polys), refine, polys) if polys else []


def _part(t: NormTerms, p) -> float:
    """The L^p or qms entry of the ``terms`` table t at p, qms of p as given (0.0 without one)."""
    if t.lp is not None:
        return lp_norm(p, *t.lp)
    return 0.0 if t.qms is None else qms_norm(_qms_poly(p), *t.qms)


def _column_norms(spec: NormSpec, C: np.ndarray, refine: bool, polys) -> list:
    """``evaluate_norm`` of the series in each column (last axis) of C, on a
    set in one variable or two: each column's ``terms`` table at its total
    degree; the sup terms of all of them in as few ``_sup_columns`` passes as
    ``_PASS_MAX_ENTRIES`` allows, in consecutive groups of columns
    (``_sup_groups``), each group cut to its own degree and its images built
    only for its own pass (``_derived_columns``, complex where an imaginary
    part is nonzero); and an L^p or qms part of polys[j], column j's
    polynomial, or with polys None of the column's ``ChebSeries``.  A
    column's value does not depend on the columns that come with it."""
    count, nv = C.shape[-1], C.ndim - 1
    degs = np.where(C != 0, reduce(np.add.outer, map(np.arange, C.shape[:-1]))[..., None], 0)
    degs = degs.reshape(-1, count).max(axis=0).tolist()
    tables = {d: spec.terms(d) for d in set(degs)}
    tables = [tables[d] for d in degs]
    cplx = (C.imag != 0).reshape(-1, count).any(axis=0) if np.iscomplexobj(C) else np.zeros(count, bool)
    sups = []
    for group in _sup_groups(degs, tables, cplx.any()):
        t = tables[group.start]
        if polys is not None and group.stop - group.start == len(t.sups) == 1 and not t.alpha:
            # one plain sup is sup_norm's value; bench/tracing.py times it there
            sups.append(sup_norm(polys[group.start], t.set, refine=refine))
        else:
            G = C[(slice(max(degs[group]) + 1),) * nv + (group,)]
            counts = np.array([len(u.sups) for u in tables[group]])
            sups += _sup_columns(_derived_columns(G, counts, cplx[group], t.axis), t.set, refine, t.alpha)
    sups, out = iter(sups), []
    for j, t in enumerate(tables):
        total = 0.0
        for _, scale, divisor in t.sups:
            total += next(sups) * scale / divisor
        if t.lp is not None or t.qms is not None:
            total += _part(t, polys[j] if polys is not None else ChebSeries(C[..., j]))
        out.append(float(total))
    return out


def _sup_groups(degs, tables, cplx: bool) -> list:
    """Consecutive slices of the polynomials of these degrees and ``terms``
    tables (complex series where cplx), whose sup images take one ``_sup``
    pass of at most ``_PASS_MAX_ENTRIES`` values: all of them where they
    fit, none where no table has a sup term.  On a set without intervals (a
    plane region, whose ``_plane_sup`` takes its own chunks, or a point set)
    ``_sup_entries`` is 0, so they are one group."""
    E = next((t.set for t in tables if t.sups), None)  # a qms table has no set
    if E is not None and not E.intervals:
        return [slice(0, len(degs))]
    groups, start, count, deg = [], 0, 0, 0
    for i, (t, d) in enumerate(zip(tables, degs)):
        if count and _sup_entries(count + len(t.sups), t.set, max(deg, d), cplx) > _PASS_MAX_ENTRIES:
            groups.append(slice(start, i))
            start, count, deg = i, 0, 0
        count, deg = count + len(t.sups), max(deg, d)
    return groups + [slice(start, len(degs))] if count else groups


def _derived_columns(C: np.ndarray, counts, cplx, axis: int) -> np.ndarray:
    """D^o along ``axis`` of the series in column j of C for o < counts[j],
    column by column, as the columns of one zero-padded array.  Each order
    step is one ``chebder_columns`` over the real columns (cplx[j] False,
    their real parts) and one over the complex ones (numpy divides complex
    by real through a reciprocal), so each image is bitwise its column's own
    chain (``ChebSeries.deriv``)."""
    if (counts == 1).all():  # each column is its one image
        return C
    first = np.cumsum(counts) - counts
    out = np.zeros((*C.shape[:-1], counts.sum()), dtype=C.dtype)
    for own in (np.flatnonzero(~cplx), np.flatnonzero(cplx)):
        image = C[..., own] if cplx[own].any() else C[..., own].real
        for o in range(counts[own].max(initial=0)):
            if o:
                image = chebder_columns(image, axis)
            live = np.flatnonzero(counts[own] > o)
            out[(*map(slice, image.shape[:-1]), first[own[live]] + o)] = image[..., live]
    return out


def _qms_poly(p) -> MultiPoly:
    """The one qms conversion: the qms norms read power-basis terms, so a
    one-variable ChebSeries becomes the MultiPoly of its power coefficients.
    A polynomial in two variables raises DimensionMismatchError."""
    if p.nvars != 1:
        raise DimensionMismatchError(f"qms norms take one variable, not {p.nvars}")
    return p.to_unipoly() if isinstance(p, ChebSeries) else p


# ---------------------------------------------------------------------------
# Wire format: one JSON key per init field of the spec dataclass

_SPEC_KINDS = {cls.kind: cls for cls in get_args(NormSpec)}
_CODECS = {  # field -> (to JSON, from JSON); other fields are numbers of their annotated type
    "set": (set_to_json, set_from_json),
    "measure": (measure_to_json, measure_from_json),
}


def spec_to_json(spec: NormSpec) -> dict:
    out = {"kind": spec.kind}
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.init and value is not None:
            out[f.name] = _CODECS[f.name][0](value) if f.name in _CODECS else value
    return out


def spec_from_json(obj: dict) -> NormSpec:
    """The spec a ``spec_to_json`` object describes; KeyError names a missing field."""
    if not isinstance(obj, dict):
        raise TypeError(f"a norm spec is a JSON object, not {obj!r}")
    kind = obj.get("kind")
    if kind not in _SPEC_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}")
    cls, args = _SPEC_KINDS[kind], {}
    for f in fields(cls):
        if not f.init or (f.name not in obj and f.default is not MISSING):
            continue
        value = obj[f.name]
        args[f.name] = (_CODECS[f.name][1](value) if f.name in _CODECS
                        else json_number(value, f.name, integer=f.type == "int"))
    return cls(**args)


# ---------------------------------------------------------------------------
# Spectral-limit estimation


@dataclass(frozen=True)
class SpectralEstimate:
    """Tail of q(p^s)^(1/s) plus a 1/s-corrected limit estimate."""

    values: tuple
    limit: float
    plain_tail: float
    monotone: bool


def spectral_norm_estimate(p, spec: NormSpec, s_max: int) -> SpectralEstimate:
    """Estimate lim_s q(p^s)^(1/s) from s = 1..s_max.

    The tail is fit as L*(1 + c/s) on its last half; norms equivalent to a
    sup norm up to a (deg+1) factor have exactly this correction order.
    """
    if s_max < 4:
        raise ValueError("s_max must be at least 4")
    qms = spec.terms(0).qms  # taken in logs: q(p^s) leaves the double range
    p = p if qms else as_chebseries(p)
    vals = [math.exp(qms_log_norm(_qms_poly(p**s), *qms) / s) if qms
            else evaluate_norm(spec, p**s) ** (1.0 / s) for s in range(1, s_max + 1)]
    tail = list(range(max(1, s_max // 2), s_max + 1))
    ys = np.array([vals[s - 1] for s in tail])
    X = np.vstack([np.ones(len(tail)), 1.0 / np.array(tail, dtype=float)]).T
    coef, *_ = np.linalg.lstsq(X, ys, rcond=None)
    diffs, tol = np.diff(vals), 1e-12 * max(abs(v) for v in vals)
    monotone = bool(np.all(diffs <= tol) or np.all(diffs >= -tol))
    return SpectralEstimate(
        values=tuple(float(v) for v in vals),
        limit=float(coef[0]),
        plain_tail=float(vals[-1]),
        monotone=monotone,
    )
