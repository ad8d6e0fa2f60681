"""Correlation and smoothing machinery.

Provides binned contingency tables with Pearson chi-square, a nonlinear
correlation coefficient in [0, 1] obtained by inverting the observed
chi-square through a binned bivariate normal (the ``phik`` approach),
robust LOWESS smoothing, and the boxplot summaries used by the reporting
layer.

The phik method follows Baak et al. 2020 (arXiv:1811.11440).  Its binned
bivariate-normal reference takes each cell as the four-corner difference of
the CDF, which is evaluated in closed form on the whole grid of bin edges at
once with the Drezner & Wesolowsky (1990) single-integral form, as in Genz
(2004, Statistics and Computing 14:251-260):

    Phi2(a, b; rho) = Phi(a) Phi(b)
        + 1/(2 pi) int_0^asin(rho) exp(-(a^2 + b^2 - 2ab sin t) / (2 cos^2 t)) dt

The integral uses fixed Gauss-Legendre nodes in v = log(pi/2 - |t|), which
crowd toward |t| = pi/2, where the integrand sharpens as |rho| -> 1.  With
40 nodes a cell is within 1e-12 of the exact (Owen's T) value up to
|rho| = 0.9999, the end of the phik bisection.  Only the correlation score
itself is implemented; the sampling-noise pedestal and significance
machinery of the reference library are intentionally out of scope.

Every bisection takes the same number of steps, so ``phik_matrix`` runs the
bisections of all its pairs in lockstep: one ``bvn_cell_probs`` call per
step evaluates a whole block of pairs' grids, blocks being sized so that
their (pair, corner, corner, node) array stays within ``_GRID_BYTES``.  A
pair's cells and chi-square are computed exactly as for that pair alone, so
``phik`` (the one-pair case of the same code) and ``phik_matrix`` agree bit
for bit, even where the chi-square curve is flat to rounding and the
bisection is steered by its last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy.special is imported by the two functions that use it, not here: its
# import takes about as long as the rest of the package's, and only phik
# needs it

_Z_CLIP = 8.5  # standard-normal mass beyond this is ~1e-17, below rounding
_LOG_HALF_PI = math.log(0.5 * math.pi)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(40)  # on [-1, 1]
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_X + 1.0), 0.5 * _GL_W  # on [0, 1]
PHIK_BINS = 10  # equal-width bins over each series' range
_RHO_TOL = 1e-4  # phik's bisection stops when its bracket is this narrow
_GRID_BYTES = 1 << 22  # bound on one phik block's (pair, corner, corner, node) grid


class DegenerateBinningError(ValueError):
    """The inputs cannot be binned into at least a 2 x 2 table."""


@dataclass(frozen=True)
class BoxplotSummary:
    q1: float
    median: float
    q3: float
    lower_whisker: float
    upper_whisker: float
    outlier_count: int


def _bin_series(v: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-width bin id of each sample over the series' range."""
    lo, hi = float(v.min()), float(v.max())
    if lo == hi:
        raise DegenerateBinningError("constant series cannot be binned")
    edges = np.linspace(lo, hi, n_bins + 1)
    return np.searchsorted(edges[1:-1], v, side="right")


def contingency(x, y, n_bins: int = PHIK_BINS) -> np.ndarray:
    """Cross-tabulate two series into an (r, c) count array; empty marginal
    bins are dropped."""
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("inputs must be equal-length 1-D series")
    if x.size < 2:
        raise ValueError("need at least two observations")
    return _cross_tab(_bin_series(x, n_bins), _bin_series(y, n_bins), n_bins)


def _cross_tab(ix: np.ndarray, iy: np.ndarray, n_bins: int) -> np.ndarray:
    """Counts of each (row bin, column bin) pair, empty marginal bins dropped."""
    counts = np.bincount(ix * n_bins + iy, minlength=n_bins * n_bins).reshape(n_bins, n_bins)
    counts = counts[counts.sum(axis=1) > 0][:, counts.sum(axis=0) > 0]
    if counts.shape[0] < 2 or counts.shape[1] < 2:
        raise DegenerateBinningError("fewer than 2 occupied bins on a margin")
    return counts


def chi2(counts) -> float:
    """Pearson chi-square statistic of an (r, c) contingency count array."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("table has no observations")
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / total
    mask = expected > 0
    return float((((counts - expected) ** 2)[mask] / expected[mask]).sum())


def bvn_cell_probs(rho, row_edges, col_edges) -> np.ndarray:
    """Cell probabilities of a standard bivariate normal over a z-space grid.

    ``row_edges`` / ``col_edges`` are strictly increasing arrays of standard
    normal quantiles (+-inf allowed at the ends; edges are clipped to
    +-``_Z_CLIP``).  Returns an (r, c) matrix whose entries integrate the
    density with correlation ``rho`` over each rectangle, as four-corner
    differences of the CDF on the grid of edges.  With an array of P
    correlations, the edges are (P, r + 1) and (P, c + 1) arrays, one grid
    per correlation, and the result is (P, r, c); each grid's cells are the
    ones it gets alone.
    """
    from scipy.special import ndtr

    rho = np.asarray(rho, dtype=float)
    if not np.all(np.abs(rho) < 1.0):
        raise ValueError(f"correlation must lie in (-1, 1), got {rho}")
    row_edges = np.asarray(row_edges, dtype=float)
    col_edges = np.asarray(col_edges, dtype=float)
    if row_edges.shape[:-1] != rho.shape or col_edges.shape[:-1] != rho.shape:
        raise ValueError("edges must be 1-D, one row per correlation")
    if np.any(np.diff(row_edges) <= 0) or np.any(np.diff(col_edges) <= 0):
        raise ValueError("edges must be strictly increasing")
    a = np.clip(row_edges, -_Z_CLIP, _Z_CLIP)[..., :, None]
    b = np.clip(col_edges, -_Z_CLIP, _Z_CLIP)[..., None, :]
    # t = sign(rho) * (pi/2 - u) with u = exp(v), v from log(acos|rho|) to
    # log(pi/2); the Jacobian |dt/dv| is u.  math's log and acos, not numpy's,
    # which differ from them in the last bit for some rho
    v_lo = np.array([math.log(math.acos(abs(r))) for r in rho.flat]).reshape(rho.shape)
    width = _LOG_HALF_PI - v_lo
    u = np.exp(v_lo[..., None] + width[..., None] * _GL_NODES)  # (..., node)
    sign = np.copysign(1.0, rho)[..., None, None]
    # minus the exponent, over (..., corner, corner, node), worked in place;
    # IEEE subtraction and division round -x exactly as x, so this is the
    # negation of (a^2 + b^2 - 2 a b sin t) / (2 cos^2 t) bit for bit
    expo = (2.0 * sign * a * b)[..., None] * np.cos(u)[..., None, None, :]
    np.subtract(expo, (a * a + b * b)[..., None], out=expo)
    np.divide(expo, 2.0 * np.sin(u)[..., None, None, :] ** 2, out=expo)
    np.exp(expo, out=expo)
    # one matrix-vector product per row of corners: BLAS rounds a row's sum
    # by where it falls in the matrix, so every grid gets its own products
    integral = (expo @ (u * _GL_WEIGHTS)[..., None, :, None])[..., 0]
    cdf = ndtr(a) * ndtr(b) + (sign * width[..., None, None]) * integral / (2.0 * math.pi)
    return (cdf[..., 1:, 1:] - cdf[..., :-1, 1:]
            - cdf[..., 1:, :-1] + cdf[..., :-1, :-1])


def _marginal_z_edges(probs: np.ndarray, bins: int) -> np.ndarray:
    """z-space edges of the bins of a marginal, padded to ``bins`` bins.

    The last edge and the padding edges lie past ``_Z_CLIP`` and increase,
    so they all clip to it as +inf does: the padding bins have zero width,
    and the real bins keep their cells.
    """
    from scipy.special import ndtri

    edges = np.empty(bins + 1)
    edges[0] = -np.inf
    edges[1:probs.size] = ndtri(np.clip(np.cumsum(probs)[:-1], 0.0, 1.0))
    edges[probs.size:] = _Z_CLIP + 1.0 + np.arange(bins + 1 - probs.size)
    return edges


def _phik_tables(tables: list[np.ndarray]) -> np.ndarray:
    """phik of each contingency count table.

    The bisections of the tables with equally many columns advance in
    lockstep, a block at a time: each step evaluates the binned bivariate
    normal of every table in the block in one :func:`bvn_cell_probs` call,
    on row edges padded to the block's most rows, and a block's grid of
    (table, corner, corner, node) values stays within ``_GRID_BYTES``.
    Tables are grouped by column count, not padded to a common one, because
    BLAS rounds a row of corners by where it falls in the matrix.
    """
    out = np.zeros(len(tables))
    observed = np.array([chi2(t) for t in tables])
    live = np.flatnonzero(observed > 0.0)  # zero chi-square is phik 0
    cols = np.array([t.shape[1] for t in tables])
    for c in np.unique(cols[live]):
        group = live[cols[live] == c]
        rows = max(tables[k].shape[0] for k in group)
        per_block = max(1, _GRID_BYTES // (8 * (rows + 1) * (c + 1) * _GL_NODES.size))
        for block in np.array_split(group, -(-group.size // per_block)):
            out[block] = _bisect_block([tables[k] for k in block], observed[block])
    return out


def _bisect_block(tables: list[np.ndarray], observed: np.ndarray) -> np.ndarray:
    """phik of tables with equal column counts, bisected together;
    ``observed`` holds their chi-squares.  Each chi-square is summed over its
    table's own cells, in their order, as for that table alone."""
    n_rows = np.array([t.shape[0] for t in tables])
    rows = n_rows.max()
    n = np.array([t.sum() for t in tables], dtype=float)
    p_row = np.zeros((len(tables), rows))
    for k, t in enumerate(tables):
        p_row[k, :n_rows[k]] = t.sum(axis=1) / n[k]
    p_col = np.array([t.sum(axis=0) for t in tables]) / n[:, None]
    row_edges = np.array([_marginal_z_edges(p[:r], rows) for p, r in zip(p_row, n_rows)])
    col_edges = np.array([_marginal_z_edges(p, p.size) for p in p_col])
    indep = p_row[:, :, None] * p_col[:, None, :]  # zero on the padding rows
    real = indep > 0
    # a table's cells are the first (its rows) x c values of its flattened grid
    sizes = [(np.flatnonzero(n_rows == r), r * p_col.shape[1]) for r in np.unique(n_rows)]

    def curve(rho: np.ndarray) -> np.ndarray:
        """Chi-square of each binned bivariate normal against independence."""
        q = bvn_cell_probs(rho, row_edges, col_edges)
        terms = np.divide((q - indep) ** 2, indep, out=np.zeros_like(q), where=real)
        flat = terms.reshape(len(tables), -1)
        chi = np.empty(len(tables))
        for k, size in sizes:
            chi[k] = flat[k, :size].sum(axis=1)
        return n * chi

    hi = np.full(len(tables), 1.0 - _RHO_TOL)
    saturated = observed >= curve(hi)  # saturated dependence clamps to 1.0
    lo = np.zeros(len(tables))
    while np.any(wide := hi - lo > _RHO_TOL):
        mid = 0.5 * (lo + hi)
        below = curve(mid) < observed
        lo = np.where(wide & below, mid, lo)
        hi = np.where(wide & ~below, mid, hi)
    return np.where(saturated, 1.0, 0.5 * (lo + hi))


def phik(x, y, n_bins: int = PHIK_BINS) -> float:
    """Nonlinear correlation in [0, 1] via chi-square -> bivariate-normal rho.

    Bins both series, computes the observed chi-square, and bisects for the
    rho whose binned bivariate normal produces the same chi-square against
    independence.  Saturated dependence clamps to 1.0.  This is
    :func:`phik_matrix`'s computation for one pair.
    """
    return float(_phik_tables([contingency(x, y, n_bins)])[0])


def phik_matrix(a: np.ndarray, b: np.ndarray, n_bins: int = PHIK_BINS) -> np.ndarray:
    """Pairwise phik between columns of ``a`` and ``b``: each column is
    binned once, and every pair's bisection advances together (see
    :func:`_phik_tables`).

    Degenerate pairs (constant or unbinnable columns) are reported as NaN.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError("inputs must be 2-D with equal row counts")
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    if a.shape[0] < 2:
        raise ValueError("need at least two observations")

    def bin_ids(m: np.ndarray) -> list:
        ids = []
        for v in m.T:
            try:
                ids.append(_bin_series(v, n_bins))
            except DegenerateBinningError:
                ids.append(None)
        return ids

    out = np.full((a.shape[1], b.shape[1]), np.nan)
    cells, tables = [], []
    a_ids, b_ids = bin_ids(a), bin_ids(b)
    for i, ix in enumerate(a_ids):
        for j, iy in enumerate(b_ids):
            if ix is None or iy is None:
                continue
            try:
                tables.append(_cross_tab(ix, iy, n_bins))
            except DegenerateBinningError:
                continue
            cells.append((i, j))
    if tables:
        out[tuple(np.transpose(cells))] = _phik_tables(tables)
    return out


def lowess(x, y, frac: float = 0.3, iters: int = 2) -> np.ndarray:
    """Robust locally weighted linear regression (tricube kernel).

    Returns the fitted value at each input x.  ``iters`` bisquare
    reweightings follow the initial fit, downweighting outliers.  A point's
    bandwidth is its distance to its r-th nearest of all n points, ties
    counted, r = ceil(frac * n).  Points with equal x share one local fit
    (Cleveland 1979), so fits are made once per distinct x value, with
    weights on the (m, m) grid of the m distinct values.  Each local line is
    solved from moments about its own fit point, so a window of near-tied x
    far from the origin keeps its digits; it falls back to the weighted mean
    when det = s0 * s2 - s1**2 is at most 1e-12 of s0 * s2 (where the weights
    sit on one x value), both moments about the fit point, so where x sits
    does not change which fits fall back.  The reweighting stops early once
    the median absolute residual is at most 1e-12 of the mean |y|: the fits
    then interpolate the data (as every local fit does when r = 2 and x is
    distinct), and the residuals are rounding noise.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("inputs must be equal-length 1-D series")
    n = x.size
    if n < 5:
        raise ValueError("need at least 5 points")
    if not 0.0 < frac <= 1.0:
        raise ValueError("frac must lie in (0, 1]")
    r = min(n - 1, max(2, int(math.ceil(frac * n))))
    ux, inv = np.unique(x, return_inverse=True)
    h = np.partition(np.abs(ux[:, None] - x[None, :]), r, axis=1)[:, r]
    dx = ux[None, :] - ux[:, None]  # dx[i, k]: offset of ux[k] from the fit point ux[i]
    w = np.clip(np.abs(dx) / np.maximum(h, 1e-12)[:, None], 0.0, 1.0)
    w = 1.0 - w * w * w
    w = w * w * w  # w[i, k]: weight of each point at ux[k] in the fit at ux[i]
    w_dx = w * dx
    w_dx2 = w_dx * dx

    delta = np.ones(n)
    yest = np.zeros(n)
    for it in range(iters + 1):
        # per distinct value, the robustness weights' sum and their y-weighted sum
        d0 = np.bincount(inv, weights=delta, minlength=ux.size)
        d1 = np.bincount(inv, weights=delta * y, minlength=ux.size)
        d01 = np.column_stack((d0, d1))
        (s0, t0), (s1, t1) = (w @ d01).T, (w_dx @ d01).T
        s2 = w_dx2 @ d0
        det = s0 * s2 - s1 * s1
        ok = det > 1e-12 * np.maximum(s0 * s2, 1e-300)
        slope = np.where(ok, (s0 * t1 - s1 * t0) / np.where(ok, det, 1.0), 0.0)
        fit = (t0 - slope * s1) / np.where(s0 > 0, s0, 1.0)  # falls back to weighted mean
        yest = fit[inv]
        if it == iters:
            break
        resid = y - yest
        scale = np.median(np.abs(resid))
        if scale <= 1e-12 * np.mean(np.abs(y)):
            break
        u = np.clip(resid / (6.0 * scale), -1.0, 1.0)
        delta = (1.0 - u * u) ** 2
    return yest


def boxplot_summary(values) -> BoxplotSummary:
    """Quartiles (linear interpolation) plus 1.5 x IQR whiskers."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("need at least one value")
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = v[(v >= lo_fence) & (v <= hi_fence)]
    return BoxplotSummary(
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        lower_whisker=float(inside.min()),
        upper_whisker=float(inside.max()),
        outlier_count=int(v.size - inside.size),
    )
