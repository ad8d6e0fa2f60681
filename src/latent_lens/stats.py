"""Correlation and smoothing machinery.

Provides Pearson correlation, binned contingency tables with Pearson
chi-square, a nonlinear correlation coefficient in [0, 1] obtained by
inverting the observed chi-square through a binned bivariate normal
(the ``phik`` approach), robust LOWESS smoothing, and boxplot/histogram
summaries used by the reporting layer.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

_Z_CLIP = 8.5  # standard-normal mass beyond this is ~1e-17, below rounding
_LOG_HALF_PI = math.log(0.5 * math.pi)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(40)  # on [-1, 1]
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_X + 1.0), 0.5 * _GL_W  # on [0, 1]


class ConstantInputError(ValueError):
    """Correlation is undefined because an input series has zero variance."""


class DegenerateBinningError(ValueError):
    """The inputs cannot be binned into at least a 2 x 2 table."""


@dataclass(frozen=True)
class PhikConfig:
    n_bins: int = 10
    binning: str = "equal-width"  # or "equal-frequency"
    rho_tol: float = 1e-4

    def __post_init__(self) -> None:
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        if self.binning not in ("equal-width", "equal-frequency"):
            raise ValueError(f"unknown binning mode {self.binning!r}")
        if not self.rho_tol > 0:
            raise ValueError("rho_tol must be positive")


@dataclass(frozen=True)
class ContingencyTable:
    counts: np.ndarray  # (r, c) non-negative integers
    row_bins: tuple[tuple[float, float], ...]
    col_bins: tuple[tuple[float, float], ...]

    @property
    def n(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class BoxplotSummary:
    q1: float
    median: float
    q3: float
    lower_whisker: float
    upper_whisker: float
    outlier_count: int


def pearson(x, y) -> float:
    """Sample Pearson correlation; raises on constant input."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("inputs must be equal-length 1-D series")
    if x.size < 2:
        raise ValueError("need at least two observations")
    xc = x - x.mean()
    yc = y - y.mean()
    vx = float(xc @ xc)
    vy = float(yc @ yc)
    if vx == 0.0 or vy == 0.0:
        raise ConstantInputError("correlation undefined for constant series")
    r = float(xc @ yc) / math.sqrt(vx * vy)
    return min(1.0, max(-1.0, r))


def _bin_series(v: np.ndarray, cfg: PhikConfig) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """Assign each sample to a bin id; returns (ids, per-bin (lo, hi) bounds)."""
    n = v.size
    if cfg.binning == "equal-width":
        lo, hi = float(v.min()), float(v.max())
        if lo == hi:
            raise DegenerateBinningError("constant series cannot be binned")
        edges = np.linspace(lo, hi, cfg.n_bins + 1)
        ids = np.searchsorted(edges[1:-1], v, side="right")
        bounds = [(float(edges[i]), float(edges[i + 1])) for i in range(cfg.n_bins)]
        return ids, bounds
    order = np.argsort(v, kind="stable")
    ids = np.empty(n, dtype=np.intp)
    ids[order] = np.arange(n) * cfg.n_bins // n
    sv = v[order]
    bounds = []
    for b in range(cfg.n_bins):
        lo_i = b * n // cfg.n_bins
        hi_i = max(lo_i, (b + 1) * n // cfg.n_bins - 1)
        bounds.append((float(sv[lo_i]), float(sv[hi_i])))
    return ids, bounds


def contingency(x, y, cfg: PhikConfig | None = None) -> ContingencyTable:
    """Cross-tabulate two series; empty marginal bins are dropped."""
    cfg = cfg or PhikConfig()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("inputs must be equal-length 1-D series")
    if x.size < 2:
        raise ValueError("need at least two observations")
    ix, xbounds = _bin_series(x, cfg)
    iy, ybounds = _bin_series(y, cfg)
    counts = np.zeros((cfg.n_bins, cfg.n_bins), dtype=np.int64)
    np.add.at(counts, (ix, iy), 1)
    keep_r = counts.sum(axis=1) > 0
    keep_c = counts.sum(axis=0) > 0
    counts = counts[keep_r][:, keep_c]
    if counts.shape[0] < 2 or counts.shape[1] < 2:
        raise DegenerateBinningError("fewer than 2 occupied bins on a margin")
    row_bins = tuple(b for b, k in zip(xbounds, keep_r) if k)
    col_bins = tuple(b for b, k in zip(ybounds, keep_c) if k)
    return ContingencyTable(counts, row_bins, col_bins)


def chi2(table: ContingencyTable) -> float:
    """Pearson chi-square statistic of a contingency table."""
    counts = np.asarray(table.counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("table has no observations")
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / total
    mask = expected > 0
    return float((((counts - expected) ** 2)[mask] / expected[mask]).sum())


def bvn_cell_probs(rho: float, row_edges, col_edges) -> np.ndarray:
    """Cell probabilities of a standard bivariate normal over a z-space grid.

    ``row_edges`` / ``col_edges`` are strictly increasing arrays of standard
    normal quantiles (+-inf allowed at the ends; edges are clipped to
    +-``_Z_CLIP``).  Returns an (r, c) matrix whose entries integrate the
    density with correlation ``rho`` over each rectangle, as four-corner
    differences of the CDF on the grid of edges.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"correlation must lie in (-1, 1), got {rho}")
    row_edges = np.asarray(row_edges, dtype=float)
    col_edges = np.asarray(col_edges, dtype=float)
    if row_edges.ndim != 1 or col_edges.ndim != 1:
        raise ValueError("edges must be 1-D")
    if np.any(np.diff(row_edges) <= 0) or np.any(np.diff(col_edges) <= 0):
        raise ValueError("edges must be strictly increasing")
    a = np.clip(row_edges, -_Z_CLIP, _Z_CLIP)
    b = np.clip(col_edges, -_Z_CLIP, _Z_CLIP)
    # t = sign(rho) * (pi/2 - u) with u = exp(v), v from log(acos|rho|) to
    # log(pi/2); the Jacobian |dt/dv| is u
    v_lo = math.log(math.acos(abs(rho)))
    width = _LOG_HALF_PI - v_lo
    u = np.exp(v_lo + width * _GL_NODES)
    sign = math.copysign(1.0, rho)
    x, y = a[:, None, None], b[None, :, None]  # broadcast to (corner, corner, node)
    expo = (x * x + y * y - 2.0 * sign * x * y * np.cos(u)) / (2.0 * np.sin(u) ** 2)
    integral = sign * width * (np.exp(-expo) @ (u * _GL_WEIGHTS))
    cdf = np.outer(ndtr(a), ndtr(b)) + integral / (2.0 * math.pi)
    return cdf[1:, 1:] - cdf[:-1, 1:] - cdf[1:, :-1] + cdf[:-1, :-1]


def _marginal_z_edges(probs: np.ndarray) -> np.ndarray:
    cum = np.concatenate(([0.0], np.cumsum(probs)))
    cum = np.clip(cum, 0.0, 1.0)
    edges = np.empty(cum.size)
    edges[0] = -np.inf
    edges[-1] = np.inf
    edges[1:-1] = ndtri(cum[1:-1])
    return edges


def _bvn_chi2(rho: float, n: float, p_row: np.ndarray, p_col: np.ndarray,
              row_edges: np.ndarray, col_edges: np.ndarray) -> float:
    """Chi-square of the binned bivariate normal against independence."""
    q = bvn_cell_probs(rho, row_edges, col_edges)
    indep = np.outer(p_row, p_col)
    return float(n * (((q - indep) ** 2) / indep).sum())


def phik(x, y, cfg: PhikConfig | None = None) -> float:
    """Nonlinear correlation in [0, 1] via chi-square -> bivariate-normal rho.

    Bins both series, computes the observed chi-square, and bisects for the
    rho whose binned bivariate normal produces the same chi-square against
    independence.  Saturated dependence clamps to 1.0.
    """
    cfg = cfg or PhikConfig()
    table = contingency(x, y, cfg)
    observed = chi2(table)
    if observed <= 0.0:
        return 0.0
    counts = np.asarray(table.counts, dtype=float)
    n = counts.sum()
    p_row = counts.sum(axis=1) / n
    p_col = counts.sum(axis=0) / n
    row_edges = _marginal_z_edges(p_row)
    col_edges = _marginal_z_edges(p_col)

    def curve(rho: float) -> float:
        return _bvn_chi2(rho, n, p_row, p_col, row_edges, col_edges)

    hi = 1.0 - cfg.rho_tol
    if observed >= curve(hi):
        return 1.0
    lo = 0.0
    while hi - lo > cfg.rho_tol:
        mid = 0.5 * (lo + hi)
        if curve(mid) < observed:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def phik_matrix(a: np.ndarray, b: np.ndarray, cfg: PhikConfig | None = None) -> np.ndarray:
    """Pairwise phik between columns of ``a`` and ``b``.

    Degenerate pairs (constant or unbinnable columns) are reported as NaN.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError("inputs must be 2-D with equal row counts")
    out = np.full((a.shape[1], b.shape[1]), np.nan)
    for i in range(a.shape[1]):
        for j in range(b.shape[1]):
            try:
                out[i, j] = phik(a[:, i], b[:, j], cfg)
            except DegenerateBinningError:
                pass
    return out


def lowess(x, y, frac: float = 0.3, iters: int = 2) -> np.ndarray:
    """Robust locally weighted linear regression (tricube kernel).

    Returns the fitted value at each input x.  ``iters`` bisquare
    reweightings follow the initial fit, downweighting outliers.
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
    dist = np.abs(x[:, None] - x[None, :])
    h = np.maximum(np.sort(dist, axis=1)[:, r], 1e-12)
    w = np.clip(dist / h[:, None], 0.0, 1.0)
    w = (1.0 - w**3) ** 3  # w[i, j]: weight of data point j for fit point i

    xx = x * x
    delta = np.ones(n)
    yest = np.zeros(n)
    for it in range(iters + 1):
        wd = w * delta[None, :]
        s0 = wd.sum(axis=1)
        s1 = wd @ x
        s2 = wd @ xx
        t0 = wd @ y
        t1 = wd @ (x * y)
        det = s0 * s2 - s1 * s1
        ok = det > 1e-12 * np.maximum(s0 * s2, 1e-300)
        slope = np.where(ok, (s0 * t1 - s1 * t0) / np.where(ok, det, 1.0), 0.0)
        s0_safe = np.where(s0 > 0, s0, 1.0)
        intercept = (t0 - slope * s1) / s0_safe  # falls back to weighted mean
        yest = intercept + slope * x
        if it == iters:
            break
        resid = y - yest
        scale = np.median(np.abs(resid))
        if scale <= 0:
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


def histogram(values, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts over [min, max] with right-open bins (last bin closed)."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("need at least one value")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    counts, edges = np.histogram(v, bins=n_bins)
    return counts, edges
