import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, owens_t

from latent_lens.stats import (
    BoxplotSummary,
    ConstantInputError,
    DegenerateBinningError,
    PhikConfig,
    boxplot_summary,
    bvn_cell_probs,
    chi2,
    contingency,
    histogram,
    lowess,
    pearson,
    phik,
    phik_matrix,
)


# ---------------------------------------------------------------- pearson

def test_pearson_linear():
    x = np.arange(10.0)
    assert pearson(x, 2 * x + 1) == pytest.approx(1.0)
    assert pearson(x, -x) == pytest.approx(-1.0)


def test_pearson_constant_errors():
    with pytest.raises(ConstantInputError):
        pearson(np.ones(5), np.arange(5.0))


def test_pearson_independent_near_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10_000)
    y = rng.standard_normal(10_000)
    assert abs(pearson(x, y)) < 0.05


# ---------------------------------------------------------------- contingency

def test_contingency_diagonal():
    x = np.arange(10.0)
    t = contingency(x, x, PhikConfig(n_bins=10))
    assert t.counts.shape == (10, 10)
    assert np.array_equal(t.counts, np.eye(10, dtype=int))
    assert t.n == 10


def test_contingency_total_preserved():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(500)
    y = rng.standard_normal(500)
    t = contingency(x, y)
    assert t.counts.sum() == 500


def test_contingency_equal_frequency_balanced():
    rng = np.random.default_rng(2)
    x = rng.exponential(size=1000)  # heavily skewed
    y = rng.standard_normal(1000)
    cfg = PhikConfig(n_bins=8, binning="equal-frequency")
    t = contingency(x, y, cfg)
    rows = t.counts.sum(axis=1)
    assert rows.max() - rows.min() <= 1


def test_contingency_constant_errors():
    with pytest.raises(DegenerateBinningError):
        contingency(np.ones(10), np.arange(10.0))


# ---------------------------------------------------------------- chi2

def test_chi2_independent_uniform_zero():
    t = contingency(
        np.array([0.0, 0.0, 1.0, 1.0]),
        np.array([0.0, 1.0, 0.0, 1.0]),
        PhikConfig(n_bins=2),
    )
    assert chi2(t) == pytest.approx(0.0)


def test_chi2_diagonal_hand_value():
    t = contingency(
        np.repeat([0.0, 1.0], 5),
        np.repeat([0.0, 1.0], 5),
        PhikConfig(n_bins=2),
    )
    assert np.array_equal(t.counts, [[5, 0], [0, 5]])
    assert chi2(t) == pytest.approx(10.0)


def test_chi2_permutation_invariant():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 4, 200).astype(float)
    y = rng.integers(0, 4, 200).astype(float)
    t = contingency(x, y, PhikConfig(n_bins=4))
    base = chi2(t)
    perm_counts = t.counts[np.random.default_rng(0).permutation(t.counts.shape[0])]
    from latent_lens.stats import ContingencyTable

    perm = ContingencyTable(perm_counts, t.row_bins, t.col_bins)
    assert chi2(perm) == pytest.approx(base)


# ---------------------------------------------------------------- bvn

def test_bvn_rho_zero_separable():
    edges = np.array([-np.inf, -0.5, 0.3, np.inf])
    probs = bvn_cell_probs(0.0, edges, edges)
    from scipy.special import ndtr

    masses = np.diff(ndtr(np.array([-np.inf, -0.5, 0.3, np.inf])))
    assert np.allclose(probs, np.outer(masses, masses), atol=1e-8)
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)


def test_bvn_extreme_rho_concentrates_diagonal():
    edges = np.array([-np.inf, 0.0, np.inf])
    probs = bvn_cell_probs(0.999, edges, edges)
    assert probs[0, 1] + probs[1, 0] < 0.02
    assert probs.sum() == pytest.approx(1.0, abs=1e-6)


def test_bvn_orthant_formula():
    # P(X>0, Y>0) = 1/4 + asin(rho) / (2 pi)
    edges = np.array([-np.inf, 0.0, np.inf])
    for rho in (0.5, -0.3, 0.8):
        probs = bvn_cell_probs(rho, edges, edges)
        expected = 0.25 + math.asin(rho) / (2 * math.pi)
        assert probs[1, 1] == pytest.approx(expected, abs=1e-5)
        assert probs[0, 0] == pytest.approx(expected, abs=1e-5)


def test_bvn_rejects_bad_rho():
    edges = np.array([-np.inf, 0.0, np.inf])
    with pytest.raises(ValueError):
        bvn_cell_probs(1.0, edges, edges)
    with pytest.raises(ValueError):
        bvn_cell_probs(-1.2, edges, edges)


def test_bvn_chi2_monotone_in_rho():
    from latent_lens.stats import _bvn_chi2

    edges = np.array([-np.inf, -0.8, 0.0, 0.9, np.inf])
    from scipy.special import ndtr

    p = np.diff(ndtr(edges))
    values = [
        _bvn_chi2(r, 1000.0, p, p, edges, edges)
        for r in np.linspace(0.0, 0.95, 12)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def _owens_t_cdf(h: float, k: float, rho: float) -> float:
    """Exact P(X < h, Y < k) for a standard bivariate normal, via Owen's T."""
    if h == -np.inf or k == -np.inf:
        return 0.0
    if h == np.inf:
        return float(ndtr(k))
    if k == np.inf:
        return float(ndtr(h))
    s = math.sqrt(1.0 - rho * rho)
    beta = 0.0 if h * k > 0 or (h * k == 0 and h + k >= 0) else 0.5
    return float(
        0.5 * ndtr(h) + 0.5 * ndtr(k)
        - owens_t(h, (k - rho * h) / (h * s))
        - owens_t(k, (h - rho * k) / (k * s))
        - beta
    )


def _owens_t_cells(rho: float, row_edges, col_edges) -> np.ndarray:
    cdf = np.array([[_owens_t_cdf(h, k, rho) for k in col_edges] for h in row_edges])
    return cdf[1:, 1:] - cdf[:-1, 1:] - cdf[1:, :-1] + cdf[:-1, :-1]


@pytest.mark.parametrize("rho", [-0.9999, -0.99, 0.0, 0.5, 0.9, 0.99, 0.9999])
def test_bvn_matches_owens_t_reference(rho):
    rng = np.random.default_rng(int(1e4 * (rho + 1)))
    for _ in range(20):
        k_rows, k_cols = rng.integers(1, 10, size=2)
        inner_rows = np.sort(rng.normal(0.0, 2.0, k_rows))
        inner_cols = np.sort(rng.normal(0.0, 2.0, k_cols))
        row_edges = np.concatenate(([-np.inf], inner_rows, [np.inf]))
        col_edges = np.concatenate(([-np.inf], inner_cols, [np.inf]))
        probs = bvn_cell_probs(rho, row_edges, col_edges)
        ref = _owens_t_cells(rho, row_edges, col_edges)
        assert np.max(np.abs(probs - ref)) < 1e-6


_inner_edges = st.lists(
    st.floats(-8.0, 8.0, allow_nan=False), min_size=1, max_size=9, unique=True
).map(lambda v: np.concatenate(([-np.inf], np.sort(v), [np.inf])))


@settings(max_examples=300, deadline=None)
@given(
    rho=st.floats(-0.9999, 0.9999, allow_nan=False),
    row_edges=_inner_edges,
    col_edges=_inner_edges,
)
def test_bvn_cells_nonnegative_with_normal_margins(rho, row_edges, col_edges):
    probs = bvn_cell_probs(rho, row_edges, col_edges)
    assert probs.min() >= -1e-12
    assert np.max(np.abs(probs.sum(axis=1) - np.diff(ndtr(row_edges)))) <= 1e-12
    assert np.max(np.abs(probs.sum(axis=0) - np.diff(ndtr(col_edges)))) <= 1e-12


def test_import_leaves_scipy_optimize_unloaded():
    import latent_lens

    src = os.path.dirname(os.path.dirname(latent_lens.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, latent_lens; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------- phik

def test_phik_identity_saturates():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(10_000)
    assert phik(x, x) == 1.0


def test_phik_independent_small():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=10_000)
    y = rng.uniform(size=10_000)
    assert phik(x, y) < 0.1


def test_phik_recovers_bvn_rho():
    rng = np.random.default_rng(6)
    n = 20_000
    x = rng.standard_normal(n)
    y = 0.8 * x + math.sqrt(1 - 0.64) * rng.standard_normal(n)
    assert phik(x, y) == pytest.approx(0.8, abs=0.05)


def test_phik_symmetric():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(2000)
    y = x**2 + 0.3 * rng.standard_normal(2000)
    assert phik(x, y) == pytest.approx(phik(y, x), abs=1e-9)


def test_phik_detects_nonlinear_dependence():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, 4000)
    y = x**2 + 0.05 * rng.standard_normal(4000)
    assert abs(pearson(x, y)) < 0.1  # invisible to Pearson
    assert phik(x, y) > 0.6


def test_phik_monotone_invariance_equal_frequency():
    rng = np.random.default_rng(9)
    x = rng.uniform(1.0, 5.0, 3000)
    y = x + rng.standard_normal(3000)
    cfg = PhikConfig(n_bins=6, binning="equal-frequency")
    a = phik(x, y, cfg)
    b = phik(np.log(x), y, cfg)  # strictly monotone transform
    assert a == pytest.approx(b, abs=1e-12)


def test_phik_matrix_shapes_and_missing():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((500, 3))
    a[:, 2] = 1.0  # constant column -> missing
    b = np.column_stack([a[:, 0], rng.standard_normal(500)])
    m = phik_matrix(a, b, PhikConfig(n_bins=5))
    assert m.shape == (3, 2)
    assert m[0, 0] == 1.0
    assert np.isnan(m[2]).all()
    # column permutation of b permutes result columns
    m2 = phik_matrix(a, b[:, ::-1], PhikConfig(n_bins=5))
    assert np.allclose(m[:, ::-1], m2, equal_nan=True)


# ---------------------------------------------------------------- lowess

def test_lowess_exact_on_linear():
    x = np.linspace(0, 1, 50)
    y = 3.0 * x - 2.0
    fit = lowess(x, y)
    assert np.max(np.abs(fit - y)) < 1e-9


def test_lowess_parabola_close():
    x = np.linspace(-1, 1, 200)
    y = x**2
    fit = lowess(x, y, frac=0.3)
    assert np.max(np.abs(fit - y)) < 0.05


def test_lowess_robust_to_outlier():
    rng = np.random.default_rng(11)
    x = np.linspace(0, 1, 80)
    y = 2.0 * x.copy()
    k = 40
    y_out = y.copy()
    y_out[k] += 10.0  # large outlier
    fit = lowess(x, y_out, frac=0.4, iters=2)
    assert abs(fit[k] - y[k]) < 10.0 / 2


def test_lowess_validation():
    with pytest.raises(ValueError):
        lowess(np.arange(3.0), np.arange(3.0))
    with pytest.raises(ValueError):
        lowess(np.arange(10.0), np.arange(10.0), frac=0.0)


# ---------------------------------------------------------------- summaries

def test_boxplot_five_numbers():
    s = boxplot_summary([1, 2, 3, 4, 5])
    assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)
    assert (s.lower_whisker, s.upper_whisker) == (1.0, 5.0)
    assert s.outlier_count == 0


def test_boxplot_outliers():
    s = boxplot_summary([1, 2, 3, 4, 5, 100])
    assert s.outlier_count == 1
    assert s.upper_whisker == 5.0


def test_boxplot_constant():
    s = boxplot_summary([2.0, 2.0, 2.0])
    assert s.q1 == s.median == s.q3 == 2.0


def test_histogram_unit_counts():
    counts, edges = histogram(np.arange(10.0), 10)
    assert np.array_equal(counts, np.ones(10, dtype=int))
    assert counts.sum() == 10
    assert edges[0] == 0.0 and edges[-1] == 9.0


def test_histogram_sums_to_n():
    rng = np.random.default_rng(12)
    v = rng.standard_normal(1000)
    counts, _ = histogram(v, 17)
    assert counts.sum() == 1000
