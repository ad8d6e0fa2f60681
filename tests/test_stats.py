import inspect
import math
import os
import pkgutil
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, owens_t

from latent_lens.stats import (
    BoxplotSummary,
    DegenerateBinningError,
    boxplot_summary,
    bvn_cell_probs,
    chi2,
    contingency,
    lowess,
    phik,
    phik_matrix,
)
from latent_lens import stats
from latent_lens.stats import _RHO_TOL, _Z_CLIP

from oracles import reference_bvn_cell_probs, reference_lowess, reference_phik


# ---------------------------------------------------------------- contingency

def test_contingency_diagonal():
    x = np.arange(10.0)
    t = contingency(x, x, 10)
    assert t.shape == (10, 10)
    assert np.array_equal(t, np.eye(10, dtype=int))


def test_contingency_total_preserved():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(500)
    y = rng.standard_normal(500)
    t = contingency(x, y)
    assert t.sum() == 500


def test_contingency_needs_two_bins():
    with pytest.raises(ValueError, match="n_bins must be >= 2"):
        contingency(np.arange(10.0), np.arange(10.0), 1)


def test_contingency_constant_errors():
    with pytest.raises(DegenerateBinningError):
        contingency(np.ones(10), np.arange(10.0))


# ---------------------------------------------------------------- chi2

def test_chi2_independent_uniform_zero():
    t = contingency(
        np.array([0.0, 0.0, 1.0, 1.0]),
        np.array([0.0, 1.0, 0.0, 1.0]),
        2,
    )
    assert chi2(t) == pytest.approx(0.0)


def test_chi2_diagonal_hand_value():
    t = contingency(
        np.repeat([0.0, 1.0], 5),
        np.repeat([0.0, 1.0], 5),
        2,
    )
    assert np.array_equal(t, [[5, 0], [0, 5]])
    assert chi2(t) == pytest.approx(10.0)


def test_chi2_permutation_invariant():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 4, 200).astype(float)
    y = rng.integers(0, 4, 200).astype(float)
    t = contingency(x, y, 4)
    base = chi2(t)
    perm_counts = t[np.random.default_rng(0).permutation(t.shape[0])]
    assert chi2(perm_counts) == pytest.approx(base)


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
    edges = np.array([-np.inf, -0.8, 0.0, 0.9, np.inf])
    p = np.diff(ndtr(edges))
    indep = np.outer(p, p)
    rhos = np.linspace(0.0, 0.95, 12)
    grid = np.tile(edges, (rhos.size, 1))
    q = bvn_cell_probs(rhos, grid, grid)
    values = 1000.0 * (((q - indep) ** 2) / indep).sum(axis=(1, 2))
    assert all(b > a for a, b in zip(values, values[1:]))


def test_bvn_cells_match_one_grid_reference_bit_for_bit():
    # scalar and batched, and in a batch also when a grid's row edges are
    # padded with zero-width bins past the clip to the batch's most rows
    rng = np.random.default_rng(13)
    for _ in range(40):
        k_cols = rng.integers(0, 10)
        cols = np.concatenate(([-np.inf], np.sort(rng.normal(0.0, 2.0, k_cols)), [np.inf]))
        rhos, padded, want = rng.uniform(-0.9999, 0.9999, 5), [], []
        for rho in rhos:
            inner = np.sort(rng.normal(0.0, 2.0, rng.integers(0, 10)))
            rows = np.concatenate(([-np.inf], inner, [np.inf]))
            want.append(reference_bvn_cell_probs(rho, rows, cols))
            assert np.array_equal(bvn_cell_probs(rho, rows, cols), want[-1])
            padded.append(np.concatenate((rows[:-1], _Z_CLIP + 1.0 + np.arange(10 - inner.size))))
        batched = bvn_cell_probs(rhos, np.array(padded), np.tile(cols, (5, 1)))
        assert batched.shape == (5, 10, k_cols + 1)
        for cells, expected in zip(batched, want):
            assert np.array_equal(cells[:expected.shape[0]], expected)
            assert np.all(cells[expected.shape[0]:] == 0.0)


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


def _loaded_after_import(module: str, *probes: str) -> list[str]:
    """Those of ``probes`` in ``sys.modules`` after a fresh interpreter
    imports ``module`` from this source tree."""
    import latent_lens

    src = os.path.dirname(os.path.dirname(latent_lens.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    code = f"import sys, {module}; print(*(m for m in {probes!r} if m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.split()


def test_import_leaves_scipy_optimize_unloaded():
    assert _loaded_after_import("latent_lens", "scipy.optimize") == []


def test_cli_import_leaves_scipy_special_unloaded():
    assert _loaded_after_import("latent_lens.cli", "scipy.special", "scipy.optimize") == []


def _package_modules() -> list[str]:
    import latent_lens

    return sorted(f"latent_lens.{m.name}" for m in pkgutil.iter_modules(latent_lens.__path__))


def test_package_import_loads_no_module():
    """The package namespace holds only ``__version__``: callers import modules."""
    assert _loaded_after_import("latent_lens", *_package_modules()) == []


def test_midi_import_loads_melody_and_midi_only():
    loaded = _loaded_after_import("latent_lens.midi", *_package_modules())
    assert loaded == ["latent_lens.melody", "latent_lens.midi"]


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
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.1  # invisible to Pearson
    assert phik(x, y) > 0.6


def test_phik_matrix_shapes_and_missing():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((500, 3))
    a[:, 2] = 1.0  # constant column -> missing
    b = np.column_stack([a[:, 0], rng.standard_normal(500)])
    m = phik_matrix(a, b, 5)
    assert m.shape == (3, 2)
    assert m[0, 0] == 1.0
    assert np.isnan(m[2]).all()
    # column permutation of b permutes result columns
    m2 = phik_matrix(a, b[:, ::-1], 5)
    assert np.allclose(m[:, ::-1], m2, equal_nan=True)


# ------------------------------------------- lockstep bisection vs per-pair oracle

BISECTION_STEPS = math.ceil(math.log2((1.0 - _RHO_TOL) / _RHO_TOL))


def _reference_matrix(a, b, n_bins):
    out = np.full((a.shape[1], b.shape[1]), np.nan)
    for i in range(a.shape[1]):
        for j in range(b.shape[1]):
            try:
                out[i, j] = reference_phik(a[:, i], b[:, j], n_bins)
            except DegenerateBinningError:
                pass
    return out


def _assert_matches_reference(a, b, n_bins):
    got = phik_matrix(a, b, n_bins)
    want = _reference_matrix(a, b, n_bins)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.nanmax(np.abs(got - want), initial=0.0) <= _RHO_TOL
    assert np.array_equal(got, want, equal_nan=True)
    return got


@st.composite
def _phik_case(draw):
    """Columns of every kind phik meets: continuous, skewed (empty middle
    bins), few-valued (ragged tables), constant (NaN), a copy of another
    column (1.0), a pair with a zero chi-square (0.0), and a monotone map of
    another column, whose staircase table puts the observed chi-square at
    the curve's limit as rho -> 1, where the curve is flat to rounding and
    its last bits steer the bisection."""
    n = 4 * draw(st.integers(5, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ("normal", "skewed", "few", "constant", "alternating")
    a_kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5))
    b_kinds = draw(st.lists(st.sampled_from(kinds + ("copy", "halves", "monotone", "dependent")),
                            min_size=1, max_size=4))

    def column(kind, a=None):
        if kind == "normal":
            return rng.standard_normal(n)
        if kind == "skewed":
            return rng.exponential(size=n) ** 3
        if kind == "few":
            return rng.integers(0, rng.integers(2, 5), n).astype(float)
        if kind == "constant":
            return np.full(n, 3.0)
        if kind == "alternating":
            return np.tile([0.0, 1.0], n // 2)
        if kind == "halves":  # against "alternating": equal counts in all 4 cells
            return np.repeat([0.0, 1.0], n // 2)
        source = a[:, rng.integers(a.shape[1])]
        if kind == "copy":
            return source.copy()
        if kind == "monotone":
            return np.arcsinh(5.0 * source)
        return source ** 2 + 0.3 * rng.standard_normal(n)  # "dependent"

    a = np.column_stack([column(k) for k in a_kinds])
    b = np.column_stack([column(k, a) for k in b_kinds])
    n_bins = draw(st.sampled_from((2, 4, 10)))
    # a budget of one table's grid or a few: the pairs cross block boundaries
    grid_bytes = draw(st.sampled_from((1, 20_000, stats._GRID_BYTES)))
    return a, b, n_bins, grid_bytes


@settings(max_examples=150, deadline=None)
@given(_phik_case())
def test_phik_matrix_matches_per_pair_reference(case):
    a, b, n_bins, grid_bytes = case
    with mock.patch.object(stats, "_GRID_BYTES", grid_bytes):
        got = _assert_matches_reference(a, b, n_bins)
    # phik is the one-pair case of the same computation
    for i, j in zip(*np.nonzero(np.isfinite(got))):
        assert phik(a[:, i], b[:, j], n_bins) == got[i, j]


def test_phik_matrix_edge_cells_and_default_blocks():
    rng = np.random.default_rng(11)
    n = 400
    a = np.column_stack([rng.standard_normal((n, 10)), np.tile([0.0, 1.0], n // 2),
                         np.full(n, 2.0)])
    b = np.column_stack([a[:, 0], np.repeat([0.0, 1.0], n // 2),
                         rng.uniform(size=(n, 8))])
    # 120 tables of 10 columns at 10 bins: more than one default block
    per_block = stats._GRID_BYTES // (8 * 11 * 11 * 40)
    assert a.shape[1] * b.shape[1] > per_block
    got = _assert_matches_reference(a, b, 10)
    assert got[0, 0] == 1.0  # identical columns
    assert got[10, 1] == 0.0  # zero chi-square
    assert np.isnan(got[11]).all()  # constant column


def test_phik_matrix_matches_reference_on_flat_curves():
    """Staircase tables with a skewed binary column: the observed chi-square
    sits at the curve's limit as rho -> 1, which the curve reaches to within
    rounding well before 1 - _RHO_TOL, so its last bits steer the bisection
    (most cells land in (0.9, 1)).  The tables have 2 to 5 rows and 2
    columns: one block, its grids padded to 5 rows."""
    rng = np.random.default_rng(3)
    n = 2000
    for _ in range(100):
        n_zero = rng.integers(20, 300)
        y = np.ones(n)
        y[:n_zero] = 0.0
        cols = []
        for rows in (2, 3, 4, 5):
            cuts = np.sort(rng.choice(np.arange(n_zero + 1, n), rows - 1, replace=False))
            cols.append(np.searchsorted(cuts, np.arange(n), side="right").astype(float))
        _assert_matches_reference(np.column_stack(cols), y[:, None], 10)


def test_phik_calls_its_traced_callees_directly():
    """The benchmark's tracer puts every span opened inside a ``phik`` call
    under it, and counts one ``bvn_cell_probs`` span per bisection step: phik
    calls ``contingency`` and ``bvn_cell_probs`` itself, with no other public
    function of ``stats`` in between, and the matrix makes one such call per
    step for all its pairs."""
    calls = []  # (function, innermost wrapped caller)
    stack = []

    def wrap(name, fn):
        def counted(*args, **kwargs):
            calls.append((name, stack[-1] if stack else None))
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return counted

    public = [name for name, fn in vars(stats).items()
              if inspect.isfunction(fn) and fn.__module__ == stats.__name__
              and not name.startswith("_")]
    assert {"phik", "phik_matrix", "contingency", "bvn_cell_probs"} <= set(public)
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    with mock.patch.multiple(stats, **{name: wrap(name, getattr(stats, name))
                                       for name in public}):
        stats.phik(x, x + rng.normal(size=200))
        assert calls[0] == ("phik", None)
        assert all(caller == "phik" for _, caller in calls[1:])
        assert [name for name, _ in calls].count("contingency") == 1
        assert [name for name, _ in calls].count("bvn_cell_probs") == 1 + BISECTION_STEPS

        calls.clear()
        stats.phik_matrix(rng.uniform(size=(300, 6)), rng.uniform(size=(300, 3)))
        assert calls.count(("bvn_cell_probs", "phik_matrix")) == 1 + BISECTION_STEPS


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


def test_lowess_tied_points_share_one_fit():
    rng = np.random.default_rng(12)
    x = rng.integers(0, 7, 400).astype(float)
    fit = lowess(x, rng.standard_normal(400) + x, frac=0.2)
    for v in np.unique(x):
        assert np.unique(fit[x == v]).size == 1


def test_lowess_stops_when_local_fits_interpolate():
    # frac * n = 2: each local fit passes through its two weighted points, so
    # every residual is rounding noise and the bisquare passes must not act
    rng = np.random.default_rng(14)
    x = rng.standard_normal(40)
    y = x + 5.0 * rng.standard_normal(40)
    fit = lowess(x, y, frac=0.05, iters=2)
    assert np.array_equal(fit, lowess(x, y, frac=0.05, iters=0))
    assert np.array_equal(lowess(x[::-1], y[::-1], frac=0.05, iters=2), fit[::-1])


def test_lowess_keeps_digits_far_from_origin():
    # x spread by 1e-3 around 50: moments about x = 0 cancel to ~1e-7 of the
    # fit; the same fit on x - 50 in extended precision is the reference
    rng = np.random.default_rng(5)
    x = 50.0 + 1e-3 * rng.standard_normal(80)
    y = x + rng.standard_normal(80)
    ref = reference_lowess(x - 50.0, y, 0.3, 2, dtype=np.longdouble)
    assert np.max(np.abs(lowess(x, y, frac=0.3) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_lowess_fits_do_not_depend_on_where_x_sits():
    # x spread by 1e-3 around 50, r = 2: x - 50 is exact, so the fits on x
    # and on x - 50 see the same offsets and must fall back alike
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = 50.0 + 1e-3 * rng.standard_normal(11)
        y = rng.standard_normal(11)
        assert np.array_equal(lowess(x, y, frac=0.016), lowess(x - 50.0, y, frac=0.016))


@st.composite
def _lowess_inputs(draw):
    n = draw(st.integers(5, 300))
    kind = draw(st.sampled_from(("ties", "distinct", "two-valued", "constant")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.floats(0.01, 10.0))
    if kind == "ties":
        x = rng.integers(0, draw(st.integers(1, 20)), n) * spread
    elif kind == "distinct":
        x = (rng.standard_normal(n) + draw(st.floats(-3.0, 3.0))) * spread
        assume(np.unique(x).size == n)
    elif kind == "two-valued":
        x = rng.choice(rng.uniform(-50.0, 50.0, 2), n)
    else:
        x = np.full(n, draw(st.floats(-50.0, 50.0)))
    y = draw(st.floats(-3.0, 3.0)) * x + draw(st.floats(0.01, 10.0)) * rng.standard_normal(n)
    frac = draw(st.floats(0.0, 1.0, exclude_min=True))
    return x, y, frac, draw(st.integers(0, 3))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="needs an extended-precision long double")
@settings(max_examples=200, deadline=None)
@given(_lowess_inputs())
def test_lowess_matches_dense_reference(case):
    x, y, frac, iters = case
    scales: list[float] = []
    ref = reference_lowess(x, y, frac, iters, scales=scales)
    size = np.max(np.abs(ref))
    # The reference solves uncentred normal equations in float64, so on some
    # inputs it is itself off in the 12th digit: near-tied points far from the
    # origin, and robustness passes whose residual median is rounding noise
    # because most local fits interpolate (r = 2).  Compare only where the
    # reference agrees with its own extended-precision run to 1e-13 of
    # max |fit| and every residual median is a real residual.
    ref_long = reference_lowess(x, y, frac, iters, dtype=np.longdouble)
    assume(np.max(np.abs(ref - ref_long)) <= 1e-13 * size)
    assume(min(scales, default=np.inf) >= 1e-6 * np.max(np.abs(y)))
    assert np.max(np.abs(lowess(x, y, frac, iters) - ref)) <= 1e-12 * size


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
