import numpy as np
import pytest

from latent_lens import vae
from latent_lens.analysis import (
    LatentMatrix,
    activation_counts,
    central_value_stats,
    compare_real_vs_random,
    encode_corpus,
    mu_pearson_matrix,
    neuron_feature_phik,
    neuron_feature_scatter,
    order_by_sigma,
    partition_neurons,
)
from latent_lens.melody import TokenSequence
from latent_lens.stats import PhikConfig

from test_vae import SMALL, random_seq, random_tokens


def synthetic_lm(n=50, d=6, seed=0, music=2):
    """A hand-built latent matrix: `music` informative dims, rest prior-like."""
    rng = np.random.default_rng(seed)
    mus = 0.02 * rng.standard_normal((n, d))
    sigmas = np.ones((n, d)) + 0.01 * rng.standard_normal((n, d))
    for k in range(music):
        mus[:, k] = rng.standard_normal(n) * (2.0 - k * 0.5)
        sigmas[:, k] = 0.2 + 0.05 * k
    return LatentMatrix(mus, np.abs(sigmas))


def test_order_by_sigma_simple():
    lm = LatentMatrix(
        np.zeros((11, 3)),
        np.tile(np.array([1.0, 0.2, 0.9]), (11, 1)),
    )
    assert order_by_sigma(lm) == (1, 2, 0)


def test_order_is_permutation_and_stable():
    rng = np.random.default_rng(1)
    lm = LatentMatrix(np.zeros((20, 8)), np.abs(rng.standard_normal((20, 8))) + 0.1)
    order = order_by_sigma(lm)
    assert sorted(order) == list(range(8))
    # duplicate medians keep index order
    lm2 = LatentMatrix(np.zeros((10, 4)), np.ones((10, 4)))
    assert order_by_sigma(lm2) == (0, 1, 2, 3)


def test_partition_music_first():
    lm = synthetic_lm(music=2)
    part = partition_neurons(lm, 0.9)
    assert set(part.music) == {0, 1}
    assert len(part.noise) == 4
    assert part.order[: len(part.music)] == part.music


def test_partition_empty_music_when_untrained():
    lm = LatentMatrix(np.zeros((12, 5)), np.ones((12, 5)))
    part = partition_neurons(lm, 0.9)
    assert part.music == ()
    assert len(part.noise) == 5


def test_partition_monotone_in_threshold():
    lm = synthetic_lm(music=3)
    small = partition_neurons(lm, 0.5)
    big = partition_neurons(lm, 1.05)
    assert set(small.music) <= set(big.music)


def test_partition_needs_enough_rows():
    lm = LatentMatrix(np.zeros((5, 3)), np.ones((5, 3)))
    with pytest.raises(ValueError):
        partition_neurons(lm)


def test_central_value_stats_shapes():
    lm = synthetic_lm()
    part = partition_neurons(lm)
    sigma_stats, mu_stats = central_value_stats(lm, part)
    assert len(sigma_stats) == lm.d and len(mu_stats) == lm.d
    # music dims come first and have wider mu spread than noise dims
    music_iqr = mu_stats[0].q3 - mu_stats[0].q1
    noise_iqrs = [s.q3 - s.q1 for s in mu_stats[len(part.music):]]
    assert music_iqr > max(noise_iqrs)


def test_central_value_stats_constant_column():
    mus = np.zeros((15, 3))
    lm = LatentMatrix(mus, np.ones((15, 3)))
    part = partition_neurons(lm)
    _, mu_stats = central_value_stats(lm, part)
    assert mu_stats[0].q1 == mu_stats[0].q3 == 0.0


def test_mu_pearson_matrix_properties():
    lm = synthetic_lm(n=200, d=5, music=3)
    m = mu_pearson_matrix(lm)
    assert m.shape == (5, 5)
    assert np.allclose(np.diag(m), 1.0)
    assert np.allclose(m, m.T, equal_nan=True)
    lm.mus[:, 2] = 7.0  # constant column -> missing entries
    m2 = mu_pearson_matrix(lm)
    order = order_by_sigma(lm)
    pos = order.index(2)
    assert np.isnan(m2[pos]).all()


def test_equivariance_under_dim_relabeling():
    lm = synthetic_lm(n=100, d=6, music=2)
    perm = np.array([3, 1, 5, 0, 2, 4])
    lm_p = LatentMatrix(lm.mus[:, perm], lm.sigmas[:, perm])
    part = partition_neurons(lm)
    part_p = partition_neurons(lm_p)
    # new dim j holds old dim perm[j]; the same underlying dims are selected
    assert {int(perm[j]) for j in part_p.music} == set(part.music)
    a = mu_pearson_matrix(lm)
    b = mu_pearson_matrix(lm_p)
    assert np.allclose(a, b, equal_nan=True)  # sigma order cancels the perm


def test_activation_counts_hand_case():
    mus = np.array([[0.05, -0.2, 0.11, 0.0]])
    lm = LatentMatrix(np.tile(mus, (10, 1)), np.ones((10, 4)))
    part = partition_neurons(lm, sigma_threshold=2.0)  # everything "music"
    report = activation_counts(lm, part, 0.1)
    assert report.music_counts[0] == 2
    assert report.noise_counts[0] == 0


def test_activation_threshold_zero_counts_nonzero():
    lm = synthetic_lm()
    part = partition_neurons(lm)
    report = activation_counts(lm, part, 0.0)
    nonzero = (np.abs(lm.mus[:, list(part.music)]) > 0).sum(axis=1)
    assert np.array_equal(report.music_counts, nonzero)


def test_activation_monotone_in_threshold():
    lm = synthetic_lm(n=80)
    part = partition_neurons(lm)
    a = activation_counts(lm, part, 0.05)
    b = activation_counts(lm, part, 0.2)
    assert np.all(a.music_counts >= b.music_counts)
    assert np.all(a.noise_counts >= b.noise_counts)
    assert np.all(a.music_counts <= len(part.music))
    assert np.all(a.noise_counts <= len(part.noise))


def test_encode_corpus_matches_encode_and_skips():
    p = vae.init_params(SMALL, 3)
    rng = np.random.default_rng(2)
    seqs = [random_seq(rng) for _ in range(12)]
    bad = TokenSequence(tuple(random_tokens(rng, 1, 256)[0]), 16)
    lm = encode_corpus(p, seqs + [bad])
    assert lm.n == 12
    assert lm.skipped == (12,)
    enc = vae.encode(p, seqs[4])
    assert np.allclose(lm.mus[4], enc.mu)
    assert np.allclose(lm.sigmas[4], enc.sigma)
    assert lm.ids[4] == 4


def test_neuron_feature_phik_shape_and_null():
    rng = np.random.default_rng(5)
    n, d = 400, 6
    feats = rng.standard_normal((n, 3))
    mus = 0.01 * rng.standard_normal((n, d))
    mus[:, 0] = feats[:, 1] ** 2  # one neuron tracks one feature nonlinearly
    sigmas = np.ones((n, d))
    sigmas[:, 0] = 0.2
    lm = LatentMatrix(mus, sigmas)
    m = neuron_feature_phik(lm, feats, PhikConfig(n_bins=5))
    assert m.shape == (3, d)
    assert np.nanargmax(m[1]) == 0  # ordered first dim is the informative one


def test_neuron_feature_scatter_output():
    rng = np.random.default_rng(6)
    n = 60
    feats = rng.standard_normal((n, 2))
    mus = np.column_stack([feats[:, 0] * 2.0, 0.01 * rng.standard_normal(n)])
    lm = LatentMatrix(mus, np.column_stack([np.full(n, 0.3), np.ones(n)]))
    x, y, fit = neuron_feature_scatter(
        lm, feats, ("F1", "F2"), neuron=0, feature="F1"
    )
    assert len(x) == len(y) == len(fit) == n
    assert np.max(np.abs(fit - y)) < 1e-6  # exactly linear relation
    with pytest.raises(ValueError):
        neuron_feature_scatter(lm, feats, ("F1", "F2"), neuron=0, feature="nope")


def test_compare_identical_corpora_identical_histograms():
    p = vae.init_params(SMALL, 4)
    rng = np.random.default_rng(7)
    seqs = [random_seq(rng) for _ in range(15)]
    lm = encode_corpus(p, seqs)
    part = partition_neurons(lm)
    comp = compare_real_vs_random(p, lm, seqs, part)
    for a, b in zip(comp.real_mu_hists, comp.random_mu_hists):
        assert np.array_equal(a, b)
    assert np.array_equal(
        comp.real_activation.music_counts, comp.random_activation.music_counts
    )
    assert len(comp.dims) == 4
