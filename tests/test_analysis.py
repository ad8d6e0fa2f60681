import dataclasses

import numpy as np
import pytest

from latent_lens import vae
from latent_lens.analysis import (
    LatentMatrix,
    TooFewMelodies,
    activation_counts,
    build_report,
    compare_real_vs_random,
    encode_corpus,
    mu_pearson_matrix,
    neuron_feature_phik,
    neuron_feature_scatter,
    partition_neurons,
)
from latent_lens.features import FEATURE_NAMES
from latent_lens.melody import TokenSequence

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


def shaped_params(music=2, d=6, seed=0):
    """SMALL weights whose encoder gives ``music`` dims a small constant sigma
    and a spread mu, and every other dim sigma 1 and mu 0."""
    p = vae.init_params(dataclasses.replace(SMALL, latent_dim=d), seed)
    p.w_logvar[:] = 0.0
    p.b_logvar[:] = 0.0
    p.b_logvar[:music] = 2.0 * np.log(0.2)
    p.w_mu[:, music:] = 0.0
    p.b_mu[:] = 0.0
    p.w_mu[:, :music] *= 5.0
    return p


def report_of(params, n=40, random_n=None):
    rng = np.random.default_rng(0)
    entries = [(random_seq(rng), 120.0) for _ in range(n)]
    randoms = None if random_n is None else [(random_seq(rng), 90.0) for _ in range(random_n)]
    return build_report(params, entries, randoms, sigma_threshold=0.9,
                        activation_threshold=0.1, phik_bins=4, lowess_frac=0.3)


def test_order_by_sigma_simple():
    lm = LatentMatrix(
        np.zeros((11, 3)),
        np.tile(np.array([1.0, 0.2, 0.9]), (11, 1)),
    )
    assert partition_neurons(lm).order == (1, 2, 0)


def test_order_is_permutation_and_stable():
    rng = np.random.default_rng(1)
    lm = LatentMatrix(np.zeros((20, 8)), np.abs(rng.standard_normal((20, 8))) + 0.1)
    order = partition_neurons(lm).order
    assert sorted(order) == list(range(8))
    # duplicate medians keep index order
    lm2 = LatentMatrix(np.zeros((10, 4)), np.ones((10, 4)))
    assert partition_neurons(lm2).order == (0, 1, 2, 3)


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
    with pytest.raises(TooFewMelodies):
        partition_neurons(lm)


def test_central_value_stats_shapes():
    rep = report_of(shaped_params(music=2, d=6))
    sigma_stats, mu_stats = rep.boxplots["sigma"], rep.boxplots["mu"]
    assert len(sigma_stats) == 6 and len(mu_stats) == 6
    assert set(rep.partition.music) == {0, 1}
    # music dims come first and have wider mu spread than noise dims
    music_iqr = mu_stats[0].q3 - mu_stats[0].q1
    noise_iqrs = [s.q3 - s.q1 for s in mu_stats[len(rep.partition.music):]]
    assert music_iqr > max(noise_iqrs)
    assert sigma_stats[0].median == pytest.approx(0.2)


def test_central_value_stats_constant_column():
    params = shaped_params(music=0, d=3)  # mu is 0 for every melody
    rep = report_of(params, n=15)
    assert rep.boxplots["mu"][0].q1 == rep.boxplots["mu"][0].q3 == 0.0
    # constant columns leave the tables empty, not the report
    assert np.isnan(rep.pearson).all() and np.isnan(rep.phik).all()
    assert rep.scatters == [] and rep.dropped["nan_phik_cells"] == rep.phik.size


def test_mu_pearson_matrix_properties():
    lm = synthetic_lm(n=200, d=5, music=3)
    m = mu_pearson_matrix(lm, partition_neurons(lm))
    assert m.shape == (5, 5)
    assert np.allclose(np.diag(m), 1.0)
    assert np.allclose(m, m.T, equal_nan=True)
    lm.mus[:, 2] = 7.0  # constant column -> missing entries
    part = partition_neurons(lm)
    m2 = mu_pearson_matrix(lm, part)
    pos = part.order.index(2)
    assert np.isnan(m2[pos]).all()


def test_equivariance_under_dim_relabeling():
    lm = synthetic_lm(n=100, d=6, music=2)
    perm = np.array([3, 1, 5, 0, 2, 4])
    lm_p = LatentMatrix(lm.mus[:, perm], lm.sigmas[:, perm])
    part = partition_neurons(lm)
    part_p = partition_neurons(lm_p)
    # new dim j holds old dim perm[j]; the same underlying dims are selected
    assert {int(perm[j]) for j in part_p.music} == set(part.music)
    a = mu_pearson_matrix(lm, part)
    b = mu_pearson_matrix(lm_p, part_p)
    assert np.allclose(a, b, equal_nan=True)  # sigma order cancels the perm


def test_activation_counts_hand_case():
    mus = np.array([[0.05, -0.2, 0.11, 0.0]])
    lm = LatentMatrix(np.tile(mus, (10, 1)), np.ones((10, 4)))
    part = partition_neurons(lm, sigma_threshold=2.0)  # everything "music"
    music, noise = activation_counts(lm, part, 0.1)
    assert music[0] == 2
    assert noise[0] == 0


def test_activation_threshold_zero_counts_nonzero():
    lm = synthetic_lm()
    part = partition_neurons(lm)
    music, _ = activation_counts(lm, part, 0.0)
    nonzero = (np.abs(lm.mus[:, list(part.music)]) > 0).sum(axis=1)
    assert np.array_equal(music, nonzero)


def test_activation_monotone_in_threshold():
    lm = synthetic_lm(n=80)
    part = partition_neurons(lm)
    a_music, a_noise = activation_counts(lm, part, 0.05)
    b_music, b_noise = activation_counts(lm, part, 0.2)
    assert np.all(a_music >= b_music)
    assert np.all(a_noise >= b_noise)
    assert np.all(a_music <= len(part.music))
    assert np.all(a_noise <= len(part.noise))


def test_encode_corpus_matches_encode_and_skips():
    p = vae.init_params(SMALL, 3)
    rng = np.random.default_rng(2)
    seqs = [random_seq(rng) for _ in range(12)]
    bad = TokenSequence(tuple(random_tokens(rng, 1, 256)[0]), 16)
    lm = encode_corpus(p, seqs)
    assert lm.n == 12
    mu, sigma = vae.encode(p, seqs[4])
    assert np.allclose(lm.mus[4], mu)
    assert np.allclose(lm.sigmas[4], sigma)
    with pytest.raises(vae.ShapeError):
        encode_corpus(p, seqs + [bad])


def test_encode_corpus_independent_of_batch_size():
    p = vae.init_params(SMALL, 5)
    rng = np.random.default_rng(6)
    seqs = [random_seq(rng) for _ in range(40)]
    ref = encode_corpus(p, seqs, batch_size=256)
    for batch_size in (3, 7, 13, 39):  # 3, 13 and 39 leave a one-row tail
        lm = encode_corpus(p, seqs, batch_size=batch_size)
        assert np.array_equal(lm.mus, ref.mus) and np.array_equal(lm.sigmas, ref.sigmas)
    # numpy hands a one-row product to gemv, whose sums round differently
    # from gemm's, so batches of one agree to rounding only
    one = encode_corpus(p, seqs, batch_size=1)
    assert np.allclose(one.mus, ref.mus, rtol=1e-13, atol=1e-15)
    assert np.allclose(one.sigmas, ref.sigmas, rtol=1e-13, atol=1e-15)


def test_neuron_feature_phik_shape_and_null():
    rng = np.random.default_rng(5)
    n, d = 400, 6
    feats = rng.standard_normal((n, 3))
    mus = 0.01 * rng.standard_normal((n, d))
    mus[:, 0] = feats[:, 1] ** 2  # one neuron tracks one feature nonlinearly
    sigmas = np.ones((n, d))
    sigmas[:, 0] = 0.2
    lm = LatentMatrix(mus, sigmas)
    m = neuron_feature_phik(lm, partition_neurons(lm), feats, 5)
    assert m.shape == (3, d)
    assert np.nanargmax(m[1]) == 0  # ordered first dim is the informative one


def test_neuron_feature_scatter_output():
    rng = np.random.default_rng(6)
    n = 60
    feats = rng.standard_normal((n, len(FEATURE_NAMES)))
    mus = np.column_stack([feats[:, 3] * 2.0, 0.01 * rng.standard_normal(n)])
    lm = LatentMatrix(mus, np.column_stack([np.full(n, 0.3), np.ones(n)]))
    part = partition_neurons(lm)
    x, y, fit = neuron_feature_scatter(
        lm, part, feats, neuron=0, feature=FEATURE_NAMES[3], lowess_frac=0.3
    )
    assert np.array_equal(x, feats[:, 3])
    assert len(x) == len(y) == len(fit) == n
    assert np.max(np.abs(fit - y)) < 1e-6  # exactly linear relation


def test_compare_identical_corpora_identical_histograms():
    p = vae.init_params(SMALL, 4)
    rng = np.random.default_rng(7)
    seqs = [random_seq(rng) for _ in range(15)]
    lm = encode_corpus(p, seqs)
    part = partition_neurons(lm)
    (real_music, real_noise), (rand_music, rand_noise) = compare_real_vs_random(
        p, lm, seqs, part)
    assert np.array_equal(real_music, rand_music)
    assert np.array_equal(real_noise, rand_noise)


def test_build_report_activation_series():
    params = shaped_params(music=2, d=6)
    alone = report_of(params, n=30)
    assert [name for name, _, _ in alone.activation] == ["music", "noise"]
    paired = report_of(params, n=30, random_n=20)
    names = [name for name, _, _ in paired.activation]
    assert names == ["music_corpus", "music_random", "noise_corpus", "noise_random"]
    for name, edges, hist in paired.activation:
        assert hist.sum() == (20 if name.endswith("random") else 30)
        assert len(hist) == len(edges) - 1
