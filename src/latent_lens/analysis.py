"""Latent-space analyses: sigma ordering, music/noise partition, correlation
studies, and real-vs-random activation comparisons.

All analyses operate on a :class:`LatentMatrix` (corpus-level stacks of the
per-melody posterior mu and sigma vectors) and are deterministic given the
model parameters and corpus.  Latent dimensions are ordered by ascending
corpus-median sigma; dimensions whose median sigma stays below a threshold
are "music" dimensions, the rest "noise".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import BoxplotSummary, PhikConfig, boxplot_summary, phik_matrix
from .stats import ConstantInputError, lowess, pearson
from .vae import Params, encode_batch

DEFAULT_SIGMA_THRESHOLD = 0.9
DEFAULT_ACTIVATION_THRESHOLD = 0.1


@dataclass
class LatentMatrix:
    """Per-melody posterior parameters for a whole corpus."""

    mus: np.ndarray  # (n, d)
    sigmas: np.ndarray  # (n, d)
    ids: tuple[int, ...] = ()
    skipped: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.mus.shape != self.sigmas.shape or self.mus.ndim != 2:
            raise ValueError("mus and sigmas must be equal-shape (n, d) matrices")
        if not np.all(self.sigmas > 0):
            raise ValueError("sigmas must be strictly positive")
        if not self.ids:
            self.ids = tuple(range(self.mus.shape[0]))

    @property
    def n(self) -> int:
        return self.mus.shape[0]

    @property
    def d(self) -> int:
        return self.mus.shape[1]


@dataclass(frozen=True)
class NeuronPartition:
    order: tuple[int, ...]  # all dims, ascending median sigma
    music: tuple[int, ...]  # dims with median sigma below the threshold
    noise: tuple[int, ...]
    sigma_threshold: float

    def __post_init__(self) -> None:
        dims = set(self.music) | set(self.noise)
        if set(self.order) != dims or len(self.music) + len(self.noise) != len(self.order):
            raise ValueError("music and noise must partition the ordered dims")


@dataclass(frozen=True)
class ActivationReport:
    music_counts: np.ndarray  # (n,) per-melody |mu| > threshold counts
    noise_counts: np.ndarray
    threshold: float


@dataclass(frozen=True)
class ComparisonReport:
    """Data behind the real-vs-random figures."""

    dims: tuple[int, ...]  # top ordered dims shown in the per-neuron histograms
    mu_edges: tuple[np.ndarray, ...]  # shared bin edges per dim
    real_mu_hists: tuple[np.ndarray, ...]
    random_mu_hists: tuple[np.ndarray, ...]
    real_activation: ActivationReport
    random_activation: ActivationReport


def encode_corpus(params: Params, corpus, batch_size: int = 256) -> LatentMatrix:
    """Encode a corpus row by row; sequences of the wrong length are skipped."""
    seq_len = params.config.seq_len
    rows = []
    kept: list[int] = []
    skipped: list[int] = []
    for i, seq in enumerate(corpus):
        toks = tuple(seq)
        if len(toks) != seq_len:
            skipped.append(i)
        else:
            kept.append(i)
            rows.append(toks)
    if not rows:
        raise ValueError("no sequence in the corpus matches the model length")
    tokens = np.array(rows, dtype=np.int64)
    mus = np.empty((tokens.shape[0], params.config.latent_dim))
    sigmas = np.empty_like(mus)
    for lo in range(0, tokens.shape[0], batch_size):
        mu, sigma = encode_batch(params, tokens[lo : lo + batch_size])
        mus[lo : lo + batch_size] = mu
        sigmas[lo : lo + batch_size] = sigma
    return LatentMatrix(mus, sigmas, tuple(kept), tuple(skipped))


def order_by_sigma(lm: LatentMatrix) -> tuple[int, ...]:
    """Dims sorted by ascending corpus-median sigma, ties by dim index."""
    medians = np.median(lm.sigmas, axis=0)
    return tuple(int(i) for i in np.argsort(medians, kind="stable"))


def partition_neurons(
    lm: LatentMatrix, sigma_threshold: float = DEFAULT_SIGMA_THRESHOLD
) -> NeuronPartition:
    """Split dims into music (median sigma < threshold) and noise (rest)."""
    if lm.n < 10:
        raise ValueError("need at least 10 melodies for a meaningful median")
    order = order_by_sigma(lm)
    medians = np.median(lm.sigmas, axis=0)
    music = tuple(i for i in order if medians[i] < sigma_threshold)
    noise = tuple(i for i in order if medians[i] >= sigma_threshold)
    return NeuronPartition(order, music, noise, sigma_threshold)


def central_value_stats(
    lm: LatentMatrix, partition: NeuronPartition
) -> tuple[list[BoxplotSummary], list[BoxplotSummary]]:
    """Per-dim boxplot summaries of sigma and mu, in partition order."""
    sigma_stats = [boxplot_summary(lm.sigmas[:, i]) for i in partition.order]
    mu_stats = [boxplot_summary(lm.mus[:, i]) for i in partition.order]
    return sigma_stats, mu_stats


def mu_pearson_matrix(lm: LatentMatrix, d_prime: int | None = None) -> np.ndarray:
    """Pearson correlations of mu columns over the first d' ordered dims.

    Constant columns produce NaN rows/columns rather than errors.
    """
    if lm.n < 3:
        raise ValueError("need at least 3 melodies")
    order = order_by_sigma(lm)
    d_prime = min(lm.d, 100) if d_prime is None else min(d_prime, lm.d)
    dims = order[:d_prime]
    out = np.full((d_prime, d_prime), np.nan)
    cols = [lm.mus[:, i] for i in dims]
    for a in range(d_prime):
        for b in range(a, d_prime):
            try:
                r = pearson(cols[a], cols[b])
            except ConstantInputError:
                continue
            out[a, b] = r
            out[b, a] = r
    return out


def neuron_feature_phik(
    lm: LatentMatrix,
    features: np.ndarray,
    cfg: PhikConfig | None = None,
    d_prime: int | None = None,
) -> np.ndarray:
    """phik between every feature column and every ordered mu column."""
    features = np.asarray(features, dtype=float)
    if features.shape[0] != lm.n:
        raise ValueError("feature matrix rows must match the latent matrix")
    order = order_by_sigma(lm)
    d_prime = min(lm.d, 100) if d_prime is None else min(d_prime, lm.d)
    mu_cols = lm.mus[:, list(order[:d_prime])]
    return phik_matrix(features, mu_cols, cfg)


def neuron_feature_scatter(
    lm: LatentMatrix,
    features: np.ndarray,
    feature_names,
    neuron: int,
    feature: str,
    lowess_frac: float = 0.3,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(feature values, neuron mu values, LOWESS fit) for one neuron/feature.

    ``neuron`` indexes the sigma-ordered dims, matching the heatmap columns.
    """
    order = order_by_sigma(lm)
    if not 0 <= neuron < lm.d:
        raise ValueError(f"neuron index {neuron} out of range")
    names = list(feature_names)
    if feature not in names:
        raise ValueError(f"unknown feature {feature!r}")
    x = np.asarray(features, dtype=float)[:, names.index(feature)]
    y = lm.mus[:, order[neuron]]
    fit = lowess(x, y, frac=lowess_frac)
    return x, y, fit


def activation_counts(
    lm: LatentMatrix,
    partition: NeuronPartition,
    threshold: float = DEFAULT_ACTIVATION_THRESHOLD,
) -> ActivationReport:
    """Per melody, how many music / noise dims have |mu| above the threshold."""
    act = np.abs(lm.mus) > threshold
    music = list(partition.music)
    noise = list(partition.noise)
    music_counts = act[:, music].sum(axis=1) if music else np.zeros(lm.n, dtype=int)
    noise_counts = act[:, noise].sum(axis=1) if noise else np.zeros(lm.n, dtype=int)
    return ActivationReport(music_counts, noise_counts, threshold)


def compare_real_vs_random(
    params: Params,
    real: LatentMatrix,
    random_corpus,
    partition: NeuronPartition,
    threshold: float = DEFAULT_ACTIVATION_THRESHOLD,
    top_dims: int = 4,
    hist_bins: int = 40,
) -> ComparisonReport:
    """Per-neuron mu histograms and activation counts for the two corpora.

    ``real`` is the already-encoded real corpus; only the random corpus is
    encoded here.
    """
    rand = encode_corpus(params, random_corpus)
    dims = partition.order[:top_dims]
    edges = []
    real_hists = []
    rand_hists = []
    for dim in dims:
        both = np.concatenate((real.mus[:, dim], rand.mus[:, dim]))
        e = np.histogram_bin_edges(both, bins=hist_bins)
        edges.append(e)
        real_hists.append(np.histogram(real.mus[:, dim], bins=e)[0])
        rand_hists.append(np.histogram(rand.mus[:, dim], bins=e)[0])
    return ComparisonReport(
        dims=tuple(dims),
        mu_edges=tuple(edges),
        real_mu_hists=tuple(real_hists),
        random_mu_hists=tuple(rand_hists),
        real_activation=activation_counts(real, partition, threshold),
        random_activation=activation_counts(rand, partition, threshold),
    )
