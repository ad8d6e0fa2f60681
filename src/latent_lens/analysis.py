"""Latent-space analyses: sigma ordering, music/noise partition, correlation
studies, and real-vs-random activation comparisons.

All analyses operate on a :class:`LatentMatrix` (corpus-level stacks of the
per-melody posterior mu and sigma vectors) and are deterministic given the
model parameters and corpus.  Latent dimensions are ordered by ascending
corpus-median sigma; dimensions whose median sigma stays below a threshold
are "music" dimensions, the rest "noise"; :func:`partition_neurons` decides
that order once, and every table takes it from the partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FEATURE_NAMES, extract_corpus_features
from .report import Stopwatch
from .stats import PHIK_BINS, BoxplotSummary, boxplot_summary, lowess, phik_matrix
from .vae import Params, _stack_batch, _Workspace, encode_batch

DEFAULT_SIGMA_THRESHOLD = 0.9
DEFAULT_ACTIVATION_THRESHOLD = 0.1
MAX_ORDERED_DIMS = 100  # the Pearson and phik tables cover at most this many


@dataclass
class LatentMatrix:
    """Per-melody posterior parameters for a whole corpus."""

    mus: np.ndarray  # (n, d)
    sigmas: np.ndarray  # (n, d)

    def __post_init__(self) -> None:
        if self.mus.shape != self.sigmas.shape or self.mus.ndim != 2:
            raise ValueError("mus and sigmas must be equal-shape (n, d) matrices")
        if not np.all(self.sigmas > 0):
            raise ValueError("sigmas must be strictly positive")

    @property
    def n(self) -> int:
        return self.mus.shape[0]

    @property
    def d(self) -> int:
        return self.mus.shape[1]


class TooFewMelodies(ValueError):
    """The corpus has too few melodies for a meaningful median sigma."""


@dataclass(frozen=True)
class NeuronPartition:
    order: tuple[int, ...]  # all dims, ascending median sigma, ties by dim index
    music: tuple[int, ...]  # dims with median sigma below the threshold
    noise: tuple[int, ...]
    sigma_threshold: float

    def __post_init__(self) -> None:
        dims = set(self.music) | set(self.noise)
        if set(self.order) != dims or len(self.music) + len(self.noise) != len(self.order):
            raise ValueError("music and noise must partition the ordered dims")


@dataclass(frozen=True)
class Report:
    """Everything ``latent-lens analyze`` writes, computed without touching a file."""

    partition: NeuronPartition
    boxplots: dict[str, list[BoxplotSummary]]  # "sigma" and "mu", in sigma order
    pearson: np.ndarray  # mu correlations, first ordered dims
    phik: np.ndarray  # feature x first ordered dims
    # (ordered neuron, feature, x, y, LOWESS fit) of the strongest R and P pair
    scatters: list[tuple[int, str, np.ndarray, np.ndarray, np.ndarray]]
    activation: list[tuple[str, np.ndarray, np.ndarray]]  # (series, bin edges, histogram)
    dropped: dict  # degenerate feature values and NaN phik cells
    timings_s: dict[str, float]


def encode_corpus(params: Params, corpus, batch_size: int = 256) -> LatentMatrix:
    """Encode a corpus (token sequences, or an (n, T) token matrix) in chunks
    of ``batch_size`` rows.

    Every sequence must have the model's length; one that does not raises
    :class:`~latent_lens.vae.ShapeError`, as in :func:`encode_batch`.
    """
    tokens = _stack_batch(corpus, params.config.seq_len)
    mus = np.empty((tokens.shape[0], params.config.latent_dim))
    sigmas = np.empty_like(mus)
    bounds = list(range(0, tokens.shape[0], batch_size)) + [tokens.shape[0]]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]  # a one-row chunk goes to gemv, whose sums round differently
    ws = _Workspace()
    for lo, hi in zip(bounds, bounds[1:]):
        mus[lo:hi], sigmas[lo:hi] = encode_batch(params, tokens[lo:hi], ws)
    return LatentMatrix(mus, sigmas)


def partition_neurons(
    lm: LatentMatrix, sigma_threshold: float = DEFAULT_SIGMA_THRESHOLD
) -> NeuronPartition:
    """Order dims by ascending corpus-median sigma, ties by dim index, and
    split them into music (median sigma < threshold) and noise (the rest)."""
    if lm.n < 10:
        raise TooFewMelodies("need at least 10 melodies for a meaningful median")
    medians = np.median(lm.sigmas, axis=0)
    order = tuple(int(i) for i in np.argsort(medians, kind="stable"))
    music = tuple(i for i in order if medians[i] < sigma_threshold)
    noise = tuple(i for i in order if medians[i] >= sigma_threshold)
    return NeuronPartition(order, music, noise, sigma_threshold)


def mu_pearson_matrix(lm: LatentMatrix, partition: NeuronPartition) -> np.ndarray:
    """Pearson correlations of mu columns over the first ordered dims (at most
    ``MAX_ORDERED_DIMS``), clipped to [-1, 1].  Constant columns produce NaN
    rows/columns rather than errors."""
    dims = list(partition.order[:MAX_ORDERED_DIMS])
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.corrcoef(lm.mus[:, dims], rowvar=False).reshape(len(dims), len(dims))
    return np.clip(r, -1.0, 1.0)


def neuron_feature_phik(
    lm: LatentMatrix,
    partition: NeuronPartition,
    features: np.ndarray,
    n_bins: int = PHIK_BINS,
) -> np.ndarray:
    """phik between every feature column and the mu columns of the first
    ordered dims (at most ``MAX_ORDERED_DIMS``)."""
    return phik_matrix(features, lm.mus[:, list(partition.order[:MAX_ORDERED_DIMS])], n_bins)


def neuron_feature_scatter(
    lm: LatentMatrix,
    partition: NeuronPartition,
    features: np.ndarray,
    neuron: int,
    feature: str,
    lowess_frac: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(feature values, neuron mu values, LOWESS fit) for one neuron and one
    of ``FEATURE_NAMES``, the columns of ``features``.

    ``neuron`` indexes the sigma-ordered dims, matching the heatmap columns.
    """
    x = np.asarray(features, dtype=float)[:, FEATURE_NAMES.index(feature)]
    y = lm.mus[:, partition.order[neuron]]
    return x, y, lowess(x, y, frac=lowess_frac)


def activation_counts(
    lm: LatentMatrix,
    partition: NeuronPartition,
    threshold: float = DEFAULT_ACTIVATION_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray]:
    """Per melody, how many music and how many noise dims have |mu| above the
    threshold: two (n,) count arrays."""
    act = np.abs(lm.mus) > threshold
    return act[:, list(partition.music)].sum(axis=1), act[:, list(partition.noise)].sum(axis=1)


def compare_real_vs_random(
    params: Params,
    real: LatentMatrix,
    random_corpus,
    partition: NeuronPartition,
    threshold: float = DEFAULT_ACTIVATION_THRESHOLD,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """:func:`activation_counts` of the already-encoded real corpus and of the
    random corpus, which is encoded here."""
    rand = encode_corpus(params, random_corpus)
    return activation_counts(real, partition, threshold), activation_counts(
        rand, partition, threshold)


def build_report(
    params: Params,
    corpus,
    random_corpus,
    *,
    sigma_threshold: float,
    activation_threshold: float,
    phik_bins: int,
    lowess_frac: float,
) -> Report:
    """The ``analyze`` bundle of ``corpus``: (sequence, tempo) pairs of the
    model's length, as :func:`melody.load_corpus` returns them.  With a
    ``random_corpus`` of such pairs, the activation histograms compare the two."""
    watch = Stopwatch()
    tokens = _stack_batch([seq for seq, _ in corpus], params.config.seq_len)
    lm = encode_corpus(params, tokens)
    partition = partition_neurons(lm, sigma_threshold)
    watch.lap("encode")

    boxplots = {
        "sigma": [boxplot_summary(lm.sigmas[:, i]) for i in partition.order],
        "mu": [boxplot_summary(lm.mus[:, i]) for i in partition.order],
    }
    pearson = mu_pearson_matrix(lm, partition)
    watch.lap("pearson")

    fmatrix, degenerate = extract_corpus_features(tokens, [tempo for _, tempo in corpus])
    phik = neuron_feature_phik(lm, partition, fmatrix, phik_bins)
    dropped = {
        "degenerate_values": dict(zip(FEATURE_NAMES, degenerate.sum(axis=0).tolist())),
        "nan_phik_cells": int(np.isnan(phik).sum()),
    }
    watch.lap("phik")

    # one scatter per feature family: the strongest (neuron, feature) pair
    scatters = []
    with np.errstate(invalid="ignore"):
        for prefix in ("R", "P"):
            block = [i for i, name in enumerate(FEATURE_NAMES) if name.startswith(prefix)]
            sub = phik[block]
            if not np.isfinite(sub).any():
                continue
            row, neuron = np.unravel_index(np.nanargmax(sub), sub.shape)
            feature = FEATURE_NAMES[block[row]]
            scatters.append((int(neuron), feature, *neuron_feature_scatter(
                lm, partition, fmatrix, int(neuron), feature, lowess_frac)))
    watch.lap("scatter")

    if random_corpus is None:
        music, noise = activation_counts(lm, partition, activation_threshold)
        series = [("music", music), ("noise", noise)]
    else:
        (music, noise), (rand_music, rand_noise) = compare_real_vs_random(
            params, lm, [seq for seq, _ in random_corpus], partition, activation_threshold)
        series = [("music_corpus", music), ("music_random", rand_music),
                  ("noise_corpus", noise), ("noise_random", rand_noise)]
    max_count = max(1, max(int(np.max(c)) for _, c in series))
    edges = np.arange(max_count + 2) - 0.5
    activation = [(name, edges, np.histogram(c, bins=edges)[0]) for name, c in series]
    watch.lap("activation")
    return Report(partition, boxplots, pearson, phik, scatters, activation, dropped,
                  watch.laps)
