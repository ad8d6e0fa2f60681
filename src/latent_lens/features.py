"""Scalar rhythm (R), pitch (P), and melody (M) descriptors of a melody.

The catalog is fixed at 20 named features.  Note durations (R2-R5) and
density (R1, notes per second) use seconds at the melody's tempo;
R7_mean_inter_onset_interval is in grid steps (sixteenth notes), so it does
not scale with tempo.  Interval features use consecutive note onsets
regardless of intervening rests.  The modes break count ties toward the
lower pitch (P5) and toward the smaller |interval|, then the falling one
(M2).  Melodies with too few notes for a feature get the value 0 and are
marked degenerate for it, so corpus pipelines never abort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .melody import Melody, step_seconds, token_spans, tokenize

FEATURE_NAMES: tuple[str, ...] = (
    "R1_note_density",
    "R2_mean_note_duration",
    "R3_sd_note_duration",
    "R4_shortest_note",
    "R5_longest_note",
    "R6_rest_fraction",
    "R7_mean_inter_onset_interval",
    "P1_pitch_range",
    "P2_mean_pitch",
    "P3_pitch_variety",
    "P4_pitch_class_variety",
    "P5_most_common_pitch",
    "P6_most_common_pitch_frequency",
    "M1_mean_abs_interval",
    "M2_most_common_interval",
    "M3_rising_fraction",
    "M4_stepwise_fraction",
    "M5_chromatic_fraction",
    "M6_repeated_fraction",
    "M7_arpeggiation_fraction",
)

ARPEGGIATION_INTERVALS = frozenset({0, 3, 4, 7, 10, 11, 12, 15, 16})


@dataclass(frozen=True)
class FeatureVector:
    """Values for every catalog feature plus the degenerate-feature set."""

    values: dict[str, float]
    degenerate: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if tuple(self.values.keys()) != FEATURE_NAMES:
            raise ValueError("feature names must match the catalog exactly")
        for name, v in self.values.items():
            if not np.isfinite(v):
                raise ValueError(f"non-finite value for {name}")

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    def as_array(self) -> np.ndarray:
        return np.array([self.values[name] for name in FEATURE_NAMES])


# notes a melody needs for each feature to be defined; M3 also needs a nonzero interval
_MIN_NOTES = np.array([
    0 if name in ("R1_note_density", "R6_rest_fraction")
    else 2 if name[0] == "M" or name == "R7_mean_inter_onset_interval" else 1
    for name in FEATURE_NAMES
])


def _segment_mode(seg: np.ndarray, keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """Per segment id present, in ascending order: its most frequent key in
    ``[0, n_keys)`` (ties to the smaller key) and that key's count."""
    uniq, counts = np.unique(seg * n_keys + keys, return_counts=True)
    useg = uniq // n_keys
    order = np.lexsort((uniq, -counts, useg))  # by segment, then count down, then key
    first = order[np.unique(useg[order], return_index=True)[1]]
    return uniq[first] % n_keys, counts[first]


def extract_corpus_features(tokens, tempos) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and degenerate mask of a corpus, both (n, 20) in catalog order.

    ``tokens`` holds one melody per row: an (n, T) token matrix, or n token
    sequences of any supported lengths; ``tempos`` holds their n tempos in
    quarter notes per minute.  Every span of the corpus is read from the
    tokens into one flat array with its melody's index
    (:func:`~latent_lens.melody.token_spans`), and each feature is a segment
    reduction over it (``np.bincount`` sums, ``reduceat`` extremes,
    ``np.unique`` counts), so the cost follows the span count.  Values equal
    the per-melody numpy results bit for bit, except R3, whose squared
    deviations are summed in span order rather than pairwise (so it may
    differ from ``np.std`` in the last bit or two).
    """
    n = len(tokens)
    if n == 0:
        raise ValueError("corpus must be non-empty")
    tempos = np.asarray(tempos, dtype=float)
    if tempos.shape != (n,):
        raise ValueError(f"need one tempo per melody, got {tempos.shape} for {n}")
    sec = step_seconds(tempos)
    total_steps = np.fromiter(map(len, tokens), np.int64, n)
    mel, pitch, onset, dur = token_spans(tokens)
    count = np.bincount(mel, minlength=n)
    has = count > 0
    starts = (np.cumsum(count) - count)[has]  # first span of each non-empty melody
    notes, steps = np.maximum(count, 1), np.maximum(count - 1, 1)

    def total(weights, ids=mel) -> np.ndarray:
        return np.bincount(ids, weights=weights, minlength=n)

    def per_melody(values) -> np.ndarray:  # spread a reduction over non-empty melodies
        out = np.zeros(n)
        out[has] = values
        return out

    mean_dur = total(dur) / notes
    pitch_mode, mode_count = _segment_mode(mel, pitch, 128)
    # intervals between consecutive spans of the same melody
    same = mel[1:] == mel[:-1]
    ival, imel = np.diff(pitch)[same], mel[1:][same]
    size = np.abs(ival)
    moving = total(ival != 0, imel)
    # the tie order (|v|, then v) is the order of the rank 2|v| + (v > 0)
    rank, _ = _segment_mode(imel, 2 * size + (ival > 0), 256)
    ival_mode = np.zeros(n)
    ival_mode[count > 1] = np.where(rank % 2 == 1, 1, -1) * (rank // 2)
    cols = {
        "R1_note_density": count / (total_steps * sec),
        "R2_mean_note_duration": mean_dur * sec,
        "R3_sd_note_duration": np.sqrt(total((dur - mean_dur[mel]) ** 2) / notes) * sec,
        "R4_shortest_note": per_melody(np.minimum.reduceat(dur, starts)) * sec,
        "R5_longest_note": per_melody(np.maximum.reduceat(dur, starts)) * sec,
        "R6_rest_fraction": 1.0 - total(dur) / total_steps,
        "R7_mean_inter_onset_interval":
            per_melody(onset[starts + count[has] - 1] - onset[starts]) / steps,
        "P1_pitch_range":
            per_melody(np.maximum.reduceat(pitch, starts) - np.minimum.reduceat(pitch, starts)),
        "P2_mean_pitch": total(pitch) / notes,
        "P3_pitch_variety": np.bincount(np.unique(mel * 128 + pitch) // 128, minlength=n),
        "P4_pitch_class_variety":
            np.bincount(np.unique(mel * 12 + pitch % 12) // 12, minlength=n),
        "P5_most_common_pitch": per_melody(pitch_mode),
        "P6_most_common_pitch_frequency": per_melody(mode_count) / notes,
        "M1_mean_abs_interval": total(size, imel) / steps,
        "M2_most_common_interval": ival_mode,
        "M3_rising_fraction": total(ival > 0, imel) / np.maximum(moving, 1),
        "M4_stepwise_fraction": total((size == 1) | (size == 2), imel) / steps,
        "M5_chromatic_fraction": total(size == 1, imel) / steps,
        "M6_repeated_fraction": total(ival == 0, imel) / steps,
        "M7_arpeggiation_fraction":
            total(np.isin(size, tuple(ARPEGGIATION_INTERVALS)), imel) / steps,
    }
    degenerate = count[:, None] < _MIN_NOTES
    degenerate[:, FEATURE_NAMES.index("M3_rising_fraction")] |= moving == 0
    values = np.column_stack([cols[name] for name in FEATURE_NAMES])
    values[degenerate] = 0.0
    return values, degenerate


def extract_features(melody: Melody) -> FeatureVector:
    """Compute the 20-feature catalog for one melody."""
    values, degenerate = extract_corpus_features([tokenize(melody)], [melody.tempo_qpm])
    return FeatureVector(
        dict(zip(FEATURE_NAMES, values[0].tolist())),
        frozenset(name for name, d in zip(FEATURE_NAMES, degenerate[0]) if d),
    )
