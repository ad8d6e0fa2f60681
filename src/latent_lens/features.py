"""Scalar rhythm (R), pitch (P), and melody (M) descriptors of a melody.

The catalog is fixed at 20 named features.  Note durations (R2-R5) and
density (R1, notes per second) use seconds at the melody's tempo;
R7_mean_inter_onset_interval is in grid steps (sixteenth notes), so it does
not scale with tempo.  Interval features use consecutive note onsets
regardless of intervening rests.  Melodies with too few notes for a
feature get the value 0 with the feature name recorded as degenerate, so
corpus pipelines never abort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .melody import Melody, step_seconds

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


def _most_common(values: Sequence[int], tie_key) -> int:
    uniq, counts = np.unique(np.asarray(values), return_counts=True)
    best = counts.max()
    candidates = [int(u) for u, c in zip(uniq, counts) if c == best]
    return min(candidates, key=tie_key)


def extract_features(melody: Melody) -> FeatureVector:
    """Compute the 20-feature catalog for one melody."""
    sec = step_seconds(melody.tempo_qpm)
    total_steps = melody.total_steps
    total_seconds = total_steps * sec
    spans = melody.spans
    n = len(spans)
    pitches = np.array([s.pitch for s in spans], dtype=int)
    onsets = np.array([s.onset_step for s in spans], dtype=int)
    durations = np.array([s.duration_steps for s in spans], dtype=int)

    values: dict[str, float] = {}
    degenerate: set[str] = set()

    def put(name: str, value: float | None) -> None:
        if value is None:
            values[name] = 0.0
            degenerate.add(name)
        else:
            values[name] = float(value)

    put("R1_note_density", n / total_seconds)
    put("R2_mean_note_duration", durations.mean() * sec if n else None)
    put("R3_sd_note_duration", durations.std() * sec if n else None)
    put("R4_shortest_note", durations.min() * sec if n else None)
    put("R5_longest_note", durations.max() * sec if n else None)
    put("R6_rest_fraction", 1.0 - durations.sum() / total_steps)
    put("R7_mean_inter_onset_interval", np.diff(onsets).mean() if n >= 2 else None)

    put("P1_pitch_range", pitches.max() - pitches.min() if n else None)
    put("P2_mean_pitch", pitches.mean() if n else None)
    put("P3_pitch_variety", len(np.unique(pitches)) if n else None)
    put("P4_pitch_class_variety", len(np.unique(pitches % 12)) if n else None)
    put("P5_most_common_pitch", _most_common(pitches, lambda v: v) if n else None)
    if n:
        mode = values["P5_most_common_pitch"]
        put("P6_most_common_pitch_frequency", (pitches == mode).sum() / n)
    else:
        put("P6_most_common_pitch_frequency", None)

    if n >= 2:
        ivals = np.diff(pitches)
        nonzero = ivals[ivals != 0]
        put("M1_mean_abs_interval", np.abs(ivals).mean())
        put("M2_most_common_interval", _most_common(ivals, lambda v: (abs(v), v)))
        put("M3_rising_fraction", (nonzero > 0).sum() / nonzero.size if nonzero.size else None)
        put("M4_stepwise_fraction", np.isin(np.abs(ivals), (1, 2)).mean())
        put("M5_chromatic_fraction", (np.abs(ivals) == 1).mean())
        put("M6_repeated_fraction", (ivals == 0).mean())
        put(
            "M7_arpeggiation_fraction",
            np.isin(np.abs(ivals), tuple(ARPEGGIATION_INTERVALS)).mean(),
        )
    else:
        for name in FEATURE_NAMES:
            if name.startswith("M"):
                put(name, None)

    return FeatureVector(values, frozenset(degenerate))


def extract_corpus_features(corpus: Iterable[Melody]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Feature matrix for a corpus: one row per melody, catalog column order."""
    rows = [extract_features(m).as_array() for m in corpus]
    if not rows:
        raise ValueError("corpus must be non-empty")
    return np.vstack(rows), FEATURE_NAMES
