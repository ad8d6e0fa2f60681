"""Reference implementations that the fast code paths are tested against.

``reference_features`` computes the feature catalog one melody at a time with
plain numpy calls per feature; ``reference_lowess`` fits every point with a
dense (n, n) weight matrix.  Both are the straightforward forms that the
corpus-wide feature pass and the distinct-value LOWESS replace.
"""

from __future__ import annotations

import math

import numpy as np

from latent_lens.features import ARPEGGIATION_INTERVALS, FEATURE_NAMES
from latent_lens.melody import Melody, step_seconds


def _most_common(values, tie_key) -> int:
    uniq, counts = np.unique(np.asarray(values), return_counts=True)
    best = counts.max()
    candidates = [int(u) for u, c in zip(uniq, counts) if c == best]
    return min(candidates, key=tie_key)


def reference_features(melody: Melody) -> tuple[np.ndarray, np.ndarray]:
    """(values, degenerate mask) of one melody, both in catalog order."""
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

    return (
        np.array([values[name] for name in FEATURE_NAMES]),
        np.array([name in degenerate for name in FEATURE_NAMES]),
    )


def reference_lowess(x, y, frac: float = 0.3, iters: int = 2, dtype=float,
                     scales: list | None = None) -> np.ndarray:
    """LOWESS with one row of the (n, n) weight matrix per point.

    ``dtype`` sets the arithmetic (``np.longdouble`` for an extended-precision
    run); ``scales``, when given, collects each robustness pass's residual
    median.
    """
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y, dtype=dtype)
    n = x.size
    r = min(n - 1, max(2, int(math.ceil(frac * n))))
    w = np.abs(x[:, None] - x[None, :])
    h = np.maximum(np.partition(w, r, axis=1)[:, r], 1e-12)
    w = np.clip(w / h[:, None], 0.0, 1.0)
    w = 1.0 - w * w * w
    w = w * w * w  # w[i, j]: weight of data point j for fit point i

    xx = x * x
    delta = np.ones(n, dtype=dtype)
    yest = np.zeros(n, dtype=dtype)
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
        if scales is not None:
            scales.append(float(scale))
        if scale <= 1e-12 * np.mean(np.abs(y)):
            break
        u = np.clip(resid / (6.0 * scale), -1.0, 1.0)
        delta = (1.0 - u * u) ** 2
    return yest
