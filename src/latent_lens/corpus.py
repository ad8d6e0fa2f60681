"""Corpus generators: random note sequences and a synthetic musical proxy.

The random generator switches on a uniform number of notes at uniform grid
positions with uniform pitches, each note sustaining until the next onset, so
exactly one note sounds at every step.  The synthetic generator produces
in-scale random-walk melodies with per-melody register and rhythm regimes; it
stands in for "real music" when no MIDI corpus is available.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .melody import QUARTERS_PER_BAR, STEPS_PER_BAR, SUPPORTED_BARS, Melody, NoteSpan

MAJOR_SCALE = (0, 2, 4, 5, 7, 9, 11)


def _check_bars(bars: int) -> None:
    if bars not in SUPPORTED_BARS:
        raise ValueError(f"bars must be {' or '.join(map(str, SUPPORTED_BARS))}, got {bars}")


@dataclass(frozen=True)
class RandomSeqConfig:
    n_notes_min: int = 2
    n_notes_max: int = 32
    pitch_min: int = 30
    pitch_max: int = 100
    duration_s_min: int = 1
    duration_s_max: int = 8
    bars: int = 2

    def __post_init__(self) -> None:
        _check_bars(self.bars)
        total = STEPS_PER_BAR * self.bars
        if not 2 <= self.n_notes_min <= self.n_notes_max <= total:
            raise ValueError("note count bounds must satisfy 2 <= min <= max <= steps")
        if not 0 <= self.pitch_min <= self.pitch_max <= 127:
            raise ValueError("pitch bounds must lie in 0..127")
        if not 1 <= self.duration_s_min <= self.duration_s_max:
            raise ValueError("duration bounds must satisfy 1 <= min <= max")


@dataclass(frozen=True)
class SyntheticConfig:
    key_root: int = 0
    step_bias: float = 0.85
    rhythm_grid: tuple[int, ...] = (1, 2, 2, 4, 4, 8)
    bars: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        _check_bars(self.bars)
        if not self.rhythm_grid:
            raise ValueError("rhythm grid must hold at least one duration")
        if any(d < 1 for d in self.rhythm_grid):
            raise ValueError("rhythm grid durations must be positive")
        if not 0.0 <= self.step_bias <= 1.0:
            raise ValueError("step_bias must lie in [0, 1]")


def gen_random_sequence(cfg: RandomSeqConfig, rng: np.random.Generator) -> Melody:
    """One random note sequence covering every step monophonically.

    The note count is uniform on the configured integer range, onsets are
    distinct grid steps drawn without replacement (step 0 always included),
    pitches are i.i.d. uniform integers, and the tempo is set so the whole
    sequence lasts a uniform integer number of seconds.
    """
    total = STEPS_PER_BAR * cfg.bars
    k = int(rng.integers(cfg.n_notes_min, cfg.n_notes_max + 1))
    extra = rng.choice(np.arange(1, total), size=k - 1, replace=False)
    onsets = np.concatenate(([0], np.sort(extra)))
    ends = np.concatenate((onsets[1:], [total]))
    pitches = rng.integers(cfg.pitch_min, cfg.pitch_max + 1, size=k)
    seconds = int(rng.integers(cfg.duration_s_min, cfg.duration_s_max + 1))
    tempo_qpm = cfg.bars * QUARTERS_PER_BAR * 60.0 / seconds
    spans = tuple(
        NoteSpan(int(p), int(a), int(b - a)) for p, a, b in zip(pitches, onsets, ends)
    )
    return Melody(spans, cfg.bars, tempo_qpm)


# Probability of a short breathing rest between notes of a synthetic melody.
_REST_PROB = 0.1
_REST_STEPS = 2
# Probability that a note takes the melody's dominant duration rather than a
# fresh draw from the grid; this is what gives each melody a rhythm identity.
_DOMINANT_PROB = 0.7
_WALK_SPAN = 9  # max scale-degree distance from the starting degree


def gen_musical_melody(cfg: SyntheticConfig, rng: np.random.Generator) -> Melody:
    """One synthetic melody: a biased in-scale random walk on a rhythm grid.

    Each melody draws its own register (tonic octave) and a dominant note
    duration, so the corpus has strong per-melody pitch and rhythm factors.
    """
    total = STEPS_PER_BAR * cfg.bars
    tones = [
        12 * octave + cfg.key_root + degree
        for octave in range(1, 8)
        for degree in MAJOR_SCALE
    ]
    tonic_octave = int(rng.integers(3, 6))
    start_idx = tones.index(12 * tonic_octave + cfg.key_root) + int(
        rng.integers(0, len(MAJOR_SCALE))
    )
    dominant = int(cfg.rhythm_grid[rng.integers(0, len(cfg.rhythm_grid))])
    lo_idx = max(0, start_idx - _WALK_SPAN)
    hi_idx = min(len(tones) - 1, start_idx + _WALK_SPAN)

    spans: list[NoteSpan] = []
    pos = 0
    idx = start_idx
    while pos < total:
        if spans and rng.random() < _REST_PROB:
            pos += min(_REST_STEPS, total - pos)
            if pos >= total:
                break
        if rng.random() < _DOMINANT_PROB:
            dur = dominant
        else:
            dur = int(cfg.rhythm_grid[rng.integers(0, len(cfg.rhythm_grid))])
        dur = min(dur, total - pos)
        spans.append(NoteSpan(tones[idx], pos, dur))
        pos += dur
        step = 1 if rng.random() < cfg.step_bias else int(rng.integers(2, 5))
        if rng.random() < 0.5:
            step = -step
        idx += step
        if idx > hi_idx:
            idx = hi_idx - (idx - hi_idx)
        if idx < lo_idx:
            idx = lo_idx + (lo_idx - idx)
    return Melody(tuple(spans), cfg.bars, 120.0)


def gen_random_corpus(cfg: RandomSeqConfig, n: int, seed: int) -> list[Melody]:
    """n random sequences from independent per-melody RNG streams."""
    streams = np.random.SeedSequence(seed).spawn(n)
    return [gen_random_sequence(cfg, np.random.default_rng(s)) for s in streams]


def gen_musical_corpus(cfg: SyntheticConfig, n: int) -> list[Melody]:
    """n synthetic melodies, deterministic in cfg.seed."""
    streams = np.random.SeedSequence(cfg.seed).spawn(n)
    return [gen_musical_melody(cfg, np.random.default_rng(s)) for s in streams]
