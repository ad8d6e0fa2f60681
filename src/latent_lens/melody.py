"""Quantized monophonic melody representation.

A melody lives on a fixed 16th-note grid (4 steps per quarter, 4/4 only) and
is stored either as note spans (pitch, onset step, duration in steps) or as a
flat token sequence over a 130-symbol vocabulary: codes 0..127 start a note at
that MIDI pitch, 128 starts a silence, 129 holds whatever state is active.
The two forms convert losslessly via :func:`tokenize` / :func:`detokenize`;
:func:`token_spans` reads the spans of many token rows at once as arrays.

Corpora of token sequences are stored as JSONL, one object per line:
``{"bars": n, "tempo_qpm": x, "tokens": [ints]}``.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

STEPS_PER_QUARTER = 4
QUARTERS_PER_BAR = 4
STEPS_PER_BAR = STEPS_PER_QUARTER * QUARTERS_PER_BAR

MIN_PITCH = 0
MAX_PITCH = 127
REST = 128
HOLD = 129
VOCAB_SIZE = 130

SUPPORTED_BARS = (2, 16)


class InvalidMelody(ValueError):
    """Raised when note spans violate the monophonic piano-roll constraints."""


class InvalidTokenSequence(ValueError):
    """Raised when a token sequence violates vocabulary or layout constraints."""


@dataclass(frozen=True)
class NoteSpan:
    """One note: MIDI pitch, onset grid step, duration in grid steps."""

    pitch: int
    onset_step: int
    duration_steps: int

    def __post_init__(self) -> None:
        if not MIN_PITCH <= self.pitch <= MAX_PITCH:
            raise InvalidMelody(f"pitch {self.pitch} outside MIDI range 0..127")
        if self.onset_step < 0:
            raise InvalidMelody(f"negative onset step {self.onset_step}")
        if self.duration_steps < 1:
            raise InvalidMelody(
                f"duration must be at least one step, got {self.duration_steps}"
            )

    @property
    def end_step(self) -> int:
        return self.onset_step + self.duration_steps


@dataclass(frozen=True)
class Melody:
    """A monophonic melody: sorted non-overlapping spans on the step grid."""

    spans: tuple[NoteSpan, ...]
    bars: int = 2
    tempo_qpm: float = 120.0

    def __post_init__(self) -> None:
        spans = tuple(self.spans)
        object.__setattr__(self, "spans", spans)
        if self.bars not in SUPPORTED_BARS:
            raise InvalidMelody(f"bars must be one of {SUPPORTED_BARS}, got {self.bars}")
        if not self.tempo_qpm > 0:
            raise InvalidMelody(f"tempo must be positive, got {self.tempo_qpm}")
        total = self.total_steps
        prev_end = 0
        prev_onset = -1
        for span in spans:
            onset = span.onset_step
            if onset < prev_end:  # spans end after they start, so unsorted ones land here too
                if onset < prev_onset:
                    raise InvalidMelody("spans must be sorted by onset step")
                raise InvalidMelody(f"span at step {onset} overlaps the previous note")
            end = onset + span.duration_steps
            if end > total:
                raise InvalidMelody(f"span ending at step {end} exceeds {total} steps")
            prev_onset = onset
            prev_end = end

    @property
    def total_steps(self) -> int:
        return STEPS_PER_BAR * self.bars


@dataclass(frozen=True)
class TokenSequence:
    """Fixed-length token form of a melody; 16 x bars codes in 0..129."""

    tokens: tuple[int, ...]
    bars: int = 2

    def __post_init__(self) -> None:
        tokens = tuple(map(int, self.tokens))
        object.__setattr__(self, "tokens", tokens)
        if self.bars not in SUPPORTED_BARS:
            raise InvalidTokenSequence(
                f"bars must be one of {SUPPORTED_BARS}, got {self.bars}"
            )
        expected = STEPS_PER_BAR * self.bars
        if len(tokens) != expected:
            raise InvalidTokenSequence(
                f"expected {expected} tokens for {self.bars} bars, got {len(tokens)}"
            )
        if min(tokens) < 0 or max(tokens) >= VOCAB_SIZE:
            # walk the tokens only to name the first bad one
            for i, tok in enumerate(tokens):
                if not 0 <= tok < VOCAB_SIZE:
                    raise InvalidTokenSequence(f"token {tok} at step {i} outside 0..129")
        if tokens[0] == HOLD:
            raise InvalidTokenSequence("sequence may not start with a hold token")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __getitem__(self, i):
        return self.tokens[i]


def tokenize(melody: Melody) -> TokenSequence:
    """Render a melody onto the token grid.

    Each note contributes a note-on code at its onset and holds for the rest
    of its duration.  Silence contributes a rest code at its first step (step
    0, or the first silent step after a note ends) and holds while it lasts.
    """
    total = melody.total_steps
    tokens = [HOLD] * total
    # spans are sorted and never overlap, so a silence can only start at
    # step 0 or where a note ends, and it does unless the next note starts
    # right there
    silent_from = 0
    for span in melody.spans:
        onset = span.onset_step
        if onset > silent_from:
            tokens[silent_from] = REST
        tokens[onset] = span.pitch
        silent_from = onset + span.duration_steps
    if silent_from < total:
        tokens[silent_from] = REST
    return TokenSequence(tuple(tokens), melody.bars)


def token_spans(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The note spans of token rows, as four flat int arrays in row order:
    row index, MIDI pitch, onset step and duration in steps.

    ``rows`` is one or more rows of codes of any lengths: an (n, T) token
    matrix, or a list of token sequences.  A span starts at a note code and
    lasts until the next non-hold code or the end of its row.  The arrays
    are built with array operations over all rows at once, with no
    per-melody object.
    """
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    flat = np.concatenate(rows)
    starts = np.cumsum(lengths) - lengths
    event = flat != HOLD  # a code that ends whatever sounds before it
    event[starts] = True  # so does the start of a row
    pos = np.flatnonzero(event)
    duration = np.diff(pos, append=flat.size)
    note = flat[pos] <= MAX_PITCH
    onset = pos[note]
    row = np.searchsorted(starts, onset, side="right") - 1
    return row, flat[onset], onset - starts[row], duration[note]


def detokenize(seq: TokenSequence, tempo_qpm: float = 120.0) -> Melody:
    """Inverse of :func:`tokenize`; tempo is passed through as metadata."""
    _, pitch, onset, duration = token_spans([seq.tokens])
    spans = map(NoteSpan, pitch.tolist(), onset.tolist(), duration.tolist())
    return Melody(tuple(spans), seq.bars, tempo_qpm)


def step_seconds(tempo_qpm):
    """Length of one grid step (a 16th note) in seconds, for one tempo or
    an array of them."""
    if not np.all(np.asarray(tempo_qpm) > 0):
        raise ValueError(f"tempo must be positive, got {np.min(tempo_qpm)}")
    return 60.0 / (tempo_qpm * STEPS_PER_QUARTER)


_LINE_KEYS = {"bars", "tempo_qpm", "tokens"}
_TOKEN_TEXT = tuple(str(code) for code in range(VOCAB_SIZE))


def to_json_line(seq: TokenSequence, tempo_qpm: float) -> str:
    """The corpus line of one entry: ``json.dumps`` of
    ``{"bars": ..., "tempo_qpm": ..., "tokens": [...]}``, character for
    character, formatted directly from the digits of each code."""
    if type(tempo_qpm) is float and math.isfinite(tempo_qpm):
        tempo = repr(tempo_qpm)  # as JSON writes a finite float
    else:
        tempo = json.dumps(tempo_qpm)
    tokens = ", ".join(map(_TOKEN_TEXT.__getitem__, seq.tokens))
    return f'{{"bars": {seq.bars}, "tempo_qpm": {tempo}, "tokens": [{tokens}]}}'


def from_json_line(line: str) -> tuple[TokenSequence, float]:
    """The (token sequence, tempo) of one corpus line; a line that is not
    a corpus entry raises ``ValueError``."""
    try:
        obj = json.loads(line)
    except RecursionError:  # nested deeper than the parser's stack
        raise InvalidTokenSequence("a corpus line may not nest that deeply") from None
    if type(obj) is not dict or not _LINE_KEYS <= obj.keys():
        raise InvalidTokenSequence("a corpus line must be an object with bars, "
                                   "tempo_qpm and tokens")
    tokens, bars, tempo = obj["tokens"], obj["bars"], obj["tempo_qpm"]
    if type(tokens) is not list or not set(map(type, tokens)) <= {int}:
        raise InvalidTokenSequence("tokens must be a list of integers")
    if type(bars) is not int:
        raise InvalidTokenSequence(f"bars must be an integer, got {bars!r}")
    # an int past the float range would overflow float()
    if type(tempo) not in (int, float) or not 0 < tempo <= sys.float_info.max:
        raise InvalidTokenSequence(f"tempo_qpm must be a finite number > 0, got {tempo!r}")
    return TokenSequence(tuple(tokens), bars), float(tempo)


def save_corpus(path: str | Path, entries: Iterable[tuple[TokenSequence, float]]) -> int:
    """Write (token sequence, tempo) pairs as JSONL; returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for seq, tempo in entries:
            fh.write(to_json_line(seq, tempo))
            fh.write("\n")
            count += 1
    return count


def load_corpus(source: str | Path | bytes) -> list[tuple[TokenSequence, float]]:
    """The (token sequence, tempo) pairs of a JSONL corpus: the file at a
    path, or the bytes of a corpus file that the caller has already read."""
    data = source if isinstance(source, bytes) else Path(source).read_bytes()
    # newline=None splits lines as a file opened in text mode does
    lines = io.StringIO(data.decode("utf-8"), newline=None)
    return [from_json_line(line) for line in map(str.strip, lines) if line]


def melodies_to_entries(melodies: Iterable[Melody]) -> list[tuple[TokenSequence, float]]:
    return [(tokenize(m), m.tempo_qpm) for m in melodies]
