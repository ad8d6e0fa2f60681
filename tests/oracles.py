"""Reference implementations that the fast code paths are tested against.

``reference_features`` computes the feature catalog one melody at a time with
plain numpy calls per feature; ``reference_lowess`` fits every point with a
dense (n, n) weight matrix.  Both are the straightforward forms that the
corpus-wide feature pass and the distinct-value LOWESS replace.
``reference_parse_midi`` reads each track event by event through the generic
helpers, and ``reference_extract_melodies`` rebuilds its notes at every stage
and rescans all of a track's notes for each window: the forms that the tight
track loop and the single-pass extractor replace.  ``reference_check_tokens``
is ``TokenSequence``'s validation as a loop over every token, and
``reference_tokenize`` marks every sounding step before placing the rests:
the forms that the min/max check and the rest-at-note-ends pass replace.
``reference_detokenize`` walks one token sequence step by step, the form
that the corpus-wide ``token_spans`` replaces, and ``reference_phik`` is
one pair's bisection on its own chi-square curve, with its cells from
``reference_bvn_cell_probs`` (one grid at a time): the form that the
lockstep bisection of ``phik_matrix`` replaces.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from latent_lens.features import ARPEGGIATION_INTERVALS, FEATURE_NAMES
from latent_lens.stats import _GL_NODES, _GL_WEIGHTS, _LOG_HALF_PI, _Z_CLIP, chi2, contingency
from latent_lens.melody import (
    HOLD,
    MAX_PITCH,
    REST,
    STEPS_PER_BAR,
    STEPS_PER_QUARTER,
    SUPPORTED_BARS,
    VOCAB_SIZE,
    InvalidTokenSequence,
    Melody,
    NoteSpan,
    step_seconds,
)
from latent_lens.midi import (
    DEFAULT_TEMPO_US,
    PERCUSSION_CHANNEL,
    ExtractionConfig,
    MidiEvent,
    MidiFile,
    MidiParseError,
    NoteOff,
    NoteOn,
    Other,
    TempoChange,
    TimeSignature,
)


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
        s2_fit = s2 - x * (2.0 * s1 - x * s0)  # the second moment about each fit point
        ok = det > 1e-12 * np.maximum(s0 * s2_fit, 1e-300)
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


def _read_vlq(data: bytes, pos: int, end: int) -> tuple[int, int]:
    """Variable-length quantity; returns (value, next position)."""
    value = 0
    for n in range(4):
        if pos >= end:
            raise MidiParseError("truncated variable-length quantity", pos)
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise MidiParseError("variable-length quantity longer than 4 bytes", pos)


def _require(data: bytes, pos: int, count: int, what: str) -> None:
    if pos + count > len(data):
        raise MidiParseError(f"truncated {what}", pos)


_CHANNEL_DATA_BYTES = {0x80: 2, 0x90: 2, 0xA0: 2, 0xB0: 2, 0xC0: 1, 0xD0: 1, 0xE0: 2}


def _parse_track(data: bytes, start: int, end: int) -> list[MidiEvent]:
    events: list[MidiEvent] = []
    pos = start
    tick = 0
    running: int | None = None
    while pos < end:
        delta, pos = _read_vlq(data, pos, end)
        tick += delta
        _require(data, pos, 1, "event")
        status = data[pos]
        if status == 0xFF:
            _require(data, pos, 2, "meta event")
            meta_type = data[pos + 1]
            length, body = _read_vlq(data, pos + 2, end)
            _require(data, body, length, "meta event payload")
            payload = data[body : body + length]
            pos = body + length
            if meta_type == 0x2F:  # end of track
                break
            if meta_type == 0x51 and length == 3:
                us = (payload[0] << 16) | (payload[1] << 8) | payload[2]
                if us == 0:
                    raise MidiParseError("zero tempo", body)
                events.append(MidiEvent(tick, TempoChange(us)))
            elif meta_type == 0x58 and length >= 2:
                events.append(
                    MidiEvent(tick, TimeSignature(payload[0], 1 << payload[1]))
                )
            else:
                events.append(MidiEvent(tick, Other(bytes([status, meta_type]) + payload)))
        elif status in (0xF0, 0xF7):
            length, body = _read_vlq(data, pos + 1, end)
            _require(data, body, length, "sysex payload")
            events.append(MidiEvent(tick, Other(data[pos : body + length])))
            pos = body + length
            running = None  # sysex cancels running status
        else:
            if status & 0x80:
                running = status
                pos += 1
            elif running is None:
                raise MidiParseError("data byte with no running status", pos)
            else:
                status = running
            hi = status & 0xF0
            nbytes = _CHANNEL_DATA_BYTES.get(hi)
            if nbytes is None:
                raise MidiParseError(f"unsupported status byte 0x{status:02x}", pos)
            _require(data, pos, nbytes, "channel event data")
            for k in range(pos, pos + nbytes):
                if data[k] & 0x80:
                    raise MidiParseError(f"channel data byte 0x{data[k]:02x} >= 0x80", k)
            d1 = data[pos]
            d2 = data[pos + 1] if nbytes == 2 else 0
            pos += nbytes
            channel = status & 0x0F
            if hi == 0x90 and d2 > 0:
                events.append(MidiEvent(tick, NoteOn(channel, d1, d2)))
            elif hi == 0x80 or (hi == 0x90 and d2 == 0):
                events.append(MidiEvent(tick, NoteOff(channel, d1)))
            else:
                events.append(MidiEvent(tick, Other(bytes([status, d1, d2][: 1 + nbytes]))))
    return events


def reference_parse_midi(data: bytes) -> MidiFile:
    """``parse_midi`` as a byte-at-a-time track loop."""
    if len(data) < 4 or data[:4] != b"MThd":
        raise MidiParseError("missing MThd magic", 0)
    _require(data, 4, 10, "header chunk")
    header_len = struct.unpack(">I", data[4:8])[0]
    if header_len < 6:
        raise MidiParseError(f"header length {header_len} too short", 4)
    _require(data, 8, header_len, "header chunk")
    fmt, ntracks, division = struct.unpack(">HHH", data[8:14])
    if fmt == 2:
        raise MidiParseError("format 2 files are not supported", 8)
    if fmt not in (0, 1):
        raise MidiParseError(f"unknown format {fmt}", 8)
    if division & 0x8000:
        raise MidiParseError("SMPTE time division is not supported", 12)
    if division == 0:
        raise MidiParseError("zero ticks per quarter", 12)
    pos = 8 + header_len
    tracks: list[list[MidiEvent]] = []
    while pos < len(data) and len(tracks) < ntracks:
        _require(data, pos, 8, "chunk header")
        chunk_id = data[pos : pos + 4]
        length = struct.unpack(">I", data[pos + 4 : pos + 8])[0]
        body = pos + 8
        _require(data, body, length, "chunk body")
        if chunk_id == b"MTrk":
            tracks.append(_parse_track(data, body, body + length))
        # unknown chunk types are skipped, per the SMF spec
        pos = body + length
    if not tracks:
        raise MidiParseError("no MTrk chunks found", pos)
    return MidiFile(fmt, division, tracks)


@dataclass
class _RawNote:
    onset: int  # ticks
    off: int
    pitch: int


def _collect_notes(track: list[MidiEvent]) -> list[_RawNote]:
    """Pair note-ons with note-offs, in stream order; percussion is skipped."""
    notes: list[_RawNote] = []
    open_notes: dict[tuple[int, int], _RawNote] = {}
    last_tick = 0
    for ev in track:
        last_tick = max(last_tick, ev.tick)
        if isinstance(ev.kind, NoteOn):
            if ev.kind.channel == PERCUSSION_CHANNEL:
                continue
            key = (ev.kind.channel, ev.kind.pitch)
            if key in open_notes:
                open_notes[key].off = ev.tick  # retrigger closes the old note
            note = _RawNote(ev.tick, -1, ev.kind.pitch)
            notes.append(note)
            open_notes[key] = note
        elif isinstance(ev.kind, NoteOff):
            key = (ev.kind.channel, ev.kind.pitch)
            note = open_notes.pop(key, None)
            if note is not None and note.off < 0:
                note.off = ev.tick
    for note in open_notes.values():
        if note.off < 0:
            note.off = last_tick
    return [n for n in notes if n.off > n.onset]


def _monophonic(notes: list[_RawNote]) -> list[_RawNote]:
    """Keep the most recently started note, truncating whatever it overlaps."""
    notes = sorted(enumerate(notes), key=lambda p: (p[1].onset, p[0]))
    line: list[_RawNote] = []
    for _, note in notes:
        while line and line[-1].off > note.onset:
            line[-1].off = note.onset
            if line[-1].off <= line[-1].onset:
                line.pop()
            else:
                break
        line.append(_RawNote(note.onset, note.off, note.pitch))
    return line


def _quantize(notes: list[_RawNote], ticks_per_quarter: int) -> list[_RawNote]:
    """Snap onsets/offsets to the nearest 16th step; sub-half-step notes drop."""
    step_ticks = ticks_per_quarter / STEPS_PER_QUARTER
    quantized: list[_RawNote] = []
    for note in notes:
        onset = int(note.onset / step_ticks + 0.5)
        off = int(note.off / step_ticks + 0.5)
        if off <= onset:
            continue
        quantized.append(_RawNote(onset, off, note.pitch))
    # rounding can reintroduce overlaps; resolve in favour of the later note
    resolved: list[_RawNote] = []
    for note in quantized:
        while resolved and resolved[-1].off > note.onset:
            resolved[-1].off = note.onset
            if resolved[-1].off <= resolved[-1].onset:
                resolved.pop()
            else:
                break
        resolved.append(note)
    return resolved


def _file_tempo_qpm(file: MidiFile) -> float:
    for track in file.tracks:
        for ev in sorted(track, key=lambda e: e.tick):
            if isinstance(ev.kind, TempoChange):
                return 60_000_000.0 / ev.kind.microseconds_per_quarter
    return 60_000_000.0 / DEFAULT_TEMPO_US


def _has_four_four(file: MidiFile) -> bool:
    for track in file.tracks:
        for ev in track:
            if isinstance(ev.kind, TimeSignature):
                if ev.kind.numerator == 4 and ev.kind.denominator == 4:
                    return True
    return False


def reference_extract_melodies(file: MidiFile,
                               cfg: ExtractionConfig | None = None) -> list[Melody]:
    """``extract_melodies`` with a rescan of every note per window.

    Windows are scanned from tick 0 in track order, without overlap; a window
    qualifies if it contains at least ``cfg.min_notes`` note onsets.  Notes
    sounding across a window boundary are clipped at the boundary; notes
    starting before it belong to the earlier window.
    """
    cfg = cfg or ExtractionConfig()
    if cfg.require_four_four and not _has_four_four(file):
        return []
    tempo_qpm = _file_tempo_qpm(file)
    window = STEPS_PER_BAR * cfg.bars
    melodies: list[Melody] = []
    for track in file.tracks:
        if len(melodies) >= cfg.max_melodies_per_file:
            break
        notes = _quantize(_monophonic(_collect_notes(track)), file.ticks_per_quarter)
        if not notes:
            continue
        last_end = max(n.off for n in notes)
        for lo in range(0, last_end, window):
            if len(melodies) >= cfg.max_melodies_per_file:
                break
            hi = lo + window
            spans = [
                NoteSpan(n.pitch, n.onset - lo, min(n.off, hi) - n.onset)
                for n in notes
                if lo <= n.onset < hi
            ]
            if len(spans) >= cfg.min_notes:
                melodies.append(Melody(tuple(spans), cfg.bars, tempo_qpm))
    return melodies


def reference_check_tokens(tokens, bars: int) -> tuple[int, ...]:
    """``TokenSequence``'s checks, in its order and with its messages, as one
    loop over the tokens; returns the tokens as ints."""
    tokens = tuple(int(t) for t in tokens)
    if bars not in SUPPORTED_BARS:
        raise InvalidTokenSequence(f"bars must be one of {SUPPORTED_BARS}, got {bars}")
    expected = STEPS_PER_BAR * bars
    if len(tokens) != expected:
        raise InvalidTokenSequence(
            f"expected {expected} tokens for {bars} bars, got {len(tokens)}"
        )
    for i, tok in enumerate(tokens):
        if not 0 <= tok < VOCAB_SIZE:
            raise InvalidTokenSequence(f"token {tok} at step {i} outside 0..129")
    if tokens[0] == HOLD:
        raise InvalidTokenSequence("sequence may not start with a hold token")
    return tokens


def reference_tokenize(melody: Melody) -> tuple[int, ...]:
    """``tokenize``'s codes, from a per-step sounding mask."""
    total = melody.total_steps
    tokens = [HOLD] * total
    sounding = [False] * total
    for span in melody.spans:
        tokens[span.onset_step] = span.pitch
        for step in range(span.onset_step, span.end_step):
            sounding[step] = True
    for step in range(total):
        if not sounding[step] and (step == 0 or sounding[step - 1]):
            tokens[step] = REST
    return tuple(tokens)


def reference_detokenize(tokens) -> list[tuple[int, int, int]]:
    """The (pitch, onset step, duration) spans of one token sequence: a note
    lasts until the next non-hold code or the end of the sequence."""
    spans = []
    cur_pitch = None
    cur_onset = 0
    for step, tok in enumerate(tokens):
        if tok == HOLD:
            continue
        if cur_pitch is not None:
            spans.append((cur_pitch, cur_onset, step - cur_onset))
            cur_pitch = None
        if tok <= MAX_PITCH:
            cur_pitch = tok
            cur_onset = step
    if cur_pitch is not None:
        spans.append((cur_pitch, cur_onset, len(tokens) - cur_onset))
    return spans


def reference_bvn_cell_probs(rho: float, row_edges, col_edges) -> np.ndarray:
    """One grid's bivariate-normal cells, with the quadrature of
    ``stats.bvn_cell_probs`` done for that grid alone: scalar rho, and one
    matrix-vector product per row of corners."""
    from scipy.special import ndtr

    a = np.clip(np.asarray(row_edges, dtype=float), -_Z_CLIP, _Z_CLIP)
    b = np.clip(np.asarray(col_edges, dtype=float), -_Z_CLIP, _Z_CLIP)
    v_lo = math.log(math.acos(abs(rho)))
    width = _LOG_HALF_PI - v_lo
    u = np.exp(v_lo + width * _GL_NODES)
    sign = math.copysign(1.0, rho)
    x, y = a[:, None, None], b[None, :, None]
    expo = (x * x + y * y - 2.0 * sign * x * y * np.cos(u)) / (2.0 * np.sin(u) ** 2)
    integral = sign * width * (np.exp(-expo) @ (u * _GL_WEIGHTS))
    cdf = np.outer(ndtr(a), ndtr(b)) + integral / (2.0 * math.pi)
    return cdf[1:, 1:] - cdf[:-1, 1:] - cdf[1:, :-1] + cdf[:-1, :-1]


def _marginal_z_edges(probs: np.ndarray) -> np.ndarray:
    from scipy.special import ndtri

    cum = np.clip(np.concatenate(([0.0], np.cumsum(probs))), 0.0, 1.0)
    edges = np.empty(cum.size)
    edges[0] = -np.inf
    edges[-1] = np.inf
    edges[1:-1] = ndtri(cum[1:-1])
    return edges


def reference_phik(x, y, n_bins: int, rho_tol: float = 1e-4) -> float:
    """phik of one pair: bisect rho in [0, 1 - rho_tol] until the bracket is
    at most rho_tol wide, for the binned bivariate normal whose chi-square
    against independence equals the observed one (1.0 if even 1 - rho_tol
    falls short, 0.0 for a zero chi-square)."""
    counts = contingency(x, y, n_bins)
    observed = chi2(counts)
    if observed <= 0.0:
        return 0.0
    counts = counts.astype(float)
    n = counts.sum()
    p_row = counts.sum(axis=1) / n
    p_col = counts.sum(axis=0) / n
    row_edges = _marginal_z_edges(p_row)
    col_edges = _marginal_z_edges(p_col)
    indep = np.outer(p_row, p_col)

    def curve(rho: float) -> float:
        q = reference_bvn_cell_probs(rho, row_edges, col_edges)
        return float(n * (((q - indep) ** 2) / indep).sum())

    hi = 1.0 - rho_tol
    if observed >= curve(hi):
        return 1.0
    lo = 0.0
    while hi - lo > rho_tol:
        mid = 0.5 * (lo + hi)
        if curve(mid) < observed:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
