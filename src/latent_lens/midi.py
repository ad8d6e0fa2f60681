"""Standard MIDI file (SMF) reading, melody extraction, and writing.

The parser handles format 0 and 1 files, running status, and variable-length
delta times; meta and sysex events it does not model are preserved as opaque
``Other`` events.  Extraction reduces each track to a monophonic line, snaps
it to the 16th-note grid, and cuts it into non-overlapping windows of a fixed
bar count.  Writing emits format 0 at 480 ticks per quarter.

Each stage is at most one pass: the parser reads a track in a single loop
over its events, and extraction pairs a track's notes in one pass over its
events, then makes one pass over the onset-sorted notes for each of the
monophonic reduction and the quantization, and finds each window's notes by
bisection.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .melody import (
    STEPS_PER_BAR,
    STEPS_PER_QUARTER,
    SUPPORTED_BARS,
    Melody,
    NoteSpan,
)

PERCUSSION_CHANNEL = 9
DEFAULT_TEMPO_US = 500_000  # 120 qpm
WRITE_TICKS_PER_QUARTER = 480


class MidiParseError(ValueError):
    """Malformed SMF data; carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


@dataclass(frozen=True)
class NoteOn:
    channel: int
    pitch: int
    velocity: int


@dataclass(frozen=True)
class NoteOff:
    channel: int
    pitch: int


@dataclass(frozen=True)
class TempoChange:
    microseconds_per_quarter: int


@dataclass(frozen=True)
class TimeSignature:
    numerator: int
    denominator: int


@dataclass(frozen=True)
class Other:
    """Any event we parse past but do not interpret (raw bytes retained)."""

    data: bytes


EventKind = NoteOn | NoteOff | TempoChange | TimeSignature | Other


@dataclass(slots=True, unsafe_hash=True)
class MidiEvent:
    """One track event at an absolute tick.  Not frozen, because a parse builds
    one per event and a frozen dataclass's constructor costs three times as much."""

    tick: int
    kind: EventKind


@dataclass
class MidiFile:
    format: int
    ticks_per_quarter: int
    tracks: list[list[MidiEvent]]


@dataclass(frozen=True)
class ExtractionConfig:
    bars: int = 2
    max_melodies_per_file: int = 5
    min_notes: int = 3
    require_four_four: bool = True

    def __post_init__(self) -> None:
        if self.bars not in SUPPORTED_BARS:
            raise ValueError(f"bars must be {' or '.join(map(str, SUPPORTED_BARS))}, "
                             f"got {self.bars}")
        if self.max_melodies_per_file < 1:
            raise ValueError("max_melodies_per_file must be >= 1")
        if self.min_notes < 1:
            raise ValueError("min_notes must be >= 1")


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


def _parse_track(data: bytes, start: int, end: int) -> list[MidiEvent]:
    # One loop iteration per event.  The common cases (a one-byte delta, a
    # note message seen before in the track) call no helper; the bounds checks
    # are _require's, inline.  Event kinds are immutable, so equal two-byte
    # channel messages in a track share one object, keyed by the message's
    # bytes packed into an int.  Files that repeat their messages (a fixed
    # velocity, note-offs as velocity-0 note-ons) hit it for most events; a
    # miss costs one dict probe and insert on top of building the kind.
    events: list[MidiEvent] = []
    kinds: dict[int, EventKind] = {}
    append = events.append
    size = len(data)
    pos = start
    tick = 0
    running: int | None = None
    while pos < end:
        delta = data[pos]
        if delta < 0x80:
            pos += 1
        else:
            delta, pos = _read_vlq(data, pos, end)
        tick += delta
        if pos >= size:
            raise MidiParseError("truncated event", pos)
        status = data[pos]
        if status < 0xF0:
            if status & 0x80:
                running = status
                pos += 1
            elif running is None:
                raise MidiParseError("data byte with no running status", pos)
            else:
                status = running
            if (status & 0xE0) == 0xC0:  # program change, channel pressure: one data byte
                if pos >= size:
                    raise MidiParseError("truncated channel event data", pos)
                d1 = data[pos]
                if d1 & 0x80:
                    raise MidiParseError(f"channel data byte 0x{d1:02x} >= 0x80", pos)
                pos += 1
                append(MidiEvent(tick, Other(bytes((status, d1)))))
                continue
            if pos + 2 > size:
                raise MidiParseError("truncated channel event data", pos)
            d1 = data[pos]
            d2 = data[pos + 1]
            if (d1 | d2) & 0x80:
                if d1 & 0x80:
                    raise MidiParseError(f"channel data byte 0x{d1:02x} >= 0x80", pos)
                raise MidiParseError(f"channel data byte 0x{d2:02x} >= 0x80", pos + 1)
            pos += 2
            key = (status << 16) | (d1 << 8) | d2
            kind = kinds.get(key)
            if kind is None:
                hi = status & 0xF0
                if hi == 0x90 and d2:
                    kind = NoteOn(status & 0x0F, d1, d2)
                elif hi == 0x80 or hi == 0x90:
                    kind = NoteOff(status & 0x0F, d1)
                else:
                    kind = Other(bytes((status, d1, d2)))
                kinds[key] = kind
            append(MidiEvent(tick, kind))
        elif status == 0xFF:
            if pos + 2 > size:
                raise MidiParseError("truncated meta event", pos)
            meta_type = data[pos + 1]
            length, body = _read_vlq(data, pos + 2, end)
            pos = body + length
            if pos > size:
                raise MidiParseError("truncated meta event payload", body)
            if meta_type == 0x2F:  # end of track
                break
            payload = data[body:pos]
            if meta_type == 0x51 and length == 3:
                us = (payload[0] << 16) | (payload[1] << 8) | payload[2]
                if us == 0:
                    raise MidiParseError("zero tempo", body)
                append(MidiEvent(tick, TempoChange(us)))
            elif meta_type == 0x58 and length >= 2:
                append(MidiEvent(tick, TimeSignature(payload[0], 1 << payload[1])))
            else:
                append(MidiEvent(tick, Other(bytes((status, meta_type)) + payload)))
        elif status == 0xF0 or status == 0xF7:
            length, body = _read_vlq(data, pos + 1, end)
            if body + length > size:
                raise MidiParseError("truncated sysex payload", body)
            append(MidiEvent(tick, Other(data[pos : body + length])))
            pos = body + length
            running = None  # sysex cancels running status
        else:
            raise MidiParseError(f"unsupported status byte 0x{status:02x}", pos + 1)
    return events


def parse_midi(data: bytes) -> MidiFile:
    """Decode an SMF byte string into header info plus per-track event lists."""
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


# A note is a mutable [onset, off, pitch] list: ticks after collection, grid
# steps after quantization.


def _collect_notes(track: list[MidiEvent]) -> list[list[int]]:
    """Pair note-ons with note-offs, in stream order; percussion is skipped."""
    notes: list[list[int]] = []
    open_notes: dict[tuple[int, int], list[int]] = {}
    for ev in track:
        tick = ev.tick
        kind = ev.kind
        if isinstance(kind, NoteOn):
            if kind.channel == PERCUSSION_CHANNEL:
                continue
            key = (kind.channel, kind.pitch)
            old = open_notes.get(key)
            if old is not None:
                old[1] = tick  # retrigger closes the old note
            note = [tick, -1, kind.pitch]
            notes.append(note)
            open_notes[key] = note
        elif isinstance(kind, NoteOff):
            note = open_notes.pop((kind.channel, kind.pitch), None)
            if note is not None:
                note[1] = tick
    if open_notes:  # notes never released end at the track's last tick
        last_tick = max(0, max(ev.tick for ev in track))
        for note in open_notes.values():
            note[1] = last_tick
    return [n for n in notes if n[1] > n[0]]


def _later_wins(notes: list[list[int]]) -> list[list[int]]:
    """Resolve overlaps among onset-ordered notes: each note truncates the one
    sounding before it, which is dropped if nothing of it is left."""
    line: list[list[int]] = []
    for note in notes:
        onset = note[0]
        while line and line[-1][1] > onset:
            prev = line[-1]
            prev[1] = onset
            if onset <= prev[0]:
                line.pop()
            else:
                break
        line.append(note)
    return line


def _monophonic(notes: list[list[int]]) -> list[list[int]]:
    """Keep the most recently started note, truncating whatever it overlaps."""
    notes.sort(key=itemgetter(0))  # stable: same-onset notes keep stream order
    return _later_wins(notes)


def _quantize(notes: list[list[int]], ticks_per_quarter: int) -> list[list[int]]:
    """Snap onsets/offsets to the nearest 16th step; sub-half-step notes drop."""
    step_ticks = ticks_per_quarter / STEPS_PER_QUARTER
    quantized = []
    for onset, off, pitch in notes:
        onset = int(onset / step_ticks + 0.5)
        off = int(off / step_ticks + 0.5)
        if off > onset:
            quantized.append([onset, off, pitch])
    # rounding can reintroduce overlaps
    return _later_wins(quantized)


def _file_tempo_qpm(file: MidiFile) -> float:
    """The earliest tempo of the first track that has one (stream order
    breaks ties), else 120 qpm."""
    for track in file.tracks:
        tempos = [ev for ev in track if isinstance(ev.kind, TempoChange)]
        if tempos:
            first = min(tempos, key=attrgetter("tick"))
            return 60_000_000.0 / first.kind.microseconds_per_quarter
    return 60_000_000.0 / DEFAULT_TEMPO_US


def _has_four_four(file: MidiFile) -> bool:
    for track in file.tracks:
        for ev in track:
            if isinstance(ev.kind, TimeSignature):
                if ev.kind.numerator == 4 and ev.kind.denominator == 4:
                    return True
    return False


def extract_melodies(file: MidiFile, cfg: ExtractionConfig | None = None) -> list[Melody]:
    """Cut quantized monophonic windows of ``cfg.bars`` bars out of a file.

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
    onset_of = itemgetter(0)
    melodies: list[Melody] = []
    for track in file.tracks:
        if len(melodies) >= cfg.max_melodies_per_file:
            break
        notes = _quantize(_monophonic(_collect_notes(track)), file.ticks_per_quarter)
        # the notes are onset-ordered, so each window's are a slice, found by
        # bisection; notes before step 0 belong to no window
        start = bisect_left(notes, 0, key=onset_of)
        while start < len(notes) and len(melodies) < cfg.max_melodies_per_file:
            lo = notes[start][0] // window * window
            hi = lo + window
            stop = bisect_left(notes, hi, start, key=onset_of)
            if stop - start >= cfg.min_notes:
                spans = tuple(
                    NoteSpan(pitch, onset - lo, min(off, hi) - onset)
                    for onset, off, pitch in notes[start:stop]
                )
                melodies.append(Melody(spans, cfg.bars, tempo_qpm))
            start = stop
    return melodies


def _vlq(value: int) -> bytes:
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(chunks))


def write_midi(melody: Melody) -> bytes:
    """Emit a format 0 SMF at 480 ticks per quarter for one melody."""
    ticks_per_step = WRITE_TICKS_PER_QUARTER // STEPS_PER_QUARTER
    us_per_quarter = round(60_000_000.0 / melody.tempo_qpm)
    # (tick, order, payload): note-offs sort before note-ons at the same tick
    timed: list[tuple[int, int, bytes]] = [
        (0, 0, bytes([0xFF, 0x58, 0x04, 0x04, 0x02, 0x18, 0x08])),
        (0, 0, bytes([0xFF, 0x51, 0x03]) + us_per_quarter.to_bytes(3, "big")),
    ]
    for span in melody.spans:
        timed.append((span.onset_step * ticks_per_step, 1, bytes([0x90, span.pitch, 96])))
        timed.append((span.end_step * ticks_per_step, 0, bytes([0x80, span.pitch, 0])))
    timed.sort(key=lambda t: (t[0], t[1]))
    body = bytearray()
    prev_tick = 0
    for tick, _, payload in timed:
        body.extend(_vlq(tick - prev_tick))
        body.extend(payload)
        prev_tick = tick
    body.extend(_vlq(0))
    body.extend(bytes([0xFF, 0x2F, 0x00]))
    header = struct.pack(">4sIHHH", b"MThd", 6, 0, 1, WRITE_TICKS_PER_QUARTER)
    track = struct.pack(">4sI", b"MTrk", len(body)) + bytes(body)
    return header + track
