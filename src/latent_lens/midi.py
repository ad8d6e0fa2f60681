"""Standard MIDI file (SMF) reading, melody extraction, and writing.

The parser handles format 0 and 1 files, running status, and variable-length
delta times; meta and sysex events it does not model are preserved as opaque
``Other`` events.  Extraction reduces each track to a monophonic line, snaps
it to the 16th-note grid, and cuts it into non-overlapping windows of a fixed
bar count.  Writing emits format 0 at 480 ticks per quarter.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .melody import (
    STEPS_PER_BAR,
    STEPS_PER_QUARTER,
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


@dataclass(frozen=True)
class MidiEvent:
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
        if self.bars not in (2, 16):
            raise ValueError(f"bars must be 2 or 16, got {self.bars}")
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


def parse_midi(data: bytes) -> MidiFile:
    """Decode an SMF byte string into header info plus per-track event lists."""
    if len(data) < 4 or data[:4] != b"MThd":
        raise MidiParseError("missing MThd magic", 0)
    _require(data, 4, 10, "header chunk")
    header_len = struct.unpack(">I", data[4:8])[0]
    if header_len < 6:
        raise MidiParseError(f"header length {header_len} too short", 4)
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
