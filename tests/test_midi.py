import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latent_lens import midi
from latent_lens.melody import Melody, NoteSpan
from latent_lens.midi import (
    ExtractionConfig,
    MidiEvent,
    MidiFile,
    MidiParseError,
    NoteOff,
    NoteOn,
    Other,
    TempoChange,
    TimeSignature,
    extract_melodies,
    parse_midi,
    write_midi,
)

from conftest import random_melody
from oracles import reference_extract_melodies, reference_parse_midi


def mthd(fmt=0, ntracks=1, tpq=480) -> bytes:
    return struct.pack(">4sIHHH", b"MThd", 6, fmt, ntracks, tpq)


def mtrk(body: bytes) -> bytes:
    body = body + bytes([0x00, 0xFF, 0x2F, 0x00])
    return struct.pack(">4sI", b"MTrk", len(body)) + body


FOUR_FOUR = bytes([0x00, 0xFF, 0x58, 0x04, 0x04, 0x02, 0x18, 0x08])
TEMPO_120 = bytes([0x00, 0xFF, 0x51, 0x03]) + (500_000).to_bytes(3, "big")


def test_parse_minimal_note_pair():
    body = bytes([0x00, 0x90, 60, 96]) + bytes([0x83, 0x60, 0x80, 60, 0])
    data = mthd() + mtrk(body)
    parsed = parse_midi(data)
    assert parsed.format == 0
    assert parsed.ticks_per_quarter == 480
    assert len(parsed.tracks) == 1
    events = parsed.tracks[0]
    assert events[0].tick == 0 and events[0].kind == NoteOn(0, 60, 96)
    assert events[1].tick == 480 and events[1].kind == NoteOff(0, 60)


def test_running_status_parses_identically():
    # second event omits its status byte: note-on with velocity 0 is note-off
    explicit = mthd() + mtrk(
        bytes([0x00, 0x90, 60, 96]) + bytes([0x83, 0x60, 0x90, 60, 0])
    )
    running = mthd() + mtrk(bytes([0x00, 0x90, 60, 96]) + bytes([0x83, 0x60, 60, 0]))
    assert parse_midi(explicit).tracks == parse_midi(running).tracks


def test_truncated_header_reports_offset():
    with pytest.raises(MidiParseError) as exc:
        parse_midi(b"MThd\x00\x00")
    assert "byte 4" in str(exc.value)
    assert exc.value.offset == 4


def test_oversized_header_length_reports_header():
    data = bytearray(mthd() + mtrk(bytes([0x00, 0x90, 60, 96, 0x83, 0x60, 0x80, 60, 0])))
    data[4:8] = struct.pack(">I", 0xD1000000)
    with pytest.raises(MidiParseError) as exc:
        parse_midi(bytes(data))
    assert "header chunk" in str(exc.value)
    assert exc.value.offset <= len(data)


def test_bad_magic():
    with pytest.raises(MidiParseError) as exc:
        parse_midi(b"RIFFxxxx")
    assert exc.value.offset == 0


def test_format2_rejected():
    with pytest.raises(MidiParseError):
        parse_midi(mthd(fmt=2) + mtrk(b""))


def test_truncated_track_chunk():
    data = mthd() + struct.pack(">4sI", b"MTrk", 100) + b"\x00"
    with pytest.raises(MidiParseError):
        parse_midi(data)


def test_tempo_and_timesig_events():
    body = TEMPO_120 + FOUR_FOUR
    events = parse_midi(mthd() + mtrk(body)).tracks[0]
    assert events[0].kind == TempoChange(500_000)
    assert events[1].kind == TimeSignature(4, 4)


def test_unknown_meta_preserved_as_other():
    body = bytes([0x00, 0xFF, 0x01, 0x03]) + b"abc"  # text event
    events = parse_midi(mthd() + mtrk(body)).tracks[0]
    assert isinstance(events[0].kind, midi.Other)
    assert events[0].kind.data.endswith(b"abc")


def test_midi_event_value_semantics():
    event = MidiEvent(96, NoteOn(0, 60, 100))
    same = MidiEvent(tick=96, kind=NoteOn(channel=0, pitch=60, velocity=100))
    assert event == same and not event != same
    assert event != MidiEvent(97, NoteOn(0, 60, 100))
    assert event != MidiEvent(96, NoteOff(0, 60))
    # a plain (tick, kind) tuple is not an event, from either side
    pair = (96, NoteOn(0, 60, 100))
    assert event.__eq__(pair) is NotImplemented
    assert event != pair and pair != event
    assert hash(event) == hash(same) == hash(pair)
    other = MidiEvent(0, Other(b"\xff\x01"))
    assert {event, same, other} == {same, other}
    assert same in {event} and pair not in {event}
    assert repr(event) == "MidiEvent(tick=96, kind=NoteOn(channel=0, pitch=60, velocity=100))"
    assert MidiEvent.__slots__ == ("tick", "kind") and not hasattr(event, "__dict__")
    same.tick = 97  # not frozen: it hashes and compares by its fields as they are now
    assert same != event and hash(same) == hash((97, NoteOn(0, 60, 100)))


def vlq(v: int) -> bytes:
    assert v >= 0
    out = [v & 0x7F]
    v >>= 7
    while v:
        out.append(0x80 | (v & 0x7F))
        v >>= 7
    return bytes(reversed(out))


def note_pair(pitch: int, on_tick: int, off_tick: int, prev_tick: int) -> bytes:
    return (
        vlq(on_tick - prev_tick)
        + bytes([0x90, pitch, 90])
        + vlq(off_tick - on_tick)
        + bytes([0x80, pitch, 0])
    )


def scale_file() -> bytes:
    # C major scale up and back: 16 quarter notes at 480 tpq = 4 bars
    pitches = [60, 62, 64, 65, 67, 69, 71, 72, 72, 71, 69, 67, 65, 64, 62, 60]
    body = bytearray(TEMPO_120 + FOUR_FOUR)
    tick = 0
    for p in pitches:
        body += note_pair(p, tick, tick + 480, tick)
        tick += 480
    return mthd() + mtrk(bytes(body))


def test_extract_scale_two_windows():
    parsed = parse_midi(scale_file())
    melodies = extract_melodies(parsed, ExtractionConfig(bars=2))
    assert len(melodies) == 2
    for mel in melodies:
        assert len(mel.spans) == 8
        assert [s.onset_step for s in mel.spans] == [0, 4, 8, 12, 16, 20, 24, 28]
        assert all(s.duration_steps == 4 for s in mel.spans)
        assert mel.tempo_qpm == pytest.approx(120.0)
    assert [s.pitch for s in melodies[0].spans] == [60, 62, 64, 65, 67, 69, 71, 72]
    assert [s.pitch for s in melodies[1].spans] == [72, 71, 69, 67, 65, 64, 62, 60]


def test_extract_requires_four_four():
    # same notes but with a 3/4 time signature
    pitches = [60, 62, 64, 65]
    body = bytearray(bytes([0x00, 0xFF, 0x58, 0x04, 0x03, 0x02, 0x18, 0x08]))
    tick = 0
    for p in pitches:
        body += note_pair(p, tick, tick + 480, tick)
        tick += 480
    parsed = parse_midi(mthd() + mtrk(bytes(body)))
    assert extract_melodies(parsed, ExtractionConfig()) == []
    got = extract_melodies(parsed, ExtractionConfig(require_four_four=False))
    assert len(got) == 1


def test_extract_chord_keeps_later_pitch():
    # two simultaneous notes: the one later in the stream wins
    body = bytearray(FOUR_FOUR)
    body += bytes([0x00, 0x90, 60, 90])
    body += bytes([0x00, 0x90, 64, 90])
    body += bytes([0x83, 0x60, 0x80, 60, 0])  # off at 480
    body += bytes([0x00, 0x80, 64, 0])
    # follow-on notes so the window qualifies
    body += note_pair(67, 480, 960, 480)
    body += note_pair(72, 960, 1440, 960)
    parsed = parse_midi(mthd() + mtrk(bytes(body)))
    melodies = extract_melodies(parsed, ExtractionConfig())
    assert len(melodies) == 1
    assert [s.pitch for s in melodies[0].spans] == [64, 67, 72]


def test_extract_overlap_truncates_previous():
    # on60@0, on64@480 (truncates 60), off60@960 ignored, off64@960, 67 after
    body = bytearray(FOUR_FOUR)
    body += vlq(0) + bytes([0x90, 60, 90])
    body += vlq(480) + bytes([0x90, 64, 90])
    body += vlq(480) + bytes([0x80, 60, 0])
    body += vlq(0) + bytes([0x80, 64, 0])
    body += note_pair(67, 960, 1440, 960)
    parsed = parse_midi(mthd() + mtrk(bytes(body)))
    melodies = extract_melodies(parsed, ExtractionConfig())
    assert len(melodies) == 1
    spans = melodies[0].spans
    assert [(s.pitch, s.onset_step, s.duration_steps) for s in spans] == [
        (60, 0, 4),
        (64, 4, 4),
        (67, 8, 4),
    ]


def test_extract_determinism():
    data = scale_file()
    a = extract_melodies(parse_midi(data), ExtractionConfig())
    b = extract_melodies(parse_midi(data), ExtractionConfig())
    assert a == b


def test_max_melodies_per_file():
    parsed = parse_midi(scale_file())
    got = extract_melodies(parsed, ExtractionConfig(max_melodies_per_file=1))
    assert len(got) == 1


def test_write_single_note_roundtrip():
    mel = Melody((NoteSpan(60, 0, 4),), 2, 120.0)
    data = write_midi(mel)
    parsed = parse_midi(data)
    assert parsed.ticks_per_quarter == 480
    notes = [ev for ev in parsed.tracks[0] if isinstance(ev.kind, (NoteOn, NoteOff))]
    assert notes[0].kind == NoteOn(0, 60, 96) and notes[0].tick == 0
    assert notes[1].kind == NoteOff(0, 60) and notes[1].tick == 480


def test_write_empty_melody():
    data = write_midi(Melody((), 2, 120.0))
    parsed = parse_midi(data)
    assert all(
        not isinstance(ev.kind, (NoteOn, NoteOff)) for ev in parsed.tracks[0]
    )


def test_write_parse_extract_roundtrip_random():
    rng = np.random.default_rng(4321)
    cfg = ExtractionConfig(min_notes=1, max_melodies_per_file=1)
    for _ in range(60):
        mel = random_melody(rng)
        if not mel.spans:
            continue
        back = extract_melodies(parse_midi(write_midi(mel)), cfg)
        assert len(back) == 1
        assert back[0].spans == mel.spans


# ---------------------------------------------------------------- robustness

def _mutated_scale(edits) -> bytes:
    data = bytearray(scale_file())
    for where, value in edits:
        data[where % len(data)] = value
    return bytes(data)


_byte = st.integers(0, 255)
_event = st.one_of(
    st.tuples(_byte, _byte).map(lambda d: bytes([0x00, 0x90, *d])),
    st.tuples(_byte, _byte).map(lambda d: bytes([0x83, 0x60, 0x80, *d])),
    st.tuples(_byte, _byte, _byte).map(lambda d: bytes([0x00, 0xFF, 0x51, 0x03, *d])),
    st.tuples(_byte, _byte).map(lambda d: bytes([0x00, 0xFF, 0x58, 0x04, *d, 0x18, 0x08])),
    st.binary(max_size=4),
)
_smf_like = st.one_of(
    st.binary(max_size=200),
    st.lists(_event, max_size=12).map(lambda events: mthd() + mtrk(b"".join(events))),
    st.lists(st.tuples(st.integers(0, 10_000), _byte), max_size=4).map(_mutated_scale),
)


@settings(max_examples=600, deadline=None)
@given(_smf_like)
def test_any_bytes_raise_only_parse_errors(data):
    try:
        parsed = parse_midi(data)
    except MidiParseError:
        return
    for cfg in (ExtractionConfig(), ExtractionConfig(bars=16, require_four_four=False)):
        extract_melodies(parsed, cfg)


def test_data_byte_with_high_bit_rejected_at_its_offset():
    mel = Melody((NoteSpan(60, 0, 4), NoteSpan(64, 4, 4), NoteSpan(67, 8, 8)), 2, 120.0)
    data = bytearray(write_midi(mel))
    at = data.index(0x90) + 1
    data[at] = 200
    with pytest.raises(MidiParseError) as exc:
        parse_midi(bytes(data))
    assert exc.value.offset == at


def test_zero_tempo_rejected():
    body = bytes([0x00, 0xFF, 0x51, 0x03, 0, 0, 0]) + FOUR_FOUR
    with pytest.raises(MidiParseError) as exc:
        parse_midi(mthd() + mtrk(body))
    assert exc.value.offset == len(mthd()) + 8 + 4  # the tempo payload


# ------------------------------------------------------- against the oracles

_CONFIGS = [
    ExtractionConfig(),
    ExtractionConfig(bars=16, require_four_four=False),
    ExtractionConfig(max_melodies_per_file=1, min_notes=1, require_four_four=False),
]


def _parse_or_error(parse, data):
    try:
        return parse(data), None
    except MidiParseError as err:
        return None, (str(err), err.offset)


# one-data-byte messages (program change, channel pressure), also under
# running status and cut short
_ONE_BYTE_EVENTS = bytes([0x00, 0xC0, 5, 0x00, 6, 0x00, 0x90, 60, 90, 0x10, 0xD1, 40])


@settings(max_examples=600, deadline=None)
@given(_smf_like)
@example(mthd() + mtrk(_ONE_BYTE_EVENTS))
@example(mthd() + struct.pack(">4sI", b"MTrk", 2) + bytes([0x00, 0xC0]))
def test_parse_matches_reference(data):
    got, got_err = _parse_or_error(parse_midi, data)
    want, want_err = _parse_or_error(reference_parse_midi, data)
    assert got == want and got_err == want_err
    if got is not None:
        for cfg in _CONFIGS:
            assert extract_melodies(got, cfg) == reference_extract_melodies(want, cfg)


_kind = st.one_of(
    st.builds(NoteOn, st.sampled_from([0, 1, 9]), st.integers(58, 62), st.integers(1, 127)),
    st.builds(NoteOff, st.sampled_from([0, 1, 9]), st.integers(58, 62)),
    st.builds(TempoChange, st.integers(1, 2_000_000)),
    st.builds(TimeSignature, st.sampled_from([3, 4]), st.sampled_from([4, 8])),
    st.just(Other(b"\xb0\x07\x64")),
)
# unsorted, sometimes negative ticks: a hand-built file need not be in stream order
_track = st.lists(st.builds(MidiEvent, st.integers(-40, 1200), _kind), max_size=40)
_midi_file = st.builds(
    MidiFile, st.just(1), st.sampled_from([1, 3, 4, 24, 96]), st.lists(_track, max_size=2))
_config = st.builds(
    ExtractionConfig,
    bars=st.sampled_from([2, 16]),
    max_melodies_per_file=st.sampled_from([1, 2, 5]),
    min_notes=st.sampled_from([1, 3]),
    require_four_four=st.booleans(),
)
_FOUR_FOUR = MidiEvent(0, TimeSignature(4, 4))
# retrigger, same-onset chord, overlap, percussion and a note across the
# step-32 window edge in one track; a second track with its own tempo
_EDGE_CASES = MidiFile(1, 4, [
    [
        _FOUR_FOUR, MidiEvent(0, NoteOn(0, 60, 90)), MidiEvent(4, NoteOn(0, 60, 90)),
        MidiEvent(8, NoteOn(0, 67, 90)), MidiEvent(8, NoteOn(0, 64, 90)),
        MidiEvent(10, NoteOn(9, 36, 90)), MidiEvent(12, NoteOn(1, 62, 90)),
        MidiEvent(14, NoteOff(0, 64)), MidiEvent(30, NoteOn(0, 65, 90)),
        MidiEvent(40, NoteOff(0, 65)), MidiEvent(36, NoteOn(0, 69, 90)),
    ],
    [MidiEvent(5, TempoChange(400_000)), MidiEvent(2, NoteOn(0, 50, 90)),
     MidiEvent(70, NoteOff(0, 50)), MidiEvent(1, TempoChange(600_000))],
])


@settings(max_examples=600, deadline=None)
@given(_midi_file, _config)
@example(_EDGE_CASES, ExtractionConfig(min_notes=1))
@example(_EDGE_CASES, ExtractionConfig(bars=16, min_notes=1))
@example(_EDGE_CASES, ExtractionConfig(max_melodies_per_file=1, min_notes=1))
def test_extract_matches_reference(file, cfg):
    if cfg.require_four_four:
        file = MidiFile(file.format, file.ticks_per_quarter,
                        [[_FOUR_FOUR, *track] for track in file.tracks])
    assert extract_melodies(file, cfg) == reference_extract_melodies(file, cfg)
