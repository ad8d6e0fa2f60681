import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_lens import midi
from latent_lens.melody import Melody, NoteSpan
from latent_lens.midi import (
    ExtractionConfig,
    MidiParseError,
    NoteOff,
    NoteOn,
    TempoChange,
    TimeSignature,
    extract_melodies,
    parse_midi,
    write_midi,
)

from conftest import random_melody


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
