import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latent_lens import melody
from latent_lens.melody import (
    HOLD,
    REST,
    STEPS_PER_BAR,
    VOCAB_SIZE,
    InvalidMelody,
    InvalidTokenSequence,
    Melody,
    NoteSpan,
    TokenSequence,
    detokenize,
    token_spans,
    tokenize,
)

from conftest import random_melody
from oracles import reference_check_tokens, reference_detokenize, reference_tokenize


def test_tokenize_single_quarter_note():
    m = Melody((NoteSpan(60, 0, 4),), 2, 120.0)
    seq = tokenize(m)
    assert len(seq) == 32
    assert seq.tokens[:5] == (60, HOLD, HOLD, HOLD, REST)
    assert seq.tokens[5:] == (HOLD,) * 27


def test_tokenize_all_silence():
    seq = tokenize(Melody((), 2, 120.0))
    assert seq.tokens == (REST,) + (HOLD,) * 31


def test_tokenize_rest_between_notes():
    m = Melody((NoteSpan(60, 0, 2), NoteSpan(62, 4, 28)), 2, 120.0)
    seq = tokenize(m)
    assert seq.tokens[:5] == (60, HOLD, REST, HOLD, 62)


TWINKLE_PITCHES = (60, 60, 67, 67, 69, 69, 67, 65, 65, 64, 64, 62, 62, 60)


def twinkle_melody() -> Melody:
    # 14 notes filling exactly 2 bars: eighth notes (2 steps) except the
    # phrase-ending long notes at positions 7 and 14 (4 steps).
    spans = []
    pos = 0
    for i, pitch in enumerate(TWINKLE_PITCHES):
        dur = 4 if i in (6, 13) else 2
        spans.append(NoteSpan(pitch, pos, dur))
        pos += dur
    assert pos == 32
    return Melody(tuple(spans), 2, 100.0)


def test_tokenize_twinkle_hand_transcription():
    m = twinkle_melody()
    seq = tokenize(m)
    # hand-derived onset steps: every 2 steps, with a 4-step note mid-phrase
    expected_onsets = (0, 2, 4, 6, 8, 10, 12, 16, 18, 20, 22, 24, 26, 28)
    onsets = tuple(i for i, t in enumerate(seq) if t <= 127)
    assert onsets == expected_onsets
    assert tuple(seq[i] for i in onsets) == TWINKLE_PITCHES
    assert REST not in seq.tokens  # melody covers both bars fully
    # verified by the inverse map
    assert detokenize(seq, m.tempo_qpm) == m


def test_detokenize_single_held_note():
    seq = TokenSequence((60,) + (HOLD,) * 31, 2)
    m = detokenize(seq, 120.0)
    assert m.spans == (NoteSpan(60, 0, 32),)


def test_detokenize_all_rest():
    seq = TokenSequence((REST,) + (HOLD,) * 31, 2)
    assert detokenize(seq, 120.0).spans == ()


def test_leading_hold_rejected():
    with pytest.raises(InvalidTokenSequence):
        TokenSequence((HOLD,) + (REST,) * 31, 2)


def test_roundtrip_seeded_random_melodies():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        bars = 2 if rng.random() < 0.9 else 16
        m = random_melody(rng, bars)
        seq = tokenize(m)
        assert all(0 <= t < melody.VOCAB_SIZE for t in seq)
        assert detokenize(seq, m.tempo_qpm) == m


def test_tokenize_random_token_sequences_roundtrip_other_direction():
    # token -> melody -> token is also the identity for valid sequences
    rng = np.random.default_rng(99)
    for _ in range(200):
        toks = [int(rng.integers(0, 130)) for _ in range(32)]
        while toks[0] == HOLD:
            toks[0] = int(rng.integers(0, 129))
        seq = TokenSequence(tuple(toks), 2)
        assert tokenize(detokenize(seq, 120.0)) == seq


def test_monophony_of_reconstruction():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = random_melody(rng)
        covered = np.zeros(m.total_steps, dtype=int)
        for s in m.spans:
            covered[s.onset_step : s.end_step] += 1
        assert covered.max() <= 1


def test_melody_invariants():
    with pytest.raises(InvalidMelody):
        Melody((NoteSpan(60, 0, 4), NoteSpan(62, 2, 4)), 2, 120.0)  # overlap
    with pytest.raises(InvalidMelody):
        Melody((NoteSpan(60, 30, 4),), 2, 120.0)  # runs past the end
    with pytest.raises(InvalidMelody):
        NoteSpan(128, 0, 1)
    with pytest.raises(InvalidMelody):
        NoteSpan(60, 0, 0)
    with pytest.raises(InvalidMelody):
        Melody((), 3, 120.0)


def test_sequence_invariants():
    with pytest.raises(InvalidTokenSequence):
        TokenSequence((60,) * 31, 2)  # wrong length
    with pytest.raises(InvalidTokenSequence):
        TokenSequence((130,) + (HOLD,) * 31, 2)  # out of vocabulary


# values a caller may pass as a token: ints out of the vocabulary, numpy
# scalars, bools, and floats (truncated by int(); NaN and inf raise)
_ODD_TOKENS = st.one_of(
    st.integers(-1000, -1),
    st.integers(VOCAB_SIZE, 1000),
    st.just(HOLD),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-5, VOCAB_SIZE + 5).map(np.int16),
    st.integers(0, VOCAB_SIZE - 1).map(np.int64),
    st.floats(-5.0, 140.0).map(np.float32),
    st.booleans().map(np.bool_),
)


@st.composite
def _token_inputs(draw):
    """(tokens, bars): mostly valid sequences with up to three odd tokens,
    sometimes one token too few or too many, sometimes unsupported bars."""
    bars = draw(st.sampled_from([2, 2, 16, 3]))
    length = STEPS_PER_BAR * (2 if bars == 3 else bars) + draw(
        st.sampled_from([0, 0, 0, -1, 1]))
    tokens = draw(st.lists(st.integers(0, VOCAB_SIZE - 1), min_size=length,
                           max_size=length))
    for _ in range(draw(st.integers(0, 3))):
        tokens[draw(st.integers(0, length - 1))] = draw(_ODD_TOKENS)
    container = draw(st.sampled_from([tuple, list, np.array]))
    return container(tokens), bars


def _check_outcome(check, tokens, bars):
    try:
        return check(tokens, bars), None
    except Exception as err:  # the exception type and message are compared
        return None, (type(err), str(err))


_VALID = (60,) + (HOLD,) * 31


@settings(max_examples=300, deadline=None)
@given(_token_inputs())
@example((np.array(_VALID), 2))
@example((np.array(_VALID, dtype=np.uint8), 2))
@example(((HOLD,) + _VALID[1:], 2))
@example((_VALID[:5] + (-1,) + _VALID[6:], 2))
@example((_VALID[:5] + (130,) + _VALID[6:-1] + (-3,), 2))
@example((_VALID[:5] + (True, 128.9) + _VALID[7:], 2))
@example((_VALID[:31], 2))
@example((_VALID * 8, 16))
@example((_VALID, 4))
def test_token_check_matches_reference(case):
    tokens, bars = case
    got = _check_outcome(lambda t, b: TokenSequence(t, b).tokens, tokens, bars)
    want = _check_outcome(reference_check_tokens, tokens, bars)
    assert got == want
    if got[0] is not None:
        assert all(type(t) is int for t in got[0])


@st.composite
def _melodies(draw):
    """Melodies from (gap, duration, pitch) triples: back-to-back notes, rests
    of every length, the empty melody and notes that reach the last step."""
    bars = draw(st.sampled_from([2, 16]))
    total = STEPS_PER_BAR * bars
    spans, end = [], 0
    triples = st.tuples(st.integers(0, 4), st.integers(1, 8), st.integers(0, 127))
    for gap, duration, pitch in draw(st.lists(triples, max_size=total)):
        onset = end + gap
        if onset >= total:
            break
        end = min(onset + duration, total)
        spans.append(NoteSpan(pitch, onset, end - onset))
    return Melody(tuple(spans), bars)


@settings(max_examples=300, deadline=None)
@given(_melodies())
def test_tokenize_matches_reference(m):
    assert tokenize(m).tokens == reference_tokenize(m)


_HOLDS = ", 129" * 31
# corpus lines that are JSON but not a corpus entry, by test id
MALFORMED_LINES = {
    "array": "[1, 2, 3]",
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
    "no-tokens": '{"bars": 2, "tempo_qpm": 120.0}',
    "tokens-not-a-list": '{"bars": 2, "tempo_qpm": 120.0, "tokens": 5}',
    "fractional-token": '{"bars": 2, "tempo_qpm": 120.0, "tokens": [60.7%s]}' % _HOLDS,
    "boolean-token": '{"bars": 2, "tempo_qpm": 120.0, "tokens": [true%s]}' % _HOLDS,
    "string-bars": '{"bars": "2", "tempo_qpm": 120.0, "tokens": [60%s]}' % _HOLDS,
    "zero-tempo": '{"bars": 2, "tempo_qpm": 0, "tokens": [60%s]}' % _HOLDS,
    "negative-tempo": '{"bars": 2, "tempo_qpm": -120.0, "tokens": [60%s]}' % _HOLDS,
    "nan-tempo": '{"bars": 2, "tempo_qpm": NaN, "tokens": [60%s]}' % _HOLDS,
    "infinite-tempo": '{"bars": 2, "tempo_qpm": Infinity, "tokens": [60%s]}' % _HOLDS,
    "string-tempo": '{"bars": 2, "tempo_qpm": "120", "tokens": [60%s]}' % _HOLDS,
}


@pytest.mark.parametrize("line", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys())
def test_malformed_corpus_line_is_invalid(line):
    with pytest.raises(InvalidTokenSequence):
        melody.from_json_line(line)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=20,
)


@st.composite
def _corpus_line_values(draw):
    """Any JSON value, or a corpus entry that may have one field, or one
    token, replaced by any JSON value."""
    if draw(st.booleans()):
        return draw(_json_values)
    bars = draw(st.sampled_from((2, 16)))
    tokens = list(_random_tokens(draw(st.integers(0, 2**32 - 1)), STEPS_PER_BAR * bars))
    entry = {"bars": bars, "tempo_qpm": draw(st.floats(1e-3, 1e3)), "tokens": tokens}
    swap = draw(st.sampled_from(("nothing", "bars", "tempo_qpm", "tokens", "one token")))
    if swap == "one token":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_json_values)
    elif swap != "nothing":
        entry[swap] = draw(_json_values)
    return entry


@settings(max_examples=300, deadline=None)
@given(_corpus_line_values())
def test_any_json_value_loads_or_is_invalid(value):
    """A corpus line of any JSON value either loads or raises ValueError."""
    try:
        [(seq, tempo)] = melody.load_corpus(json.dumps(value).encode())
    except ValueError:
        return
    assert value["tokens"] == list(seq.tokens) and value["bars"] == seq.bars
    assert 0 < tempo < math.inf


def test_jsonl_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    entries = []
    for _ in range(20):
        m = random_melody(rng)
        entries.append((tokenize(m), m.tempo_qpm))
    path = tmp_path / "corpus.jsonl"
    assert melody.save_corpus(path, entries) == 20
    loaded = melody.load_corpus(path)
    assert loaded == entries
    line = path.read_text().splitlines()[0]
    obj = json.loads(line)
    assert set(obj) == {"bars", "tempo_qpm", "tokens"}


# ------------------------------------------------- spans read from token rows

def _random_tokens(seed: int, steps: int) -> tuple[int, ...]:
    """A valid token row: half holds, a fifth rests, the rest note codes."""
    rng = np.random.default_rng(seed)
    draw = rng.random(steps)
    codes = np.where(draw < 0.5, HOLD, np.where(draw < 0.7, REST, rng.integers(0, 128, steps)))
    codes[0] = rng.integers(0, 129)  # a note or a rest, never a hold
    return tuple(codes.tolist())


@st.composite
def _token_rows(draw):
    bars = draw(st.sampled_from((2, 16)))
    steps = STEPS_PER_BAR * bars
    tokens = list(_random_tokens(draw(st.integers(0, 2**32 - 1)), steps))
    kind = draw(st.sampled_from(("drawn", "all rest", "held to the end", "rest first")))
    if kind == "all rest":
        tokens = [REST] + [HOLD] * (steps - 1)
    elif kind == "held to the end":
        cut = draw(st.integers(0, steps - 1))
        tokens[cut:] = [draw(st.integers(0, 127))] + [HOLD] * (steps - 1 - cut)
    elif kind == "rest first":
        tokens[0] = REST
    return TokenSequence(tuple(tokens), bars)


def _reference_rows(rows):
    return [(i, *span) for i, seq in enumerate(rows) for span in reference_detokenize(seq.tokens)]


@settings(max_examples=150, deadline=None)
@given(st.lists(_token_rows(), min_size=1, max_size=12))
@example([TokenSequence((REST,) + (HOLD,) * 31, 2)])  # all rest
@example([TokenSequence((REST, 60) + (HOLD,) * 30, 2)])  # starts with a rest, held to the end
@example([TokenSequence((60,) + (HOLD,) * 255, 16), TokenSequence((REST,) * 32, 2)])
def test_token_spans_match_detokenize(rows):
    got = list(zip(*(a.tolist() for a in token_spans(rows))))
    assert got == _reference_rows(rows)
    for seq in rows:
        assert [(s.pitch, s.onset_step, s.duration_steps)
                for s in detokenize(seq).spans] == reference_detokenize(seq.tokens)
    # a token matrix gives the spans of its rows
    for bars in (2, 16):
        same = [seq for seq in rows if seq.bars == bars]
        if same:
            matrix = np.array([seq.tokens for seq in same], dtype=np.int64)
            got = list(zip(*(a.tolist() for a in token_spans(matrix))))
            assert got == _reference_rows(same)


@settings(max_examples=150, deadline=None)
@given(
    bars=st.sampled_from((2, 16)),
    seed=st.integers(0, 2**32 - 1),
    tempo=st.sampled_from((120.0, 93.75, 1e-3, 1234.5678, 120, np.float64(93.75))),
)
def test_json_line_is_json_dumps(bars, seed, tempo):
    tokens = _random_tokens(seed, STEPS_PER_BAR * bars)
    seq = TokenSequence(tokens, bars)
    line = melody.to_json_line(seq, tempo)
    assert line == json.dumps({"bars": bars, "tempo_qpm": tempo, "tokens": list(tokens)})
    assert melody.from_json_line(line) == (seq, float(tempo))
