import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_lens.features import (
    FEATURE_NAMES,
    extract_corpus_features,
    extract_features,
)
from latent_lens.melody import Melody, NoteSpan, tokenize

from conftest import random_melody
from oracles import reference_features


def corpus_features(mels):
    return extract_corpus_features([tokenize(m) for m in mels], [m.tempo_qpm for m in mels])


def c_major_scale() -> Melody:
    pitches = [60, 62, 64, 65, 67, 69, 71, 72]
    spans = tuple(NoteSpan(p, i * 4, 4) for i, p in enumerate(pitches))
    return Melody(spans, 2, 120.0)


def test_scale_hand_computed_values():
    fv = extract_features(c_major_scale())
    assert fv["R1_note_density"] == pytest.approx(2.0)  # 8 onsets in 4 s
    assert fv["R2_mean_note_duration"] == pytest.approx(0.5)
    assert fv["R3_sd_note_duration"] == pytest.approx(0.0)
    assert fv["R6_rest_fraction"] == pytest.approx(0.0)
    assert fv["R7_mean_inter_onset_interval"] == pytest.approx(4.0)
    assert fv["P1_pitch_range"] == 12
    assert fv["P2_mean_pitch"] == pytest.approx(np.mean([60, 62, 64, 65, 67, 69, 71, 72]))
    assert fv["P3_pitch_variety"] == 8
    assert fv["P4_pitch_class_variety"] == 7  # the two Cs share a class
    assert fv["P6_most_common_pitch_frequency"] == pytest.approx(1 / 8)
    assert fv["M3_rising_fraction"] == pytest.approx(1.0)
    assert fv["M4_stepwise_fraction"] == pytest.approx(1.0)
    assert fv["M6_repeated_fraction"] == pytest.approx(0.0)
    assert not fv.degenerate


def test_single_note_degenerates():
    fv = extract_features(Melody((NoteSpan(72, 0, 32),), 2, 120.0))
    assert fv["P1_pitch_range"] == 0
    assert "P1_pitch_range" not in fv.degenerate
    for name in FEATURE_NAMES:
        if name.startswith("M"):
            assert fv[name] == 0.0
            assert name in fv.degenerate
    assert "R7_mean_inter_onset_interval" in fv.degenerate
    assert fv["P6_most_common_pitch_frequency"] == 1.0


def test_empty_melody_degenerates():
    fv = extract_features(Melody((), 2, 120.0))
    assert fv["R1_note_density"] == 0.0
    assert "R1_note_density" not in fv.degenerate
    assert fv["R6_rest_fraction"] == 1.0
    assert "R2_mean_note_duration" in fv.degenerate
    assert "P2_mean_pitch" in fv.degenerate


def test_two_note_third():
    m = Melody((NoteSpan(60, 0, 4), NoteSpan(64, 4, 4)), 2, 120.0)
    fv = extract_features(m)
    assert fv["M1_mean_abs_interval"] == pytest.approx(4.0)
    assert fv["M7_arpeggiation_fraction"] == pytest.approx(1.0)
    assert fv["M4_stepwise_fraction"] == pytest.approx(0.0)
    assert fv["M2_most_common_interval"] == 4


def test_most_common_tie_breaks_to_smaller():
    # pitches 60, 62, 60, 62: both appear twice -> pick 60
    m = Melody(
        (
            NoteSpan(60, 0, 2),
            NoteSpan(62, 2, 2),
            NoteSpan(60, 4, 2),
            NoteSpan(62, 6, 2),
        ),
        2,
        120.0,
    )
    fv = extract_features(m)
    assert fv["P5_most_common_pitch"] == 60
    # intervals: +2, -2, +2 -> +2 wins (count 2 vs 1)
    assert fv["M2_most_common_interval"] == 2


def test_interval_tie_breaks_to_smaller_abs_then_value():
    # intervals: +2, -2 -> counts equal, |2| ties, pick -2
    m = Melody(
        (NoteSpan(60, 0, 2), NoteSpan(62, 2, 2), NoteSpan(60, 4, 2)), 2, 120.0
    )
    assert extract_features(m)["M2_most_common_interval"] == -2


def transpose(m: Melody, offset: int) -> Melody:
    spans = tuple(
        NoteSpan(s.pitch + offset, s.onset_step, s.duration_steps) for s in m.spans
    )
    return Melody(spans, m.bars, m.tempo_qpm)


def test_transposition_invariance():
    rng = np.random.default_rng(21)
    for _ in range(100):
        m = random_melody(rng)
        if not m.spans or max(s.pitch for s in m.spans) > 122:
            continue
        a = extract_features(m)
        b = extract_features(transpose(m, 5))
        for name in FEATURE_NAMES:
            if name in ("P2_mean_pitch", "P5_most_common_pitch"):
                assert b[name] == pytest.approx(a[name] + 5)
            elif name.startswith(("R", "M")) or name in (
                "P1_pitch_range",
                "P3_pitch_variety",
                "P6_most_common_pitch_frequency",
            ):
                assert b[name] == pytest.approx(a[name])
        # pitch-class variety is invariant under any semitone shift
        assert b["P4_pitch_class_variety"] == a["P4_pitch_class_variety"]


def test_tempo_doubling_scales_rhythm_features_exactly():
    rng = np.random.default_rng(22)
    for _ in range(100):
        m = random_melody(rng)
        if len(m.spans) < 2:
            continue
        fast = Melody(m.spans, m.bars, m.tempo_qpm * 2.0)
        a = extract_features(m)
        b = extract_features(fast)
        assert b["R1_note_density"] == 2.0 * a["R1_note_density"]
        assert b["R2_mean_note_duration"] == a["R2_mean_note_duration"] / 2.0
        assert b["R4_shortest_note"] == a["R4_shortest_note"] / 2.0
        assert b["R5_longest_note"] == a["R5_longest_note"] / 2.0
        for name in FEATURE_NAMES:
            if name.startswith(("P", "M")) or name in (
                "R6_rest_fraction",
                "R7_mean_inter_onset_interval",
            ):
                assert b[name] == a[name]


def test_fraction_features_bounded():
    rng = np.random.default_rng(23)
    fraction_features = [
        "R6_rest_fraction",
        "P6_most_common_pitch_frequency",
        "M3_rising_fraction",
        "M4_stepwise_fraction",
        "M5_chromatic_fraction",
        "M6_repeated_fraction",
        "M7_arpeggiation_fraction",
    ]
    for _ in range(200):
        fv = extract_features(random_melody(rng))
        for name in fraction_features:
            assert 0.0 <= fv[name] <= 1.0


def test_corpus_matrix_order():
    rng = np.random.default_rng(24)
    mels = [random_melody(rng) for _ in range(10)]
    matrix, degenerate = corpus_features(mels)
    assert matrix.shape == degenerate.shape == (10, 20)
    single, _ = corpus_features([mels[3]])
    assert np.array_equal(matrix[3], single[0])
    # permuting rows permutes the matrix rows identically
    matrix_rev, _ = corpus_features(mels[::-1])
    assert np.array_equal(matrix_rev, matrix[::-1])


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        corpus_features([])


# ------------------------------------------- corpus pass vs per-melody oracle

R3 = FEATURE_NAMES.index("R3_sd_note_duration")
EXACT = [j for j in range(len(FEATURE_NAMES)) if j != R3]


def _spans(pitches, duration=2):
    return tuple(NoteSpan(p, i * duration, duration) for i, p in enumerate(pitches))


EDGE_MELODIES = [
    Melody((), 2, 120.0),  # empty
    Melody((), 16, 75.0),
    Melody((NoteSpan(72, 5, 3),), 2, 96.0),  # one note
    Melody(_spans([64] * 6), 2, 140.0),  # all one pitch: no moving interval
    Melody(_spans([60, 62, 60, 62]), 2, 120.0),  # tied pitch modes
    Melody(_spans([60, 62, 60]), 2, 120.0),  # intervals +2, -2 tie
    Melody(_spans([60, 63, 60, 57, 60, 63]), 2, 55.0),  # +3 and -3 tie twice
    Melody(_spans([127, 0, 127], duration=5), 2, 200.0),  # extreme intervals
    Melody(_spans([5, 17, 29, 41] * 4, duration=4), 16, 61.5),  # one pitch class
]


@st.composite
def melodies(draw):
    bars = draw(st.sampled_from((2, 16)))
    tempo = draw(st.sampled_from((40.0, 96.5, 120.0, 133.0, 219.9)))
    # a narrow register makes pitch and interval ties common
    pitch = st.integers(0, 127) if draw(st.booleans()) else st.integers(58, 65)
    spans = []
    pos = 0
    for gap, dur, p in draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 9), pitch), max_size=14
    )):
        if pos + gap + dur > 16 * bars:
            break
        spans.append(NoteSpan(p, pos + gap, dur))
        pos += gap + dur
    return Melody(tuple(spans), bars, tempo)


def assert_matches_reference(mels):
    values, degenerate = corpus_features(mels)
    ref = [reference_features(m) for m in mels]
    ref_values = np.array([v for v, _ in ref])
    assert np.array_equal(degenerate, np.array([d for _, d in ref]))
    assert np.array_equal(values[:, EXACT], ref_values[:, EXACT])
    # numpy's std sums the squared deviations pairwise, the corpus pass in order
    assert np.allclose(values[:, R3], ref_values[:, R3], rtol=2e-15, atol=0.0)


def test_edge_melodies_match_reference():
    assert_matches_reference(EDGE_MELODIES)
    for m in EDGE_MELODIES:
        fv = extract_features(m)
        ref_values, ref_degenerate = reference_features(m)
        assert np.array_equal(fv.as_array()[EXACT], ref_values[EXACT])
        assert fv.degenerate == {n for n, d in zip(FEATURE_NAMES, ref_degenerate) if d}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(melodies(), st.sampled_from(EDGE_MELODIES)), min_size=1, max_size=50))
def test_corpus_features_match_reference(mels):
    assert_matches_reference(mels)


def test_benchmark_scale_corpora_match_reference():
    from latent_lens import corpus

    musical = corpus.gen_musical_corpus(corpus.SyntheticConfig(seed=7), 300)
    random = corpus.gen_random_corpus(corpus.RandomSeqConfig(), 300, 9)
    assert_matches_reference(musical)
    assert_matches_reference(random)
