import numpy as np
import pytest

from latent_lens import melody
from latent_lens.corpus import (
    MAJOR_SCALE,
    RandomSeqConfig,
    SyntheticConfig,
    gen_musical_corpus,
    gen_musical_melody,
    gen_random_corpus,
    gen_random_sequence,
)
from latent_lens.features import extract_features


class ScriptedRng:
    """Replays fixed integer draws; anything else falls through to a real rng."""

    def __init__(self, integer_draws):
        self.draws = list(integer_draws)
        self.real = np.random.default_rng(0)

    def integers(self, *args, **kwargs):
        return self.draws.pop(0)

    def choice(self, values, size=None, replace=True):
        seq = np.asarray(values)
        return seq[: size if size is not None else 1]

    def random(self):
        return self.real.random()


def test_forced_two_note_draw():
    # k forced to 2, the extra onset forced to step 16, duration 4 seconds
    rng = ScriptedRng([2, np.array([60, 70]), 4])

    class Rng(ScriptedRng):
        def integers(self, lo, hi=None, size=None):
            if size == 2:  # the pitch draw
                return np.array([60, 70])
            return self.draws.pop(0)

        def choice(self, values, size=None, replace=True):
            return np.array([16])

    rng = Rng([2, 4])
    m = gen_random_sequence(RandomSeqConfig(), rng)
    assert [(s.onset_step, s.duration_steps) for s in m.spans] == [(0, 16), (16, 16)]
    assert m.tempo_qpm == pytest.approx(2 * 4 * 60 / 4)


def test_random_sequences_cover_all_steps_monophonically():
    cfg = RandomSeqConfig()
    for seed in range(200):
        m = gen_random_sequence(cfg, np.random.default_rng(seed))
        covered = np.zeros(m.total_steps, dtype=int)
        for s in m.spans:
            covered[s.onset_step : s.end_step] += 1
        assert np.all(covered == 1)
        assert m.spans[0].onset_step == 0
        assert cfg.n_notes_min <= len(m.spans) <= cfg.n_notes_max
        assert all(cfg.pitch_min <= s.pitch <= cfg.pitch_max for s in m.spans)


def test_random_marginals_uniform():
    # 5,000 draws here; the full 50,000-draw check lives in the acceptance suite
    cfg = RandomSeqConfig()
    mels = gen_random_corpus(cfg, 5000, seed=11)
    counts = np.array([len(m.spans) for m in mels])
    pitches = np.concatenate([[s.pitch for s in m.spans] for m in mels])
    k_hist = np.bincount(counts, minlength=33)[2:33]
    expected = len(mels) / 31
    chi2_k = ((k_hist - expected) ** 2 / expected).sum()
    # df=30; 99.9th percentile ~ 59.7
    assert chi2_k < 59.7
    p_hist = np.bincount(pitches, minlength=101)[30:101]
    expected_p = pitches.size / 71
    chi2_p = ((p_hist - expected_p) ** 2 / expected_p).sum()
    # df=70; 99.9th percentile ~ 112.3
    assert chi2_p < 112.3


def test_random_corpus_deterministic():
    cfg = RandomSeqConfig()
    a = gen_random_corpus(cfg, 50, seed=3)
    b = gen_random_corpus(cfg, 50, seed=3)
    c = gen_random_corpus(cfg, 50, seed=4)
    assert a == b
    assert a != c


def test_random_config_validation():
    with pytest.raises(ValueError):
        RandomSeqConfig(n_notes_min=1)
    with pytest.raises(ValueError):
        RandomSeqConfig(n_notes_max=33)
    with pytest.raises(ValueError):
        RandomSeqConfig(pitch_max=200)
    with pytest.raises(ValueError, match="bars must be 2 or 16, got 3"):
        RandomSeqConfig(bars=3)


def test_musical_step_bias_one_gives_scale_steps():
    cfg = SyntheticConfig(step_bias=1.0)
    for seed in range(30):
        m = gen_musical_melody(cfg, np.random.default_rng(seed))
        ivals = np.abs(np.diff([s.pitch for s in m.spans]))
        assert np.all(np.isin(ivals, (1, 2)))  # adjacent major-scale degrees


def test_musical_melody_in_scale():
    cfg = SyntheticConfig(key_root=2)
    for seed in range(30):
        m = gen_musical_melody(cfg, np.random.default_rng(seed))
        for s in m.spans:
            assert (s.pitch - 2) % 12 in MAJOR_SCALE


def test_musical_corpus_deterministic_bytes(tmp_path):
    cfg = SyntheticConfig(seed=42)
    for run in range(2):
        mels = gen_musical_corpus(cfg, 40)
        melody.save_corpus(tmp_path / f"c{run}.jsonl", melody.melodies_to_entries(mels))
    assert (tmp_path / "c0.jsonl").read_bytes() == (tmp_path / "c1.jsonl").read_bytes()


def test_musical_pitch_range_below_random():
    musical = gen_musical_corpus(SyntheticConfig(seed=1), 300)
    random_ = gen_random_corpus(RandomSeqConfig(), 300, seed=1)
    mean_range = lambda mels: np.mean(
        [extract_features(m)["P1_pitch_range"] for m in mels]
    )
    assert mean_range(musical) < mean_range(random_)


def test_musical_16bar():
    cfg = SyntheticConfig(seed=5, bars=16)
    m = gen_musical_melody(cfg, np.random.default_rng(0))
    assert m.bars == 16
    assert melody.tokenize(m).bars == 16


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(rhythm_grid=(0, 2))
    with pytest.raises(ValueError, match="rhythm grid must hold at least one duration"):
        SyntheticConfig(rhythm_grid=())
    with pytest.raises(ValueError):
        SyntheticConfig(step_bias=1.5)
    with pytest.raises(ValueError, match="bars must be 2 or 16, got 3"):
        SyntheticConfig(bars=3)
