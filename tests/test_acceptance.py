"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 3, 6, 7 and 9
train desk-scale models (shared session fixtures); the rest are fast.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.stats

from latent_lens import analysis, corpus, features, melody, midi, stats, vae

from conftest import random_melody, token_matrix


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except Exception:
        print(f"[criterion {n:2d}] FAIL {desc}")
        raise
    print(f"[criterion {n:2d}] PASS {desc}")


# ------------------------------------------------------------------ 1

def test_criterion_1_tokenizer_roundtrip():
    with criterion(1, "tokenizer round-trip on 10,000 seeded melodies in < 5 s"):
        rng = np.random.default_rng(20260810)
        t0 = time.perf_counter()
        for _ in range(10_000):
            m = random_melody(rng)
            assert melody.detokenize(melody.tokenize(m), m.tempo_qpm) == m
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ------------------------------------------------------------------ 2

def test_criterion_2_gradient_oracle():
    with criterion(2, "ELBO gradients match central differences (<1e-4) in < 60 s"):
        t0 = time.perf_counter()
        cfg = vae.ModelConfig(embed_dim=4, hidden_dim=16, latent_dim=8, seq_len=32)
        params = vae.init_params(cfg, 11)
        arrays = params.arrays()
        coords = [
            (name, i) for name, arr in arrays.items() for i in range(arr.size)
        ]
        rng = np.random.default_rng(500)
        # Richardson extrapolation of central differences at h and h/2 cancels
        # their O(h^2) truncation error (5e-4 relative on dec_wz at h = 1e-3).
        # What remains is rounding, ~eps |loss| / h, which on gradients near
        # 1e-8 needs h well above 1e-3: at (8e-3, 4e-3) the worst coordinate
        # is at 1.3e-5, at (1e-3, 5e-4) it is at 1.6e-4.
        step = 8e-3
        n_batches = 5
        worst = 0.0

        def richardson(loss_at) -> float:
            coarse = (loss_at(step) - loss_at(-step)) / (2 * step)
            fine = (loss_at(step / 2) - loss_at(-step / 2)) / step
            return (4 * fine - coarse) / 3

        for b in range(n_batches):
            first = rng.integers(0, 129, (3, 1))
            rest = rng.integers(0, 130, (3, 31))
            batch = np.concatenate([first, rest], axis=1)
            beta = 0.05 + 0.03 * b
            noise = lambda: np.random.default_rng(900 + b)
            _, _, _, grads = vae.elbo_loss_and_grads(params, batch, beta, noise())
            # every coordinate is checked exactly once, spread over the batches
            for name, i in coords[b::n_batches]:
                flat = arrays[name].reshape(-1)
                orig = flat[i]

                def loss_at(h: float) -> float:
                    flat[i] = orig + h
                    value = vae.elbo_loss(params, batch, beta, noise())[0]
                    flat[i] = orig
                    return value

                fd = richardson(loss_at)
                g = grads[name].reshape(-1)[i]
                rel = abs(fd - g) / max(abs(fd), abs(g), 1e-8)
                worst = max(worst, rel)
                assert rel < 1e-4, f"{name}[{i}]: fd={fd:.6e} grad={g:.6e} rel={rel:.2e}"
            # directional probe of the full gradient vector on this batch
            for _ in range(10):
                direction = {
                    name: rng.standard_normal(arr.shape) for name, arr in arrays.items()
                }
                norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
                saved = {name: arr.copy() for name, arr in arrays.items()}

                def loss_at(h: float) -> float:
                    for name in arrays:
                        arrays[name][...] = saved[name] + h / norm * direction[name]
                    value = vae.elbo_loss(params, batch, beta, noise())[0]
                    for name in arrays:
                        arrays[name][...] = saved[name]
                    return value

                fd = richardson(loss_at) * norm
                g = sum(float((grads[n] * direction[n]).sum()) for n in arrays)
                assert abs(fd - g) / max(abs(fd), abs(g), 1e-8) < 1e-4
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        print(f"    ({len(coords)} coordinates, worst rel err {worst:.2e}, "
              f"{elapsed:.1f}s)")


# ------------------------------------------------------------------ 3

@pytest.mark.heavy
def test_criterion_3_music_noise_emergence(
    desk_model, desk_model_beta0, musical_seqs_2bar, desk_runtime
):
    with criterion(3, "music/noise split emerges at beta=0.2; beta=0 ablation uses more dims"):
        params, _ = desk_model
        toks = token_matrix(musical_seqs_2bar)
        mus, sigmas = vae.encode_batch(params, toks)
        med_sigma = np.median(sigmas, axis=0)
        med_abs_mu = np.median(np.abs(mus), axis=0)
        n_low = int((med_sigma < 0.5).sum())
        in_band = (med_sigma >= 0.9) & (med_sigma <= 1.1)
        n_noise = int((in_band & (med_abs_mu < 0.1)).sum())
        assert n_low >= 4, f"only {n_low} dims with median sigma < 0.5"
        assert n_noise >= 8, f"only {n_noise} prior-matching dims"
        assert desk_runtime["desk_model"] <= 15 * 60, "training exceeded 15 min"

        params0, _ = desk_model_beta0
        _, sigmas0 = vae.encode_batch(params0, toks)
        n_sub_beta0 = int((np.median(sigmas0, axis=0) < 0.9).sum())
        n_sub = int((med_sigma < 0.9).sum())
        assert n_sub_beta0 > n_sub, f"beta=0 gave {n_sub_beta0}, beta=0.2 gave {n_sub}"
        print(f"    (sigma<0.5: {n_low}, prior-matching: {n_noise}, "
              f"sub-0.9 beta0/beta0.2: {n_sub_beta0}/{n_sub}, "
              f"train {desk_runtime['desk_model']:.0f}s)")


# ------------------------------------------------------------------ 4

def test_criterion_4_phik_oracle():
    with criterion(4, "phik oracle: identity, independence, rho recovery, orthant"):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(10_000)
        assert stats.phik(x, x) == 1.0

        rng = np.random.default_rng(0)
        u = rng.uniform(size=10_000)
        v = rng.uniform(size=10_000)
        indep = stats.phik(u, v)
        assert indep < 0.1, f"independent uniforms gave {indep:.3f}"

        rng = np.random.default_rng(6)
        a = rng.standard_normal(20_000)
        b = 0.8 * a + math.sqrt(1 - 0.64) * rng.standard_normal(20_000)
        est = stats.phik(a, b)
        assert abs(est - 0.8) < 0.05, f"rho=0.8 estimated as {est:.3f}"

        edges = np.array([-np.inf, 0.0, np.inf])
        probs = stats.bvn_cell_probs(0.5, edges, edges)
        expected = 0.25 + math.asin(0.5) / (2 * math.pi)
        assert abs(probs[1, 1] - expected) < 1e-5


# ------------------------------------------------------------------ 5

def _random_melody_below(rng, max_pitch):
    while True:
        m = random_melody(rng)
        if m.spans and max(s.pitch for s in m.spans) <= max_pitch:
            return m


def test_criterion_5_feature_invariants():
    with criterion(5, "transposition and tempo-doubling invariants on 1,000 melodies"):
        rng = np.random.default_rng(55)
        for _ in range(1000):
            m = _random_melody_below(rng, 122)
            base = features.extract_features(m)
            shifted = features.extract_features(
                melody.Melody(
                    tuple(
                        melody.NoteSpan(s.pitch + 5, s.onset_step, s.duration_steps)
                        for s in m.spans
                    ),
                    m.bars,
                    m.tempo_qpm,
                )
            )
            for name in features.FEATURE_NAMES:
                if name in ("P2_mean_pitch", "P5_most_common_pitch"):
                    assert shifted[name] == pytest.approx(base[name] + 5)
                elif name.startswith(("R", "M")):
                    assert shifted[name] == base[name], name
            doubled = features.extract_features(
                melody.Melody(m.spans, m.bars, m.tempo_qpm * 2.0)
            )
            assert doubled["R1_note_density"] == 2.0 * base["R1_note_density"]
            assert doubled["R2_mean_note_duration"] == base["R2_mean_note_duration"] / 2.0
            assert doubled["R4_shortest_note"] == base["R4_shortest_note"] / 2.0
            assert doubled["R5_longest_note"] == base["R5_longest_note"] / 2.0


# ------------------------------------------------------------------ 6

PHIK_CFG = stats.PhikConfig(n_bins=4)


def _block_scores(matrix, names, prefix):
    rows = [i for i, name in enumerate(names) if name.startswith(prefix)]
    with np.errstate(invalid="ignore"):
        return np.nanmean(matrix[rows], axis=0)


@pytest.mark.heavy
def test_criterion_6_neuron_feature_identification(desk_model, musical_corpus_2bar):
    with criterion(6, "distinct music neurons lead the P and R feature blocks; null < 0.15"):
        params, _ = desk_model
        seqs = [melody.tokenize(m) for m in musical_corpus_2bar]
        lm = analysis.encode_corpus(params, seqs)
        partition = analysis.partition_neurons(lm, 0.9)
        n_music = len(partition.music)
        assert 0 < n_music < lm.d, "need both music and noise dims"

        fmatrix, fnames = features.extract_corpus_features(musical_corpus_2bar)
        phik_m = analysis.neuron_feature_phik(lm, fmatrix, PHIK_CFG)
        p_scores = _block_scores(phik_m, fnames, "P")
        r_scores = _block_scores(phik_m, fnames, "R")
        best_p = int(np.nanargmax(p_scores[:n_music]))
        best_r = int(np.nanargmax(r_scores[:n_music]))
        assert best_p != best_r, "same neuron leads both feature blocks"
        noise_p = float(np.nanmax(p_scores[n_music:]))
        noise_r = float(np.nanmax(r_scores[n_music:]))
        assert p_scores[best_p] > noise_p, "a noise neuron beats the pitch neuron"
        assert r_scores[best_r] > noise_r, "a noise neuron beats the rhythm neuron"

        shuffled = fmatrix[np.random.default_rng(99).permutation(fmatrix.shape[0])]
        null = analysis.neuron_feature_phik(lm, shuffled, PHIK_CFG)
        null_max = float(np.nanmax(null))
        assert null_max < 0.15, f"permutation null reached {null_max:.3f}"
        print(f"    (P neuron {best_p}@{p_scores[best_p]:.2f} vs noise {noise_p:.2f}; "
              f"R neuron {best_r}@{r_scores[best_r]:.2f} vs noise {noise_r:.2f}; "
              f"null max {null_max:.3f})")


# ------------------------------------------------------------------ 7

@pytest.mark.heavy
def test_criterion_7_random_vs_music_separation(desk_model, musical_seqs_2bar):
    with criterion(7, "random sequences excite more noise neurons than music"):
        params, _ = desk_model
        lm = analysis.encode_corpus(params, musical_seqs_2bar)
        partition = analysis.partition_neurons(lm, 0.9)
        random_mels = corpus.gen_random_corpus(corpus.RandomSeqConfig(), 2000, seed=123)
        random_seqs = [melody.tokenize(m) for m in random_mels]
        comp = analysis.compare_real_vs_random(
            params, lm, random_seqs, partition, threshold=0.1
        )
        music_median = float(np.median(comp.real_activation.noise_counts))
        random_median = float(np.median(comp.random_activation.noise_counts))
        assert random_median > music_median, (
            f"noise medians: random {random_median} vs music {music_median}"
        )
        m_music = float(np.median(comp.real_activation.music_counts))
        m_random = float(np.median(comp.random_activation.music_counts))
        tol = 0.2 * len(partition.music)
        assert abs(m_music - m_random) <= tol, (
            f"music medians {m_music} vs {m_random} differ beyond {tol}"
        )
        print(f"    (noise medians music/random: {music_median}/{random_median}; "
              f"music medians {m_music}/{m_random}, |music|={len(partition.music)})")


# ------------------------------------------------------------------ 8

def test_criterion_8_random_generator_fidelity():
    with criterion(8, "50,000 random draws: uniform marginals, full monophonic coverage"):
        cfg = corpus.RandomSeqConfig()
        mels = corpus.gen_random_corpus(cfg, 50_000, seed=808)
        note_counts = np.zeros(33, dtype=np.int64)
        pitch_counts = np.zeros(101, dtype=np.int64)
        for m in mels:
            note_counts[len(m.spans)] += 1
            covered = 0
            for s in m.spans:
                covered += s.duration_steps
                pitch_counts[s.pitch] += 1
            assert covered == 32, "steps not fully covered"
            assert m.spans[0].onset_step == 0
        k_obs = note_counts[2:33]
        assert k_obs.sum() == 50_000
        expected = 50_000 / 31
        chi2_k = float(((k_obs - expected) ** 2 / expected).sum())
        p_k = scipy.stats.chi2.sf(chi2_k, df=30)
        assert p_k > 0.001, f"note-count uniformity p={p_k:.2e}"
        p_obs = pitch_counts[30:101]
        expected_p = p_obs.sum() / 71
        chi2_p = float(((p_obs - expected_p) ** 2 / expected_p).sum())
        p_p = scipy.stats.chi2.sf(chi2_p, df=70)
        assert p_p > 0.001, f"pitch uniformity p={p_p:.2e}"
        print(f"    (note-count p={p_k:.3f}, pitch p={p_p:.3f})")


# ------------------------------------------------------------------ 9

@pytest.mark.heavy
def test_criterion_9_sixteen_bar_configuration(
    desk_model, musical_seqs_2bar, desk_model_16bar
):
    with criterion(9, "16-bar pipeline runs; music-neuron count >= the 2-bar run's"):
        params2, _ = desk_model
        lm2 = analysis.encode_corpus(params2, musical_seqs_2bar)
        music2 = len(analysis.partition_neurons(lm2, 0.9).music)

        params16, _, seqs16 = desk_model_16bar
        assert params16.config.seq_len == 256 and params16.config.latent_dim == 64
        lm16 = analysis.encode_corpus(params16, seqs16)
        part16 = analysis.partition_neurons(lm16, 0.9)
        music16 = len(part16.music)
        # the full analysis stack must run at this length too
        analysis.central_value_stats(lm16, part16)
        analysis.mu_pearson_matrix(lm16)
        assert music16 >= music2, f"16-bar music dims {music16} < 2-bar {music2}"
        print(f"    (music dims: 16-bar {music16} vs 2-bar {music2})")


# ------------------------------------------------------------------ 10

def test_criterion_10_midi_parser_fixtures():
    with criterion(10, "MIDI byte-level fixtures parse/error exactly; write round-trips"):
        from test_midi import mthd, mtrk, scale_file

        body = bytes([0x00, 0x90, 60, 96]) + bytes([0x83, 0x60, 0x80, 60, 0])
        parsed = midi.parse_midi(mthd() + mtrk(body))
        events = parsed.tracks[0]
        assert events[0].kind == midi.NoteOn(0, 60, 96) and events[0].tick == 0
        assert events[1].kind == midi.NoteOff(0, 60) and events[1].tick == 480

        explicit = mthd() + mtrk(
            bytes([0x00, 0x90, 60, 96]) + bytes([0x83, 0x60, 0x90, 60, 0])
        )
        running = mthd() + mtrk(
            bytes([0x00, 0x90, 60, 96]) + bytes([0x83, 0x60, 60, 0])
        )
        assert midi.parse_midi(explicit).tracks == midi.parse_midi(running).tracks

        tempo_body = bytes([0x00, 0xFF, 0x51, 0x03]) + (600_000).to_bytes(3, "big")
        ev = midi.parse_midi(mthd() + mtrk(tempo_body)).tracks[0][0]
        assert ev.kind == midi.TempoChange(600_000)

        with pytest.raises(midi.MidiParseError) as exc:
            midi.parse_midi(b"MThd\x00\x00")
        assert exc.value.offset == 4
        with pytest.raises(midi.MidiParseError):
            midi.parse_midi(mthd(fmt=2) + mtrk(b""))

        rng = np.random.default_rng(4242)
        cfg = midi.ExtractionConfig(min_notes=1, max_melodies_per_file=1)
        checked = 0
        while checked < 50:
            m = random_melody(rng)
            if not m.spans:
                continue
            back = midi.extract_melodies(midi.parse_midi(midi.write_midi(m)), cfg)
            assert len(back) == 1 and back[0].spans == m.spans
            checked += 1
