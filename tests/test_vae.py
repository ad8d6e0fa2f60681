import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latent_lens import vae
from latent_lens.melody import HOLD, REST, VOCAB_SIZE, TokenSequence
from latent_lens.vae import (
    CheckpointError,
    LatentEncoding,
    ModelConfig,
    Params,
    ShapeError,
    TrainConfig,
    decode,
    elbo_loss,
    elbo_loss_and_grads,
    encode,
    encode_batch,
    gaussian_kl,
    init_params,
    load_checkpoint,
    sample_latent,
    save_checkpoint,
    train,
)

SMALL = ModelConfig(embed_dim=8, hidden_dim=12, latent_dim=6, seq_len=32)


def random_tokens(rng, n, seq_len=32):
    first = rng.integers(0, 129, (n, 1))  # anything except a leading hold
    rest = rng.integers(0, 130, (n, seq_len - 1))
    return np.concatenate([first, rest], axis=1)


def random_seq(rng, seq_len=32) -> TokenSequence:
    return TokenSequence(tuple(random_tokens(rng, 1, seq_len)[0]), seq_len // 16)


# ---------------------------------------------------------------- init

def test_init_deterministic():
    a = init_params(SMALL, 5)
    b = init_params(SMALL, 5)
    c = init_params(SMALL, 6)
    for name, arr in a.arrays().items():
        assert np.array_equal(arr, b.arrays()[name])
    assert any(
        not np.array_equal(arr, c.arrays()[name]) for name, arr in a.arrays().items()
    )


def test_init_shapes_match_config():
    p = init_params(SMALL, 0)
    p.validate()
    assert p.embed.shape == (130, 8)
    assert p.enc_wx.shape == (8, 36)
    assert p.enc_wh.shape == (12, 36)
    assert p.out_w.shape == (12, 130)
    assert np.all(p.enc_b == 0.0) and np.all(p.out_b == 0.0)


def test_init_variance_matches_formula():
    cfg = ModelConfig()  # default dims give large matrices
    p = init_params(cfg, 3)
    for name, arr in p.arrays().items():
        if arr.ndim != 2:
            continue
        a = np.sqrt(6.0 / (arr.shape[0] + arr.shape[1]))
        assert abs(arr.var() - a * a / 3.0) < 0.1 * a * a / 3.0, name


# ---------------------------------------------------------------- encode

def test_encode_shape_and_purity():
    p = init_params(SMALL, 1)
    rng = np.random.default_rng(0)
    seq = random_seq(rng)
    enc1 = encode(p, seq)
    enc2 = encode(p, seq)
    assert enc1.mu.shape == (6,) and enc1.sigma.shape == (6,)
    assert np.all(np.isfinite(enc1.mu)) and np.all(enc1.sigma > 0)
    assert np.array_equal(enc1.mu, enc2.mu) and np.array_equal(enc1.sigma, enc2.sigma)


def test_encode_length_mismatch():
    p = init_params(SMALL, 1)
    with pytest.raises(ShapeError):
        encode_batch(p, np.zeros((1, 16), dtype=int))


def test_encode_batch_matches_single():
    p = init_params(SMALL, 2)
    rng = np.random.default_rng(1)
    toks = random_tokens(rng, 5)
    mus, sigmas = encode_batch(p, toks)
    for i in range(5):
        enc = encode(p, TokenSequence(tuple(toks[i]), 2))
        assert np.allclose(mus[i], enc.mu)
        assert np.allclose(sigmas[i], enc.sigma)


@settings(max_examples=25, deadline=None)
@given(
    cfg=st.sampled_from([SMALL, ModelConfig(latent_dim=4)]),
    n=st.integers(1, 300),
    n_used=st.integers(1, VOCAB_SIZE),
    seed=st.integers(0, 2**32 - 1),
)
@example(cfg=SMALL, n=3, n_used=1, seed=0)  # one repeated token
@example(cfg=ModelConfig(latent_dim=4), n=1, n_used=1, seed=1)
@example(cfg=ModelConfig(latent_dim=4), n=5, n_used=VOCAB_SIZE, seed=2)  # every token
def test_encode_batch_equals_training_encoder(cfg, n, n_used, seed):
    """The cache-free inference scan gives exactly the training pass's output."""
    rng = np.random.default_rng(seed)
    p = init_params(cfg, seed % 5)
    for name in ("enc_b", "b_mu", "b_logvar"):  # init leaves biases at zero
        getattr(p, name)[...] = rng.normal(0.0, 0.5, getattr(p, name).shape)
    used = rng.permutation(VOCAB_SIZE)[:n_used]
    tokens = used[rng.integers(0, n_used, (n, 32))]
    k = min(n_used, tokens.size)
    tokens.flat[:k] = used[:k]  # each chosen token appears where the batch has room
    mu, logvar = vae._encoder_forward(p, tokens)[-2:]
    mus, sigmas = encode_batch(p, tokens)
    assert np.array_equal(mus, mu)
    assert np.array_equal(sigmas, np.exp(0.5 * logvar))


# ---------------------------------------------------------------- sampling

def test_sample_latent_zero_sigma_limit():
    mu = np.array([1.0, -2.0, 3.0])
    enc = LatentEncoding(mu, np.full(3, 1e-300))
    z = sample_latent(enc, np.random.default_rng(0))
    assert np.allclose(z, mu)


def test_sample_latent_seeded_reproducible():
    enc = LatentEncoding(np.zeros(4), np.ones(4))
    a = sample_latent(enc, np.random.default_rng(9))
    b = sample_latent(enc, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_sample_latent_mean_concentrates():
    mu = np.array([0.5, -1.5])
    sigma = np.array([2.0, 0.3])
    enc = LatentEncoding(mu, sigma)
    rng = np.random.default_rng(10)
    n = 10_000
    draws = np.array([sample_latent(enc, rng) for _ in range(n)])
    bound = 4.0 * sigma / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - mu) < bound)


# ---------------------------------------------------------------- decode

def test_decode_structural_validity():
    p = init_params(SMALL, 4)
    rng = np.random.default_rng(2)
    for _ in range(20):
        seq = decode(p, rng.standard_normal(6))
        assert len(seq) == 32
        assert seq.tokens[0] != HOLD
        assert all(0 <= t < 130 for t in seq)


def test_decode_greedy_deterministic():
    p = init_params(SMALL, 4)
    z = np.random.default_rng(3).standard_normal(6)
    assert decode(p, z) == decode(p, z)


def test_decode_sample_seeded():
    p = init_params(SMALL, 4)
    z = np.random.default_rng(3).standard_normal(6)
    a = decode(p, z, mode="sample", temperature=1.0, rng=np.random.default_rng(1))
    b = decode(p, z, mode="sample", temperature=1.0, rng=np.random.default_rng(1))
    assert a == b
    with pytest.raises(ValueError):
        decode(p, z, mode="sample")
    with pytest.raises(ShapeError):
        decode(p, np.zeros(7))


def _reference_decode(p, z, rng=None):
    """decode() written out with the cell equations inline: greedy without an
    rng, else sampled at temperature 1."""
    h_dim = p.config.hidden_dim
    wh, gz = p.dec_wh, z @ p.dec_wz + p.dec_b
    h = np.tanh(z @ p.z_w + p.z_b)
    x = np.zeros(p.config.embed_dim)
    tokens = []
    for t in range(p.config.seq_len):
        g = x @ p.dec_wx + gz
        r = 1.0 / (1.0 + np.exp(-(g[:h_dim] + h @ wh[:, :h_dim])))
        u = 1.0 / (1.0 + np.exp(-(g[h_dim : 2 * h_dim] + h @ wh[:, h_dim : 2 * h_dim])))
        c = np.tanh(g[2 * h_dim :] + (r * h) @ wh[:, 2 * h_dim :])
        h = u * h + (1.0 - u) * c
        logits = h @ p.out_w + p.out_b
        if t == 0:
            logits[HOLD] = -np.inf
        if rng is None:
            tok = int(np.argmax(logits))
        else:
            probs = np.exp(logits - logits.max())
            tok = int(rng.choice(VOCAB_SIZE, p=probs / probs.sum()))
        tokens.append(tok)
        x = p.embed[tok]
    return tuple(tokens)


@pytest.mark.parametrize("cfg", [SMALL, ModelConfig(latent_dim=4)])
def test_decode_matches_reference_loop(cfg):
    p = init_params(cfg, 6)
    rng = np.random.default_rng(7)
    for name in ("z_b", "dec_b", "out_b"):  # init leaves biases at zero
        getattr(p, name)[...] = rng.normal(0.0, 0.5, getattr(p, name).shape)
    for _ in range(5):
        z = rng.standard_normal(cfg.latent_dim)
        assert decode(p, z).tokens == _reference_decode(p, z)
        seed = int(rng.integers(2**31))
        got = decode(p, z, mode="sample", temperature=1.0, rng=np.random.default_rng(seed))
        assert got.tokens == _reference_decode(p, z, np.random.default_rng(seed))


# ---------------------------------------------------------------- loss

def test_kl_closed_forms():
    assert gaussian_kl(np.zeros(8), np.zeros(8)) == pytest.approx(0.0)
    mu = np.zeros(8)
    mu[0] = 1.0
    assert gaussian_kl(mu, np.zeros(8)) == pytest.approx(0.5)
    # generic value against the formula
    mu = np.array([0.3, -0.7])
    logvar = np.array([0.2, -0.4])
    expected = 0.5 * np.sum(mu**2 + np.exp(logvar) - 1.0 - logvar)
    assert gaussian_kl(mu, logvar) == pytest.approx(expected)


def test_kl_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(200):
        kl = gaussian_kl(rng.standard_normal(16), rng.standard_normal(16))
        assert kl >= 0.0


def test_elbo_loss_composition():
    p = init_params(SMALL, 7)
    rng = np.random.default_rng(5)
    batch = random_tokens(rng, 4)
    loss, recon, kl = elbo_loss(p, batch, 0.25, np.random.default_rng(1))
    assert loss == pytest.approx(recon + 0.25 * kl)
    assert kl >= 0.0
    # identical rng seed reproduces the loss exactly
    loss2, _, _ = elbo_loss(p, batch, 0.25, np.random.default_rng(1))
    assert loss == loss2


def test_gradients_match_finite_differences_sampled():
    # a fast spot check; the full-coverage oracle lives in the acceptance suite
    p = init_params(ModelConfig(embed_dim=4, hidden_dim=6, latent_dim=5, seq_len=32), 1)
    rng = np.random.default_rng(3)
    batch = random_tokens(rng, 2)
    beta = 0.17
    _, _, _, grads = elbo_loss_and_grads(p, batch, beta, np.random.default_rng(7))
    eps = 1e-3
    for name, arr in p.arrays().items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(0, flat.size, max(1, flat.size // 8)):
            orig = flat[i]
            flat[i] = orig + eps
            lp = elbo_loss(p, batch, beta, np.random.default_rng(7))[0]
            flat[i] = orig - eps
            lm = elbo_loss(p, batch, beta, np.random.default_rng(7))[0]
            flat[i] = orig
            fd = (lp - lm) / (2 * eps)
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
            assert rel < 1e-4, f"{name}[{i}]: fd={fd} grad={gflat[i]}"


def test_gradients_with_input_dropout_mask():
    # the masked decoder-input path must also produce exact gradients
    from latent_lens.vae import _loss_backward, _loss_forward

    p = init_params(ModelConfig(embed_dim=4, hidden_dim=6, latent_dim=5, seq_len=32), 2)
    rng = np.random.default_rng(13)
    batch = random_tokens(rng, 2)
    keep = (rng.random(batch.shape) >= 0.4).astype(float)
    eps_noise = np.random.default_rng(7).standard_normal((2, 5))
    _, _, _, state = _loss_forward(p, batch, 0.2, eps_noise, True, keep)
    grads = _loss_backward(p, batch, 0.2, eps_noise, state)
    step = 1e-3
    for name in ("embed", "dec_wx", "z_w", "w_mu"):
        arr = p.arrays()[name]
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(0, flat.size, max(1, flat.size // 10)):
            orig = flat[i]
            flat[i] = orig + step
            lp = _loss_forward(p, batch, 0.2, eps_noise, False, keep)[0]
            flat[i] = orig - step
            lm = _loss_forward(p, batch, 0.2, eps_noise, False, keep)[0]
            flat[i] = orig
            fd = (lp - lm) / (2 * step)
            assert abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8) < 1e-4


# ---------------------------------------------------------------- training

def tiny_corpus(n=64, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        toks = [int(rng.integers(0, 128))]
        for _ in range(31):
            toks.append(int(rng.integers(0, 130)) if rng.random() < 0.3 else HOLD)
        out.append(TokenSequence(tuple(toks), 2))
    return out


def test_training_reduces_loss():
    seqs = tiny_corpus(96)
    p0 = init_params(SMALL, 0)
    cfg = TrainConfig(epochs=8, batch=16, seed=0, beta_anneal_steps=50)
    params, history = train(p0, seqs, cfg)
    assert history[-1].recon_ce < history[0].recon_ce
    assert len(history) == 8
    assert history[0].sigma_median.shape == (6,)


def test_training_deterministic():
    seqs = tiny_corpus(48)
    cfg = TrainConfig(epochs=3, batch=16, seed=4)
    pa, ha = train(init_params(SMALL, 1), seqs, cfg)
    pb, hb = train(init_params(SMALL, 1), seqs, cfg)
    for name, arr in pa.arrays().items():
        assert np.array_equal(arr, pb.arrays()[name]), name
    assert [h.loss for h in ha] == [h.loss for h in hb]


def test_training_does_not_mutate_input_params():
    seqs = tiny_corpus(32)
    p0 = init_params(SMALL, 2)
    before = {k: v.copy() for k, v in p0.arrays().items()}
    train(p0, seqs, TrainConfig(epochs=1, batch=16, seed=0))
    for name, arr in p0.arrays().items():
        assert np.array_equal(arr, before[name])


# ---------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    p = init_params(SMALL, 9)
    path = tmp_path / "model.npz"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q.config == p.config
    for name, arr in p.arrays().items():
        assert np.array_equal(arr, q.arrays()[name])


def test_checkpoint_corrupt_rejected(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_config_mismatch(tmp_path):
    p = init_params(SMALL, 9)
    path = tmp_path / "model.npz"
    save_checkpoint(p, path)
    other = ModelConfig(embed_dim=8, hidden_dim=12, latent_dim=12, seq_len=32)
    with pytest.raises(CheckpointError):
        load_checkpoint(path, expect_config=other)


def test_checkpoint_missing_meta(tmp_path):
    path = tmp_path / "plain.npz"
    np.savez(path, a=np.zeros(3))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
