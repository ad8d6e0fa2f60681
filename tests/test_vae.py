import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latent_lens import vae
from latent_lens.corpus import SyntheticConfig, gen_musical_corpus
from latent_lens.melody import HOLD, REST, VOCAB_SIZE, TokenSequence, tokenize
from latent_lens.vae import (
    CheckpointError,
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


# ------------------------------------------------- batch-major reference
# The training pass written the plain way: (B, T, .) arrays, 3-D input
# products and np.add.at scatters, sharing only the cell step with vae.py.

def _ref_scan(g, wh, h0):
    b, t_len, h3 = g.shape
    hs = np.empty((b, t_len, h3 // 3))
    ru = np.empty((b, t_len, 2 * h3 // 3))
    c = np.empty((b, t_len, h3 // 3))
    h = h0
    for t in range(t_len):
        h, ru[:, t], c[:, t] = vae._gru_step(g[:, t], h, wh)
        hs[:, t] = h
    return hs, ru, c


def _ref_scan_backward(wh, h0, hs, ru, c_all, dhs):
    b, t_len, h = hs.shape
    h_prev_all = np.concatenate((h0[:, None], hs[:, :-1]), axis=1)
    dg = np.empty((b, t_len, 3 * h))
    dh = np.zeros((b, h))
    for t in reversed(range(t_len)):
        h_prev, r, u, c = h_prev_all[:, t], ru[:, t, :h], ru[:, t, h:], c_all[:, t]
        dh = dh + dhs[:, t]
        dg[:, t, 2 * h :] = dh * (1.0 - u) * (1.0 - c * c)
        ds = dg[:, t, 2 * h :] @ wh[:, 2 * h :].T
        dg[:, t, :h] = ds * h_prev * r * (1.0 - r)
        dg[:, t, h : 2 * h] = dh * (h_prev - c) * u * (1.0 - u)
        dh = dh * u + ds * r + dg[:, t, : 2 * h] @ wh[:, : 2 * h].T
    s = ru[..., :h] * h_prev_all
    dwh = np.concatenate((np.einsum("bti,btj->ij", h_prev_all, dg[..., : 2 * h]),
                          np.einsum("bti,btj->ij", s, dg[..., 2 * h :])), axis=1)
    return dg, dwh, dh


def reference_encoder(p, tokens):
    xe = p.embed[tokens]
    hs, ru, c = _ref_scan(xe @ p.enc_wx + p.enc_b, p.enc_wh,
                          np.zeros((tokens.shape[0], p.config.hidden_dim)))
    h_t = hs[:, -1]
    return xe, (hs, ru, c), h_t @ p.w_mu + p.b_mu, h_t @ p.w_logvar + p.b_logvar


def reference_loss_and_grads(p, tokens, beta, eps, keep_mask=None):
    b, t_len = tokens.shape
    xe, (hs_e, ru_e, c_e), mu, logvar = reference_encoder(p, tokens)
    sigma = np.exp(0.5 * logvar)
    z = mu + sigma * eps
    h0 = np.tanh(z @ p.z_w + p.z_b)
    mask = np.ones((b, t_len)) if keep_mask is None else keep_mask
    xd = np.zeros((b, t_len, p.config.embed_dim))
    xd[:, 1:] = p.embed[tokens[:, :-1]]
    xd *= mask[:, :, None]
    hs_d, ru_d, c_d = _ref_scan(xd @ p.dec_wx + (z @ p.dec_wz)[:, None] + p.dec_b,
                                p.dec_wh, h0)
    logits = hs_d @ p.out_w + p.out_b
    m = logits.max(axis=-1, keepdims=True)
    prob = np.exp(logits - m)
    lse = m[..., 0] + np.log(prob.sum(axis=-1))
    prob /= prob.sum(axis=-1, keepdims=True)
    bi, ti = np.indices(tokens.shape)
    loss = (lse - logits[bi, ti, tokens]).mean() + beta * gaussian_kl(mu, logvar).mean()

    g = {}
    dlogits = prob
    dlogits[bi, ti, tokens] -= 1.0
    dlogits /= b * t_len
    g["out_w"] = np.einsum("bth,btv->hv", hs_d, dlogits)
    g["out_b"] = dlogits.sum(axis=(0, 1))
    dg_d, g["dec_wh"], dh0 = _ref_scan_backward(p.dec_wh, h0, hs_d, ru_d, c_d,
                                                dlogits @ p.out_w.T)
    g["dec_wx"] = np.einsum("bte,btg->eg", xd, dg_d)
    g["dec_wz"] = z.T @ dg_d.sum(axis=1)
    g["dec_b"] = dg_d.sum(axis=(0, 1))
    d_embed = np.zeros_like(p.embed)
    np.add.at(d_embed, tokens[:, :-1], ((dg_d @ p.dec_wx.T) * mask[:, :, None])[:, 1:])
    da0 = dh0 * (1.0 - h0 * h0)
    g["z_w"] = z.T @ da0
    g["z_b"] = da0.sum(axis=0)
    dz = da0 @ p.z_w.T + dg_d.sum(axis=1) @ p.dec_wz.T
    dmu = dz + beta * mu / b
    dlogvar = dz * eps * 0.5 * sigma + beta * 0.5 * (np.exp(logvar) - 1.0) / b
    h_t = hs_e[:, -1]
    g["w_mu"], g["b_mu"] = h_t.T @ dmu, dmu.sum(axis=0)
    g["w_logvar"], g["b_logvar"] = h_t.T @ dlogvar, dlogvar.sum(axis=0)
    dhs_e = np.zeros_like(hs_e)
    dhs_e[:, -1] = dmu @ p.w_mu.T + dlogvar @ p.w_logvar.T
    dg_e, g["enc_wh"], _ = _ref_scan_backward(p.enc_wh, np.zeros_like(h0), hs_e, ru_e,
                                              c_e, dhs_e)
    g["enc_wx"] = np.einsum("bte,btg->eg", xe, dg_e)
    g["enc_b"] = dg_e.sum(axis=(0, 1))
    np.add.at(d_embed, tokens, dg_e @ p.enc_wx.T)
    g["embed"] = d_embed
    return loss, g


def tokens_using(rng, n, n_used):
    """(n, 32) tokens drawn from n_used distinct tokens, each of which appears
    where the batch has room."""
    used = rng.permutation(VOCAB_SIZE)[:n_used]
    tokens = used[rng.integers(0, n_used, (n, 32))]
    k = min(n_used, tokens.size)
    tokens.flat[:k] = used[:k]
    return tokens


def with_random_biases(p, rng):
    for name, arr in p.arrays().items():  # init leaves biases at zero
        if arr.ndim == 1:
            arr[...] = rng.normal(0.0, 0.5, arr.shape)
    return p


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


@pytest.mark.parametrize("cfg", [ModelConfig(), ModelConfig(seq_len=256)],
                         ids=["default", "16bar"])
def test_params_views_tile_flat_in_name_order(cfg):
    p = init_params(cfg, 0)
    assert p.flat.dtype == np.float64 and p.flat.flags.c_contiguous
    offset = 0
    for name in vae.PARAM_NAMES:
        arr = getattr(p, name)
        assert arr.base is p.flat, name
        assert arr.__array_interface__["data"][0] == p.flat.ctypes.data + 8 * offset, name
        offset += arr.size
    assert offset == p.flat.size


@pytest.mark.parametrize("cfg", [ModelConfig(), ModelConfig(seq_len=256)],
                         ids=["default", "16bar"])
def test_copy_and_gradients_share_no_memory_with_params(cfg):
    p = init_params(cfg, 0)
    q = p.copy()
    assert not np.shares_memory(q.flat, p.flat)
    assert np.array_equal(q.flat, p.flat)
    for name, arr in q.arrays().items():
        assert arr.base is q.flat, name
    tokens = random_tokens(np.random.default_rng(0), 2, cfg.seq_len)
    grads = elbo_loss_and_grads(p, tokens, 0.1, np.random.default_rng(1))[3]
    assert list(grads) == list(vae.PARAM_NAMES)
    for name, g in grads.items():
        assert g.shape == getattr(p, name).shape, name
        assert not np.shares_memory(g, p.flat), name


# ---------------------------------------------------------------- encode

def test_encode_shape_and_purity():
    p = init_params(SMALL, 1)
    rng = np.random.default_rng(0)
    seq = random_seq(rng)
    mu1, sigma1 = encode(p, seq)
    mu2, sigma2 = encode(p, seq)
    assert mu1.shape == (6,) and sigma1.shape == (6,)
    assert np.all(np.isfinite(mu1)) and np.all(sigma1 > 0)
    assert np.array_equal(mu1, mu2) and np.array_equal(sigma1, sigma2)


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
        mu, sigma = encode(p, TokenSequence(tuple(toks[i]), 2))
        assert np.allclose(mus[i], mu)
        assert np.allclose(sigmas[i], sigma)


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
    """The cache-free inference scan over token tables gives exactly the
    output of the batch-major reference encoder (3-D input product)."""
    rng = np.random.default_rng(seed)
    p = with_random_biases(init_params(cfg, seed % 5), rng)
    tokens = tokens_using(rng, n, n_used)
    mu, logvar = reference_encoder(p, tokens)[-2:]
    mus, sigmas = encode_batch(p, tokens)
    assert np.array_equal(mus, mu)
    assert np.array_equal(sigmas, np.exp(0.5 * logvar))


# ---------------------------------------------------------------- decode

def test_decode_structural_validity():
    p = init_params(SMALL, 4)
    seqs = decode(p, np.random.default_rng(2).standard_normal((20, 6)))
    assert len(seqs) == 20
    for seq in seqs:
        assert len(seq) == 32
        assert seq.tokens[0] != HOLD
        assert all(0 <= t < 130 for t in seq)


def test_decode_greedy_deterministic():
    p = init_params(SMALL, 4)
    zs = np.random.default_rng(3).standard_normal((3, 6))
    assert decode(p, zs) == decode(p, zs)


def test_decode_rejects_bad_shapes():
    p = init_params(SMALL, 4)
    with pytest.raises(ShapeError):
        decode(p, np.zeros(6))  # one latent must still be a (1, d) row
    with pytest.raises(ShapeError):
        decode(p, np.zeros((2, 7)))


def _reference_decode(p, z):
    """Greedy decoding of one latent vector, with the cell equations inline."""
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
        tok = int(np.argmax(logits))
        tokens.append(tok)
        x = p.embed[tok]
    return tuple(tokens)


@pytest.mark.parametrize("cfg", [SMALL, ModelConfig(latent_dim=4)])
def test_decode_matches_reference_loop(cfg):
    p = init_params(cfg, 6)
    rng = np.random.default_rng(7)
    for name in ("z_b", "dec_b", "out_b"):  # init leaves biases at zero
        getattr(p, name)[...] = rng.normal(0.0, 0.5, getattr(p, name).shape)
    zs = rng.standard_normal((8, cfg.latent_dim))
    got = decode(p, zs)
    assert len(got) == len(zs)
    for seq, z in zip(got, zs):
        assert seq.tokens == _reference_decode(p, z)


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
    _, _, _, state = _loss_forward(p, batch, 0.2, eps_noise, keep)
    grads = _loss_backward(p, batch, 0.2, eps_noise, state).arrays()
    step = 1e-3
    for name in ("embed", "dec_wx", "z_w", "w_mu"):
        arr = p.arrays()[name]
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(0, flat.size, max(1, flat.size // 10)):
            orig = flat[i]
            flat[i] = orig + step
            lp = _loss_forward(p, batch, 0.2, eps_noise, keep)[0]
            flat[i] = orig - step
            lm = _loss_forward(p, batch, 0.2, eps_noise, keep)[0]
            flat[i] = orig
            fd = (lp - lm) / (2 * step)
            assert abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8) < 1e-4


def test_spent_cache_is_refused():
    """A backward pass overwrites its cache's logits and gates with their
    gradients, so a second one from the same cache raises."""
    p = init_params(SMALL, 0)
    tokens = random_tokens(np.random.default_rng(0), 4)
    eps = np.random.default_rng(1).standard_normal((4, SMALL.latent_dim))
    cache = vae._loss_forward(p, tokens, 0.1, eps)[3]
    vae._loss_backward(p, tokens, 0.1, eps, cache)
    with pytest.raises(ValueError, match="spent"):
        vae._loss_backward(p, tokens, 0.1, eps, cache)


# one workspace across all examples, so that a stale or unwritten buffer
# entry left by an earlier (larger) example shows as a mismatch
_SHARED_WS = vae._Workspace()


@settings(max_examples=30, deadline=None)
@given(
    cfg=st.sampled_from([SMALL, ModelConfig(embed_dim=16, hidden_dim=24, latent_dim=4)]),
    n=st.integers(1, 40),
    n_used=st.integers(1, VOCAB_SIZE),
    masked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(cfg=SMALL, n=4, n_used=1, masked=False, seed=0)  # one token
@example(cfg=SMALL, n=4, n_used=1, masked=True, seed=1)
@example(cfg=SMALL, n=1, n_used=20, masked=True, seed=2)
@example(cfg=SMALL, n=40, n_used=VOCAB_SIZE, masked=False, seed=3)  # every token
@example(cfg=SMALL, n=40, n_used=VOCAB_SIZE, masked=True, seed=4)
def test_loss_and_grads_equal_batch_major_reference(cfg, n, n_used, masked, seed):
    """The time-major, token-table training pass matches the batch-major
    reference to 1e-12 of each array's largest entry."""
    rng = np.random.default_rng(seed)
    p = with_random_biases(init_params(cfg, seed % 7), rng)
    tokens = tokens_using(rng, n, n_used)
    eps = rng.standard_normal((n, cfg.latent_dim))
    keep = (rng.random(tokens.shape) >= 0.3).astype(float) if masked else None
    loss, _, _, state = vae._loss_forward(p, tokens, 0.05, eps, keep, _SHARED_WS)
    grads = vae._loss_backward(p, tokens, 0.05, eps, state).arrays()
    ref_loss, ref_grads = reference_loss_and_grads(p, tokens, 0.05, eps, keep)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert grads[name].shape == ref.shape, name
        assert np.abs(grads[name] - ref).max() <= 1e-12 * np.abs(ref).max(), name


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


def test_workspace_reuse_changes_no_weight(monkeypatch):
    """Training with buffers reused from step to step gives the weights of
    training with a fresh NaN-filled array for every request."""
    seqs = tiny_corpus(64)  # 58 training rows: batches of 16, 16, 16 and 10
    cfg = TrainConfig(epochs=2, batch=16, seed=3)
    reused, _ = train(init_params(SMALL, 5), seqs, cfg)
    monkeypatch.setattr(vae._Workspace, "get", lambda self, name, shape: np.full(shape, np.nan))
    fresh, _ = train(init_params(SMALL, 5), seqs, cfg)
    for name, arr in reused.arrays().items():
        assert np.array_equal(arr, fresh.arrays()[name]), name


def test_adam_step_matches_textbook_update():
    p = with_random_biases(init_params(SMALL, 8), np.random.default_rng(8))
    q = p.copy()
    rng = np.random.default_rng(9)
    state, ws = vae.TrainState.fresh(p, TrainConfig(1)), vae._Workspace()
    m = {k: np.zeros_like(v) for k, v in q.arrays().items()}
    v = {k: np.zeros_like(a) for k, a in q.arrays().items()}
    for t in range(1, 4):
        grads = {k: rng.standard_normal(a.shape) for k, a in q.arrays().items()}
        state.adam_step(p, np.concatenate([g.ravel() for g in grads.values()]), 1e-3, ws)
        for k, g in grads.items():
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
            update = (m[k] / (1.0 - 0.9**t)) / (np.sqrt(v[k] / (1.0 - 0.999**t)) + 1e-8)
            getattr(q, k)[...] -= 1e-3 * update
    for k, a in p.arrays().items():
        assert np.array_equal(a, q.arrays()[k]), k


def traced_peak(fn) -> int:
    """The peak of the memory ``fn()`` allocates, as tracemalloc sees it
    (numpy's data buffers included); memory held before the call is not
    traced.  Inside ``fn``, tracemalloc.get_traced_memory() reads from the
    same base."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def musical_batch(n=32):
    return np.array([tuple(tokenize(m)) for m in gen_musical_corpus(SyntheticConfig(seed=7), n)])


def _train_step(params, state, ws, batch, rng):
    """One step of ``train``'s inner loop."""
    eps = rng.standard_normal((batch.shape[0], params.config.latent_dim))
    keep = rng.random(batch.shape) >= 0.3
    cache = vae._loss_forward(params, batch, 0.005, eps, keep, ws)[3]
    grads = vae._loss_backward(params, batch, 0.005, eps, cache)
    vae._clip_grads(grads, 1.0, ws)
    state.adam_step(params, grads.flat, 1e-3, ws)


# The largest rise of traced memory that one steady-state step may make.  It
# measured 19.4 MB when every step allocated its (T, B, .) arrays and
# optimizer temporaries afresh, 3.0 MB with those in the workspace but the
# gradients and token tables fresh per step, and 0.7 MB with every array a
# step keeps in the workspace, each phase writing over buffers whose
# contents are dead (see vae._Workspace): what is left is (B, H)-sized
# temporaries.
STEP_PEAK_BOUND = 4_000_000


def test_steady_state_step_allocates_no_large_block():
    """After two warm-up steps, a B=32 step of the default model allocates no
    block of 1 MiB or more, and its traced memory rises by less than
    STEP_PEAK_BOUND.  tracemalloc sees numpy's data buffers; memory is read
    at every line, call and return, and a block allocated between two
    readings raises the peak of that interval by at least its size, less
    what the interval freed before it."""
    params = init_params(ModelConfig(), 0)
    state = vae.TrainState.fresh(params, TrainConfig(1))
    ws = vae._Workspace()
    rng = np.random.default_rng(0)
    batches = [random_tokens(rng, 32) for _ in range(3)]
    for batch in batches[:2]:
        _train_step(params, state, ws, batch, rng)

    largest = 0
    level = 0

    def watch(frame, event, arg):
        nonlocal largest, level
        current, peak = tracemalloc.get_traced_memory()
        largest = max(largest, peak - level)
        tracemalloc.reset_peak()
        level = current
        return watch

    def watched_step():
        nonlocal level
        level = tracemalloc.get_traced_memory()[0]
        outer = sys.gettrace()
        sys.settrace(watch)
        try:
            _train_step(params, state, ws, batches[2], np.random.default_rng(1))
        finally:
            sys.settrace(outer)

    traced_peak(watched_step)
    step_peak = traced_peak(
        lambda: _train_step(params, state, ws, batches[0], np.random.default_rng(2)))
    assert largest < 1 << 20
    assert step_peak < STEP_PEAK_BOUND


# The most the workspace may hold after one B = 32 step of the default model
# at 2 bars, on a batch of the musical corpus.  It measured 12.3 MiB with the
# backward scans' gate gradients written over their gates and clipping and
# Adam working in the encoder's gate buffer, and 17.2 MiB with a buffer each.
WORKSPACE_2BAR_BOUND = 12.5 * 2**20


def test_workspace_holds_no_buffer_of_a_dead_phase():
    params = init_params(ModelConfig(), 0)
    ws = vae._Workspace()
    _train_step(params, vae.TrainState.fresh(params, TrainConfig(1)), ws, musical_batch(),
                np.random.default_rng(1))
    assert sum(buf.nbytes for buf in ws._buffers.values()) <= WORKSPACE_2BAR_BOUND


def test_train_peaks_in_its_steps(monkeypatch):
    """A whole ``train`` call's traced peak, epoch end included, exceeds the
    peak of its steps by less than 1 MiB: the held-out encode (200 rows)
    keeps its step buffers and token table in the training workspace."""
    step_peaks = []

    def held_out_encode(*args):
        step_peaks.append(tracemalloc.get_traced_memory()[1])
        return encode_batch(*args)

    monkeypatch.setattr(vae, "encode_batch", held_out_encode)
    corpus = musical_batch(2000)
    np.median(corpus[:2], axis=0)  # its first call imports numpy.ma, not train's doing
    peak = traced_peak(lambda: train(init_params(ModelConfig(), 0), corpus, TrainConfig(1)))
    assert len(step_peaks) == 1
    assert peak - step_peaks[0] < 1 << 20


# The most a 1-epoch default-model ``train`` call on 2,000 melodies may trace,
# weights given excluded.  It measured 22.6-23.1 MiB when ``train`` copied
# the weights and the whole training state at every epoch end, so that a
# divergence could hand back the last completed epoch, and 18.0-18.6 MiB
# without that copy (the ``train`` command keeps that epoch on disk).
TRAIN_PEAK_BOUND = 20 << 20


def test_train_keeps_no_copy_of_the_run():
    corpus = musical_batch(2000)
    np.median(corpus[:2], axis=0)  # its first call imports numpy.ma, not train's doing
    p0 = init_params(ModelConfig(), 0)
    assert traced_peak(lambda: train(p0, corpus, TrainConfig(1))) < TRAIN_PEAK_BOUND


# The largest traced memory one B = 32 step of the default model may reach at
# 16 bars (seq_len 256), workspace included.  It measured 171.5 MiB when the
# training pass copied every step's gate inputs and output gradients into
# (T, B, .) arrays, 115.7 MiB with the gate inputs gathered a few steps at a
# time and the output gradients computed step by step (117.1 MiB measured
# again later), and 91.7 MiB with the backward scans' gate gradients written
# over their gates and clipping and Adam working in the encoder's gate buffer.
STEP_16BAR_PEAK_BOUND = 100 << 20


def test_16bar_step_memory_follows_the_batch():
    """A first 16-bar step, with a fresh workspace, stays under
    STEP_16BAR_PEAK_BOUND: the scans keep no whole-sequence copy of their
    inputs or of the decoder's output gradients."""
    params = init_params(ModelConfig(seq_len=256), 0)
    state = vae.TrainState.fresh(params, TrainConfig(1))
    batch = random_tokens(np.random.default_rng(0), 32, seq_len=256)
    step_peak = traced_peak(
        lambda: _train_step(params, state, vae._Workspace(), batch, np.random.default_rng(1)))
    assert step_peak < STEP_16BAR_PEAK_BOUND


def test_training_does_not_mutate_input_params():
    seqs = tiny_corpus(32)
    p0 = init_params(SMALL, 2)
    before = {k: v.copy() for k, v in p0.arrays().items()}
    train(p0, seqs, TrainConfig(epochs=1, batch=16, seed=0))
    for name, arr in p0.arrays().items():
        assert np.array_equal(arr, before[name])


@settings(max_examples=12, deadline=None)
@given(first=st.integers(1, 3), more=st.integers(1, 3), dropout=st.sampled_from([0.0, 0.3]),
       anneal=st.integers(1, 30))
def test_resumed_training_equals_training_straight_through(tmp_path_factory, first, more,
                                                           dropout, anneal):
    """E1 epochs, a checkpoint with the state, and E2 more give the weights
    and history rows of E1 + E2 epochs in one call.  A run takes 3 steps an
    epoch, so the beta ramp ends inside some runs and after others."""
    seqs = tiny_corpus(40)
    cfg = dict(batch=16, seed=5, beta_anneal_steps=anneal, input_dropout=dropout)
    p0 = init_params(SMALL, 6)
    straight, rows = train(p0, seqs, TrainConfig(epochs=first + more, **cfg))
    state = vae.TrainState.fresh(p0, TrainConfig(epochs=first, **cfg))
    part, head = train(p0, seqs, TrainConfig(epochs=first, **cfg), state)
    path = tmp_path_factory.mktemp("resume") / "model.npz"
    save_checkpoint(part, path, state)
    params, state = load_checkpoint(path, with_state=True)
    resumed, tail = train(params, seqs, TrainConfig(epochs=more, **cfg), state)
    assert np.array_equal(resumed.flat, straight.flat)
    assert (state.steps, state.epochs) == (3 * (first + more), first + more)
    assert state.settings == TrainConfig(epochs=1, **cfg).settings()
    assert len(state.history) == len(rows)
    for got, want in zip(head + tail, rows, strict=True):
        assert (got.epoch, got.loss, got.recon_ce, got.kl) == (
            want.epoch, want.loss, want.recon_ce, want.kl)
        assert np.array_equal(got.sigma_median, want.sigma_median)
    assert all(got is want for got, want in zip(state.history[first:], tail, strict=True))


@pytest.mark.parametrize("setting, value", [("seed", 1), ("batch", 8), ("beta_max", 0.5),
                                            ("beta_anneal_steps", 7), ("grad_clip_norm", 2.0),
                                            ("input_dropout", 0.0)])
def test_resume_with_another_setting_is_refused(setting, value):
    """A run goes on with the settings it was started with; only the rate
    may change, and with it the run goes on at the new rate."""
    seqs = tiny_corpus(40)
    state = vae.TrainState.fresh(init_params(SMALL, 6), TrainConfig(epochs=1, batch=16))
    p1, _ = train(init_params(SMALL, 6), seqs, TrainConfig(epochs=1, batch=16), state)
    steps = state.steps
    with pytest.raises(ValueError, match=f"^{setting} is "):
        train(p1, seqs, TrainConfig(**{"epochs": 1, "batch": 16, setting: value}), state)
    assert (state.steps, state.epochs) == (steps, 1)
    train(p1, seqs, TrainConfig(epochs=1, batch=16, lr=5e-4), state)
    assert (state.epochs, state.settings["lr"]) == (2, 5e-4)


def test_divergence_carries_the_last_completed_epoch(monkeypatch):
    """A run of one-epoch calls that fails in its third raises
    TrainingDiverged naming epoch 2.  The weights that call was given, the
    last completed epoch's, are untouched, and so are those the run began
    from; the state has taken the failed epoch's steps but not its row."""
    seqs = tiny_corpus(40)  # 36 training rows: 3 steps an epoch
    cfg = TrainConfig(epochs=1, batch=16, seed=2)
    p0 = init_params(SMALL, 3)
    start = p0.flat.copy()
    state = vae.TrainState.fresh(p0, cfg)
    params = p0
    for _ in range(2):
        params, _ = train(params, seqs, cfg, state)
    two = params.flat.copy()
    loss_forward, calls = vae._loss_forward, []

    def failing_at_its_second_step(*args):
        calls.append(None)
        if len(calls) == 2:
            raise vae.NumericalError("non-finite loss (first bad batch index 0)")
        return loss_forward(*args)

    monkeypatch.setattr(vae, "_loss_forward", failing_at_its_second_step)
    with pytest.raises(vae.TrainingDiverged, match="^epoch 2: non-finite loss"):
        train(params, seqs, cfg, state)
    assert np.array_equal(params.flat, two)
    assert np.array_equal(p0.flat, start)
    assert (state.steps, state.epochs, len(state.history)) == (7, 2, 2)


def test_int_given_for_a_float_setting_is_stored_as_a_float(tmp_path):
    """A float setting given as an int trains, is stored as a float, and
    the run resumes from its checkpoint.  An int setting refuses a float,
    and no setting takes a bool."""
    seqs = tiny_corpus(40)
    cfg = TrainConfig(epochs=1, batch=16, beta_max=0)
    assert type(cfg.beta_max) is float
    state = vae.TrainState.fresh(init_params(SMALL, 6), cfg)
    p1, _ = train(init_params(SMALL, 6), seqs, cfg, state)
    path = tmp_path / "model.npz"
    save_checkpoint(p1, path, state)
    params, loaded = load_checkpoint(path, with_state=True)
    assert loaded.settings == {**TrainConfig(1).settings(), "batch": 16, "beta_max": 0.0}
    train(params, seqs, cfg, loaded)
    assert loaded.epochs == 2
    for name, value in [("batch", 16.0), ("seed", True), ("lr", True), ("epochs", "1")]:
        with pytest.raises(TypeError, match=f"^{name} must be "):
            TrainConfig(**{"epochs": 1, name: value})


# ---------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    p = init_params(SMALL, 9)
    path = tmp_path / "model.npz"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q.config == p.config
    for name, arr in p.arrays().items():
        assert np.array_equal(arr, q.arrays()[name])


def test_checkpoint_resave_is_byte_identical(tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(with_random_biases(init_params(SMALL, 9), np.random.default_rng(9)), path)
    again = tmp_path / "again.npz"
    save_checkpoint(load_checkpoint(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_with_state_keeps_the_weights_and_adds_members(tmp_path):
    """A checkpoint saved with a training state holds the same weights and
    metadata plus the state; one saved without it cannot be resumed."""
    p = with_random_biases(init_params(SMALL, 9), np.random.default_rng(9))
    state = vae.TrainState.fresh(p, TrainConfig(epochs=1, batch=16))
    train(p, tiny_corpus(40), TrainConfig(epochs=1, batch=16), state)
    plain, stateful = tmp_path / "plain.npz", tmp_path / "stateful.npz"
    save_checkpoint(p, plain)
    save_checkpoint(p, stateful, state)
    with np.load(plain) as a, np.load(stateful) as b:
        assert sorted(b) == sorted([*a, "adam_m", "adam_v"])
        assert all(np.array_equal(a[name], b[name]) for name in a if name != "meta")
        meta = json.loads(bytes(b["meta"]))
        [row] = state.history
        assert meta.pop("train") == {
            "steps": 3, "epochs": 1, "rng": state.rng,
            "settings": TrainConfig(epochs=1, batch=16).settings(),
            "history": [{"epoch": 0, "loss": row.loss, "recon_ce": row.recon_ce, "kl": row.kl,
                         "sigma_median": row.sigma_median.tolist()}]}
        assert meta == json.loads(bytes(a["meta"]))
    assert np.array_equal(load_checkpoint(stateful).flat, p.flat)
    q, loaded = load_checkpoint(stateful, with_state=True)
    assert np.array_equal(q.flat, p.flat)
    assert (loaded.steps, loaded.epochs, loaded.rng) == (state.steps, state.epochs, state.rng)
    assert loaded.settings == state.settings
    assert [vars(r) | {"sigma_median": None} for r in loaded.history] == [
        vars(r) | {"sigma_median": None} for r in state.history]
    assert np.array_equal(loaded.history[0].sigma_median, row.sigma_median)
    assert np.array_equal(loaded.m, state.m) and np.array_equal(loaded.v, state.v)
    with pytest.raises(CheckpointError, match="no training state"):
        load_checkpoint(plain, with_state=True)


def _with_train(meta, **changes):
    return {**meta, "train": {**meta["train"], **changes}}


def _one_epoch(meta, **settings):
    """The metadata of a state one epoch on, with ``settings`` changed."""
    row = {"epoch": 0, "loss": 4.0, "recon_ce": 3.9, "kl": 0.5, "sigma_median": [0.9] * 6}
    return _with_train(meta, steps=3, epochs=1, history=[row],
                       settings={**TrainConfig(epochs=1).settings(), **settings})


# Metadata faults: (the metadata of a checkpoint saved with a training state,
# made bad; whether only a reader of the state sees the fault)
BAD_METADATA = {
    "config_unknown_key": (lambda meta: {**meta, "config": {**meta["config"], "depth": 2}},
                           False),
    "config_list": (lambda meta: {**meta, "config": [32, 64]}, False),
    "meta_list": (lambda meta: [meta], False),
    "cell_other": (lambda meta: {**meta, "cell": "lstm"}, False),
    "train_list": (lambda meta: {**meta, "train": [0, 0, None]}, True),
    "train_key_missing": (lambda meta: {**meta, "train": {"steps": 0, "epochs": 0}}, True),
    "train_key_unknown": (lambda meta: _with_train(meta, lr=0.1), True),
    "steps_text": (lambda meta: _with_train(meta, steps="3"), True),
    "steps_bool": (lambda meta: _with_train(meta, steps=True), True),
    "epochs_negative": (lambda meta: _with_train(meta, epochs=-1), True),
    "rng_text": (lambda meta: _with_train(meta, rng="PCG64"), True),
    "rng_other_generator": (lambda meta: _with_train(meta, rng={"bit_generator": "MT19937"}),
                            True),
    "settings_key_unknown": (lambda meta: _one_epoch(meta, depth=2), True),
    "settings_before_an_epoch": (lambda meta: _with_train(meta, settings={"depth": 2}), True),
    "settings_key_missing": (lambda meta: _with_train(_one_epoch(meta), settings={"lr": 1e-3}),
                             True),
    "settings_bad_value": (lambda meta: _one_epoch(meta, batch=0), True),
    "settings_bad_type": (lambda meta: _one_epoch(meta, batch=16.0), True),
    "history_rows_not_epochs": (lambda meta: _with_train(_one_epoch(meta), epochs=2), True),
    "history_row_bad": (lambda meta: _with_train(_one_epoch(meta), history=[{"epoch": 0}]), True),
    "before_settings_and_history": (  # a state saved before they were stored
        lambda meta: {**meta, "train": {"steps": 3, "epochs": 1, "rng": meta["train"]["rng"]}},
        True),
}


def bad_metadata_checkpoint(path, fault: str) -> None:
    """Save a checkpoint with a training state, then give it the metadata
    that ``fault`` makes of its own."""
    p = init_params(SMALL, 9)
    state = vae.TrainState.fresh(p, TrainConfig(1))
    state.rng = np.random.default_rng(1).bit_generator.state
    save_checkpoint(p, path, state)
    with np.load(path) as data:
        arrays = dict(data)
    meta = BAD_METADATA[fault][0](json.loads(bytes(arrays["meta"])))
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def test_checkpoint_of_one_epoch_metadata_loads(tmp_path, monkeypatch):
    """The metadata the settings and history faults start from is sound."""
    monkeypatch.setitem(BAD_METADATA, "sound", (_one_epoch, True))
    path = tmp_path / "model.npz"
    bad_metadata_checkpoint(path, "sound")
    _, state = load_checkpoint(path, with_state=True)
    assert state.settings == TrainConfig(epochs=1).settings()
    assert state.history[0].sigma_median.tolist() == [0.9] * 6


@pytest.mark.parametrize("fault", BAD_METADATA)
def test_checkpoint_bad_metadata_rejected(tmp_path, fault):
    path = tmp_path / "model.npz"
    bad_metadata_checkpoint(path, fault)
    with pytest.raises(CheckpointError):
        load_checkpoint(path, with_state=True)
    if BAD_METADATA[fault][1]:  # a reader of the weights alone ignores the state
        assert load_checkpoint(path).config == SMALL
    else:
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


@pytest.mark.parametrize("fault", ["missing", "shape", "dtype"])
def test_checkpoint_bad_state_member_rejected(tmp_path, fault):
    path = tmp_path / "model.npz"
    p = init_params(SMALL, 9)
    save_checkpoint(p, path, vae.TrainState.fresh(p, TrainConfig(1)))
    with np.load(path) as data:
        arrays = dict(data)
    if fault == "missing":
        del arrays["adam_m"]
    elif fault == "shape":
        arrays["adam_v"] = np.zeros(5)
    else:
        arrays["adam_m"] = arrays["adam_m"].astype(np.float32)
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError):
        load_checkpoint(path, with_state=True)
    assert load_checkpoint(path).config == SMALL  # the weights alone still load


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    """A save that fails partway through writing leaves the checkpoint
    already at its path byte for byte."""
    path = tmp_path / "model.npz"
    save_checkpoint(init_params(SMALL, 9), path)
    before = path.read_bytes()

    def failing_savez(fh, **arrays):
        fh.write(before[: len(before) // 2])
        raise OSError("No space left on device")

    monkeypatch.setattr(np, "savez", failing_savez)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(init_params(SMALL, 10), path)
    assert path.read_bytes() == before


def saved_members(path):
    save_checkpoint(init_params(SMALL, 9), path)
    with np.load(path) as data:
        return dict(data)


@pytest.mark.parametrize("dtype", [np.complex128, np.int64, np.bool_])
def test_checkpoint_member_not_float64_rejected(tmp_path, dtype):
    path = tmp_path / "model.npz"
    arrays = saved_members(path)
    arrays["param_w_mu"] = arrays["param_w_mu"].astype(dtype)
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError, match=f"param_w_mu holds {np.dtype(dtype)}, not float64"):
        load_checkpoint(path)


def test_checkpoint_corrupt_rejected(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("data", [b"", b"PK\x03\x04"])
def test_checkpoint_empty_or_truncated_rejected(tmp_path, data):
    path = tmp_path / "short.npz"
    path.write_bytes(data)
    with pytest.raises(CheckpointError, match="unreadable checkpoint"):
        load_checkpoint(path)


def test_checkpoint_config_mismatch(tmp_path):
    # weights that do not fit the config stored beside them are rejected
    path = tmp_path / "model.npz"
    save_checkpoint(init_params(SMALL, 9), path)
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]))
    meta["config"]["latent_dim"] = 12
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError, match="w_mu has shape"):
        load_checkpoint(path)


def test_checkpoint_config_too_large_to_allocate(tmp_path):
    # weights are allocated from the stored config before they are read
    path = tmp_path / "model.npz"
    arrays = saved_members(path)
    meta = json.loads(bytes(arrays["meta"]))
    meta["config"]["embed_dim"] = 10**11  # ~700 TB of weights
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError, match="unreadable checkpoint"):
        load_checkpoint(path)


def test_checkpoint_missing_meta(tmp_path):
    path = tmp_path / "plain.npz"
    np.savez(path, a=np.zeros(3))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
