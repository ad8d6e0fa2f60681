"""A small recurrent sequence VAE with in-module reverse-mode gradients.

Architecture: shared token embedding -> single-layer gated recurrent (GRU)
encoder read left to right -> affine heads producing the latent mean and
log-variance -> reparameterized Gaussian sample -> affine+tanh latent-to-
initial-state map -> GRU decoder run autoregressively (teacher forcing in
training) -> affine softmax head over the 130-token vocabulary.

Everything is float64 numpy.  The loss is reconstruction cross-entropy
averaged over batch and steps plus a beta-weighted KL divergence to the
standard normal prior, and the backward pass is written out by hand so the
whole gradient can be verified against finite differences.

The GRU cell follows the original formulation where the reset gate is
applied to the hidden state before the candidate projection:

    r = sigmoid(Wr x + Ur h + br)
    u = sigmoid(Wu x + Uu h + bu)
    c = tanh(Wc x + Uc (r * h) + bc)
    h' = u * h + (1 - u) * c

``_gru_step`` holds these equations for training, encoding and decoding.
Training and inference encoding both gather gate inputs from tables over
the batch's distinct tokens (``_token_ids``).  Training scans time-major
and sums its input gradients once per token; inference keeps only h and is
bit-identical to the training encoder.  Decoding is greedy and batched:
``decode`` scans all its latent rows at once, gathering each step's gate
input from a table over the whole vocabulary.

The weights are one float64 vector, ``Params.flat``, with a named view per
parameter.  Gradients and Adam's moments are vectors of the same layout, so
clipping scales a gradient in one operation and Adam updates in one pass.
They live in a ``TrainState`` with the run's counts, generator state, settings
and history, so a checkpoint saved with it continues the run exactly.
The training pass writes the gradient, the token tables and their summed
gradients, and the large (T, B, .) arrays that backprop reads (scan states
and gates, and logits), into a ``_Workspace``: named float64 buffers that
outlive one call.  Backprop works in place: each backward scan writes its
gate gradients over the gates it has read, and the logits become their
gradient.  The scans gather their gate inputs from token tables a few steps
at a time (``_GATHER_BYTES``), and the backward decoder scan computes each
step's output gradient in the step, so neither is held for the whole
sequence.  Clipping, Adam and ``encode_batch`` keep their scratch in
buffers that are dead while they run (see ``_Workspace``).  ``train`` makes
one per call, so every step after the first, and every epoch's held-out
encode, writes into memory the call already holds; the public
``elbo_loss``, ``elbo_loss_and_grads`` and ``encode_batch`` make one per
call, and nothing they return aliases a buffer another call writes.  The
gathers use ``np.take(..., mode="clip", out=...)``: with the default
``mode="raise"`` numpy fills a hidden temporary and copies it into
``out``, so that a bad index leaves ``out`` untouched.  The indices are
table rows made here, always in range.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from .melody import HOLD, STEPS_PER_BAR, SUPPORTED_BARS, VOCAB_SIZE, TokenSequence

CHECKPOINT_MAGIC = "latent-lens-checkpoint"
CHECKPOINT_VERSION = 1
CELL_TYPE = "gru"


class ShapeError(ValueError):
    """Input or parameter shapes are inconsistent with the model config."""


class NumericalError(RuntimeError):
    """A non-finite value appeared in the loss, its gradient or a posterior sigma."""


class CheckpointError(ValueError):
    """A checkpoint file is unreadable or incompatible."""


class TrainingDiverged(RuntimeError):
    """Training hit a non-finite loss or posterior sigma; the message names the epoch."""


@dataclass(frozen=True)
class ModelConfig:
    vocab: int = VOCAB_SIZE
    embed_dim: int = 64
    hidden_dim: int = 128
    latent_dim: int = 32
    seq_len: int = 32

    def __post_init__(self) -> None:
        if self.vocab != VOCAB_SIZE:
            raise ValueError(f"vocab is fixed at {VOCAB_SIZE}")
        for name in ("embed_dim", "hidden_dim", "latent_dim", "seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        lengths = [STEPS_PER_BAR * bars for bars in SUPPORTED_BARS]
        if self.seq_len not in lengths:
            raise ValueError(f"seq_len must be {' or '.join(map(str, lengths))}, "
                             f"got {self.seq_len}")

    @property
    def bars(self) -> int:
        return self.seq_len // STEPS_PER_BAR


def _param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    v, e, h, d = cfg.vocab, cfg.embed_dim, cfg.hidden_dim, cfg.latent_dim
    return {
        "embed": (v, e),
        "enc_wx": (e, 3 * h),
        "enc_wh": (h, 3 * h),
        "enc_b": (3 * h,),
        "w_mu": (h, d),
        "b_mu": (d,),
        "w_logvar": (h, d),
        "b_logvar": (d,),
        "z_w": (d, h),
        "z_b": (h,),
        "dec_wx": (e, 3 * h),
        "dec_wz": (d, 3 * h),
        "dec_wh": (h, 3 * h),
        "dec_b": (3 * h,),
        "out_w": (h, v),
        "out_b": (v,),
    }


PARAM_NAMES = tuple(_param_shapes(ModelConfig()).keys())


class Params:
    """All weights of the model, tied to the config they were built for: one
    float64 vector ``flat``, and per name of ``PARAM_NAMES`` an attribute
    viewing its part of ``flat``, reshaped, in that order with no gap."""

    def __init__(self, config: ModelConfig, flat: np.ndarray | None = None):
        shapes = _param_shapes(config)
        self.config = config
        self.flat = np.zeros(sum(map(math.prod, shapes.values()))) if flat is None else flat
        offset = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            setattr(self, name, self.flat[offset : offset + size].reshape(shape))
            offset += size

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def copy(self) -> "Params":
        return Params(self.config, self.flat.copy())

    def validate(self) -> None:
        for name, arr in self.arrays().items():
            if not np.all(np.isfinite(arr)):
                raise NumericalError(f"non-finite values in parameter {name}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    lr: float = 1e-3
    batch: int = 32
    beta_max: float = 0.2
    beta_anneal_steps: int = 2000
    grad_clip_norm: float = 1.0
    seed: int = 0
    # Fraction of decoder input tokens blanked during training, so that
    # reconstruction leans on the latent rather than on the prefix alone.  It
    # is not what keeps the latent alive: a 100-epoch desk run (2,000
    # melodies, d = 32) with 0 kept 21 nats of KL in 18 dimensions below
    # sigma 0.9.
    input_dropout: float = 0.3

    def __post_init__(self) -> None:
        for f in fields(self):  # each stored as its type; a float field takes an int too
            value, kind = getattr(self, f.name), {"int": int, "float": float}[f.type]
            if isinstance(value, bool) or not isinstance(value, (int, kind)):
                raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
            object.__setattr__(self, f.name, kind(value))
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not all(map(math.isfinite, (self.lr, self.beta_max, self.grad_clip_norm))):
            raise ValueError("lr, beta_max and grad_clip_norm must be finite")
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        if self.beta_max < 0:
            raise ValueError("beta_max must be >= 0")
        if self.batch < 1 or self.beta_anneal_steps < 1:
            raise ValueError("batch and beta_anneal_steps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 <= self.input_dropout < 1.0:
            raise ValueError("input_dropout must lie in [0, 1)")

    def settings(self) -> dict:
        """The fields but ``epochs``: what a run keeps from one call to the next."""
        return {name: value for name, value in asdict(self).items() if name != "epochs"}


# The stored settings a resumed run may change (a lower rate after a divergence).
RESUME_MAY_CHANGE = ("lr",)


def resume_settings(stored: dict, given: dict) -> dict:
    """``stored`` under ``given``; ValueError names a given setting outside
    ``RESUME_MAY_CHANGE`` that differs from its stored value, and both values."""
    for name, value in given.items():
        if name in stored and name not in RESUME_MAY_CHANGE and value != stored[name]:
            raise ValueError(f"{name} is {stored[name]} in the run resumed, not {value}")
    return {**stored, **given}


@dataclass
class EpochStats:
    epoch: int
    loss: float
    recon_ce: float
    kl: float
    sigma_median: np.ndarray  # per-dim median sigma on the held-out slice

    def __post_init__(self) -> None:  # also the check of a row read from a checkpoint
        self.loss, self.recon_ce, self.kl = float(self.loss), float(self.recon_ce), float(self.kl)
        self.sigma_median = np.asarray(self.sigma_median, dtype=float)


def init_params(cfg: ModelConfig, seed: int) -> Params:
    """Uniform(-a, a) weights with a = sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    params = Params(cfg)
    for arr in params.arrays().values():
        if arr.ndim == 2:
            a = np.sqrt(6.0 / (arr.shape[0] + arr.shape[1]))
            arr[...] = rng.uniform(-a, a, size=arr.shape)
    return params


class _Workspace:
    """Named float64 scratch buffers, reused from one call to the next.

    ``get(name, shape)`` returns a C-contiguous array of that shape whose
    contents are undefined: a view of the leading part of the name's flat
    buffer, which is replaced by a larger one when a larger shape is asked
    for.  So a run's short last batch, or a batch with fewer distinct
    tokens, reuses the memory of a full one.  Arrays got under one name
    share memory; those under different names never do.

    A buffer is reused by each phase that runs while its contents are dead:

    - "enc_ru" and "dec_ru", "enc_c" and "dec_c": each scan's gates, which
      its backward scan overwrites with their gradients; "logits", which
      become their gradient.
    - "enc_ru" is dead from the end of ``_loss_backward`` to the next
      forward pass: ``_clip_grads`` squares into it and
      ``TrainState.adam_step`` keeps its scratch there.
    - Between steps every buffer is dead: ``encode_batch`` keeps its two
      states in "enc_hs", its gates in "enc_ru" and "enc_c", its gate
      input in "dec_ru", its scratch in "dec_c" and its token table in
      "table", all smaller at B = 256 than a default-model B = 32 step's.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


def _gru_step(g_t: np.ndarray, h: np.ndarray, wh: np.ndarray, out=None):
    """One step of the cell, the only place its equations are written.

    g_t: (..., 3H) input contribution (x @ Wx + b) and wh: (H, 3H) recurrent
    weights, gate order [r | u | c].  Returns (h', ru, c).  When given,
    ``out`` = (h', ru, c, scratch) are the arrays to write them into, with a
    scratch array shaped like h; none may overlap h.  Each gate is finished
    in place in the array its matrix product writes.
    """
    h_dim = h.shape[-1]
    h_new, ru, c, tmp = (None, None, None, None) if out is None else out
    ru = np.matmul(h, wh[:, : 2 * h_dim], out=ru)
    ru += g_t[..., : 2 * h_dim]
    ru *= 0.5  # sigmoid(a) = 0.5 * tanh(0.5 * a) + 0.5
    np.tanh(ru, out=ru)
    ru *= 0.5
    ru += 0.5
    r, u = ru[..., :h_dim], ru[..., h_dim:]
    c = np.matmul(np.multiply(r, h, out=tmp), wh[:, 2 * h_dim :], out=c)
    c += g_t[..., 2 * h_dim :]
    np.tanh(c, out=c)
    h_new = np.multiply(u, h, out=h_new)
    c_part = np.subtract(1.0, u, out=tmp)
    c_part *= c
    h_new += c_part  # u * h + (1 - u) * c
    return h_new, ru, c


# Gate inputs are gathered a few steps at a time into a buffer of at most
# this many bytes (or one step's, if that is larger): a small batch then
# gathers its whole sequence in one call, and a large one holds no
# (T, B, 3H) copy.
_GATHER_BYTES = 1 << 18


def _gru_forward(table: np.ndarray, idx: np.ndarray, wh: np.ndarray, h0: np.ndarray,
                 ws: _Workspace, name: str, adds=()):
    """Run the cell over time, into the workspace arrays ``name`` + "_hs",
    "_ru" and "_c".

    Step t's input contribution (x @ Wx + b, gate order [r | u | c]) is
    gathered from the (rows, 3H) ``table`` at the (B,) rows ``idx[t]``, and
    each array of ``adds`` is then added to it in turn; the gathers go into
    one workspace buffer of a few steps.  Returns (hs, ru, c): hidden states
    (T+1, B, H) with h0 first, and the gates (T, B, 2H) and (T, B, H) for
    backprop.
    """
    t_len, b = idx.shape
    h_dim = wh.shape[0]
    hs = ws.get(name + "_hs", (t_len + 1, b, h_dim))
    hs[0] = h0
    ru_all = ws.get(name + "_ru", (t_len, b, 2 * h_dim))
    c_all = ws.get(name + "_c", (t_len, b, h_dim))
    tmp = ws.get("gru_tmp", (b, h_dim))
    chunk = max(1, _GATHER_BYTES // (8 * b * 3 * h_dim))
    for t0 in range(0, t_len, chunk):
        rows = idx[t0 : t0 + chunk]
        g = np.take(table, rows, axis=0, mode="clip",
                    out=ws.get("gru_g", (rows.shape[0], b, 3 * h_dim)))
        for add in adds:
            g += add
        for t, g_t in enumerate(g, t0):
            _gru_step(g_t, hs[t], wh, (hs[t + 1], ru_all[t], c_all[t], tmp))
    return hs, ru_all, c_all


def _gru_backward(wh: np.ndarray, hs: np.ndarray, ru_all: np.ndarray,
                  c_all: np.ndarray, dh: np.ndarray, ws: _Workspace, dwh: np.ndarray,
                  dys: np.ndarray | None = None, w_out: np.ndarray | None = None):
    """Backprop through the cell, writing the gradient of ``wh`` into ``dwh``.

    dh: (B, H) gradient at the last state.  dys, if given, are the (T, B, V)
    gradients of outputs y[t] = hs[t + 1] @ w_out (+ a bias); each step adds
    its state's share dys[t] @ w_out.T, computed into a (B, H) workspace
    buffer.  The scan consumes the forward's gates: once step t has read its
    r, u and c, and kept r * h_prev in the workspace's "s", it overwrites
    ru_all[t] with [dg_r | dg_u] and c_all[t] with dg_c.  Returns (dg_ru,
    dg_c, dh0): ru_all and c_all, now the input contribution's gradient.
    """
    t_len, b, h_dim = c_all.shape
    wh_ru = wh[:, : 2 * h_dim]
    wh_c = wh[:, 2 * h_dim :]
    s_all = ws.get("s", c_all.shape)
    dh_out = None if dys is None else ws.get("dh_out", (b, h_dim))
    for t in range(t_len - 1, -1, -1):
        h_prev = hs[t]
        r = ru_all[t, :, :h_dim]
        u = ru_all[t, :, h_dim:]
        c = c_all[t]
        if dys is not None:
            dh = dh + np.matmul(dys[t], w_out.T, out=dh_out)
        dg_u = dh * (h_prev - c) * u * (1.0 - u)
        c_all[t] = dac = dh * (1.0 - u) * (1.0 - c * c)
        ds = dac @ wh_c.T
        np.multiply(r, h_prev, out=s_all[t])
        dg_r = ds * h_prev * r * (1.0 - r)
        dh = dh * u + ds * r
        ru_all[t, :, :h_dim] = dg_r
        ru_all[t, :, h_dim:] = dg_u
        dh += ru_all[t] @ wh_ru.T
    # weight gradients accumulate in two large matmuls over all steps
    h_prev_all = hs[:-1].reshape(-1, h_dim)
    np.matmul(h_prev_all.T, ru_all.reshape(-1, 2 * h_dim), out=dwh[:, : 2 * h_dim])
    np.matmul(s_all.reshape(-1, h_dim).T, c_all.reshape(-1, h_dim), out=dwh[:, 2 * h_dim :])
    return ru_all, c_all, dh


def _stack_batch(batch, seq_len: int) -> np.ndarray:
    if isinstance(batch, np.ndarray):
        tokens = batch.astype(np.int64, copy=False)
        if tokens.ndim != 2 or tokens.shape[1] != seq_len:
            raise ShapeError(f"batch must be (n, {seq_len}), got {tokens.shape}")
        return tokens
    rows = []
    for i, seq in enumerate(batch):
        toks = tuple(seq)
        if len(toks) != seq_len:
            raise ShapeError(f"sequence {i} has length {len(toks)}, expected {seq_len}")
        rows.append(toks)
    if not rows:
        raise ValueError("batch must be non-empty")
    return np.array(rows, dtype=np.int64)


def _token_ids(tokens: np.ndarray):
    """Table rows for a batch: the distinct tokens plus one spare row (a
    second token 0), and the (B, T) row of each position.

    The spare row keeps a one-token table off gemv, whose sums round
    differently; training's decoder uses it as its zero row.
    """
    used, inv = np.unique(tokens, return_inverse=True)
    return np.append(used, 0), inv.reshape(tokens.shape)


def _token_sums(idx: np.ndarray, rows: int, dg_ru: np.ndarray, dg_c: np.ndarray,
                ws: _Workspace):
    """Gate-input gradients summed per table row, (rows, 3H), into the
    workspace's "dtok", which the next call overwrites; idx is the (T, B)
    row of each position.  The last (spare) row gets zero."""
    n, h2 = idx.size, dg_ru.shape[-1]
    onehot = ws.get("onehot", (rows, n))
    onehot.fill(0.0)
    onehot[idx.ravel(), np.arange(n)] = 1.0
    onehot[-1] = 0.0
    out = ws.get("dtok", (rows, h2 + dg_c.shape[-1]))
    np.matmul(onehot, dg_ru.reshape(n, -1), out=out[:, :h2])
    np.matmul(onehot, dg_c.reshape(n, -1), out=out[:, h2:])
    return out


def encode_batch(p: Params, batch, ws: _Workspace | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Encode many sequences at once; returns (mus, sigmas) as (n, d) arrays.

    The training pass's exact result, from a scan that keeps only h, whose
    step buffers and token table come from ``ws`` (a fresh workspace when
    None).  Finite weights can still put a sigma out of float range: that
    raises NumericalError."""
    tokens = _stack_batch(batch, p.config.seq_len)
    ids, inv = _token_ids(tokens)
    ws = _Workspace() if ws is None else ws
    table = np.matmul(p.embed[ids], p.enc_wx, out=ws.get("table", (ids.size, p.enc_wx.shape[1])))
    table += p.enc_b
    b, h_dim = tokens.shape[0], p.config.hidden_dim
    g = ws.get("dec_ru", (b, 3 * h_dim))
    ru = ws.get("enc_ru", (b, 2 * h_dim))
    c, tmp = ws.get("enc_c", (b, h_dim)), ws.get("dec_c", (b, h_dim))
    h, h_next = ws.get("enc_hs", (2, b, h_dim))
    h.fill(0.0)
    for t in range(tokens.shape[1]):
        np.take(table, inv[:, t], axis=0, mode="clip", out=g)
        _gru_step(g, h, p.enc_wh, (h_next, ru, c, tmp))
        h, h_next = h_next, h
    mu = h @ p.w_mu + p.b_mu
    logvar = h @ p.w_logvar + p.b_logvar
    with np.errstate(over="ignore"):
        sigma = np.exp(0.5 * logvar)
    if not np.all((sigma > 0) & (sigma < np.inf)):
        raise NumericalError("posterior sigma out of float range (logvar "
                             f"{logvar.min():.4g} to {logvar.max():.4g})")
    return mu, sigma


def encode(p: Params, seq: TokenSequence) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic posterior parameters (mu, sigma) for one sequence."""
    mus, sigmas = encode_batch(p, [seq])
    return mus[0], sigmas[0]


def decode(p: Params, zs) -> list[TokenSequence]:
    """Greedy autoregressive generation from the rows of an (n, d) latent
    array, one sequence per row, all rows in one scan.

    Each step feeds back the argmax token.  The hold token is masked at step
    0 so every output starts with an explicit note-on or rest.
    """
    zs = np.asarray(zs, dtype=float)
    cfg = p.config
    if zs.ndim != 2 or zs.shape[1] != cfg.latent_dim:
        raise ShapeError(f"zs must have shape (n, {cfg.latent_dim}), got {zs.shape}")
    table = p.embed @ p.dec_wx
    gz = zs @ p.dec_wz + p.dec_b
    h = np.tanh(zs @ p.z_w + p.z_b)
    tokens = np.empty((zs.shape[0], cfg.seq_len), dtype=np.int64)
    g = gz  # step 0 reads no token
    for t in range(cfg.seq_len):
        h = _gru_step(g, h, p.dec_wh)[0]
        logits = h @ p.out_w + p.out_b
        if t == 0:
            logits[:, HOLD] = -np.inf
        tokens[:, t] = np.argmax(logits, axis=1)
        g = table[tokens[:, t]] + gz
    return [TokenSequence(tuple(row), cfg.bars) for row in tokens.tolist()]


def gaussian_kl(mu: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """Per-row KL( N(mu, sigma^2) || N(0, I) ), summed over dimensions."""
    return 0.5 * (mu**2 + np.exp(logvar) - 1.0 - logvar).sum(axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def _loss_forward(p: Params, tokens: np.ndarray, beta: float, eps: np.ndarray,
                  keep_mask: np.ndarray | None = None, ws: _Workspace | None = None):
    """Teacher-forced ELBO forward pass; returns (loss, recon, kl, cache).

    keep_mask, when given, is a (B, T) 0/1 or boolean array blanking decoder
    inputs (training-time input dropout); position 0 is always blank by design.
    Gate inputs are gathered time-major from per-token tables.  The large
    arrays, and so the returned cache, live in ``ws`` (a fresh workspace
    when None) until its next use, and the backward pass works in it too.
    Overflow is not warned about: a non-finite loss raises
    :class:`NumericalError`.
    """
    ws = _Workspace() if ws is None else ws
    b, t_len = tokens.shape
    ids, inv = _token_ids(tokens)
    emb = p.embed[ids]
    table = np.matmul(emb, p.enc_wx, out=ws.get("table", (ids.size, p.enc_wx.shape[1])))
    table += p.enc_b
    enc = _gru_forward(table, inv.T, p.enc_wh, np.zeros((b, p.config.hidden_dim)), ws, "enc")
    h_t = enc[0][-1]
    mu, logvar = h_t @ p.w_mu + p.b_mu, h_t @ p.w_logvar + p.b_logvar
    sigma = np.exp(0.5 * logvar)
    z = mu + sigma * eps

    # decoder position t reads token t - 1; position 0 and blanked
    # positions read the spare row, zeroed.  Each step's gate input is
    # table row + z @ dec_wz + dec_b, summed in that order.
    dec_idx = np.full((t_len, b), ids.size - 1)
    dec_idx[1:] = inv.T[:-1]
    if keep_mask is not None:
        dec_idx[keep_mask.T == 0] = ids.size - 1
    table = np.matmul(emb, p.dec_wx, out=ws.get("table", (ids.size, p.dec_wx.shape[1])))
    table[-1] = 0.0
    dec = _gru_forward(table, dec_idx, p.dec_wh, np.tanh(z @ p.z_w + p.z_b), ws, "dec",
                       (z @ p.dec_wz, p.dec_b))
    logits = np.matmul(dec[0][1:], p.out_w, out=ws.get("logits", (t_len, b, p.config.vocab)))
    logits += p.out_b

    tgt = np.take_along_axis(logits, tokens.T[..., None], axis=-1)[..., 0]
    m = logits.max(axis=-1, keepdims=True)
    ex = np.exp(np.subtract(logits, m, out=logits), out=logits)
    sumex = ex.sum(axis=-1)
    lse = m[..., 0] + np.log(sumex)
    ce_rows = (lse - tgt).mean(axis=0)
    recon = float(ce_rows.mean())
    kl_rows = gaussian_kl(mu, logvar)
    kl = float(kl_rows.mean())
    loss = recon + beta * kl

    if not np.isfinite(loss):
        bad = np.flatnonzero(~(np.isfinite(ce_rows) & np.isfinite(kl_rows)))
        idx = int(bad[0]) if bad.size else 0
        raise NumericalError(f"non-finite loss (first bad batch index {idx})")
    cache = [ids, emb, inv, dec_idx, enc, dec, mu, logvar, sigma, z, ex, sumex, ws]
    return loss, recon, kl, cache


def _loss_backward(p: Params, tokens: np.ndarray, beta: float, eps: np.ndarray,
                   cache: list) -> Params:
    """Gradients from ``_loss_forward``'s cache, each written into its view
    of the workspace's flat "grad" vector, which is returned as a Params;
    the large intermediates use the workspace too.

    The pass overwrites the cache's logits and gates with their gradients,
    so it empties the cache, and a cache already spent raises ValueError."""
    if not cache:
        raise ValueError("this forward pass's cache was spent by an earlier backward pass")
    ids, emb, inv, dec_idx, enc, dec, mu, logvar, sigma, z, ex, sumex, ws = cache
    cache.clear()
    b, t_len = tokens.shape
    cfg = p.config
    g = Params(cfg, ws.get("grad", p.flat.shape))

    dlogits = np.divide(ex, sumex[..., None], out=ex)
    tgt = tokens.T[..., None]
    np.put_along_axis(
        dlogits, tgt, np.take_along_axis(dlogits, tgt, axis=-1) - 1.0, axis=-1
    )
    dlogits /= b * t_len

    hs_dec = dec[0]
    h_flat = hs_dec[1:].reshape(-1, cfg.hidden_dim)
    dl_flat = dlogits.reshape(-1, cfg.vocab)
    np.matmul(h_flat.T, dl_flat, out=g.out_w)
    np.sum(dl_flat, axis=0, out=g.out_b)

    dg_ru, dg_c, dh0 = _gru_backward(
        p.dec_wh, *dec, np.zeros((b, cfg.hidden_dim)), ws, g.dec_wh, dlogits, p.out_w
    )
    dtok = _token_sums(dec_idx, ids.size, dg_ru, dg_c, ws)
    np.matmul(emb.T, dtok, out=g.dec_wx)
    d_emb = dtok @ p.dec_wx.T
    dg_dec_sum = np.concatenate((dg_ru.sum(axis=0), dg_c.sum(axis=0)), axis=1)
    np.matmul(z.T, dg_dec_sum, out=g.dec_wz)
    np.sum(dg_dec_sum, axis=0, out=g.dec_b)

    h0 = hs_dec[0]
    da0 = dh0 * (1.0 - h0 * h0)
    np.matmul(z.T, da0, out=g.z_w)
    np.sum(da0, axis=0, out=g.z_b)
    dz = da0 @ p.z_w.T + dg_dec_sum @ p.dec_wz.T

    dmu = dz + beta * mu / b
    dlogvar = dz * eps * 0.5 * sigma + beta * 0.5 * (np.exp(logvar) - 1.0) / b

    h_t = enc[0][-1]
    np.matmul(h_t.T, dmu, out=g.w_mu)
    np.sum(dmu, axis=0, out=g.b_mu)
    np.matmul(h_t.T, dlogvar, out=g.w_logvar)
    np.sum(dlogvar, axis=0, out=g.b_logvar)
    dh_t = dmu @ p.w_mu.T + dlogvar @ p.w_logvar.T

    dg_ru, dg_c, _ = _gru_backward(p.enc_wh, *enc, dh_t, ws, g.enc_wh)
    dtok = _token_sums(inv.T, ids.size, dg_ru, dg_c, ws)
    np.matmul(emb.T, dtok, out=g.enc_wx)
    np.sum(dtok, axis=0, out=g.enc_b)
    g.embed.fill(0.0)
    g.embed[ids[:-1]] = (d_emb + dtok @ p.enc_wx.T)[:-1]
    return g


def elbo_loss(p: Params, batch, beta: float, rng: np.random.Generator):
    """(loss, recon_ce, kl) for one batch with reparameterized sampling.

    The latent noise is drawn from ``rng``; passing an identically seeded
    generator reproduces the exact loss, which is what the finite-difference
    gradient checks rely on.
    """
    tokens = _stack_batch(batch, p.config.seq_len)
    eps = rng.standard_normal((tokens.shape[0], p.config.latent_dim))
    loss, recon, kl, _ = _loss_forward(p, tokens, beta, eps)
    return loss, recon, kl


def elbo_loss_and_grads(p: Params, batch, beta: float, rng: np.random.Generator):
    """Like :func:`elbo_loss` but also returns d loss / d parameter."""
    tokens = _stack_batch(batch, p.config.seq_len)
    eps = rng.standard_normal((tokens.shape[0], p.config.latent_dim))
    loss, recon, kl, cache = _loss_forward(p, tokens, beta, eps)
    return loss, recon, kl, _loss_backward(p, tokens, beta, eps, cache).arrays()


# The order ``_loss_backward`` writes the gradients in.  The clip norm adds one
# sum of squares per parameter in this order, which fixes its rounding.
_GRAD_ORDER = ("out_w", "out_b", "dec_wh", "dec_wx", "dec_wz", "dec_b", "z_w", "z_b",
               "w_mu", "b_mu", "w_logvar", "b_logvar", "enc_wh", "enc_wx", "enc_b", "embed")


def _clip_grads(grads: Params, max_norm: float, ws: _Workspace) -> None:
    total = 0.0
    for name in _GRAD_ORDER:
        g = getattr(grads, name)
        total += float(np.multiply(g, g, out=ws.get("enc_ru", g.shape)).sum())
    norm = np.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        grads.flat *= max_norm / norm


@dataclass(eq=False)
class TrainState:
    """Where a run stands: Adam's moments, laid out like ``Params.flat``; the steps
    taken, which set both Adam's bias correction and the beta ramp; the run's settings;
    the epochs done, a history row each; and the bit generator's state after the last."""

    m: np.ndarray
    v: np.ndarray
    steps: int
    epochs: int
    rng: dict | None
    settings: dict
    history: list[EpochStats]

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __post_init__(self) -> None:
        if not all(type(count) is int and count >= 0 for count in (self.steps, self.epochs)):
            raise ValueError("training state counts must be integers >= 0")
        if self.rng is not None:
            np.random.PCG64().state = self.rng  # rejects a malformed generator state
        settings = TrainConfig(1, **self.settings).settings()  # rejects a bad name, type or value
        if settings.keys() != self.settings.keys():
            raise ValueError(f"training settings must name {', '.join(settings)}")
        self.settings = settings
        if [row.epoch for row in self.history] != list(range(self.epochs)):
            raise ValueError("training history must hold one row per epoch done")

    @classmethod
    def fresh(cls, p: Params, cfg: TrainConfig) -> "TrainState":
        return cls(np.zeros_like(p.flat), np.zeros_like(p.flat), 0, 0, None, cfg.settings(), [])

    def adam_step(self, params: Params, grad: np.ndarray, lr: float, ws: _Workspace) -> None:
        """Count a step; update ``params`` from the flat ``grad``, which ends holding the update."""
        self.steps += 1
        b1c = 1.0 - self.beta1**self.steps
        b2c = 1.0 - self.beta2**self.steps
        m, v, tmp = self.m, self.v, ws.get("enc_ru", grad.shape)
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, grad, out=tmp)
        v *= self.beta2
        np.multiply(1.0 - self.beta2, grad, out=tmp)
        tmp *= grad
        v += tmp
        np.divide(v, b2c, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.eps
        update = np.divide(m, b1c, out=grad)
        update /= tmp  # (m / b1c) / (sqrt(v / b2c) + eps)
        update *= lr
        params.flat -= update


def train(p: Params, corpus, cfg: TrainConfig, state: TrainState | None = None
          ) -> tuple[Params, list[EpochStats]]:
    """Adam + gradient clipping with a linear KL-weight ramp, for ``cfg.epochs``
    epochs on from ``state`` (fresh when None), which advances in place;
    returns the weights and the history rows added to ``state.history``.

    beta rises linearly from 0 to ``cfg.beta_max`` over
    ``cfg.beta_anneal_steps`` optimizer steps.  Because the reconstruction
    term is averaged per step while the KL is summed per sequence, the KL
    weight is applied per step (beta / seq_len); this makes beta mean the
    same thing at every sequence length and is what the usual convention of
    weighting the KL against step-summed cross-entropy does.  Weighting the
    full per-sequence KL by beta instead would make discarding the latent
    optimal whenever beta > 1/seq_len, collapsing every dimension.

    Per epoch the history records mean loss / reconstruction / KL over
    training batches and the per-dim median posterior sigma on a held-out
    slice of the corpus (drawn from ``cfg.seed``), numbered on from
    ``state.epochs``.  E1 epochs and then E2 more from the weights and state
    reached equal E1 + E2 straight through, for the same corpus; ``cfg`` must
    hold the state's settings, as :func:`resume_settings` checks.
    Deterministic for a fixed seed and a fixed BLAS thread count: the
    ``out_w`` gradient's sum over every position rounds differently when
    BLAS splits it across threads.  A non-finite loss, or a held-out sigma
    out of float range, raises :class:`TrainingDiverged` naming the epoch,
    with ``state`` advanced into it: its steps and moments, not its epochs.
    """
    params = p.copy()
    state = TrainState.fresh(params, cfg) if state is None else state
    settings = resume_settings(state.settings, cfg.settings())
    tokens = _stack_batch(corpus, p.config.seq_len)
    n = tokens.shape[0]
    if n < 2:
        raise ValueError("corpus must contain at least two sequences")
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(n)
    n_hold = max(1, min(n // 10, 256))
    hold = tokens[perm[:n_hold]]
    train_tokens = tokens[perm[n_hold:]]
    del tokens  # both parts are copies

    if state.rng is not None:
        rng.bit_generator.state = state.rng
    ws = _Workspace()
    start = state.epochs
    for epoch in range(start, start + cfg.epochs):
        order = rng.permutation(train_tokens.shape[0])
        losses, recons, kls = [], [], []
        try:
            for lo in range(0, order.size, cfg.batch):
                batch = train_tokens[order[lo : lo + cfg.batch]]
                ramp = cfg.beta_max * min(1.0, state.steps / cfg.beta_anneal_steps)
                beta = ramp / params.config.seq_len
                eps = rng.standard_normal((batch.shape[0], params.config.latent_dim))
                keep = None
                if cfg.input_dropout > 0.0:
                    keep = rng.random(batch.shape) >= cfg.input_dropout
                loss, recon, kl, cache = _loss_forward(params, batch, beta, eps, keep, ws)
                grads = _loss_backward(params, batch, beta, eps, cache)
                _clip_grads(grads, cfg.grad_clip_norm, ws)
                state.adam_step(params, grads.flat, cfg.lr, ws)
                losses.append(loss)
                recons.append(recon)
                kls.append(kl)
            _, hold_sigma = encode_batch(params, hold, ws)
        except NumericalError as err:
            raise TrainingDiverged(f"epoch {epoch}: {err}") from err
        state.history.append(EpochStats(epoch, np.mean(losses), np.mean(recons), np.mean(kls),
                                        np.median(hold_sigma, axis=0)))
        state.epochs, state.rng, state.settings = epoch + 1, rng.bit_generator.state, settings
    return params, state.history[start:]


def save_checkpoint(p: Params, path, state: TrainState | None = None) -> None:
    """Versioned container: JSON metadata plus the raw float64 weight arrays;
    given a training state, also its moments as members ``adam_m`` and
    ``adam_v`` and the rest under the metadata's "train" key.  Written to
    ``<path>.tmp`` and renamed over ``path``, so a write that fails leaves
    the file at ``path`` as it was."""
    p.validate()
    meta = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "cell": CELL_TYPE,
        "config": asdict(p.config),
    }
    arrays = {f"param_{k}": v for k, v in p.arrays().items()}
    if state is not None:
        history = [{**vars(r), "sigma_median": r.sigma_median.tolist()} for r in state.history]
        meta["train"] = {"steps": state.steps, "epochs": state.epochs, "rng": state.rng,
                         "settings": state.settings, "history": history}
        arrays.update(adam_m=state.m, adam_v=state.v)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8).copy()
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    os.replace(tmp, path)


def load_checkpoint(path, with_state: bool = False):
    """Load a checkpoint and check its weights against its config.

    Returns the Params, or with ``with_state`` (Params, TrainState) from a
    checkpoint saved with a state, whose members and key others ignore."""
    try:
        with np.load(path, allow_pickle=False) as data:
            if "meta" not in data:
                raise CheckpointError("missing checkpoint metadata")
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            if not isinstance(meta, dict):
                raise CheckpointError("checkpoint metadata is not a JSON object")
            if meta.get("magic") != CHECKPOINT_MAGIC:
                raise CheckpointError("bad checkpoint magic")
            if meta.get("version") != CHECKPOINT_VERSION:
                raise CheckpointError(f"unsupported version {meta.get('version')}")
            if meta.get("cell") != CELL_TYPE:
                raise CheckpointError(f"checkpoint metadata names cell {meta.get('cell')!r}, "
                                      f"not {CELL_TYPE!r}")
            params = Params(ModelConfig(**meta["config"]))
            members = {f"param_{name}": view for name, view in params.arrays().items()}
            if with_state:
                if "train" not in meta:
                    raise CheckpointError("checkpoint holds no training state to resume from")
                saved = meta["train"]
                state = TrainState(np.empty_like(params.flat), np.empty_like(params.flat), **{
                    **saved, "history": [EpochStats(**row) for row in saved["history"]]})
                members.update(adam_m=state.m, adam_v=state.v)
            for name, view in members.items():
                arr = data[name]
                if arr.shape != view.shape:  # the stored config does not describe the member
                    raise CheckpointError("checkpoint does not match its stored config: "
                                          f"{name} has shape {arr.shape}, expected {view.shape}")
                if arr.dtype != np.float64:
                    raise CheckpointError(f"{name} holds {arr.dtype}, not float64")
                view[...] = arr
    except CheckpointError:
        raise
    except (OSError, EOFError, ValueError, TypeError, KeyError, MemoryError,
            json.JSONDecodeError, zipfile.BadZipFile) as err:
        raise CheckpointError(f"unreadable checkpoint: {err}") from err
    params.validate()
    return (params, state) if with_state else params
