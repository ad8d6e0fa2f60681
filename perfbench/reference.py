"""Independent references the benchmark checks the program against.

Nothing here imports ``latent_lens``.  Each piece is written from a public
statement of what the program computes, not from its code:

* the VAE forward pass, from the equations in ``vae.py``'s module docstring
  and the parameter layout stored in a checkpoint (gate order r | u | c);
* phik, from the method in ``stats.py``'s docstring, with the bivariate
  normal CDF computed exactly through Owen's T function and the chi-square
  curve inverted by ``scipy.optimize.brentq``;
* a small SMF writer and reader, the token grid and the 2-bar window cut
  described in ``melody.py`` and ``midi.extract_melodies``.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

REST = 128
HOLD = 129
STEPS_PER_BAR = 16
STEPS_PER_QUARTER = 4


# --------------------------------------------------------------- melodies

def spans_to_tokens(spans, total_steps: int) -> list[int]:
    """Token grid of (pitch, onset, duration) spans: note-on code at the
    onset, REST at the first silent step, HOLD everywhere else."""
    tokens = [HOLD] * total_steps
    sounding = [False] * total_steps
    for pitch, onset, dur in spans:
        tokens[onset] = pitch
        for step in range(onset, onset + dur):
            sounding[step] = True
    for step in range(total_steps):
        if not sounding[step] and (step == 0 or sounding[step - 1]):
            tokens[step] = REST
    return tokens


def tokens_to_spans(tokens) -> list[tuple[int, int, int]]:
    """Spans of a token grid: a note lasts from its code to the next non-HOLD."""
    spans = []
    onset = None
    for step, tok in enumerate(list(tokens) + [REST]):
        if tok == HOLD:
            continue
        if onset is not None:
            spans.append((tokens[onset], onset, step - onset))
            onset = None
        if tok < REST:
            onset = step
    return spans


def cut_windows(spans, bars: int = 2, min_notes: int = 3, max_windows: int = 5):
    """Non-overlapping windows of ``bars`` bars from step 0: a window keeps
    the notes that start inside it, clipped at its end, and qualifies with at
    least ``min_notes`` onsets; at most ``max_windows`` are kept."""
    width = STEPS_PER_BAR * bars
    last_end = max((onset + dur for _, onset, dur in spans), default=0)
    windows = []
    for lo in range(0, last_end, width):
        inside = [
            (pitch, onset - lo, min(onset + dur, lo + width) - onset)
            for pitch, onset, dur in spans
            if lo <= onset < lo + width
        ]
        if len(inside) >= min_notes:
            windows.append(inside)
            if len(windows) == max_windows:
                break
    return windows


def feature_column(name: str, token_rows, tempo_qpm: float = 120.0) -> np.ndarray:
    """A few of the named features, computed from token grids directly."""
    out = []
    for tokens in token_rows:
        spans = tokens_to_spans(tokens)
        pitches = np.array([p for p, _, _ in spans], dtype=float)
        total = len(tokens)
        seconds = total * 60.0 / (tempo_qpm * STEPS_PER_QUARTER)
        if name == "R1_note_density":
            out.append(len(spans) / seconds)
        elif name == "R6_rest_fraction":
            out.append(1.0 - sum(d for _, _, d in spans) / total)
        elif name == "P1_pitch_range":
            out.append(pitches.max() - pitches.min() if spans else 0.0)
        elif name == "P2_mean_pitch":
            out.append(pitches.mean() if spans else 0.0)
        elif name == "P3_pitch_variety":
            out.append(float(len(set(pitches.tolist()))))
        else:
            raise KeyError(name)
    return np.array(out)


REFERENCE_FEATURES = (
    "R1_note_density", "R6_rest_fraction", "P1_pitch_range", "P2_mean_pitch",
    "P3_pitch_variety",
)


# -------------------------------------------------------------------- SMF

def _vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def write_smf(spans, ticks_per_quarter: int, running_status: bool,
              tempo_qpm: float = 120.0) -> bytes:
    """Format 0 file: 4/4 and tempo meta events, then the notes (offs sort
    before ons).  With running status one 0x90 status byte leads all notes
    and a zero velocity ends a note; without it every event carries its own
    status byte, 0x90 to start a note and 0x80 to end it."""
    tick_per_step = ticks_per_quarter // STEPS_PER_QUARTER
    events = []
    for pitch, onset, dur in spans:
        events.append(((onset + dur) * tick_per_step, 0, pitch, 0))
        events.append((onset * tick_per_step, 1, pitch, 100))
    events.sort()
    us = round(60_000_000 / tempo_qpm)
    body = bytearray(b"\x00\xff\x58\x04\x04\x02\x18\x08")
    body += b"\x00\xff\x51\x03" + us.to_bytes(3, "big")
    prev = 0
    for i, (tick, _, pitch, vel) in enumerate(events):
        body += _vlq(tick - prev)
        if not running_status:
            body.append(0x90 if vel else 0x80)
        elif i == 0:
            body.append(0x90)
        body += bytes((pitch, vel))
        prev = tick
    body += b"\x00\xff\x2f\x00"
    header = struct.pack(">4sIHHH", b"MThd", 6, 0, 1, ticks_per_quarter)
    return header + struct.pack(">4sI", b"MTrk", len(body)) + bytes(body)


def read_smf_notes(data: bytes) -> tuple[list[tuple[int, int, int]], float, int]:
    """(spans in grid steps, tempo in qpm, ticks per quarter) of a single-
    track file holding only meta events and note on/off messages."""
    if data[:4] != b"MThd":
        raise ValueError("not an SMF file")
    header_len, _fmt, _ntracks, tpq = struct.unpack(">IHHH", data[4:14])
    pos = 8 + header_len
    if data[pos:pos + 4] != b"MTrk":
        raise ValueError("missing track chunk")
    end = pos + 8 + struct.unpack(">I", data[pos + 4:pos + 8])[0]
    pos += 8
    tick = 0
    status = None
    tempo = 120.0
    open_notes: dict[int, int] = {}
    notes = []
    while pos < end:
        delta = 0
        while True:
            byte = data[pos]
            pos += 1
            delta = (delta << 7) | (byte & 0x7F)
            if not byte & 0x80:
                break
        tick += delta
        if data[pos] == 0xFF:
            kind, length = data[pos + 1], data[pos + 2]
            payload = data[pos + 3:pos + 3 + length]
            pos += 3 + length
            if kind == 0x51:
                tempo = 60_000_000 / int.from_bytes(payload, "big")
            elif kind == 0x2F:
                break
            continue
        if data[pos] & 0x80:
            status = data[pos]
            pos += 1
        pitch, vel = data[pos], data[pos + 1]
        pos += 2
        if status & 0xF0 == 0x90 and vel > 0:
            open_notes[pitch] = tick
        elif status & 0xF0 in (0x80, 0x90):
            notes.append((open_notes.pop(pitch), tick, pitch))
        else:
            raise ValueError(f"unexpected status 0x{status:02x}")
    step = tpq // STEPS_PER_QUARTER
    spans = [(pitch, on // step, (off - on) // step) for on, off, pitch in notes]
    return sorted(spans, key=lambda s: s[1]), tempo, tpq


# -------------------------------------------------------------------- VAE

def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_scan(x_part: np.ndarray, wh: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Hidden states of the reset-before-projection GRU.

    x_part: (B, T, 3H) input contributions W x + b in gate order r | u | c.
    """
    hd = h.shape[-1]
    u_r, u_u, u_c = wh[:, :hd], wh[:, hd:2 * hd], wh[:, 2 * hd:]
    out = []
    for t in range(x_part.shape[1]):
        g = x_part[:, t]
        r = _sigmoid(g[:, :hd] + h @ u_r)
        u = _sigmoid(g[:, hd:2 * hd] + h @ u_u)
        c = np.tanh(g[:, 2 * hd:] + (r * h) @ u_c)
        h = u * h + (1.0 - u) * c
        out.append(h)
    return np.stack(out, axis=1)


def encode(w: dict, tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, sigma) of the encoder for a (B, T) token matrix."""
    x = w["embed"][tokens] @ w["enc_wx"] + w["enc_b"]
    h0 = np.zeros((tokens.shape[0], w["enc_wh"].shape[0]))
    h_last = gru_scan(x, w["enc_wh"], h0)[:, -1]
    mu = h_last @ w["w_mu"] + w["b_mu"]
    logvar = h_last @ w["w_logvar"] + w["b_logvar"]
    return mu, np.exp(0.5 * logvar)


def teacher_forced_logits(w: dict, z: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """Decoder logits (B, T, V): step 0 reads a zero input, step t reads the
    embedding of token t-1; z sets the initial state and enters every step."""
    b, t_len = tokens.shape
    x = np.zeros((b, t_len, w["embed"].shape[1]))
    x[:, 1:] = w["embed"][tokens[:, :-1]]
    g = x @ w["dec_wx"] + (z @ w["dec_wz"])[:, None, :] + w["dec_b"]
    h0 = np.tanh(z @ w["z_w"] + w["z_b"])
    return gru_scan(g, w["dec_wh"], h0) @ w["out_w"] + w["out_b"]


def elbo(w: dict, tokens: np.ndarray, beta: float, eps: np.ndarray):
    """(loss, recon, kl): mean per-step cross-entropy plus beta times the
    batch-mean KL to the standard normal, at the given latent noise."""
    mu, sigma = encode(w, tokens)
    logits = teacher_forced_logits(w, mu + sigma * eps, tokens)
    top = logits.max(axis=-1, keepdims=True)
    lse = top[..., 0] + np.log(np.exp(logits - top).sum(axis=-1))
    target = np.take_along_axis(logits, tokens[..., None], axis=-1)[..., 0]
    recon = float((lse - target).mean())
    logvar = 2.0 * np.log(sigma)
    kl = float((0.5 * (mu**2 + sigma**2 - 1.0 - logvar)).sum(axis=1).mean())
    return recon + beta * kl, recon, kl


def greedy_mismatches(w: dict, z: np.ndarray, tokens) -> list[int]:
    """Steps where the argmax of the teacher-forced decoder fed ``tokens``
    (HOLD masked at step 0) differs from ``tokens``; empty means greedy."""
    toks = np.asarray(tokens, dtype=np.int64)[None, :]
    logits = teacher_forced_logits(w, np.asarray(z)[None, :], toks)[0]
    logits[0, HOLD] = -np.inf
    return [int(t) for t in np.flatnonzero(logits.argmax(axis=1) != toks[0])]


# ------------------------------------------------------------------- phik

def bvn_cdf(h: float, k: float, rho: float) -> float:
    """P(X < h, Y < k) of a standard bivariate normal, via Owen's T:
    Phi2 = (Phi(h) + Phi(k))/2 - T(h, a_h) - T(k, a_k) - beta."""
    if h == -math.inf or k == -math.inf:
        return 0.0
    if h == math.inf:
        return float(ndtr(k))
    if k == math.inf:
        return float(ndtr(h))
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    s = math.sqrt(1.0 - rho * rho)

    def t_term(a: float, b: float) -> float:
        if a == 0.0:  # limit a -> +0: a_h -> sign(b) * inf
            return math.copysign(0.25, b)
        return float(owens_t(a, (b - rho * a) / (a * s)))

    beta = 0.0 if (h * k > 0 or (h * k == 0 and h + k >= 0)) else 0.5
    return 0.5 * (float(ndtr(h)) + float(ndtr(k))) - t_term(h, k) - t_term(k, h) - beta


def bvn_rect_probs(rho: float, row_edges, col_edges) -> np.ndarray:
    cdf = np.array([[bvn_cdf(a, b, rho) for b in col_edges] for a in row_edges])
    return cdf[1:, 1:] - cdf[:-1, 1:] - cdf[1:, :-1] + cdf[:-1, :-1]


def _equal_width_bins(v: np.ndarray, n_bins: int) -> np.ndarray:
    edges = np.linspace(v.min(), v.max(), n_bins + 1)
    return (v[:, None] >= edges[None, 1:-1]).sum(axis=1)


def _z_edges(p: np.ndarray) -> list[float]:
    return [-math.inf, *ndtri(np.cumsum(p)[:-1]).tolist(), math.inf]


def phik(x, y, n_bins: int = 10, rho_tol: float = 1e-4) -> float:
    """phik of two series: equal-width bins, empty bins dropped, Pearson
    chi-square, then the rho whose binned bivariate normal has the same
    chi-square against independence (1.0 once it reaches rho = 1 - tol)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    counts = np.zeros((n_bins, n_bins))
    np.add.at(counts, (_equal_width_bins(x, n_bins), _equal_width_bins(y, n_bins)), 1)
    counts = counts[counts.sum(axis=1) > 0][:, counts.sum(axis=0) > 0]
    n = counts.sum()
    p_row = counts.sum(axis=1) / n
    p_col = counts.sum(axis=0) / n
    indep = np.outer(p_row, p_col)
    observed = float((((counts - n * indep) ** 2) / (n * indep)).sum())
    if observed <= 0.0:
        return 0.0
    row_edges = _z_edges(p_row)
    col_edges = _z_edges(p_col)

    def excess(rho: float) -> float:
        q = bvn_rect_probs(rho, row_edges, col_edges)
        return float(n * (((q - indep) ** 2) / indep).sum()) - observed

    hi = 1.0 - rho_tol
    if excess(hi) <= 0.0:
        return 1.0
    # imported here: scipy.optimize takes ~0.7 s to import, which would
    # otherwise count into every workload's set-up time
    from scipy.optimize import brentq

    return brentq(excess, 0.0, hi, xtol=1e-10)
