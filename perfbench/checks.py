"""Correctness checks on the outputs of the timed CLI calls.

Every check compares a program output with an independent computation from
``reference`` or with a property the output must have, and returns a list of
human-readable failures (empty when the output is correct).  None of them
compares against a stored copy of an earlier run.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

# On weights trained for one epoch, Richardson-extrapolated central
# differences at this step agree with the gradient to a relative 1e-7 or
# better in every array, apart from rounding: a central difference carries
# an absolute error of about eps * |loss| / step, which dominates when the
# random direction is nearly orthogonal to the gradient, so that much is
# allowed on top (FD_ROUNDING ulps of it).  Flipping the sign of an array's
# largest gradient coordinate moves the directional derivative by 3e-2
# relative or more.
FD_STEP = 1e-3
FD_RTOL = 1e-6
FD_ROUNDING = 64
FORWARD_RTOL = 1e-10
CSV_ATOL = 1e-6  # the CSV matrices are written with 8 significant digits


def read_matrix_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    cols = rows[0][1:]
    labels = [r[0] for r in rows[1:]]
    values = np.array([[float(v) if v else math.nan for v in r[1:]] for r in rows[1:]])
    return labels, cols, values


def dim_index(label: str) -> int:
    return int(label.removeprefix("dim"))


# ------------------------------------------------------------------ train

def check_history(history_csv) -> list[str]:
    with open(history_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) < 2:
        return [f"history has {len(rows)} epochs, need at least 2"]
    first, last = float(rows[0]["recon_ce"]), float(rows[-1]["recon_ce"])
    out = []
    if not last < first:
        out.append(f"last epoch recon CE {last:.6g} is not below the first {first:.6g}")
    if not last < math.log(130):
        out.append(f"last epoch recon CE {last:.6g} is not below ln 130")
    return out


def check_reference_forward(params, tokens, beta: float, seed: int, loss_fn) -> list[str]:
    """The reference ELBO at the noise elbo_loss draws from the same seed."""
    d = params.config.latent_dim
    eps = np.random.default_rng(seed).standard_normal((tokens.shape[0], d))
    want = ref.elbo(params.arrays(), tokens, beta, eps)
    got = loss_fn(params, tokens, beta, np.random.default_rng(seed))
    out = []
    for name, w, g in zip(("loss", "recon", "kl"), want, got):
        if not abs(w - g) <= FORWARD_RTOL * max(abs(w), 1e-12):
            out.append(f"elbo {name}: program {g!r}, reference {w!r}")
    return out


def check_gradients(params, tokens, beta: float, seed: int, loss_fn, grad_fn,
                    directions: np.random.Generator) -> list[str]:
    """One random unit direction per parameter array: the Richardson-
    extrapolated central difference of elbo_loss along it must equal the
    dot product with elbo_loss_and_grads' gradient."""
    loss, _, _, grads = grad_fn(params, tokens, beta, np.random.default_rng(seed))
    atol = FD_ROUNDING * np.finfo(float).eps * abs(loss) / FD_STEP
    out = []
    for name, g in grads.items():
        v = directions.standard_normal(g.shape)
        v /= np.linalg.norm(v)

        def f(t: float) -> float:
            moved = params.copy()
            getattr(moved, name)[...] += t * v
            return loss_fn(moved, tokens, beta, np.random.default_rng(seed))[0]

        def central(h: float) -> float:
            return (f(h) - f(-h)) / (2.0 * h)

        fd = (4.0 * central(FD_STEP / 2) - central(FD_STEP)) / 3.0
        analytic = float((g * v).sum())
        if not abs(fd - analytic) <= FD_RTOL * abs(analytic) + atol:
            out.append(f"gradient of {name}: finite difference {fd!r}, "
                       f"analytic {analytic!r}")
    return out


# ---------------------------------------------------------------- analyze

def pick_phik_cells(out_dir, rng: np.random.Generator, n_cells: int = 4):
    """(feature, column label) cells of feature_phik.csv to recompute."""
    _, cols, _ = read_matrix_csv(Path(out_dir) / "feature_phik.csv")
    return [(ref.REFERENCE_FEATURES[rng.integers(len(ref.REFERENCE_FEATURES))],
             cols[rng.integers(len(cols))]) for _ in range(n_cells)]


def check_phik_cells(out_dir, mus, tokens, cells, n_bins: int = 10,
                     rho_tol: float = 1e-4) -> list[str]:
    """feature_phik.csv cells against the reference phik computed on
    reference encodings and reference feature values, to within rho_tol."""
    features, cols, values = read_matrix_csv(Path(out_dir) / "feature_phik.csv")
    out = []
    for feature, col in cells:
        got = values[features.index(feature), cols.index(col)]
        want = ref.phik(ref.feature_column(feature, tokens), mus[:, dim_index(col)],
                        n_bins=n_bins, rho_tol=rho_tol)
        if not abs(got - want) <= rho_tol:
            out.append(f"phik[{feature}, {col}]: program {got!r}, reference {want!r}")
    return out


def check_pearson(out_dir, mus) -> list[str]:
    labels, cols, values = read_matrix_csv(Path(out_dir) / "pearson_matrix.csv")
    if labels != cols:
        return [f"pearson matrix rows {labels} differ from its columns {cols}"]
    want = np.corrcoef(mus[:, [dim_index(c) for c in cols]].T)
    err = np.abs(values - want)
    if not np.all(err <= CSV_ATOL):
        i, j = np.unravel_index(np.nanargmax(err), err.shape)
        return [f"pearson[{labels[i]}, {cols[j]}]: program {values[i, j]!r}, "
                f"np.corrcoef {want[i, j]!r}"]
    return []


def check_activation_hist(out_dir, sizes: dict[str, int]) -> list[str]:
    with open(Path(out_dir) / "activation_hist.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for column, size in sizes.items():
        total = sum(int(r[column]) for r in rows)
        if total != size:
            out.append(f"activation histogram column {column} sums to {total}, "
                       f"corpus has {size}")
    return out


def check_partition(out_dir, sigmas, threshold: float, n_melodies: int) -> list[str]:
    part = json.loads((Path(out_dir) / "partition.json").read_text())
    medians = np.median(sigmas, axis=0)
    order, music, noise = part["order"], part["music"], part["noise"]
    out = []
    if sorted(music + noise) != list(range(sigmas.shape[1])):
        out.append(f"music {music} and noise {noise} do not split all dims")
    if order != music + noise:
        out.append(f"order {order} is not music {music} followed by noise {noise}")
    if any(medians[a] > medians[b] + 1e-9 for a, b in zip(order, order[1:])):
        out.append(f"order {order} is not ascending in median sigma {medians.round(6)}")
    if any(medians[d] >= threshold + 1e-9 for d in music) or any(
            medians[d] < threshold - 1e-9 for d in noise):
        out.append(f"split at sigma {threshold} disagrees with medians {medians.round(6)}")
    if part["n_melodies"] != n_melodies:
        out.append(f"partition counts {part['n_melodies']} melodies, corpus has {n_melodies}")
    return out


# --------------------------------------------------------------- midi-io

def read_corpus(path) -> list[tuple[list[int], float, int]]:
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            obj = json.loads(line)
            rows.append((obj["tokens"], obj["tempo_qpm"], obj["bars"]))
    return rows


def check_ingest_windows(corpus_path, expected: list[list[int]], tempo: float) -> list[str]:
    """Every melody ingest wrote equals the window the benchmark cut itself."""
    got = read_corpus(corpus_path)
    if len(got) != len(expected):
        return [f"{corpus_path}: {len(got)} melodies, expected {len(expected)}"]
    for i, ((tokens, qpm, bars), want) in enumerate(zip(got, expected)):
        if tokens != want or qpm != tempo or bars != 2:
            return [f"{corpus_path} melody {i}: got {tokens} at {qpm} qpm, "
                    f"{bars} bars; expected {want} at {tempo} qpm"]
    return []


def check_roundtrip_files(out_dir, k: int) -> list[str]:
    """Each .mid roundtrip wrote parses back to its roundtrip.jsonl line."""
    out_dir = Path(out_dir)
    lines = read_corpus(out_dir / "roundtrip.jsonl")
    names = ["greedy"] + [f"sample_{i + 1:02d}" for i in range(k)]
    if len(lines) != len(names):
        return [f"{out_dir}: {len(lines)} roundtrip lines, expected {len(names)}"]
    out = []
    for name, (tokens, qpm, _) in zip(names, lines):
        spans, tempo, _ = ref.read_smf_notes((out_dir / f"{name}.mid").read_bytes())
        if spans != ref.tokens_to_spans(tokens) or not math.isclose(tempo, qpm, rel_tol=1e-6):
            out.append(f"{out_dir / name}.mid does not match its roundtrip.jsonl line")
    return out


def check_greedy(weights: dict, input_tokens, greedy_tokens) -> list[str]:
    """The greedy line is the argmax of the reference teacher-forced decoder
    fed itself, from the reference posterior mean of the input melody."""
    mu, _ = ref.encode(weights, np.asarray([input_tokens], dtype=np.int64))
    bad = ref.greedy_mismatches(weights, mu[0], greedy_tokens)
    return [f"greedy tokens differ from the reference decoder at steps {bad}"] if bad else []
