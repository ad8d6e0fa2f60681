"""Shared fixtures: melody builders and the expensive desk-scale training runs.

The trained-model fixtures are session-scoped and only built when a test asks
for them, so the fast unit-test files stay fast.  Tests marked ``heavy`` run
after all the others, so a run cut short has still reported every fast test.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest

from latent_lens import corpus, melody, vae

DESK_CORPUS_SEED = 7
DESK_TRAIN_SEED = 0
DESK_EPOCHS = 100
DESK_16BAR_EPOCHS = 12


def random_melody(rng: np.random.Generator, bars: int = 2) -> melody.Melody:
    """A random valid melody: mixed notes and rests on the step grid."""
    total = melody.STEPS_PER_BAR * bars
    spans = []
    pos = 0
    while pos < total:
        if rng.random() < 0.2:  # rest
            pos += int(rng.integers(1, 5))
            continue
        dur = int(rng.integers(1, 9))
        dur = min(dur, total - pos)
        spans.append(melody.NoteSpan(int(rng.integers(0, 128)), pos, dur))
        pos += dur
    return melody.Melody(tuple(spans), bars, float(rng.uniform(40, 220)))


def token_matrix(seqs) -> np.ndarray:
    return np.array([tuple(s) for s in seqs], dtype=np.int64)


@pytest.fixture(scope="session")
def musical_corpus_2bar() -> list[melody.Melody]:
    cfg = corpus.SyntheticConfig(seed=DESK_CORPUS_SEED)
    return corpus.gen_musical_corpus(cfg, 2000)


@pytest.fixture(scope="session")
def musical_seqs_2bar(musical_corpus_2bar) -> list[melody.TokenSequence]:
    return [melody.tokenize(m) for m in musical_corpus_2bar]


@pytest.fixture(scope="session")
def desk_runtime():
    """Wall-clock seconds of the heavy training fixtures, by name."""
    return {}


# name -> (bars, melodies, ModelConfig options, TrainConfig options)
DESK_RUNS = {
    # the reference desk-scale run: 2,000 synthetic melodies, d=32, seed 0
    "desk_model": (2, 2000, {"latent_dim": 32}, {"epochs": DESK_EPOCHS}),
    # ablation twin of desk_model with the KL weight turned off
    "desk_model_beta0": (
        2, 2000, {"latent_dim": 32}, {"epochs": DESK_EPOCHS, "beta_max": 0.0}
    ),
    # 16-bar pipeline: 500 synthetic melodies, d=64, seq_len 256
    "desk_model_16bar": (
        16, 500, {"latent_dim": 64, "seq_len": 256}, {"epochs": DESK_16BAR_EPOCHS}
    ),
}


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.get_closest_marker("heavy") is not None)


def _exit_with_parent() -> None:
    """Worker initializer: stop training if the test session dies first."""
    parent = multiprocessing.parent_process()

    def watch() -> None:
        multiprocessing.connection.wait([parent.sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _train_desk_run(name: str):
    """Train one entry of DESK_RUNS: (params, history, seqs, train seconds)."""
    bars, n, model_options, train_options = DESK_RUNS[name]
    cfg = corpus.SyntheticConfig(seed=DESK_CORPUS_SEED, bars=bars)
    seqs = [melody.tokenize(m) for m in corpus.gen_musical_corpus(cfg, n)]
    params0 = vae.init_params(vae.ModelConfig(**model_options), DESK_TRAIN_SEED)
    tcfg = vae.TrainConfig(seed=DESK_TRAIN_SEED, **train_options)
    t0 = time.perf_counter()
    params, history = vae.train(params0, seqs, tcfg)
    return params, history, seqs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def desk_runs(request):
    """Futures of every desk run that a selected test needs.

    The runs are independent, so they train side by side, one worker process
    each, with one BLAS thread per worker.  On a 2-core machine one training
    step takes ~70 ms with OpenBLAS's two threads and ~75 ms with one, but
    two two-threaded processes side by side take ~330 ms a step each.
    """
    names = [
        name for name in DESK_RUNS
        if any(name in item.fixturenames for item in request.session.items)
    ]
    one_thread = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    with mock.patch.dict(os.environ, one_thread):
        pool = ProcessPoolExecutor(
            len(names),
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_exit_with_parent,
        )
        futures = {name: pool.submit(_train_desk_run, name) for name in names}
    yield futures
    pool.shutdown(cancel_futures=True)


@pytest.fixture(scope="session")
def desk_model(desk_runs, desk_runtime):
    params, history, _, seconds = desk_runs["desk_model"].result()
    desk_runtime["desk_model"] = seconds
    return params, history


@pytest.fixture(scope="session")
def desk_model_beta0(desk_runs):
    params, history, _, _ = desk_runs["desk_model_beta0"].result()
    return params, history


@pytest.fixture(scope="session")
def desk_model_16bar(desk_runs):
    params, history, seqs, _ = desk_runs["desk_model_16bar"].result()
    return params, history, seqs
