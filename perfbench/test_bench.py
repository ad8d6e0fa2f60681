"""Tests of the benchmark itself: each correctness check fails on a
deliberately wrong output, each workload runs end to end at a tiny size, and
BENCHMARK.json names exactly the metrics the benchmark prints.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(HERE), str(REPO / "src")]
os.environ.setdefault("LATENT_LENS_THREADS", "1")

import numpy as np  # noqa: E402

import bench  # noqa: E402
import checks  # noqa: E402
import reference as ref  # noqa: E402
from latent_lens import stats, vae  # noqa: E402
from tracing import Tracer  # noqa: E402


def ran(name: str, tmp_path_factory):
    """A tiny workload after set-up and one round, with its outputs."""
    workload = bench.WORKLOADS[name](tmp_path_factory.mktemp(name), 5, bench.TINY)
    workload.setup()
    ops = workload.round()
    return workload, ops


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    return ran("train-2bar", tmp_path_factory)


@pytest.fixture(scope="module")
def analyze_run(tmp_path_factory):
    return ran("analyze-2bar", tmp_path_factory)


@pytest.fixture(scope="module")
def midi_run(tmp_path_factory):
    return ran("midi-io", tmp_path_factory)


def copy_outputs(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "out"
    shutil.copytree(src, dst)
    return dst


def rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# ------------------------------------------------------------------ train

def test_train_outputs_pass(train_run):
    workload, ops = train_run
    assert [op.error for op in ops] == [""]
    assert workload.check() == []


@pytest.mark.parametrize("recon", [("3.0", "3.5"), ("5.0", "4.9")])
def test_history_check_fails(tmp_path, recon):
    path = tmp_path / "history.csv"
    path.write_text(f"epoch,loss,recon_ce,kl\n0,1,{recon[0]},0\n1,1,{recon[1]},0\n")
    assert checks.check_history(path)


def test_gradient_check_fails_on_wrong_coordinate(train_run):
    workload, _ = train_run
    params, batch = workload.probe_inputs()

    def wrong_grads(*args):
        loss, recon, kl, grads = vae.elbo_loss_and_grads(*args)
        g = grads["dec_wz"].reshape(-1)
        g[np.argmax(np.abs(g))] *= -1.0
        return loss, recon, kl, grads

    failures = checks.check_gradients(params, batch, 0.01, 3, vae.elbo_loss, wrong_grads,
                                      np.random.default_rng(4))
    assert [f for f in failures if "dec_wz" in f] == failures and failures


def test_reference_forward_fails_on_shifted_loss(train_run):
    workload, _ = train_run
    params, batch = workload.probe_inputs()

    def shifted(*args):
        loss, recon, kl = vae.elbo_loss(*args)
        return loss + 1e-8, recon, kl

    assert checks.check_reference_forward(params, batch, 0.01, 3, vae.elbo_loss) == []
    assert checks.check_reference_forward(params, batch, 0.01, 3, shifted)


# ---------------------------------------------------------------- analyze

def test_analyze_outputs_pass(analyze_run):
    workload, ops = analyze_run
    assert [op.error for op in ops] == [""]
    assert workload.check() == []


def reference_encodings(workload):
    tokens = bench.token_matrix(workload.entries)
    weights = vae.load_checkpoint(workload.checkpoint).arrays()
    return tokens, *ref.encode(weights, tokens)


def test_phik_check_fails_on_perturbed_cell(analyze_run, tmp_path):
    workload, _ = analyze_run
    tokens, mus, _ = reference_encodings(workload)
    out = copy_outputs(workload.out, tmp_path)
    cells = checks.pick_phik_cells(out, np.random.default_rng(0), n_cells=1)
    assert checks.check_phik_cells(out, mus, tokens, cells) == []
    feature, col = cells[0]

    def perturb(rows):
        j = rows[0].index(col)
        row = next(r for r in rows if r[0] == feature)
        row[j] = repr(float(row[j]) + 3e-4)

    rewrite_csv(out / "feature_phik.csv", perturb)
    assert checks.check_phik_cells(out, mus, tokens, cells)


def test_pearson_check_fails_on_perturbed_cell(analyze_run, tmp_path):
    workload, _ = analyze_run
    _, mus, _ = reference_encodings(workload)
    out = copy_outputs(workload.out, tmp_path)
    assert checks.check_pearson(out, mus) == []

    def perturb(rows):
        rows[1][2] = repr(float(rows[1][2]) + 1e-5)

    rewrite_csv(out / "pearson_matrix.csv", perturb)
    assert checks.check_pearson(out, mus)


def test_histogram_check_fails_on_dropped_count(analyze_run, tmp_path):
    workload, _ = analyze_run
    out = copy_outputs(workload.out, tmp_path)
    sizes = {"music_corpus": 64, "noise_corpus": 64, "music_random": 64, "noise_random": 64}
    assert checks.check_activation_hist(out, sizes) == []

    def drop(rows):
        column = rows[0].index("noise_random")
        row = next(r for r in rows[1:] if int(r[column]) > 0)
        row[column] = str(int(row[column]) - 1)

    rewrite_csv(out / "activation_hist.csv", drop)
    assert checks.check_activation_hist(out, sizes) == [
        "activation histogram column noise_random sums to 63, corpus has 64"]


@pytest.mark.parametrize("edit", ["swap", "move"])
def test_partition_check_fails(analyze_run, tmp_path, edit):
    workload, _ = analyze_run
    _, _, sigmas = reference_encodings(workload)
    out = copy_outputs(workload.out, tmp_path)
    assert checks.check_partition(out, sigmas, 0.9, 64) == []
    path = out / "partition.json"
    part = json.loads(path.read_text())
    if edit == "swap":
        part["order"] = part["order"][::-1]
    else:  # a dim listed as both music and noise, another dropped
        part["music"] = part["order"][:1]
        part["noise"] = part["order"][:1]
    path.write_text(json.dumps(part))
    assert checks.check_partition(out, sigmas, 0.9, 64)


# ---------------------------------------------------------------- midi-io

def test_midi_outputs_pass(midi_run):
    workload, ops = midi_run
    assert all(not op.error for op in ops if op.kind == "roundtrip")
    assert workload.check() == []


def test_ingest_check_fails_on_changed_token(midi_run, tmp_path):
    workload, _ = midi_run
    shard, _, expected = workload.shards[0]
    corpus = tmp_path / "corpus.jsonl"
    ingested = workload.out / f"{shard.name}.jsonl"
    lines = ingested.read_text().splitlines()
    obj = json.loads(lines[-1])
    obj["tokens"][-1] = ref.REST if obj["tokens"][-1] != ref.REST else ref.HOLD
    corpus.write_text("\n".join(lines[:-1] + [json.dumps(obj)]) + "\n")
    assert checks.check_ingest_windows(ingested, expected, 120.0) == []
    assert checks.check_ingest_windows(corpus, expected, 120.0)


def test_roundtrip_check_fails_when_midi_and_line_differ(midi_run, tmp_path):
    workload, _ = midi_run
    out = copy_outputs(workload.out / "rt000", tmp_path)
    k = workload.scale.roundtrip_k
    assert checks.check_roundtrip_files(out, k) == []
    lines = (out / "roundtrip.jsonl").read_text().splitlines()
    obj = json.loads(lines[1])
    obj["tokens"][0] = 60 if obj["tokens"][0] != 60 else 61
    lines[1] = json.dumps(obj)
    (out / "roundtrip.jsonl").write_text("\n".join(lines) + "\n")
    assert checks.check_roundtrip_files(out, k)


def test_greedy_check_fails_on_flipped_token(midi_run):
    workload, _ = midi_run
    weights = vae.load_checkpoint(workload.checkpoint).arrays()
    seq = workload.melodies[0][0]
    greedy = checks.read_corpus(workload.out / "rt000" / "roundtrip.jsonl")[0][0]
    assert checks.check_greedy(weights, seq.tokens, greedy) == []
    flipped = list(greedy)
    flipped[5] = (flipped[5] + 1) % 128
    assert checks.check_greedy(weights, seq.tokens, flipped)


# ------------------------------------------------------------- references

def test_bvn_reference_matches_scipy():
    from scipy.stats import multivariate_normal

    for h, k, rho in [(0.3, -0.7, 0.5), (0.0, 1.1, -0.3), (-1.2, 0.0, 0.9), (0.0, 0.0, 0.2)]:
        want = multivariate_normal(mean=[0, 0], cov=[[1, rho], [rho, 1]]).cdf([h, k])
        assert ref.bvn_cdf(h, k, rho) == pytest.approx(want, abs=1e-7)


def test_smf_reference_roundtrip():
    spans = [(60, 0, 4), (62, 6, 2), (64, 8, 8), (65, 31, 1)]
    for running in (True, False):
        got, tempo, tpq = ref.read_smf_notes(ref.write_smf(spans, 96, running))
        assert (got, tempo, tpq) == (spans, 120.0, 96)
    tokens = ref.spans_to_tokens(spans, 32)
    assert ref.tokens_to_spans(tokens) == spans
    assert ref.cut_windows(spans, bars=1, min_notes=1) == [
        [(60, 0, 4), (62, 6, 2), (64, 8, 8)], [(65, 15, 1)]]


# ---------------------------------------------------------------- tracing

def test_tracer_spans_self_times_and_restore():
    original = stats.phik
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    with Tracer() as tracer:
        tracer.round = "traced"
        stats.phik(x, x + rng.normal(size=200))
    assert stats.phik is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "stats.phik" and "stats.contingency" in names
    assert names.count("stats.bvn_cell_probs") > 5
    selfs = tracer.self_times()
    children = sum(s.duration for s in tracer.spans[1:])
    assert selfs[0] == pytest.approx(tracer.spans[0].duration - children, abs=1e-9)


# ------------------------------------------------------------- smoke runs

@pytest.mark.parametrize("name", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(name, trace, tmp_path):
    result = bench.run(name, tmp_path, 2, 0.0, trace, lambda: 0.5, bench.TINY)
    assert result.correct, result.failures
    assert set(result.metrics) == set(bench.PER_LAYER if trace else bench.END_TO_END)
    assert all(math.isfinite(v) for v in result.metrics.values())
    assert result.attempted >= 1 and result.failed <= result.attempted
    if trace:  # the command itself was traced, through cli._COMMANDS
        assert result.metrics[f"cli.{bench.WORKLOADS[name].main_op}.s"] > 0


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_refuses_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "midi-io", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "{" not in proc.stdout
