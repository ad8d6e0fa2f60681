import ast
import dataclasses
import hashlib
import importlib
import json
import os
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from latent_lens import analysis, cli, corpus, melody, midi, report, stats, vae
from latent_lens.corpus import RandomSeqConfig, SyntheticConfig, gen_musical_corpus
from latent_lens.features import FEATURE_NAMES
from latent_lens.melody import load_corpus

from oracles import reference_features
from test_melody import MALFORMED_LINES
from test_midi import scale_file
from test_vae import BAD_METADATA, bad_metadata_checkpoint


def run(*argv) -> int:
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """gen -> train -> analyze on a tiny model; shared by the cli tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus_path = root / "corpus.jsonl"
    rand_path = root / "random.jsonl"
    assert run("gen", "--kind", "musical", "--n", "120", "--seed", "3",
               "--out", str(corpus_path)) == 0
    assert run("gen", "--kind", "random", "--n", "80", "--seed", "4",
               "--out", str(rand_path)) == 0
    train_dir = root / "model"
    assert run("train", "--corpus", str(corpus_path), "--out-dir", str(train_dir),
               "--epochs", "2", "--embed-dim", "12", "--hidden-dim", "16",
               "--latent-dim", "8", "--batch", "32", "--seed", "0") == 0
    out_dir = root / "report"
    assert run("analyze", "--checkpoint", str(train_dir / "checkpoint.npz"),
               "--corpus", str(corpus_path), "--random-corpus", str(rand_path),
               "--out-dir", str(out_dir), "--phik-bins", "4") == 0
    return root, corpus_path, rand_path, train_dir, out_dir


def test_gen_reproducible(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run("gen", "--kind", "random", "--n", "50", "--seed", "7", "--out", str(a)) == 0
    assert run("gen", "--kind", "random", "--n", "50", "--seed", "7", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.jsonl"
    assert run("gen", "--kind", "random", "--n", "50", "--seed", "8", "--out", str(c)) == 0
    assert a.read_bytes() != c.read_bytes()
    assert len(load_corpus(a)) == 50


def test_gen_bad_flags(tmp_path):
    assert run("gen", "--kind", "random", "--n", "0",
               "--out", str(tmp_path / "x.jsonl")) == 1
    assert run("gen", "--kind", "random", "--n", "5", "--pitch-min", "90",
               "--pitch-max", "10", "--out", str(tmp_path / "y.jsonl")) == 1


def test_gen_empty_rhythm_grid_is_input_error(tmp_path, caplog):
    out = tmp_path / "x.jsonl"
    assert run("gen", "--kind", "musical", "--n", "5", "--rhythm-grid", "",
               "--out", str(out)) == 1
    assert caplog.messages[-1] == "rhythm grid must hold at least one duration"
    assert not out.exists()


@pytest.mark.parametrize("kind, flag, value", [
    ("random", "--rhythm-grid", "1,2"),
    ("random", "--key-root", "3"),
    ("random", "--step-bias", "0.5"),
    ("musical", "--pitch-min", "200"),
    ("musical", "--n-notes-max", "20"),
    ("musical", "--duration-s-min", "2"),
])
def test_gen_rejects_the_other_kinds_flags(tmp_path, caplog, kind, flag, value):
    """A flag that feeds only the other kind's config, set away from its
    default on the command line or in a config file, is an input error."""
    out = tmp_path / "x.jsonl"
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"{flag[2:]}={value}\n")
    for argv in ([flag, value], ["--config", str(cfg)]):
        caplog.clear()
        assert run("gen", "--kind", kind, "--n", "5", *argv, "--out", str(out)) == 1, argv
        assert caplog.messages == [f"{flag} does not apply to --kind {kind}"], argv
        assert not out.exists(), argv


def test_gen_checks_the_rhythm_grid_of_either_kind(tmp_path, caplog):
    out = tmp_path / "x.jsonl"
    assert run("gen", "--kind", "random", "--n", "5", "--rhythm-grid", "banana",
               "--out", str(out)) == 1
    assert caplog.messages[-1].startswith("argument --rhythm-grid: invalid")
    assert not out.exists()
    # set at their defaults, the musical flags leave a random corpus as it was
    plain = tmp_path / "plain.jsonl"
    assert run("gen", "--kind", "random", "--n", "5", "--out", str(plain)) == 0
    assert run("gen", "--kind", "random", "--n", "5", "--rhythm-grid", "1,2,2,4,4,8",
               "--key-root", "0", "--out", str(out)) == 0
    assert out.read_bytes() == plain.read_bytes()


def test_ingest_fixture_dir(tmp_path):
    mididir = tmp_path / "mid"
    mididir.mkdir()
    (mididir / "scale.mid").write_bytes(scale_file())
    (mididir / "broken.mid").write_bytes(b"MThd junk")
    out = tmp_path / "corpus.jsonl"
    assert run("ingest", str(mididir), str(out), "--min-notes", "3") == 0
    entries = load_corpus(out)
    assert len(entries) == 2  # two windows from the scale fixture
    manifest = json.loads((tmp_path / "corpus.jsonl.manifest.json").read_text())
    assert manifest["command"] == "ingest"
    assert len(manifest["input_hashes"]) == 2
    # rerun gives identical bytes
    first = out.read_bytes()
    assert run("ingest", str(mididir), str(out)) == 0
    assert out.read_bytes() == first


def test_ingest_skips_corrupt_data_byte(tmp_path):
    mididir = tmp_path / "mid"
    mididir.mkdir()
    (mididir / "scale.mid").write_bytes(scale_file())
    bad = bytearray(scale_file())
    bad[bad.index(0x90) + 1] = 200  # pitch byte with the high bit set
    (mididir / "corrupt.mid").write_bytes(bytes(bad))
    out = tmp_path / "corpus.jsonl"
    assert run("ingest", str(mididir), str(out)) == 0
    assert len(load_corpus(out)) == 2  # the clean scale's two windows


def test_ingest_skips_file_whose_extraction_fails(tmp_path, monkeypatch):
    mididir = tmp_path / "mid"
    mididir.mkdir()
    (mididir / "a.mid").write_bytes(scale_file())
    (mididir / "b.mid").write_bytes(scale_file())
    real_extract = midi.extract_melodies
    calls = []

    def flaky_extract(parsed, cfg):
        calls.append(parsed)
        if len(calls) == 1:
            raise melody.InvalidMelody("bad window")
        return real_extract(parsed, cfg)

    monkeypatch.setattr(midi, "extract_melodies", flaky_extract)
    out = tmp_path / "corpus.jsonl"
    assert run("ingest", str(mididir), str(out)) == 0
    assert len(calls) == 2
    assert len(load_corpus(out)) == 2  # only b.mid's windows
    manifest = json.loads((tmp_path / "corpus.jsonl.manifest.json").read_text())
    assert manifest["dropped"] == {"unreadable": 0, "unparseable": 0, "invalid_melody": 1}


def test_ingest_skips_unreadable_paths(tmp_path):
    mididir = tmp_path / "mid"
    mididir.mkdir()
    good = mididir / "scale.mid"
    good.write_bytes(scale_file())
    (mididir / "broken.mid").write_bytes(b"MThd junk")
    (mididir / "folder.mid").mkdir()
    (mididir / "dangling.mid").symlink_to(mididir / "missing.mid")
    out = tmp_path / "corpus.jsonl"
    assert run("ingest", str(mididir), str(out)) == 0
    assert len(load_corpus(out)) == 2
    manifest = json.loads((tmp_path / "corpus.jsonl.manifest.json").read_text())
    assert manifest["input_hashes"] == {
        str(good): hashlib.sha256(scale_file()).hexdigest(),
        str(mididir / "broken.mid"): hashlib.sha256(b"MThd junk").hexdigest(),
    }
    assert manifest["dropped"] == {"unreadable": 2, "unparseable": 1, "invalid_melody": 0}


def test_ingest_empty_dir(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert run("ingest", str(empty), str(tmp_path / "c.jsonl")) == 1


def test_train_outputs(tiny_run):
    _, _, _, train_dir, _ = tiny_run
    history = (train_dir / "history.csv").read_text().strip().splitlines()
    assert history[0] == "epoch,loss,recon_ce,kl"
    assert len(history) == 3
    manifest = json.loads((train_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert "error" not in manifest
    assert manifest["environment"] == {  # exact reruns need the same BLAS thread count
        name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    params = vae.load_checkpoint(train_dir / "checkpoint.npz")
    assert params.config.latent_dim == 8


def test_train_seeded_rerun_identical(tiny_run, tmp_path):
    root, corpus_path, _, train_dir, _ = tiny_run
    redo = tmp_path / "redo"
    assert run("train", "--corpus", str(corpus_path), "--out-dir", str(redo),
               "--epochs", "2", "--embed-dim", "12", "--hidden-dim", "16",
               "--latent-dim", "8", "--batch", "32", "--seed", "0") == 0
    assert (redo / "history.csv").read_text() == (train_dir / "history.csv").read_text()


def test_train_divergence_keeps_checkpoint_and_manifest(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    assert run("gen", "--kind", "musical", "--n", "64", "--seed", "3",
               "--out", str(corpus_path)) == 0
    out = tmp_path / "model"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("train", "--corpus", str(corpus_path), "--out-dir", str(out),
                   "--epochs", "2", "--embed-dim", "8", "--hidden-dim", "12",
                   "--latent-dim", "6", "--lr", "1e3", "--seed", "0")
    assert code == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    params = vae.load_checkpoint(out / "checkpoint.npz")
    assert params.config.latent_dim == 6
    assert (out / "history.csv").read_text().splitlines()[0] == "epoch,loss,recon_ce,kl"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["error"].startswith("training diverged: epoch ")
    assert "non-finite loss" in manifest["error"]
    assert sorted(manifest["outputs"]) == [str(out / "checkpoint.npz"), str(out / "history.csv")]


def test_train_resume_continues_epochs(tiny_run, tmp_path, caplog):
    """A resume into a new directory writes the run's whole history, and
    takes the run's settings from the checkpoint: a flag left at its default
    gets the stored value, and one set to another value exits 1."""
    _, corpus_path, _, train_dir, _ = tiny_run
    resume_dir = tmp_path / "resumed"
    assert run("train", "--corpus", str(corpus_path), "--out-dir", str(resume_dir),
               "--resume", str(train_dir / "checkpoint.npz"),
               "--epochs", "1", "--batch", "32") == 0
    rows = (resume_dir / "history.csv").read_text().strip().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["0", "1", "2"]
    config = json.loads((resume_dir / "manifest.json").read_text())["config"]
    assert (config["latent_dim"], config["embed_dim"], config["hidden_dim"]) == (8, 12, 16)
    assert (config["seed"], config["batch"], config["epochs"]) == (0, 32, 1)
    for flag, value, stored in [("--seed", "5", "0"), ("--batch", "7", "32"),
                                ("--latent-dim", "99", "8"), ("--beta-max", "0.5", "0.2")]:
        caplog.clear()
        out = tmp_path / f"conflict{flag}"
        assert run("train", "--corpus", str(corpus_path), "--out-dir", str(out), "--resume",
                   str(train_dir / "checkpoint.npz"), "--epochs", "1", flag, value) == 1
        name = flag[2:].replace("-", "_")
        assert caplog.messages == [f"{name} is {stored} in the run resumed, not {value}"]
        assert not out.exists()


def test_resume_flag_given_at_its_default_value_counts(tiny_run, tmp_path, caplog):
    """A flag given on resume counts even at its default value: --lr replaces
    the stored rate, and --seed 0 on a seed-5 run exits 1."""
    _, corpus_path, _, _, _ = tiny_run
    train = ["train", "--corpus", str(corpus_path), *TINY_TRAIN, "--out-dir"]
    first, resumed = tmp_path / "first", tmp_path / "resumed"
    assert run(*train, str(first), "--epochs", "1", "--lr", "5e-4", "--seed", "5") == 0
    resume = ["train", "--corpus", str(corpus_path), "--epochs", "1",
              "--resume", str(first / "checkpoint.npz"), "--out-dir"]
    assert run(*resume, str(resumed), "--lr", "1e-3") == 0
    _, state = vae.load_checkpoint(resumed / "checkpoint.npz", with_state=True)
    assert (state.settings["lr"], state.settings["seed"]) == (1e-3, 5)
    config = json.loads((resumed / "manifest.json").read_text())["config"]
    assert (config["lr"], config["seed"]) == (1e-3, 5)
    caplog.clear()
    assert run(*resume, str(tmp_path / "seed0"), "--seed", "0") == 1
    assert caplog.messages == ["seed is 5 in the run resumed, not 0"]
    assert not (tmp_path / "seed0").exists()


def test_run_diverging_in_its_first_epoch_keeps_its_settings(tiny_run, tmp_path, caplog):
    """A fresh run that diverges before any epoch completes still stores its
    settings, so a resume of it with another --batch exits 1."""
    _, corpus_path, _, _, _ = tiny_run
    out = tmp_path / "diverged"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run("train", "--corpus", str(corpus_path), *TINY_TRAIN, "--out-dir", str(out),
                   "--epochs", "1", "--lr", "1e3", "--seed", "5") == 2
    _, state = vae.load_checkpoint(out / "checkpoint.npz", with_state=True)
    assert (state.epochs, state.settings["seed"], state.settings["lr"]) == (0, 5, 1e3)
    caplog.clear()
    assert run("train", "--corpus", str(corpus_path), "--out-dir", str(tmp_path / "again"),
               "--epochs", "1", "--lr", "1e-3", "--batch", "7",
               "--resume", str(out / "checkpoint.npz")) == 1
    assert caplog.messages == ["batch is 32 in the run resumed, not 7"]
    assert not (tmp_path / "again").exists()


TINY_TRAIN = ["--embed-dim", "12", "--hidden-dim", "16", "--latent-dim", "8", "--batch", "32",
              "--beta-anneal-steps", "6"]  # 4 steps an epoch: the ramp ends in epoch 2


def test_train_then_resume_equals_one_run(tiny_run, tmp_path):
    """One epoch, then two more with --resume into the same directory or a
    new one, write the checkpoint and history of three epochs in one run.
    Resuming from the one-epoch checkpoint again keeps only its epoch's row."""
    _, corpus_path, _, _, _ = tiny_run
    straight, split, moved = tmp_path / "straight", tmp_path / "split", tmp_path / "moved"
    train = ["train", "--corpus", str(corpus_path), *TINY_TRAIN, "--out-dir"]
    assert run(*train, str(straight), "--epochs", "3") == 0
    assert run(*train, str(split), "--epochs", "1") == 0
    one_epoch = tmp_path / "one_epoch.npz"
    one_epoch.write_bytes((split / "checkpoint.npz").read_bytes())
    assert run("train", "--corpus", str(corpus_path), "--out-dir", str(moved), "--epochs", "2",
               "--resume", str(one_epoch)) == 0
    assert run(*train, str(split), "--epochs", "2", "--resume", str(split / "checkpoint.npz")) == 0
    for name in ("checkpoint.npz", "history.csv"):
        assert (split / name).read_bytes() == (straight / name).read_bytes(), name
        assert (moved / name).read_bytes() == (straight / name).read_bytes(), name
    assert run(*train, str(split), "--epochs", "1", "--resume", str(one_epoch)) == 0
    rows = (straight / "history.csv").read_text().splitlines(True)
    assert (split / "history.csv").read_text() == "".join(rows[:3])  # epochs 0 and 1


def test_diverged_run_resumes_at_a_lower_lr(tiny_run, tmp_path):
    """A run that diverges keeps the last completed epoch's weights and
    state, so a rerun at a lower --lr continues it as if it never failed."""
    _, corpus_path, _, _, _ = tiny_run
    straight, split = tmp_path / "straight", tmp_path / "split"
    train = ["train", "--corpus", str(corpus_path), *TINY_TRAIN, "--out-dir"]
    ckpt = split / "checkpoint.npz"
    assert run(*train, str(straight), "--epochs", "3") == 0
    assert run(*train, str(split), "--epochs", "1") == 0
    one_epoch = ckpt.read_bytes()
    assert run(*train, str(split), "--epochs", "2", "--lr", "1e3", "--resume", str(ckpt)) == 2
    manifest = json.loads((split / "manifest.json").read_text())
    assert manifest["error"].startswith("training diverged: epoch 1: non-finite loss")
    assert ckpt.read_bytes() == one_epoch
    assert run(*train, str(split), "--epochs", "2", "--resume", str(ckpt)) == 0
    for name in ("checkpoint.npz", "history.csv"):
        assert (split / name).read_bytes() == (straight / name).read_bytes(), name


def test_resume_needs_a_training_state(tiny_run, tmp_path, caplog):
    _, corpus_path, _, train_dir, _ = tiny_run
    stateless = tmp_path / "stateless.npz"
    vae.save_checkpoint(vae.load_checkpoint(train_dir / "checkpoint.npz"), stateless)
    out = tmp_path / "out"
    assert run("train", "--corpus", str(corpus_path), "--resume", str(stateless),
               "--out-dir", str(out)) == 1
    assert caplog.messages[-1] == "checkpoint holds no training state to resume from"
    assert not out.exists()


def test_training_state_changes_no_analyze_or_roundtrip_output(tiny_run, tmp_path):
    """analyze and roundtrip write the same files from the same weights with
    the training state as without it; only the checkpoint's hash differs."""
    _, corpus_path, rand_path, train_dir, out_dir = tiny_run
    stateful = train_dir / "checkpoint.npz"
    stateless = tmp_path / "stateless.npz"
    vae.save_checkpoint(vae.load_checkpoint(stateful), stateless)
    one = tmp_path / "one.jsonl"
    one.write_text(corpus_path.read_text().splitlines()[0] + "\n")
    for ckpt, name in ((stateful, "with"), (stateless, "without")):
        assert run("analyze", "--checkpoint", str(ckpt), "--corpus", str(corpus_path),
                   "--random-corpus", str(rand_path), "--phik-bins", "4",
                   "--out-dir", str(tmp_path / f"report_{name}")) == 0
        assert run("roundtrip", "--checkpoint", str(ckpt), "--melody", str(one), "-k", "2",
                   "--out-dir", str(tmp_path / f"rt_{name}")) == 0

    def outputs(directory):
        files = {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "manifest.json"}
        if "partition.json" in files:  # which names the checkpoint by its hash
            files["partition.json"] = {**json.loads(files["partition.json"]),
                                       "checkpoint_sha256": None}
        return files

    for kind in ("report", "rt"):
        assert outputs(tmp_path / f"{kind}_with") == outputs(tmp_path / f"{kind}_without"), kind


@pytest.mark.parametrize("fault", BAD_METADATA)
@pytest.mark.parametrize("command", ["analyze", "roundtrip", "train"])
def test_bad_checkpoint_metadata_is_input_error(tiny_run, tmp_path, caplog, command, fault):
    """Bad checkpoint metadata exits 1 and leaves no output directory; a bad
    training state is an error only for train --resume, which reads it."""
    _, corpus_path, _, _, _ = tiny_run
    ckpt = tmp_path / "bad.npz"
    bad_metadata_checkpoint(ckpt, fault)
    one = tmp_path / "one.jsonl"
    one.write_text(corpus_path.read_text().splitlines()[0] + "\n")
    argv = {
        "analyze": ["analyze", "--checkpoint", str(ckpt), "--corpus", str(corpus_path),
                    "--phik-bins", "4"],
        "roundtrip": ["roundtrip", "--checkpoint", str(ckpt), "--melody", str(one)],
        "train": ["train", "--corpus", str(corpus_path), "--resume", str(ckpt),
                  "--epochs", "1"],
    }[command]
    out = tmp_path / "out"
    state_only = BAD_METADATA[fault][1]
    if state_only and command != "train":
        assert run(*argv, "--out-dir", str(out)) == 0
        return
    assert run(*argv, "--out-dir", str(out)) == 1
    assert caplog.messages[-1].startswith(("unreadable checkpoint: ", "checkpoint metadata")), \
        caplog.messages[-1]
    assert not out.exists()


def test_train_counts_sequences_of_another_length(tiny_run, tmp_path):
    """train keeps the sequences of the model's length, as analyze does: the
    first entry's length, or the resumed checkpoint's."""
    _, corpus_path, _, train_dir, _ = tiny_run
    long_line = melody.to_json_line(
        melody.tokenize(melody.Melody((melody.NoteSpan(60, 0, 4),), 16, 120.0)), 120.0)
    lines = corpus_path.read_text().splitlines()[:40]
    lines[3:3] = [long_line, long_line]
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("\n".join(lines) + "\n")
    long_first = tmp_path / "long_first.jsonl"
    long_first.write_text("\n".join([long_line] + lines) + "\n")
    runs = [  # (name, arguments, sequences dropped)
        ("fresh", ["--corpus", mixed, "--embed-dim", "4", "--hidden-dim", "6",
                   "--latent-dim", "2", "--batch", "16"], 2),
        ("resumed", ["--corpus", long_first, "--resume", train_dir / "checkpoint.npz"], 3),
    ]
    for name, argv, dropped in runs:
        out = tmp_path / name
        assert run("train", *map(str, argv), "--out-dir", str(out), "--epochs", "1") == 0, name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dropped"] == {"skipped_sequences": {"corpus": dropped}}, name
        assert vae.load_checkpoint(out / "checkpoint.npz").config.seq_len == 32


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--epochs", "0"),
    ("train", "--latent-dim", "0"),
    ("train", "--beta-max", "nan"),
    ("train", "--beta-max", "inf"),
    ("train", "--lr", "inf"),
    ("train", "--grad-clip-norm", "nan"),
    ("ingest", "--max-per-file", "0"),
    ("ingest", "--min-notes", "0"),
    ("analyze", "--phik-bins", "1"),
    ("analyze", "--lowess-frac", "0"),
    ("analyze", "--sigma-threshold", "nan"),
    ("analyze", "--activation-threshold", "nan"),
])
def test_invalid_flag_value_is_input_error(tiny_run, tmp_path, caplog, command, flag, value):
    _, corpus_path, _, train_dir, _ = tiny_run
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--corpus", corpus_path, "--out-dir", out],
        "ingest": ["ingest", tmp_path, out],
        "analyze": ["analyze", "--checkpoint", train_dir / "checkpoint.npz",
                    "--corpus", corpus_path, "--out-dir", out],
    }[command]
    (tmp_path / "scale.mid").write_bytes(scale_file())  # what ingest would read
    assert run(*map(str, argv), flag, value) == 1
    assert caplog.records[-1].levelname == "ERROR"
    assert not out.exists()


@pytest.mark.parametrize("line", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys())
def test_malformed_corpus_line_is_input_error(tiny_run, tmp_path, caplog, line):
    _, corpus_path, _, train_dir, _ = tiny_run
    ckpt = str(train_dir / "checkpoint.npz")
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(corpus_path.read_text().splitlines()[:20] + [line]) + "\n")
    one = tmp_path / "one.jsonl"
    one.write_text(line + "\n")
    runs = {
        "train": ["--corpus", bad, "--epochs", "1"],
        "analyze": ["--checkpoint", ckpt, "--corpus", bad],
        "roundtrip": ["--checkpoint", ckpt, "--melody", one],
    }
    for command, argv in runs.items():
        out = tmp_path / command
        caplog.clear()
        assert run(command, *map(str, argv), "--out-dir", str(out)) == 1, command
        assert caplog.messages[-1].startswith("malformed corpus"), command
        assert not out.exists(), command


def test_checkpoint_is_read_once_and_hashed_as_loaded(tiny_run, tmp_path, monkeypatch):
    _, corpus_path, _, train_dir, _ = tiny_run
    ckpt = train_dir / "checkpoint.npz"
    digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    one = tmp_path / "one.jsonl"
    one.write_text(corpus_path.read_text().splitlines()[0] + "\n")
    hashed = []
    sha256_file = report.sha256_file

    def recording_sha256_file(path):
        hashed.append(str(path))
        return sha256_file(path)

    monkeypatch.setattr(report, "sha256_file", recording_sha256_file)
    runs = {
        "train": ["train", "--corpus", str(corpus_path), "--resume", str(ckpt),
                  "--epochs", "1", "--batch", "32"],
        "analyze": ["analyze", "--checkpoint", str(ckpt), "--corpus", str(corpus_path),
                    "--phik-bins", "4"],
        "roundtrip": ["roundtrip", "--checkpoint", str(ckpt), "--melody", str(one), "-k", "1"],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert run(*argv, "--out-dir", str(out)) == 0, name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["input_hashes"][str(ckpt)] == digest, name
    assert str(ckpt) not in hashed


@pytest.mark.parametrize("command", ["train", "analyze", "roundtrip"])
def test_corpus_is_hashed_as_parsed(tiny_run, tmp_path, monkeypatch, command):
    """Each corpus is read once: a file rewritten while the command runs is
    still recorded by the SHA-256 of the bytes the command parsed, and no
    input file is read again to hash it."""
    _, corpus_path, rand_path, train_dir, _ = tiny_run
    ckpt = str(train_dir / "checkpoint.npz")
    lines = corpus_path.read_text().splitlines(keepends=True)
    sources = {"corpus": "".join(lines), "random": rand_path.read_text(),
               "one": lines[0]}
    paths = {}
    for name, text in sources.items():
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text(text)
    runs = {
        "train": (vae, "train", ["--corpus", str(paths["corpus"]), "--epochs", "1",
                                 "--embed-dim", "8", "--hidden-dim", "8",
                                 "--latent-dim", "4"]),
        "analyze": (analysis, "build_report",
                    ["--checkpoint", ckpt, "--corpus", str(paths["corpus"]),
                     "--random-corpus", str(paths["random"]), "--phik-bins", "4"]),
        "roundtrip": (vae, "encode", ["--checkpoint", ckpt, "--melody", str(paths["one"]),
                                      "-k", "1"]),
    }
    module, func, argv = runs[command]
    original = getattr(module, func)

    def rewriting(*args, **kwargs):
        for path in paths.values():
            path.write_text(lines[1])
        return original(*args, **kwargs)

    hashed = []
    sha256_file = report.sha256_file

    def recording_sha256_file(path):
        hashed.append(str(path))
        return sha256_file(path)

    monkeypatch.setattr(module, func, rewriting)
    monkeypatch.setattr(report, "sha256_file", recording_sha256_file)
    out = tmp_path / "out"
    assert run(command, *argv, "--out-dir", str(out)) == 0
    assert hashed == []
    hashes = json.loads((out / "manifest.json").read_text())["input_hashes"]
    hashes.pop(ckpt, None)
    read = {str(paths[name]): hashlib.sha256(text.encode()).hexdigest()
            for name, text in sources.items() if str(paths[name]) in argv}
    assert hashes == read


def test_missing_checkpoint_is_input_error(tiny_run, tmp_path, caplog):
    _, corpus_path, _, _, _ = tiny_run
    missing = tmp_path / "missing.npz"
    for argv in (
        ["train", "--corpus", str(corpus_path), "--resume", str(missing)],
        ["analyze", "--checkpoint", str(missing), "--corpus", str(corpus_path)],
        ["roundtrip", "--checkpoint", str(missing), "--melody", str(corpus_path)],
    ):
        caplog.clear()
        assert run(*argv, "--out-dir", str(tmp_path / "out")) == 1
        assert caplog.messages == [
            f"unreadable checkpoint: [Errno 2] No such file or directory: '{missing}'"]


def test_analyze_bundle_complete(tiny_run):
    _, _, _, _, out_dir = tiny_run
    expected = [
        "sigma_boxplot.csv", "sigma_boxplot.svg",
        "mu_boxplot.csv", "mu_boxplot.svg",
        "pearson_matrix.csv", "pearson_matrix.svg",
        "feature_phik.csv", "feature_phik.svg",
        "activation_hist.csv", "activation_hist.svg",
        "partition.json", "manifest.json",
    ]
    for name in expected:
        assert (out_dir / name).exists(), name
    scatters = list(out_dir.glob("scatter_*.svg"))
    assert scatters, "expected at least one scatter plot"


def test_analyze_svgs_well_formed(tiny_run):
    _, _, _, _, out_dir = tiny_run
    for path in out_dir.glob("*.svg"):
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")


def test_analyze_heatmap_cell_count(tiny_run):
    _, _, _, _, out_dir = tiny_run
    root = ET.fromstring((out_dir / "pearson_matrix.svg").read_text())
    cells = [el for el in root.iter() if el.get("class") == "cell"]
    assert len(cells) == 8 * 8
    # phik heatmap: 20 features x 8 dims
    root = ET.fromstring((out_dir / "feature_phik.svg").read_text())
    cells = [el for el in root.iter() if el.get("class") == "cell"]
    assert len(cells) == 20 * 8


def test_analyze_partition_json(tiny_run):
    _, corpus_path, _, train_dir, out_dir = tiny_run
    payload = json.loads((out_dir / "partition.json").read_text())
    assert sorted(payload["music"] + payload["noise"]) == list(range(8))
    assert payload["sigma_threshold"] == 0.9
    checkpoint = (train_dir / "checkpoint.npz").read_bytes()
    assert payload["checkpoint_sha256"] == hashlib.sha256(checkpoint).hexdigest()
    assert payload["corpus_sha256"] == hashlib.sha256(corpus_path.read_bytes()).hexdigest()


def test_analyze_manifest_records_peak_rss(tiny_run):
    _, _, _, _, out_dir = tiny_run
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["peak_rss_mb"] > 0


def test_analyze_manifest_counts_dropped_data(tiny_run, tmp_path):
    _, corpus_path, rand_path, train_dir, _ = tiny_run
    long_line = melody.to_json_line(
        melody.tokenize(melody.Melody((melody.NoteSpan(60, 0, 4),), 16, 120.0)), 120.0)
    one_note = melody.to_json_line(
        melody.tokenize(melody.Melody((melody.NoteSpan(67, 3, 2),), 2, 90.0)), 90.0)
    lines = corpus_path.read_text().splitlines()[:40]
    lines[5:5] = [long_line, one_note]
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("\n".join(lines) + "\n")
    rand_mixed = tmp_path / "rand_mixed.jsonl"
    rand_mixed.write_text(rand_path.read_text() + long_line + "\n" + long_line + "\n")
    out = tmp_path / "r"
    assert run("analyze", "--checkpoint", str(train_dir / "checkpoint.npz"),
               "--corpus", str(mixed), "--random-corpus", str(rand_mixed),
               "--out-dir", str(out), "--phik-bins", "4") == 0
    dropped = json.loads((out / "manifest.json").read_text())["dropped"]
    assert dropped["skipped_sequences"] == {"corpus": 1, "random_corpus": 2}

    kept = [melody.detokenize(seq, tempo) for seq, tempo in load_corpus(mixed)
            if len(seq) == 32]
    expected = np.sum([reference_features(m)[1] for m in kept], axis=0)
    assert dropped["degenerate_values"] == dict(zip(FEATURE_NAMES, expected.tolist()))
    # the one-note melody has no interval and no inter-onset gap
    assert dropped["degenerate_values"]["M2_most_common_interval"] >= 1
    assert dropped["degenerate_values"]["R7_mean_inter_onset_interval"] >= 1

    rows = (out / "feature_phik.csv").read_text().splitlines()[1:]
    blanks = sum(cell == "" for row in rows for cell in row.split(",")[1:])
    assert dropped["nan_phik_cells"] == blanks


def test_analyze_requires_compatible_checkpoint(tiny_run, tmp_path):
    _, corpus_path, _, train_dir, _ = tiny_run
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"garbage")
    assert run("analyze", "--checkpoint", str(bad), "--corpus", str(corpus_path),
               "--out-dir", str(tmp_path / "r")) == 1


@pytest.mark.parametrize("command", ["analyze", "roundtrip", "train"])
def test_checkpoint_config_mismatch_is_input_error(tiny_run, tmp_path, caplog, command):
    """A checkpoint whose stored config disagrees with its weights is a bad
    input file: exit 1, not a numerical failure."""
    _, corpus_path, _, train_dir, _ = tiny_run
    with np.load(train_dir / "checkpoint.npz") as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]))
    meta["config"]["latent_dim"] = 12
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    ckpt = tmp_path / "mismatch.npz"
    with open(ckpt, "wb") as fh:
        np.savez(fh, **arrays)
    one = tmp_path / "one.jsonl"
    one.write_text(corpus_path.read_text().splitlines()[0] + "\n")
    argv = {
        "analyze": ["analyze", "--checkpoint", str(ckpt), "--corpus", str(corpus_path)],
        "roundtrip": ["roundtrip", "--checkpoint", str(ckpt), "--melody", str(one)],
        "train": ["train", "--corpus", str(corpus_path), "--resume", str(ckpt),
                  "--epochs", "1"],
    }[command]
    out = tmp_path / "out"
    assert run(*argv, "--out-dir", str(out)) == 1
    assert "w_mu has shape" in caplog.messages[-1]
    if command != "train":
        assert not out.exists()


def test_analyze_too_small_corpus_is_input_error(tiny_run, tmp_path, caplog):
    _, corpus_path, _, train_dir, _ = tiny_run
    small = tmp_path / "small.jsonl"
    small.write_text("".join(corpus_path.read_text().splitlines(keepends=True)[:5]))
    assert run("analyze", "--checkpoint", str(train_dir / "checkpoint.npz"),
               "--corpus", str(small), "--out-dir", str(tmp_path / "r")) == 1
    assert caplog.messages[-1] == (f"corpus {small} has 5 usable melodies: "
                                   "need at least 10 melodies for a meaningful median")
    assert not (tmp_path / "r").exists()


def test_analyze_missing_random_corpus_is_input_error(tiny_run, tmp_path, caplog):
    _, corpus_path, _, train_dir, _ = tiny_run
    missing = tmp_path / "missing.jsonl"
    assert run("analyze", "--checkpoint", str(train_dir / "checkpoint.npz"),
               "--corpus", str(corpus_path), "--random-corpus", str(missing),
               "--out-dir", str(tmp_path / "r")) == 1
    assert caplog.messages[-1] == (
        f"cannot read corpus: [Errno 2] No such file or directory: '{missing}'")


def test_analyze_manifest_lists_exactly_the_files_written(tiny_run, tmp_path):
    _, corpus_path, _, train_dir, out_dir = tiny_run
    alone = tmp_path / "alone"  # no --random-corpus
    assert run("analyze", "--checkpoint", str(train_dir / "checkpoint.npz"),
               "--corpus", str(corpus_path), "--out-dir", str(alone),
               "--phik-bins", "4") == 0
    for directory in (out_dir, alone):
        manifest = json.loads((directory / "manifest.json").read_text())
        written = sorted(str(p) for p in directory.iterdir() if p.name != "manifest.json")
        assert manifest["outputs"] == written
    assert (out_dir / "activation_hist.csv").read_text().splitlines()[0] == (
        "count,music_corpus,music_random,noise_corpus,noise_random")
    lines = (alone / "activation_hist.csv").read_text().splitlines()
    assert lines[0] == "count,music,noise"
    counts = np.array([[int(v) for v in line.split(",")] for line in lines[1:]])
    assert counts[:, 1].sum() == counts[:, 2].sum() == 120


def test_build_report_is_pure(tiny_run, tmp_path, monkeypatch):
    _, corpus_path, rand_path, train_dir, out_dir = tiny_run
    params = vae.load_checkpoint(train_dir / "checkpoint.npz")
    entries, randoms = load_corpus(corpus_path), load_corpus(rand_path)
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    rep = analysis.build_report(
        params, entries, randoms, sigma_threshold=0.9, activation_threshold=0.1,
        phik_bins=4, lowess_frac=0.3)
    assert list(workdir.iterdir()) == []
    payload = json.loads((out_dir / "partition.json").read_text())
    part = rep.partition
    assert (list(part.order), list(part.music), list(part.noise)) == (
        payload["order"], payload["music"], payload["noise"])
    for name, matrix in (("feature_phik.csv", rep.phik), ("pearson_matrix.csv", rep.pearson)):
        cells = [line.split(",")[1:] for line in (out_dir / name).read_text().splitlines()[1:]]
        assert cells == [["" if np.isnan(v) else "%.8g" % v for v in row] for row in matrix]


@pytest.mark.parametrize("command", ["analyze", "roundtrip"])
def test_sigma_out_of_float_range_is_numerical_failure(tiny_run, tmp_path, caplog, command):
    _, corpus_path, _, train_dir, _ = tiny_run
    params = vae.load_checkpoint(train_dir / "checkpoint.npz")
    params.b_logvar[:] = -2000.0  # finite weights, but exp(-1000) underflows to 0
    ckpt = tmp_path / "underflow.npz"
    vae.save_checkpoint(params, ckpt)
    one = tmp_path / "one.jsonl"
    one.write_text(corpus_path.read_text().splitlines()[0] + "\n")
    inputs = {"analyze": ["--corpus", str(corpus_path)], "roundtrip": ["--melody", str(one)]}
    assert run(command, "--checkpoint", str(ckpt), *inputs[command],
               "--out-dir", str(tmp_path / "out")) == 2
    assert caplog.messages[-1].startswith("numerical failure: posterior sigma")
    assert not (tmp_path / "out").exists()  # a failed run leaves no output dir


def test_roundtrip_outputs(tiny_run, tmp_path):
    _, corpus_path, _, train_dir, _ = tiny_run
    one = tmp_path / "one.jsonl"
    one.write_text(corpus_path.read_text().splitlines()[0] + "\n")
    out_dir = tmp_path / "rt"
    assert run("roundtrip", "--checkpoint", str(train_dir / "checkpoint.npz"),
               "--melody", str(one), "--out-dir", str(out_dir), "-k", "2",
               "--seed", "5") == 0
    lines = (out_dir / "roundtrip.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3  # greedy + 2 samples
    for line in lines:
        seq, tempo = melody.from_json_line(line)
        assert len(seq) == 32
    for name in ("greedy.mid", "sample_01.mid", "sample_02.mid"):
        parsed = midi.parse_midi((out_dir / name).read_bytes())
        assert parsed.format == 0
    # k=0 -> greedy only
    out2 = tmp_path / "rt0"
    assert run("roundtrip", "--checkpoint", str(train_dir / "checkpoint.npz"),
               "--melody", str(one), "--out-dir", str(out2), "-k", "0") == 0
    assert len((out2 / "roundtrip.jsonl").read_text().strip().splitlines()) == 1


def test_roundtrip_decodes_mean_and_draws_in_one_call(tiny_run, tmp_path, monkeypatch):
    _, corpus_path, _, train_dir, _ = tiny_run
    line = corpus_path.read_text().splitlines()[0]
    one = tmp_path / "one.jsonl"
    one.write_text(line + "\n")
    decode = vae.decode
    calls = []

    def recording_decode(p, zs):
        calls.append(np.array(zs))
        return decode(p, zs)

    monkeypatch.setattr(vae, "decode", recording_decode)
    out_dir = tmp_path / "rt"
    assert run("roundtrip", "--checkpoint", str(train_dir / "checkpoint.npz"),
               "--melody", str(one), "--out-dir", str(out_dir), "-k", "2",
               "--seed", "5") == 0

    params = vae.load_checkpoint(train_dir / "checkpoint.npz")
    seq, tempo = melody.from_json_line(line)
    mu, sigma = vae.encode(params, seq)
    rng = np.random.default_rng(5)
    draws = [mu + sigma * rng.standard_normal(mu.shape) for _ in range(2)]
    zs = np.stack([mu, *draws])
    assert len(calls) == 1 and np.array_equal(calls[0], zs)
    expected = [melody.to_json_line(s, tempo) for s in decode(params, zs)]
    assert (out_dir / "roundtrip.jsonl").read_text().splitlines() == expected


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("# generation defaults\nkind=random\nn=30\nseed=9\n")
    out = tmp_path / "from_cfg.jsonl"
    assert run("gen", "--config", str(cfg), "--out", str(out)) == 0
    assert len(load_corpus(out)) == 30
    # explicit flag beats the file value
    out2 = tmp_path / "override.jsonl"
    assert run("gen", "--config", str(cfg), "--n", "12", "--out", str(out2)) == 0
    assert len(load_corpus(out2)) == 12
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key=1\n")
    assert run("gen", "--config", str(bad), "--out", str(tmp_path / "x.jsonl")) == 1


@pytest.mark.parametrize("command, key_value, argv", [
    ("gen", "kind=banana", ["--n", "5", "--out"]),
    ("ingest", "bars=3", []),
])
def test_config_file_values_pass_the_flag_checks(tmp_path, caplog, command, key_value, argv):
    (tmp_path / "scale.mid").write_bytes(scale_file())  # what ingest would read
    cfg = tmp_path / "run.cfg"
    cfg.write_text(key_value + "\n")
    out = tmp_path / "out.jsonl"
    positional = [str(tmp_path)] if command == "ingest" else []
    assert run(command, *positional, "--config", str(cfg), *argv, str(out)) == 1
    key = key_value.partition("=")[0]
    assert caplog.messages[-1].startswith(f"config key {key!r} must be one of")
    assert not out.exists()


def test_unknown_command_is_input_error():
    assert run("frobnicate") == 1


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run("--help")
    assert exit_info.value.code == 0
    assert "{ingest,gen,train,analyze,roundtrip}" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["ingest", "mids", "out.jsonl", "--bars", "16", "--allow-any-meter"],
    ["gen", "--kind", "musical", "--n", "5", "--out", "o.jsonl", "--step-bias", "0.5"],
    ["train", "--corpus", "c.jsonl", "--out-dir", "o", "--lr", "0.01", "--resume", "m.npz"],
    ["analyze", "--checkpoint", "m.npz", "--corpus", "c.jsonl", "--out-dir", "o",
     "--phik-bins", "5", "--config", "a.cfg"],
    ["roundtrip", "--checkpoint", "m.npz", "--melody", "m.jsonl", "--out-dir", "o", "-k", "1"],
])
def test_parser_built_for_one_command_parses_as_the_full_one(argv):
    """``build_parser(command)`` adds only that command's arguments, and
    parses its command lines, and prints its help, as the full parser does."""
    full_parser, full_subs = cli.build_parser()
    parser, subs = cli.build_parser(argv[0])
    assert vars(parser.parse_args(argv)) == vars(full_parser.parse_args(argv))
    assert subs.choices[argv[0]].format_help() == full_subs.choices[argv[0]].format_help()
    assert parser.format_help() == full_parser.format_help()


def test_flag_defaults_are_the_config_defaults(tmp_path):
    parser, _ = cli.build_parser()

    def parse(*argv) -> dict:
        return vars(parser.parse_args(list(argv)))

    def defaults(cls) -> dict:
        return {f.name: f.default for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING}

    ingest = parse("ingest", "midi_dir", "out.jsonl")
    extraction = defaults(midi.ExtractionConfig)
    assert ingest["bars"] == extraction["bars"]
    assert ingest["max_per_file"] == extraction["max_melodies_per_file"]
    assert ingest["min_notes"] == extraction["min_notes"]
    assert ingest["allow_any_meter"] is not extraction["require_four_four"]

    gen = parse("gen", "--kind", "random", "--n", "1", "--out", "out.jsonl")
    for name, value in defaults(RandomSeqConfig).items():
        assert gen[name] == value, name
    for name, value in defaults(SyntheticConfig).items():
        assert gen[name] == value, name

    train = parser.parse_args(["train", "--corpus", str(tmp_path / "no.jsonl"), "--out-dir", "out"])
    with pytest.raises(cli.CliInputError, match="cannot read corpus"):
        cli.cmd_train(train)  # fills in the settings not given, then reads the corpus
    train = vars(train)
    model = defaults(vae.ModelConfig)
    for name in ("embed_dim", "hidden_dim", "latent_dim"):
        assert train[name] == model[name], name
    for name, value in defaults(vae.TrainConfig).items():
        assert train[name] == value, name

    analyze = parse("analyze", "--checkpoint", "c.npz", "--corpus", "corpus.jsonl",
                    "--out-dir", "out")
    assert analyze["sigma_threshold"] == analysis.DEFAULT_SIGMA_THRESHOLD
    assert analyze["activation_threshold"] == analysis.DEFAULT_ACTIVATION_THRESHOLD
    assert analyze["phik_bins"] == stats.PHIK_BINS


def _recording(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, recording)


def test_flags_reach_their_configs(tmp_path, monkeypatch):
    """Every flag that feeds a config, set away from its default, reaches the
    config the command builds."""
    calls = {}
    for module, name in ((corpus, "gen_random_corpus"), (corpus, "gen_musical_corpus"),
                         (vae, "train"), (midi, "extract_melodies")):
        _recording(monkeypatch, module, name, calls.setdefault(name, []))

    random_jsonl, musical_jsonl = tmp_path / "random.jsonl", tmp_path / "musical.jsonl"
    assert run("gen", "--kind", "random", "--n", "3", "--out", str(random_jsonl),
               "--n-notes-min", "3", "--n-notes-max", "20", "--pitch-min", "40",
               "--pitch-max", "90", "--duration-s-min", "2", "--duration-s-max", "5",
               "--bars", "16") == 0
    assert run("gen", "--kind", "musical", "--n", "40", "--out", str(musical_jsonl),
               "--key-root", "2", "--step-bias", "0.5", "--rhythm-grid", "1,2,4",
               "--bars", "16", "--seed", "7") == 0
    assert run("train", "--corpus", str(musical_jsonl), "--out-dir", str(tmp_path / "m"),
               "--epochs", "1", "--embed-dim", "5", "--hidden-dim", "6", "--latent-dim", "3",
               "--lr", "0.002", "--batch", "16", "--beta-max", "0.1",
               "--beta-anneal-steps", "100", "--grad-clip-norm", "2.0",
               "--input-dropout", "0.1", "--seed", "3") == 0
    mididir = tmp_path / "mids"
    mididir.mkdir()
    notes = tuple(melody.NoteSpan(60 + step % 12, step, 4) for step in range(0, 256, 4))
    (mididir / "long.mid").write_bytes(midi.write_midi(melody.Melody(notes, 16, 120.0)))
    assert run("ingest", str(mididir), str(tmp_path / "ingested.jsonl"), "--bars", "16",
               "--max-per-file", "2", "--min-notes", "2", "--allow-any-meter") == 0

    (random_cfg, *_), = calls["gen_random_corpus"]
    (musical_cfg, _), = calls["gen_musical_corpus"]
    (params, _, train_cfg, _), = calls["train"]
    (_, extraction_cfg), = calls["extract_melodies"]
    built = [  # (config, every field a flag feeds, with its value above)
        (random_cfg, dict(n_notes_min=3, n_notes_max=20, pitch_min=40, pitch_max=90,
                          duration_s_min=2, duration_s_max=5, bars=16)),
        (musical_cfg, dict(key_root=2, step_bias=0.5, rhythm_grid=(1, 2, 4), bars=16, seed=7)),
        (train_cfg, dict(epochs=1, lr=0.002, batch=16, beta_max=0.1, beta_anneal_steps=100,
                         grad_clip_norm=2.0, input_dropout=0.1, seed=3)),
        (params.config, dict(embed_dim=5, hidden_dim=6, latent_dim=3, vocab=melody.VOCAB_SIZE,
                             seq_len=256)),
        (extraction_cfg, dict(bars=16, max_melodies_per_file=2, min_notes=2,
                              require_four_four=False)),
    ]
    for cfg, expected in built:
        assert dataclasses.asdict(cfg) == expected, type(cfg).__name__
        for field in dataclasses.fields(cfg):
            if field.name not in ("vocab", "seq_len"):  # set by no flag
                assert expected[field.name] != field.default, field.name


def test_every_traced_name_exists():
    """perfbench's tracer patches each function its TRACED table names, so a
    name removed from the program breaks ``perfbench/run.py --trace 1``.  The
    table is read from the file's source, which is neither run nor cached."""
    source = (Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text()
    [traced] = [ast.literal_eval(node.value) for node in ast.parse(source).body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"]
    for module, names in traced.items():
        defined = vars(importlib.import_module(f"latent_lens.{module}"))
        for name in names:
            assert callable(defined.get(name)), f"{module}.{name}"
