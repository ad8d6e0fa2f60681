import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from latent_lens import cli, melody, midi, vae
from latent_lens.corpus import RandomSeqConfig, SyntheticConfig, gen_musical_corpus
from latent_lens.melody import load_corpus

from test_midi import scale_file


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
    params = vae.load_checkpoint(train_dir / "checkpoint.npz")
    assert params.config.latent_dim == 8


def test_train_seeded_rerun_identical(tiny_run, tmp_path):
    root, corpus_path, _, train_dir, _ = tiny_run
    redo = tmp_path / "redo"
    assert run("train", "--corpus", str(corpus_path), "--out-dir", str(redo),
               "--epochs", "2", "--embed-dim", "12", "--hidden-dim", "16",
               "--latent-dim", "8", "--batch", "32", "--seed", "0") == 0
    assert (redo / "history.csv").read_text() == (train_dir / "history.csv").read_text()


def test_train_resume_continues_epochs(tiny_run, tmp_path):
    _, corpus_path, _, train_dir, _ = tiny_run
    resume_dir = tmp_path / "resumed"
    resume_dir.mkdir()
    (resume_dir / "history.csv").write_text(
        (train_dir / "history.csv").read_text()
    )
    assert run("train", "--corpus", str(corpus_path), "--out-dir", str(resume_dir),
               "--resume", str(train_dir / "checkpoint.npz"),
               "--epochs", "1", "--batch", "32", "--seed", "1") == 0
    rows = (resume_dir / "history.csv").read_text().strip().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["0", "1", "2"]


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
    _, _, _, _, out_dir = tiny_run
    payload = json.loads((out_dir / "partition.json").read_text())
    assert sorted(payload["music"] + payload["noise"]) == list(range(8))
    assert payload["sigma_threshold"] == 0.9
    assert len(payload["checkpoint_sha256"]) == 64


def test_analyze_requires_compatible_checkpoint(tiny_run, tmp_path):
    _, corpus_path, _, train_dir, _ = tiny_run
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"garbage")
    assert run("analyze", "--checkpoint", str(bad), "--corpus", str(corpus_path),
               "--out-dir", str(tmp_path / "r")) == 1


def test_analyze_too_small_corpus_is_input_error(tiny_run, tmp_path):
    _, corpus_path, _, train_dir, _ = tiny_run
    small = tmp_path / "small.jsonl"
    small.write_text("".join(corpus_path.read_text().splitlines(keepends=True)[:5]))
    assert run("analyze", "--checkpoint", str(train_dir / "checkpoint.npz"),
               "--corpus", str(small), "--out-dir", str(tmp_path / "r")) == 1


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


def test_unknown_command_is_input_error():
    assert run("frobnicate") == 1


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("LATENT_LENS_THREADS", "1")
    assert cli.worker_count() == 1
    monkeypatch.setenv("LATENT_LENS_THREADS", "not-a-number")
    with pytest.raises(cli.CliInputError):
        cli.worker_count()
