"""Command-line front end: ingest, gen, train, analyze, roundtrip.

Every command reads flags (optionally seeded from a flat key=value config
file; explicit flags win), writes its outputs into a run directory without
touching its inputs, and finishes by writing a manifest that makes the run
reproducible.  Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import analysis, corpus, features, melody, midi, report, stats, svg, vae

log = logging.getLogger("latent_lens")


class CliInputError(ValueError):
    """Bad paths, flags, or input data; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors to exit code 1
        raise CliInputError(message)


def worker_count() -> int:
    n = os.cpu_count() or 1
    cap = os.environ.get("LATENT_LENS_THREADS")
    if cap:
        try:
            n = max(1, min(n, int(cap)))
        except ValueError:
            raise CliInputError(f"LATENT_LENS_THREADS must be an integer, got {cap!r}")
    return n


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise CliInputError(f"cannot read config file: {err}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliInputError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _apply_config_defaults(sub: argparse.ArgumentParser, values: dict[str, str]) -> None:
    actions = {a.dest: a for a in sub._actions}
    defaults = {}
    for key, raw in values.items():
        action = actions.get(key)
        if action is None:
            raise CliInputError(f"unknown config key {key!r}")
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            lowered = raw.lower()
            if lowered not in ("true", "false", "1", "0"):
                raise CliInputError(f"config key {key!r} must be boolean, got {raw!r}")
            defaults[key] = lowered in ("true", "1")
        elif action.type is not None:
            try:
                defaults[key] = action.type(raw)
            except ValueError:
                raise CliInputError(f"config key {key!r} has invalid value {raw!r}")
        else:
            defaults[key] = raw
        action.required = False  # satisfied by the config file
    sub.set_defaults(**defaults)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file; flags override it")


def build_parser() -> tuple[_Parser, argparse._SubParsersAction]:
    parser = _Parser(prog="latent-lens", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ingest", help="extract a melody corpus from MIDI files")
    _add_common(p)
    p.add_argument("midi_dir")
    p.add_argument("out_corpus")
    p.add_argument("--bars", type=int, default=2, choices=(2, 16))
    p.add_argument("--max-per-file", type=int, default=5)
    p.add_argument("--min-notes", type=int, default=3)
    p.add_argument("--allow-any-meter", action="store_true",
                   help="do not require a 4/4 time signature event")

    p = subs.add_parser("gen", help="generate a random or synthetic-music corpus")
    _add_common(p)
    p.add_argument("--kind", choices=("random", "musical"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--bars", type=int, default=2, choices=(2, 16))
    p.add_argument("--n-notes-min", type=int, default=2)
    p.add_argument("--n-notes-max", type=int, default=32)
    p.add_argument("--pitch-min", type=int, default=30)
    p.add_argument("--pitch-max", type=int, default=100)
    p.add_argument("--duration-s-min", type=int, default=1)
    p.add_argument("--duration-s-max", type=int, default=8)
    p.add_argument("--key-root", type=int, default=0)
    p.add_argument("--step-bias", type=float, default=0.85)
    p.add_argument("--rhythm-grid", default="1,2,2,4,4,8",
                   help="comma-separated step durations (musical corpus)")

    p = subs.add_parser("train", help="train the sequence VAE on a corpus")
    _add_common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--embed-dim", type=int, default=64)
    p.add_argument("--hidden-dim", type=int, default=128)
    p.add_argument("--latent-dim", type=int, default=32)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--beta-max", type=float, default=0.2)
    p.add_argument("--beta-anneal-steps", type=int, default=2000)
    p.add_argument("--grad-clip-norm", type=float, default=1.0)
    p.add_argument("--input-dropout", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resume", help="checkpoint to continue from")

    p = subs.add_parser("analyze", help="produce the latent-space report bundle")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--random-corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sigma-threshold", type=float, default=0.9)
    p.add_argument("--activation-threshold", type=float, default=0.1)
    p.add_argument("--phik-bins", type=int, default=10)
    p.add_argument("--lowess-frac", type=float, default=0.3)

    p = subs.add_parser("roundtrip", help="reconstruct one melody through the VAE")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--melody", required=True, help="single-line JSONL melody")
    p.add_argument("--out-dir", required=True)
    p.add_argument("-k", type=int, default=3, help="number of sampled variations")
    p.add_argument("--seed", type=int, default=0)

    return parser, subs


def _load_corpus_file(path: str) -> list[tuple[melody.TokenSequence, float]]:
    try:
        entries = melody.load_corpus(path)
    except OSError as err:
        raise CliInputError(f"cannot read corpus: {err}")
    except (melody.InvalidTokenSequence, ValueError, KeyError) as err:
        raise CliInputError(f"malformed corpus {path}: {err}")
    if not entries:
        raise CliInputError(f"corpus {path} is empty")
    return entries


def cmd_ingest(args) -> int:
    watch = report.Stopwatch()
    root = Path(args.midi_dir)
    if not root.is_dir():
        raise CliInputError(f"{args.midi_dir} is not a directory")
    paths = sorted(
        p for p in root.rglob("*") if p.suffix.lower() in (".mid", ".midi")
    )
    if not paths:
        raise CliInputError(f"no .mid/.midi files under {args.midi_dir}")
    cfg = midi.ExtractionConfig(
        bars=args.bars,
        max_melodies_per_file=args.max_per_file,
        min_notes=args.min_notes,
        require_four_four=not args.allow_any_meter,
    )

    def parse_one(path: Path):
        try:
            return midi.parse_midi(path.read_bytes())
        except (OSError, midi.MidiParseError) as err:
            return err

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        parsed = list(pool.map(parse_one, paths))
    watch.lap("parse")

    entries = []
    n_ok = 0
    for path, result in zip(paths, parsed):
        if isinstance(result, Exception):
            log.warning("skipping %s: %s", path, result)
            continue
        try:
            melodies = midi.extract_melodies(result, cfg)
        except melody.InvalidMelody as err:
            log.warning("skipping %s: %s", path, err)
            continue
        log.info("%s: %d melodies", path, len(melodies))
        entries.extend(melody.melodies_to_entries(melodies))
        n_ok += 1
    watch.lap("extract")
    if not entries:
        raise CliInputError(
            f"no melodies extracted from {n_ok}/{len(paths)} parseable files"
        )
    melody.save_corpus(args.out_corpus, entries)
    watch.lap("write")

    manifest = report.RunManifest("ingest", vars(args))
    for path in paths:
        manifest.add_input(path)
    manifest.add_output(args.out_corpus)
    manifest.timings_s = watch.laps
    manifest.write(str(args.out_corpus) + ".manifest.json")
    log.info("wrote %d melodies to %s", len(entries), args.out_corpus)
    return 0


def cmd_gen(args) -> int:
    watch = report.Stopwatch()
    if args.n < 1:
        raise CliInputError("--n must be >= 1")
    try:
        if args.kind == "random":
            cfg = corpus.RandomSeqConfig(
                n_notes_min=args.n_notes_min,
                n_notes_max=args.n_notes_max,
                pitch_min=args.pitch_min,
                pitch_max=args.pitch_max,
                duration_s_min=args.duration_s_min,
                duration_s_max=args.duration_s_max,
                bars=args.bars,
            )
            melodies = corpus.gen_random_corpus(cfg, args.n, args.seed)
        else:
            grid = tuple(int(v) for v in str(args.rhythm_grid).split(",") if v)
            cfg = corpus.SyntheticConfig(
                key_root=args.key_root,
                step_bias=args.step_bias,
                rhythm_grid=grid,
                bars=args.bars,
                seed=args.seed,
            )
            melodies = corpus.gen_musical_corpus(cfg, args.n)
    except ValueError as err:
        raise CliInputError(str(err))
    watch.lap("generate")
    melody.save_corpus(args.out, melody.melodies_to_entries(melodies))
    watch.lap("write")
    manifest = report.RunManifest("gen", vars(args))
    manifest.add_output(args.out)
    manifest.timings_s = watch.laps
    manifest.write(str(args.out) + ".manifest.json")
    log.info("wrote %d %s melodies to %s", args.n, args.kind, args.out)
    return 0


def _history_offset_csv(prior_rows: list[str], history, offset: int) -> str:
    lines = ["epoch,loss,recon_ce,kl"] + prior_rows
    for row in history:
        lines.append(
            f"{row.epoch + offset},{row.loss:.10g},{row.recon_ce:.10g},{row.kl:.10g}"
        )
    return "\n".join(lines) + "\n"


def cmd_train(args) -> int:
    watch = report.Stopwatch()
    entries = _load_corpus_file(args.corpus)
    bars = entries[0][0].bars
    seqs = [seq for seq, _ in entries if seq.bars == bars]
    if len(seqs) < len(entries):
        log.warning("dropped %d sequences with mismatched bars", len(entries) - len(seqs))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    prior_rows: list[str] = []
    offset = 0
    if args.resume:
        try:
            params = vae.load_checkpoint(args.resume)
        except vae.CheckpointError as err:
            raise CliInputError(str(err))
        history_path = out_dir / "history.csv"
        if history_path.exists():
            prior_rows = history_path.read_text().strip().splitlines()[1:]
            if prior_rows:
                offset = int(prior_rows[-1].split(",")[0]) + 1
    else:
        mcfg = vae.ModelConfig(
            embed_dim=args.embed_dim,
            hidden_dim=args.hidden_dim,
            latent_dim=args.latent_dim,
            seq_len=16 * bars,
        )
        params = vae.init_params(mcfg, args.seed)
    if params.config.seq_len != 16 * bars:
        raise CliInputError(
            f"checkpoint expects {params.config.bars}-bar input, corpus has {bars}"
        )

    tcfg = vae.TrainConfig(
        epochs=args.epochs,
        lr=args.lr,
        batch=args.batch,
        beta_max=args.beta_max,
        beta_anneal_steps=args.beta_anneal_steps,
        grad_clip_norm=args.grad_clip_norm,
        seed=args.seed,
        input_dropout=args.input_dropout,
    )
    ckpt_path = out_dir / "checkpoint.npz"
    try:
        params, history = vae.train(params, seqs, tcfg)
    except vae.TrainingDiverged as err:
        vae.save_checkpoint(err.params, ckpt_path)
        report.write_text_atomic(
            out_dir / "history.csv", _history_offset_csv(prior_rows, err.history, offset)
        )
        log.error("training diverged: %s (last good checkpoint kept)", err)
        return 2
    watch.lap("train")

    vae.save_checkpoint(params, ckpt_path)
    report.write_text_atomic(
        out_dir / "history.csv", _history_offset_csv(prior_rows, history, offset)
    )
    watch.lap("write")
    manifest = report.RunManifest("train", vars(args))
    manifest.add_input(args.corpus)
    manifest.add_output(str(ckpt_path))
    manifest.add_output(str(out_dir / "history.csv"))
    manifest.timings_s = watch.laps
    manifest.write(out_dir / "manifest.json")
    log.info("final loss %.4f (recon %.4f, kl %.4f)", history[-1].loss,
             history[-1].recon_ce, history[-1].kl)
    return 0


def _load_checkpoint(path: str) -> vae.Params:
    try:
        return vae.load_checkpoint(path)
    except vae.CheckpointError as err:
        raise CliInputError(str(err))


def cmd_analyze(args) -> int:
    watch = report.Stopwatch()
    params = _load_checkpoint(args.checkpoint)
    entries = _load_corpus_file(args.corpus)
    seq_len = params.config.seq_len
    kept = [(seq, tempo) for seq, tempo in entries if len(seq) == seq_len]
    if not kept:
        raise CliInputError("no corpus sequence matches the checkpoint length")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = report.RunManifest("analyze", vars(args))
    manifest.add_input(args.checkpoint)
    manifest.add_input(args.corpus)

    def emit(name: str, text: str) -> None:
        report.write_text_atomic(out_dir / name, text)
        manifest.add_output(str(out_dir / name))

    lm = analysis.encode_corpus(params, [seq for seq, _ in kept])
    try:
        partition = analysis.partition_neurons(lm, args.sigma_threshold)
    except ValueError as err:
        raise CliInputError(f"corpus {args.corpus} has {lm.n} usable melodies: {err}")
    watch.lap("encode")

    order = partition.order
    dim_labels = [f"dim{d}" for d in order]
    sigma_stats, mu_stats = analysis.central_value_stats(lm, partition)
    rows = [
        (label, s.q1, s.median, s.q3, s.lower_whisker, s.upper_whisker, s.outlier_count)
        for label, s in zip(dim_labels, sigma_stats)
    ]
    header = ["dim", "q1", "median", "q3", "lower_whisker", "upper_whisker", "outliers"]
    emit("sigma_boxplot.csv", report.csv_text(header, rows))
    emit("sigma_boxplot.svg", svg.render_boxplots(
        sigma_stats, "Posterior sigma by latent dim (ascending median)", "sigma"))
    rows = [
        (label, s.q1, s.median, s.q3, s.lower_whisker, s.upper_whisker, s.outlier_count)
        for label, s in zip(dim_labels, mu_stats)
    ]
    emit("mu_boxplot.csv", report.csv_text(header, rows))
    emit("mu_boxplot.svg", svg.render_boxplots(
        mu_stats, "Posterior mu by latent dim (sigma order)", "mu"))

    pearson_m = analysis.mu_pearson_matrix(lm)
    d_prime = pearson_m.shape[0]
    labels = dim_labels[:d_prime]
    report.write_matrix_csv(out_dir / "pearson_matrix.csv", pearson_m, labels, labels)
    manifest.add_output(str(out_dir / "pearson_matrix.csv"))
    emit("pearson_matrix.svg", svg.render_heatmap(
        pearson_m, labels, labels, "Pearson correlation of mu", vmin=-1, vmax=1))
    watch.lap("pearson")

    melodies = [melody.detokenize(seq, tempo) for seq, tempo in kept]
    fmatrix, fnames = features.extract_corpus_features(melodies)
    phik_cfg = stats.PhikConfig(n_bins=args.phik_bins)
    phik_m = analysis.neuron_feature_phik(lm, fmatrix, phik_cfg)
    report.write_matrix_csv(
        out_dir / "feature_phik.csv", phik_m, list(fnames), labels
    )
    manifest.add_output(str(out_dir / "feature_phik.csv"))
    emit("feature_phik.svg", svg.render_heatmap(
        phik_m, list(fnames), labels, "phik: features vs latent dims", vmin=0, vmax=1))
    watch.lap("phik")

    # one scatter per feature family: the strongest (neuron, feature) pair
    with np.errstate(invalid="ignore"):
        for prefix in ("R", "P"):
            block = [i for i, nm in enumerate(fnames) if nm.startswith(prefix)]
            sub = phik_m[block]
            if not np.isfinite(sub).any():
                continue
            flat = np.nanargmax(sub)
            bi, neuron = np.unravel_index(flat, sub.shape)
            feature = fnames[block[bi]]
            x, y, fit = analysis.neuron_feature_scatter(
                lm, fmatrix, fnames, int(neuron), feature, args.lowess_frac
            )
            stem = f"scatter_n{neuron}_{feature}"
            emit(stem + ".csv", report.csv_text(
                [feature, f"mu_ordered_{neuron}", "lowess"],
                zip(x, y, fit),
            ))
            emit(stem + ".svg", svg.render_scatter(
                x, y, x, fit,
                f"Ordered dim {neuron} vs {feature}", feature, "mu"))
    watch.lap("scatter")

    act = analysis.activation_counts(lm, partition, args.activation_threshold)
    series = [("music", act.music_counts), ("noise", act.noise_counts)]
    if args.random_corpus:
        manifest.add_input(args.random_corpus)
        rand_entries = _load_corpus_file(args.random_corpus)
        rand_seqs = [seq for seq, _ in rand_entries if len(seq) == seq_len]
        if not rand_seqs:
            raise CliInputError("no random-corpus sequence matches the checkpoint")
        comp = analysis.compare_real_vs_random(
            params, lm, rand_seqs, partition, args.activation_threshold
        )
        series = [
            ("music_corpus", comp.real_activation.music_counts),
            ("music_random", comp.random_activation.music_counts),
            ("noise_corpus", comp.real_activation.noise_counts),
            ("noise_random", comp.random_activation.noise_counts),
        ]
    max_count = max(1, max(int(np.max(c)) for _, c in series))
    edges = np.arange(max_count + 2) - 0.5
    hists = [(name, edges, np.histogram(c, bins=edges)[0]) for name, c in series]
    emit("activation_hist.csv", report.csv_text(
        ["count", *(name for name, _ in series)],
        [
            (k, *(int(h[2][k]) for h in hists))
            for k in range(max_count + 1)
        ],
    ))
    emit("activation_hist.svg", svg.render_histogram(
        hists, f"|mu| > {act.threshold:g} activation counts", "active dims"))
    watch.lap("activation")

    partition_payload = {
        "sigma_threshold": partition.sigma_threshold,
        "activation_threshold": args.activation_threshold,
        "order": list(order),
        "music": list(partition.music),
        "noise": list(partition.noise),
        "n_melodies": lm.n,
        "phik_bins": args.phik_bins,
        "checkpoint_sha256": report.sha256_file(args.checkpoint),
        "corpus_sha256": report.sha256_file(args.corpus),
    }
    emit("partition.json", json.dumps(partition_payload, indent=2) + "\n")
    manifest.timings_s = watch.laps
    manifest.write(out_dir / "manifest.json")
    log.info("%d music / %d noise dims", len(partition.music), len(partition.noise))
    return 0


def cmd_roundtrip(args) -> int:
    params = _load_checkpoint(args.checkpoint)
    entries = _load_corpus_file(args.melody)
    if len(entries) != 1:
        raise CliInputError(f"expected exactly one melody, got {len(entries)}")
    seq, tempo = entries[0]
    if len(seq) != params.config.seq_len:
        raise CliInputError("melody length does not match the checkpoint")
    if args.k < 0:
        raise CliInputError("-k must be >= 0")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = report.RunManifest("roundtrip", vars(args))
    manifest.add_input(args.checkpoint)
    manifest.add_input(args.melody)

    rng = np.random.default_rng(args.seed)
    enc = vae.encode(params, seq)
    outputs = [("greedy", vae.decode(params, enc.mu))]
    for i in range(args.k):
        z = vae.sample_latent(enc, rng)
        outputs.append((f"sample_{i + 1:02d}", vae.decode(params, z)))

    lines = []
    for name, out_seq in outputs:
        lines.append(melody.to_json_line(out_seq, tempo))
        mid_path = out_dir / f"{name}.mid"
        mid_path.write_bytes(midi.write_midi(melody.detokenize(out_seq, tempo)))
        manifest.add_output(str(mid_path))
    report.write_text_atomic(out_dir / "roundtrip.jsonl", "\n".join(lines) + "\n")
    manifest.add_output(str(out_dir / "roundtrip.jsonl"))
    manifest.write(out_dir / "manifest.json")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "gen": cmd_gen,
    "train": cmd_train,
    "analyze": cmd_analyze,
    "roundtrip": cmd_roundtrip,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subs = build_parser()
    try:
        if "--config" in argv:
            idx = argv.index("--config")
            if idx + 1 >= len(argv):
                raise CliInputError("--config requires a path")
            sub_name = argv[0] if argv and not argv[0].startswith("-") else None
            sub = subs.choices.get(sub_name or "")
            if sub is None:
                raise CliInputError("--config requires a subcommand")
            _apply_config_defaults(sub, _load_config_file(argv[idx + 1]))
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliInputError as err:
        log.error("%s", err)
        return 1
    except (vae.NumericalError, vae.ShapeError, stats.DegenerateBinningError) as err:
        log.error("numerical failure: %s", err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
