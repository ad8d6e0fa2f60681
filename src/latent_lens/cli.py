"""Command-line front end: ingest, gen, train, analyze, roundtrip.

Every command reads flags (optionally seeded from a flat key=value config
file; explicit flags win), writes its outputs into a run directory without
touching its inputs, and finishes by writing a manifest that makes the run
reproducible.  Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, corpus, features, melody, midi, report, stats, svg, vae

log = logging.getLogger("latent_lens")


class CliInputError(ValueError):
    """Bad paths, flags, or input data; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors to exit code 1
        raise CliInputError(message)


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
        else:  # the checks a flag's value gets: its type, then its choices
            try:
                defaults[key] = (action.type or str)(raw)
            except ValueError:
                raise CliInputError(f"config key {key!r} has invalid value {raw!r}")
            if action.choices is not None and defaults[key] not in action.choices:
                raise CliInputError(f"config key {key!r} must be one of {action.choices}")
        action.required = False  # satisfied by the config file
    sub.set_defaults(**defaults)


def _ingest_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("midi_dir")
    p.add_argument("out_corpus")
    extraction = midi.ExtractionConfig
    p.add_argument("--bars", type=int, default=extraction.bars,
                   choices=melody.SUPPORTED_BARS)
    p.add_argument("--max-per-file", type=int, default=extraction.max_melodies_per_file)
    p.add_argument("--min-notes", type=int, default=extraction.min_notes)
    p.add_argument("--allow-any-meter", action="store_true",
                   help="do not require a 4/4 time signature event")


def integer_list(text: str) -> tuple[int, ...]:  # named for argparse's messages
    return tuple(int(v) for v in text.split(",") if v)


def _gen_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=("random", "musical"), required=True)
    p.add_argument("--n", type=int, required=True)
    randoms, musical = corpus.RandomSeqConfig, corpus.SyntheticConfig
    p.add_argument("--seed", type=int, default=musical.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--bars", type=int, default=randoms.bars,
                   choices=melody.SUPPORTED_BARS)
    p.add_argument("--n-notes-min", type=int, default=randoms.n_notes_min)
    p.add_argument("--n-notes-max", type=int, default=randoms.n_notes_max)
    p.add_argument("--pitch-min", type=int, default=randoms.pitch_min)
    p.add_argument("--pitch-max", type=int, default=randoms.pitch_max)
    p.add_argument("--duration-s-min", type=int, default=randoms.duration_s_min)
    p.add_argument("--duration-s-max", type=int, default=randoms.duration_s_max)
    p.add_argument("--key-root", type=int, default=musical.key_root)
    p.add_argument("--step-bias", type=float, default=musical.step_bias)
    p.add_argument("--rhythm-grid", type=integer_list, default=musical.rhythm_grid,
                   help="comma-separated step durations (musical corpus)")


# The model and training settings a train flag sets.  One not given is absent
# from the parsed flags: cmd_train takes the checkpoint's or else the default.
_RUN_SETTINGS = [f for cls in (vae.ModelConfig, vae.TrainConfig) for f in dataclasses.fields(cls)
                 if f.name not in ("vocab", "seq_len", "epochs")]


def _train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--epochs", type=int, default=30)
    for f in _RUN_SETTINGS:
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default),
                       default=argparse.SUPPRESS)
    p.add_argument("--resume", help="checkpoint to continue from")


def _analyze_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--random-corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sigma-threshold", type=float,
                   default=analysis.DEFAULT_SIGMA_THRESHOLD)
    p.add_argument("--activation-threshold", type=float,
                   default=analysis.DEFAULT_ACTIVATION_THRESHOLD)
    p.add_argument("--phik-bins", type=int, default=stats.PHIK_BINS)
    p.add_argument("--lowess-frac", type=float, default=0.3)


def _roundtrip_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--melody", required=True, help="single-line JSONL melody")
    p.add_argument("--out-dir", required=True)
    p.add_argument("-k", type=int, default=3, help="number of sampled variations")
    p.add_argument("--seed", type=int, default=0)


# each subcommand's help line and the function that adds its arguments
_SUBCOMMANDS = {
    "ingest": ("extract a melody corpus from MIDI files", _ingest_args),
    "gen": ("generate a random or synthetic-music corpus", _gen_args),
    "train": ("train the sequence VAE on a corpus", _train_args),
    "analyze": ("produce the latent-space report bundle", _analyze_args),
    "roundtrip": ("reconstruct one melody through the VAE", _roundtrip_args),
}


def build_parser(command: str | None = None) -> tuple[_Parser, argparse._SubParsersAction]:
    """The command-line parser.  Every subcommand is registered, so the
    top-level usage and help list them all; given ``command``, only that
    subcommand gets its arguments, which is all one call parses."""
    parser = _Parser(prog="latent-lens", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if command is None or command == name:
            sub.add_argument("--config",
                             help="flat key=value config file; flags override it")
            add_arguments(sub)
    return parser, subs


def _config(cls, args: argparse.Namespace, **given):
    """A ``cls`` config from the parsed flags whose dests are its field names,
    and the ``given`` values; a value the config rejects is an input error."""
    flags = vars(args).keys() & {f.name for f in dataclasses.fields(cls)} - given.keys()
    try:
        return cls(**{name: getattr(args, name) for name in flags}, **given)
    except ValueError as err:
        raise CliInputError(str(err))


def _load_corpus_file(path: str, manifest: report.RunManifest
                      ) -> list[tuple[melody.TokenSequence, float]]:
    """Parse a corpus from one read of its file, and record the SHA-256 of
    the bytes parsed as an input of ``manifest``."""
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise CliInputError(f"cannot read corpus: {err}")
    manifest.add_input(path, data)
    try:
        entries = melody.load_corpus(data)
    except ValueError as err:
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
    cfg = _config(midi.ExtractionConfig, args, max_melodies_per_file=args.max_per_file,
                  require_four_four=not args.allow_any_meter)

    # each file is read once: the bytes parsed are the bytes hashed
    manifest = report.RunManifest("ingest", vars(args))
    manifest.dropped = dropped = {"unreadable": 0, "unparseable": 0, "invalid_melody": 0}
    parsed = []
    for path in paths:
        try:
            data = path.read_bytes()
        except OSError as err:
            log.warning("skipping %s: %s", path, err)
            dropped["unreadable"] += 1
            continue
        manifest.add_input(path, data)
        try:
            parsed.append((path, midi.parse_midi(data)))
        except midi.MidiParseError as err:
            log.warning("skipping %s: %s", path, err)
            dropped["unparseable"] += 1
    watch.lap("parse")

    entries = []
    for path, result in parsed:
        try:
            melodies = midi.extract_melodies(result, cfg)
        except melody.InvalidMelody as err:
            log.warning("skipping %s: %s", path, err)
            dropped["invalid_melody"] += 1
            continue
        log.info("%s: %d melodies", path, len(melodies))
        entries.extend(melody.melodies_to_entries(melodies))
    watch.lap("extract")
    if not entries:
        n_ok = len(parsed) - dropped["invalid_melody"]
        raise CliInputError(
            f"no melodies extracted from {n_ok}/{len(paths)} parseable files"
        )
    melody.save_corpus(args.out_corpus, entries)
    watch.lap("write")

    manifest.add_output(args.out_corpus)
    manifest.timings_s = watch.laps
    manifest.write(str(args.out_corpus) + ".manifest.json")
    log.info("wrote %d melodies to %s", len(entries), args.out_corpus)
    return 0


def cmd_gen(args) -> int:
    watch = report.Stopwatch()
    if args.n < 1:
        raise CliInputError("--n must be >= 1")
    kinds = {"random": corpus.RandomSeqConfig, "musical": corpus.SyntheticConfig}
    used = {f.name for f in dataclasses.fields(kinds[args.kind])} | {"seed"}  # seeds both
    for f in [f for cls in kinds.values() for f in dataclasses.fields(cls) if f.name not in used]:
        if getattr(args, f.name) != f.default:
            raise CliInputError(f"--{f.name.replace('_', '-')} does not apply to --kind {args.kind}")
    try:
        cfg = _config(kinds[args.kind], args)
        if args.kind == "random":
            melodies = corpus.gen_random_corpus(cfg, args.n, args.seed)
        else:
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


def cmd_train(args) -> int:
    watch = report.Stopwatch()
    manifest = report.RunManifest("train", vars(args))  # so it records the settings filled in
    manifest.environment = {name: os.environ.get(name)
                            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    params, state = (_load_checkpoint(args.resume, manifest, with_state=True)
                     if args.resume else (None, None))
    settings = {f.name: getattr(args, f.name) for f in _RUN_SETTINGS if hasattr(args, f.name)}
    if args.resume:
        try:
            settings = vae.resume_settings(
                {**dataclasses.asdict(params.config), **(state.settings or {})}, settings)
        except ValueError as err:
            raise CliInputError(str(err))
    vars(args).update({f.name: settings.get(f.name, f.default) for f in _RUN_SETTINGS})
    entries = _load_corpus_file(args.corpus, manifest)
    seq_len = len(entries[0][0]) if params is None else params.config.seq_len
    kept, skipped = _keep_model_length(entries, seq_len, args.corpus)
    manifest.dropped = {"skipped_sequences": {"corpus": skipped}}
    tcfg = _config(vae.TrainConfig, args)
    if params is None:
        params = vae.init_params(_config(vae.ModelConfig, args, seq_len=seq_len), args.seed)
        state = vae.TrainState.fresh(params)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    history_path = out_dir / "history.csv"
    ckpt_path = out_dir / "checkpoint.npz"
    try:
        params, _ = vae.train(params, [seq for seq, _ in kept], tcfg, state)
    except vae.TrainingDiverged as err:
        params, state = err.params, err.state
        manifest.error = f"training diverged: {err}"
    watch.lap("train")

    vae.save_checkpoint(params, ckpt_path, state)
    history_text = "epoch,loss,recon_ce,kl\n" + "".join(
        f"{row.epoch},{row.loss:.10g},{row.recon_ce:.10g},{row.kl:.10g}\n" for row in state.history)
    report.write_text_atomic(history_path, history_text)
    watch.lap("write")
    manifest.add_output(str(ckpt_path))
    manifest.add_output(str(history_path))
    manifest.timings_s = watch.laps
    manifest.write(out_dir / "manifest.json")
    if manifest.error:
        log.error("%s (last good checkpoint kept)", manifest.error)
        return 2
    log.info("final loss %(loss).4f (recon %(recon_ce).4f, kl %(kl).4f)", vars(state.history[-1]))
    return 0


def _load_checkpoint(path: str, manifest: report.RunManifest, with_state: bool = False):
    """``vae.load_checkpoint`` from one read of the file, recording the
    SHA-256 of the bytes loaded as an input of ``manifest``."""
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise CliInputError(f"unreadable checkpoint: {err}")
    manifest.add_input(path, data)
    try:
        return vae.load_checkpoint(io.BytesIO(data), with_state)
    except vae.CheckpointError as err:
        raise CliInputError(str(err))


def _keep_model_length(entries, seq_len: int, path: str):
    """The entries of the corpus at ``path`` whose sequences have the model's
    length, and the number of entries dropped for another length."""
    kept = [(seq, tempo) for seq, tempo in entries if len(seq) == seq_len]
    if not kept:
        raise CliInputError(f"no sequence in {path} matches the checkpoint length")
    if len(kept) < len(entries):
        log.warning("%s: skipped %d sequences whose length is not %d",
                    path, len(entries) - len(kept), seq_len)
    return kept, len(entries) - len(kept)


def cmd_analyze(args) -> int:
    watch = report.Stopwatch()
    manifest = report.RunManifest("analyze", vars(args))
    if args.phik_bins < 2:
        raise CliInputError("--phik-bins must be >= 2")
    if not 0.0 < args.lowess_frac <= 1.0:
        raise CliInputError("--lowess-frac must lie in (0, 1]")
    if not np.all(np.isfinite([args.sigma_threshold, args.activation_threshold])):
        raise CliInputError("--sigma-threshold and --activation-threshold must be finite")
    params = _load_checkpoint(args.checkpoint, manifest)
    seq_len = params.config.seq_len
    skipped = {}
    kept, skipped["corpus"] = _keep_model_length(
        _load_corpus_file(args.corpus, manifest), seq_len, args.corpus)
    rand_kept = None
    if args.random_corpus:
        rand_kept, skipped["random_corpus"] = _keep_model_length(
            _load_corpus_file(args.random_corpus, manifest), seq_len, args.random_corpus)
    watch.lap("load")
    try:
        rep = analysis.build_report(
            params, kept, rand_kept, sigma_threshold=args.sigma_threshold,
            activation_threshold=args.activation_threshold, phik_bins=args.phik_bins,
            lowess_frac=args.lowess_frac)
    except analysis.TooFewMelodies as err:
        raise CliInputError(f"corpus {args.corpus} has {len(kept)} usable melodies: {err}")

    write_watch = report.Stopwatch()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def emit(name: str, text: str) -> None:
        report.write_text_atomic(out_dir / name, text)
        manifest.add_output(str(out_dir / name))

    partition = rep.partition
    dim_labels = [f"dim{d}" for d in partition.order]
    header = ["dim", "q1", "median", "q3", "lower_whisker", "upper_whisker", "outliers"]
    for name, title in (
        ("sigma", "Posterior sigma by latent dim (ascending median)"),
        ("mu", "Posterior mu by latent dim (sigma order)"),
    ):
        summaries = rep.boxplots[name]
        rows = [
            (label, s.q1, s.median, s.q3, s.lower_whisker, s.upper_whisker, s.outlier_count)
            for label, s in zip(dim_labels, summaries)
        ]
        emit(f"{name}_boxplot.csv", report.csv_text(header, rows))
        emit(f"{name}_boxplot.svg", svg.render_boxplots(summaries, title, name))

    labels = dim_labels[: rep.pearson.shape[0]]
    emit("pearson_matrix.csv", report.matrix_csv_text(rep.pearson, labels, labels))
    emit("pearson_matrix.svg", svg.render_heatmap(
        rep.pearson, labels, labels, "Pearson correlation of mu", vmin=-1, vmax=1))
    fnames = list(features.FEATURE_NAMES)
    emit("feature_phik.csv", report.matrix_csv_text(rep.phik, fnames, labels))
    emit("feature_phik.svg", svg.render_heatmap(
        rep.phik, fnames, labels, "phik: features vs latent dims", vmin=0, vmax=1))

    for neuron, feature, x, y, fit in rep.scatters:
        stem = f"scatter_n{neuron}_{feature}"
        emit(stem + ".csv", report.csv_text(
            [feature, f"mu_ordered_{neuron}", "lowess"], zip(x, y, fit)))
        emit(stem + ".svg", svg.render_scatter(
            x, y, x, fit, f"Ordered dim {neuron} vs {feature}", feature, "mu"))

    counts = zip(*(hist.tolist() for _, _, hist in rep.activation))
    emit("activation_hist.csv", report.csv_text(
        ["count", *(name for name, _, _ in rep.activation)],
        [(k, *row) for k, row in enumerate(counts)]))
    emit("activation_hist.svg", svg.render_histogram(
        rep.activation, f"|mu| > {args.activation_threshold:g} activation counts",
        "active dims"))

    partition_payload = {
        "sigma_threshold": partition.sigma_threshold,
        "activation_threshold": args.activation_threshold,
        "order": list(partition.order),
        "music": list(partition.music),
        "noise": list(partition.noise),
        "n_melodies": len(kept),
        "phik_bins": args.phik_bins,
        "checkpoint_sha256": manifest.input_hashes[str(args.checkpoint)],
        "corpus_sha256": manifest.input_hashes[str(args.corpus)],
    }
    emit("partition.json", json.dumps(partition_payload, indent=2) + "\n")
    write_watch.lap("write")
    manifest.dropped = {"skipped_sequences": skipped, **rep.dropped}
    manifest.timings_s = {**watch.laps, **rep.timings_s, **write_watch.laps}
    manifest.write(out_dir / "manifest.json")
    log.info("%d music / %d noise dims", len(partition.music), len(partition.noise))
    return 0


def cmd_roundtrip(args) -> int:
    manifest = report.RunManifest("roundtrip", vars(args))
    params = _load_checkpoint(args.checkpoint, manifest)
    entries = _load_corpus_file(args.melody, manifest)
    if len(entries) != 1:
        raise CliInputError(f"expected exactly one melody, got {len(entries)}")
    [(seq, tempo)], _ = _keep_model_length(entries, params.config.seq_len, args.melody)
    if args.k < 0:
        raise CliInputError("-k must be >= 0")

    mu, sigma = vae.encode(params, seq)
    draws = mu + sigma * np.random.default_rng(args.seed).standard_normal((args.k, mu.size))
    names = ["greedy"] + [f"sample_{i + 1:02d}" for i in range(args.k)]
    decoded = vae.decode(params, np.vstack((mu, draws)))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    lines = []
    for name, out_seq in zip(names, decoded):
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
    sub_name = argv[0] if argv and not argv[0].startswith("-") else None
    parser, subs = build_parser(sub_name)
    try:
        if "--config" in argv:
            idx = argv.index("--config")
            if idx + 1 >= len(argv):
                raise CliInputError("--config requires a path")
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
