"""The three workloads, the timed loop and the metrics.

Import this module only after the thread environment is set (``run.py``
does so): it imports numpy and ``latent_lens``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import reference as ref
from tracing import Tracer
from latent_lens import cli, corpus, melody, vae

CORPUS_SEED = 7  # the 2,000-melody synthetic 2-bar corpus
RANDOM_SEED = 9  # the random note sequences analyze compares against
TRAIN_SEED = 0
MIDI_SEED = 16  # 16-bar melodies written to the clean and mutated shards
MUTATION_SEED = 3
TICKS_PER_QUARTER = (96, 120, 480, 960)  # cycled over the MIDI files
MUTATED_BYTES = 3
PROBE_BATCH = 32
PROBE_CALLS = 5

END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "vae.train.step_ms": "ms",
    "vae.train.steps": "count",
    "vae.elbo_loss.b32_ms": "ms",
    "vae.elbo_loss_and_grads.b32_ms": "ms",
    "vae.encode_batch.s": "s",
    "vae.encode_batch.rows": "count",
    "analysis.encode_corpus.calls": "count",
    "analysis.encode_corpus.s": "s",
    "stats.phik.calls": "count",
    "stats.phik.ms": "ms",
    "stats.bvn_cell_probs.calls": "count",
    "stats.bvn_cell_probs.s": "s",
    "stats.contingency.s": "s",
    "analysis.neuron_feature_phik.s": "s",
    "stats.lowess.s": "s",
    "analysis.neuron_feature_scatter.s": "s",
    "analysis.compare_real_vs_random.s": "s",
    "features.extract_corpus_features.s": "s",
    "features.extract_features.calls": "count",
    "svg.render.s": "s",
    "vae.encode.ms": "ms",
    "vae.decode.ms": "ms",
    "vae.decode.calls": "count",
    "vae.load_checkpoint.ms": "ms",
    "midi.write_midi.s": "s",
    "midi.parse_midi.s": "s",
    "midi.parse_midi.calls": "count",
    "midi.parse_midi.rejected": "count",
    "midi.extract_melodies.s": "s",
    "melody.save_corpus.s": "s",
    "report.sha256_file.s": "s",
    "melody.load_corpus.s": "s",
    "cli.train.s": "s",
    "cli.analyze.s": "s",
    "cli.ingest.s": "s",
    "cli.roundtrip.s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is what the benchmark measures, TINY is for tests."""

    n_corpus: int = 2000
    n_random: int = 2000
    model: tuple[int, int, int] = (64, 128, 32)  # embed, hidden, latent
    train_epochs: int = 2
    train_batch: int = 32
    analyze_latent: int = 4
    clean_shards: int = 4
    clean_files: int = 100
    mutated_shards: int = 4
    mutated_files: int = 6
    roundtrip_melodies: int = 50
    roundtrip_k: int = 3
    roundtrip_train_n: int = 256


FULL = Scale()
TINY = Scale(n_corpus=64, n_random=64, model=(8, 16, 4), train_epochs=3, train_batch=8,
             analyze_latent=2, clean_shards=1, clean_files=4, mutated_shards=1,
             mutated_files=4, roundtrip_melodies=2, roundtrip_k=2, roundtrip_train_n=16)


@dataclass
class Op:
    kind: str
    wall_s: float
    items: int
    error: str = ""


def cli_op(kind: str, argv: list[str], items: int) -> Op:
    """One command through ``latent_lens.cli.main``, timed."""
    t0 = time.perf_counter()
    error = ""
    try:
        code = cli.main(argv)
        if code != 0:
            error = f"exit code {code}"
    except Exception as err:  # a failing command is counted, not fatal
        error = type(err).__name__
    return Op(kind, time.perf_counter() - t0, items, error)


def rate(ops: list[Op], kind: str) -> float:
    done = [op for op in ops if op.kind == kind and not op.error]
    return sum(op.items for op in done) / sum(op.wall_s for op in done)


def model_args(dims: tuple[int, int, int]) -> list[str]:
    e, h, d = dims
    return ["--embed-dim", str(e), "--hidden-dim", str(h), "--latent-dim", str(d)]


def musical_entries(n: int):
    melodies = corpus.gen_musical_corpus(corpus.SyntheticConfig(seed=CORPUS_SEED), n)
    return melody.melodies_to_entries(melodies)


def token_matrix(entries) -> np.ndarray:
    return np.array([seq.tokens for seq, _ in entries], dtype=np.int64)


def train_params(entries, dims: tuple[int, int, int]) -> vae.Params:
    """Weights trained for one epoch, for the workloads that only read them."""
    e, h, d = dims
    p0 = vae.init_params(vae.ModelConfig(embed_dim=e, hidden_dim=h, latent_dim=d), TRAIN_SEED)
    return vae.train(p0, [seq for seq, _ in entries],
                     vae.TrainConfig(epochs=1, seed=TRAIN_SEED))[0]


def full_beta(params: vae.Params) -> float:
    """The per-step KL weight train reaches once its anneal ramp ends."""
    return vae.TrainConfig(epochs=1).beta_max / params.config.seq_len


class Workload:
    name = ""
    main_op = ""  # the command whose items per second is items_per_s

    def __init__(self, work: Path, seed: int, scale: Scale) -> None:
        self.work = work
        self.seed = seed
        self.scale = scale
        self.rounds = 0

    def next_out(self) -> Path:
        """A fresh output directory per round, so that no round replaces the
        files of the one before (which makes ext4 flush them to disk)."""
        self.rounds += 1
        out = self.work / f"round{self.rounds}"
        out.mkdir()
        return out

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def named_metrics(self, ops: list[Op]) -> dict[str, tuple[float, str]]:
        """The workload's own figures, under the names the README's layer table uses."""
        raise NotImplementedError

    def probe_inputs(self) -> tuple[vae.Params, np.ndarray]:
        """Parameters and a batch of the workload's own sequences."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def probe_batch(self, tokens: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return tokens[rng.choice(len(tokens), min(PROBE_BATCH, len(tokens)), replace=False)]


class Train2Bar(Workload):
    """``train`` with the default model on the synthetic 2-bar corpus."""

    name = "train-2bar"
    main_op = "train"

    def setup(self) -> None:
        self.entries = musical_entries(self.scale.n_corpus)
        self.corpus = self.work / "corpus.jsonl"
        melody.save_corpus(self.corpus, self.entries)

    def round(self) -> list[Op]:
        s = self.scale
        self.out = self.next_out() / "train"
        argv = ["train", "--corpus", str(self.corpus), "--out-dir", str(self.out),
                "--epochs", str(s.train_epochs), "--batch", str(s.train_batch),
                "--seed", str(TRAIN_SEED), *model_args(s.model)]
        return [cli_op("train", argv, len(self.entries) * s.train_epochs)]

    def named_metrics(self, ops):
        return {"train_seq_per_s": (rate(ops, "train"), "sequences/s")}

    def probe_inputs(self):
        params = vae.load_checkpoint(self.out / "checkpoint.npz")
        return params, self.probe_batch(token_matrix(self.entries))

    def check(self) -> list[str]:
        params, batch = self.probe_inputs()
        beta = full_beta(params)
        return (
            checks.check_history(self.out / "history.csv")
            + checks.check_reference_forward(params, batch, beta, self.seed, vae.elbo_loss)
            + checks.check_gradients(params, batch, beta, self.seed, vae.elbo_loss,
                                     vae.elbo_loss_and_grads,
                                     np.random.default_rng(self.seed + 1))
        )


class Analyze2Bar(Workload):
    """``analyze --random-corpus`` on a checkpoint trained during set-up."""

    name = "analyze-2bar"
    main_op = "analyze"

    def setup(self) -> None:
        s = self.scale
        self.entries = musical_entries(s.n_corpus)
        randoms = corpus.gen_random_corpus(corpus.RandomSeqConfig(), s.n_random, RANDOM_SEED)
        self.corpus = self.work / "corpus.jsonl"
        self.random = self.work / "random.jsonl"
        melody.save_corpus(self.corpus, self.entries)
        melody.save_corpus(self.random, melody.melodies_to_entries(randoms))
        dims = (s.model[0], s.model[1], s.analyze_latent)
        self.checkpoint = self.work / "checkpoint.npz"
        vae.save_checkpoint(train_params(self.entries, dims), self.checkpoint)

    def round(self) -> list[Op]:
        self.out = self.next_out() / "report"
        argv = ["analyze", "--checkpoint", str(self.checkpoint), "--corpus", str(self.corpus),
                "--random-corpus", str(self.random), "--out-dir", str(self.out)]
        return [cli_op("analyze", argv, self.scale.n_corpus + self.scale.n_random)]

    def named_metrics(self, ops):
        return {"analyze_s": (statistics.median(op.wall_s for op in ops), "s")}

    def probe_inputs(self):
        return vae.load_checkpoint(self.checkpoint), self.probe_batch(token_matrix(self.entries))

    def check(self) -> list[str]:
        tokens = token_matrix(self.entries)
        mus, sigmas = ref.encode(vae.load_checkpoint(self.checkpoint).arrays(), tokens)
        n, n_rand = self.scale.n_corpus, self.scale.n_random
        sizes = {"music_corpus": n, "noise_corpus": n,
                 "music_random": n_rand, "noise_random": n_rand}
        return (
            checks.check_phik_cells(self.out, mus, tokens, checks.pick_phik_cells(
                self.out, np.random.default_rng(self.seed)))
            + checks.check_pearson(self.out, mus)
            + checks.check_activation_hist(self.out, sizes)
            + checks.check_partition(self.out, sigmas, 0.9, n)
        )


class MidiIO(Workload):
    """``ingest`` over clean and byte-mutated MIDI shards, then ``roundtrip``."""

    name = "midi-io"
    main_op = "ingest"

    def setup(self) -> None:
        s = self.scale
        n_clean = s.clean_shards * s.clean_files
        melodies16 = corpus.gen_musical_corpus(
            corpus.SyntheticConfig(bars=16, seed=MIDI_SEED),
            n_clean + s.mutated_shards * s.mutated_files)
        spans = [[(n.pitch, n.onset_step, n.duration_steps) for n in m.spans]
                 for m in melodies16]
        self.shards = []  # (directory, file count, expected windows or None)
        for i in range(s.clean_shards):
            files = spans[i * s.clean_files:(i + 1) * s.clean_files]
            self.shards.append(self._write_shard(f"clean{i}", files, mutate=None))
        rng = np.random.default_rng(MUTATION_SEED)
        for i in range(s.mutated_shards):
            lo = n_clean + i * s.mutated_files
            self.shards.append(self._write_shard(
                f"mutated{i}", spans[lo:lo + s.mutated_files], mutate=rng))

        entries = musical_entries(max(s.roundtrip_melodies, s.roundtrip_train_n))
        self.melodies = entries[:s.roundtrip_melodies]
        self.melody_files = []
        for i, (seq, tempo) in enumerate(self.melodies):
            path = self.work / f"melody{i:03d}.jsonl"
            path.write_text(melody.to_json_line(seq, tempo) + "\n")
            self.melody_files.append(path)
        self.checkpoint = self.work / "checkpoint.npz"
        vae.save_checkpoint(train_params(entries[:s.roundtrip_train_n], s.model),
                            self.checkpoint)

    def _write_shard(self, name: str, files, mutate: np.random.Generator | None):
        shard = self.work / name
        shard.mkdir()
        expected = []
        for j, spans in enumerate(files):
            tpq = TICKS_PER_QUARTER[j % len(TICKS_PER_QUARTER)]
            # running status on half the clean files; the fault shows without it
            running = mutate is None and j % 2 == 0
            data = bytearray(ref.write_smf(spans, tpq, running))
            if mutate is not None:
                for pos in mutate.integers(0, len(data), MUTATED_BYTES):
                    data[pos] = int(mutate.integers(0, 256))
            (shard / f"f{j:03d}.mid").write_bytes(bytes(data))
            expected += [ref.spans_to_tokens(w, 32) for w in ref.cut_windows(spans)]
        return shard, len(files), expected if mutate is None else None

    def round(self) -> list[Op]:
        self.out = self.next_out()
        ops = [cli_op("ingest", ["ingest", str(shard), str(self.out / f"{shard.name}.jsonl"),
                                 "--bars", "2"], count) for shard, count, _ in self.shards]
        for i, path in enumerate(self.melody_files):
            argv = ["roundtrip", "--checkpoint", str(self.checkpoint), "--melody", str(path),
                    "--out-dir", str(self.out / f"rt{i:03d}"),
                    "-k", str(self.scale.roundtrip_k), "--seed", "0"]
            ops.append(cli_op("roundtrip", argv, 1))
        return ops

    def named_metrics(self, ops):
        return {"ingest_files_per_s": (rate(ops, "ingest"), "files/s"),
                "roundtrip_melodies_per_s": (rate(ops, "roundtrip"), "melodies/s")}

    def probe_inputs(self):
        return (vae.load_checkpoint(self.checkpoint),
                self.probe_batch(token_matrix(self.melodies)))

    def check(self) -> list[str]:
        out = []
        for shard, _, expected in self.shards:
            corpus_path = self.out / f"{shard.name}.jsonl"
            if expected is not None:
                out += checks.check_ingest_windows(corpus_path, expected, 120.0)
            elif corpus_path.exists():  # a mutated shard that ingest completed
                for tokens, _, bars in checks.read_corpus(corpus_path):
                    if bars != 2 or len(tokens) != 32 or tokens[0] == ref.HOLD:
                        out.append(f"{corpus_path}: malformed melody {tokens}")
        weights = vae.load_checkpoint(self.checkpoint).arrays()
        for i, (seq, _) in enumerate(self.melodies):
            rt = self.out / f"rt{i:03d}"
            out += checks.check_roundtrip_files(rt, self.scale.roundtrip_k)
            greedy = checks.read_corpus(rt / "roundtrip.jsonl")[0][0]
            out += checks.check_greedy(weights, seq.tokens, greedy)
        return out


WORKLOADS = {w.name: w for w in (Train2Bar, Analyze2Bar, MidiIO)}


# ------------------------------------------------------------------ metrics

def layer_metrics(tracer: Tracer, traced_rounds: int, overhead_s: float,
                  train_corpus: tuple[int, int] | None) -> dict[str, float]:
    """Per-round figures from the spans of the traced rounds and the probes.

    ``X.calls`` counts calls, ``X.s`` sums inclusive time, ``X.ms`` is the
    mean inclusive time of one call; ``cli.X.s`` is the command's self time
    (outside every traced call) and ``vae.train.step_ms`` is train's self
    time per optimizer step.  ``train_corpus`` is (sequences, batch size).
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    per = 1.0 / traced_rounds
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s.round == "traced":
            by_name.setdefault(s.name, []).append(i)

    def incl(name):
        return sum(spans[i].duration for i in by_name.get(name, ()))

    steps = 0
    if train_corpus:
        n, batch = train_corpus
        for i in by_name.get("vae.train", ()):
            holds = [s.rows for s in spans if s.parent == i and s.name == "vae.encode_batch"]
            steps += len(holds) * math.ceil((n - holds[0]) / batch) if holds else 0
    out = {}
    for metric in PER_LAYER:
        name, _, kind = metric.rpartition(".")
        ids = by_name.get(name, ())
        if kind == "calls":
            out[metric] = len(ids) * per
        elif kind == "s" and name.startswith("cli."):
            out[metric] = sum(selfs[i] for i in ids) * per
        elif kind == "s":
            out[metric] = incl(name) * per
        elif kind == "ms":
            out[metric] = 1000.0 * incl(name) / len(ids) if ids else 0.0
        elif kind == "rows":
            out[metric] = sum(spans[i].rows for i in ids) * per
        elif kind == "rejected":
            out[metric] = sum(spans[i].error == "MidiParseError" for i in ids) * per
    train_ids = by_name.get("vae.train", ())
    out["vae.train.steps"] = steps * per
    out["vae.train.step_ms"] = (
        1000.0 * sum(selfs[i] for i in train_ids) / steps if steps else 0.0)
    for fn in ("elbo_loss", "elbo_loss_and_grads"):
        probes = [s.duration for s in spans if s.round == "probe" and s.name == f"vae.{fn}"]
        out[f"vae.{fn}.b32_ms"] = 1000.0 * statistics.median(probes)
    out["trace.overhead_s"] = overhead_s
    return out


def machine_facts(repo: Path) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((repo / "src").rglob("*.py")):
        src.update(path.relative_to(repo).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "LATENT_LENS_THREADS")},
        "git_sha": git_sha(repo),
        "src_sha256": src.hexdigest(),
    }


def git_sha(repo: Path) -> str | None:
    """HEAD's commit read from the .git directory; None outside a clone."""
    git = repo / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        if (git / ref_name).exists():
            return (git / ref_name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return None


# --------------------------------------------------------------------- run

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    errors: dict[str, int] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)


def _keep_going(t_start: float, units: int, seconds: float) -> bool:
    """Start another unit while it should end by about ``seconds``."""
    elapsed = time.perf_counter() - t_start
    return elapsed + 0.5 * elapsed / units < seconds


def run(name: str, work: Path, seed: int, seconds: float, trace: bool,
        setup_clock, scale: Scale = FULL) -> Result:
    """Set up one workload, run whole rounds for ``seconds``, check outputs.

    ``setup_clock()`` returns the seconds since the process started.
    """
    root = logging.getLogger()
    saved = root.handlers[:], root.level
    log_handler = logging.FileHandler(work / "latent-lens.log")
    root.handlers[:] = [log_handler]  # the CLI logs here instead of to stderr
    root.setLevel(logging.INFO)
    try:
        workload = WORKLOADS[name](work, seed, scale)
        workload.setup()
        setup_s = setup_clock()
        ops_all: list[Op] = []
        ops_untraced: list[Op] = []
        walls: list[float] = []
        rates: list[float] = []
        tracer = Tracer()
        traced_walls: list[float] = []
        t_start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            ops = workload.round()
            walls.append(time.perf_counter() - t0)
            ops_all += ops
            ops_untraced += ops
            rates.append(rate(ops, workload.main_op))
            gc.collect()  # no garbage of one round left to raise the next one's peak
            if trace:
                tracer.round = "traced"
                with tracer:
                    t0 = time.perf_counter()
                    ops_all += workload.round()
                    traced_walls.append(time.perf_counter() - t0)
                gc.collect()
            if not _keep_going(t_start, len(walls), seconds):
                break
        named = workload.named_metrics(ops_untraced)
        if trace:
            params, batch = workload.probe_inputs()
            beta = full_beta(params)
            tracer.round = "probe"
            with tracer:
                for _ in range(PROBE_CALLS):
                    vae.elbo_loss(params, batch, beta, np.random.default_rng(seed))
                    vae.elbo_loss_and_grads(params, batch, beta, np.random.default_rng(seed))
            overhead = statistics.median(traced_walls) - statistics.median(walls)
            train_corpus = ((scale.n_corpus, scale.train_batch)
                            if name == Train2Bar.name else None)
            metrics = layer_metrics(tracer, len(traced_walls), overhead, train_corpus)
        else:
            metrics = {
                "setup_s": setup_s,
                "round_s": statistics.median(walls),
                "items_per_s": statistics.median(rates),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        try:
            failures = workload.check()
        except Exception as err:  # e.g. an output a failed command never wrote
            failures = [f"{name} check raised {type(err).__name__}: {err}"]
        errors: dict[str, int] = {}
        for op in ops_all:
            if op.error:
                key = f"{op.kind}: {op.error}"
                errors[key] = errors.get(key, 0) + 1
        return Result(
            correct=not failures,
            attempted=len(ops_all),
            failed=sum(errors.values()),
            metrics=metrics,
            named=named,
            failures=failures,
            errors=errors,
            spans=tracer.dump() if trace else [],
        )
    finally:
        root.handlers[:], level = saved
        root.setLevel(level)
        log_handler.close()


def result_json(result: Result) -> str:
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            k: {"value": v, "unit": (END_TO_END | PER_LAYER)[k]}
            for k, v in result.metrics.items()
        },
    })
