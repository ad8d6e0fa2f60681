"""Spans around the program's public functions, patched in from outside.

A :class:`Tracer` replaces each traced function in its defining module and in
every ``latent_lens`` module that imported it by name, records one span per
call (name, start, end, parent, thread, round, error) in memory, and puts the
originals back on exit.  A span opened on a worker thread with nothing open
there is parented to the innermost span open on the thread that installed the
tracer, which is the call that waits for it.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "latent_lens"

# Functions traced, by module.  Besides those the per-layer metrics name,
# the list covers every heavy call a CLI command makes (checkpoint writes,
# the Pearson matrix, the partition), so that a command's self time is its
# own argument handling and file writing.
TRACED = {
    "vae": ("train", "encode_batch", "encode", "decode", "load_checkpoint",
            "save_checkpoint", "elbo_loss", "elbo_loss_and_grads"),
    "analysis": ("encode_corpus", "neuron_feature_phik", "neuron_feature_scatter",
                 "compare_real_vs_random", "mu_pearson_matrix", "partition_neurons"),
    "stats": ("phik", "phik_matrix", "bvn_cell_probs", "contingency", "lowess"),
    "features": ("extract_corpus_features", "extract_features"),
    "svg": ("render_heatmap", "render_boxplots", "render_histogram", "render_scatter"),
    "midi": ("parse_midi", "extract_melodies", "write_midi"),
    "melody": ("load_corpus", "save_corpus"),
    "report": ("sha256_file",),
    "cli": ("cmd_train", "cmd_analyze", "cmd_ingest", "cmd_roundtrip"),
}


def span_name(module: str, func: str) -> str:
    if module == "svg":
        return "svg.render"
    if module == "cli":
        return "cli." + func.removeprefix("cmd_")
    return f"{module}.{func}"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    thread: int = 0
    round: str = ""
    rows: int = 0  # batch rows, for vae.encode_batch
    error: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round = ""
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []

    # ------------------------------------------------------------ patching
    def __enter__(self) -> "Tracer":
        modules = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        namespaces = [vars(mod) for mod in modules.values()]
        # the CLI dispatches through a dict of its command functions
        namespaces.append(vars(modules["cli"]).get("_COMMANDS", {}))
        self._local.stack = self._main_stack
        for mod_name, funcs in TRACED.items():
            for func in funcs:
                original = getattr(modules[mod_name], func)
                wrapper = self._wrap(span_name(mod_name, func), original)
                for namespace in namespaces:
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._patched.append((namespace, key, original))
                            namespace[key] = wrapper
        return self

    def __exit__(self, *exc) -> None:
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        main_stack = self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            span = Span(name, 0.0, parent=parent, thread=threading.get_ident(),
                        round=self.round)
            if name == "vae.encode_batch":
                span.rows = len(args[1]) if len(args) > 1 else len(kwargs["batch"])
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    # ------------------------------------------------------------- analysis
    def self_times(self) -> list[float]:
        """Per span: its duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span.parent >= 0:
                children[span.parent].append(i)
        out = []
        for i, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for lo, hi in sorted((self.spans[c].start, self.spans[c].end)
                                 for c in children[i]):
                lo = max(lo, cursor)
                hi = min(hi, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(span.duration - covered)
        return out

    def dump(self) -> list[dict]:
        selfs = self.self_times()
        return [
            {"name": s.name, "start": s.start, "end": s.end, "self": st,
             "parent": s.parent, "thread": s.thread, "round": s.round,
             "rows": s.rows, "error": s.error}
            for s, st in zip(self.spans, selfs)
        ]
