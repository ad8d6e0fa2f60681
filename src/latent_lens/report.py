"""CSV export and run manifests.  CSV files are the source of truth for all
figures; SVGs are derived views.  Every command writes a manifest recording
the tool version, the config snapshot, content hashes of its inputs, the
output file list, wall-clock timings, the process's peak resident memory,
counts of what the run left out (``ingest``: files unreadable, unparseable
or with an invalid melody; ``analyze``: skipped sequences, degenerate feature
values, NaN phik cells), the environment variables its results depend on
(``train``: the BLAS thread counts) and, for a run that failed, why, so
results can be regenerated."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

TOOL_VERSION = "0.1.0"


def write_text_atomic(path: str | Path, text: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def csv_text(header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def matrix_csv_text(
    matrix: np.ndarray, row_labels: Sequence[str], col_labels: Sequence[str]
) -> str:
    """A labelled matrix as CSV: values to 8 significant digits, non-finite
    values as empty cells."""
    rows = [
        [label, *("" if not np.isfinite(v) else f"{v:.8g}" for v in row)]
        for label, row in zip(row_labels, np.asarray(matrix))
    ]
    return csv_text(["", *col_labels], rows)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    command: str
    config: dict
    tool_version: str = TOOL_VERSION
    input_hashes: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    timings_s: dict = field(default_factory=dict)
    error: str | None = None  # why the command failed, if it did
    dropped: dict = field(default_factory=dict)  # counts of what a run left out
    environment: dict = field(default_factory=dict)  # variables the results depend on

    def add_input(self, path: str | Path, data: bytes | None = None) -> None:
        """Record the SHA-256 of an input: of ``data``, the bytes the command
        already read from ``path``, if given, else of the file at ``path``."""
        digest = sha256_file(path) if data is None else hashlib.sha256(data).hexdigest()
        self.input_hashes[str(path)] = digest

    def add_output(self, path: str | Path) -> None:
        self.outputs.append(str(path))

    def write(self, path: str | Path) -> None:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        payload = {
            "tool_version": self.tool_version,
            "command": self.command,
            "config": self.config,
            "input_hashes": self.input_hashes,
            "outputs": sorted(self.outputs),
            "timings_s": self.timings_s,
            "peak_rss_mb": round(peak_kib / 1024.0, 1),
        }
        if self.error:
            payload["error"] = self.error
        if self.dropped:
            payload["dropped"] = self.dropped
        if self.environment:
            payload["environment"] = self.environment
        write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


class Stopwatch:
    """Accumulates named wall-clock phases for the manifest."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self.laps: dict[str, float] = {}

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.laps[name] = round(self.laps.get(name, 0.0) + now - self._t0, 4)
        self._t0 = now
