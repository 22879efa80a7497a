"""Loading observability run directories, and the repo's JSONL rules.

A *run* is what :meth:`repro.obs.session.ObsSession.write` produces:
``trace.jsonl`` (flattened spans), ``metrics.jsonl`` (one metric per
line) and optionally ``summary.json``.  The default location is
``benchmarks/obs_store/<name>``, mirroring the lab result store's
layout one directory over.

:func:`read_jsonl` and :func:`append_jsonl` are the one reader and
appender of every JSONL file in the repo — run directories, the bench
history, the lab result store and the fleet lease log — so a record
torn by a crash mid-write is handled the same way everywhere.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from .session import METRICS_FILE, SUMMARY_FILE, TRACE_FILE
from .trace import nest_spans

#: Default run-directory root, next to the lab store.
DEFAULT_RUN_NAME = "latest"


def default_obs_root() -> Path:
    """``benchmarks/obs_store`` next to the source tree when running
    from a checkout, else under the current working directory."""
    repo_root = Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / "obs_store"
    return Path.cwd() / "benchmarks" / "obs_store"


@dataclass
class ObsRun:
    """One loaded run: flat span rows, nested forest, metrics."""

    root: Path
    #: flattened span rows (id/parent links), file order.
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: metric name -> snapshot dict.
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    summary: Optional[Dict[str, Any]] = None

    @property
    def forest(self) -> List[Dict[str, Any]]:
        return nest_spans(self.spans)

    def metric_value(self, name: str, default: Any = None) -> Any:
        snap = self.metrics.get(name)
        if snap is None:
            return default
        if snap["kind"] == "histogram":
            return snap["count"]
        return snap["value"]


def read_jsonl(path: Path) -> Iterator[Dict[str, Any]]:
    """Every whole record of a JSONL file, in append order.

    A line that does not parse is a record torn by a crash mid-append
    (SIGKILL, a full disk); it is skipped as if the append never
    happened (a resumed lab run then recomputes exactly that cell).
    """
    if not path.exists():
        return
    with path.open("r", encoding="ascii") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            yield record


def append_jsonl(path: Path, line: str) -> None:
    """Append one record line with a single ``write`` on an
    ``O_APPEND`` descriptor.

    A file that does not end in a newline ends in a torn record; the
    new record then starts on its own line rather than being glued to
    the fragment (which :func:`read_jsonl` skips).
    """
    data = line.encode("ascii") + b"\n"
    with path.open("a+b", buffering=0) as handle:
        end = handle.seek(0, os.SEEK_END)
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                data = b"\n" + data
        handle.write(data)


def load_run(path: Path) -> ObsRun:
    """Load a run directory (or a bare ``trace.jsonl``/``metrics.jsonl``
    file, resolving its siblings)."""
    path = Path(path)
    if path.is_file():
        path = path.parent
    if not path.is_dir():
        raise FileNotFoundError(f"no obs run at {path}")
    run = ObsRun(root=path)
    run.spans = list(read_jsonl(path / TRACE_FILE))
    run.metrics = {record["name"]: {k: v for k, v in record.items()
                                    if k != "name"}
                   for record in read_jsonl(path / METRICS_FILE)}
    summary_path = path / SUMMARY_FILE
    if summary_path.exists():
        run.summary = json.loads(summary_path.read_text(encoding="ascii"))
    return run


def resolve_run(arg: Optional[str]) -> ObsRun:
    """CLI argument -> run: an explicit path, or the default
    ``benchmarks/obs_store/latest``."""
    if arg:
        return load_run(Path(arg))
    return load_run(default_obs_root() / DEFAULT_RUN_NAME)
