"""The obs-backed benchmark recorder: per-bench ``BENCH_<name>.json``.

Historically only an aggregate ``BENCH_runner.json`` was flushed by
the benchmark conftest, so the per-bench performance trajectory the
ROADMAP asks for was never populated.  :class:`BenchRecorder` fixes
that: every table reported during a pytest-benchmark session is
attributed to the bench module that produced it, and at session end
one ``BENCH_<name>.json`` summary is written per module (``bench_gni``
→ ``BENCH_gni.json``), each carrying the session's obs metrics
snapshot when an observability session was active, and one normalized
record per module is appended to ``bench_history.jsonl``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from .history import append_records, make_record
from .metrics import KIND_COUNTER, KIND_HISTOGRAM
from .session import active


def bench_id(source: str) -> str:
    """``bench_gni`` / ``benchmarks/bench_gni.py`` -> ``gni`` — the
    history record's bench key (matches ``BENCH_<id>.json``)."""
    stem = Path(source).stem
    if stem.startswith("bench_"):
        stem = stem[len("bench_"):]
    return stem


def bench_summary_name(source: str) -> str:
    """``bench_gni`` / ``benchmarks/bench_gni.py`` -> ``BENCH_gni.json``
    (sources without the ``bench_`` convention keep their stem)."""
    return f"BENCH_{bench_id(source)}.json"


class BenchRecorder:
    """Collects per-module result tables and flushes obs-backed
    summaries.

    Parameters
    ----------
    bench_dir:
        Directory the ``BENCH_<name>.json`` summaries land in
        (``benchmarks/`` in a checkout).
    history:
        The ``bench_history.jsonl`` path; None disables the trajectory.
    """

    def __init__(self, bench_dir: Path,
                 history: Optional[Path] = None) -> None:
        self.bench_dir = Path(bench_dir)
        #: ``bench_history.jsonl`` path; None disables the trajectory.
        self.history = Path(history) if history else None
        #: module name -> its tables, in report order.
        self.by_module: Dict[str, List[Dict[str, Any]]] = {}
        #: module name -> summed test-call wall seconds.
        self.module_wall: Dict[str, float] = {}
        #: modules in first-seen order, with the deterministic counter
        #: values at their entry — flush() diffs consecutive marks to
        #: attribute per-module deltas.
        self._module_order: List[str] = []
        self._det_marks: Dict[str, Dict[str, float]] = {}
        #: human log lines from the last flush (also printed).
        self.log: List[str] = []

    # -- module attribution ----------------------------------------------

    @staticmethod
    def _det_values() -> Dict[str, float]:
        """One scalar per *deterministic* metric of the ambient session
        (counter values, histogram counts) — the drift surface."""
        sess = active()
        if sess is None:
            return {}
        values: Dict[str, float] = {}
        for name, snap in sess.metrics.deterministic_snapshot().items():
            if snap["kind"] == KIND_COUNTER:
                values[name] = snap["value"]
            elif snap["kind"] == KIND_HISTOGRAM:
                values[name] = snap["count"]
        return values

    def enter_module(self, module: str) -> None:
        """Mark a bench module's entry (idempotent): snapshots the
        deterministic counters so the module's history record carries
        only *its* deltas."""
        if module not in self._det_marks:
            self._module_order.append(module)
            self._det_marks[module] = self._det_values()

    def note_duration(self, module: str, seconds: float) -> None:
        """Accumulate one test call's wall time under its module."""
        self.enter_module(module)
        self.module_wall[module] = \
            self.module_wall.get(module, 0.0) + seconds

    # -- recording -------------------------------------------------------

    def report(self, module: str, benchmark: Any, title: str,
               header: Iterable[Any],
               rows: Iterable[Iterable[Any]]) -> str:
        """Record one table under ``module``; returns the printable
        rendering (same format the session console always printed)."""
        header = list(header)
        rows = [list(row) for row in rows]
        table = {"title": title, "header": header, "rows": rows}
        self.by_module.setdefault(module, []).append(table)
        if benchmark is not None:
            benchmark.extra_info["table"] = table
        width = max(len(str(cell))
                    for row in rows + [header] for cell in row) + 2
        lines = [f"\n=== {title} ===",
                 "".join(str(cell).ljust(width) for cell in header)]
        lines.extend("".join(str(cell).ljust(width) for cell in row)
                     for row in rows)
        return "\n".join(lines)

    # -- flushing --------------------------------------------------------

    def _metrics_snapshot(self) -> Optional[Dict[str, Any]]:
        sess = active()
        if sess is None or not len(sess.metrics):
            return None
        return sess.metrics.snapshot()

    def _write_summary(self, path: Path,
                       payload: Dict[str, Any]) -> None:
        """Write one summary JSON, logging append vs replace (a silent
        overwrite of a committed BENCH record hid regressions)."""
        text = json.dumps(payload, indent=2, default=str) + "\n"
        if path.exists():
            verb = "unchanged" if path.read_text(
                encoding="ascii") == text else "replaced"
        else:
            verb = "wrote"
        path.write_text(text, encoding="ascii")
        self.log.append(f"bench: {verb} {path.name}")

    def history_records(self) -> List[Dict[str, Any]]:
        """One normalized history record per bench module seen this
        session: wall = summed test-call seconds, det = the module's
        deterministic counter deltas (diff of consecutive entry
        marks; the last module diffs against flush time)."""
        final = self._det_values()
        records: List[Dict[str, Any]] = []
        order = self._module_order
        for i, module in enumerate(order):
            start = self._det_marks[module]
            end = self._det_marks[order[i + 1]] if i + 1 < len(order) \
                else final
            det = {name: end[name] - start.get(name, 0.0)
                   for name in sorted(end)
                   if end[name] != start.get(name, 0.0)}
            records.append(make_record(
                bench_id(module),
                wall=round(self.module_wall.get(module, 0.0), 4),
                det=det))
        return records

    def flush(self) -> List[Path]:
        """Write per-module summaries and the bench-history trajectory.
        Returns the summary paths written; ``self.log`` carries the
        appended/replaced lines (also printed)."""
        self.log = []
        written: List[Path] = []
        if self.by_module:
            metrics = self._metrics_snapshot()
            self.bench_dir.mkdir(parents=True, exist_ok=True)
            for module in sorted(self.by_module):
                payload: Dict[str, Any] = {
                    "source": module,
                    "recorder": "repro.obs",
                    "tables": self.by_module[module],
                }
                if metrics is not None:
                    payload["metrics"] = metrics
                path = self.bench_dir / bench_summary_name(module)
                self._write_summary(path, payload)
                written.append(path)
        if self.history is not None and self._module_order:
            self.log.extend(
                append_records(self.history, self.history_records()))
        for line in self.log:
            print(line)
        return written
