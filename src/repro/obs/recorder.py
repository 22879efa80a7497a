"""The obs-backed benchmark recorder: one ``bench_history.jsonl``
record per bench module.

:class:`BenchRecorder` renders the result tables benchmarks report
(each table also rides pytest-benchmark's ``extra_info``, which
``benchmarks/generate_report.py`` reads) and, at session end, appends
one normalized record per bench module to ``bench_history.jsonl``:
the module's summed test wall time and its deterministic-counter
deltas.  That file is the one bench record; ``obs regress`` gates it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from .history import append_records, make_record
from .metrics import KIND_COUNTER, KIND_HISTOGRAM
from .session import active


def bench_id(source: str) -> str:
    """``bench_gni`` / ``benchmarks/bench_gni.py`` -> ``gni`` — the
    history record's bench key."""
    stem = Path(source).stem
    if stem.startswith("bench_"):
        stem = stem[len("bench_"):]
    return stem


class BenchRecorder:
    """Renders result tables and flushes one bench-history record per
    bench module.

    Parameters
    ----------
    history:
        The ``bench_history.jsonl`` path; None disables the trajectory.
    """

    def __init__(self, history: Optional[Path] = None) -> None:
        #: ``bench_history.jsonl`` path; None disables the trajectory.
        self.history = Path(history) if history else None
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

    def report(self, benchmark: Any, title: str, header: Iterable[Any],
               rows: Iterable[Iterable[Any]]) -> str:
        """Attach one table to ``benchmark`` (when given); returns the
        printable rendering (same format the session console always
        printed)."""
        header = list(header)
        rows = [list(row) for row in rows]
        table = {"title": title, "header": header, "rows": rows}
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
            det = {name: end[name] - start.get(name, 0)
                   for name in sorted(end)
                   if end[name] != start.get(name, 0)}
            records.append(make_record(
                bench_id(module),
                wall=round(self.module_wall.get(module, 0.0), 4),
                det=det))
        return records

    def flush(self) -> List[str]:
        """Append the session's records to the bench history; returns
        (and prints) one log line per record, appended or replaced."""
        self.log = []
        if self.history is not None and self._module_order:
            self.log = append_records(self.history, self.history_records())
        for line in self.log:
            print(line)
        return self.log
