"""Shared helpers: statistics, /proc readers, process control, trace
files, and the result line."""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

#: Clock ticks per second for /proc/<pid>/stat CPU fields.
_TICKS = os.sysconf("SC_CLK_TCK")


class BenchFailure(RuntimeError):
    """The program misbehaved in a way that voids the run."""


def program_env() -> Dict[str, str]:
    """Environment for the program under test: the checkout's sources
    first on the import path, nothing else changed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def repro_command(args: Sequence[str],
                  trace_dir: Optional[Path] = None) -> List[str]:
    """``python -m repro <args>``, or the same command under the layer
    wrappers when ``trace_dir`` is set."""
    if trace_dir is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(BENCH_DIR / "shim.py"), str(trace_dir),
            *args]


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM, wait; SIGKILL if it does not end in ``timeout``."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


# -- statistics -------------------------------------------------------------

def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise BenchFailure("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: Sequence[float], pct: float) -> float:
    """The workload's fixed tail percentile; warns on stderr when the
    sample leaves fewer than ten values beyond it."""
    beyond = len(values) * (100.0 - pct) / 100.0
    if beyond < 10:
        print(f"warning: p{pct:g} of {len(values)} samples has only "
              f"{beyond:.1f} beyond it", file=sys.stderr)
    return percentile(values, pct)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# -- /proc ------------------------------------------------------------------

def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process (all its threads)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (stat field 3): utime/stime are 14 and 15.
    return (int(fields[11]) + int(fields[12])) / _TICKS


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchFailure(f"no VmHWM for pid {pid}")


# -- traces -----------------------------------------------------------------

def load_spans(trace_dir: Path) -> List[Dict[str, Any]]:
    """Every span row the wrapped processes wrote under ``trace_dir``."""
    rows: List[Dict[str, Any]] = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        with path.open(encoding="ascii") as handle:
            rows.extend(json.loads(line) for line in handle
                        if line.strip())
    return rows


#: Span attrs that are measurements, moved to ``meta`` in the obs run.
_META_ATTRS = ("phase_seconds", "decide_calls")


def write_obs_run(run_dir: Path, rows: List[Dict[str, Any]],
                  summary: Dict[str, Any]) -> None:
    """Write ``rows`` as an obs run directory (``trace.jsonl`` plus
    ``summary.json``) that ``python -m repro obs report --flame``
    renders: pre-order span rows with integer id/parent links, wall
    seconds, and start/end, trace and span ids in ``meta``."""
    by_id = {row["id"]: row for row in rows}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for row in rows:
        parent = row.get("parent")
        if parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(row)
    for bucket in children.values():
        bucket.sort(key=lambda r: (r["start"], -r["end"]))

    run_dir.mkdir(parents=True, exist_ok=True)
    lines: List[str] = []

    def visit(row: Dict[str, Any], parent: Optional[int]) -> None:
        attrs = {k: v for k, v in row.get("attrs", {}).items()
                 if k not in _META_ATTRS}
        meta = {k: v for k, v in row.get("attrs", {}).items()
                if k in _META_ATTRS}
        meta.update(start=row["start"], end=row["end"],
                    trace=row["trace"], span=row["id"],
                    pid=row.get("pid"))
        index = len(lines)
        lines.append(json.dumps({
            "name": row["name"], "attrs": attrs, "metrics": {},
            "seconds": round(row["end"] - row["start"], 6), "meta": meta,
            "id": index, "parent": parent}, sort_keys=True, default=str))
        for child in children.get(row["id"], ()):
            visit(child, index)

    for root in children.get(None, ()):
        visit(root, None)
    (run_dir / "trace.jsonl").write_text(
        "".join(line + "\n" for line in lines), encoding="ascii")
    (run_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
        encoding="ascii")


def spans_named(rows: Iterable[Dict[str, Any]], name: str,
                start: float = float("-inf"),
                end: float = float("inf")) -> List[Dict[str, Any]]:
    """Spans called ``name`` that started inside ``[start, end]``."""
    return [row for row in rows
            if row["name"] == name and start <= row["start"] <= end]


def duration(row: Dict[str, Any]) -> float:
    return row["end"] - row["start"]


def descendants(rows: Sequence[Dict[str, Any]]
                ) -> Dict[str, List[Dict[str, Any]]]:
    """Span id -> its direct children."""
    kids: Dict[str, List[Dict[str, Any]]] = {}
    for row in rows:
        if row.get("parent") is not None:
            kids.setdefault(row["parent"], []).append(row)
    return kids


def subtree(kids: Dict[str, List[Dict[str, Any]]],
            row: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every span below ``row``."""
    out: List[Dict[str, Any]] = []
    stack = list(kids.get(row["id"], ()))
    while stack:
        child = stack.pop()
        out.append(child)
        stack.extend(kids.get(child["id"], ()))
    return out


def context_build_seconds(rows: Sequence[Dict[str, Any]]) -> float:
    """Wall seconds in first calls of ``InstanceContext`` methods,
    counting nested first calls once (outermost spans only)."""
    by_id = {row["id"]: row for row in rows}
    total = 0.0
    for row in rows:
        if not row["name"].startswith("core.context."):
            continue
        parent = by_id.get(row.get("parent"))
        if parent is not None and parent["name"].startswith("core.context."):
            continue
        total += duration(row)
    return total


def runner_layers(rows: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Per-call means over ``runner.run_trials`` spans: the reference
    phases from ``AcceptanceEstimate.phase_seconds``, and on the numpy
    engine the kernel lookup, the kernel batch and the trial-0
    cross-check (the call's wall minus the two kernel spans)."""
    kids = descendants(rows)
    calls = [row for row in rows if row["name"] == "runner.run_trials"]
    phases = {"arthur": 0.0, "merlin": 0.0, "decide": 0.0}
    trials = decide_calls = 0
    numpy_calls = 0
    find = batch = cross = numpy_wall = 0.0
    for call in calls:
        attrs = call.get("attrs", {})
        for key in phases:
            phases[key] += attrs.get("phase_seconds", {}).get(key, 0.0)
        trials += attrs.get("trials", 0)
        decide_calls += attrs.get("decide_calls", 0)
        if attrs.get("engine") != "numpy":
            continue
        numpy_calls += 1
        below = subtree(kids, call)
        f = sum(duration(r) for r in below
                if r["name"] == "core.kernels.find_kernel")
        b = sum(duration(r) for r in below
                if r["name"] == "core.kernels.run_batch")
        find += f
        batch += b
        cross += duration(call) - f - b
        numpy_wall += duration(call)
    count = max(len(calls), 1)
    per_numpy = max(numpy_calls, 1)
    return {
        "core.runner.arthur_ms": phases["arthur"] * 1000 / count,
        "core.runner.merlin_ms": phases["merlin"] * 1000 / count,
        "core.runner.decide_ms": phases["decide"] * 1000 / count,
        "core.runner.decide_calls_per_trial":
            decide_calls / trials if trials else 0.0,
        "core.kernels.find_kernel_ms": find * 1000 / per_numpy,
        "core.kernels.run_batch_ms": batch * 1000 / per_numpy,
        "core.runner.crosscheck_ms": cross * 1000 / per_numpy,
        "core.runner.crosscheck_share":
            cross / numpy_wall if numpy_wall else 0.0,
        "core.runner.run_trials_calls": float(len(calls)),
    }


# -- result -----------------------------------------------------------------

def emit(workload: str, seed: int, trace: bool, attempted: int,
         failed: int, metrics: Dict[str, Any],
         units: Dict[str, str], extra: Dict[str, Any]) -> int:
    """Print the run record (for humans) and the result line (last line
    of stdout); the exit code is non-zero when anything failed."""
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchFailure(f"metrics not measured: {missing}")
    record = {"workload": workload, "seed": seed, "trace": trace,
              **extra}
    print(json.dumps(record, sort_keys=True, default=str))
    for name in sorted(units):
        print(f"{name:<40} {metrics[name]:>14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]}
                    for name in sorted(units)},
    }
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if failed == 0 else 1
