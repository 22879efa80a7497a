"""The bench trajectory: append-only history + the regression gate.

``benchmarks/bench_history.jsonl`` holds one normalized record per
benchmark module per run::

    {"bench": "runner", "sha": "15f7485", "mode": "full",
     "numpy": true, "host": "ci-runner",
     "ts": "2026-08-08T12:00:00Z", "wall": 12.5,
     "det": {"runner/proof_bits": 44826624, ...}}

``bench`` + ``sha`` + ``mode`` key a record: re-running the same
benchmark at the same commit *replaces* (last-wins on load) rather
than growing the trajectory, so the committed file stays one point
per commit.  ``det`` carries the per-module deltas of deterministic
counters — machine-independent bit counts whose drift is always a
real regression — while ``wall`` is environment-dependent and gated
with a noise-aware threshold (ratio over the trailing-window median
plus an absolute floor).

:func:`regress_report` is the pure core behind ``python -m repro obs
regress``: exit 1 on deterministic-bit drift or wall regression of
the newest record against the committed trailing window.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from .io import append_jsonl, read_jsonl

HISTORY_FILE = "bench_history.jsonl"

#: Defaults for the noise-aware wall gate: newest wall regresses when
#: it exceeds ``median(window) * WALL_RATIO`` *and* the excess is more
#: than ``WALL_FLOOR`` seconds (sub-floor jitter is never flagged).
WALL_RATIO = 1.25
WALL_FLOOR = 0.1
WINDOW = 5


def git_sha(repo: Optional[Path] = None) -> str:
    """The short HEAD sha, or ``unknown`` outside a work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(repo) if repo else None, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def bench_mode() -> str:
    """quick (BENCH_QUICK trims workloads) or full — records only
    compare within one mode, because quick-mode bit counts legitimately
    differ from full-mode ones."""
    return "quick" if os.environ.get("BENCH_QUICK") else "full"


def has_numpy() -> bool:
    """Whether the numpy engine is importable — bench workloads (and
    so their deterministic counters) differ with and without it, so
    records only compare within one answer."""
    import importlib.util
    return importlib.util.find_spec("numpy") is not None


def make_record(bench: str, wall: Optional[float],
                det: Dict[str, float],
                sha: Optional[str] = None,
                mode: Optional[str] = None,
                ts: Optional[str] = None,
                numpy: Optional[bool] = None) -> Dict[str, Any]:
    return {
        "bench": bench,
        "sha": sha if sha is not None else git_sha(),
        "mode": mode if mode is not None else bench_mode(),
        "numpy": has_numpy() if numpy is None else numpy,
        "host": socket.gethostname(),
        "ts": ts if ts is not None else time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall": None if wall is None else round(float(wall), 6),
        "det": {name: det[name] for name in sorted(det)},
    }


def record_key(record: Dict[str, Any]) -> tuple:
    return (record.get("bench"), record.get("sha"),
            record.get("mode", "full"))


def load_history(path: Path) -> List[Dict[str, Any]]:
    """Every record in file order; malformed lines are skipped (the
    file is append-only and may interleave writers)."""
    return [record for record in read_jsonl(Path(path))
            if isinstance(record, dict) and record.get("bench")]


def effective_history(records: List[Dict[str, Any]]
                      ) -> List[Dict[str, Any]]:
    """Last-wins per (bench, sha, mode), in order of last occurrence —
    the trajectory the gate actually compares."""
    by_key: Dict[tuple, Dict[str, Any]] = {}
    for record in records:
        key = record_key(record)
        if key in by_key:
            del by_key[key]
        by_key[key] = record
    return list(by_key.values())


def append_records(path: Path, records: List[Dict[str, Any]]
                   ) -> List[str]:
    """Append records (one JSON line each); returns a human log line
    per record saying whether it was appended (new bench+sha+mode key)
    or replaces an earlier record for the same key."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    existing = {record_key(r) for r in load_history(path)}
    lines = []
    for record in records:
        append_jsonl(path, json.dumps(record, sort_keys=True))
        key = record_key(record)
        verb = "replaced" if key in existing else "appended"
        existing.add(key)
        lines.append(
            f"bench_history: {verb} {record['bench']} "
            f"@ {record['sha']} [{record.get('mode', 'full')}]")
    return lines


def _comparable(records: List[Dict[str, Any]],
                newest: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Prior records the newest one legitimately compares against:
    same bench, same quick/full mode, same numpy availability."""
    return [r for r in records
            if r.get("bench") == newest.get("bench")
            and r.get("mode", "full") == newest.get("mode", "full")
            and r.get("numpy") == newest.get("numpy")
            and r is not newest]


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def regress_report(records: List[Dict[str, Any]],
                   window: int = WINDOW,
                   wall_ratio: float = WALL_RATIO,
                   wall_floor: float = WALL_FLOOR,
                   benches: Optional[List[str]] = None
                   ) -> Dict[str, Any]:
    """Compare each lane's newest record against its trailing window.

    A *lane* is ``(bench, mode, numpy)`` — quick and full runs of the
    same bench evolve independently, as do runs with and without the
    numpy engine, so each lane is gated on its own newest record.
    Deterministic gate: any metric present in both the newest record
    and the most recent prior comparable record whose value changed is
    a **drift** (bit counts are machine-independent; there is no noise
    to allow for).  Wall gate: newest wall > median(trailing window)
    × ``wall_ratio`` *and* excess > ``wall_floor`` seconds.  A lane
    with no comparable prior record reports ``baseline: none`` and
    passes.  Returns ``{"ok", "benches": [...], "drifts": [...],
    "regressions": [...]}``.
    """
    effective = effective_history(records)
    newest_by_lane: Dict[tuple, Dict[str, Any]] = {}
    for record in effective:
        name = record["bench"]
        if benches and name not in benches:
            continue
        newest_by_lane[(name, record.get("mode", "full"),
                        record.get("numpy"))] = record

    rows, drifts, regressions = [], [], []
    for lane in sorted(newest_by_lane,
                       key=lambda k: (k[0], k[1], str(k[2]))):
        name = lane[0]
        newest = newest_by_lane[lane]
        prior = _comparable(effective, newest)
        row: Dict[str, Any] = {
            "bench": name, "sha": newest.get("sha"),
            "mode": newest.get("mode", "full"),
            "numpy": newest.get("numpy"),
            "wall": newest.get("wall"), "ok": True,
        }
        if not prior:
            row["baseline"] = "none"
            rows.append(row)
            continue

        latest_prior = prior[-1]
        row["baseline"] = {"sha": latest_prior.get("sha"),
                           "records": min(len(prior), window)}
        for metric in sorted(set(newest.get("det", {}))
                             & set(latest_prior.get("det", {}))):
            new_value = newest["det"][metric]
            old_value = latest_prior["det"][metric]
            if new_value != old_value:
                drift = {"bench": name, "metric": metric,
                         "old": old_value, "new": new_value,
                         "old_sha": latest_prior.get("sha")}
                drifts.append(drift)
                row["ok"] = False

        walls = [r["wall"] for r in prior[-window:]
                 if r.get("wall") is not None]
        if walls and newest.get("wall") is not None:
            median = _median(walls)
            row["wall_median"] = round(median, 6)
            excess = newest["wall"] - median
            if (median > 0 and newest["wall"] > median * wall_ratio
                    and excess > wall_floor):
                regressions.append(
                    {"bench": name, "wall": newest["wall"],
                     "median": round(median, 6),
                     "ratio": round(newest["wall"] / median, 3)})
                row["ok"] = False
        rows.append(row)

    return {"ok": not drifts and not regressions, "benches": rows,
            "drifts": drifts, "regressions": regressions}
