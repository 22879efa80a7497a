"""The shared lease log: the fleet's append-only claim/done journal.

Every shard announces cell ownership by appending single-line JSON
records to ``<store>/fleet/leases.jsonl`` — a ``claim`` immediately
before executing a cell, a ``done`` immediately after the cell's
record landed in the shard-local store.  Appends go through one
``os.write`` on an ``O_APPEND`` descriptor, so concurrent shards
interleave whole lines, never fragments (POSIX appends of a few
hundred bytes are atomic on local filesystems).  A line torn by a
crash mid-append is skipped on read, and the next append starts on
its own line (the result store's JSONL rules).

The log is the crash-forensics side of the resume protocol: a cell
whose last event is a ``claim`` with no matching ``done`` was in
flight when its shard died (:func:`orphaned_keys`); the supervisor
re-runs it, and the shard store's resume-from-store scan makes the
re-run idempotent.  Like the result store, the log is last-wins and
append-only — recovery never rewrites history, it appends more.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..obs.io import append_jsonl, read_jsonl

#: Subdirectory of the store root holding fleet coordination state.
FLEET_DIR = "fleet"
LEASES_FILE = "leases.jsonl"

EV_CLAIM = "claim"
EV_DONE = "done"


def leases_path(root: Path) -> Path:
    return Path(root) / FLEET_DIR / LEASES_FILE


def append_lease(root: Path, event: str, spec: str, key: str,
                 shard: int, attempt: int) -> None:
    """Append one lease event as a single atomic line."""
    path = leases_path(root)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"event": event, "spec": spec, "key": key,
              "shard": shard, "attempt": attempt,
              "ts": round(time.time(), 3)}
    append_jsonl(path, json.dumps(record, sort_keys=True))


def scan_leases(root: Path) -> List[Dict[str, Any]]:
    """Every lease event, in append order (empty if no fleet ran)."""
    return list(read_jsonl(leases_path(root)))


def lease_states(events: List[Dict[str, Any]]
                 ) -> Dict[Tuple[str, str], Dict[str, Any]]:
    """Last event per ``(spec, key)`` — the cell's current lease state."""
    states: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for event in events:
        states[(event["spec"], event["key"])] = event
    return states


def orphaned_keys(events: List[Dict[str, Any]]
                  ) -> List[Tuple[str, str]]:
    """Cells claimed but never completed — their shard died mid-cell."""
    return sorted((spec, key) for (spec, key), event
                  in lease_states(events).items()
                  if event["event"] == EV_CLAIM)


def shard_heartbeats(events: List[Dict[str, Any]],
                     now: Optional[float] = None
                     ) -> Dict[int, Dict[str, Any]]:
    """Per-shard liveness from the lease log, read-only: cells claimed
    and completed, the last append's timestamp, and its age in seconds
    (None for logs written before timestamps existed) — so a stalled
    shard shows up in ``fleet status`` before the retry wave fires."""
    if now is None:
        now = time.time()
    beats: Dict[int, Dict[str, Any]] = {}
    for event in events:
        shard = event.get("shard")
        if shard is None:
            continue
        beat = beats.setdefault(shard, {"claimed": 0, "done": 0,
                                        "last_ts": None,
                                        "last_age": None})
        if event["event"] == EV_CLAIM:
            beat["claimed"] += 1
        elif event["event"] == EV_DONE:
            beat["done"] += 1
        ts = event.get("ts")
        if ts is not None:
            beat["last_ts"] = ts
    for beat in beats.values():
        if beat["last_ts"] is not None:
            beat["last_age"] = round(max(0.0, now - beat["last_ts"]), 3)
    return beats
