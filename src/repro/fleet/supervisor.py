"""The fleet supervisor: fork shards, retry the dead, steal the rest.

``run_fleet`` drives one sharded sweep end to end:

1. **Plan** — expand the specs to the canonical serial task order,
   drop cells the main store already has (resume-from-store), and
   partition round-robin across ``shards``.
2. **Waves** — fork one worker process per shard with outstanding
   work.  A worker that dies (crash, kill, fault injection) fails its
   wave; the supervisor backs off exponentially and re-forks it, up
   to ``retries`` extra waves.  Each retry resumes from the shard's
   local store, so completed cells are never recomputed and a crash
   mid-cell costs exactly that one cell.
3. **Steal** — cells still missing after the last wave are executed
   inline by the supervisor into the owning shard's store (the
   orphaned claims in the lease log are exactly these).
4. **Merge** — shard stores are folded into the main store in the
   canonical task order, last-wins.  Records are deterministic
   functions of ``(spec, n, prover, trials, seed)``, so the merged
   store agrees with a serial ``lab run`` on every deterministic
   field regardless of shard count, crashes, or retry history —
   ``fleet diff`` is the gate that asserts it.

The ``shard`` provenance a record carries is its *partition*
assignment (stolen cells keep their owning shard's number); ``host``
names the machine that recorded it.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..core.runner import _fork_pool_context
from ..lab.runner import set_shard
from ..lab.spec import ExperimentSpec
from ..lab.store import ResultStore, project
from ..obs.session import ObsSession, active, merge_collected
from .leases import scan_leases, orphaned_keys, shard_heartbeats
from .plan import Task, partition, plan_tasks, spec_tasks
from .worker import (SimulatedCrash, execute_shard_tasks, shard_obs_path,
                     shard_roots, shard_store_root, worker_main)

#: Default bounded-retry policy: how many extra waves a dead shard
#: gets, and the base of the exponential backoff between waves.
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF = 0.25


def _remaining(spec_by_index: Sequence[ExperimentSpec],
               root: Path, shard: int,
               tasks: Sequence[Task]) -> List[Task]:
    """The shard's tasks whose cell is not yet in its local store."""
    store = ResultStore(shard_store_root(root, shard))
    cached: Dict[int, Dict[str, Any]] = {}
    left = []
    for task in tasks:
        if task.spec_index not in cached:
            cached[task.spec_index] = store.load_cells(
                spec_by_index[task.spec_index])
        if task.key not in cached[task.spec_index]:
            left.append(task)
    return left


def _run_wave(specs: Sequence[ExperimentSpec], root: Path,
              work: Dict[int, List[Task]], attempt: int, engine: str,
              kill_shard: Optional[int], kill_after: Optional[int],
              trace_ctx: Optional[Dict[str, Any]] = None) -> List[int]:
    """Execute one wave (one process per shard with work); returns the
    shards that died.  ``trace_ctx`` is propagated to forked workers
    so their buffered spans link back to the supervisor's
    ``fleet.wave`` span.  Platforms without fork run shards inline
    (spans nest physically — no context files needed), with
    :class:`SimulatedCrash` still modelling the death."""
    ctx = _fork_pool_context()
    failed: List[int] = []
    if ctx is None:
        for shard, tasks in sorted(work.items()):
            ka = kill_after if (attempt == 0
                                and shard == kill_shard) else None
            try:
                execute_shard_tasks(specs, root, shard, tasks, attempt,
                                    engine=engine, kill_after=ka)
            except SimulatedCrash:
                failed.append(shard)
        set_shard(0)
        return failed
    procs = []
    for shard, tasks in sorted(work.items()):
        ka = kill_after if (attempt == 0 and shard == kill_shard) else None
        proc = ctx.Process(target=worker_main,
                           args=(specs, root, shard, tasks, attempt,
                                 engine, ka, trace_ctx))
        proc.start()
        procs.append((shard, proc))
    for shard, proc in procs:
        proc.join()
        if proc.exitcode != 0:
            failed.append(shard)
    return failed


def _merge_wave_obs(root: Path, attempt: int, shards: Sequence[int],
                    sess: Optional[ObsSession]) -> None:
    """Fold the wave's worker-exported obs buffers into the ambient
    session, in shard order (deterministic merge order, same contract
    as the fork-pool trial merge)."""
    if sess is None:
        return
    for shard in sorted(shards):
        path = shard_obs_path(root, shard, attempt)
        if not path.exists():
            continue
        try:
            payload = json.loads(path.read_text(encoding="ascii"))
        except (OSError, json.JSONDecodeError):
            continue
        merge_collected(sess, (payload.get("spans", []),
                               payload.get("metrics", {})))


def merge_shards(specs: Sequence[ExperimentSpec],
                 store: ResultStore) -> Dict[str, int]:
    """Fold every shard store under ``store.root`` into the main
    store, appending cells in canonical task order (last-wins; cells
    already present with identical deterministic fields are skipped,
    so merging is idempotent)."""
    roots = shard_roots(store.root)
    shard_stores = [ResultStore(path) for path in roots]
    appended = skipped = 0
    for index, spec in enumerate(specs):
        collected: Dict[str, Dict[str, Any]] = {}
        for shard_store in shard_stores:
            for key, record in shard_store.load_cells(spec).items():
                collected.setdefault(key, record)
        if not collected:
            continue
        main = store.load_cells(spec)
        ordered = [t.key for t in spec_tasks(spec, index, quick=False)]
        ordered.extend(sorted(set(collected) - set(ordered)))
        for key in ordered:
            record = collected.get(key)
            if record is None:
                continue
            if key in main and project(main[key]) == project(record):
                skipped += 1
                continue
            store.append_cell(spec, record)
            appended += 1
    return {"appended": appended, "skipped": skipped,
            "shard_stores": len(shard_stores)}


def run_fleet(specs: Sequence[ExperimentSpec], store: ResultStore,
              shards: int, *, quick: bool = False,
              engine: str = "python",
              retries: int = DEFAULT_RETRIES,
              backoff: float = DEFAULT_BACKOFF,
              kill_shard: Optional[int] = None,
              kill_after: Optional[int] = None,
              merge: bool = True) -> Dict[str, Any]:
    """One sharded sweep (see the module docstring for the protocol).

    Returns a summary; ``ok`` is False only if cells are still
    missing after the steal pass (which cannot happen unless a cell
    itself raises deterministically)."""
    start = time.perf_counter()
    root = store.root
    if kill_shard is not None and kill_after is None:
        kill_after = 1
    pending, replayed = plan_tasks(specs, store, quick)
    assigned = partition(pending, shards)
    sess = active()
    outer = nullcontext() if sess is None else sess.span(
        "fleet.run", shards=shards, pending=len(pending),
        replayed=replayed, quick=quick, engine=engine)
    waves: List[Dict[str, Any]] = []
    stolen = 0
    with outer as span:
        if span is not None:
            # Root the whole run under the session's trace id (serve
            # stamps request roots the same way): worker exports link
            # to wave spans, wave spans nest here, so a stitcher sees
            # one connected tree.
            span.meta["trace"] = sess.trace_id
        for attempt in range(retries + 1):
            work = {shard: left for shard, tasks in enumerate(assigned)
                    if (left := _remaining(specs, root, shard, tasks))}
            if not work:
                break
            wave_cm = nullcontext() if sess is None else sess.span(
                "fleet.wave", attempt=attempt, shards=len(work))
            with wave_cm as wave_span:
                # The wave span's context rides into every forked
                # worker; their exported roots link back to it, so a
                # stitched run directory shows one connected tree per
                # wave.
                trace_ctx = None if sess is None \
                    else sess.trace_context()
                failed = _run_wave(specs, root, work, attempt, engine,
                                   kill_shard, kill_after, trace_ctx)
                _merge_wave_obs(root, attempt, sorted(work), sess)
                if wave_span is not None:
                    wave_span.note(failed=failed)
            waves.append({"attempt": attempt,
                          "shards": sorted(work),
                          "cells": sum(map(len, work.values())),
                          "failed": failed})
            if not failed:
                break
            if attempt < retries:
                time.sleep(backoff * (2 ** attempt))
        # Steal pass: whatever is still missing, the supervisor runs
        # inline into the owning shard's store.
        steal_cm = nullcontext() if sess is None else sess.span(
            "fleet.steal")
        with steal_cm:
            for shard, tasks in enumerate(assigned):
                left = _remaining(specs, root, shard, tasks)
                if not left:
                    continue
                execute_shard_tasks(specs, root, shard, left,
                                    attempt=retries + 1, engine=engine)
                stolen += len(left)
        set_shard(0)
        leftover = sum(len(_remaining(specs, root, shard, tasks))
                       for shard, tasks in enumerate(assigned))
        merged = merge_shards(specs, store) if merge else None
        if span is not None:
            span.set(waves=len(waves), stolen=stolen, leftover=leftover)
        if sess is not None and sess.metrics_enabled:
            metrics = sess.metrics
            metrics.counter("fleet/cells/planned").inc(len(pending))
            metrics.counter("fleet/cells/stolen").inc(stolen)
            metrics.counter("fleet/shards/died").inc(
                sum(len(w["failed"]) for w in waves))
            if merged is not None:
                metrics.counter("fleet/cells/merged").inc(
                    merged["appended"])
    return {
        "store": str(root), "shards": shards, "quick": quick,
        "engine": engine, "planned": len(pending),
        "replayed": replayed,
        "per_shard": [len(bucket) for bucket in assigned],
        "waves": waves, "stolen": stolen, "merged": merged,
        "ok": leftover == 0,
        "wall": round(time.perf_counter() - start, 3),
    }


def fleet_status(store: ResultStore,
                 specs: Sequence[ExperimentSpec]) -> Dict[str, Any]:
    """Forensics view of a fleet root: per-shard recorded cell counts,
    lease heartbeats (cells claimed/done and last-append age — a
    stalled shard shows a growing age), plus the lease log's
    claim/done/orphan tallies."""
    events = scan_leases(store.root)
    orphans = orphaned_keys(events)
    beats = shard_heartbeats(events)
    shard_rows = []
    for path in shard_roots(store.root):
        shard_store = ResultStore(path)
        cells = sum(len(shard_store.load_cells(spec)) for spec in specs)
        try:
            number = int(path.name.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            number = None
        beat = beats.get(number, {})
        shard_rows.append({
            "shard": path.name, "cells": cells,
            "claimed": beat.get("claimed", 0),
            "done": beat.get("done", 0),
            "last_age": beat.get("last_age"),
        })
    return {
        "store": str(store.root),
        "shards": shard_rows,
        "leases": {
            "events": len(events),
            "claims": sum(e["event"] == "claim" for e in events),
            "done": sum(e["event"] == "done" for e in events),
            "orphaned": [{"spec": spec, "key": key}
                         for spec, key in orphans],
        },
    }
