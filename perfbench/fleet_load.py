"""The fleet-sweep workload: ``python -m repro fleet run --shards 2``
over every registered spec into a fresh store.

Each sweep's store is pre-seeded from the committed store
(``benchmarks/lab_store``) with the cells whose committed wall exceeds
:data:`PRESEED_WALL_S`, so the sweep computes the remaining cells.
Every merged cell is then compared with the committed store through
``repro.fleet.diff_stores``.  Set-up time is a ``fleet run`` over a
copy of the complete committed store: every cell replays, nothing is
computed.
"""

from __future__ import annotations

import json
import random
import resource
import shutil
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (ROOT, BenchFailure, context_build_seconds,
                    descendants, duration, load_spans, mean, median,
                    program_env, repro_command, runner_layers, tail,
                    write_obs_run)

COMMITTED = ROOT / "benchmarks" / "lab_store"
#: Committed cells slower than this are pre-seeded, not recomputed.
PRESEED_WALL_S = 5.0
SHARDS = 2
TAIL_PCT = 90.0
SETUP_REPEATS = 3
MIN_SWEEPS = 2


def _specs():
    from repro.lab.spec import get_specs
    return get_specs()


def _store(root: Path):
    from repro.lab.store import ResultStore
    return ResultStore(root)


def preseed(root: Path, complete: bool = False) -> int:
    """Copy committed cells into a fresh store at ``root``: the slow
    ones, or all of them (``complete``).  Returns the cell count."""
    from repro.fleet.plan import spec_tasks
    if root.exists():
        shutil.rmtree(root)
    source, target = _store(COMMITTED), _store(root)
    root.mkdir(parents=True)
    copied = 0
    for index, spec in enumerate(_specs()):
        cells = source.load_cells(spec)
        for task in spec_tasks(spec, index, quick=False):
            record = cells.get(task.key)
            if record is not None and (complete
                                       or record["wall"] > PRESEED_WALL_S):
                target.append_cell(spec, record)
                copied += 1
    return copied


def fleet_args(root: Path, order: List[str]) -> List[str]:
    args = ["fleet", "run", "--shards", str(SHARDS), "--store", str(root),
            "--json"]
    for name in order:
        args.extend(["--spec", name])
    return args


def spec_order(seed: int) -> List[str]:
    """The seed's permutation of the registered spec names.  ``fleet
    run`` puts ``--spec`` names back into registry order, so the
    permutation reaches the command line but not the partition."""
    names = [spec.name for spec in _specs()]
    random.Random(seed).shuffle(names)
    return names


def run_fleet(root: Path, order: List[str],
              trace_dir: Optional[Path] = None) -> Dict[str, Any]:
    """One ``fleet run``: its wall from spawn to exit, its JSON
    summary, and the spawn time on the perf_counter and epoch clocks
    (the lease log stamps epoch time)."""
    spawned_epoch = time.time()
    spawned = time.perf_counter()
    proc = subprocess.run(repro_command(fleet_args(root, order), trace_dir),
                          env=program_env(), capture_output=True,
                          text=True, timeout=170)
    wall = time.perf_counter() - spawned
    if proc.returncode != 0:
        raise BenchFailure(f"fleet run exited {proc.returncode}: "
                           f"{proc.stderr[-400:]}")
    return {"root": root, "wall": wall, "summary": json.loads(proc.stdout),
            "spawned": spawned, "spawned_epoch": spawned_epoch}


def cell_latencies_ms(root: Path, spawned_epoch: float) -> List[float]:
    """Time to result of every computed cell: from spawning ``fleet
    run`` to the cell's ``done`` lease.  (A cell's own compute wall is
    no steady latency: the grid's cell times are clustered, so their
    median jumps between clusters from run to run.)"""
    from repro.fleet.leases import scan_leases
    return [(event["ts"] - spawned_epoch) * 1000
            for event in scan_leases(root) if event["event"] == "done"]


def check_store(root: Path) -> Tuple[int, List[str]]:
    """Cells of the merged store that differ from (or are missing
    against) the committed store, per ``fleet diff``."""
    from repro.fleet import diff_stores
    report = diff_stores(_specs(), _store(COMMITTED), _store(root))
    problems = []
    bad = 0
    for entry in report["specs"]:
        count = (len(entry["only_in_a"]) + len(entry["only_in_b"])
                 + len(entry["drift"]))
        if count:
            bad += count
            problems.append(f"{entry['spec']}: {count} cells differ")
    return bad, problems


def setup_times(out: Path, order: List[str]) -> List[float]:
    complete = out / "complete"
    total = preseed(complete, complete=True)
    times = []
    for _ in range(SETUP_REPEATS):
        replay = run_fleet(complete, order)
        summary = replay["summary"]
        if summary["planned"] != 0 or summary["replayed"] != total:
            raise BenchFailure(f"replay-only fleet run planned "
                               f"{summary['planned']} cells")
        times.append(replay["wall"])
    return times


def sweeps(out: Path, order: List[str], seconds: float,
           trace_dir: Optional[Path] = None, count: Optional[int] = None
           ) -> List[Dict[str, Any]]:
    """Fresh pre-seeded sweeps until ``seconds`` have passed (at least
    :data:`MIN_SWEEPS`), or exactly ``count`` sweeps."""
    done: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        if count is not None and len(done) >= count:
            break
        if count is None and len(done) >= MIN_SWEEPS \
                and time.perf_counter() - start >= seconds:
            break
        root = out / f"sweep-{len(done)}"
        preseed(root)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        sweep = run_fleet(root, order, trace_dir)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        sweep["cpu_s"] = (after.ru_utime - before.ru_utime
                          + after.ru_stime - before.ru_stime)
        done.append(sweep)
    return done


def end_to_end(setup: List[float], done: List[Dict[str, Any]]
               ) -> Dict[str, float]:
    latencies = [ms for sweep in done
                 for ms in cell_latencies_ms(sweep["root"],
                                             sweep["spawned_epoch"])]
    walls = [sweep["wall"] for sweep in done]
    return {
        "setup_s": median(setup),
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": tail(latencies, TAIL_PCT),
        "requests_per_s": median(sweep["summary"]["planned"] / sweep["wall"]
                                 for sweep in done),
        "sweep_s": median(walls),
        # ru_maxrss of waited-for descendants: supervisors and shards.
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def untraced_counters(done: List[Dict[str, Any]]) -> Dict[str, float]:
    summaries = [sweep["summary"] for sweep in done]
    return {
        "fleet.waves": mean(len(s["waves"]) for s in summaries),
        "fleet.cells_stolen": mean(s["stolen"] for s in summaries),
        "fleet.cells_replayed": mean(s["replayed"] for s in summaries),
        "fleet.cpu_s_per_sweep": mean(sweep["cpu_s"] for sweep in done),
    }


def traced_layers(sweep: Dict[str, Any],
                  rows: List[Dict[str, Any]]) -> Dict[str, float]:
    kids = descendants(rows)

    def named(name: str) -> List[Dict[str, Any]]:
        return [row for row in rows if row["name"] == name]

    def total(name: str) -> float:
        return sum(duration(row) for row in named(name))

    def self_time(row: Dict[str, Any]) -> float:
        return duration(row) - sum(duration(child)
                                   for child in kids.get(row["id"], ()))

    runs = named("fleet.run")
    if len(runs) != 1:
        raise BenchFailure(f"expected one fleet.run span, saw {len(runs)}")
    fleet_run = runs[0]
    fork_join = imbalance = unattributed = 0.0
    waves = named("fleet.wave")
    for wave in waves:
        shards = [child for child in kids.get(wave["id"], ())
                  if child["name"] == "fleet.shard"]
        busy = [duration(shard) for shard in shards]
        if not busy:
            continue
        fork_join += duration(wave) - max(busy)
        imbalance += max(busy) / mean(busy)
        slowest = max(shards, key=duration)
        unattributed += self_time(slowest)
    unattributed += self_time(fleet_run)
    cells = named("fleet.cell")
    in_shards = sum(child["name"] == "lab.store.load_cells"
                    for shard in named("fleet.shard")
                    for child in kids.get(shard["id"], ()))
    started = fleet_run["start"] - sweep["spawned"]
    layers = {
        "lab.runner.compute_cell_sum_s": total("fleet.cell"),
        "lab.runner.compute_cell_max_s":
            max((duration(row) for row in cells), default=0.0),
        "ledger.guard_s": total("ledger.guard_record_bounds"),
        "lab.store.load_cells_calls": float(len(named("lab.store.load_cells"))),
        "lab.store.shard_load_cells_per_cell":
            in_shards / max(len(cells), 1),
        "lab.store.load_cells_s": total("lab.store.load_cells"),
        "lab.store.append_cell_s": total("lab.store.append_cell"),
        "fleet.leases.append_lease_calls":
            float(len(named("fleet.leases.append_lease"))),
        "fleet.leases.append_lease_s": total("fleet.leases.append_lease"),
        "fleet.plan.plan_s": total("fleet.plan.plan_tasks"),
        "fleet.supervisor.merge_s": total("fleet.supervisor.merge_shards"),
        "fleet.worker.shard_busy_s": total("fleet.shard"),
        "fleet.shard_imbalance": imbalance / max(len(waves), 1),
        "fleet.supervisor.fork_join_s": fork_join,
        "fleet.process_start_s": started,
        "fleet.process_exit_s": sweep["spawned"] + sweep["wall"]
        - fleet_run["end"],
        "core.context.build_ms":
            context_build_seconds(rows) * 1000 / max(len(cells), 1),
        "bench.unattributed_ratio": unattributed / sweep["wall"],
    }
    layers.update(runner_layers(rows))
    return layers


def run(seed: int, seconds: float, trace: bool, out: Path
        ) -> Tuple[Dict[str, float], int, int, Dict[str, Any]]:
    order = spec_order(seed)
    if not trace:
        setup = setup_times(out, order)
        done = sweeps(out, order, seconds)
        metrics = end_to_end(setup, done)
        counters = untraced_counters(done)
    else:
        done = sweeps(out / "plain", order, 0, count=1)
        trace_dir = out / "spans"
        traced = sweeps(out / "traced", order, 0, trace_dir, count=1)
        rows = load_spans(trace_dir)
        counters = untraced_counters(done)
        metrics = dict(counters)
        metrics.update(traced_layers(traced[0], rows))
        metrics["bench.trace_overhead_ratio"] = \
            traced[0]["wall"] / done[0]["wall"]
        write_obs_run(out / "obs", _client_span(traced[0], rows) + rows,
                      {"workload": "fleet-sweep", "seed": seed,
                       "spec_order": order, "metrics": metrics})
        done = done + traced
    attempted = failed = 0
    problems: List[str] = []
    for sweep in done:
        planned = sweep["summary"]["planned"]
        bad, found = check_store(sweep["root"])
        if not sweep["summary"]["ok"]:
            found.append("fleet run reported missing cells")
            bad = max(bad, 1)
        attempted += planned
        failed += bad
        problems.extend(found)
    record = {"sweeps": len(done), "cells": attempted,
              "problems": problems[:5], "spec_order": order,
              "untraced": counters,
              "summaries": [{k: sweep["summary"][k]
                             for k in ("planned", "replayed", "per_shard",
                                       "stolen", "wall")}
                            for sweep in done]}
    return metrics, attempted, failed, record


def _client_span(sweep: Dict[str, Any],
                 rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The benchmark's view of the traced sweep (spawn to exit), as the
    root the supervisor's top-level spans hang under."""
    span = {"name": "bench.client.sweep", "id": "client.sweep",
            "parent": None, "trace": "fleet-process", "attrs": {},
            "pid": 0, "start": sweep["spawned"],
            "end": sweep["spawned"] + sweep["wall"]}
    for row in rows:
        if row.get("parent") is None and row["name"] in ("fleet.run",
                                                         "bench.import"):
            row["parent"] = span["id"]
    return [span]
