"""Deterministic expansion and partitioning of lab grids into shards.

A fleet run executes exactly the cells a serial ``lab run`` would:
for every spec, the quick grid first, then (unless quick-only) the
full grid, with duplicate cell keys collapsed to their first
occurrence.  :func:`spec_tasks` reproduces that order exactly, so the
canonical task list — and therefore the merged store — is a pure
function of the spec registry, independent of shard count.

Partitioning is plain round-robin (:func:`partition`): task ``i``
belongs to shard ``i % shards``.  Because tasks are enumerated in
canonical order, the partition is deterministic too — a crashed fleet
re-plans to the identical assignment, which is what lets the lease
log and the shard-local stores act as the resume protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..lab.runner import spec_cells
from ..lab.spec import ExperimentSpec
from ..lab.store import ResultStore, cell_key


@dataclass(frozen=True)
class Task:
    """One plannable cell: a spec (by index into the run's spec list)
    and the (n, prover, trials) point, with its store key."""

    spec_index: int
    spec_name: str
    n: int
    prover: str
    trials: int
    key: str


def spec_tasks(spec: ExperimentSpec, spec_index: int,
               quick: bool) -> List[Task]:
    """One spec's cells in serial ``lab run`` order (quick grid, then
    the full grid unless ``quick``), deduplicated by cell key."""
    cells = list(spec_cells(spec, True))
    if not quick:
        cells.extend(spec_cells(spec, False))
    tasks: List[Task] = []
    seen = set()
    for n, prover, trials in cells:
        key = cell_key(n, prover, trials, spec.seed)
        if key in seen:
            continue
        seen.add(key)
        tasks.append(Task(spec_index, spec.name, n, prover, trials, key))
    return tasks


def plan_tasks(specs: Sequence[ExperimentSpec], store: ResultStore,
               quick: bool) -> Tuple[List[Task], int]:
    """The canonical pending-task list: every cell the run needs,
    minus cells the main store already has (resume-from-store, same
    as serial ``lab run``).  Returns ``(pending, replayed)``."""
    pending: List[Task] = []
    replayed = 0
    for index, spec in enumerate(specs):
        stored = store.load_cells(spec)
        for task in spec_tasks(spec, index, quick):
            if task.key in stored:
                replayed += 1
            else:
                pending.append(task)
    return pending, replayed


def partition(tasks: Sequence[Task], shards: int) -> List[List[Task]]:
    """Round-robin assignment: task ``i`` goes to shard ``i % shards``."""
    if shards < 1:
        raise ValueError(f"need at least one shard (got {shards})")
    buckets: List[List[Task]] = [[] for _ in range(shards)]
    for index, task in enumerate(tasks):
        buckets[index % shards].append(task)
    return buckets
