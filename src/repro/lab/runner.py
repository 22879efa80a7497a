"""The sweep runner: execute experiment specs, record cells, resume.

One **cell** is the atom of lab work: a (size, prover, trials, seed)
point of a spec.  The runner executes cells with the deterministic
``seed + trial_index`` streams of :func:`repro.core.runner.run_trials`,
normalizes each record through a JSON round-trip (so fresh and
replayed records compare bit-for-bit), and appends them to the result
store.  Cells already in the store are skipped — re-running a
partially recorded sweep only pays for the missing cells.

A spec's cells run one after another in this process; the parallel
path over the same cell grid is the fleet (``fleet run --shards N``,
:mod:`repro.fleet`), whose merged store equals a serial ``lab run`` on
every deterministic field.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.model import Instance, Protocol, Prover
from ..core.report import execution_cost
from ..core.runner import run_protocol, run_trials
from ..obs.session import active
from .spec import (ExperimentSpec, GRAPHS, KIND_COLLISION, KIND_EDGECHECK,
                   KIND_LEDGER, KIND_NETSIM_EQUIV, KIND_NETSIM_FAULTS,
                   KIND_PACKING, KIND_SWEEP, PROTOCOLS, PROVERS)
from .store import ResultStore, cell_key

#: Planted-deviation node for the E10 edge-equality harness.
_EDGECHECK_NODES = 10
_EDGECHECK_DEVIANT = 4
#: Vector length of the E7 collision-law family (the Theorem 3.2 "m").
_COLLISION_M = 8


#: Fleet provenance: which shard is recording cells in this process.
#: Serial runs (and fleet supervisors) are shard 0; fleet workers call
#: :func:`set_shard` after forking.  Like wall/workers, shard and host
#: are instrumentation — never part of the deterministic field set.
_SHARD = 0


def set_shard(shard: int) -> None:
    """Mark every record produced by this process as ``shard``."""
    global _SHARD
    _SHARD = shard


def current_shard() -> int:
    return _SHARD


def _hostname() -> str:
    import socket
    return socket.gethostname()


@dataclass
class CellResult:
    """One cell's outcome: its (normalized) record, and whether it was
    replayed from the store instead of executed."""

    spec_name: str
    key: str
    record: Dict[str, Any]
    skipped: bool


def _normalize(record: Dict[str, Any]) -> Dict[str, Any]:
    """JSON round-trip so in-memory and store-loaded records carry
    identical types (tuples become lists, keys become strings)."""
    return json.loads(json.dumps(record, sort_keys=True, default=str))


def _base_record(spec: ExperimentSpec, n: int, size: int, prover: str,
                 trials: int) -> Dict[str, Any]:
    return {
        "kind": spec.kind, "spec": spec.name, "spec_hash": spec.hash,
        "n": n, "size": size, "prover": prover,
        "trials": trials, "seed": spec.seed,
        "accepted": 0, "bits": 0, "round_bits": [], "extra": {},
        "workers": 1, "shard": _SHARD, "host": _hostname(),
    }


def _round_bits(protocol: Protocol, instance: Instance,
                result) -> List[int]:
    """Per-round bits at node 0 — the 'bits per phase' provenance of a
    cell, via the shared recompute all cost gates use."""
    return list(execution_cost(protocol, instance, result).round_bits)


def _sweep_cell(spec: ExperimentSpec, n: int, prover_key: str,
                trials: int, engine: str) -> Dict[str, Any]:
    protocol = PROTOCOLS[spec.protocol](n)
    instance = GRAPHS[spec.graph](n)
    prover: Prover = PROVERS[prover_key](protocol)
    from ..core.context import InstanceContext
    context = InstanceContext(instance, protocol)
    cost_run = run_protocol(protocol, instance, prover,
                            random.Random(spec.seed), context=context)
    estimate = run_trials(protocol, instance, prover, trials, spec.seed,
                          context=context, engine=engine)
    record = _base_record(spec, n, instance.n, prover_key, trials)
    record.update(
        accepted=estimate.accepted,
        bits=cost_run.max_cost_bits,
        round_bits=_round_bits(protocol, instance, cost_run),
        # provenance, like wall/workers: the engine that actually ran
        # (estimate.engine reports the fallback when numpy is absent).
        engine=estimate.engine,
    )
    return record


def _packing_cell(spec: ExperimentSpec, n: int) -> Dict[str, Any]:
    from ..lowerbound import lower_bound_table
    row = lower_bound_table([n])[0]
    record = _base_record(spec, n, n, "analytic", 0)
    record.update(
        bits=row.min_simple_length,
        extra={"log2_family_size": round(row.log2_family_size, 6),
               "loglog_n": round(row.loglog_n, 6)},
    )
    return record


def _collision_cell(spec: ExperimentSpec, n: int,
                    pairs: int) -> Dict[str, Any]:
    """Exact collision-seed counts (brute force over all seeds) for
    ``pairs`` random vector pairs at the prime ≥ ``n``."""
    from ..hashing import LinearHashFamily, collision_seed_count, next_prime
    p = next_prime(n)
    family = LinearHashFamily(m=_COLLISION_M, p=p)
    rng = random.Random(spec.seed + n)
    worst = 0
    for _ in range(pairs):
        a = [rng.randrange(p) for _ in range(_COLLISION_M)]
        b = [rng.randrange(p) for _ in range(_COLLISION_M)]
        if a == b:
            continue
        worst = max(worst, collision_seed_count(family, a, b))
    record = _base_record(spec, n, n, "exact", pairs)
    record.update(
        bits=worst,
        extra={"p": p, "m": _COLLISION_M},
    )
    return record


def _edgecheck_cell(spec: ExperimentSpec, k: int,
                    trials: int) -> Dict[str, Any]:
    """E10's RPLS baseline: hashed vs deterministic edge equality at
    value width ``k``, with one planted deviation."""
    from ..graphs import cycle_graph
    from ..network import (DeterministicEquality, HashedEquality,
                           detection_probability)
    graph = cycle_graph(_EDGECHECK_NODES)
    det = DeterministicEquality(k)
    hashed = HashedEquality(k)
    values = {v: (1 << (k - 1)) | 3 for v in graph.vertices}
    values[_EDGECHECK_DEVIANT] ^= 1
    det_trials = min(10, trials)
    det_rate = detection_probability(graph, values, det, det_trials,
                                     random.Random(k))
    hash_rate = detection_probability(graph, values, hashed, trials,
                                      random.Random(k))
    # ``size`` is the scaling parameter of this experiment — the value
    # width k, not the (fixed) node count — so the fitter sees k.
    record = _base_record(spec, k, k, "hashed", trials)
    record.update(
        accepted=round(hash_rate * trials),
        bits=hashed.message_bits,
        extra={"nodes": _EDGECHECK_NODES,
               "det_bits": det.message_bits,
               "det_detections": round(det_rate * det_trials),
               "det_trials": det_trials},
    )
    return record


def _netsim_equiv_cell(spec: ExperimentSpec, n: int, prover_key: str,
                       trials: int) -> Dict[str, Any]:
    """E13's equivalence cell: ``trials`` paired executions (abstract
    runner vs faults-off netsim) on identically-seeded rngs; the
    record counts equivalent trials and carries the substrate's
    overhead counters."""
    from ..core import execution_to_jsonable
    from ..netsim import run_netsim
    protocol = PROTOCOLS[spec.protocol](n)
    instance = GRAPHS[spec.graph](n)
    from ..core.context import InstanceContext
    context = InstanceContext(instance, protocol)
    accepted = equivalent = 0
    bits = overhead = crosscheck = 0
    for t in range(trials):
        prover = PROVERS[prover_key](protocol)
        abstract = run_protocol(protocol, instance, prover,
                                random.Random(spec.seed + t),
                                context=context)
        prover = PROVERS[prover_key](protocol)
        net = run_netsim(protocol, instance, prover,
                         random.Random(spec.seed + t),
                         net_seed=spec.seed + t, context=context,
                         trace=False)
        accepted += net.accepted
        same = (net.accepted == abstract.accepted
                and net.node_cost_bits == abstract.node_cost_bits
                and json.dumps(execution_to_jsonable(
                    protocol, instance, net), sort_keys=True)
                == json.dumps(execution_to_jsonable(
                    protocol, instance, abstract), sort_keys=True))
        equivalent += same
        if t == 0:
            bits = net.max_cost_bits
            overhead = net.overhead_bits
            crosscheck = net.crosscheck_bits
    record = _base_record(spec, n, instance.n, prover_key, trials)
    record.update(
        accepted=accepted,
        bits=bits,
        extra={"equivalent": equivalent,
               "overhead_bits": overhead,
               "crosscheck_bits": crosscheck},
    )
    return record


def _netsim_faults_cell(spec: ExperimentSpec, n: int, prover_key: str,
                        trials: int) -> Dict[str, Any]:
    """E13's fault-matrix cell: acceptance/detection rates per fault
    configuration, with the hashed-equality analytic bound."""
    from ..netsim.harness import fault_matrix
    matrix = fault_matrix(spec.seed, trials=trials, n=n)
    baseline = matrix["rows"][0]
    record = _base_record(spec, n, n, prover_key, trials)
    record.update(
        accepted=round(baseline["accept_rate"] * trials),
        bits=sum(row["ok"] for row in matrix["rows"]),
        extra={"rows": [{k: v for k, v in row.items()}
                        for row in matrix["rows"]],
               "all_ok": matrix["all_ok"]},
    )
    return record


def _ledger_cell(spec: ExperimentSpec, n: int) -> Dict[str, Any]:
    """E14's cell: re-run the symbolic ledger check over the committed
    store and record its verdict — passing series, checked cells, the
    fitted headline constants.  The ledger reads only the *other*
    specs' cells (its own kind is not a checked kind), so the record
    is a pure function of code + committed store."""
    from ..ledger.evaluate import default_check
    report = default_check()
    constants: Dict[str, Any] = {}
    required = set(report["expected_bounds"]["required"])
    series_ok = 0
    cells = 0
    for entry in report["specs"]:
        for series in entry["series"]:
            series_ok += bool(series["ok"])
            cells += series["cells"]
            if entry["spec"] in required and series["series"] == "total":
                constants[entry["spec"]] = (
                    series["c_fit"] if series["c_fit"] is not None
                    else "absolute")
    record = _base_record(spec, n, n, "ledger", 0)
    record.update(
        accepted=series_ok,
        bits=cells,
        extra={
            "ok": report["ok"],
            "violations": len(report["violations"]),
            "missing_declarations": report["missing_declarations"],
            "declarations": report["declarations"],
            "headline_required": len(required),
            "headline_checked": len(
                report["expected_bounds"]["checked"]),
            "constants": constants,
        },
    )
    return record


def compute_cell(spec: ExperimentSpec, n: int, prover_key: str,
                 trials: int, engine: str = "python") -> Dict[str, Any]:
    """Execute one cell and return its normalized record; ``wall`` is
    the cell's wall time, measured here once for every kind.

    ``engine`` selects the trial engine for sweep cells (the other
    kinds run analytic or netsim code where it does not apply).  The
    engines are byte-equivalent, so records differ only in the
    ``engine`` provenance field.
    """
    start = time.perf_counter()
    if spec.kind == KIND_SWEEP:
        record = _sweep_cell(spec, n, prover_key, trials, engine)
    elif spec.kind == KIND_PACKING:
        record = _packing_cell(spec, n)
    elif spec.kind == KIND_COLLISION:
        record = _collision_cell(spec, n, trials)
    elif spec.kind == KIND_EDGECHECK:
        record = _edgecheck_cell(spec, n, trials)
    elif spec.kind == KIND_NETSIM_EQUIV:
        record = _netsim_equiv_cell(spec, n, prover_key, trials)
    elif spec.kind == KIND_NETSIM_FAULTS:
        record = _netsim_faults_cell(spec, n, prover_key, trials)
    elif spec.kind == KIND_LEDGER:
        record = _ledger_cell(spec, n)
    else:  # pragma: no cover - ExperimentSpec validates kinds
        raise ValueError(f"unknown spec kind {spec.kind!r}")
    record["wall"] = round(time.perf_counter() - start, 6)
    return _normalize(record)


def guard_record_bounds(spec: ExperimentSpec,
                        record: Dict[str, Any]) -> None:
    """Pre-commit bound guard: refuse to append a fresh fit-prover
    sweep cell whose per-phase bits violate the declaration's absolute
    phase bounds.

    This is the ``ledger check --live`` probe folded into the write
    path — a newly added grid size is bound-checked *before* its cell
    ever reaches the store, so a mis-declared protocol cannot commit a
    baseline the ledger would then have to reject.  Records the ledger
    does not cover (non-sweep kinds, adversary provers, undeclared
    protocols) pass through untouched; the store-wide ``ledger check``
    owns those verdicts.
    """
    from ..ledger.evaluate import check_record_bounds
    verdict = check_record_bounds(spec, record)
    if verdict is not None and not verdict["ok"]:
        bad = [f"{p['phase']}: {p['measured']} > {p['allowed']}"
               for p in verdict["phases"] if not p["ok"]]
        detail = "; ".join(bad) or verdict.get("error", "bound check failed")
        raise ValueError(
            f"{spec.name} n={record['size']} violates its declared "
            f"absolute phase bounds before commit ({detail}); fix the "
            f"declaration or the protocol before recording this cell")


def spec_cells(spec: ExperimentSpec,
               quick: bool) -> List[Tuple[int, str, int]]:
    """The (n, prover, trials) cells a grid expands to."""
    trials = spec.cell_trials(quick)
    return [(n, prover, trials)
            for n in spec.sizes(quick)
            for prover in spec.provers]


def run_spec(spec: ExperimentSpec, store: Optional[ResultStore] = None, *,
             quick: bool = False, resume: bool = True,
             engine: str = "python") -> List[CellResult]:
    """Execute one spec's grid, recording cells into ``store``.

    With a store and ``resume`` (the default), cells whose key is
    already recorded are returned as ``skipped`` replays instead of
    re-executing.  With ``store=None`` every cell is computed fresh
    and nothing is written — the regression gate's comparison mode.
    """
    stored = store.load_cells(spec) if (store and resume) else {}
    sess = active()
    outer = nullcontext() if sess is None else sess.span(
        "lab.run_spec", spec=spec.name, kind=spec.kind, seed=spec.seed,
        quick=quick)
    results: List[CellResult] = []
    with outer as span:
        fresh: Dict[str, Dict[str, Any]] = {}
        for n, prover_key, trials in spec_cells(spec, quick):
            key = cell_key(n, prover_key, trials, spec.seed)
            if key in stored:
                results.append(CellResult(spec.name, key, stored[key],
                                          True))
                continue
            if key not in fresh:
                with (nullcontext() if sess is None else
                      sess.span("lab.cell", spec=spec.name, n=n,
                                prover=prover_key, trials=trials)):
                    record = compute_cell(spec, n, prover_key, trials,
                                          engine=engine)
                fresh[key] = record
                if store is not None:
                    guard_record_bounds(spec, record)
                    store.append_cell(spec, record)
            results.append(CellResult(spec.name, key, fresh[key], False))
        ran = sum(not r.skipped for r in results)
        if span is not None:
            span.set(cells=len(results), ran=ran,
                     skipped=len(results) - ran)
        if sess is not None and sess.metrics_enabled:
            metrics = sess.metrics
            metrics.counter("lab/cells/ran").inc(ran)
            metrics.counter("lab/cells/skipped").inc(len(results) - ran)
    return results


def run_specs(specs, store: Optional[ResultStore] = None, *,
              quick: bool = False, full: bool = True,
              resume: bool = True,
              engine: str = "python") -> Dict[str, Any]:
    """Run many specs; by default both the quick grid (the CI
    comparison cells) and the full grid (the fitter's curve) so one
    ``lab run`` produces a complete baseline.  ``resume=False``
    re-executes and re-appends every cell (last record wins) — the
    ``lab run --refresh`` path for re-recording cells whose inputs
    changed out from under them (e.g. the E14 ledger cell after the
    committed store grows).  Returns a summary."""
    summary: Dict[str, Any] = {"specs": [], "ran": 0, "skipped": 0,
                               "wall": 0.0}
    for spec in specs:
        start = time.perf_counter()
        results: List[CellResult] = []
        results.extend(run_spec(spec, store, quick=True, resume=resume,
                                engine=engine))
        if full and not quick:
            results.extend(run_spec(spec, store, quick=False,
                                    resume=resume, engine=engine))
        seen = set()
        deduped = [r for r in results
                   if not (r.key in seen or seen.add(r.key))]
        ran = sum(not r.skipped for r in deduped)
        skipped = sum(r.skipped for r in deduped)
        summary["specs"].append({
            "spec": spec.name, "hash": spec.hash,
            "cells": len(deduped), "ran": ran, "skipped": skipped,
            "wall": round(time.perf_counter() - start, 3),
        })
        summary["ran"] += ran
        summary["skipped"] += skipped
        summary["wall"] += time.perf_counter() - start
    summary["wall"] = round(summary["wall"], 3)
    sess = active()
    if sess is not None and sess.metrics_enabled:
        sess.metrics.timer("lab/seconds/specs").inc(summary["wall"])
    return summary


def fit_points(spec: ExperimentSpec,
               cells: Dict[str, Dict[str, Any]]
               ) -> List[Tuple[int, int]]:
    """The (size, bits) curve of a spec's fit series: full-grid cells
    of ``fit_prover`` at the full trial count, in size order."""
    points = []
    for n in spec.grid:
        key = cell_key(n, spec.fit_prover, spec.trials, spec.seed)
        record = cells.get(key)
        if record is not None:
            points.append((record["size"], record["bits"]))
    return points
