"""Deterministic-field store comparison: the fleet's byte-identity gate.

A fleet run must be indistinguishable from a serial ``lab run`` on
every deterministic field — same cells, same bits, same accept
counts, same per-round layout, same extra payload.  Wall-clock,
worker count, engine, shard and host are instrumentation and are
deliberately outside the comparison, exactly as in ``lab check``.

``diff_stores`` compares both stores' cells spec by spec with
:func:`~repro.lab.store.diff_cells` — the same deterministic-field
comparison ``lab check`` uses — and reports cells missing from either
side plus field-level drift.  CI runs it between a serial store and a
sharded (and a fault-injected) fleet store; any difference is a hard
failure.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from ..lab.spec import ExperimentSpec
from ..lab.store import ResultStore, diff_cells


def diff_stores(specs: Sequence[ExperimentSpec], store_a: ResultStore,
                store_b: ResultStore) -> Dict[str, Any]:
    """Compare two stores on the deterministic fields, spec by spec."""
    entries: List[Dict[str, Any]] = []
    ok = True
    for spec in specs:
        cells_a = store_a.load_cells(spec)
        cells_b = store_b.load_cells(spec)
        diff = diff_cells(cells_a, cells_b)
        spec_ok = not (diff["only_in_a"] or diff["only_in_b"]
                       or diff["drift"])
        ok = ok and spec_ok
        entries.append({"spec": spec.name, "ok": spec_ok,
                        "cells": len(set(cells_a) | set(cells_b)),
                        **diff})
    return {"ok": ok, "a": str(store_a.root), "b": str(store_b.root),
            "specs": entries}


def render_diff(report: Dict[str, Any]) -> List[str]:
    lines = [f"fleet diff {report['a']} vs {report['b']}"]
    for entry in report["specs"]:
        flag = "ok" if entry["ok"] else "FAIL"
        lines.append(f"  [{flag:>4}] {entry['spec']}: "
                     f"{entry['cells']} cells")
        for key in entry["only_in_a"]:
            lines.append(f"         only in A: {key}")
        for key in entry["only_in_b"]:
            lines.append(f"         only in B: {key}")
        for drift in entry["drift"]:
            lines.append(f"         drift {drift['cell']}: "
                         f"{drift['fields']} a={drift['a']} "
                         f"b={drift['b']}")
    lines.append(f"stores {'MATCH' if report['ok'] else 'DIFFER'} "
                 f"on deterministic fields")
    return lines
