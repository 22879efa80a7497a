"""The regression gate: ``lab check`` semantics.

Re-executes a grid fresh (the quick grid by default — CI's budget),
compares every fresh cell against the committed baseline store, and
renders the scaling-law verdicts from the stored full-grid curves:

* a **deterministic drift** — different bits, accepted counts,
  per-round layout, or extra payload for the same cell key — is a
  hard failure: the protocol's measured behavior changed;
* a **missing baseline cell** is a hard failure with a remediation
  hint (run ``lab run`` and commit the store);
* a **wall-clock drift** (a fresh cell 5× slower than its recorded
  baseline, beyond a 250 ms grace) is a *warning* only — timings are
  machine-dependent instrumentation, not reproduction targets;
* every spec with an ``expect_model`` must have its full-grid curve
  in the store, and the fitter's verdict on it must pass.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .fitter import fit_scaling
from .runner import fit_points, run_spec
from .spec import ExperimentSpec
from .store import ResultStore, diff_cells

#: Instrumentation comparison: fresh wall may exceed stored wall by
#: this factor (plus the absolute grace) before a warning is raised.
WALL_DRIFT_FACTOR = 5.0
WALL_DRIFT_GRACE = 0.25  # seconds


def _fit_report(spec: ExperimentSpec,
                stored: Dict[str, Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """The spec's scaling verdict from its stored full-grid curve, or
    a 'missing-cells' failure when the baseline lacks the curve."""
    if spec.expect_model is None:
        return None
    points = fit_points(spec, stored)
    if len(points) < len(spec.grid):
        return {"status": "missing-cells", "ok": False,
                "points": len(points), "needed": len(spec.grid),
                "hint": "run `python -m repro lab run` and commit "
                        "benchmarks/lab_store/"}
    verdict = fit_scaling(points, models=spec.fit_models,
                          expected=spec.expect_model,
                          min_ratio=spec.min_ratio)
    return {
        "status": "pass" if verdict.passes else "fail",
        "ok": verdict.passes,
        "expected": spec.expect_model,
        "best": verdict.best.model,
        "runner_up": verdict.runner_up.model,
        "coefficient": round(verdict.best.coefficient, 4),
        "best_rms": round(verdict.best.rms, 4),
        "runner_up_rms": round(verdict.runner_up.rms, 4),
        "ratio": (None if verdict.ratio == float("inf")
                  else round(verdict.ratio, 3)),
        "min_ratio": spec.min_ratio,
        "points": [[n, y] for n, y in verdict.points],
    }


def check_spec(spec: ExperimentSpec, store: ResultStore, *,
               quick: bool = True) -> Dict[str, Any]:
    """Fresh-run one spec's grid and compare against the store."""
    stored = store.load_cells(spec)
    fresh = run_spec(spec, store=None, quick=quick)
    diff = diff_cells(stored, {r.key: r.record for r in fresh})
    missing = set(diff["only_in_b"])
    drift = {entry["cell"]: entry for entry in diff["drift"]}
    cells: List[Dict[str, Any]] = []
    warnings: List[str] = []
    ok = True
    for result in fresh:
        entry: Dict[str, Any] = {"cell": result.key}
        if result.key in missing:
            entry["status"] = "missing"
            entry["hint"] = ("no baseline record; run `python -m repro "
                            "lab run` and commit benchmarks/lab_store/")
            ok = False
        elif result.key in drift:
            cell = drift[result.key]
            entry.update(status="drift", fields=cell["fields"],
                         stored=cell["a"], fresh=cell["b"])
            ok = False
        else:
            entry["status"] = "ok"
            base_wall = float(stored[result.key].get("wall", 0.0))
            fresh_wall = float(result.record.get("wall", 0.0))
            if fresh_wall > WALL_DRIFT_FACTOR * base_wall \
                    + WALL_DRIFT_GRACE:
                warnings.append(
                    f"{spec.name} {result.key}: wall {fresh_wall:.3f}s "
                    f"vs baseline {base_wall:.3f}s")
        cells.append(entry)
    fit = _fit_report(spec, stored)
    if fit is not None and not fit["ok"]:
        ok = False
    return {"spec": spec.name, "hash": spec.hash, "ok": ok,
            "cells": cells, "warnings": warnings, "fit": fit}


def check_specs(specs: Sequence[ExperimentSpec], store: ResultStore, *,
                quick: bool = True) -> Dict[str, Any]:
    """The full gate: every spec checked, one overall verdict."""
    reports = [check_spec(spec, store, quick=quick) for spec in specs]
    return {
        "ok": all(report["ok"] for report in reports),
        "store": str(store.root),
        "grid": "quick" if quick else "full",
        "specs": reports,
        "warnings": [w for report in reports
                     for w in report["warnings"]],
    }


def render_check(report: Dict[str, Any]) -> List[str]:
    """Human-readable rendering of a :func:`check_specs` report."""
    lines = [f"lab check ({report['grid']} grid) against "
             f"{report['store']}"]
    for spec_report in report["specs"]:
        flag = "PASS" if spec_report["ok"] else "FAIL"
        counts: Dict[str, int] = {}
        for cell in spec_report["cells"]:
            counts[cell["status"]] = counts.get(cell["status"], 0) + 1
        detail = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        line = f"  [{flag}] {spec_report['spec']}: {detail}"
        fit = spec_report["fit"]
        if fit is not None:
            if fit["status"] == "missing-cells":
                line += (f"; fit: missing baseline curve "
                         f"({fit['points']}/{fit['needed']} points)")
            else:
                ratio = fit["ratio"]
                line += (f"; fit: {fit['best']} "
                         f"(expected {fit['expected']}, "
                         f"ratio {'inf' if ratio is None else ratio} "
                         f">= {fit['min_ratio']}) "
                         f"{'PASS' if fit['ok'] else 'FAIL'}")
        lines.append(line)
        for cell in spec_report["cells"]:
            if cell["status"] == "drift":
                lines.append(f"    drift {cell['cell']}: "
                             f"{cell['fields']} stored={cell['stored']} "
                             f"fresh={cell['fresh']}")
            elif cell["status"] == "missing":
                lines.append(f"    missing {cell['cell']}")
    for warning in report["warnings"]:
        lines.append(f"  warn: {warning}")
    lines.append(f"overall: {'OK' if report['ok'] else 'FAIL'}")
    return lines
