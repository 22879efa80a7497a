"""The ``python -m repro ledger`` command group.

``ledger check``   the CI gate: every declared bound vs the committed
                   store (per phase, per channel, per cell).  Exit 1
                   on any violated inequality, any missing
                   declaration, or any unchecked headline bound.
                   ``--live`` additionally executes one honest run
                   per sweep spec and checks the recomputed per-phase
                   bits against the absolute phase bounds.
``ledger table``   regenerate the markdown cost tables
                   (``docs/COSTS.md``; byte-stable — ``--check``
                   verifies an existing file matches without
                   writing).
``ledger fit``     print the fitted leading constants and per-cell
                   slack of every fitted bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from ..lab.spec import KIND_SWEEP, REGISTRY, get_specs
from ..lab.store import ResultStore, default_store_root
from .evaluate import CHECKED_KINDS, check_live, check_store

#: Default output path for the generated cost tables, relative to the
#: repository root (the parent of the default store's ``benchmarks``).
DEFAULT_COSTS = "docs/COSTS.md"


def _store(args: argparse.Namespace) -> ResultStore:
    return ResultStore(Path(args.store) if args.store else None)


def _specs(args: argparse.Namespace):
    return [spec for spec in get_specs(args.spec or None)
            if spec.kind in CHECKED_KINDS]


def render_check(report) -> List[str]:
    lines = [f"ledger check ({report['declarations']} declarations, "
             f"tol {report['tol']} on fitted bounds) "
             f"-> {report['store']}"]
    for entry in report["specs"]:
        if entry["status"] != "checked":
            lines.append(f"  [{'ok' if entry['ok'] else 'FAIL':>4}] "
                         f"{entry['spec']}: {entry['status']}")
            continue
        worst = max((s["cells"] for s in entry["series"]), default=0)
        flag = "ok" if entry["ok"] else "FAIL"
        totals = [s for s in entry["series"] if s["series"] == "total"]
        constant = totals[0]["c_fit"] if totals else None
        lines.append(
            f"  [{flag:>4}] {entry['spec']}: "
            f"{len(entry['series'])} series x {worst} cells"
            + (f", c_fit={constant}" if constant is not None else ""))
        for error in entry["errors"]:
            lines.append(f"         drift: {error}")
    for violation in report["violations"]:
        lines.append(f"  VIOLATED {violation['spec']}/"
                     f"{violation['series']}: measured "
                     f"{violation['measured']} > {violation['allowed']} "
                     f"= {violation['bound']} at n={violation['n']}")
    for key in report["missing_declarations"]:
        lines.append(f"  MISSING declaration: {key}")
    expected = report["expected_bounds"]
    lines.append(f"  headline bounds: "
                 f"{len(expected['checked'])}/{len(expected['required'])}"
                 f" checked")
    lines.append(f"ledger gate: {'PASS' if report['ok'] else 'FAIL'}")
    return lines


def cmd_ledger_check(args: argparse.Namespace) -> int:
    store = _store(args)
    report = check_store(_specs(args), store)
    if args.live:
        live = []
        for spec in REGISTRY:
            if spec.kind != KIND_SWEEP or (args.spec
                                           and spec.name not in args.spec):
                continue
            if "honest" not in spec.provers:
                # Soundness specs run cheating provers on NO
                # instances; the honest prover refuses those graphs,
                # so there is nothing to probe live.
                continue
            # Probe every quick-grid size, not just the smallest —
            # the quick grid is CI's budget, and a size is only as
            # trustworthy as its live bound check.
            for n in sorted(set(spec.quick_grid)):
                live.append(check_live(spec, n))
        report["live"] = live
        report["ok"] = report["ok"] and all(row["ok"] for row in live)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(render_check(report)))
        for row in report.get("live", ()):
            flag = "ok" if row["ok"] else "FAIL"
            print(f"  [{flag:>4}] live {row['spec']} @ n={row['n']}: "
                  f"rounds {row['round_bits']}")
    return 0 if report["ok"] else 1


def cmd_ledger_table(args: argparse.Namespace) -> int:
    from .table import render_costs
    store = _store(args)
    text = render_costs(get_specs(args.spec or None), store)
    if args.stdout:
        sys.stdout.write(text)
        return 0
    path = Path(args.output) if args.output \
        else default_store_root().parent.parent / DEFAULT_COSTS
    if args.check:
        existing = path.read_text(encoding="utf-8") \
            if path.exists() else None
        if existing == text:
            print(f"{path}: up to date")
            return 0
        print(f"{path}: stale (re-run `python -m repro ledger table`)")
        return 1
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")
    return 0


def cmd_ledger_fit(args: argparse.Namespace) -> int:
    store = _store(args)
    report = check_store(_specs(args), store)
    rows = []
    for entry in report["specs"]:
        for series in entry["series"]:
            if series["fitted"] and series["cells"]:
                rows.append({
                    "spec": entry["spec"],
                    "series": series["series"],
                    "bound": series["bound"],
                    "c_fit": series["c_fit"],
                    "cells": series["cells"],
                    "worst_slack": series["worst_slack"],
                    "ok": series["ok"],
                })
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(f"fitted leading constants ({report['store']}):")
        for row in rows:
            print(f"  {row['spec']}/{row['series']:<8} "
                  f"c_fit={row['c_fit']:<10} "
                  f"worst_slack={row['worst_slack']:<10} "
                  f"cells={row['cells']} "
                  f"bound={row['bound']}")
    return 0


def add_ledger_parser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``ledger`` command group to the top-level CLI."""
    ledger = sub.add_parser(
        "ledger", help="symbolic cost bounds checked against measured "
                       "bits")
    ledger_sub = ledger.add_subparsers(dest="ledger_command",
                                       required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spec", action="append", metavar="NAME",
                       help="restrict to this spec (repeatable; "
                            "default: all cost specs)")
        p.add_argument("--store", metavar="DIR",
                       help=f"result store root (default: "
                            f"{default_store_root()})")

    p = ledger_sub.add_parser(
        "check", help="bound inequalities vs the committed store "
                      "(the CI gate)")
    common(p)
    p.add_argument("--live", action="store_true",
                   help="also execute one honest run per sweep spec "
                        "and check its recomputed per-phase bits")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(func=cmd_ledger_check)

    p = ledger_sub.add_parser(
        "table", help="regenerate the markdown cost tables")
    common(p)
    p.add_argument("--output", metavar="FILE",
                   help=f"output path (default: <repo>/{DEFAULT_COSTS})")
    p.add_argument("--stdout", action="store_true",
                   help="print the tables instead of writing a file")
    p.add_argument("--check", action="store_true",
                   help="verify the existing file matches; exit 1 "
                        "if stale")
    p.set_defaults(func=cmd_ledger_table)

    p = ledger_sub.add_parser(
        "fit", help="fitted leading constants of every fitted bound")
    common(p)
    p.add_argument("--json", action="store_true",
                   help="machine-readable rows")
    p.set_defaults(func=cmd_ledger_fit)
