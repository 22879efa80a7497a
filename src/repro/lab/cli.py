"""The ``python -m repro lab`` command group.

``lab run``     execute specs (quick + full grids) one cell at a time,
                recording cells into the store; already-recorded cells
                are skipped (``fleet run --shards N`` is the parallel
                path over the same grid).
``lab check``   the regression gate: fresh-run the quick grid, compare
                against the committed store, render fitter verdicts
                from the stored full-grid curves.  Exit 1 on any
                deterministic drift, missing baseline, or failed
                scaling verdict.
``lab report``  regenerate the markdown report from recorded cells
                (byte-stable; ``--check`` verifies an existing file
                matches without writing).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .gate import check_specs, render_check
from .report import render_lab_report
from .runner import run_specs
from .spec import get_specs
from .store import ResultStore, default_store_root

DEFAULT_REPORT = "LAB_REPORT.md"


def _store(args: argparse.Namespace) -> ResultStore:
    return ResultStore(Path(args.store) if args.store else None)


def cmd_lab_run(args: argparse.Namespace) -> int:
    specs = get_specs(args.spec or None)
    store = _store(args)
    summary = run_specs(specs, store, quick=args.quick,
                        engine=args.engine, resume=not args.refresh)
    summary["store"] = str(store.root)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"lab run -> {store.root}")
        for entry in summary["specs"]:
            print(f"  {entry['spec']}: {entry['ran']} ran, "
                  f"{entry['skipped']} skipped "
                  f"({entry['wall']:.3f}s)")
        print(f"total: {summary['ran']} ran, {summary['skipped']} "
              f"skipped in {summary['wall']:.3f}s")
    return 0


def cmd_lab_check(args: argparse.Namespace) -> int:
    specs = get_specs(args.spec or None)
    store = _store(args)
    report = check_specs(specs, store, quick=not args.full)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("\n".join(render_check(report)))
    return 0 if report["ok"] else 1


def cmd_lab_report(args: argparse.Namespace) -> int:
    specs = get_specs(args.spec or None)
    store = _store(args)
    text = render_lab_report(specs, store)
    if args.stdout:
        sys.stdout.write(text)
        return 0
    path = Path(args.output) if args.output \
        else store.root / DEFAULT_REPORT
    if args.check:
        existing = path.read_text(encoding="utf-8") \
            if path.exists() else None
        if existing == text:
            print(f"{path}: up to date")
            return 0
        print(f"{path}: stale (re-run `python -m repro lab report`)")
        return 1
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")
    return 0


def add_lab_parser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``lab`` command group to the top-level CLI."""
    lab = sub.add_parser(
        "lab", help="experiment orchestration, result store, and "
                    "scaling-law verdicts")
    lab_sub = lab.add_subparsers(dest="lab_command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spec", action="append", metavar="NAME",
                       help="restrict to this spec (repeatable; "
                            "default: all)")
        p.add_argument("--store", metavar="DIR",
                       help=f"result store root (default: "
                            f"{default_store_root()})")

    p = lab_sub.add_parser("run", help="execute specs and record cells")
    common(p)
    p.add_argument("--quick", action="store_true",
                   help="quick grids only (CI smoke scale)")
    p.add_argument("--engine", default="python",
                   choices=["python", "numpy"],
                   help="trial engine for sweep cells (byte-equivalent; "
                        "recorded as provenance)")
    p.add_argument("--refresh", action="store_true",
                   help="re-execute cells even when already recorded "
                        "(appends; last record for a cell key wins)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable summary")
    p.set_defaults(func=cmd_lab_run)

    p = lab_sub.add_parser(
        "check", help="regression gate against the committed store")
    common(p)
    p.add_argument("--full", action="store_true",
                   help="re-run the full grids instead of quick")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(func=cmd_lab_check)

    p = lab_sub.add_parser(
        "report", help="regenerate the markdown report from the store")
    common(p)
    p.add_argument("--output", metavar="FILE",
                   help=f"report path (default: "
                        f"<store>/{DEFAULT_REPORT})")
    p.add_argument("--stdout", action="store_true",
                   help="print the report instead of writing a file")
    p.add_argument("--check", action="store_true",
                   help="verify the existing report matches; exit 1 "
                        "if stale")
    p.set_defaults(func=cmd_lab_report)
