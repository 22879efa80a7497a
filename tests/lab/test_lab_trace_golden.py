"""Golden trace of a small lab sweep: the lab's observability output,
pinned byte for byte.

Three quick grids — an analytic kind (E4 packing), a trial sweep
(E6, Sym/dMAM with a cheating prover) and an honest sweep on the
bounded-degree substrate (E8) — run under one observability session.
The deterministic projection of the span forest and the deterministic
metrics snapshot are compared against a checked-in JSON file, so any
change in how lab cells open their spans or publish their counters
(span nesting, order, attributes, counter totals) shows up as a diff.

Regenerate after an *intentional* change with::

    REGOLD=1 python -m pytest tests/lab/test_lab_trace_golden.py

and review the diff like any other code change.
"""

import json
import os
from pathlib import Path

import pytest

from repro import obs
from repro.lab import ResultStore, get_spec, run_specs

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "lab-trace.json"
SPECS = ("E4-packing", "E6-order-dmam", "E8-substrate-pls")


def _traced_sweep(tmp_path):
    specs = [get_spec(name) for name in SPECS]
    with obs.session() as sess:
        run_specs(specs, ResultStore(tmp_path), quick=True)
    payload = {
        "trace": json.loads(sess.tracer.to_json()),
        "metrics": sess.metrics.deterministic_snapshot(),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_lab_sweep_trace_matches_golden(tmp_path):
    text = _traced_sweep(tmp_path)
    if os.environ.get("REGOLD"):
        GOLDEN.write_text(text)
        pytest.skip(f"regenerated {GOLDEN.name}")
    assert GOLDEN.exists(), (
        f"golden file missing; run REGOLD=1 pytest {__file__}")
    assert GOLDEN.read_text() == text, (
        "the lab sweep's deterministic trace or metrics diverged from "
        "the golden file — if the change is intentional, regenerate "
        "with REGOLD=1 and review the JSON diff")
