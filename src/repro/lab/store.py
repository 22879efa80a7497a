"""Append-only, content-addressed JSONL result store.

Every number a lab experiment produces lands here as one JSON record
per line under ``benchmarks/lab_store/``, one file per spec, named
``<spec-name>-<spec-hash>.jsonl``.  Each line is one executed cell
(size × prover × trials × seed) with its deterministic measurements
(bits/node, per-round bits, accepted counts) plus wall-clock
instrumentation.  Files are append-only; on replays the *last* record
for a cell key wins.  Because the file name carries the spec's
identity hash, editing a spec's identity retires its old records
automatically.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional

from ..obs.io import append_jsonl, read_jsonl
from .spec import ExperimentSpec

#: Fields of a cell record that must be bit-identical across replays
#: (the regression gate's hard-fail set).  Wall-clock, worker count,
#: engine, shard and host are instrumentation and excluded on purpose.
DETERMINISTIC_FIELDS = ("spec", "spec_hash", "n", "size", "prover",
                        "trials", "seed", "accepted", "bits",
                        "round_bits", "extra")


def project(record: Dict[str, Any]) -> Dict[str, Any]:
    """A cell record's deterministic projection."""
    return {name: record.get(name) for name in DETERMINISTIC_FIELDS}


def diff_cells(a: Dict[str, Dict[str, Any]],
               b: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Compare two keyed cell maps on their deterministic projection:
    the one cell comparison behind ``lab check``, ``fleet diff`` and
    the fleet's shard merge.

    Returns ``only_in_a`` and ``only_in_b`` (sorted cell keys) and
    ``drift``: one ``{"cell", "fields", "a", "b"}`` entry per shared
    key whose projections differ, with the differing fields in
    :data:`DETERMINISTIC_FIELDS` order and each side's values.
    """
    drift = []
    for key in sorted(set(a) & set(b)):
        pa, pb = project(a[key]), project(b[key])
        fields = [name for name in DETERMINISTIC_FIELDS
                  if pa[name] != pb[name]]
        if fields:
            drift.append({"cell": key, "fields": fields,
                          "a": {f: pa[f] for f in fields},
                          "b": {f: pb[f] for f in fields}})
    return {"only_in_a": sorted(set(a) - set(b)),
            "only_in_b": sorted(set(b) - set(a)),
            "drift": drift}


def default_store_root() -> Path:
    """``benchmarks/lab_store`` next to the source tree when running
    from a checkout, else under the current working directory."""
    repo_root = Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / "lab_store"
    return Path.cwd() / "benchmarks" / "lab_store"


def cell_key(n: int, prover: str, trials: int, seed: int) -> str:
    """The cell's identity inside a spec's store file."""
    return f"n={n}/prover={prover}/trials={trials}/seed={seed}"


def record_key(record: Dict[str, Any]) -> str:
    return cell_key(record["n"], record["prover"], record["trials"],
                    record["seed"])


class ResultStore:
    """Reader/writer for the lab's JSONL record files."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()

    def spec_path(self, spec: ExperimentSpec) -> Path:
        return self.root / f"{spec.name}-{spec.hash}.jsonl"

    def load_cells(self, spec: ExperimentSpec) -> Dict[str, Dict[str, Any]]:
        """All recorded cells of a spec, keyed by cell key (last record
        for a key wins — the append-only replay rule)."""
        return {record_key(record): record
                for record in read_jsonl(self.spec_path(spec))}

    def has_cell(self, spec: ExperimentSpec, key: str) -> bool:
        return key in self.load_cells(spec)

    def append_cell(self, spec: ExperimentSpec,
                    record: Dict[str, Any]) -> None:
        if record.get("spec") != spec.name \
                or record.get("spec_hash") != spec.hash:
            raise ValueError("record does not belong to this spec")
        self.root.mkdir(parents=True, exist_ok=True)
        append_jsonl(self.spec_path(spec),
                     json.dumps(record, sort_keys=True, default=str))
