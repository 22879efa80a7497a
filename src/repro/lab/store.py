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
import os
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

from .spec import ExperimentSpec

#: Fields of a cell record that must be bit-identical across replays
#: (the regression gate's hard-fail set).  Wall-clock and worker count
#: are instrumentation and excluded on purpose.
DETERMINISTIC_FIELDS = ("spec", "spec_hash", "n", "size", "prover",
                        "trials", "seed", "accepted", "bits",
                        "round_bits", "extra")


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


def read_jsonl(path: Path) -> Iterator[Dict[str, Any]]:
    """Every whole record of a JSONL file, in append order.

    A line that does not parse is a record torn by a crash mid-append
    (SIGKILL, a full disk); it is skipped as if the append never
    happened, so a resumed run recomputes exactly that cell.
    """
    if not path.exists():
        return
    with path.open("r", encoding="ascii") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            yield record


def append_jsonl(path: Path, line: str) -> None:
    """Append one record line with a single ``write`` on an
    ``O_APPEND`` descriptor.

    A file that does not end in a newline ends in a torn record; the
    new record then starts on its own line rather than being glued to
    the fragment (which :func:`read_jsonl` skips).
    """
    data = line.encode("ascii") + b"\n"
    with path.open("a+b", buffering=0) as handle:
        end = handle.seek(0, os.SEEK_END)
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                data = b"\n" + data
        handle.write(data)


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
