"""Result store: append/replay semantics, resume, torn tails."""

import json

import pytest

from repro.lab import ResultStore, cell_key, get_spec, run_spec
from repro.lab.runner import compute_cell, spec_cells
from repro.lab.store import DETERMINISTIC_FIELDS

# The cheapest real sweep spec: one 6-vertex cell per grid.
SPEC = get_spec("E6-order-dmam")


def _record(n=6, prover="committed", trials=6, bits=10):
    return {"kind": "sweep", "spec": SPEC.name, "spec_hash": SPEC.hash,
            "n": n, "size": n, "prover": prover, "trials": trials,
            "seed": SPEC.seed, "accepted": 0, "bits": bits,
            "round_bits": [bits], "extra": {}, "wall": 0.0, "workers": 1}


class TestCellRecords:
    def test_append_and_load_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path)
        record = _record()
        store.append_cell(SPEC, record)
        cells = store.load_cells(SPEC)
        key = cell_key(6, "committed", 6, SPEC.seed)
        assert cells == {key: record}
        assert store.has_cell(SPEC, key)

    def test_last_record_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append_cell(SPEC, _record(bits=10))
        store.append_cell(SPEC, _record(bits=99))
        key = cell_key(6, "committed", 6, SPEC.seed)
        assert store.load_cells(SPEC)[key]["bits"] == 99
        # Append-only: both lines are still on disk.
        lines = store.spec_path(SPEC).read_text().splitlines()
        assert len(lines) == 2

    def test_file_name_carries_spec_hash(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.spec_path(SPEC).name \
            == f"{SPEC.name}-{SPEC.hash}.jsonl"

    def test_foreign_record_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        alien = dict(_record(), spec_hash="000000000000")
        with pytest.raises(ValueError, match="belong"):
            store.append_cell(SPEC, alien)

    def test_missing_file_loads_empty(self, tmp_path):
        assert ResultStore(tmp_path / "nope").load_cells(SPEC) == {}


class TestResume:
    def test_rerun_skips_recorded_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_spec(SPEC, store, quick=True)
        assert [r.skipped for r in first] == [False]
        second = run_spec(SPEC, store, quick=True)
        assert [r.skipped for r in second] == [True]
        assert second[0].record == first[0].record

    def test_quick_and_full_cells_coexist(self, tmp_path):
        store = ResultStore(tmp_path)
        run_spec(SPEC, store, quick=True)
        run_spec(SPEC, store, quick=False)
        cells = store.load_cells(SPEC)
        assert len(cells) == len(spec_cells(SPEC, True)) \
            + len(spec_cells(SPEC, False))

    def test_storeless_run_writes_nothing(self, tmp_path):
        results = run_spec(SPEC, store=None, quick=True)
        assert [r.skipped for r in results] == [False]
        assert list(tmp_path.iterdir()) == []

    def test_fresh_equals_stored_record(self, tmp_path):
        # The gate's core assumption: a recomputed cell is identical
        # to its stored normalization, deterministic field by field.
        store = ResultStore(tmp_path)
        stored = run_spec(SPEC, store, quick=True)[0].record
        n, prover, trials = spec_cells(SPEC, True)[0]
        fresh = compute_cell(SPEC, n, prover, trials)
        for field in ("n", "size", "prover", "trials", "seed",
                      "accepted", "bits", "round_bits", "extra"):
            assert fresh[field] == stored[field]


class TestTornTail:
    """A record cut short mid-append (SIGKILL, a full disk) must not
    break resume: it is skipped on read and only its cell recomputed."""

    def test_lab_run_resumes_past_truncated_tail(self, tmp_path, capsys):
        from repro.__main__ import main
        spec = get_spec("E1-lcp-baseline")
        argv = ["lab", "run", "--quick", "--spec", spec.name,
                "--store", str(tmp_path), "--json"]
        assert main(argv) == 0
        store = ResultStore(tmp_path)
        expected = {key: {f: r[f] for f in DETERMINISTIC_FIELDS}
                    for key, r in store.load_cells(spec).items()}
        path = store.spec_path(spec)
        lines = path.read_text().splitlines()
        torn = lines[-1][:len(lines[-1]) // 2]
        path.write_text("\n".join(lines[:-1] + [torn]))
        assert len(store.load_cells(spec)) == len(lines) - 1

        capsys.readouterr()
        assert main(argv) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["ran"], summary["skipped"]) == (1, len(lines) - 1)
        got = {key: {f: r[f] for f in DETERMINISTIC_FIELDS}
               for key, r in store.load_cells(spec).items()}
        assert got == expected
        # Append-only: the fragment stays, the recomputed record
        # starts on its own line.
        after = path.read_text().splitlines()
        assert after[:-1] == lines[:-1] + [torn]
        assert json.loads(after[-1])["n"] == json.loads(lines[-1])["n"]
