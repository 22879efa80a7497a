"""Fleet supervisor: sharded sweeps equal serial runs, crashes heal."""

import json

from repro.fleet import (diff_stores, fleet_status, merge_shards,
                         orphaned_keys, partition, plan_tasks,
                         run_fleet, scan_leases, spec_tasks)
from repro.fleet.leases import EV_CLAIM, EV_DONE, append_lease, leases_path
from repro.fleet.worker import SimulatedCrash
from repro.lab import ResultStore, run_spec
from repro.lab.spec import ExperimentSpec
from repro.lab.store import DETERMINISTIC_FIELDS, record_key

#: A cheap sweep with several cells: quick expands to 2 tasks, full
#: adds 4 more (the quick/full trial counts differ, so keys differ).
SPEC = ExperimentSpec(
    name="fleet-smoke", experiment="E1", title="fleet test target",
    protocol="sym-dmam", graph="cycle",
    grid=(6, 8, 10, 12), quick_grid=(6, 8),
    provers=("honest",), trials=2, quick_trials=1, seed=11)


def _project(record):
    return {name: record.get(name) for name in DETERMINISTIC_FIELDS}


def _serial_cells(tmp_path):
    store = ResultStore(tmp_path / "serial")
    run_spec(SPEC, store, quick=True)
    run_spec(SPEC, store, quick=False)
    return {key: _project(record)
            for key, record in store.load_cells(SPEC).items()}, store


class TestPlan:
    def test_tasks_follow_serial_append_order(self, tmp_path):
        _, store = _serial_cells(tmp_path)
        with store.spec_path(SPEC).open() as handle:
            appended = [json.loads(line) for line in handle]
        serial_keys = [record_key(r) for r in appended]
        planned = [t.key for t in spec_tasks(SPEC, 0, quick=False)]
        assert planned == serial_keys

    def test_plan_skips_stored_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        run_spec(SPEC, store, quick=True)
        pending, replayed = plan_tasks([SPEC], store, quick=False)
        assert replayed == 2
        assert len(pending) == 4

    def test_partition_round_robin(self):
        tasks = spec_tasks(SPEC, 0, quick=False)
        buckets = partition(tasks, 4)
        assert sum(len(b) for b in buckets) == len(tasks)
        for index, task in enumerate(tasks):
            assert task in buckets[index % 4]


class TestLeases:
    def test_claim_without_done_is_orphaned(self, tmp_path):
        append_lease(tmp_path, EV_CLAIM, "s", "k1", 0, 0)
        append_lease(tmp_path, EV_CLAIM, "s", "k2", 1, 0)
        append_lease(tmp_path, EV_DONE, "s", "k1", 0, 0)
        assert orphaned_keys(scan_leases(tmp_path)) == [("s", "k2")]

    def test_reclaim_then_done_clears_orphan(self, tmp_path):
        append_lease(tmp_path, EV_CLAIM, "s", "k", 0, 0)
        assert orphaned_keys(scan_leases(tmp_path))
        append_lease(tmp_path, EV_CLAIM, "s", "k", 1, 1)
        append_lease(tmp_path, EV_DONE, "s", "k", 1, 1)
        assert orphaned_keys(scan_leases(tmp_path)) == []


class TestFaultsOff:
    def test_fleet_matches_serial_on_deterministic_fields(self, tmp_path):
        expected, serial = _serial_cells(tmp_path)
        for shards in (1, 2, 3):
            store = ResultStore(tmp_path / f"fleet{shards}")
            summary = run_fleet([SPEC], store, shards)
            assert summary["ok"]
            got = {key: _project(record)
                   for key, record in store.load_cells(SPEC).items()}
            assert got == expected
            assert diff_stores([SPEC], serial, store)["ok"]

    def test_resume_skips_committed_cells(self, tmp_path):
        store = ResultStore(tmp_path)
        run_spec(SPEC, store, quick=True)
        summary = run_fleet([SPEC], store, 2)
        assert summary["replayed"] == 2
        assert summary["planned"] == 4

    def test_shard_provenance_recorded(self, tmp_path):
        store = ResultStore(tmp_path)
        run_fleet([SPEC], store, 2)
        tasks = spec_tasks(SPEC, 0, quick=False)
        owner = {t.key: i % 2 for i, t in enumerate(tasks)}
        for key, record in store.load_cells(SPEC).items():
            assert record["shard"] == owner[key]
            assert record["host"]

    def test_merge_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path)
        run_fleet([SPEC], store, 2)
        merged = merge_shards([SPEC], store)
        assert merged["appended"] == 0
        assert merged["skipped"] == 6


class TestFaultInjection:
    def test_killed_shard_recovers_with_no_lost_or_duplicate_cells(
            self, tmp_path):
        expected, serial = _serial_cells(tmp_path)
        store = ResultStore(tmp_path / "fault")
        summary = run_fleet([SPEC], store, 2, kill_shard=1,
                            kill_after=1, backoff=0.01)
        assert summary["ok"]
        assert any(w["failed"] == [1] for w in summary["waves"])
        got = {key: _project(record)
               for key, record in store.load_cells(SPEC).items()}
        assert got == expected
        # No duplicate appends for any cell in the merged store.
        with store.spec_path(SPEC).open() as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == len(expected)

    def test_steal_pass_covers_exhausted_retries(self, tmp_path):
        expected, _ = _serial_cells(tmp_path)
        store = ResultStore(tmp_path / "steal")
        summary = run_fleet([SPEC], store, 2, retries=0, kill_shard=0,
                            kill_after=0, backoff=0.01)
        assert summary["ok"]
        assert summary["stolen"] > 0
        got = {key: _project(record)
               for key, record in store.load_cells(SPEC).items()}
        assert got == expected

    def test_status_reports_shards_and_leases(self, tmp_path):
        store = ResultStore(tmp_path)
        run_fleet([SPEC], store, 2, kill_shard=1, kill_after=1,
                  backoff=0.01)
        status = fleet_status(store, [SPEC])
        assert [row["cells"] for row in status["shards"]] == [3, 3]
        leases = status["leases"]
        assert leases["done"] == 6
        assert leases["orphaned"] == []
        # The kill left one extra claim behind (the orphaned attempt).
        assert leases["claims"] == 7


class TestTornRecords:
    """Records torn by a crash mid-append are skipped on read, and the
    next append starts on its own line."""

    def test_status_survives_truncated_lease_log(self, tmp_path, capsys):
        from repro.__main__ import main
        argv = ["--spec", "E6-order-dmam", "--store", str(tmp_path)]
        assert main(["fleet", "run", "--shards", "2", "--quick"]
                    + argv) == 0
        path = leases_path(tmp_path)
        lines = path.read_text().splitlines()
        # The final ``done`` was cut short: its cell reads as in flight.
        path.write_text("\n".join(lines[:-1] + [lines[-1][:25]]))
        capsys.readouterr()
        assert main(["fleet", "status", "--json"] + argv) == 0
        leases = json.loads(capsys.readouterr().out)["leases"]
        assert leases["events"] == len(lines) - 1
        assert len(leases["orphaned"]) == 1
        # A re-acknowledgement lands on its own line and clears it.
        last = json.loads(lines[-1])
        append_lease(tmp_path, EV_DONE, last["spec"], last["key"],
                     last["shard"], 1)
        assert orphaned_keys(scan_leases(tmp_path)) == []
        assert len(path.read_text().splitlines()) == len(lines) + 1

    def test_shard_killed_inside_append_cell(self, tmp_path, monkeypatch):
        expected, serial = _serial_cells(tmp_path)
        killed = tmp_path / "killed"
        append_cell = ResultStore.append_cell

        def dying_append(self, spec, record):
            # The first append of shard 1 dies half-way through its
            # line, as SIGKILL mid-write would leave it.
            if self.root.name == "shard-001" and not killed.exists():
                killed.touch()
                self.root.mkdir(parents=True, exist_ok=True)
                line = json.dumps(record, sort_keys=True, default=str)
                with self.spec_path(spec).open("a") as handle:
                    handle.write(line[:len(line) // 2])
                raise SimulatedCrash("shard 1 killed inside append_cell")
            append_cell(self, spec, record)

        monkeypatch.setattr(ResultStore, "append_cell", dying_append)
        store = ResultStore(tmp_path / "torn")
        summary = run_fleet([SPEC], store, 2, backoff=0.01)
        assert summary["ok"]
        assert summary["waves"][0]["failed"] == [1]
        got = {key: _project(record)
               for key, record in store.load_cells(SPEC).items()}
        assert got == expected
        assert diff_stores([SPEC], serial, store)["ok"]


class TestCLI:
    def test_run_status_diff_roundtrip(self, tmp_path, capsys):
        from repro.__main__ import main
        serial = tmp_path / "serial"
        fleet = tmp_path / "fleet"
        assert main(["lab", "run", "--quick", "--spec", "E6-order-dmam",
                     "--store", str(serial)]) == 0
        assert main(["fleet", "run", "--shards", "2", "--quick",
                     "--spec", "E6-order-dmam",
                     "--store", str(fleet)]) == 0
        assert main(["fleet", "status", "--spec", "E6-order-dmam",
                     "--store", str(fleet)]) == 0
        assert main(["fleet", "diff", str(serial), str(fleet),
                     "--spec", "E6-order-dmam"]) == 0
        out = capsys.readouterr().out
        assert "stores MATCH on deterministic fields" in out

    def test_diff_exit_code_on_drift(self, tmp_path, capsys):
        from repro.__main__ import main
        store_a = ResultStore(tmp_path / "a")
        store_b = ResultStore(tmp_path / "b")
        run_spec(SPEC, store_a, quick=True)
        run_spec(SPEC, store_b, quick=True)
        record = dict(next(iter(store_b.load_cells(SPEC).values())))
        record["bits"] += 1
        store_b.append_cell(SPEC, record)
        report = diff_stores([SPEC], store_a, store_b)
        assert not report["ok"]
        drift = report["specs"][0]["drift"]
        assert drift and drift[0]["fields"] == ["bits"]
