"""CLI smoke: obs record / report / top / diff / tail / dash end to
end, plus the awkward inputs (missing or extra metrics, empty runs)."""

import json
import shutil

import pytest

from repro.__main__ import main
from repro.obs import load_run


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One recorded smoke-battery run, shared across the module."""
    out = tmp_path_factory.mktemp("obs") / "run_a"
    code = main(["obs", "record", "--trials", "1", "--out", str(out)])
    assert code == 0  # the record gate: bit counters consistent
    return out


class TestRecord:
    def test_run_directory_layout(self, recorded):
        assert (recorded / "trace.jsonl").exists()
        assert (recorded / "metrics.jsonl").exists()
        summary = json.loads((recorded / "summary.json").read_text())
        assert summary["consistent"]
        for row in summary["cases"]:
            assert row["trace_bits"] == row["metric_bits"] \
                == row["declared_bits"]
            assert row["netsim_bits"] == row["netsim_metric_bits"]
            assert row["audit_mismatches"] == 0

    def test_json_flag(self, recorded, tmp_path, capsys):
        out = tmp_path / "json_run"
        code = main(["obs", "record", "--trials", "1",
                     "--out", str(out), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["consistent"]
        assert payload["out"] == str(out)

    def test_load_run(self, recorded):
        run = load_run(recorded)
        assert run.spans
        assert run.metric_value("runner/trials") > 0
        assert run.summary["consistent"]


class TestReportTopDiff:
    def test_report_renders(self, recorded, capsys):
        assert main(["obs", "report", str(recorded)]) == 0
        out = capsys.readouterr().out
        assert "per-phase wall time" in out
        assert "per-protocol breakdown" in out
        assert "deterministic counters" in out

    def test_report_json(self, recorded, capsys):
        assert main(["obs", "report", str(recorded), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["protocols"]
        assert all(row["trials"] >= 1 for row in payload["protocols"])

    def test_top(self, recorded, capsys):
        assert main(["obs", "top", str(recorded), "-k", "3",
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert 0 < len(rows) <= 3
        assert all(row["self_seconds"] <= row["seconds"] + 1e-9
                   for row in rows)

    def test_diff_identical_runs_clean(self, recorded, tmp_path, capsys):
        twin = tmp_path / "twin"
        assert main(["obs", "record", "--trials", "1",
                     "--out", str(twin)]) == 0
        capsys.readouterr()
        assert main(["obs", "diff", str(recorded), str(twin),
                     "--strict", "--json"]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["deterministic_ok"]
        assert diff["deterministic_drifts"] == []

    def test_diff_strict_flags_drift(self, recorded, tmp_path, capsys):
        other = tmp_path / "other"
        assert main(["obs", "record", "--trials", "2",
                     "--out", str(other)]) == 0
        capsys.readouterr()
        code = main(["obs", "diff", str(recorded), str(other),
                     "--strict", "--json"])
        diff = json.loads(capsys.readouterr().out)
        assert code == 1
        assert "runner/trials" in diff["deterministic_drifts"]
        # Timers moved too, but wall movement is never a drift.
        assert all("/seconds/" not in name
                   for name in diff["deterministic_drifts"])


class TestAwkwardInputs:
    def _mutate_metrics(self, recorded, tmp_path, drop, add):
        """A copy of ``recorded`` with ``drop`` removed from and
        ``add`` appended to its metrics file."""
        twin = tmp_path / "mutated"
        shutil.copytree(recorded, twin)
        metrics = twin / "metrics.jsonl"
        lines = [line for line in metrics.read_text().splitlines()
                 if json.loads(line)["name"] != drop]
        lines.append(json.dumps({"name": add, "kind": "counter",
                                 "deterministic": True, "value": 7}))
        metrics.write_text("\n".join(lines) + "\n")
        return twin

    def test_diff_reports_missing_and_extra_metrics(
            self, recorded, tmp_path, capsys):
        twin = self._mutate_metrics(recorded, tmp_path,
                                    drop="runner/trials",
                                    add="extra/bits")
        code = main(["obs", "diff", str(recorded), str(twin),
                     "--strict", "--json"])
        diff = json.loads(capsys.readouterr().out)
        assert code == 1
        by_name = {entry["name"]: entry for entry in diff["metrics"]}
        assert by_name["runner/trials"]["status"] == "removed"
        assert by_name["extra/bits"]["status"] == "added"
        assert by_name["extra/bits"]["b"] == 7
        # Both directions of absence are deterministic drifts.
        assert "runner/trials" in diff["deterministic_drifts"]
        assert "extra/bits" in diff["deterministic_drifts"]

    def test_flame_on_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "trace.jsonl").write_text("")
        (empty / "metrics.jsonl").write_text("")
        assert main(["obs", "report", str(empty), "--flame"]) == 0
        assert "0 spans" in capsys.readouterr().out

    def test_tail_bounded_iterations(self, recorded, capsys):
        code = main(["obs", "tail", str(recorded),
                     "--interval", "0", "--iterations", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "obs tail ->" in out

    def test_dash_json_on_recorded_run(self, recorded, capsys):
        assert main(["obs", "dash", str(recorded), "--json"]) == 0
        dash = json.loads(capsys.readouterr().out)
        assert dash["proof_bits"] > 0
        # No serve traffic in an obs-record run: latency-derived
        # figures are absent, not fabricated.
        assert dash["requests"] is None
        assert dash["p99_ms"] is None

    def test_dash_with_fleet_root(self, recorded, tmp_path, capsys):
        from repro.fleet.leases import EV_CLAIM, EV_DONE, append_lease
        append_lease(tmp_path, EV_CLAIM, "s", "k1", 0, 0)
        append_lease(tmp_path, EV_DONE, "s", "k1", 0, 0)
        assert main(["obs", "dash", str(recorded),
                     "--fleet", str(tmp_path), "--json"]) == 0
        dash = json.loads(capsys.readouterr().out)
        (row,) = dash["fleet"]
        assert row["shard"] == 0
        assert row["claimed"] == 1 and row["done"] == 1
        assert row["last_age"] >= 0.0


class TestTornRun:
    """A run cut short mid-write ends in a torn line; the run readers
    skip it, like every other JSONL reader in the repo."""

    @pytest.fixture
    def torn(self, recorded, tmp_path):
        run = tmp_path / "torn"
        shutil.copytree(recorded, run)
        for name in ("trace.jsonl", "metrics.jsonl"):
            path = run / name
            lines = path.read_text().splitlines()
            path.write_text("\n".join(
                lines[:-1] + [lines[-1][:len(lines[-1]) // 2]]))
        return run

    def test_load_run_skips_torn_lines(self, recorded, torn):
        whole, cut = load_run(recorded), load_run(torn)
        assert cut.spans == whole.spans[:-1]
        assert len(cut.metrics) == len(whole.metrics) - 1

    def test_report_and_tail_survive_torn_run(self, torn, capsys):
        assert main(["obs", "report", str(torn)]) == 0
        assert main(["obs", "tail", str(torn), "--interval", "0",
                     "--iterations", "1"]) == 0
        assert "obs tail ->" in capsys.readouterr().out
