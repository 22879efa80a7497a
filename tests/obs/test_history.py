"""The bench trajectory: records, last-wins history, the regression
gate (lanes, drift, noise-aware wall), and the recorder/CLI wiring."""

import json

import pytest

from repro import obs
from repro.__main__ import main
from repro.obs import (append_records, bench_id, effective_history,
                       load_history, make_record, regress_report)
from repro.obs.history import record_key
from repro.obs.recorder import BenchRecorder


def _record(bench, sha, wall=1.0, det=None, mode="full", numpy=True):
    return make_record(bench, wall, det or {}, sha=sha, mode=mode,
                       ts="2026-01-01T00:00:00Z", numpy=numpy)


class TestRecords:
    def test_make_record_shape(self):
        record = _record("runner", "abc1234", wall=1.23456789,
                         det={"b/z": 2, "a/y": 1})
        assert record["bench"] == "runner"
        assert record["sha"] == "abc1234"
        assert record["mode"] == "full"
        assert record["numpy"] is True
        assert record["wall"] == 1.234568
        assert list(record["det"]) == ["a/y", "b/z"]

    def test_record_key_defaults_mode(self):
        assert record_key({"bench": "r", "sha": "x"}) \
            == ("r", "x", "full")

    def test_bench_id_strips_prefix(self):
        assert bench_id("bench_runner") == "runner"
        assert bench_id("serve") == "serve"


class TestHistoryFile:
    def test_load_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        good = _record("runner", "aaa")
        path.write_text(json.dumps(good) + "\n"
                        "this is not json\n"
                        "\n"
                        '["a", "list"]\n'
                        '{"no": "bench key"}\n')
        assert load_history(path) == [good]

    def test_append_after_torn_tail_starts_a_new_line(self, tmp_path):
        """A crash mid-append leaves a fragment without a newline; the
        next record must not be glued to it (and lost on load)."""
        path = tmp_path / "hist.jsonl"
        whole = json.dumps(_record("runner", "aaa"), sort_keys=True)
        path.write_text(whole + "\n" + whole[:len(whole) // 2])
        append_records(path, [_record("runner", "bbb")])
        assert [r["sha"] for r in load_history(path)] == ["aaa", "bbb"]

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_effective_history_is_last_wins(self):
        first = _record("runner", "aaa", wall=1.0)
        second = _record("serve", "aaa", wall=2.0)
        rerun = _record("runner", "aaa", wall=3.0)
        assert effective_history([first, second, rerun]) \
            == [second, rerun]

    def test_append_reports_appended_vs_replaced(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        lines = append_records(path, [_record("runner", "aaa")])
        assert lines == ["bench_history: appended runner @ aaa [full]"]
        lines = append_records(path, [_record("runner", "aaa"),
                                      _record("runner", "bbb")])
        assert lines == ["bench_history: replaced runner @ aaa [full]",
                         "bench_history: appended runner @ bbb [full]"]
        assert len(load_history(path)) == 3
        assert len(effective_history(load_history(path))) == 2


class TestRegressGate:
    def test_single_record_has_no_baseline(self):
        report = regress_report([_record("runner", "aaa")])
        assert report["ok"]
        assert report["benches"][0]["baseline"] == "none"

    def test_stable_trajectory_passes(self):
        records = [_record("runner", sha, wall=1.0, det={"m": 100})
                   for sha in ("aaa", "bbb", "ccc")]
        report = regress_report(records)
        assert report["ok"]
        assert report["benches"][0]["baseline"]["sha"] == "bbb"

    def test_wall_regression_fails(self):
        records = [_record("runner", "aaa", wall=1.0),
                   _record("runner", "bbb", wall=1.0),
                   _record("runner", "ccc", wall=2.5)]
        report = regress_report(records)
        assert not report["ok"]
        (regression,) = report["regressions"]
        assert regression["bench"] == "runner"
        assert regression["ratio"] == 2.5
        assert report["drifts"] == []

    def test_wall_floor_suppresses_tiny_jitter(self):
        # 5x the median, but the excess is 40ms — under the floor.
        records = [_record("runner", "aaa", wall=0.01),
                   _record("runner", "bbb", wall=0.05)]
        assert regress_report(records)["ok"]

    def test_det_drift_fails_regardless_of_magnitude(self):
        records = [_record("runner", "aaa", det={"runner/bits": 100}),
                   _record("runner", "bbb", det={"runner/bits": 101})]
        report = regress_report(records)
        assert not report["ok"]
        (drift,) = report["drifts"]
        assert drift == {"bench": "runner", "metric": "runner/bits",
                         "old": 100, "new": 101, "old_sha": "aaa"}

    def test_only_intersecting_metrics_gate(self):
        records = [_record("runner", "aaa", det={"old/metric": 1}),
                   _record("runner", "bbb", det={"new/metric": 2})]
        assert regress_report(records)["ok"]

    def test_modes_are_independent_lanes(self):
        records = [
            _record("runner", "aaa", det={"m": 100}, mode="full"),
            _record("runner", "bbb", det={"m": 7}, mode="quick"),
            _record("runner", "ccc", det={"m": 7}, mode="quick"),
        ]
        report = regress_report(records)
        assert report["ok"]
        lanes = [(row["bench"], row["mode"])
                 for row in report["benches"]]
        assert lanes == [("runner", "full"), ("runner", "quick")]

    def test_numpy_availability_is_its_own_lane(self):
        records = [
            _record("runner", "aaa", det={"m": 100}, numpy=True),
            _record("runner", "bbb", det={"m": 55}, numpy=False),
        ]
        report = regress_report(records)
        assert report["ok"]
        assert [row["numpy"] for row in report["benches"]] \
            == [False, True]

    def test_bench_filter(self):
        records = [_record("runner", "aaa", det={"m": 1}),
                   _record("runner", "bbb", det={"m": 2}),
                   _record("serve", "bbb")]
        report = regress_report(records, benches=["serve"])
        assert report["ok"]
        assert [row["bench"] for row in report["benches"]] == ["serve"]

    def test_window_bounds_the_wall_median(self):
        # Old fast walls age out of a window of 1 (median = the one
        # newest prior, 10.0); a window of 3 still sees them (median
        # 1.0) and flags the same newest wall.
        records = [_record("runner", "a", wall=1.0),
                   _record("runner", "b", wall=1.0),
                   _record("runner", "c", wall=10.0),
                   _record("runner", "d", wall=11.0)]
        assert regress_report(records, window=1)["ok"]
        assert not regress_report(records, window=3)["ok"]


class TestRecorderHistory:
    def test_per_module_records_with_delta_attribution(self, tmp_path):
        """Counter deltas attribute to the module that incremented
        them, independent of which modules ran before."""
        history = tmp_path / "hist.jsonl"
        recorder = BenchRecorder(history=history)
        with obs.session() as sess:
            recorder.enter_module("bench_alpha")
            sess.metrics.counter("x/bits").inc(5)
            recorder.note_duration("bench_alpha", 1.5)
            recorder.enter_module("bench_beta")
            sess.metrics.counter("x/bits").inc(7)
            sess.metrics.counter("y/bits").inc(3)
            recorder.note_duration("bench_beta", 0.5)
            recorder.flush()
        records = {r["bench"]: r for r in load_history(history)}
        assert records["alpha"]["det"] == {"x/bits": 5}
        assert records["alpha"]["wall"] == 1.5
        assert records["beta"]["det"] == {"x/bits": 7, "y/bits": 3}
        assert records["beta"]["wall"] == 0.5
        assert any("bench_history: appended alpha" in line
                   for line in recorder.log)

    def test_deltas_stay_ints(self, tmp_path):
        """A counter first bumped inside a module is an int delta, not
        a float: the history's ``det`` values are exact bit counts."""
        history = tmp_path / "hist.jsonl"
        recorder = BenchRecorder(history=history)
        with obs.session() as sess:
            recorder.enter_module("bench_alpha")
            sess.metrics.counter("x/bits").inc(5)
            recorder.note_duration("bench_alpha", 1.0)
            recorder.flush()
        (record,) = load_history(history)
        assert record["det"] == {"x/bits": 5}
        assert type(record["det"]["x/bits"]) is int
        assert '"x/bits": 5}' in history.read_text()

    def test_no_history_path_appends_nothing(self, tmp_path):
        recorder = BenchRecorder()
        with obs.session():
            recorder.enter_module("bench_alpha")
            recorder.flush()
        assert not (tmp_path / "bench_history.jsonl").exists()


class TestRegressCli:
    def _write(self, tmp_path, records):
        path = tmp_path / "hist.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_clean_history_exits_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, [
            _record("runner", "aaa", wall=1.0, det={"m": 9}),
            _record("runner", "bbb", wall=1.0, det={"m": 9})])
        code = main(["obs", "regress", "--history", str(path)])
        assert code == 0
        assert "regress gate: ok" in capsys.readouterr().out

    def test_wall_regression_exits_one(self, tmp_path, capsys):
        path = self._write(tmp_path, [
            _record("runner", "aaa", wall=1.0),
            _record("runner", "bbb", wall=2.5)])
        code = main(["obs", "regress", "--history", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION runner" in out
        assert "regress gate: FAILED" in out

    def test_det_drift_exits_one_with_json(self, tmp_path, capsys):
        path = self._write(tmp_path, [
            _record("runner", "aaa", det={"runner/bits": 100}),
            _record("runner", "bbb", det={"runner/bits": 101})])
        code = main(["obs", "regress", "--history", str(path),
                     "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["drifts"][0]["metric"] == "runner/bits"

    def test_max_wall_flag_loosens_the_gate(self, tmp_path):
        path = self._write(tmp_path, [
            _record("runner", "aaa", wall=1.0),
            _record("runner", "bbb", wall=2.5)])
        assert main(["obs", "regress", "--history", str(path),
                     "--max-wall", "3.0"]) == 0

    def test_missing_history_is_ok(self, tmp_path, capsys):
        code = main(["obs", "regress", "--history",
                     str(tmp_path / "absent.jsonl")])
        assert code == 0
        assert "0 records" in capsys.readouterr().out

    def test_committed_history_passes(self):
        """The repo's own trajectory must satisfy its own gate."""
        assert main(["obs", "regress"]) == 0
