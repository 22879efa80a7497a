"""BenchRecorder: per-module BENCH_<name>.json summaries."""

import json

from repro.obs import BenchRecorder, bench_summary_name, session


class TestSummaryName:
    def test_bench_prefix_stripped(self):
        assert bench_summary_name("bench_gni") == "BENCH_gni.json"
        assert bench_summary_name("benchmarks/bench_runner.py") \
            == "BENCH_runner.json"

    def test_other_sources_keep_stem(self):
        assert bench_summary_name("conftest") == "BENCH_conftest.json"


class TestBenchRecorder:
    def _recorder(self, tmp_path):
        return BenchRecorder(tmp_path / "bench")

    def test_report_renders_and_attaches(self, tmp_path):
        recorder = self._recorder(tmp_path)

        class FakeBenchmark:
            extra_info = {}

        bench = FakeBenchmark()
        rendered = recorder.report("bench_demo", bench, "demo title",
                                   ("a", "b"), [(1, 2)])
        assert "demo title" in rendered
        assert bench.extra_info["table"]["rows"] == [[1, 2]]

    def test_flush_writes_per_module_files(self, tmp_path):
        recorder = self._recorder(tmp_path)
        recorder.report("bench_one", None, "t1", ("x",), [(1,)])
        recorder.report("bench_two", None, "t2", ("y",), [(2,)])
        recorder.report("bench_one", None, "t3", ("z",), [(3,)])
        written = recorder.flush()
        names = sorted(path.name for path in written)
        assert names == ["BENCH_one.json", "BENCH_two.json"]
        one = json.loads((tmp_path / "bench/BENCH_one.json").read_text())
        assert [t["title"] for t in one["tables"]] == ["t1", "t3"]
        assert one["recorder"] == "repro.obs"

    def test_flush_snapshots_active_session_metrics(self, tmp_path):
        recorder = self._recorder(tmp_path)
        recorder.report("bench_one", None, "t", ("x",), [(1,)])
        with session(trace=False) as sess:
            sess.metrics.counter("runner/trials").inc(7)
            recorder.flush()
        payload = json.loads(
            (tmp_path / "bench/BENCH_one.json").read_text())
        assert payload["metrics"]["runner/trials"]["value"] == 7

    def test_flush_without_tables_is_noop(self, tmp_path):
        recorder = self._recorder(tmp_path)
        assert recorder.flush() == []
