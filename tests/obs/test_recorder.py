"""BenchRecorder: table rendering and the flush entry point."""

from repro.obs import BenchRecorder


class TestBenchRecorder:
    def test_report_renders_and_attaches(self):
        recorder = BenchRecorder()

        class FakeBenchmark:
            extra_info = {}

        bench = FakeBenchmark()
        rendered = recorder.report(bench, "demo title", ("a", "b"),
                                   [(1, 2)])
        assert "demo title" in rendered
        assert bench.extra_info["table"]["rows"] == [[1, 2]]

    def test_flush_without_tables_is_noop(self):
        recorder = BenchRecorder()
        assert recorder.flush() == []
