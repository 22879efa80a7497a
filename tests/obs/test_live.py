"""Live telemetry primitives: Prometheus exposition (golden), the
trace ring, trace stitching, and the tail/dash read helpers."""

import pytest

from repro.obs import (TraceRing, histogram_quantile, metric_scalar,
                       prometheus_name, prometheus_text, snapshot_deltas,
                       stitch_spans)
from repro.obs.live import escape_help
from repro.obs.metrics import MetricsRegistry


class TestPrometheusText:
    def test_golden_exposition(self):
        """The full text format, byte for byte: stable ordering,
        counter/gauge/histogram shapes, cumulative power-of-two
        buckets, service gauges merged in."""
        registry = MetricsRegistry()
        registry.counter("runner/proof_bits").inc(1536)
        registry.gauge("serve/depth", deterministic=False).set(3)
        latency = registry.histogram("serve/latency_ms",
                                     deterministic=False)
        latency.observe(0.5)   # bucket 0: [0, 1)
        latency.observe(3)     # bucket 2: [2, 4)
        latency.observe(100)   # bucket 7: [64, 128)

        text = prometheus_text(registry.snapshot(),
                               extra_gauges={"serve/up": 1})
        assert text == "\n".join([
            "# HELP repro_runner_proof_bits runner/proof_bits",
            "# TYPE repro_runner_proof_bits counter",
            "repro_runner_proof_bits 1536",
            "# HELP repro_serve_depth serve/depth",
            "# TYPE repro_serve_depth gauge",
            "repro_serve_depth 3",
            "# HELP repro_serve_latency_ms serve/latency_ms",
            "# TYPE repro_serve_latency_ms histogram",
            'repro_serve_latency_ms_bucket{le="1"} 1',
            'repro_serve_latency_ms_bucket{le="4"} 2',
            'repro_serve_latency_ms_bucket{le="128"} 3',
            'repro_serve_latency_ms_bucket{le="+Inf"} 3',
            "repro_serve_latency_ms_sum 103.5",
            "repro_serve_latency_ms_count 3",
            "# HELP repro_serve_up serve/up",
            "# TYPE repro_serve_up gauge",
            "repro_serve_up 1",
        ]) + "\n"

    def test_output_is_deterministic(self):
        registry = MetricsRegistry()
        # Registration order must not leak into the exposition.
        registry.counter("z/last").inc(1)
        registry.counter("a/first").inc(2)
        text = prometheus_text(registry.snapshot())
        assert text.index("repro_a_first") < text.index("repro_z_last")
        assert text == prometheus_text(registry.snapshot())

    def test_unset_gauge_has_help_but_no_sample(self):
        registry = MetricsRegistry()
        registry.gauge("serve/idle")
        text = prometheus_text(registry.snapshot())
        assert "# TYPE repro_serve_idle gauge" in text
        assert "\nrepro_serve_idle " not in text

    def test_empty_snapshot_is_empty_text(self):
        assert prometheus_text({}) == ""

    def test_name_sanitizing(self):
        assert prometheus_name("runner/proof_bits") \
            == "repro_runner_proof_bits"
        assert prometheus_name("weird name-with.dots") \
            == "repro_weird_name_with_dots"
        assert prometheus_name("2pc/commits") == "repro__2pc_commits"

    def test_help_escaping(self):
        assert escape_help("a\\b\nc") == "a\\\\b\\nc"


class TestTraceRing:
    def _tree(self, name):
        return {"name": name, "children": []}

    def test_get_by_key_and_alias(self):
        ring = TraceRing()
        ring.push("trace-1", self._tree("serve.request"),
                  aliases=["req-a"])
        assert ring.get("trace-1")["span"]["name"] == "serve.request"
        assert ring.get("req-a") is ring.get("trace-1")
        assert ring.get("unknown") is None

    def test_repush_moves_key_to_newest(self):
        ring = TraceRing(capacity=2)
        ring.push("t1", self._tree("a"))
        ring.push("t2", self._tree("b"))
        ring.push("t1", self._tree("a2"))
        ring.push("t3", self._tree("c"))  # evicts t2, not t1
        assert ring.keys() == ["t1", "t3"]
        assert ring.get("t1")["span"]["name"] == "a2"

    def test_eviction_drops_aliases(self):
        ring = TraceRing(capacity=1)
        ring.push("t1", self._tree("a"), aliases=["req-1"])
        ring.push("t2", self._tree("b"), aliases=["req-2"])
        assert len(ring) == 1
        assert ring.get("req-1") is None
        assert ring.get("req-2")["trace"] == "t2"


def _span(name, trace=None, span=None, parent=None, children=()):
    meta = {}
    if trace is not None:
        meta["trace"] = trace
    if span is not None:
        meta["span"] = span
    if parent is not None:
        meta["parent_span"] = parent
    return {"name": name, "meta": meta, "children": list(children)}


class TestStitchSpans:
    def test_linked_forest_is_connected(self):
        roots = [
            _span("serve.request", trace="t1", span="s1"),
            _span("runner.batch", trace="t1", span="s2", parent="s1",
                  children=[_span("runner.trial")]),
        ]
        stitched = stitch_spans(roots)
        assert stitched["connected"]
        assert stitched["orphans"] == []
        assert stitched["traces"]["t1"] == {
            "spans": 3, "roots": ["serve.request"], "linked": 1}

    def test_unresolvable_parent_is_an_orphan(self):
        roots = [
            _span("serve.request", trace="t1", span="s1"),
            _span("runner.batch", trace="t1", parent="missing"),
        ]
        stitched = stitch_spans(roots)
        assert not stitched["connected"]
        assert stitched["orphans"] == [
            {"name": "runner.batch", "trace": "t1",
             "parent_span": "missing"}]

    def test_two_true_roots_in_one_trace_is_not_connected(self):
        roots = [_span("a", trace="t1", span="s1"),
                 _span("b", trace="t1", span="s2")]
        stitched = stitch_spans(roots)
        assert not stitched["connected"]
        assert sorted(stitched["traces"]["t1"]["roots"]) == ["a", "b"]

    def test_independent_traces_stitch_separately(self):
        roots = [
            _span("serve.request", trace="t1", span="s1"),
            _span("runner.batch", trace="t1", parent="s1"),
            _span("serve.request", trace="t2", span="s2"),
            _span("runner.batch", trace="t2", parent="s2"),
        ]
        stitched = stitch_spans(roots)
        assert stitched["connected"]
        assert set(stitched["traces"]) == {"t1", "t2"}

    def test_children_inherit_the_trace_id(self):
        roots = [_span("root", trace="t1", span="s1",
                       children=[{"name": "leaf", "children": []}])]
        stitched = stitch_spans(roots)
        assert stitched["traces"]["t1"]["spans"] == 2

    def test_unlabelled_spans_fall_into_the_dash_trace(self):
        stitched = stitch_spans([{"name": "bare", "children": []}])
        assert stitched["traces"]["-"]["spans"] == 1
        assert stitched["connected"]


class TestReadHelpers:
    def _counter(self, value):
        return {"kind": "counter", "deterministic": True, "value": value}

    def test_metric_scalar_kinds(self):
        assert metric_scalar(self._counter(7)) == 7
        assert metric_scalar({"kind": "gauge", "value": 2.5}) == 2.5
        assert metric_scalar({"kind": "histogram", "count": 4,
                              "value": None}) == 4

    def test_snapshot_deltas(self):
        older = {"a": self._counter(1), "b": self._counter(2),
                 "gone": self._counter(9)}
        newer = {"a": self._counter(1), "b": self._counter(5),
                 "fresh": self._counter(3)}
        assert snapshot_deltas(older, newer) == [
            ("b", 2, 5), ("fresh", None, 3), ("gone", 9, None)]

    def test_histogram_quantile_upper_edges(self):
        registry = MetricsRegistry()
        hist = registry.histogram("serve/latency_ms",
                                  deterministic=False)
        for value in (0.5, 3, 3, 100):
            hist.observe(value)
        snap = registry.snapshot()["serve/latency_ms"]
        assert histogram_quantile(snap, 0.50) == 4.0
        assert histogram_quantile(snap, 0.99) == 128.0
        assert histogram_quantile(snap, 0.0) == 1.0

    def test_histogram_quantile_empty(self):
        snap = {"kind": "histogram", "count": 0, "buckets": {}}
        assert histogram_quantile(snap, 0.5) is None
