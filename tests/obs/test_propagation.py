"""Cross-boundary trace propagation: trace_context / adopt_context /
collecting stitch into connected trees; meta links never leak into the
deterministic projection."""

import threading

from repro import obs
from repro.obs import (adopt_context, collecting, export_collected,
                       merge_collected, stitch_spans, use_session)
from repro.obs.session import ObsSession
from repro.obs.trace import deterministic_span


class TestTraceContext:
    def test_context_of_innermost_open_span(self):
        with obs.session() as sess:
            with sess.span("outer"):
                ctx = sess.trace_context()
        assert ctx["trace"] == sess.trace_id
        assert ctx["span"]  # minted on demand
        root = sess.tracer.export()[0]
        assert root["meta"]["span"] == ctx["span"]

    def test_context_without_open_span_has_no_parent(self):
        with obs.session() as sess:
            ctx = sess.trace_context()
        assert ctx == {"trace": sess.trace_id, "span": None}

    def test_disabled_tracer_still_carries_the_trace_id(self):
        with obs.session(trace=False) as sess:
            with sess.span("outer"):
                ctx = sess.trace_context()
        assert ctx == {"trace": sess.trace_id, "span": None}

    def test_new_context_mints_distinct_traces(self):
        sess = ObsSession()
        first = sess.new_context("req")
        second = sess.new_context("req")
        assert first["trace"] != second["trace"]
        assert first["trace"].startswith(sess.trace_id + "-req")
        assert first["span"] is None


class TestAdoptContext:
    def test_none_context_installs_nothing(self):
        with adopt_context(None) as buffer:
            assert buffer is None
            assert obs.active() is None

    def test_adopted_roots_carry_meta_links(self):
        ctx = {"trace": "t-abc", "span": "s-parent"}
        with use_session(None):
            with adopt_context(ctx) as buffer:
                with buffer.span("runner.batch"):
                    pass
        root = buffer.tracer.export()[0]
        assert root["meta"]["trace"] == "t-abc"
        assert root["meta"]["parent_span"] == "s-parent"

    def test_thread_boundary_stitches_connected(self):
        """The serve shape: a per-request context minted at admission
        crosses into a worker thread; the request root stamps the same
        ids, so the merged export stitches to one tree."""
        collected = {}
        with obs.session() as sess:
            ctx = sess.new_context("req")
            ctx["span"] = sess.tracer.mint_span_id()

            def work():
                with adopt_context(ctx) as buffer:
                    with buffer.span("runner.batch"):
                        pass
                    collected["batch"] = export_collected(buffer)

            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
            with sess.span("serve.request") as span:
                span.meta["trace"] = ctx["trace"]
                span.meta["span"] = ctx["span"]
                merge_collected(sess, collected["batch"])
            stitched = stitch_spans(sess.tracer.export())
        assert stitched["connected"]
        (trace_id,) = stitched["traces"]
        assert trace_id == ctx["trace"]
        bucket = stitched["traces"][trace_id]
        assert bucket["roots"] == ["serve.request"]
        assert bucket["spans"] == 2

    def test_meta_links_stay_out_of_deterministic_spans(self):
        ctx = {"trace": "t-abc", "span": "s-parent"}
        with use_session(None):
            with adopt_context(ctx) as buffer:
                with buffer.span("runner.batch"):
                    pass
        exported = buffer.tracer.export()[0]
        assert "meta" not in deterministic_span(exported)

    def test_buffer_with_context_links_roots(self):
        """The fleet shape: the wave root stamps the session trace,
        the shard buffer adopts its context (a forked worker inherits
        the ambient session, so the buffer mirrors its switches), and
        the merged export links back to the wave span."""
        with obs.session() as sess:
            with sess.span("fleet.wave") as wave:
                wave.meta["trace"] = sess.trace_id
                ctx = sess.trace_context()
            with adopt_context(ctx) as buffer:
                with buffer.span("fleet.shard"):
                    pass
                collected = export_collected(buffer)
            merge_collected(sess, collected)
            stitched = stitch_spans(sess.tracer.export())
        assert stitched["connected"]
        bucket = stitched["traces"][sess.trace_id]
        assert bucket["roots"] == ["fleet.wave"]
        assert bucket["linked"] == 1

    def test_switches_inherited_from_parent_session(self):
        with obs.session(trace=False) as sess:
            with adopt_context(sess.new_context()) as buffer:
                assert not buffer.tracer.enabled
                assert buffer.metrics_enabled


class TestCollecting:
    def test_yields_none_when_observability_off(self):
        with use_session(None):
            with collecting() as buffer:
                assert buffer is None
                assert obs.active() is None

    def test_merge_preserves_metric_counts(self):
        with obs.session() as sess:
            with collecting() as buffer:
                buffer.metrics.counter("runner/proof_bits").inc(64)
                collected = export_collected(buffer)
            merge_collected(sess, collected)
            assert sess.metrics.counter(
                "runner/proof_bits").value == 64
