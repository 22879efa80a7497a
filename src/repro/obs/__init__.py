"""repro.obs — unified tracing, metrics and profiling.

One zero-dependency observability layer shared by every engine in the
repo: the abstract runner (:mod:`repro.core.runner`), the netsim
substrate (:mod:`repro.netsim`), the adversary search/certifier
(:mod:`repro.adversary`) and the lab orchestrator (:mod:`repro.lab`).

Three ideas:

* **Ambient session** (:func:`session` / :func:`active`) — when no
  session is installed, every instrumentation site short-circuits on a
  single module-global read, so observability costs nothing when off
  (the ``bench_obs`` gate pins the overhead under 3%).
* **Deterministic spans** (:class:`Tracer` / :class:`Span`) — each
  span splits identity (``attrs``/``metrics``, byte-identical across
  reruns and worker counts) from environment (``seconds``/``meta``/
  ``profile``); the deterministic projection makes parallel ≡ serial a
  byte-equality check.
* **Namespaced metrics** (:class:`MetricsRegistry`) — runner, netsim,
  adversary and lab numbers all land under one slash-namespaced
  registry with order-deterministic worker merging.

Live telemetry (:mod:`repro.obs.live`) adds Prometheus text
exposition, bounded metric/trace rings behind the serve HTTP
endpoints, and :func:`stitch_spans` — the cross-process trace
reassembly over the ``trace_context()``/``adopt_context()`` meta
links.  The bench trajectory (:mod:`repro.obs.history`) is the
append-only ``bench_history.jsonl`` plus :func:`regress_report`, the
pure core of the ``obs regress`` gate.

CLI: ``python -m repro obs record|report|top|diff|tail|dash|regress``.
"""

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      NS_ADVERSARY, NS_LAB, NS_NETSIM, NS_RUNNER)
from .history import (HISTORY_FILE, append_records, bench_mode,
                      effective_history, git_sha, load_history,
                      make_record, regress_report)
from .io import ObsRun, default_obs_root, load_run, resolve_run
from .live import (MetricsRing, TraceRing, histogram_quantile,
                   metric_scalar, prometheus_name, prometheus_text,
                   snapshot_deltas, stitch_spans)
from .profiling import PROFILE_CPROFILE, PROFILE_MODES, PROFILE_TRACEMALLOC, \
    profiled
from .recorder import BenchRecorder, bench_id
from .session import (Collected, EMPTY_COLLECTED, ObsSession, active,
                      adopt_context, collecting, export_collected,
                      merge_collected, session, use_session)
from .trace import (DETERMINISTIC_KEYS, Span, Tracer, deterministic_span,
                    flatten_spans, nest_spans)

__all__ = [
    "BenchRecorder",
    "Collected",
    "Counter",
    "DETERMINISTIC_KEYS",
    "EMPTY_COLLECTED",
    "Gauge",
    "HISTORY_FILE",
    "Histogram",
    "MetricsRegistry",
    "MetricsRing",
    "NS_ADVERSARY",
    "NS_LAB",
    "NS_NETSIM",
    "NS_RUNNER",
    "ObsRun",
    "ObsSession",
    "PROFILE_CPROFILE",
    "PROFILE_MODES",
    "PROFILE_TRACEMALLOC",
    "Span",
    "TraceRing",
    "Tracer",
    "active",
    "adopt_context",
    "append_records",
    "bench_id",
    "bench_mode",
    "collecting",
    "default_obs_root",
    "deterministic_span",
    "effective_history",
    "export_collected",
    "flatten_spans",
    "git_sha",
    "histogram_quantile",
    "load_history",
    "load_run",
    "make_record",
    "merge_collected",
    "metric_scalar",
    "nest_spans",
    "profiled",
    "prometheus_name",
    "prometheus_text",
    "regress_report",
    "resolve_run",
    "session",
    "snapshot_deltas",
    "stitch_spans",
    "use_session",
]
