"""The ambient observability session: one tracer + one registry.

Instrumentation sites across the engines ask :func:`active` for the
current session; when none is installed (the default) they get ``None``
and skip all recording — the entire disabled cost is one module-global
read per call site, which the ``bench_obs`` gate pins under 3% of
``run_trials`` throughput.

Install a session around any workload::

    from repro import obs

    with obs.session() as sess:
        run_trials(protocol, instance, prover, 200, seed)
    sess.metrics.counter("runner/proof_bits").value
    sess.write(Path("benchmarks/obs_store/my-run"))

Worker buffers
--------------
:func:`collecting` is the bridge between the ambient session and the
trial fork pool (:func:`repro.core.runner.batched_trials`): it
installs a *fresh buffer session* (mirroring the active session's
switches) for the duration of a trial batch, and the batch returns the
buffer's exported spans + metrics snapshot so the parent can merge
them **in trial order** — the exact same code path serial execution
uses, which is why parallel and serial runs produce byte-identical
deterministic traces.
"""

from __future__ import annotations

import json
import threading
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .metrics import MetricsRegistry
from .profiling import profiled
from .trace import Tracer, flatten_spans

TRACE_FILE = "trace.jsonl"
METRICS_FILE = "metrics.jsonl"
SUMMARY_FILE = "summary.json"


class ObsSession:
    """One observability capture: a tracer, a registry, and switches."""

    def __init__(self, trace: bool = True, metrics: bool = True,
                 profile: Optional[str] = None,
                 max_spans: int = 250_000,
                 trace_id: Optional[str] = None) -> None:
        self.tracer = Tracer(enabled=trace, max_spans=max_spans)
        self.metrics = MetricsRegistry()
        self.metrics_enabled = metrics
        self.profile = profile
        #: meta-only trace identity; never enters the deterministic
        #: span projection, so byte-identity gates are unaffected.
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.tracer.trace_id = self.trace_id
        self._ctx_seq = 0

    # -- recording façade -----------------------------------------------

    def span(self, name: str, **attrs: Any):
        """A span on this session's tracer (no-op ctx when disabled)."""
        return self.tracer.span(name, **attrs)

    def profiled_span(self, name: str, **attrs: Any):
        """A span additionally profiled with the session's profiler
        (``cprofile`` or ``tracemalloc``); plain span when profiling
        is off."""
        return profiled(self.tracer.span(name, **attrs), self.profile)

    def counter(self, name: str, deterministic: bool = True):
        return self.metrics.counter(name, deterministic)

    # -- context propagation ---------------------------------------------

    def trace_context(self) -> Dict[str, Optional[str]]:
        """The compact propagation context ``{"trace", "span"}`` of the
        innermost open span, minting a meta-only span id on demand.
        Hand the dict across a fork/thread boundary and open the far
        side with :func:`adopt_context`."""
        if not self.tracer.enabled:
            return {"trace": self.trace_id, "span": None}
        return self.tracer.span_context()

    def new_context(self, label: str = "ctx") -> Dict[str, Optional[str]]:
        """A fresh root context (its own trace id) for one unit of
        work — e.g. one serve request — so each unit stitches into its
        own span tree."""
        self._ctx_seq += 1
        return {"trace": f"{self.trace_id}-{label}{self._ctx_seq}",
                "span": None}

    # -- persistence -----------------------------------------------------

    def write(self, root: Path,
              summary: Optional[Dict[str, Any]] = None) -> Dict[str, Path]:
        """Export the session as a *run directory*: ``trace.jsonl``
        (one span per line, pre-order, with ``id``/``parent`` links),
        ``metrics.jsonl`` (one metric per line, sorted), and optionally
        ``summary.json``.  Returns the written paths."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        paths: Dict[str, Path] = {}

        trace_path = root / TRACE_FILE
        with trace_path.open("w", encoding="ascii") as handle:
            for row in flatten_spans(self.tracer.export()):
                handle.write(json.dumps(row, sort_keys=True,
                                        default=str) + "\n")
        paths["trace"] = trace_path

        metrics_path = root / METRICS_FILE
        with metrics_path.open("w", encoding="ascii") as handle:
            for record in self.metrics.to_records():
                handle.write(json.dumps(record, sort_keys=True,
                                        default=str) + "\n")
        paths["metrics"] = metrics_path

        if summary is not None:
            summary_path = root / SUMMARY_FILE
            summary_path.write_text(
                json.dumps(summary, indent=2, sort_keys=True,
                           default=str) + "\n", encoding="ascii")
            paths["summary"] = summary_path
        return paths


#: The ambient session lives in thread-local storage; None =
#: observability off (the default).  Thread-local rather than a module
#: global so the serve job threads never race on one
#: tracer's span stack — each thread sees only the session it (or its
#: forking parent thread: ``fork`` preserves the forking thread's TLS)
#: explicitly installed.
_TLS = threading.local()


def active() -> Optional[ObsSession]:
    """The calling thread's session, or None when observability is
    off — the entire disabled cost is one thread-local read."""
    return getattr(_TLS, "session", None)


@contextmanager
def session(trace: bool = True, metrics: bool = True,
            profile: Optional[str] = None,
            max_spans: int = 250_000) -> Iterator[ObsSession]:
    """Install a fresh session as the ambient one for the block."""
    sess = ObsSession(trace=trace, metrics=metrics, profile=profile,
                      max_spans=max_spans)
    with use_session(sess):
        yield sess


@contextmanager
def use_session(sess: Optional[ObsSession]) -> Iterator[Optional[ObsSession]]:
    """Install an existing session (or None to force-disable) on the
    calling thread for the block, restoring the previous one after."""
    previous = getattr(_TLS, "session", None)
    _TLS.session = sess
    try:
        yield sess
    finally:
        _TLS.session = previous


@contextmanager
def collecting() -> Iterator[Optional[ObsSession]]:
    """A buffer session for one trial batch (see module docstring).

    Yields None — and installs nothing — when observability is off, so
    the disabled path stays a single thread-local read.  The caller
    exports the buffer with :func:`export_collected` and merges it into
    the real session with :func:`merge_collected`.
    """
    parent = active()
    if parent is None:
        yield None
        return
    buffer = ObsSession(trace=parent.tracer.enabled,
                        metrics=parent.metrics_enabled,
                        profile=None,
                        max_spans=parent.tracer.max_spans)
    with use_session(buffer):
        yield buffer


@contextmanager
def adopt_context(ctx: Optional[Dict[str, Optional[str]]],
                  trace: Optional[bool] = None,
                  metrics: Optional[bool] = None,
                  max_spans: int = 250_000
                  ) -> Iterator[Optional[ObsSession]]:
    """Adopt a propagated context on the *calling thread*: install a
    buffer session whose root spans carry ``meta`` links back to
    ``ctx`` (trace id + parent span id).

    This is the far side of :meth:`ObsSession.trace_context` for
    boundaries where the worker has no inherited ambient session — the
    serve job threads and the fleet supervisor→worker
    fork.  ``trace``/``metrics`` default to the calling thread's parent
    session switches when one is installed, else on.  Yields None (and
    installs nothing) when ``ctx`` is None, so callers pass the context
    unconditionally and pay nothing while observability is off.
    """
    if ctx is None:
        yield None
        return
    parent = active()
    if trace is None:
        trace = parent.tracer.enabled if parent else True
    if metrics is None:
        metrics = parent.metrics_enabled if parent else True
    buffer = ObsSession(
        trace=trace, metrics=metrics, profile=None,
        max_spans=parent.tracer.max_spans if parent else max_spans,
        trace_id=ctx.get("trace"))
    buffer.tracer.adopted = dict(ctx)
    with use_session(buffer):
        yield buffer


#: The wire form a batch returns: (exported spans, metrics snapshot).
Collected = Tuple[List[Dict[str, Any]], Dict[str, Dict[str, Any]]]

EMPTY_COLLECTED: Collected = ([], {})


def export_collected(buffer: Optional[ObsSession]) -> Collected:
    """Serialize a batch buffer for return across the fork boundary."""
    if buffer is None:
        return EMPTY_COLLECTED
    return buffer.tracer.export(), buffer.metrics.snapshot()


def merge_collected(sess: Optional[ObsSession],
                    collected: Collected) -> None:
    """Fold a batch buffer into ``sess`` (spans under the current
    span, metrics by kind).  Call once per batch, in trial order."""
    if sess is None:
        return
    spans, snapshot = collected
    sess.tracer.attach(spans)
    sess.metrics.merge(snapshot)
