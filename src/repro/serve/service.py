"""The asyncio verification service: admission control, job threads,
drain.

Request lifecycle
-----------------
1. **Parse** — the raw payload goes through
   :func:`repro.serve.schema.parse_request`; any rejection is an
   immediate error response (``malformed`` / ``unsupported``), nothing
   enters the queue.
2. **Admit** — one :class:`queue.SimpleQueue` is the only buffer in
   the service.  Once ``queue_limit`` jobs wait in it (or while the
   service drains) admission rejects with ``overloaded``
   *immediately* — backpressure is explicit 429-style rejection,
   never unbounded buffering.
3. **Run** — ``pool_threads`` job threads each take one job at a time
   from the queue, look its instance up in the instance cache under
   the job's content address (:attr:`JobSpec.identity_key`) and run it
   on that warm :class:`InstanceContext`.  Jobs share *static
   structure*, never randomness, so results are byte-identical to
   direct :func:`run_trials` calls (gated in ``tests/serve``).
4. **Deadline** — each request carries a deadline (its ``timeout`` or
   the service default), checked when a thread takes the job: an
   expired job reports ``timeout`` without running.  A ``run_trials``
   call already underway is never interrupted.
5. **Drain** — :meth:`VerifyService.drain` stops admission and waits
   until no admitted job is in flight; :meth:`close` then fails the
   jobs still queued, lets running jobs finish and stops the threads.
   A service stopped this way leaves no task or thread behind (the
   soak tier asserts exactly that).

Observability: with an ambient :mod:`repro.obs` session installed the
service records one ``serve.request`` span per completed request and
``serve/*`` counters/timers.  All of them are marked non-deterministic
— admission outcomes, queue waits and cache hits depend on arrival
timing — so serve traffic never pollutes the strict deterministic
diff gates.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs.live import TraceRing, prometheus_text
from ..obs.session import (Collected, active, adopt_context,
                           export_collected, merge_collected)
from .cache import InstanceCache
from .jobs import execute_job, resolve_instance
from .schema import (ERR_INTERNAL, ERR_OVERLOADED, ERR_TIMEOUT,
                     VerifyRequest, WireError, error_response,
                     ok_response, parse_request)

#: What a job thread hands back to the event loop for one job.
_Outcome = Tuple[Dict[str, Any], float, Optional[Collected]]


@dataclass(frozen=True)
class ServeConfig:
    """Operational knobs of one service instance."""

    host: str = "127.0.0.1"
    port: int = 8478
    #: admission-control bound: jobs waiting for a job thread.
    queue_limit: int = 256
    #: job threads, each running one ``run_trials`` call at a time.
    pool_threads: int = 2
    #: engine for jobs that did not name one explicitly.
    default_engine: str = "python"
    #: default per-request deadline, seconds.
    timeout: float = 30.0
    #: how long :meth:`VerifyService.drain` waits before giving up.
    drain_timeout: float = 10.0
    #: resolved-instance cache entries.
    cache_capacity: int = 256

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        if self.pool_threads < 1:
            raise ValueError("pool_threads must be positive")
        if self.timeout <= 0 or self.drain_timeout <= 0:
            raise ValueError("timeouts must be positive")


@dataclass
class _Pending:
    """One admitted request waiting for its result."""

    request: VerifyRequest
    future: "asyncio.Future[Dict[str, Any]]"
    enqueued: float
    deadline: float
    #: propagated trace context (None = observability off at admission)
    #: plus the ambient session's switches, so the job thread's
    #: adopted buffer mirrors them exactly.
    ctx: Optional[Dict[str, Optional[str]]] = field(default=None)
    obs_trace: bool = field(default=False)
    obs_metrics: bool = field(default=False)


class VerifyService:
    """The long-running verification service (transport-agnostic).

    Transports — HTTP (:mod:`repro.serve.http`) and ndjson
    (:mod:`repro.serve.stdio`) — call :meth:`handle` with raw payloads
    and write back whatever response object they get.  The service
    never raises on client input; every failure mode is a classified
    error response.
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.cache = InstanceCache(capacity=self.config.cache_capacity)
        #: admitted jobs no thread has taken yet; ``None`` stops a thread.
        self.queue: "queue.SimpleQueue[Optional[_Pending]]" = \
            queue.SimpleQueue()
        self._threads: List[threading.Thread] = []
        self._accepting = True
        #: admitted jobs not yet answered; only the event loop writes it.
        self._inflight = 0
        self._counts: Dict[str, int] = {
            "requests": 0, "ok": 0, "rejected": 0, "timeouts": 0,
        }
        #: finished request traces behind ``GET /v1/trace/<id>``.
        self.traces = TraceRing()

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Start the job threads; idempotent."""
        if self._threads:
            return
        loop = asyncio.get_running_loop()
        for index in range(self.config.pool_threads):
            thread = threading.Thread(target=self._work, args=(loop,),
                                      name=f"repro-serve-{index}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    @property
    def accepting(self) -> bool:
        return self._accepting and bool(self._threads)

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission and wait for all admitted work to finish.

        Returns True when the service drained cleanly within
        ``timeout`` (default: the configured ``drain_timeout``).
        """
        self._accepting = False
        limit = self.config.drain_timeout if timeout is None else timeout
        deadline = time.monotonic() + limit
        while self._inflight:
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    async def close(self) -> None:
        """Drain, then tear down: fail the jobs still queued with
        ``overloaded``, let running jobs finish, stop the threads."""
        await self.drain()
        while True:
            try:
                pending = self.queue.get_nowait()
            except queue.Empty:
                break
            self._finish(pending, error_response(
                pending.request.id, ERR_OVERLOADED,
                "service shut down before the job ran"))
        for _ in self._threads:
            self.queue.put(None)
        while self._inflight:
            await asyncio.sleep(0.005)
        for thread in self._threads:
            thread.join()
        self._threads = []

    # -- request path ----------------------------------------------------

    async def handle(self, payload: Any) -> Dict[str, Any]:
        """The full pipeline for one raw payload: parse, admit, await
        the result.  Always returns a response object."""
        started = time.monotonic()
        try:
            request = parse_request(
                payload, default_engine=self.config.default_engine)
        except WireError as exc:
            return self._reject(None, exc.code, exc.message, started)
        return await self.submit(request, started=started)

    async def submit(self, request: VerifyRequest, *,
                     started: Optional[float] = None) -> Dict[str, Any]:
        """Admit one parsed request and await its response."""
        if started is None:
            started = time.monotonic()
        if not self.accepting:
            return self._reject(request.id, ERR_OVERLOADED,
                                "service is draining", started)
        if self.queue.qsize() >= self.config.queue_limit:
            return self._reject(
                request.id, ERR_OVERLOADED,
                f"queue full ({self.config.queue_limit} jobs); "
                "back off and retry", started)
        timeout = request.timeout if request.timeout is not None \
            else self.config.timeout
        pending = _Pending(request=request,
                           future=asyncio.get_running_loop()
                           .create_future(),
                           enqueued=started,
                           deadline=started + timeout)
        sess = active()
        if sess is not None:
            # Mint the request's trace context up front: the job
            # thread adopts it (buffer roots link back to the span id
            # minted here) and the post-hoc ``serve.request`` span
            # records itself under the very same ids.
            pending.ctx = sess.new_context("req")
            pending.ctx["span"] = sess.tracer.mint_span_id()
            pending.obs_trace = sess.tracer.enabled
            pending.obs_metrics = sess.metrics_enabled
        self._inflight += 1
        self.queue.put(pending)
        return await pending.future

    def _reject(self, request_id: Optional[str], code: str,
                message: str, started: float) -> Dict[str, Any]:
        response = error_response(request_id, code, message)
        self._observe(request_id, response, started, run_seconds=0.0)
        return response

    def _finish(self, pending: _Pending, response: Dict[str, Any],
                run_seconds: float = 0.0,
                collected: Optional[Collected] = None) -> None:
        """Event-loop side of one admitted job: count it out of the
        in-flight total and answer its request."""
        self._inflight -= 1
        self._observe(pending.request.id, response, pending.enqueued,
                      run_seconds, ctx=pending.ctx, collected=collected)
        if not pending.future.done():
            pending.future.set_result(response)

    # -- job threads -----------------------------------------------------

    def _work(self, loop: asyncio.AbstractEventLoop) -> None:
        """One job thread: run queued jobs one at a time until it takes
        the ``None`` that :meth:`close` puts in for it.  Every job it
        takes is answered, so the in-flight count always drains."""
        while True:
            pending = self.queue.get()
            if pending is None:
                return
            try:
                outcome = self._run_job(pending)
            except Exception as exc:
                outcome = (error_response(
                    pending.request.id, ERR_INTERNAL,
                    f"{type(exc).__name__}: {exc}"), 0.0, None)
            loop.call_soon_threadsafe(self._finish, pending, *outcome)

    def _run_job(self, pending: _Pending) -> _Outcome:
        """Thread-side: check the deadline, resolve the job's instance
        through the cache and run the job.  No event-loop state is
        touched here; spans and metrics land in a per-request adopted
        buffer (the thread has no ambient session of its own) which
        ships back with the outcome for the event loop to merge."""
        request = pending.request
        now = time.monotonic()
        if now >= pending.deadline:
            return error_response(
                request.id, ERR_TIMEOUT,
                f"deadline expired after "
                f"{now - pending.enqueued:.3f}s in queue"), 0.0, None
        key = request.job.identity_key
        try:
            resolved, cache_hit = self.cache.get_or_build(
                key, lambda: resolve_instance(request.job))
            tick = time.monotonic()
            with adopt_context(pending.ctx, trace=pending.obs_trace,
                               metrics=pending.obs_metrics) as buf:
                result, estimate = execute_job(request.job, resolved)
        except WireError as exc:
            return error_response(request.id, exc.code,
                                  exc.message), 0.0, None
        collected = export_collected(buf) if buf is not None else None
        run_seconds = time.monotonic() - tick
        meta = {
            "engine": estimate.engine,
            "workers": estimate.workers,
            "cache_hit": cache_hit,
            "batch": 1,
            "context_key": key,
            "queue_ms": round((tick - pending.enqueued) * 1000, 3),
            "run_ms": round(run_seconds * 1000, 3),
        }
        return ok_response(request.id, result, meta), run_seconds, \
            collected

    # -- observability ---------------------------------------------------

    def _observe(self, request_id: Optional[str],
                 response: Dict[str, Any], started: float,
                 run_seconds: float,
                 ctx: Optional[Dict[str, Optional[str]]] = None,
                 collected: Optional[Collected] = None) -> None:
        self._counts["requests"] += 1
        ok = bool(response.get("ok"))
        code = None if ok else response["error"]["code"]
        if ok:
            self._counts["ok"] += 1
        else:
            self._counts["rejected"] += 1
            if code == ERR_TIMEOUT:
                self._counts["timeouts"] += 1
        sess = active()
        if sess is None:
            return
        total = time.monotonic() - started
        with sess.span("serve.request", id=request_id or "-",
                       ok=ok, code=code or "-") as span:
            if span is not None:
                if ok:
                    span.note(run_ms=response["meta"]["run_ms"])
                if ctx is not None:
                    # The exact ids the job thread's buffer linked to
                    # at admission — the request's spans stitch into
                    # one connected tree under this root.
                    span.meta["trace"] = ctx["trace"]
                    span.meta["span"] = ctx["span"]
            if collected is not None:
                merge_collected(sess, collected)
        if span is not None and ctx is not None and sess.tracer.enabled:
            aliases = [request_id] if request_id else []
            self.traces.push(ctx["trace"], span.export(), aliases)
        if sess.metrics_enabled:
            metrics = sess.metrics
            metrics.counter("serve/requests", deterministic=False).inc()
            if ok:
                metrics.counter("serve/ok", deterministic=False).inc()
                result = response["result"]
                metrics.counter("serve/trials",
                                deterministic=False).inc(result["trials"])
                metrics.timer("serve/seconds/run").inc(run_seconds)
                if response["meta"]["cache_hit"]:
                    metrics.counter("serve/cache/hits",
                                    deterministic=False).inc()
                else:
                    metrics.counter("serve/cache/misses",
                                    deterministic=False).inc()
            else:
                metrics.counter(f"serve/rejected/{code}",
                                deterministic=False).inc()
            metrics.timer("serve/seconds/total").inc(total)
            metrics.histogram("serve/latency_ms",
                              deterministic=False).observe(total * 1000)

    # -- introspection ---------------------------------------------------

    def metrics_text(self) -> str:
        """The Prometheus exposition for ``GET /v1/metrics``: the
        ambient registry as of this scrape plus service-level gauges
        (queue depth, counts, cache) — non-empty and well-formed even
        with observability off."""
        sess = active()
        snapshot = sess.metrics.snapshot() if sess is not None else {}
        stats = self.stats()
        extra: Dict[str, Any] = {
            "serve/up": 1,
            "serve/accepting": int(stats["accepting"]),
            "serve/queue/depth": stats["queue"]["depth"],
            "serve/queue/limit": stats["queue"]["limit"],
            "serve/inflight": stats["inflight"],
            "serve/traces/retained": len(self.traces),
        }
        for name, value in stats["counts"].items():
            extra[f"serve/counts/{name}"] = value
        for name, value in stats["cache"].items():
            extra[f"serve/cache_stats/{name}"] = value
        return prometheus_text(snapshot, extra)

    def trace_tree(self, key: str) -> Optional[Dict[str, Any]]:
        """A finished request's span tree by trace id or request id
        (``GET /v1/trace/<id>``), or None when unknown/evicted."""
        return self.traces.get(key)

    def stats(self) -> Dict[str, Any]:
        """Health/metrics payload for the transports."""
        return {
            "accepting": self.accepting,
            "queue": {"depth": self.queue.qsize(),
                      "limit": self.config.queue_limit},
            "inflight": self._inflight,
            "counts": dict(self._counts),
            "cache": self.cache.stats(),
            "config": {
                "pool_threads": self.config.pool_threads,
                "default_engine": self.config.default_engine,
                "timeout": self.config.timeout,
            },
        }
