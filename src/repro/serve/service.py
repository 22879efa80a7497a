"""The asyncio verification service: admission control, batching,
dispatch, drain.

Request lifecycle
-----------------
1. **Parse** — the raw payload goes through
   :func:`repro.serve.schema.parse_request`; any rejection is an
   immediate error response (``malformed`` / ``unsupported``), nothing
   enters the queue.
2. **Admit** — a bounded :class:`asyncio.Queue` is the only buffer in
   the service.  A full queue (or a draining service) rejects with
   ``overloaded`` *immediately* — backpressure is explicit 429-style
   rejection, never unbounded buffering.
3. **Batch** — the batcher task drains whatever is queued (up to
   ``batch_max`` jobs), groups it by the jobs' content address
   (:attr:`JobSpec.identity_key`), and dispatches one executor task
   per group.  Jobs in a group run back-to-back on one warm
   :class:`InstanceContext` from the sharded cache — coalescing shares
   *static structure*, never randomness, so results are byte-identical
   to direct :func:`run_trials` calls (gated in ``tests/serve``).
4. **Deadline** — each request carries a deadline (its ``timeout`` or
   the service default), checked when its group reaches the executor:
   expired jobs report ``timeout`` without running.  A ``run_trials``
   batch already underway is never interrupted.
5. **Drain** — :meth:`VerifyService.drain` stops admission and waits
   for the queue and all in-flight groups; :meth:`close` then fails
   anything still pending and shuts the executor down.  A service
   stopped this way leaves no orphan tasks behind (the soak tier
   asserts exactly that).

Observability: with an ambient :mod:`repro.obs` session installed the
service records one ``serve.request`` span per completed request and
``serve/*`` counters/timers.  All of them are marked non-deterministic
— admission outcomes, batch shapes and cache hits depend on arrival
timing — so serve traffic never pollutes the strict deterministic
diff gates.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..obs.live import MetricsRing, TraceRing, prometheus_text
from ..obs.session import (Collected, active, adopt_context,
                           export_collected, merge_collected)
from .cache import ShardedCache
from .jobs import ResolvedInstance, execute_job, resolve_instance
from .schema import (ERR_INTERNAL, ERR_OVERLOADED, ERR_TIMEOUT,
                     VerifyRequest, WireError, error_response,
                     ok_response, parse_request)


@dataclass(frozen=True)
class ServeConfig:
    """Operational knobs of one service instance."""

    host: str = "127.0.0.1"
    port: int = 8478
    #: admission-control bound: queued-but-undispatched requests.
    queue_limit: int = 256
    #: most jobs one batcher sweep coalesces.
    batch_max: int = 32
    #: executor threads running ``run_trials`` batches.
    pool_threads: int = 2
    #: engine for jobs that did not name one explicitly.
    default_engine: str = "python"
    #: default per-request deadline, seconds.
    timeout: float = 30.0
    #: how long :meth:`VerifyService.drain` waits before giving up.
    drain_timeout: float = 10.0
    #: resolved-instance cache geometry.
    cache_capacity: int = 256
    cache_shards: int = 8
    #: live-exposition throttle: at most one metrics-ring snapshot per
    #: this many seconds (the ``GET /v1/metrics`` backing store).
    metrics_interval: float = 0.25
    #: finished request traces retained for ``GET /v1/trace/<id>``.
    trace_capacity: int = 256

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        if self.batch_max < 1:
            raise ValueError("batch_max must be positive")
        if self.pool_threads < 1:
            raise ValueError("pool_threads must be positive")
        if self.timeout <= 0 or self.drain_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if self.metrics_interval < 0:
            raise ValueError("metrics_interval must be >= 0")
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be positive")


@dataclass
class _Pending:
    """One admitted request waiting for its result."""

    request: VerifyRequest
    future: "asyncio.Future[Dict[str, Any]]"
    enqueued: float
    deadline: float
    #: propagated trace context (None = observability off at admission)
    #: plus the ambient session's switches, so the executor thread's
    #: adopted buffer mirrors them exactly.
    ctx: Optional[Dict[str, Optional[str]]] = field(default=None)
    obs_trace: bool = field(default=False)
    obs_metrics: bool = field(default=False)
    #: filled by the executor: (response, run_seconds, collected) — the
    #: event loop attaches queue timing and resolves the future.
    outcome: Optional[Tuple[Dict[str, Any], float, Collected]] = \
        field(default=None)


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
        self.cache = ShardedCache(capacity=self.config.cache_capacity,
                                  shards=self.config.cache_shards)
        self.queue: "asyncio.Queue[_Pending]" = asyncio.Queue(
            maxsize=self.config.queue_limit)
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.pool_threads,
            thread_name_prefix="repro-serve")
        self._accepting = True
        self._batcher: Optional[asyncio.Task] = None
        self._dispatches: Set[asyncio.Task] = set()
        self._counts: Dict[str, int] = {
            "requests": 0, "ok": 0, "rejected": 0, "batches": 0,
            "batched_jobs": 0, "timeouts": 0,
        }
        #: live telemetry: bounded snapshot ring + finished traces.
        self.live = MetricsRing(interval=self.config.metrics_interval)
        self.traces = TraceRing(capacity=self.config.trace_capacity)

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Start the batcher; idempotent."""
        if self._batcher is None:
            self._batcher = asyncio.create_task(self._batch_loop(),
                                                name="repro-serve-batcher")

    @property
    def accepting(self) -> bool:
        return self._accepting and self._batcher is not None \
            and not self._batcher.done()

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission and wait for all admitted work to finish.

        Returns True when the service drained cleanly within
        ``timeout`` (default: the configured ``drain_timeout``).
        """
        self._accepting = False
        limit = self.config.drain_timeout if timeout is None else timeout
        deadline = time.monotonic() + limit
        while self.queue.qsize() or self._dispatches:
            if time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    async def close(self) -> None:
        """Drain, then tear down: cancel the batcher, fail anything
        still pending with ``overloaded``, shut the executor down."""
        await self.drain()
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        while not self.queue.empty():
            pending = self.queue.get_nowait()
            self._resolve(pending, error_response(
                pending.request.id, ERR_OVERLOADED,
                "service shut down before the job ran"))
        if self._dispatches:
            await asyncio.gather(*self._dispatches,
                                 return_exceptions=True)
        self.executor.shutdown(wait=True)

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
        if self.queue.full():
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
            # Mint the request's trace context up front: the executor
            # thread adopts it (buffer roots link back to the span id
            # minted here) and the post-hoc ``serve.request`` span
            # records itself under the very same ids.
            pending.ctx = sess.new_context("req")
            pending.ctx["span"] = sess.tracer.mint_span_id()
            pending.obs_trace = sess.tracer.enabled
            pending.obs_metrics = sess.metrics_enabled
        self.queue.put_nowait(pending)
        return await pending.future

    def _reject(self, request_id: Optional[str], code: str,
                message: str, started: float) -> Dict[str, Any]:
        response = error_response(request_id, code, message)
        self._observe(request_id, response, started, run_seconds=0.0)
        return response

    def _resolve(self, pending: _Pending, response: Dict[str, Any],
                 run_seconds: float = 0.0,
                 collected: Optional[Collected] = None) -> None:
        self._observe(pending.request.id, response, pending.enqueued,
                      run_seconds, ctx=pending.ctx, collected=collected)
        if not pending.future.done():
            pending.future.set_result(response)

    # -- batching --------------------------------------------------------

    async def _batch_loop(self) -> None:
        while True:
            first = await self.queue.get()
            batch = [first]
            while (len(batch) < self.config.batch_max
                   and not self.queue.empty()):
                batch.append(self.queue.get_nowait())
            groups: Dict[str, List[_Pending]] = {}
            for pending in batch:
                key = pending.request.job.identity_key
                groups.setdefault(key, []).append(pending)
            self._counts["batches"] += len(groups)
            self._counts["batched_jobs"] += len(batch)
            for key, group in groups.items():
                task = asyncio.create_task(self._dispatch(key, group))
                self._dispatches.add(task)
                task.add_done_callback(self._dispatches.discard)

    async def _dispatch(self, key: str, group: List[_Pending]) -> None:
        """Run one coalesced group on the executor and resolve every
        request in it."""
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self.executor, self._run_group, key, group)
        except Exception as exc:  # pragma: no cover - executor death
            outcomes = [(error_response(p.request.id, ERR_INTERNAL,
                                        f"dispatch failed: {exc}"),
                         0.0, None)
                        for p in group]
        for pending, (response, run_seconds, collected) in zip(group,
                                                               outcomes):
            self._resolve(pending, response, run_seconds, collected)

    def _run_group(self, key: str,
                   group: List[_Pending]
                   ) -> List[Tuple[Dict[str, Any], float,
                                   Optional[Collected]]]:
        """Executor-side: resolve the group's shared instance once,
        then run each job sequentially on the warm context.  Runs in a
        worker thread — no event-loop state is touched here; spans and
        metrics land in a per-request adopted buffer (the executor
        thread has no ambient session of its own) which ships back with
        the outcome for the event loop to merge."""
        outcomes: List[Tuple[Dict[str, Any], float,
                             Optional[Collected]]] = []
        resolved: Optional[ResolvedInstance] = None
        resolve_error: Optional[WireError] = None
        cache_hit = False
        for pending in group:
            request = pending.request
            now = time.monotonic()
            if now >= pending.deadline:
                self._counts["timeouts"] += 1
                outcomes.append((error_response(
                    request.id, ERR_TIMEOUT,
                    f"deadline expired after "
                    f"{now - pending.enqueued:.3f}s in queue"),
                    0.0, None))
                continue
            if resolved is None and resolve_error is None:
                try:
                    resolved, cache_hit = self.cache.get_or_build(
                        key, lambda: resolve_instance(request.job))
                except WireError as exc:
                    resolve_error = exc
            if resolve_error is not None:
                outcomes.append((error_response(
                    request.id, resolve_error.code,
                    resolve_error.message), 0.0, None))
                continue
            tick = time.monotonic()
            try:
                with adopt_context(pending.ctx,
                                   trace=pending.obs_trace,
                                   metrics=pending.obs_metrics) as buf:
                    result, estimate = execute_job(request.job,
                                                   resolved)
            except WireError as exc:
                outcomes.append((error_response(request.id, exc.code,
                                                exc.message), 0.0, None))
                continue
            except Exception as exc:
                outcomes.append((error_response(
                    request.id, ERR_INTERNAL,
                    f"{type(exc).__name__}: {exc}"), 0.0, None))
                continue
            collected = export_collected(buf) if buf is not None \
                else None
            run_seconds = time.monotonic() - tick
            meta = {
                "engine": estimate.engine,
                "workers": estimate.workers,
                "cache_hit": cache_hit,
                "batch": len(group),
                "context_key": key,
                "queue_ms": round((tick - pending.enqueued) * 1000, 3),
                "run_ms": round(run_seconds * 1000, 3),
            }
            outcomes.append((ok_response(request.id, result, meta),
                             run_seconds, collected))
        return outcomes

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
                    # The exact ids the executor buffer linked to at
                    # admission — the request's spans stitch into one
                    # connected tree under this root.
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
        self.live.maybe_push(sess)

    # -- introspection ---------------------------------------------------

    def metrics_text(self) -> str:
        """The Prometheus exposition for ``GET /v1/metrics``: the
        latest ring snapshot of the ambient registry plus service-level
        gauges (queue depth, counts, cache) — non-empty and well-formed
        even with observability off."""
        sess = active()
        if sess is not None:
            self.live.maybe_push(sess)
        slot = self.live.latest()
        snapshot = slot["metrics"] if slot is not None else {}
        stats = self.stats()
        extra: Dict[str, Any] = {
            "serve/up": 1,
            "serve/accepting": int(stats["accepting"]),
            "serve/queue/depth": stats["queue"]["depth"],
            "serve/queue/limit": stats["queue"]["limit"],
            "serve/inflight_groups": stats["inflight_groups"],
            "serve/traces/retained": len(self.traces),
        }
        for name, value in stats["counts"].items():
            extra[f"serve/counts/{name}"] = value
        for name, value in stats["cache"].items():
            if isinstance(value, (int, float)):
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
            "inflight_groups": len(self._dispatches),
            "counts": dict(self._counts),
            "cache": self.cache.stats(),
            "config": {
                "batch_max": self.config.batch_max,
                "pool_threads": self.config.pool_threads,
                "default_engine": self.config.default_engine,
                "timeout": self.config.timeout,
            },
        }
