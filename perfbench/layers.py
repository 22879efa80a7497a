"""Span wrappers around the public functions of each layer.

Imported only by ``shim.py`` inside a traced server or fleet process.
:func:`install` replaces module attributes with timing wrappers, so the
program itself is unchanged; every finished span is kept in memory and
written as one JSON line per span to ``<trace_dir>/spans-<pid>.jsonl``
when the process (or a forked fleet shard) ends.

A span row is ``{"name", "id", "parent", "trace", "start", "end",
"attrs", "pid"}`` with ``start``/``end`` on the system-wide monotonic
clock (``time.perf_counter``), so rows from the server, the shards and
the load generator line up on one time axis.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (trace id, span id) of the innermost open span in this context.
_CURRENT: contextvars.ContextVar[Optional[Tuple[str, str]]] = \
    contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """Finished spans of one process, plus the id and trace counters."""

    def __init__(self, trace_dir: Path, default_trace: str) -> None:
        self.trace_dir = trace_dir
        self.default_trace = default_trace
        self.spans: List[Dict[str, Any]] = []
        self.lock = threading.Lock()
        self.ids = itertools.count(1)
        self.traces = itertools.count(1)
        #: id(job) -> (job, span context) from parse to the executor.
        self.jobs: Dict[int, Tuple[Any, Tuple[str, str]]] = {}
        #: first calls already timed: (id(context), method, key).
        self.context_seen: Dict[Tuple[int, str, Any], Any] = {}

    def reset_for_child(self) -> None:
        """A forked shard starts with an empty span list of its own."""
        self.spans = []
        self.lock = threading.Lock()

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None,
             **attrs: Any) -> Iterator[Dict[str, Any]]:
        parent = _CURRENT.get()
        if trace is None:
            trace = parent[0] if parent is not None else self.default_trace
        span_id = f"{os.getpid()}.{next(self.ids)}"
        row: Dict[str, Any] = {
            "name": name, "id": span_id,
            "parent": parent[1] if parent is not None else None,
            "trace": trace, "attrs": attrs, "pid": os.getpid()}
        token = _CURRENT.set((trace, span_id))
        row["start"] = time.perf_counter()
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            _CURRENT.reset(token)
            with self.lock:
                self.spans.append(row)

    def dump(self) -> None:
        with self.lock:
            spans, self.spans = self.spans, []
        if not spans:
            return
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"spans-{os.getpid()}.jsonl"
        with path.open("a", encoding="ascii") as handle:
            for row in spans:
                handle.write(json.dumps(row, sort_keys=True, default=str)
                             + "\n")


def _wrap(rec: Recorder, func: Callable, name: str,
          note: Optional[Callable[[Dict[str, Any], Any], None]] = None
          ) -> Callable:
    """A synchronous wrapper recording one span per call; ``note``
    may copy facts from the return value into the span's attrs."""
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with rec.span(name) as row:
            result = func(*args, **kwargs)
            if note is not None:
                note(row["attrs"], result)
            return result
    return wrapper


def _note_estimate(attrs: Dict[str, Any], estimate: Any) -> None:
    attrs.update(engine=estimate.engine, trials=estimate.trials,
                 decide_calls=estimate.decide_calls,
                 phase_seconds=dict(estimate.phase_seconds))


def _install_context(rec: Recorder) -> None:
    """Time the first call of each public ``InstanceContext`` method
    per context (and per argument, for the keyed ones); later calls are
    cache hits and pass straight through."""
    from repro.core.context import InstanceContext

    def first_call(method: str, func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(self: Any, *args: Any) -> Any:
            key = (id(self), method,
                   tuple(a if isinstance(a, (int, tuple)) else id(a)
                         for a in args))
            if key in rec.context_seen:
                return func(self, *args)
            # Holding the context keeps its id from being reused.
            rec.context_seen[key] = self
            with rec.span(f"core.context.{method}", n=self.graph.n):
                return func(self, *args)
        return wrapper

    for method in ("broadcast_plan", "ensure_validated", "tree_advice",
                   "nontrivial_automorphism", "closed_adjacency",
                   "closed_adjacency_csr", "permuted_closed_adjacency",
                   "tree_levels"):
        setattr(InstanceContext, method,
                first_call(method, getattr(InstanceContext, method)))
    for prop in ("closed_neighborhoods", "closed_rows"):
        getter = first_call(prop, getattr(InstanceContext, prop).fget)
        setattr(InstanceContext, prop, property(getter))


def _install_kernels(rec: Recorder) -> None:
    import repro.core.kernels as kernels
    from repro.core.kernels.base import TrialKernel

    kernels.find_kernel = _wrap(rec, kernels.find_kernel,
                                "core.kernels.find_kernel")
    pending = [TrialKernel]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run_batch" in cls.__dict__ \
                and not getattr(cls.__dict__["run_batch"],
                                "__isabstractmethod__", False):
            cls.run_batch = _wrap(rec, cls.__dict__["run_batch"],
                                  "core.kernels.run_batch")


def _install_serve(rec: Recorder) -> None:
    import repro.serve.jobs as jobs
    import repro.serve.service as service

    parse = service.parse_request

    def parse_request(payload: Any, **kwargs: Any) -> Any:
        with rec.span("serve.schema.parse_request"):
            request = parse(payload, **kwargs)
        # The executor thread has no context of its own: hand it the
        # request's span context through the job object.
        ctx = _CURRENT.get()
        if ctx is not None:
            rec.jobs[id(request.job)] = (request.job, ctx)
        return request

    handle = service.VerifyService.handle

    async def traced_handle(self: Any, payload: Any) -> Any:
        trace = f"req-{next(rec.traces)}"
        with rec.span("serve.request", trace=trace) as row:
            response = await handle(self, payload)
            row["attrs"]["request"] = response.get("id")
        for key, (job, ctx) in list(rec.jobs.items()):
            if ctx[0] == trace:
                rec.jobs.pop(key, None)
        return response

    def in_job_context(func: Callable, name: str) -> Callable:
        inner = _wrap(rec, func, name)

        @functools.wraps(func)
        def wrapper(job: Any, *args: Any, **kwargs: Any) -> Any:
            entry = rec.jobs.get(id(job))
            token = _CURRENT.set(entry[1]) if entry is not None else None
            try:
                return inner(job, *args, **kwargs)
            finally:
                if token is not None:
                    _CURRENT.reset(token)
        return wrapper

    service.parse_request = parse_request
    service.VerifyService.handle = traced_handle
    service.resolve_instance = in_job_context(
        service.resolve_instance, "serve.jobs.resolve_instance")
    service.execute_job = in_job_context(service.execute_job,
                                         "serve.jobs.execute_job")
    jobs.run_trials = _wrap(rec, jobs.run_trials, "runner.run_trials",
                            _note_estimate)


def _install_fleet(rec: Recorder) -> None:
    import repro.fleet.cli as fleet_cli
    import repro.fleet.supervisor as supervisor
    import repro.fleet.worker as worker
    import repro.lab.runner as lab_runner
    from repro.lab.store import ResultStore

    fleet_cli.run_fleet = _wrap(rec, fleet_cli.run_fleet, "fleet.run")
    supervisor.plan_tasks = _wrap(rec, supervisor.plan_tasks,
                                  "fleet.plan.plan_tasks")
    supervisor.merge_shards = _wrap(rec, supervisor.merge_shards,
                                    "fleet.supervisor.merge_shards")
    supervisor.execute_shard_tasks = _wrap(
        rec, supervisor.execute_shard_tasks, "fleet.steal")

    # A wave has no public entry point; _run_wave is the one private
    # function wrapped, as the boundary fork_join_s is measured on.
    run_wave = supervisor._run_wave

    def traced_run_wave(specs: Any, root: Any, work: Any, attempt: int,
                        *args: Any) -> Any:
        # Forked shards inherit this context, so every span of one
        # wave shares the wave's trace id.
        with rec.span("fleet.wave", trace=f"wave-{attempt}",
                      attempt=attempt, shards=len(work)):
            return run_wave(specs, root, work, attempt, *args)

    worker_main = supervisor.worker_main

    def traced_worker_main(specs: Any, root: Any, shard: int,
                           tasks: Any, *args: Any) -> None:
        rec.reset_for_child()
        try:
            with rec.span("fleet.shard", shard=shard, cells=len(tasks)):
                worker_main(specs, root, shard, tasks, *args)
        finally:
            # multiprocessing ends the child with os._exit: no atexit.
            rec.dump()

    supervisor._run_wave = traced_run_wave
    supervisor.worker_main = traced_worker_main
    worker.compute_cell = _wrap(rec, worker.compute_cell, "fleet.cell")
    worker.guard_record_bounds = _wrap(rec, worker.guard_record_bounds,
                                       "ledger.guard_record_bounds")
    worker.append_lease = _wrap(rec, worker.append_lease,
                                "fleet.leases.append_lease")
    ResultStore.load_cells = _wrap(rec, ResultStore.load_cells,
                                   "lab.store.load_cells")
    ResultStore.append_cell = _wrap(rec, ResultStore.append_cell,
                                    "lab.store.append_cell")
    lab_runner.run_trials = _wrap(rec, lab_runner.run_trials,
                                  "runner.run_trials", _note_estimate)


def install(trace_dir: Path, command: str, started: float) -> Recorder:
    """Install every wrapper for ``command`` (``serve`` or ``fleet``)
    and arrange for the spans to be written at exit.  ``started`` is
    the perf_counter reading when the shim began; the ``bench.import``
    span runs from there to the wrappers being in place."""
    rec = Recorder(Path(trace_dir), default_trace=f"{command}-process")
    _install_context(rec)
    _install_kernels(rec)
    if command == "serve":
        _install_serve(rec)
    elif command == "fleet":
        _install_fleet(rec)
    else:
        raise ValueError(f"no traced layers for command {command!r}")
    rec.spans.append({
        "name": "bench.import", "id": f"{os.getpid()}.0", "parent": None,
        "trace": rec.default_trace, "attrs": {}, "pid": os.getpid(),
        "start": started, "end": time.perf_counter()})
    atexit.register(rec.dump)
    return rec
