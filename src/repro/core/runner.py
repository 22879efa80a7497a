"""Execution engine: run a protocol against a prover on an instance.

The runner is the *trusted base* of every experiment: it samples
Arthur challenges, relays prover responses, builds each node's
:class:`~repro.core.model.LocalView` (enforcing locality by
construction), applies the automatic broadcast-consistency checks, and
accounts per-node communication bits exactly as the paper counts them
(challenge bits included for upper bounds).

Batched execution
-----------------
Monte-Carlo estimation is the repo's hot path, so the runner offers a
batched engine on top of single executions:

* an :class:`~repro.core.context.InstanceContext` caches the static
  per-instance structure (neighborhoods, spanning trees, automorphism
  witnesses) across the trials of a batch;
* :func:`run_trials` executes ``trials`` independent runs with
  **deterministic per-trial seed streams** — trial ``t`` always runs
  on ``random.Random(seed + t)`` — so serial and parallel execution
  produce bit-identical :class:`AcceptanceEstimate`s;
* acceptance is an AND over nodes, so batch trials short-circuit the
  decision loop on the first rejecting node (the rng stream is not
  touched after the rounds, so short-circuiting cannot perturb later
  trials);
* ``workers > 1`` fans trials out over a fork-based
  ``multiprocessing`` pool (falling back to serial execution where
  ``fork`` is unavailable);
* ``engine="numpy"`` replays whole batches through the vectorized
  trial kernels of :mod:`repro.core.kernels` when one models the
  (protocol, prover) pair — byte-identical outputs (estimates, obs
  spans, metrics) to the reference python engine, cross-checked on
  trial 0 of every batch, with automatic fallback when numpy is absent
  or no kernel matches.

Both :class:`ExecutionResult` and :class:`AcceptanceEstimate` carry
lightweight instrumentation (per-phase wall time and call counters,
excluded from equality) so speedups are measurable, not anecdotal.
When an observability session (:mod:`repro.obs`) is active,
:func:`run_trials` additionally records per-trial spans and publishes
the batch's counters and timers under the ``runner/*`` namespace; with
no session installed the instrumentation collapses to one global read
per batch (the ``bench_obs`` overhead gate pins this under 3%).
"""

from __future__ import annotations

import random
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Tuple,
                    TYPE_CHECKING)

from ..obs.session import (Collected, active, collecting,
                           export_collected, merge_collected, use_session)
from .context import InstanceContext
from .model import (Instance, LocalView, NodeMessage, Protocol,
                    ProtocolViolation, Prover, ROUND_ARTHUR, ROUND_MERLIN)

if TYPE_CHECKING:  # pragma: no cover - typing only (lazy at runtime)
    from .kernels.base import TrialKernel

#: Engines :func:`run_trials` accepts.  "python" is the per-trial
#: reference implementation; "numpy" batches trials through the
#: vectorized kernels of :mod:`repro.core.kernels` where one matches
#: the (protocol, prover) pair, falling back to "python" otherwise.
ENGINES = ("python", "numpy")

#: Exception types from a decision function that mean "the prover's
#: response was malformed" and therefore a local reject — never a crash.
_DECISION_ERRORS = (ProtocolViolation, KeyError, TypeError, ValueError,
                    IndexError, AttributeError)


@dataclass
class Transcript:
    """Everything that happened in one execution."""

    #: round index -> {v: challenge value} (Arthur rounds only).
    randomness: Dict[int, Dict[int, Any]] = field(default_factory=dict)
    #: round index -> {v: {field: value}} (Merlin rounds only).
    messages: Dict[int, Dict[int, NodeMessage]] = field(default_factory=dict)


@dataclass
class ExecutionResult:
    """Outcome of one protocol execution."""

    accepted: bool
    decisions: Dict[int, bool]
    transcript: Transcript
    #: per-node communication with the prover, in bits.
    node_cost_bits: Dict[int, int]
    #: wall time per phase ("arthur", "merlin", "decide"), seconds.
    phase_seconds: Dict[str, float] = field(default_factory=dict,
                                            compare=False)
    #: decision functions actually invoked (< n when short-circuited).
    decide_calls: int = field(default=0, compare=False)

    @property
    def max_cost_bits(self) -> int:
        """The paper's complexity measure: the worst node's total bits."""
        return max(self.node_cost_bits.values()) if self.node_cost_bits else 0

    def rejecting_nodes(self) -> List[int]:
        return sorted(v for v, ok in self.decisions.items() if not ok)


def _broadcast_consistent(view: LocalView,
                          plan: Tuple[Tuple[int, Any], ...]) -> bool:
    """The automatic check: every broadcast field must agree across the
    node's closed neighborhood.  A missing message or field counts as a
    mismatch (the prover violated the protocol).  ``plan`` is the
    context-cached ``(round, broadcast fields)`` layout."""
    for round_idx, fields in plan:
        per_node = view.messages.get(round_idx)
        if per_node is None:
            return False
        own = per_node.get(view.node)
        if own is None:
            return False
        for name in fields:
            if name not in own:
                return False
            for u in view.closed_neighborhood:
                other = per_node.get(u)
                if other is None or other.get(name) != own[name]:
                    return False
    return True


def _decide_node(protocol: Protocol, view: LocalView,
                 plan: Tuple[Tuple[int, Any], ...]) -> bool:
    if not _broadcast_consistent(view, plan):
        return False
    try:
        return bool(protocol.decide(view))
    except _DECISION_ERRORS:
        return False


def _decide_all(protocol: Protocol, instance: Instance,
                transcript: Transcript, context: InstanceContext,
                stop_on_first_reject: bool) -> Tuple[bool, Dict[int, bool]]:
    """The decision phase: every node's verdict on a full transcript.

    Round slices are materialized once per transcript; each node's
    view then indexes them directly by its closed neighborhood (the
    caller filled every vertex, so no membership tests are needed).
    """
    plan = context.broadcast_plan(protocol)
    closed = context.closed_neighborhoods
    rand_rounds = tuple(transcript.randomness.items())
    msg_rounds = tuple(transcript.messages.items())
    n = instance.n

    accepted = True
    decisions: Dict[int, bool] = {}
    for v in instance.graph.vertices:
        closed_v = closed[v]
        view = LocalView(
            node=v,
            n=n,
            closed_neighborhood=closed_v,
            node_input=instance.input_of(v),
            randomness={r: {u: vals[u] for u in closed_v}
                        for r, vals in rand_rounds},
            messages={r: {u: msgs[u] for u in closed_v}
                      for r, msgs in msg_rounds},
        )
        ok = _decide_node(protocol, view, plan)
        decisions[v] = ok
        if not ok:
            accepted = False
            if stop_on_first_reject:
                break
    return accepted, decisions


def decide_transcript(protocol: Protocol, instance: Instance,
                      transcript: Transcript, *,
                      context: Optional[InstanceContext] = None,
                      stop_on_first_reject: bool = True
                      ) -> Tuple[bool, Dict[int, bool]]:
    """Run only the decision phase on a fully-specified transcript.

    The transcript must carry a value for *every* vertex in each of its
    randomness and message rounds (as :func:`run_protocol` produces).
    This is the leaf evaluator of the exact game-tree solver in
    :mod:`repro.adversary`: the solver enumerates prover messages and
    challenge assignments symbolically, then scores each leaf through
    the very same broadcast checks and decision functions a real
    execution uses — so the exact value certifies the *implemented*
    protocol, not a hand-derived model of it.
    """
    if context is None:
        context = InstanceContext(instance, protocol)
    elif context.instance is not instance:
        raise ValueError("context was built for a different instance")
    context.ensure_validated(protocol)
    return _decide_all(protocol, instance, transcript, context,
                       stop_on_first_reject)


def run_protocol(protocol: Protocol, instance: Instance, prover: Prover,
                 rng: random.Random, *,
                 context: Optional[InstanceContext] = None,
                 stop_on_first_reject: bool = False) -> ExecutionResult:
    """Execute one full run and return the verdict, transcript and cost.

    ``context`` is an optional :class:`InstanceContext` for the
    ``(protocol, instance)`` pair; passing one across calls (as
    :func:`run_trials` does) reuses all static per-instance structure.
    A context built for a different instance raises ``ValueError``.

    With ``stop_on_first_reject=True`` the decision loop exits on the
    first rejecting node (acceptance is an AND, and node decisions
    never touch the rng), leaving ``decisions`` partial; the default
    decides every node, as the seed engine did.

    Raises ``ValueError`` if the instance violates the protocol's model
    requirements (e.g. a disconnected network for a spanning-tree
    protocol) and ``ProtocolViolation`` if the prover fails to answer
    every node (messages with *wrong content* never raise — they lead
    to local rejects — but a prover that breaks the communication
    pattern itself is a harness bug, not a cheating strategy).
    """
    if context is None:
        context = InstanceContext(instance, protocol)
    elif context.instance is not instance:
        raise ValueError("context was built for a different instance")
    context.ensure_validated(protocol)
    prover.reset()
    prover.bind_context(context)
    graph = instance.graph
    transcript = Transcript()
    node_cost = dict.fromkeys(graph.vertices, 0)
    phase = {"arthur": 0.0, "merlin": 0.0, "decide": 0.0}

    for round_idx, kind in enumerate(protocol.pattern):
        tick = time.perf_counter()
        if kind == ROUND_ARTHUR:
            bits = protocol.arthur_bits(instance, round_idx)
            values = {v: protocol.arthur_value(instance, round_idx, v, rng)
                      for v in graph.vertices}
            transcript.randomness[round_idx] = values
            for v in graph.vertices:
                node_cost[v] += bits
            phase["arthur"] += time.perf_counter() - tick
        elif kind == ROUND_MERLIN:
            response = prover.respond(
                instance, round_idx,
                transcript.randomness, transcript.messages, rng)
            missing = [v for v in graph.vertices if v not in response]
            if missing:
                raise ProtocolViolation(
                    f"prover left nodes without a round-{round_idx} "
                    f"message: {missing[:5]}")
            transcript.messages[round_idx] = {
                v: dict(response[v]) for v in graph.vertices}
            for v in graph.vertices:
                node_cost[v] += protocol.merlin_bits(
                    instance, round_idx, transcript.messages[round_idx][v])
            phase["merlin"] += time.perf_counter() - tick
        else:  # pragma: no cover - patterns are library-defined
            raise ValueError(f"unknown round kind {kind!r}")

    tick = time.perf_counter()
    accepted, decisions = _decide_all(protocol, instance, transcript,
                                      context, stop_on_first_reject)
    phase["decide"] = time.perf_counter() - tick

    return ExecutionResult(
        accepted=accepted,
        decisions=decisions,
        transcript=transcript,
        node_cost_bits=node_cost,
        phase_seconds=phase,
        decide_calls=len(decisions),
    )


@dataclass
class AcceptanceEstimate:
    """Monte-Carlo acceptance probability with a confidence interval.

    The instrumentation fields (everything after ``trials``) describe
    how the estimate was produced; they are excluded from equality so
    that bit-identical estimates compare equal regardless of wall time
    or worker count.
    """

    accepted: int
    trials: int
    #: wall time of the whole batch, seconds.
    elapsed_seconds: float = field(default=0.0, compare=False)
    #: per-phase wall time summed over trials (and workers).
    phase_seconds: Dict[str, float] = field(default_factory=dict,
                                            compare=False)
    #: decision functions invoked across the batch.
    decide_calls: int = field(default=0, compare=False)
    #: trials whose decision loop exited early on a reject.
    short_circuits: int = field(default=0, compare=False)
    #: worker processes used (1 = serial).
    workers: int = field(default=1, compare=False)
    #: engine that executed the batch ("python", or "numpy" when a
    #: vectorized kernel actually ran — a numpy request that fell back
    #: reports "python").  Excluded from equality like the rest of the
    #: provenance fields: engines are byte-equivalent by contract.
    engine: str = field(default="python", compare=False)
    #: whether ``elapsed_seconds``/``phase_seconds`` were measured.
    #: Hand-built estimates (tests, analytic tooling) leave this False,
    #: so a zero rate means "untimed", never "instantaneous".
    timed: bool = field(default=False, compare=False)

    @property
    def probability(self) -> float:
        return self.accepted / self.trials if self.trials else 0.0

    @property
    def trials_per_second(self) -> float:
        """Batch throughput (0.0 when the estimate was not timed)."""
        if not self.timed or self.elapsed_seconds <= 0.0:
            return 0.0
        return self.trials / self.elapsed_seconds

    def wilson_interval(self, z: float = 2.576) -> Tuple[float, float]:
        """Wilson score interval (default z: 99% confidence)."""
        if self.trials == 0:
            return (0.0, 1.0)
        n = self.trials
        p = self.probability
        denom = 1 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = z * ((p * (1 - p) / n + z * z / (4 * n * n)) ** 0.5) / denom
        return (max(0.0, center - half), min(1.0, center + half))

    def clopper_pearson_upper(self, alpha: float = 0.01) -> float:
        """Exact one-sided upper bound on the acceptance probability
        (confidence 1 − ``alpha``).  Unlike the Wilson interval, the
        Clopper–Pearson bound has guaranteed coverage, so it is the
        one soundness certificates use."""
        from .amplify import clopper_pearson_upper
        return clopper_pearson_upper(self.accepted, self.trials, alpha)

    def clopper_pearson_lower(self, alpha: float = 0.01) -> float:
        """Exact one-sided lower bound on the acceptance probability
        (confidence 1 − ``alpha``) — the completeness-side mirror."""
        from .amplify import clopper_pearson_lower
        return clopper_pearson_lower(self.accepted, self.trials, alpha)

    def __repr__(self) -> str:
        lo, hi = self.wilson_interval()
        return (f"AcceptanceEstimate({self.probability:.3f} "
                f"[{lo:.3f}, {hi:.3f}], trials={self.trials})")


#: One batch's tallies: (accepted, decide_calls, short_circuits,
#: phase_seconds).
_Counts = Tuple[int, int, int, Dict[str, float]]


def _trial_batch(protocol: Protocol, instance: Instance, prover: Prover,
                 context: InstanceContext, seed: int, start: int,
                 count: int, stop_on_first_reject: bool
                 ) -> Tuple[_Counts, Collected]:
    """Run trials ``start .. start+count-1`` of the stream; returns
    ``((accepted, decide_calls, short_circuits, phase_seconds),
    collected)``.

    When an observability session is active, every trial records a
    ``runner.trial`` span and the batch accumulates ``runner/*``
    metrics into a buffer session (:func:`repro.obs.session.collecting`)
    whose export is the ``collected`` element — the caller merges
    buffers in trial order, which makes parallel and serial traces
    byte-identical on the deterministic projection.  With observability
    off the buffer is None and the whole block below reduces to the
    bare trial loop.
    """
    n = instance.n
    accepted = 0
    decide_calls = 0
    short_circuits = 0
    proof_bits = 0
    phase = {"arthur": 0.0, "merlin": 0.0, "decide": 0.0}
    with collecting() as buf:
        for t in range(start, start + count):
            if buf is None:
                result = run_protocol(
                    protocol, instance, prover, random.Random(seed + t),
                    context=context,
                    stop_on_first_reject=stop_on_first_reject)
            else:
                with buf.span("runner.trial", trial=t) as span:
                    result = run_protocol(
                        protocol, instance, prover,
                        random.Random(seed + t), context=context,
                        stop_on_first_reject=stop_on_first_reject)
                    bits = sum(result.node_cost_bits.values())
                    proof_bits += bits
                    if span is not None:
                        span.set(accepted=result.accepted,
                                 decide_calls=result.decide_calls,
                                 max_cost_bits=result.max_cost_bits)
                        span.add("proof_bits", bits)
            accepted += result.accepted
            decide_calls += result.decide_calls
            short_circuits += (not result.accepted
                               and result.decide_calls < n)
            for key, value in result.phase_seconds.items():
                phase[key] += value
        if buf is not None and buf.metrics_enabled:
            metrics = buf.metrics
            metrics.counter("runner/trials").inc(count)
            metrics.counter("runner/accepted").inc(accepted)
            metrics.counter("runner/decide_calls").inc(decide_calls)
            metrics.counter("runner/short_circuits").inc(short_circuits)
            metrics.counter("runner/proof_bits").inc(proof_bits)
            for key, value in phase.items():
                metrics.timer(f"runner/seconds/{key}").inc(value)
        collected = export_collected(buf)
    return (accepted, decide_calls, short_circuits, phase), collected


def _kernel_batch(kernel: "TrialKernel", seed: int, start: int, count: int,
                  stop_on_first_reject: bool
                  ) -> Tuple[_Counts, Collected]:
    """The numpy engine's counterpart of :func:`_trial_batch`: one
    vectorized kernel call, then the *same* per-trial spans and batch
    metrics the reference loop records (all values converted to plain
    python ints/bools so the serialized traces stay byte-identical
    across engines)."""
    n = kernel.instance.n
    batch = kernel.run_batch(seed, start, count, stop_on_first_reject)
    accepted = int(batch.accepted.sum())
    decide_calls = int(batch.decide_calls.sum())
    short_circuits = int((~batch.accepted
                          & (batch.decide_calls < n)).sum())
    proof_bits = int(batch.proof_bits.sum())
    with collecting() as buf:
        if buf is not None:
            for i in range(count):
                with buf.span("runner.trial", trial=start + i) as span:
                    if span is not None:
                        bits = int(batch.proof_bits[i])
                        span.set(accepted=bool(batch.accepted[i]),
                                 decide_calls=int(batch.decide_calls[i]),
                                 max_cost_bits=int(batch.max_cost_bits[i]))
                        span.add("proof_bits", bits)
            if buf.metrics_enabled:
                metrics = buf.metrics
                metrics.counter("runner/trials").inc(count)
                metrics.counter("runner/accepted").inc(accepted)
                metrics.counter("runner/decide_calls").inc(decide_calls)
                metrics.counter("runner/short_circuits").inc(short_circuits)
                metrics.counter("runner/proof_bits").inc(proof_bits)
                for key, value in batch.phase_seconds.items():
                    metrics.timer(f"runner/seconds/{key}").inc(value)
        collected = export_collected(buf)
    return ((accepted, decide_calls, short_circuits,
             dict(batch.phase_seconds)), collected)


def _resolve_kernel(protocol: Protocol, instance: Instance, prover: Prover,
                    context: InstanceContext
                    ) -> Optional["TrialKernel"]:
    """The vectorized kernel for this triple, or None → reference
    engine.  A missing numpy is a one-warning automatic fallback, never
    an error: ``engine="numpy"`` is a request, not a requirement."""
    from .kernels import find_kernel, numpy_available
    if not numpy_available():
        warnings.warn(
            'run_trials(engine="numpy") requested but numpy is not '
            "installed; falling back to the python reference engine "
            "(pip install repro[fast] enables the batch kernels)",
            RuntimeWarning, stacklevel=3)
        return None
    prover.reset()
    prover.bind_context(context)
    return find_kernel(protocol, instance, prover, context)


def _verify_kernel(kernel: "TrialKernel", protocol: Protocol,
                   instance: Instance, prover: Prover,
                   context: InstanceContext, seed: int,
                   stop_on_first_reject: bool) -> None:
    """Cross-check trial 0 of the batch on both engines.

    Runs the reference engine with observability force-disabled (the
    kernel emits the batch's spans itself) and compares the complete
    ``ExecutionResult`` — verdict, per-node decisions, transcript and
    bit accounting.  Every ``run_trials(engine="numpy")`` call pays one
    reference trial for this; a disagreement raises
    :class:`~repro.core.kernels.base.KernelMismatch` instead of ever
    returning silently wrong estimates.
    """
    from .kernels.base import KernelMismatch
    with use_session(None):
        reference = run_protocol(
            protocol, instance, prover, random.Random(seed),
            context=context, stop_on_first_reject=stop_on_first_reject)
    candidate = kernel.execution_result(seed, 0, stop_on_first_reject)
    if candidate != reference or (candidate.decide_calls
                                  != reference.decide_calls):
        raise KernelMismatch(
            f"{type(kernel).__name__} disagrees with the reference "
            f"engine on trial 0 (seed {seed}): kernel accepted="
            f"{candidate.accepted} decide_calls={candidate.decide_calls}, "
            f"reference accepted={reference.accepted} "
            f"decide_calls={reference.decide_calls}")


def _fork_pool_context():
    """The fork multiprocessing context, or None where unsupported."""
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def _spans(total: int, parts: int, offset: int) -> List[Tuple[int, int]]:
    """Split ``total`` trials starting at ``offset`` into ``parts``
    contiguous spans (some may be one longer than others)."""
    base, extra = divmod(total, parts)
    spans = []
    start = offset
    for i in range(parts):
        count = base + (1 if i < extra else 0)
        if count:
            spans.append((start, count))
        start += count
    return spans


#: The batch function pool workers run — set by :func:`batched_trials`
#: immediately before forking, so children inherit it (and the warm
#: context and prover it closes over) without any pickling: closures
#: inside protocols, e.g. DSym's structure check, are not picklable.
_FORKED_BATCH: Optional[Callable[[int, int], Tuple[Any, Collected]]] = None


def _forked_batch(span: Tuple[int, int]) -> Tuple[Any, Collected]:
    assert _FORKED_BATCH is not None
    return _FORKED_BATCH(*span)


def batched_trials(batch: Callable[[int, int], Tuple[Any, Collected]],
                   trials: int, workers: int) -> Tuple[List[Any], int]:
    """Run ``batch(start, count)`` over trials ``0 .. trials-1``; returns
    the parts' results in trial order and the worker count used.

    ``batch`` records its spans and metrics into a buffer session
    (:func:`repro.obs.session.collecting`) and returns ``(result,
    collected)``; each part's buffer is merged into the ambient session
    in trial order, which is what keeps parallel traces identical to
    serial ones.  With one worker (or no ``fork``) the whole range is
    one direct call.  Otherwise trial 0 runs in the parent first, so
    the shared context is warm at fork time and every child inherits
    the cached structure, and the remaining trials are split into
    contiguous spans over a fork pool.
    """
    sess = active()
    workers = min(workers, max(trials, 1))
    pool_ctx = _fork_pool_context() if workers > 1 and trials > 1 else None
    result, collected = batch(0, trials if pool_ctx is None else 1)
    merge_collected(sess, collected)
    results = [result]
    if pool_ctx is None:
        return results, 1
    global _FORKED_BATCH
    _FORKED_BATCH = batch
    try:
        with pool_ctx.Pool(processes=workers) as pool:
            parts = pool.map(_forked_batch, _spans(trials - 1, workers, 1))
    finally:
        _FORKED_BATCH = None
    for result, collected in parts:
        merge_collected(sess, collected)
        results.append(result)
    return results, workers


def run_trials(protocol: Protocol, instance: Instance, prover: Prover,
               trials: int, seed: int, *, workers: int = 1,
               context: Optional[InstanceContext] = None,
               stop_on_first_reject: bool = True,
               engine: str = "python") -> AcceptanceEstimate:
    """Estimate Pr[all nodes accept] over ``trials`` independent runs.

    Trial ``t`` always executes on ``random.Random(seed + t)``, so the
    estimate is a pure function of ``(protocol, instance, prover,
    trials, seed)`` — independent of ``workers``, of how the batch is
    chunked, *and of the engine*.  The accepted count is a sum over
    trials, which is order-independent, so parallel and serial runs
    are bit-identical.

    ``workers > 1`` distributes trials over a fork-based process pool.
    Trial 0 runs in the parent first so that the (shared) context is
    warm at fork time and every child inherits the cached structure.

    ``engine="numpy"`` routes the batch through a vectorized trial
    kernel (:mod:`repro.core.kernels`) when one models this (protocol,
    prover) pair, with two safety nets: triples without a kernel — and
    environments without numpy, after a ``RuntimeWarning`` — fall back
    to the reference engine, and every kernel run cross-checks trial 0
    against the reference engine before its results are trusted
    (raising ``KernelMismatch`` on any disagreement).  The observable
    outputs (estimates, spans, metrics) are byte-identical across
    engines; ``AcceptanceEstimate.engine`` reports which one actually
    ran.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from "
                         f"{ENGINES}")
    if context is None:
        context = InstanceContext(instance, protocol)
    elif context.instance is not instance:
        raise ValueError("context was built for a different instance")
    context.ensure_validated(protocol)

    start_time = time.perf_counter()
    kernel = None
    if engine == "numpy" and trials > 0:
        kernel = _resolve_kernel(protocol, instance, prover, context)
        if kernel is not None:
            _verify_kernel(kernel, protocol, instance, prover, context,
                           seed, stop_on_first_reject)
    used_engine = "python" if kernel is None else "numpy"

    def batch(start: int, count: int):
        if kernel is not None:
            return _kernel_batch(kernel, seed, start, count,
                                 stop_on_first_reject)
        return _trial_batch(protocol, instance, prover, context, seed,
                            start, count, stop_on_first_reject)

    sess = active()
    outer = nullcontext() if sess is None else sess.span(
        "runner.run_trials", protocol=protocol.name, n=instance.n,
        trials=trials, seed=seed)
    with outer as span:
        parts, used_workers = batched_trials(batch, trials, workers)
        (accepted, decide_calls, short_circuits, phase), *rest = parts
        for part_accepted, part_calls, part_short, part_phase in rest:
            accepted += part_accepted
            decide_calls += part_calls
            short_circuits += part_short
            for key, value in part_phase.items():
                phase[key] += value

        elapsed = time.perf_counter() - start_time
        if span is not None:
            span.set(accepted=accepted)
            span.note(workers=used_workers, engine=used_engine)
        if sess is not None and sess.metrics_enabled:
            sess.metrics.timer("runner/seconds/batch").inc(elapsed)

    return AcceptanceEstimate(
        accepted=accepted,
        trials=trials,
        elapsed_seconds=elapsed,
        phase_seconds=phase,
        decide_calls=decide_calls,
        short_circuits=short_circuits,
        workers=used_workers,
        engine=used_engine,
        timed=True,
    )

