"""The event-driven message-passing substrate.

``run_netsim`` executes the *same* :class:`~repro.core.model.Protocol`
objects as the abstract runner, but as communicating actors: each node
and the prover are endpoints connected by directed channels, every
Arthur challenge and Merlin message crosses a channel as an encoded
bitstring (:mod:`repro.netsim.codec`), and neighbor cross-checking is
an explicit relay phase instead of a structural convention.

Equivalence contract
--------------------
With ``faults=FAULT_FREE`` a netsim run is **bit-identical** to
``core.runner.run_protocol`` on the same ``(protocol, instance,
prover, rng)``: same transcript, same verdicts, same per-node bit
costs.  This holds because

* the protocol rng is consumed in exactly the runner's order (all
  Arthur values sampled in vertex order at round start, prover called
  once per Merlin round with the same arguments);
* fault and fingerprint randomness comes from a *separate* net rng;
* codecs round-trip every value exactly (malformed prover values ride
  the escape lane), so decoded stores equal the sent transcript;
* charged bits are the codec payload sizes, which the wire-cost audit
  pins to the declared ``arthur_bits``/``merlin_bits``.

Cost accounting
---------------
``node_cost_bits`` charges only node↔prover proof content (payload
bits), matching the paper's Definition 1 measure: challenges at send
time, Merlin messages at first accepted delivery.  Everything else —
framing headers, relay/cross-check traffic, retransmissions,
duplicates — is substrate overhead, reported separately
(``overhead_bits``, ``crosscheck_bits``, ``channel_bits``).

Cross-check modes
-----------------
``crosscheck="exact"`` relays full decoded messages (the abstract
runner's semantics).  ``crosscheck="hashed"`` replaces each broadcast
field with a :class:`~repro.network.randomized_verification
.HashedEquality` fingerprint of its payload span — O(log) bits per
edge instead of the field width — detecting a corrupted broadcast
field with probability ≥ 1 − m/p (the fault-matrix harness measures
exactly this against the analytic bound).
"""

from __future__ import annotations

import random
import time as _time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.context import InstanceContext
from ..obs.session import Collected, active, collecting, export_collected
from ..core.model import (Instance, LocalView, NodeMessage, Protocol,
                          ProtocolViolation, Prover, ROUND_ARTHUR,
                          ROUND_MERLIN)
from ..core.runner import (AcceptanceEstimate, Transcript, _decide_node,
                           batched_trials)
from ..network.randomized_verification import HashedEquality
from .bits import Bits
from .codec import CodecError, EncodedFrame
from .codecs import WireCodec, wire_codec
from .events import (EV_CORRUPT, EV_CRASH, EV_DECIDE, EV_DELIVER, EV_DROP,
                     EV_DUPLICATE, EV_RELAY, EV_RETRANSMIT, EV_ROUND,
                     EV_SEND, EV_TIMEOUT, EV_VIOLATION, EventQueue,
                     EventTrace)
from .faults import FAULT_FREE, PROVER, FaultPlan

CROSSCHECK_EXACT = "exact"
CROSSCHECK_HASHED = "hashed"

#: Mixed into ``net_seed`` so the net rng stream never collides with the
#: protocol rng stream even when both are seeded from the same integer.
_NET_SALT = 0x6E657473696D  # "netsim"

#: Cache of hashed-equality schemes by value width (prime search is
#: deterministic in the width, so both channel ends agree).
_EQUALITY_SCHEMES: Dict[int, HashedEquality] = {}


def equality_scheme(width: int) -> HashedEquality:
    """The hashed cross-check scheme for a ``width``-bit field span."""
    scheme = _EQUALITY_SCHEMES.get(width)
    if scheme is None:
        scheme = HashedEquality(max(1, width))
        _EQUALITY_SCHEMES[width] = scheme
    return scheme


@dataclass
class NetExecutionResult:
    """Outcome of one netsim execution.

    Duck-types the abstract runner's ``ExecutionResult`` surface
    (``accepted`` / ``decisions`` / ``transcript`` / ``node_cost_bits``
    / ``max_cost_bits``) so reporting and the equivalence gate treat
    both uniformly, and adds the substrate observability counters.
    """

    accepted: bool
    decisions: Dict[int, bool]
    transcript: Transcript
    #: per-node node↔prover proof bits (the paper's cost measure).
    node_cost_bits: Dict[int, int]
    #: per-(src, dst) channel traffic in bits, every attempt counted.
    channel_bits: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: per-round node↔prover proof bits.
    round_bits: Dict[int, int] = field(default_factory=dict)
    #: total relay/cross-check traffic in bits.
    crosscheck_bits: int = 0
    #: total uncharged framing bits across all frames.
    overhead_bits: int = 0
    #: hashed-mode broadcast mismatches detected.
    broadcast_violations: int = 0
    #: frames lost after exhausting the retransmit budget.
    lost_frames: int = 0
    #: fault-injection event counts by kind (drop, corrupt, duplicate,
    #: timeout, retransmit, crash, violation) — the same tallies the
    #: simulation publishes as ``netsim/faults/<kind>`` counters, so
    #: injected-vs-observed gates can compare all three views (result,
    #: trace, obs) exactly.
    fault_events: Dict[str, int] = field(default_factory=dict)
    trace: Optional[EventTrace] = field(default=None, compare=False)

    @property
    def max_cost_bits(self) -> int:
        return max(self.node_cost_bits.values()) if self.node_cost_bits \
            else 0

    def rejecting_nodes(self) -> List[int]:
        return sorted(v for v, ok in self.decisions.items() if not ok)


class _Simulation:
    """One netsim execution (single-use)."""

    def __init__(self, protocol: Protocol, instance: Instance,
                 prover: Prover, rng: random.Random,
                 faults: FaultPlan, crosscheck: str,
                 net_seed: int, context: InstanceContext,
                 trace: bool, stream: bool = False) -> None:
        self.protocol = protocol
        self.instance = instance
        self.prover = prover
        self.rng = rng
        self.faults = faults
        self.crosscheck = crosscheck
        self.net_rng = random.Random(net_seed ^ _NET_SALT)
        self.context = context
        self.codec: WireCodec = wire_codec(protocol)
        self.queue = EventQueue()
        self.trace = EventTrace(enabled=trace, stream=stream)
        self.vertices = tuple(instance.graph.vertices)
        self.transcript = Transcript()
        self.node_cost = dict.fromkeys(self.vertices, 0)
        self.channel_bits: Dict[Tuple[int, int], int] = {}
        self.round_bits: Dict[int, int] = {}
        self.crosscheck_bits = 0
        self.overhead_bits = 0
        self.broadcast_violations = 0
        self.lost_frames = 0
        #: what the prover has *received* (may differ from the
        #: transcript under faults on node→prover channels).
        self.prover_randomness: Dict[int, Dict[int, Any]] = {}
        self.prover_messages: Dict[int, Dict[int, NodeMessage]] = {}
        #: per-node local stores, filled only by actual deliveries.
        self.store_randomness: Dict[int, Dict[int, Dict[int, Any]]] = {
            v: {} for v in self.vertices}
        self.store_messages: Dict[
            int, Dict[int, Dict[int, NodeMessage]]] = {
            v: {} for v in self.vertices}
        #: each node's received Merlin frames (spans drive hashed mode).
        self.node_frames: Dict[int, Dict[int, EncodedFrame]] = {
            v: {} for v in self.vertices}
        #: nodes that detected a hashed-mode broadcast violation.
        self.violating: set = set()
        self._frame_ids = 0
        self._delivered_ids: set = set()
        #: fault-injection event counts by kind (drop, corrupt, ...),
        #: published as ``netsim/faults/<kind>`` at the end of the run.
        self.fault_events: Dict[str, int] = {}
        #: the ambient observability session, captured once per
        #: simulation so the hot paths pay one attribute read.
        self.obs = active()
        self._frame_hist = (
            self.obs.metrics.histogram("netsim/frame_bits")
            if self.obs is not None and self.obs.metrics_enabled
            else None)

    def _fault(self, kind: str) -> None:
        self.fault_events[kind] = self.fault_events.get(kind, 0) + 1

    # -- channel pipeline --------------------------------------------------

    def _transmit(self, src: int, dst: int, round_idx: int, kind: str,
                  frame: EncodedFrame, extra_bits: int = 0,
                  on_deliver=None) -> None:
        """Push one frame through the (src → dst) channel: byzantine
        garbling, drop/retransmit, jitter, duplication and corruption —
        every random draw comes from the net rng, at send time, in a
        deterministic order."""
        policy = self.faults.policy(src, dst)
        rng = self.net_rng
        fid = self._frame_ids
        self._frame_ids += 1
        relay = kind == EV_RELAY

        if relay and src in self.faults.byzantine and frame.payload.length:
            garbled = Bits(rng.getrandbits(frame.payload.length),
                           frame.payload.length)
            frame = frame.with_payload(garbled)
            self._fault(EV_CORRUPT)
            self.trace.record(EV_CORRUPT, t=self.queue.time, frame=fid,
                              src=src, dst=dst, round=round_idx,
                              byzantine=True)

        bits = frame.payload.length + frame.header.length + extra_bits
        self.overhead_bits += frame.header.length + extra_bits
        if self._frame_hist is not None:
            self._frame_hist.observe(bits)
        self.trace.record(EV_RELAY if relay else EV_SEND,
                          t=self.queue.time, frame=fid, src=src, dst=dst,
                          round=round_idx, bits=bits)

        send_time = self.queue.time
        channel = (src, dst)
        attempt = 0
        while True:
            self.channel_bits[channel] = \
                self.channel_bits.get(channel, 0) + bits
            if relay:
                self.crosscheck_bits += bits
            if rng.random() >= policy.drop:
                break
            self._fault(EV_DROP)
            self.trace.record(EV_DROP, t=send_time + attempt * policy.timeout,
                              frame=fid, src=src, dst=dst, round=round_idx,
                              attempt=attempt)
            if attempt >= policy.max_retries:
                self.lost_frames += 1
                self._fault(EV_TIMEOUT)
                self.trace.record(EV_TIMEOUT,
                                  t=send_time + attempt * policy.timeout,
                                  frame=fid, src=src, dst=dst,
                                  round=round_idx)
                return
            attempt += 1
            self._fault(EV_RETRANSMIT)
            self.trace.record(EV_RETRANSMIT,
                              t=send_time + attempt * policy.timeout,
                              frame=fid, src=src, dst=dst, round=round_idx,
                              attempt=attempt)

        delay = policy.latency + attempt * policy.timeout
        if policy.jitter:
            delay += rng.randrange(policy.jitter + 1)
        duplicated = rng.random() < policy.duplicate
        if rng.random() < policy.corrupt and frame.payload.length:
            if policy.corrupt_field is not None:
                # Targeted corruption: frames without the field pass
                # through untouched.
                span = frame.span_of(policy.corrupt_field)
                lo, hi = span if span is not None else (0, 0)
            else:
                lo, hi = 0, frame.payload.length
            if hi > lo:
                positions = sorted(rng.sample(
                    range(lo, hi), min(policy.flips, hi - lo)))
                frame = frame.with_payload(frame.payload.flip(positions))
                self._fault(EV_CORRUPT)
                self.trace.record(EV_CORRUPT, t=send_time, frame=fid,
                                  src=src, dst=dst, round=round_idx,
                                  positions=positions)

        def deliver(frame=frame, fid=fid) -> None:
            if fid in self._delivered_ids:
                self._fault(EV_DUPLICATE)
                self.trace.record(EV_DUPLICATE, t=self.queue.time,
                                  frame=fid, src=src, dst=dst,
                                  round=round_idx)
                return
            self._delivered_ids.add(fid)
            self.trace.record(EV_DELIVER, t=self.queue.time, frame=fid,
                              src=src, dst=dst, round=round_idx)
            if on_deliver is not None:
                on_deliver(frame)

        self.queue.schedule(send_time + delay, deliver)
        if duplicated:
            self.channel_bits[channel] += bits
            if relay:
                self.crosscheck_bits += bits
            self.queue.schedule(send_time + delay + 1, deliver)

    # -- rounds ------------------------------------------------------------

    def _record_crashes(self, round_idx: int) -> None:
        for v in sorted(self.faults.crashes):
            if self.faults.crashes[v] == round_idx:
                self._fault(EV_CRASH)
                self.trace.record(EV_CRASH, t=self.queue.time, node=v,
                                  round=round_idx)

    def _arthur_round(self, round_idx: int) -> None:
        protocol, instance = self.protocol, self.instance
        declared = protocol.arthur_bits(instance, round_idx)
        codec = self.codec.challenge_codec(round_idx)
        # Protocol rng consumption matches the abstract runner exactly:
        # all values sampled in vertex order at round start.
        values = {v: protocol.arthur_value(instance, round_idx, v, self.rng)
                  for v in self.vertices}
        self.transcript.randomness[round_idx] = values
        self.round_bits.setdefault(round_idx, 0)

        received: Dict[int, EncodedFrame] = {}
        for v in self.vertices:
            self.store_randomness[v].setdefault(round_idx, {})[v] = values[v]
            if self.faults.crashed(v, round_idx):
                continue
            frame = codec.encode(values[v])
            if frame.charged_bits != declared:
                raise CodecError(
                    f"{protocol.name} round {round_idx}: challenge "
                    f"encodes to {frame.charged_bits} bits, declared "
                    f"{declared}")
            self.node_cost[v] += frame.charged_bits
            self.round_bits[round_idx] += frame.charged_bits
            self._transmit(
                v, PROVER, round_idx, EV_SEND, frame,
                on_deliver=lambda f, v=v: received.__setitem__(v, f))
        self.queue.drain()

        view: Dict[int, Any] = {}
        for v in self.vertices:
            if v in received:
                view[v] = codec.decode(received[v])
            else:
                # Challenge lost (or node crashed): the prover proceeds
                # with the all-zeros codeword for this node.
                view[v] = codec.decode(codec.zero_frame())
        self.prover_randomness[round_idx] = view

        # Relay phase: each node shares its own coins with its
        # neighbors (substrate traffic, not proof bits).
        graph = instance.graph
        for v in self.vertices:
            if self.faults.crashed(v, round_idx):
                continue
            neighbors = graph.neighbors(v)
            if not neighbors:
                continue
            frame = codec.encode(values[v])
            for u in neighbors:
                def set_rand(f, u=u, v=v):
                    self.store_randomness[u].setdefault(
                        round_idx, {})[v] = codec.decode(f)
                self._transmit(v, u, round_idx, EV_RELAY, frame,
                               on_deliver=set_rand)
        self.queue.drain()

    def _merlin_round(self, round_idx: int) -> None:
        protocol, instance = self.protocol, self.instance
        codec = self.codec.message_codec(round_idx)
        response = self.prover.respond(
            instance, round_idx, self.prover_randomness,
            self.prover_messages, self.rng)
        missing = [v for v in self.vertices if v not in response]
        if missing:
            raise ProtocolViolation(
                f"prover left nodes without a round-{round_idx} "
                f"message: {missing[:5]}")
        sent = {v: dict(response[v]) for v in self.vertices}
        self.transcript.messages[round_idx] = sent
        self.prover_messages[round_idx] = sent
        self.round_bits.setdefault(round_idx, 0)

        delivered: Dict[int, EncodedFrame] = {}
        for v in self.vertices:
            if self.faults.crashed(v, round_idx):
                continue
            frame = codec.encode(sent[v])
            self._transmit(
                PROVER, v, round_idx, EV_SEND, frame,
                on_deliver=lambda f, v=v: delivered.__setitem__(v, f))
        self.queue.drain()

        for v in self.vertices:
            if v not in delivered:
                continue
            frame = delivered[v]
            # Corruption preserves length, so the charge equals the
            # declared merlin_bits of the *sent* message either way.
            self.node_cost[v] += frame.charged_bits
            self.round_bits[round_idx] += frame.charged_bits
            self.node_frames[v][round_idx] = frame
            self.store_messages[v].setdefault(
                round_idx, {})[v] = codec.decode(frame)

        # Cross-check relay phase.
        broadcast = protocol.broadcast_fields(round_idx)
        hashed = self.crosscheck == CROSSCHECK_HASHED and broadcast
        graph = instance.graph
        for v in self.vertices:
            if self.faults.crashed(v, round_idx) or v not in delivered:
                continue
            neighbors = graph.neighbors(v)
            if not neighbors:
                continue
            decoded = self.store_messages[v][round_idx][v]
            if not hashed:
                relay_frame = codec.encode(decoded)
                for u in neighbors:
                    def set_msg(f, u=u, v=v):
                        self.store_messages[u].setdefault(
                            round_idx, {})[v] = codec.decode(f)
                    self._transmit(v, u, round_idx, EV_RELAY, relay_frame,
                                   on_deliver=set_msg)
            else:
                self._relay_hashed(v, round_idx, codec, decoded,
                                   broadcast, neighbors)
        self.queue.drain()

    def _relay_hashed(self, v: int, round_idx: int, codec, decoded,
                      broadcast, neighbors) -> None:
        """Relay unicast fields exactly; broadcast fields travel as
        hashed-equality fingerprints over their payload spans."""
        frame_v = self.node_frames[v][round_idx]
        unicast = {name: value for name, value in decoded.items()
                   if name not in broadcast}
        uni_frame = codec.encode(unicast)
        fingerprints = []
        fingerprint_bits = 0
        for name in sorted(broadcast):
            span = frame_v.span_of(name)
            if span is None or span[1] <= span[0]:
                continue  # absent/escaped: neighbors reject on absence
            width = span[1] - span[0]
            value = frame_v.payload.slice_int(*span)
            scheme = equality_scheme(width)
            seed, fingerprint = scheme.node_message(value, self.net_rng)
            fingerprints.append((name, width, seed, fingerprint))
            fingerprint_bits += scheme.message_bits
        fps = tuple(fingerprints)

        for u in neighbors:
            def check_and_store(f, u=u, v=v, fps=fps):
                message = codec.decode(f)
                own_frame = self.node_frames[u].get(round_idx)
                own_message = self.store_messages[u].get(
                    round_idx, {}).get(u)
                ok = own_frame is not None and own_message is not None
                if ok:
                    for name, width, seed, fingerprint in fps:
                        own_span = own_frame.span_of(name)
                        if (own_span is None
                                or own_span[1] - own_span[0] != width):
                            ok = False
                            break
                        own_value = own_frame.payload.slice_int(*own_span)
                        if not equality_scheme(width).check(
                                own_value, (seed, fingerprint)):
                            ok = False
                            break
                        # Fingerprint matched: the values agree, so the
                        # receiver substitutes its own copy.
                        message[name] = own_message.get(name)
                if ok:
                    self.store_messages[u].setdefault(
                        round_idx, {})[v] = message
                else:
                    self.broadcast_violations += 1
                    self.violating.add(u)
                    self._fault(EV_VIOLATION)
                    self.trace.record(EV_VIOLATION, t=self.queue.time,
                                      node=u, src=v, round=round_idx)
            self._transmit(v, u, round_idx, EV_RELAY, uni_frame,
                           extra_bits=fingerprint_bits,
                           on_deliver=check_and_store)

    # -- decision ----------------------------------------------------------

    def _decide(self) -> Tuple[bool, Dict[int, bool]]:
        protocol = self.protocol
        plan = self.context.broadcast_plan(protocol)
        closed = self.context.closed_neighborhoods
        last_round = protocol.num_rounds - 1
        decisions: Dict[int, bool] = {}
        for v in self.vertices:
            if self.faults.crashed(v, last_round):
                decisions[v] = False
            elif v in self.violating:
                decisions[v] = False
            else:
                closed_v = closed[v]
                view = LocalView(
                    node=v,
                    n=self.instance.n,
                    closed_neighborhood=closed_v,
                    node_input=self.instance.input_of(v),
                    randomness={
                        r: {u: vals[u] for u in closed_v if u in vals}
                        for r, vals in
                        self.store_randomness[v].items()},
                    messages={
                        r: {u: msgs[u] for u in closed_v if u in msgs}
                        for r, msgs in self.store_messages[v].items()},
                )
                decisions[v] = _decide_node(protocol, view, plan)
            self.trace.record(EV_DECIDE, t=self.queue.time, node=v,
                              accept=decisions[v])
        return all(decisions.values()), decisions

    # -- top level ---------------------------------------------------------

    def _publish_obs(self, span, accepted: bool) -> None:
        """Emit the simulation's counters under ``netsim/*`` and stamp
        the ``netsim.run`` span — called once per run, observability on."""
        proof_bits = sum(self.node_cost.values())
        if span is not None:
            span.set(accepted=accepted,
                     lost_frames=self.lost_frames,
                     broadcast_violations=self.broadcast_violations)
            span.add("proof_bits", proof_bits)
        sess = self.obs
        if sess is None or not sess.metrics_enabled:
            return
        metrics = sess.metrics
        metrics.counter("netsim/runs").inc()
        metrics.counter("netsim/proof_bits").inc(proof_bits)
        metrics.counter("netsim/channel_bits").inc(
            sum(self.channel_bits.values()))
        metrics.counter("netsim/crosscheck_bits").inc(self.crosscheck_bits)
        metrics.counter("netsim/overhead_bits").inc(self.overhead_bits)
        metrics.counter("netsim/lost_frames").inc(self.lost_frames)
        metrics.counter("netsim/broadcast_violations").inc(
            self.broadcast_violations)
        for kind in sorted(self.fault_events):
            metrics.counter(f"netsim/faults/{kind}").inc(
                self.fault_events[kind])

    def run(self) -> NetExecutionResult:
        outer = nullcontext() if self.obs is None else self.obs.span(
            "netsim.run", protocol=self.protocol.name,
            n=self.instance.n, crosscheck=self.crosscheck)
        with outer as span:
            self.prover.reset()
            self.prover.bind_context(self.context)
            for round_idx, kind in enumerate(self.protocol.pattern):
                self.trace.record(EV_ROUND, t=self.queue.time,
                                  round=round_idx, type=kind)
                self._record_crashes(round_idx)
                if kind == ROUND_ARTHUR:
                    self._arthur_round(round_idx)
                elif kind == ROUND_MERLIN:
                    self._merlin_round(round_idx)
                else:  # pragma: no cover - patterns are library-defined
                    raise ValueError(f"unknown round kind {kind!r}")
            accepted, decisions = self._decide()
            if self.obs is not None:
                self._publish_obs(span, accepted)
        return NetExecutionResult(
            accepted=accepted,
            decisions=decisions,
            transcript=self.transcript,
            node_cost_bits=self.node_cost,
            channel_bits=self.channel_bits,
            round_bits=self.round_bits,
            crosscheck_bits=self.crosscheck_bits,
            overhead_bits=self.overhead_bits,
            broadcast_violations=self.broadcast_violations,
            lost_frames=self.lost_frames,
            fault_events=dict(self.fault_events),
            trace=self.trace if self.trace.enabled else None,
        )


def run_netsim(protocol: Protocol, instance: Instance, prover: Prover,
               rng: random.Random, *, faults: FaultPlan = FAULT_FREE,
               crosscheck: str = CROSSCHECK_EXACT, net_seed: int = 0,
               context: Optional[InstanceContext] = None,
               trace: bool = True,
               stream: bool = False) -> NetExecutionResult:
    """Execute one protocol run on the message-passing substrate.

    ``rng`` drives the protocol exactly as in the abstract runner;
    ``net_seed`` (plus a fixed salt) seeds the independent net rng for
    fault draws and cross-check fingerprints.  ``crosscheck`` selects
    the relay phase: ``"exact"`` (full messages) or ``"hashed"``
    (fingerprinted broadcast fields).
    """
    if crosscheck not in (CROSSCHECK_EXACT, CROSSCHECK_HASHED):
        raise ValueError(f"unknown crosscheck mode {crosscheck!r}")
    if context is None:
        context = InstanceContext(instance, protocol)
    elif context.instance is not instance:
        raise ValueError("context was built for a different instance")
    context.ensure_validated(protocol)
    return _Simulation(protocol, instance, prover, rng, faults,
                       crosscheck, net_seed, context, trace,
                       stream).run()


def _netsim_trial_batch(protocol: Protocol, instance: Instance,
                        prover: Prover, context: InstanceContext,
                        seed: int, start: int, count: int,
                        faults: FaultPlan, crosscheck: str
                        ) -> Tuple[int, Collected]:
    """Run netsim trials ``start .. start+count-1``; with an active
    observability session the per-run ``netsim.run`` spans and the
    ``netsim/*`` counters accumulate into a buffer session returned as
    the ``collected`` element (merged in trial order by the caller, so
    parallel traces equal serial ones)."""
    accepted = 0
    with collecting() as buf:
        for t in range(start, start + count):
            result = run_netsim(protocol, instance, prover,
                                random.Random(seed + t), faults=faults,
                                crosscheck=crosscheck, net_seed=seed + t,
                                context=context, trace=False)
            accepted += result.accepted
        if buf is not None and buf.metrics_enabled:
            buf.metrics.counter("netsim/trials").inc(count)
        collected = export_collected(buf)
    return accepted, collected


def netsim_trials(protocol: Protocol, instance: Instance, prover: Prover,
                  trials: int, seed: int, *,
                  faults: FaultPlan = FAULT_FREE,
                  crosscheck: str = CROSSCHECK_EXACT,
                  workers: int = 1,
                  context: Optional[InstanceContext] = None
                  ) -> AcceptanceEstimate:
    """Monte-Carlo acceptance estimation on the netsim substrate.

    Trial ``t`` runs on protocol rng ``random.Random(seed + t)`` and
    net seed ``seed + t``, so the estimate is a pure function of its
    arguments — independent of ``workers`` and chunking, exactly like
    ``core.runner.run_trials``.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if context is None:
        context = InstanceContext(instance, protocol)
    elif context.instance is not instance:
        raise ValueError("context was built for a different instance")
    context.ensure_validated(protocol)

    start_time = _time.perf_counter()

    def batch(start: int, count: int) -> Tuple[int, Collected]:
        return _netsim_trial_batch(protocol, instance, prover, context,
                                   seed, start, count, faults, crosscheck)

    sess = active()
    outer = nullcontext() if sess is None else sess.span(
        "netsim.netsim_trials", protocol=protocol.name, n=instance.n,
        trials=trials, seed=seed, crosscheck=crosscheck)
    with outer as span:
        parts, used_workers = batched_trials(batch, trials, workers)
        accepted = sum(parts)

        elapsed = _time.perf_counter() - start_time
        if span is not None:
            span.set(accepted=accepted)
            span.note(workers=used_workers)
        if sess is not None and sess.metrics_enabled:
            sess.metrics.timer("netsim/seconds/batch").inc(elapsed)

    return AcceptanceEstimate(
        accepted=accepted,
        trials=trials,
        elapsed_seconds=elapsed,
        workers=used_workers,
        timed=True,
    )


# -- cost declaration -----------------------------------------------------

from ..ledger.declare import CostDeclaration, phase  # noqa: E402

#: The substrate's broadcast-echo cross-checks (E13): every node
#: forwards its broadcast-checked fields to its neighbors, so the
#: network-total crosscheck traffic on a bounded-degree graph is
#: O(n · log n) for Protocol 1's O(log n)-bit broadcast fields.
COST_DECLARATIONS = (
    CostDeclaration(
        key="netsim-crosscheck",
        title="Wire-substrate broadcast cross-checks (E13)",
        pattern="", asymptotic="O(n log n) network-total",
        reference="Lemma 3.3 broadcast checks on the wire substrate "
                  "(NETSIM.md)",
        phases=(
            phase("crosscheck", "verify", "c * n * log2(n)",
                  "neighbor echo of broadcast-checked fields, summed "
                  "over the whole network"),
        ),
        total=phase("total", "verify", "c * n * log2(n)",
                    "bounded-degree echo of O(log n)-bit fields"),
    ),
)
