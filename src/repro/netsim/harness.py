"""The netsim acceptance gates: equivalence and the fault matrix.

Two reproducible checks tie the substrate to the abstract runner:

* :func:`equivalence_report` — with faults off, a netsim execution of
  every golden-battery case must be **bit-identical** to
  ``core.runner.run_protocol``: same verdicts, same per-node bit
  costs, same serialized transcript JSON.  This is the CI gate.
* :func:`fault_matrix` — a battery of fault configurations on one
  protocol, measuring acceptance and detection rates.  The targeted
  broadcast-corruption row checks that hashed-equality cross-checking
  (:mod:`repro.network.randomized_verification`) detects a flipped
  broadcast field at least as often as the analytic ``1 − m/p`` bound.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List

from ..core import (Instance, InstanceContext, execution_to_jsonable,
                    run_protocol)
from ..obs.session import active
from ..core.model import Protocol
from ..graphs import (DSymLayout, Graph, cycle_graph, dsym_graph,
                      path_graph, star_graph)
from ..protocols import (ConnectivityLCP, DSymDAMProtocol,
                         FixedMappingProtocol, GNIDAMProtocol,
                         GNIGoldwasserSipserProtocol, GeneralGNIProtocol,
                         MARK_NONE, MARK_ONE, MARK_ZERO, MarkedGNIProtocol,
                         SymDAMProtocol, SymDMAMProtocol, SymLCP,
                         gni_instance, marked_instance)
from .faults import PROVER, ChannelPolicy, FaultPlan
from .sim import (CROSSCHECK_EXACT, CROSSCHECK_HASHED, equality_scheme,
                  run_netsim)

#: The golden-transcript seed (PODC'18), shared with the test battery.
GOLDEN_SEED = 20180723

#: Golden cases cheap enough for the CI smoke gate.
SMOKE_CASES = ("sym-dmam", "sym-dam", "fixed-map", "sym-lcp",
               "connectivity-lcp", "gni-dam")


@dataclass(frozen=True)
class GoldenCase:
    """One (protocol, instance) pair from the golden battery."""

    name: str
    protocol: Protocol
    instance: Instance


def _marked_case() -> Instance:
    graph_edges = [(0, 1), (1, 2), (0, 2), (0, 3),
                   (4, 5), (5, 6), (6, 7), (3, 8), (8, 4)]
    marks = {v: MARK_ZERO for v in range(4)}
    marks.update({v: MARK_ONE for v in range(4, 8)})
    marks[8] = MARK_NONE
    return marked_instance(Graph(9, graph_edges), marks)


def golden_cases() -> List[GoldenCase]:
    """The golden battery, mirroring ``tests/test_golden_transcripts``:
    one representative honest YES execution per protocol."""
    cycle8 = Instance(cycle_graph(8))
    rotation = tuple((v + 1) % 8 for v in range(8))
    gni_yes = gni_instance(path_graph(4), star_graph(4))
    return [
        GoldenCase("sym-dmam", SymDMAMProtocol(8), cycle8),
        GoldenCase("sym-dam", SymDAMProtocol(6), Instance(cycle_graph(6))),
        GoldenCase("fixed-map", FixedMappingProtocol(rotation), cycle8),
        GoldenCase("dsym-dam", DSymDAMProtocol(DSymLayout(6, 2)),
                   Instance(dsym_graph(cycle_graph(6), 2))),
        GoldenCase("sym-lcp", SymLCP(8), cycle8),
        GoldenCase("connectivity-lcp", ConnectivityLCP(8), cycle8),
        GoldenCase("gni-damam",
                   GNIGoldwasserSipserProtocol(4, repetitions=6, q=5,
                                               threshold=0), gni_yes),
        GoldenCase("gni-dam",
                   GNIDAMProtocol(4, repetitions=4, q=5, threshold=0),
                   gni_yes),
        GoldenCase("gni-marked",
                   MarkedGNIProtocol(9, k=4, repetitions=4, q=5,
                                     threshold=0), _marked_case()),
        GoldenCase("gni-general",
                   GeneralGNIProtocol(4, repetitions=4, q=5, threshold=0),
                   gni_yes),
    ]


def _canonical_json(protocol: Protocol, instance: Instance,
                    result: Any) -> str:
    return json.dumps(execution_to_jsonable(protocol, instance, result),
                      sort_keys=True)


def equivalence_report(seed: int = GOLDEN_SEED,
                       smoke: bool = False) -> Dict[str, Any]:
    """Run the equivalence gate over the golden battery.

    For each case, the abstract runner and a faults-off netsim run (in
    both cross-check modes) execute on identically-seeded rngs; the
    case is *equivalent* when verdicts, per-node costs and the full
    serialized transcript agree byte-for-byte.
    """
    sess = active()
    outer = nullcontext() if sess is None else sess.span(
        "netsim.equivalence_report", seed=seed, smoke=smoke)
    cases = []
    with outer as gate_span:
        for case in golden_cases():
            if smoke and case.name not in SMOKE_CASES:
                continue
            cases.append(_equivalence_case(case, seed, sess))
        if gate_span is not None:
            gate_span.set(cases=len(cases),
                          all_equivalent=all(row["equivalent"]
                                             for row in cases))
    return {
        "seed": seed,
        "cases": cases,
        "all_equivalent": all(row["equivalent"] for row in cases),
    }


def _equivalence_case(case: GoldenCase, seed: int, sess) -> Dict[str, Any]:
    """One equivalence-gate row (optionally under a per-case span)."""
    with (nullcontext() if sess is None else
          sess.span("netsim.equivalence_case", case=case.name,
                    protocol=case.protocol.name, n=case.instance.n)):
        abstract = run_protocol(case.protocol, case.instance,
                                case.protocol.honest_prover(),
                                random.Random(seed))
        abstract_json = _canonical_json(case.protocol, case.instance,
                                        abstract)
        row: Dict[str, Any] = {
            "case": case.name,
            "n": case.instance.n,
            "accepted": abstract.accepted,
            "max_cost_bits": abstract.max_cost_bits,
        }
        for mode in (CROSSCHECK_EXACT, CROSSCHECK_HASHED):
            net = run_netsim(case.protocol, case.instance,
                             case.protocol.honest_prover(),
                             random.Random(seed), crosscheck=mode,
                             net_seed=seed, trace=False)
            same = (net.accepted == abstract.accepted
                    and net.decisions == abstract.decisions
                    and net.node_cost_bits == abstract.node_cost_bits
                    and _canonical_json(case.protocol, case.instance,
                                        net) == abstract_json)
            row[f"equivalent_{mode}"] = same
            if mode == CROSSCHECK_EXACT:
                row["overhead_bits"] = net.overhead_bits
                row["crosscheck_bits"] = net.crosscheck_bits
        row["equivalent"] = (row["equivalent_exact"]
                             and row["equivalent_hashed"])
    return row


def _fault_rows(protocol: Protocol) -> List[Dict[str, Any]]:
    """The fault-matrix configurations for one protocol instance."""
    corrupt_seed = ChannelPolicy(corrupt=1.0, flips=1,
                                 corrupt_field="seed")
    return [
        {"fault": "baseline", "faults": FaultPlan(),
         "crosscheck": CROSSCHECK_EXACT, "expect_accept": 1.0},
        {"fault": "duplicate-0.5",
         "faults": FaultPlan(default=ChannelPolicy(duplicate=0.5)),
         "crosscheck": CROSSCHECK_EXACT, "expect_accept": 1.0},
        {"fault": "jitter-3",
         "faults": FaultPlan(default=ChannelPolicy(jitter=3)),
         "crosscheck": CROSSCHECK_EXACT, "expect_accept": 1.0},
        {"fault": "drop-0.3-retry-5",
         "faults": FaultPlan(default=ChannelPolicy(drop=0.3, timeout=2,
                                                   max_retries=5)),
         "crosscheck": CROSSCHECK_EXACT},
        {"fault": "drop-0.6-no-retry",
         "faults": FaultPlan(default=ChannelPolicy(drop=0.6,
                                                   max_retries=0)),
         "crosscheck": CROSSCHECK_EXACT, "expect_accept": 0.0},
        {"fault": "crash-node-3",
         "faults": FaultPlan(crashes={3: 0}),
         "crosscheck": CROSSCHECK_EXACT, "expect_accept": 0.0},
        {"fault": "byzantine-node-2",
         "faults": FaultPlan(byzantine=frozenset({2})),
         "crosscheck": CROSSCHECK_EXACT, "expect_accept": 0.0},
        {"fault": "corrupt-broadcast-seed",
         "faults": FaultPlan(channels={(PROVER, 3): corrupt_seed}),
         "crosscheck": CROSSCHECK_HASHED, "expect_accept": 0.0,
         "detection": True},
    ]


def _fault_counter_values(sess) -> Dict[str, float]:
    """Current ``netsim/faults/<kind>`` counter values (kind-keyed)."""
    prefix = "netsim/faults/"
    return {name[len(prefix):]: snap["value"]
            for name, snap in sess.metrics.snapshot().items()
            if name.startswith(prefix) and snap["kind"] == "counter"}


def fault_matrix(seed: int = GOLDEN_SEED, trials: int = 20,
                 n: int = 8) -> Dict[str, Any]:
    """Measure acceptance/detection rates across fault configurations.

    Runs ``SymDMAMProtocol(n)`` with its honest prover on a cycle:
    every rejection is then attributable to the injected fault.  The
    ``corrupt-broadcast-seed`` row flips one bit of the broadcast
    ``seed`` field on the prover→node-3 channel and measures how often
    hashed-equality cross-checking reports a violation; the analytic
    detection bound is ``1 − m/p`` for the field-width scheme.

    Every row also tallies the injected fault events
    (``result.fault_events`` summed over its trials), and — when an
    ambient obs session is recording metrics — gates the row on the
    ``netsim/faults/<kind>`` counter deltas matching those tallies
    **exactly**: injected and observed counts may never drift apart.
    """
    protocol = SymDMAMProtocol(n)
    instance = Instance(cycle_graph(n))
    # One context for every run: the honest prover's automorphism
    # search and spanning tree are instance structure, found once.
    context = InstanceContext(instance, protocol)
    analytic = 1.0 - equality_scheme(protocol.family.seed_bits).error_bound
    sess = active()
    metrics_on = sess is not None and sess.metrics_enabled
    rows = []
    for spec in _fault_rows(protocol):
        accepted = 0
        detected = 0
        lost = 0
        fault_events: Dict[str, int] = {}
        counters_before = _fault_counter_values(sess) if metrics_on \
            else {}
        with (nullcontext() if sess is None else
              sess.span("netsim.fault_case", fault=spec["fault"],
                        protocol=protocol.name, n=n, trials=trials)):
            for t in range(trials):
                result = run_netsim(protocol, instance,
                                    protocol.honest_prover(),
                                    random.Random(seed + t),
                                    faults=spec["faults"],
                                    crosscheck=spec["crosscheck"],
                                    net_seed=seed + t, context=context,
                                    trace=False)
                accepted += result.accepted
                detected += result.broadcast_violations > 0
                lost += result.lost_frames
                for kind, count in result.fault_events.items():
                    fault_events[kind] = fault_events.get(kind, 0) \
                        + count
        row: Dict[str, Any] = {
            "fault": spec["fault"],
            "crosscheck": spec["crosscheck"],
            "trials": trials,
            "accept_rate": accepted / trials,
            "lost_frames": lost,
            "fault_events": dict(sorted(fault_events.items())),
            "ok": True,
        }
        if "expect_accept" in spec:
            row["expect_accept"] = spec["expect_accept"]
            row["ok"] = row["accept_rate"] == spec["expect_accept"]
        if spec.get("detection"):
            row["detection_rate"] = detected / trials
            row["analytic_bound"] = analytic
            row["ok"] = row["ok"] and row["detection_rate"] >= analytic
        if metrics_on:
            counters_after = _fault_counter_values(sess)
            observed = {
                kind: int(counters_after.get(kind, 0.0)
                          - counters_before.get(kind, 0.0))
                for kind in set(counters_before) | set(counters_after)}
            observed = {kind: count for kind, count in observed.items()
                        if count}
            row["observed_events"] = dict(sorted(observed.items()))
            row["counters_match"] = observed == fault_events
            row["ok"] = row["ok"] and row["counters_match"]
        rows.append(row)
    return {
        "seed": seed,
        "protocol": protocol.name,
        "n": n,
        "trials": trials,
        "rows": rows,
        "all_ok": all(row["ok"] for row in rows),
    }
