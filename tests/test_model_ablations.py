"""Model-level ablations: checks that the *framework's* safeguards are
load-bearing, not just each protocol's fields.

The mutation sweep corrupts honest messages; these tests instead
remove whole mechanisms (the broadcast consistency check, the
strict-field discipline) and demonstrate the predicted failure or
robustness.

The star exhibit: without the broadcast check on Protocol 1's hash
seed, a cheating prover can give every node a *different* seed and
tune one node's seed so the root's two aggregates cancel — full
acceptance on an asymmetric graph with probability ≈ 1.  The same
prover is rejected instantly by the real protocol.  "We assume
implicitly that each node compares the response it received to the
responses its neighbors received" is not a formality.
"""

import random
from typing import Dict, Optional

import pytest

from repro.core import Instance, NodeMessage, Prover, run_protocol
from repro.graphs import SMALLEST_ASYMMETRIC, cycle_graph
from repro.network.spanning_tree import honest_tree_advice
from repro.hashing.rowmatrix import image_bits
from repro.protocols import SymDMAMProtocol
from repro.protocols._tree_hash import honest_aggregates
from repro.protocols.sym_dmam import (FIELD_A, FIELD_B, FIELD_DIST,
                                      FIELD_PARENT, FIELD_RHO, FIELD_ROOT,
                                      FIELD_SEED, ROUND_A1, ROUND_M0,
                                      ROUND_M2)


class NoBroadcastCheckProtocol(SymDMAMProtocol):
    """Protocol 1 with the broadcast consistency check DISABLED —
    deliberately broken, to show the check carries soundness."""

    name = "sym-dmam-no-broadcast"

    def broadcast_fields(self, round_idx):
        return frozenset()


class SeedTuningCheater(Prover):
    """The attack enabled by a missing broadcast check.

    Round M0: commit a swap ρ and an honest tree (root 0).  Round M2:
    the root gets its genuine challenge ``i_r`` (its pinning check
    must pass); every other node gets a per-node seed, initialized to
    a common value and then *tuned at one non-root node* so that

        Σ_v h_{s_v}([v, N(v)])  ==  Σ_v h_{s_v}([ρ(v), ρ(N(v))]),

    i.e. the root's final ``a_r = b_r`` comparison holds by
    construction.  All aggregates are computed bottom-up with each
    node's own seed, so every local aggregation check passes too.
    Each candidate seed shifts the difference by an essentially random
    amount mod p, so a suitable seed exists with probability
    ≈ 1 − (1−1/p)^(p·(n−1)) ≈ 1.
    """

    def __init__(self, protocol: SymDMAMProtocol) -> None:
        self.protocol = protocol
        self._rho = None
        self._advice = None
        #: Whether the last M2 found a tuning seed (for test introspection).
        self.tuning_succeeded = False

    def reset(self) -> None:
        self._rho = None
        self._advice = None
        self.tuning_succeeded = False

    def respond(self, instance, round_idx, randomness, own_messages, rng
                ) -> Dict[int, NodeMessage]:
        graph = instance.graph
        n = graph.n
        family = self.protocol.family
        p = family.p
        root = 0
        if round_idx == ROUND_M0:
            rho = list(range(n))
            rho[0], rho[1] = 1, 0
            self._rho = tuple(rho)
            self._advice = honest_tree_advice(graph, root)
            return {v: {FIELD_ROOT: root, FIELD_RHO: self._rho[v],
                        FIELD_PARENT: self._advice.parent[v],
                        FIELD_DIST: self._advice.dist[v]}
                    for v in graph.vertices}

        rho = self._rho
        advice = self._advice

        def a_row_hash(v: int, seed: int) -> int:
            return family.hash_row_matrix(seed, n, v, graph.closed_row(v))

        def b_row_hash(v: int, seed: int) -> int:
            row = image_bits(graph.closed_row(v), rho, n)
            return family.hash_row_matrix(seed, n, rho[v], row)

        seeds = {v: 1 for v in graph.vertices}
        seeds[root] = randomness[ROUND_A1][root]  # the pinned copy

        def total_difference() -> int:
            return sum(a_row_hash(v, seeds[v]) - b_row_hash(v, seeds[v])
                       for v in graph.vertices) % p

        self.tuning_succeeded = False
        diff = total_difference()
        if diff != 0:
            for w in graph.vertices:
                if w == root:
                    continue
                base = (a_row_hash(w, seeds[w])
                        - b_row_hash(w, seeds[w])) % p
                target = (base - diff) % p
                found: Optional[int] = None
                for s in range(p):
                    if (a_row_hash(w, s) - b_row_hash(w, s)) % p == target:
                        found = s
                        break
                if found is not None:
                    seeds[w] = found
                    self.tuning_succeeded = True
                    break
        else:
            self.tuning_succeeded = True

        def a_term(v: int) -> int:
            return a_row_hash(v, seeds[v])

        def b_term(v: int) -> int:
            return b_row_hash(v, seeds[v])

        a_values = honest_aggregates(graph, advice, a_term, p)
        b_values = honest_aggregates(graph, advice, b_term, p)
        return {v: {FIELD_SEED: seeds[v], FIELD_A: a_values[v],
                    FIELD_B: b_values[v]}
                for v in graph.vertices}


class TestBroadcastCheckIsLoadBearing:
    def test_real_protocol_rejects_seed_splitting(self, rng):
        protocol = SymDMAMProtocol(6)
        cheater = SeedTuningCheater(protocol)
        accepted = sum(
            run_protocol(protocol, Instance(SMALLEST_ASYMMETRIC), cheater,
                         rng).accepted
            for _ in range(10))
        assert accepted == 0  # neighbors see differing seed copies

    def test_disabled_check_is_fully_broken(self, rng):
        """Without the broadcast check the same cheater achieves FULL
        acceptance on an asymmetric graph — soundness is gone."""
        protocol = NoBroadcastCheckProtocol(6)
        cheater = SeedTuningCheater(protocol)
        accepted = 0
        tuned = 0
        trials = 10
        for _ in range(trials):
            result = run_protocol(protocol, Instance(SMALLEST_ASYMMETRIC),
                                  cheater, rng)
            accepted += result.accepted
            tuned += cheater.tuning_succeeded
        # The tuning search succeeds essentially always, and every
        # tuned run is accepted.
        assert tuned >= trials - 1
        assert accepted >= trials - 1

    def test_honest_prover_unaffected_by_ablation(self, rng):
        """Completeness never depended on the check."""
        protocol = NoBroadcastCheckProtocol(8)
        result = run_protocol(protocol, Instance(cycle_graph(8)),
                              protocol.honest_prover(), rng)
        assert result.accepted


class TestExtraFieldsRobustness:
    """A prover may stuff extra junk fields into messages; the runner
    and decision functions must ignore them (no crash, no acceptance
    change, no cost change)."""

    class JunkFieldProver(Prover):
        def __init__(self, base: Prover) -> None:
            self.base = base

        def reset(self):
            self.base.reset()

        def respond(self, instance, round_idx, randomness, own_messages,
                    rng):
            response = self.base.respond(instance, round_idx, randomness,
                                         own_messages, rng)
            for v in response:
                response[v] = dict(response[v])
                response[v]["junk"] = object()
                response[v]["__proto__"] = "boo"
            return response

    def test_junk_fields_ignored(self, rng):
        protocol = SymDMAMProtocol(8)
        instance = Instance(cycle_graph(8))
        prover = self.JunkFieldProver(protocol.honest_prover())
        result = run_protocol(protocol, instance, prover, rng)
        assert result.accepted

    def test_junk_fields_do_not_change_cost_accounting(self, rng):
        protocol = SymDMAMProtocol(8)
        instance = Instance(cycle_graph(8))
        honest_cost = run_protocol(protocol, instance,
                                   protocol.honest_prover(),
                                   rng).max_cost_bits
        junk_cost = run_protocol(protocol, instance,
                                 self.JunkFieldProver(
                                     protocol.honest_prover()),
                                 rng).max_cost_bits
        assert honest_cost == junk_cost
