"""Tests for the execution engine: locality, broadcast checks, cost
accounting and acceptance estimation — driven through a minimal
concrete protocol defined here."""

import random
from typing import Dict

import pytest

from repro.core import (AcceptanceEstimate, Instance, LocalView, Protocol,
                        ProtocolViolation, Prover, run_protocol, run_trials)
from repro.graphs import Graph, cycle_graph, path_graph


class EchoProtocol(Protocol):
    """Toy dAM protocol: every node sends a 4-bit challenge; the prover
    must echo each node's challenge back ('echo', unicast) and broadcast
    a constant tag ('tag').  Accept iff echo matches."""

    name = "echo"
    pattern = "AM"

    def arthur_value(self, instance, round_idx, v, rng):
        return rng.randrange(16)

    def arthur_bits(self, instance, round_idx):
        return 4

    def broadcast_fields(self, round_idx):
        return frozenset({"tag"})

    def merlin_fields(self, round_idx):
        return frozenset({"tag", "echo"})

    def merlin_bits(self, instance, round_idx, message):
        return 4 + 8  # echo + tag

    def decide(self, view):
        msg = view.own_message(1)
        return msg["echo"] == view.own_randomness(0)

    def honest_prover(self):
        return EchoProver()


class EchoProver(Prover):
    def respond(self, instance, round_idx, randomness, own_messages, rng):
        return {v: {"tag": 7, "echo": randomness[0][v]}
                for v in instance.graph.vertices}


class WrongEchoProver(Prover):
    """Echoes challenge+1: every node must reject."""

    def respond(self, instance, round_idx, randomness, own_messages, rng):
        return {v: {"tag": 7, "echo": (randomness[0][v] + 1) % 16}
                for v in instance.graph.vertices}


class InconsistentBroadcastProver(Prover):
    """Correct echoes but node 0 gets a different broadcast tag."""

    def respond(self, instance, round_idx, randomness, own_messages, rng):
        out = {v: {"tag": 7, "echo": randomness[0][v]}
               for v in instance.graph.vertices}
        out[0] = dict(out[0])
        out[0]["tag"] = 8
        return out


class MissingNodeProver(Prover):
    def respond(self, instance, round_idx, randomness, own_messages, rng):
        return {v: {"tag": 7, "echo": randomness[0][v]}
                for v in instance.graph.vertices if v != 0}


class CrashingFieldProver(Prover):
    """Omits the 'echo' field — decide() raises KeyError, which must be
    converted into a local reject, not a crash."""

    def respond(self, instance, round_idx, randomness, own_messages, rng):
        return {v: {"tag": 7} for v in instance.graph.vertices}


@pytest.fixture
def protocol():
    return EchoProtocol()


@pytest.fixture
def instance():
    return Instance(cycle_graph(5))


class TestRunProtocol:
    def test_honest_accepts(self, protocol, instance, rng):
        result = run_protocol(protocol, instance, EchoProver(), rng)
        assert result.accepted
        assert all(result.decisions.values())
        assert result.rejecting_nodes() == []

    def test_wrong_echo_rejected_everywhere(self, protocol, instance, rng):
        result = run_protocol(protocol, instance, WrongEchoProver(), rng)
        assert not result.accepted
        assert result.rejecting_nodes() == [0, 1, 2, 3, 4]

    def test_broadcast_inconsistency_rejected_locally(self, protocol,
                                                      instance, rng):
        result = run_protocol(protocol, instance,
                              InconsistentBroadcastProver(), rng)
        assert not result.accepted
        # Node 0 and its two cycle neighbors see the mismatch.
        assert result.rejecting_nodes() == [0, 1, 4]

    def test_missing_node_is_protocol_violation(self, protocol, instance,
                                                rng):
        with pytest.raises(ProtocolViolation):
            run_protocol(protocol, instance, MissingNodeProver(), rng)

    def test_malformed_message_rejects_not_crashes(self, protocol, instance,
                                                   rng):
        result = run_protocol(protocol, instance, CrashingFieldProver(), rng)
        assert not result.accepted

    def test_transcript_recorded(self, protocol, instance, rng):
        result = run_protocol(protocol, instance, EchoProver(), rng)
        assert set(result.transcript.randomness) == {0}
        assert set(result.transcript.messages) == {1}
        assert set(result.transcript.randomness[0]) == set(range(5))

    def test_disconnected_instance_rejected(self, protocol, rng):
        disconnected = Instance(Graph(4, [(0, 1), (2, 3)]))
        with pytest.raises(ValueError):
            run_protocol(protocol, disconnected, EchoProver(), rng)


class TestLocality:
    def test_views_contain_only_neighborhood(self, instance, rng):
        """The structural locality guarantee: a decision function can
        only ever see its closed neighborhood."""
        observed = {}

        class SpyProtocol(EchoProtocol):
            def decide(self, view):
                observed[view.node] = (set(view.randomness[0]),
                                       set(view.messages[1]))
                return True

        run_protocol(SpyProtocol(), instance, EchoProver(), rng)
        g = instance.graph
        for v in g.vertices:
            closed = set(g.closed_neighborhood(v))
            rand_keys, msg_keys = observed[v]
            assert rand_keys == closed
            assert msg_keys == closed

    def test_view_helpers(self, instance, rng):
        class HelperSpy(EchoProtocol):
            def decide(self, view):
                assert view.node in view.closed_neighborhood
                assert view.node not in view.neighbors
                assert view.own_message(1) == view.message_of(1, view.node)
                for u in view.neighbors:
                    assert view.has_edge(u)
                assert not view.has_edge(view.node)
                return True

        result = run_protocol(HelperSpy(), instance, EchoProver(), rng)
        assert result.accepted


class TestCostAccounting:
    def test_cost_breakdown(self, protocol, instance, rng):
        result = run_protocol(protocol, instance, EchoProver(), rng)
        # 4 bits of challenge + 12 bits of response per node.
        assert result.node_cost_bits == {v: 16 for v in range(5)}
        assert result.max_cost_bits == 16

    def test_measure_cost(self, protocol, instance):
        result = run_protocol(protocol, instance, protocol.honest_prover(),
                              random.Random(0))
        assert result.max_cost_bits == 16


class TestEstimation:
    def test_estimate_perfect_acceptance(self, protocol, instance, rng):
        estimate = run_trials(protocol, instance, EchoProver(), 20,
                              rng.getrandbits(64))
        assert estimate.probability == 1.0
        assert estimate.trials == 20

    def test_estimate_zero(self, protocol, instance, rng):
        estimate = run_trials(protocol, instance, WrongEchoProver(), 20,
                              rng.getrandbits(64))
        assert estimate.probability == 0.0

    def test_wilson_interval_sane(self):
        estimate = AcceptanceEstimate(accepted=50, trials=100)
        lo, hi = estimate.wilson_interval()
        assert 0.3 < lo < 0.5 < hi < 0.7

    def test_wilson_extremes(self):
        lo, hi = AcceptanceEstimate(accepted=0, trials=0).wilson_interval()
        assert (lo, hi) == (0.0, 1.0)
        lo, hi = AcceptanceEstimate(accepted=10, trials=10).wilson_interval()
        assert hi == 1.0 and lo > 0.5


class TestRandomTopologies:
    """The runner must behave identically on any connected topology."""

    def test_echo_accepts_on_assorted_graphs(self, rng):
        from repro.graphs import (complete_bipartite_graph, grid_graph,
                                  random_connected_graph, star_graph)
        protocol = EchoProtocol()
        for graph in (grid_graph(3, 4), star_graph(9),
                      complete_bipartite_graph(3, 4),
                      random_connected_graph(12, 0.3, rng)):
            result = run_protocol(protocol, Instance(graph), EchoProver(),
                                  rng)
            assert result.accepted
            assert set(result.decisions) == set(graph.vertices)

    def test_broadcast_violation_localized_to_neighborhood(self, rng):
        """Only the corrupted node's closed neighborhood can notice a
        broadcast mismatch — locality cuts both ways."""
        from repro.graphs import path_graph
        graph = path_graph(7)
        result = run_protocol(EchoProtocol(), Instance(graph),
                              InconsistentBroadcastProver(), rng)
        assert not result.accepted
        # Node 0 is corrupted; only 0 and 1 can see it on a path.
        assert result.rejecting_nodes() == [0, 1]
