"""Tests for Protocol 1 (Theorem 1.1): the O(log n) dMAM protocol for Sym."""

import math
import random

import pytest

from repro.core import Instance, ProtocolViolation, run_protocol, run_trials
from repro.graphs import (SMALLEST_ASYMMETRIC, complete_graph, cycle_graph,
                          double_star, gnp_random_graph, grid_graph,
                          is_symmetric, lower_bound_dumbbell, path_graph,
                          rigid_family_exhaustive, star_graph,
                          symmetric_doubled_graph)
from repro.hashing import LinearHashFamily, graph_matrix_sum, \
    mapped_matrix_sum
from repro.protocols import (CommittedMappingProver, SymDMAMProtocol,
                             protocol1_hash_family)


SYMMETRIC_GRAPHS = [
    cycle_graph(6), complete_graph(5), star_graph(7), path_graph(6),
    grid_graph(3, 3), double_star(3, 3),
]


class TestParameters:
    def test_family_follows_paper_window(self):
        for n in (4, 8, 16):
            family = protocol1_hash_family(n)
            assert family.m == n * n
            assert 10 * n ** 3 <= family.p <= 100 * n ** 3

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            SymDMAMProtocol(1)

    def test_rejects_undersized_family(self):
        with pytest.raises(ValueError):
            SymDMAMProtocol(6, family=LinearHashFamily(m=25, p=1009))

    def test_instance_size_validated(self, rng):
        protocol = SymDMAMProtocol(6)
        with pytest.raises(ValueError):
            run_protocol(protocol, Instance(cycle_graph(5)),
                         protocol.honest_prover(), rng)


class TestCompleteness:
    @pytest.mark.parametrize("graph", SYMMETRIC_GRAPHS,
                             ids=lambda g: f"n{g.n}e{g.num_edges}")
    def test_symmetric_graphs_always_accepted(self, graph, rng):
        protocol = SymDMAMProtocol(graph.n)
        estimate = run_trials(
            protocol, Instance(graph), protocol.honest_prover(), 15,
            rng.getrandbits(64))
        assert estimate.probability == 1.0

    def test_random_symmetric_doublings(self, rng):
        for _ in range(5):
            base = gnp_random_graph(5, 0.5, rng)
            graph = symmetric_doubled_graph(base, bridge_length=1)
            if not graph.is_connected():
                continue
            protocol = SymDMAMProtocol(graph.n)
            result = run_protocol(protocol, Instance(graph),
                                  protocol.honest_prover(), rng)
            assert result.accepted

    def test_dumbbell_yes_instances(self, rigid6, rng):
        graph = lower_bound_dumbbell(rigid6[0], rigid6[0])
        protocol = SymDMAMProtocol(graph.n)
        result = run_protocol(protocol, Instance(graph),
                              protocol.honest_prover(), rng)
        assert result.accepted

    def test_honest_prover_rejects_asymmetric_input(self, asym6, rng):
        protocol = SymDMAMProtocol(6)
        with pytest.raises(ProtocolViolation):
            run_protocol(protocol, Instance(asym6),
                         protocol.honest_prover(), rng)


class TestSoundness:
    def test_committed_cheater_below_bound(self, asym6):
        protocol = SymDMAMProtocol(6)
        adversary = CommittedMappingProver(protocol)
        trials = 300
        accepted = sum(
            run_protocol(protocol, Instance(asym6), adversary,
                         random.Random(i)).accepted
            for i in range(trials))
        # Theorem 3.2 bound: m/p = 36/p <= 1/60; generous slack.
        assert accepted / trials <= protocol.family.collision_bound + 0.02

    def test_all_rigid6_rejected(self, rigid6, rng):
        protocol = SymDMAMProtocol(6)
        for graph in rigid6:
            adversary = CommittedMappingProver(protocol)
            accepted = sum(
                run_protocol(protocol, Instance(graph), adversary,
                             rng).accepted
                for _ in range(30))
            assert accepted == 0

    def test_dumbbell_no_instances(self, rigid6, rng):
        graph = lower_bound_dumbbell(rigid6[0], rigid6[1])
        assert not is_symmetric(graph)
        protocol = SymDMAMProtocol(graph.n)
        adversary = CommittedMappingProver(protocol)
        accepted = sum(
            run_protocol(protocol, Instance(graph), adversary, rng).accepted
            for _ in range(30))
        assert accepted == 0

    def test_small_prime_collision_rate_obeys_theorem(self, asym6):
        """With an artificially tiny prime, collisions become visible
        and must still respect the exact m/p law."""
        family = LinearHashFamily(m=36, p=211)
        protocol = SymDMAMProtocol(6, family=family)
        mapping = (1, 0, 2, 3, 4, 5)
        adversary = CommittedMappingProver(protocol, mapping=mapping)
        # Exact collision count over all seeds for the committed pair.
        a_sum = graph_matrix_sum(asym6, 211)
        b_sum = mapped_matrix_sum(asym6, mapping, 211)
        exact = sum(
            family.hash_matrix_sum(s, a_sum) == family.hash_matrix_sum(
                s, b_sum)
            for s in range(211))
        assert exact <= 36  # Theorem 3.2
        trials = 400
        accepted = sum(
            run_protocol(protocol, Instance(asym6), adversary,
                         random.Random(i)).accepted
            for i in range(trials))
        # The adversary accepts exactly on collision seeds: the rate
        # must track exact/211 within Monte Carlo noise.
        expected = exact / 211
        sigma = math.sqrt(max(expected, 1e-6) * (1 - expected) / trials)
        assert abs(accepted / trials - expected) <= 5 * sigma + 0.01


class TestCost:
    def test_cost_is_logarithmic(self, rng):
        costs = {}
        for n in (8, 16, 32, 64, 128):
            protocol = SymDMAMProtocol(n)
            result = run_protocol(protocol, Instance(cycle_graph(n)),
                                  protocol.honest_prover(), rng)
            costs[n] = result.max_cost_bits
        ratios = [costs[n] / math.log2(n) for n in costs]
        assert max(ratios) <= 3.0 * min(ratios)
        # 16x the network size costs ~2x the bits (log scaling), a far
        # cry from the 256x an n² scheme would pay.
        assert costs[128] <= 2.5 * costs[8]

    def test_cost_uniform_across_nodes(self, rng):
        protocol = SymDMAMProtocol(16)
        result = run_protocol(protocol, Instance(cycle_graph(16)),
                              protocol.honest_prover(), rng)
        assert len(set(result.node_cost_bits.values())) == 1

    def test_cost_tiny_versus_lcp(self, rng):
        """The headline of Theorem 1.1: interaction beats the Θ(n²) LCP."""
        n = 64
        protocol = SymDMAMProtocol(n)
        result = run_protocol(protocol, Instance(cycle_graph(n)),
                              protocol.honest_prover(), rng)
        assert result.max_cost_bits < n * n / 20


class TestTranscriptShape:
    def test_round_pattern(self, rng):
        protocol = SymDMAMProtocol(8)
        result = run_protocol(protocol, Instance(cycle_graph(8)),
                              protocol.honest_prover(), rng)
        assert set(result.transcript.messages) == {0, 2}
        assert set(result.transcript.randomness) == {1}

    def test_seed_echo_matches_root_challenge(self, rng):
        protocol = SymDMAMProtocol(8)
        result = run_protocol(protocol, Instance(cycle_graph(8)),
                              protocol.honest_prover(), rng)
        m0 = result.transcript.messages[0]
        root = m0[0]["root"]
        seed = result.transcript.messages[2][0]["seed"]
        assert seed == result.transcript.randomness[1][root]

    def test_rho_is_committed_before_challenge(self, rng):
        """Structural dMAM property: the mapping appears in round 0,
        the challenge in round 1."""
        protocol = SymDMAMProtocol(8)
        result = run_protocol(protocol, Instance(cycle_graph(8)),
                              protocol.honest_prover(), rng)
        assert "rho" in result.transcript.messages[0][0]
        assert "rho" not in result.transcript.messages[2][0]
