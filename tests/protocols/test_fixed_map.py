"""Tests for the general fixed-mapping certification protocol."""

import math
import random

import pytest

from repro.core import Instance, TamperingProver, run_protocol, run_trials
from repro.graphs import (Graph, cycle_graph, disjoint_copies,
                          dumbbell_mirror_map, is_automorphism,
                          lower_bound_dumbbell, path_graph, star_graph,
                          symmetric_doubled_graph)
from repro.protocols import FixedMappingProtocol
from repro.protocols.fixed_map import FIELD_A, FIELD_B, FIELD_SEED, ROUND_M1


def rotation(n, k=1):
    return tuple((v + k) % n for v in range(n))


class TestConstruction:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            FixedMappingProtocol((0, 0, 1))

    def test_rejects_bad_root(self):
        with pytest.raises(ValueError):
            FixedMappingProtocol((1, 0), root=5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FixedMappingProtocol(())

    def test_instance_size_checked(self, rng):
        protocol = FixedMappingProtocol(rotation(5))
        with pytest.raises(ValueError):
            run_protocol(protocol, Instance(cycle_graph(4)),
                         protocol.honest_prover(), rng)


class TestCompleteness:
    def test_cycle_rotation_certified(self, rng):
        n = 10
        protocol = FixedMappingProtocol(rotation(n))
        estimate = run_trials(
            protocol, Instance(cycle_graph(n)), protocol.honest_prover(),
            10, rng.getrandbits(64))
        assert estimate.probability == 1.0

    def test_identity_always_certified(self, rng):
        """The identity is an automorphism of every graph."""
        for graph in (path_graph(5), star_graph(6), cycle_graph(7)):
            protocol = FixedMappingProtocol(tuple(range(graph.n)))
            assert run_protocol(protocol, Instance(graph),
                                protocol.honest_prover(), rng).accepted

    def test_dumbbell_mirror_certified(self, rigid6, rng):
        graph = lower_bound_dumbbell(rigid6[0], rigid6[0])
        mirror = dumbbell_mirror_map(6)
        protocol = FixedMappingProtocol(mirror)
        assert run_protocol(protocol, Instance(graph),
                            protocol.honest_prover(), rng).accepted

    def test_path_reversal_certified(self, rng):
        n = 7
        reversal = tuple(n - 1 - v for v in range(n))
        protocol = FixedMappingProtocol(reversal, root=3)
        assert run_protocol(protocol, Instance(path_graph(n)),
                            protocol.honest_prover(), rng).accepted


class TestSoundness:
    def test_non_automorphism_rejected(self, rng):
        """A rotation is NOT an automorphism of a path."""
        n = 8
        protocol = FixedMappingProtocol(rotation(n))
        accepted = sum(
            run_protocol(protocol, Instance(path_graph(n)),
                         protocol.honest_prover(), rng).accepted
            for _ in range(50))
        assert accepted <= 2  # only hash collisions can slip through

    def test_mirror_of_unequal_dumbbell_rejected(self, rigid6, rng):
        graph = lower_bound_dumbbell(rigid6[0], rigid6[1])
        mirror = dumbbell_mirror_map(6)
        assert not is_automorphism(graph, mirror)
        protocol = FixedMappingProtocol(mirror)
        accepted = sum(
            run_protocol(protocol, Instance(graph),
                         protocol.honest_prover(), rng).accepted
            for _ in range(50))
        assert accepted <= 2

    def test_forged_aggregate_rejected(self, rng):
        n = 10
        protocol = FixedMappingProtocol(rotation(n))
        prover = TamperingProver(
            protocol.honest_prover(),
            {(ROUND_M1, 4, FIELD_B): lambda b: (b + 1) % protocol.family.p})
        result = run_protocol(protocol, Instance(cycle_graph(n)), prover,
                              rng)
        assert not result.accepted

    def test_seed_substitution_rejected(self, rng):
        n = 10
        protocol = FixedMappingProtocol(rotation(n))
        corruptions = {(ROUND_M1, v, FIELD_SEED):
                       (lambda s: (s + 1) % protocol.family.p)
                       for v in range(n)}
        prover = TamperingProver(protocol.honest_prover(), corruptions)
        assert not run_protocol(protocol, Instance(cycle_graph(n)), prover,
                                rng).accepted


class TestStructureHook:
    def test_structure_check_is_anded_in(self, rng):
        n = 6
        protocol = FixedMappingProtocol(
            rotation(n), structure_check=lambda view: view.node != 3)
        result = run_protocol(protocol, Instance(cycle_graph(n)),
                              protocol.honest_prover(), rng)
        assert not result.accepted
        assert result.rejecting_nodes() == [3]

    def test_trivial_structure_check_accepts(self, rng):
        n = 6
        protocol = FixedMappingProtocol(
            rotation(n), structure_check=lambda view: True)
        assert run_protocol(protocol, Instance(cycle_graph(n)),
                            protocol.honest_prover(), rng).accepted


class TestCost:
    def test_logarithmic_cost(self, rng):
        costs = {}
        for n in (8, 32, 128):
            protocol = FixedMappingProtocol(rotation(n))
            costs[n] = run_protocol(protocol, Instance(cycle_graph(n)),
                                    protocol.honest_prover(),
                                    rng).max_cost_bits
        ratios = [costs[n] / math.log2(n) for n in costs]
        assert max(ratios) <= 3 * min(ratios)

    def test_certification_use_case(self, rng):
        """The 'certify your replication layout' scenario: two mirrored
        copies, the designed-in swap certified in O(log n) bits."""
        base = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                         (6, 7), (0, 4)])
        graph = symmetric_doubled_graph(base, bridge_length=1)
        n = graph.n
        # The designed swap: i <-> i+8 for copies, bridge midpoint fixed.
        sigma = list(range(n))
        for i in range(8):
            sigma[i], sigma[i + 8] = i + 8, i
        protocol = FixedMappingProtocol(tuple(sigma))
        result = run_protocol(protocol, Instance(graph),
                              protocol.honest_prover(), rng)
        assert result.accepted
        # Logarithmic, so well under the n² a full-matrix certificate
        # costs (the constant only pays off asymptotically; n=17 is
        # already ~3x cheaper).
        assert result.max_cost_bits * 3 <= n * n
