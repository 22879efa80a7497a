"""Tests for the DSym dAM protocol (Theorem 1.2 / Section 3.3)."""

import math
import random

import pytest

from repro.core import Instance, run_protocol, run_trials
from repro.graphs import (DSymLayout, cycle_graph, dsym_graph,
                          dsym_no_instance, gnp_random_graph, in_dsym,
                          path_graph, star_graph)
from repro.graphs.graph import Graph
from repro.protocols import DSymDAMProtocol


@pytest.fixture
def layout():
    return DSymLayout(6, 2)


@pytest.fixture
def protocol(layout):
    return DSymDAMProtocol(layout)


class TestParameters:
    def test_rejects_bad_layout(self):
        with pytest.raises(ValueError):
            DSymDAMProtocol(DSymLayout(0, 1))

    def test_instance_size_validated(self, protocol, rng):
        with pytest.raises(ValueError):
            run_protocol(protocol, Instance(cycle_graph(10)),
                         protocol.honest_prover(), rng)

    def test_sigma_is_fixed_public(self, layout, protocol):
        from repro.graphs import dsym_automorphism
        assert protocol.sigma == dsym_automorphism(layout)


class TestCompleteness:
    @pytest.mark.parametrize("half_builder,r", [
        (lambda: cycle_graph(6), 2),
        (lambda: path_graph(6), 1),
        (lambda: star_graph(6), 0),
        # Connectivity of the *network* is required, so halves whose
        # components all touch vertex 0's component via the path only
        # must themselves be connected.
        (lambda: Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4),
                           (4, 5)]), 3),
    ])
    def test_yes_instances_always_accepted(self, half_builder, r, rng):
        half = half_builder()
        graph = dsym_graph(half, r)
        assert in_dsym(graph, 6)
        protocol = DSymDAMProtocol(DSymLayout(6, r))
        estimate = run_trials(protocol, Instance(graph),
                              protocol.honest_prover(), 10,
                              rng.getrandbits(64))
        assert estimate.probability == 1.0

    def test_rigid_halves_work_too(self, asym6, rng):
        """DSym YES instances whose halves are rigid: the *global* graph
        still has the mirror automorphism σ."""
        graph = dsym_graph(asym6, 2)
        protocol = DSymDAMProtocol(DSymLayout(6, 2))
        result = run_protocol(protocol, Instance(graph),
                              protocol.honest_prover(), rng)
        assert result.accepted

    def test_random_halves(self, rng):
        for _ in range(5):
            half = gnp_random_graph(6, 0.5, rng)
            graph = dsym_graph(half, 2)
            if not graph.is_connected():
                continue
            protocol = DSymDAMProtocol(DSymLayout(6, 2))
            assert run_protocol(protocol, Instance(graph),
                                protocol.honest_prover(), rng).accepted


class TestSoundness:
    def test_different_halves_rejected(self, asym6, protocol, rng):
        graph = dsym_no_instance(asym6, cycle_graph(6), 2)
        accepted = sum(
            run_protocol(protocol, Instance(graph),
                         protocol.honest_prover(), rng).accepted
            for _ in range(50))
        # Structural checks pass but the σ-automorphism hash test fails;
        # acceptance only on hash collision (< m/p ~ 6e-3).
        assert accepted <= 2

    def test_relabeled_half_rejected(self, asym6, protocol, rng):
        """Isomorphic halves under the wrong labeling are NO instances —
        the fixed σ is what makes DSym 'distributed-NP-hard'."""
        relabeled = asym6.relabel([1, 0, 2, 3, 4, 5])
        graph = dsym_no_instance(asym6, relabeled, 2)
        assert not in_dsym(graph, 6)
        accepted = sum(
            run_protocol(protocol, Instance(graph),
                         protocol.honest_prover(), rng).accepted
            for _ in range(50))
        assert accepted <= 2

    def test_structural_violation_rejected_deterministically(self, asym6,
                                                             protocol, rng):
        graph = dsym_graph(asym6, 2).with_edges([(1, 7)])  # cross edge
        accepted = sum(
            run_protocol(protocol, Instance(graph),
                         protocol.honest_prover(), rng).accepted
            for _ in range(10))
        assert accepted == 0

    def test_missing_path_edge_rejected(self, asym6, protocol, rng):
        good = dsym_graph(asym6, 2)
        edges = [e for e in good.edges if e != (0, 12)]
        bad = Graph(good.n, edges)
        if bad.is_connected():
            accepted = sum(
                run_protocol(protocol, Instance(bad),
                             protocol.honest_prover(), rng).accepted
                for _ in range(10))
            assert accepted == 0


class TestCost:
    def test_cost_logarithmic(self, rng):
        costs = {}
        for inner in (6, 12, 24, 48):
            layout = DSymLayout(inner, 2)
            graph = dsym_graph(cycle_graph(inner), 2)
            protocol = DSymDAMProtocol(layout)
            result = run_protocol(protocol, Instance(graph),
                                  protocol.honest_prover(), rng)
            costs[layout.total_n] = result.max_cost_bits
        ratios = [costs[n] / math.log2(n) for n in costs]
        assert max(ratios) <= 3.0 * min(ratios)

    def test_exponential_separation_vs_lcp(self, rng):
        """Theorem 1.2's content: dAM cost is polylogarithmic while the
        LCP baseline pays ~N² on the same instance."""
        from repro.protocols import DSymLCP
        inner = 24
        layout = DSymLayout(inner, 2)
        graph = dsym_graph(cycle_graph(inner), 2)
        instance = Instance(graph)
        dam = DSymDAMProtocol(layout)
        lcp = DSymLCP(layout)
        dam_cost = run_protocol(dam, instance, dam.honest_prover(),
                                rng).max_cost_bits
        lcp_cost = run_protocol(lcp, instance, lcp.honest_prover(),
                                rng).max_cost_bits
        assert lcp_cost >= layout.total_n ** 2
        assert dam_cost * 20 < lcp_cost
