"""Tests for the distributed NP (LCP) baselines."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (Instance, ProtocolViolation, RandomGarbageProver,
                        TamperingProver, run_protocol, run_trials)
from repro.graphs import (DSymLayout, Graph, complete_graph, cycle_graph,
                          dsym_graph, dsym_no_instance, path_graph,
                          star_graph)
from repro.protocols import ConnectivityLCP, DSymLCP, SymLCP
from repro.protocols.lcp import (FIELD_MATRIX, FIELD_RHO, FIELD_SIZE,
                                 _is_automorphism_of_bits)


def _is_automorphism_scan(matrix_bits, n, rho):
    """The entry-by-entry automorphism test, kept as the oracle."""
    def matrix_row(v):
        return (matrix_bits >> (v * n)) & ((1 << n) - 1)

    if sorted(rho) != list(range(n)):
        return False
    for u in range(n):
        row = matrix_row(u)
        for v in range(n):
            bit = (row >> v) & 1
            image = (matrix_row(rho[u]) >> rho[v]) & 1
            if bit != image:
                return False
    return True


def _closed_under(matrix_bits, n, rho):
    """The smallest superset of the matrix that the permutation ``rho``
    maps onto itself, so that the oracle also sees accepting cases."""
    while True:
        image = 0
        for u in range(n):
            for v in range(n):
                if matrix_bits >> (u * n + v) & 1:
                    image |= 1 << (rho[u] * n + rho[v])
        if image | matrix_bits == matrix_bits:
            return matrix_bits
        matrix_bits |= image


@st.composite
def _automorphism_cases(draw):
    """Arbitrary (not necessarily symmetric) n²-bit matrices for n ≤ 8,
    with ρ a permutation, a non-permutation or of the wrong length."""
    n = draw(st.integers(min_value=1, max_value=8))
    matrix_bits = draw(st.integers(min_value=0, max_value=(1 << n * n) - 1))
    kind = draw(st.sampled_from(["permutation", "closed", "function",
                                 "length"]))
    if kind in ("permutation", "closed"):
        rho = tuple(draw(st.permutations(range(n))))
        if kind == "closed":
            matrix_bits = _closed_under(matrix_bits, n, rho)
    elif kind == "function":
        rho = tuple(draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                  min_size=n, max_size=n)))
    else:
        size = draw(st.integers(min_value=0, max_value=n + 2).filter(
            lambda k: k != n))
        rho = tuple(draw(st.permutations(range(size))))
    return matrix_bits, n, rho


class TestAutomorphismOfBits:
    @given(_automorphism_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_entry_scan(self, case):
        matrix_bits, n, rho = case
        assert (_is_automorphism_of_bits(matrix_bits, n, rho)
                == _is_automorphism_scan(matrix_bits, n, rho))


class TestSymLCP:
    def test_symmetric_accepted(self, rng):
        for graph in (cycle_graph(6), complete_graph(5), star_graph(6)):
            protocol = SymLCP(graph.n)
            result = run_protocol(protocol, Instance(graph),
                                  protocol.honest_prover(), rng)
            assert result.accepted

    def test_deterministic_soundness(self, asym6, rng):
        """No advice can make a rigid graph accepted: the matrix is
        pinned row-by-row and every non-trivial rho fails on the real
        matrix.  We check the canonical cheats."""
        protocol = SymLCP(6)

        class FixedAdviceProver(RandomGarbageProver):
            def __init__(self, advice):
                self.advice = advice

            def respond(self, instance, round_idx, randomness,
                        own_messages, rng):
                return {v: dict(self.advice)
                        for v in instance.graph.vertices}

        true_matrix = asym6.adjacency_bits()
        fake_graph = cycle_graph(6)
        cheats = [
            # True matrix, bogus automorphism.
            {FIELD_MATRIX: true_matrix, FIELD_RHO: (1, 0, 2, 3, 4, 5)},
            # Doctored (symmetric) matrix with its genuine automorphism.
            {FIELD_MATRIX: fake_graph.adjacency_bits(),
             FIELD_RHO: (1, 2, 3, 4, 5, 0)},
            # Identity rho on the true matrix.
            {FIELD_MATRIX: true_matrix, FIELD_RHO: (0, 1, 2, 3, 4, 5)},
        ]
        for advice in cheats:
            result = run_protocol(protocol, Instance(asym6),
                                  FixedAdviceProver(advice), rng)
            assert not result.accepted

    def test_honest_prover_needs_symmetry(self, asym6, rng):
        protocol = SymLCP(6)
        with pytest.raises(ProtocolViolation):
            run_protocol(protocol, Instance(asym6),
                         protocol.honest_prover(), rng)

    def test_cost_is_quadratic(self, rng):
        for n in (8, 16, 32):
            protocol = SymLCP(n)
            result = run_protocol(protocol, Instance(cycle_graph(n)),
                                  protocol.honest_prover(), rng)
            assert result.max_cost_bits >= n * n
            assert result.max_cost_bits <= 2 * n * n

    def test_row_tampering_detected(self, rng):
        protocol = SymLCP(6)
        graph = cycle_graph(6)
        prover = TamperingProver(
            protocol.honest_prover(),
            {(0, 2, FIELD_MATRIX): lambda m: m ^ (1 << 7)})
        result = run_protocol(protocol, Instance(graph), prover, rng)
        assert not result.accepted

    def test_one_automorphism_search_per_context(self,
                                                 automorphism_searches):
        # The prover reads the context's witness, so a batch searches
        # once, not once per trial.
        protocol = SymLCP(8)
        estimate, searches = automorphism_searches(
            run_trials, protocol, Instance(cycle_graph(8)),
            protocol.honest_prover(), 6, 3)
        assert searches == 1
        assert estimate.accepted == 6


class TestDSymLCP:
    def test_yes_accepted(self, asym6, rng):
        layout = DSymLayout(6, 2)
        graph = dsym_graph(asym6, 2)
        protocol = DSymLCP(layout)
        assert run_protocol(protocol, Instance(graph),
                            protocol.honest_prover(), rng).accepted

    def test_no_rejected_deterministically(self, asym6, rng):
        layout = DSymLayout(6, 2)
        graph = dsym_no_instance(asym6, cycle_graph(6), 2)
        protocol = DSymLCP(layout)
        # Even the honest prover's true advice cannot pass: the graph
        # simply is not in DSym, and the matrix is pinned.
        result = run_protocol(protocol, Instance(graph),
                              protocol.honest_prover(), rng)
        assert not result.accepted

    def test_advice_cannot_lie_about_matrix(self, asym6, rng):
        layout = DSymLayout(6, 2)
        no_graph = dsym_no_instance(asym6, cycle_graph(6), 2)
        yes_graph = dsym_graph(asym6, 2)
        protocol = DSymLCP(layout)
        prover = TamperingProver(
            protocol.honest_prover(),
            {(0, v, FIELD_MATRIX):
             (lambda _m, bits=yes_graph.adjacency_bits(): bits)
             for v in range(layout.total_n)})
        result = run_protocol(protocol, Instance(no_graph), prover, rng)
        assert not result.accepted

    def test_cost_quadratic(self, rng):
        layout = DSymLayout(12, 2)
        graph = dsym_graph(cycle_graph(12), 2)
        protocol = DSymLCP(layout)
        cost = run_protocol(protocol, Instance(graph),
                            protocol.honest_prover(), rng).max_cost_bits
        assert cost == layout.total_n ** 2


class TestConnectivityLCP:
    def test_connected_accepted(self, rng):
        for graph in (path_graph(7), cycle_graph(5), star_graph(9)):
            protocol = ConnectivityLCP(graph.n)
            assert run_protocol(protocol, Instance(graph),
                                protocol.honest_prover(), rng).accepted

    def test_single_vertex(self, rng):
        protocol = ConnectivityLCP(1)
        assert run_protocol(protocol, Instance(Graph(1)),
                            protocol.honest_prover(), rng).accepted

    def test_disconnected_unprovable(self, rng):
        """The subtree-size mechanism: each component's root would need
        size n, but sizes are forced bottom-up.  Simulate the strongest
        cheat — run the honest labeling per component and doctor the
        sizes."""
        from repro.core import Prover

        graph = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        protocol = ConnectivityLCP(6)

        class PerComponentProver(Prover):
            def respond(self, instance, round_idx, randomness,
                        own_messages, rng):
                # Label each component as its own tree, then lie that
                # every subtree size at the roots is n.
                out = {}
                for comp in instance.graph.connected_components():
                    sub = instance.graph
                    root = comp[0]
                    dist = sub.distances_from(root)
                    parents = sub.bfs_tree(root)
                    sizes = {v: 1 for v in comp}
                    for v in sorted(comp, key=lambda u: dist[u],
                                    reverse=True):
                        if v != root:
                            sizes[parents[v]] += sizes[v]
                    for v in comp:
                        out[v] = {"root": 0,  # claim a global root
                                  "parent": parents.get(v, v),
                                  "dist": dist[v],
                                  "size": sizes[v]}
                return out

        result = run_protocol(protocol, Instance(graph),
                              PerComponentProver(), rng)
        assert not result.accepted

    def test_size_lie_detected(self, rng):
        graph = path_graph(5)
        protocol = ConnectivityLCP(5)
        prover = TamperingProver(protocol.honest_prover(),
                                 {(0, 3, FIELD_SIZE): lambda s: s + 1})
        assert not run_protocol(protocol, Instance(graph), prover,
                                rng).accepted

    def test_honest_prover_rejects_disconnected(self, rng):
        protocol = ConnectivityLCP(4)
        with pytest.raises(ProtocolViolation):
            run_protocol(protocol, Instance(Graph(4, [(0, 1), (2, 3)])),
                         protocol.honest_prover(), rng)

    def test_cost_logarithmic(self, rng):
        costs = {}
        for n in (8, 64, 512):
            protocol = ConnectivityLCP(n)
            costs[n] = run_protocol(protocol, Instance(path_graph(n)),
                                    protocol.honest_prover(),
                                    rng).max_cost_bits
        assert costs[512] <= 3 * costs[8]
