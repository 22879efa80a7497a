"""Large-n graph layer: sparse accessors and tractable symmetry search."""

import time

from repro.graphs import cycle_graph, path_graph
from repro.graphs.automorphism import (find_nontrivial_automorphism,
                                       is_automorphism)
from repro.graphs.graph import bits_of_mask
from repro.network.spanning_tree import honest_tree_advice


class TestBitsOfMask:
    def test_ascending_set_bits(self):
        assert bits_of_mask(0) == ()
        assert bits_of_mask(0b1011001) == (0, 3, 4, 6)
        assert bits_of_mask(1 << 63) == (63,)

    def test_neighbors_match_masks(self):
        graph = cycle_graph(17)
        for v in graph.vertices:
            assert graph.neighbors(v) == bits_of_mask(graph.row_mask(v))


class TestLargeNSymmetrySearch:
    def test_cycle_16384_finds_witness_fast(self):
        graph = cycle_graph(16384)
        start = time.perf_counter()
        sigma = find_nontrivial_automorphism(graph)
        elapsed = time.perf_counter() - start
        assert sigma is not None
        assert is_automorphism(graph, sigma)
        assert any(sigma[v] != v for v in graph.vertices)
        # Pre-sparse search was intractable here; keep it clearly sane
        # (measured ~0.3s, bound is loose for slow CI machines).
        assert elapsed < 30.0

    def test_path_graph_large_witness_is_reversal(self):
        graph = path_graph(4097)
        sigma = find_nontrivial_automorphism(graph)
        assert sigma is not None
        assert is_automorphism(graph, sigma)


class TestLargeNSpanningTree:
    def test_bfs_advice_on_large_cycle(self):
        n = 16384
        graph = cycle_graph(n)
        advice = honest_tree_advice(graph, 0)
        assert len(advice.parent) == len(advice.dist) == n
        assert advice.parent[0] == 0 and advice.dist[0] == 0
        assert max(advice.dist) == n // 2
        for v, (parent, dist) in enumerate(zip(advice.parent, advice.dist)):
            if v != 0:
                assert graph.has_edge(v, parent)
                assert dist == advice.dist[parent] + 1
