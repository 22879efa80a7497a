"""Unit and property tests for the immutable Graph type."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, cycle_graph, path_graph, complete_graph


def small_graphs(max_n: int = 8):
    """Hypothesis strategy: a random simple graph on up to max_n vertices."""
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = list(itertools.combinations(range(n), 2))
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        return Graph(n, edges)
    return build()


class TestConstruction:
    def test_empty(self):
        g = Graph(0)
        assert g.n == 0 and g.num_edges == 0

    def test_basic_edges(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.has_edge(1, 2) and not g.has_edge(0, 2)

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(3, [(-1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_from_edge_list_infers_n(self):
        g = Graph.from_edge_list([(0, 4), (2, 3)])
        assert g.n == 5

    def test_no_edge_to_self(self):
        g = Graph(2, [(0, 1)])
        assert not g.has_edge(0, 0)


class TestAccessors:
    def test_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1

    def test_degree_sequence_sorted(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree_sequence() == (1, 1, 1, 3)

    def test_neighbors_sorted_excludes_self(self):
        g = Graph(4, [(2, 0), (2, 3), (2, 1)])
        assert g.neighbors(2) == (0, 1, 3)

    def test_closed_neighborhood_includes_self(self):
        g = Graph(4, [(2, 0)])
        assert g.closed_neighborhood(2) == (0, 2)
        assert g.closed_neighborhood(1) == (1,)

    def test_closed_row_has_self_bit(self):
        g = Graph(4, [(2, 0)])
        assert g.closed_row(2) == (1 << 0) | (1 << 2)
        assert g.row_mask(2) == 1 << 0

    def test_vertex_range_check(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.neighbors(2)
        with pytest.raises(ValueError):
            g.has_edge(0, 5)


class TestStructure:
    def test_connected_path(self):
        assert path_graph(6).is_connected()

    def test_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert not g.is_connected()
        assert g.connected_components() == [(0, 1), (2, 3)]

    def test_single_vertex_connected(self):
        assert Graph(1).is_connected()

    def test_empty_graph_components(self):
        g = Graph(3)
        assert g.connected_components() == [(0,), (1,), (2,)]

    def test_bfs_tree_covers_component(self):
        g = cycle_graph(5)
        parents = g.bfs_tree(0)
        assert set(parents) == {1, 2, 3, 4}
        # Every parent chain reaches the root.
        for v in parents:
            seen = set()
            while v != 0:
                assert v not in seen
                seen.add(v)
                v = parents[v]

    def test_distances(self):
        g = path_graph(5)
        assert g.distances_from(0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_bfs_distances_agree(self):
        g = cycle_graph(9)
        parents = g.bfs_tree(3)
        dists = g.distances_from(3)
        for v, parent in parents.items():
            assert dists[v] == dists[parent] + 1


class TestTransforms:
    def test_relabel_identity(self):
        g = cycle_graph(5)
        assert g.relabel(list(range(5))) == g

    def test_relabel_rotation_of_cycle(self):
        g = cycle_graph(5)
        rotated = g.relabel([1, 2, 3, 4, 0])
        assert rotated == g  # a cycle is invariant under rotation

    def test_relabel_requires_permutation(self):
        with pytest.raises(ValueError):
            cycle_graph(4).relabel([0, 0, 1, 2])

    def test_induced_subgraph(self):
        g = path_graph(5)
        sub = g.induced_subgraph([1, 2, 3])
        assert sub == path_graph(3)

    def test_induced_subgraph_order_matters(self):
        g = path_graph(3)  # 0-1-2
        sub = g.induced_subgraph([2, 1, 0])
        assert sub.has_edge(0, 1) and sub.has_edge(1, 2)

    def test_induced_rejects_duplicates(self):
        with pytest.raises(ValueError):
            path_graph(3).induced_subgraph([0, 0])

    def test_complement_of_complete_is_empty(self):
        assert complete_graph(5).complement().num_edges == 0

    def test_complement_involution(self):
        g = path_graph(6)
        assert g.complement().complement() == g

    def test_with_edges(self):
        g = path_graph(3).with_edges([(0, 2)])
        assert g == cycle_graph(3)

    def test_disjoint_union(self):
        g = path_graph(2).disjoint_union(path_graph(2))
        assert g.n == 4
        assert g.has_edge(0, 1) and g.has_edge(2, 3)
        assert not g.is_connected()


class TestEncoding:
    def test_adjacency_bits_roundtrip(self):
        g = cycle_graph(6)
        assert Graph.from_adjacency_bits(6, g.adjacency_bits()) == g

    def test_open_adjacency_bits_roundtrip(self):
        g = path_graph(5)
        bits = g.open_adjacency_bits()
        assert Graph.from_adjacency_bits(5, bits, closed=False) == g

    def test_closed_encoding_has_diagonal(self):
        g = path_graph(3)
        bits = g.adjacency_bits()
        for v in range(3):
            assert bits >> (v * 3 + v) & 1

    def test_from_bits_rejects_missing_diagonal(self):
        with pytest.raises(ValueError):
            Graph.from_adjacency_bits(2, 0b0000, closed=True)

    def test_from_bits_rejects_asymmetric(self):
        # (0,1) set but (1,0) clear, diagonal present.
        bits = 0b01_11  # rows: row0 = 11, row1 = 01 -> asymmetric
        with pytest.raises(ValueError):
            Graph.from_adjacency_bits(2, bits, closed=True)

    def test_distinct_graphs_distinct_encodings(self):
        seen = set()
        for g in (path_graph(4), cycle_graph(4), complete_graph(4)):
            bits = g.adjacency_bits()
            assert bits not in seen
            seen.add(bits)


def _from_adjacency_bits_scan(n, bits, closed=True):
    """The position-scanning ``Graph.from_adjacency_bits``, kept as the
    oracle: it returns the graph, or the ``ValueError`` it raises."""
    edges = []
    for u in range(n):
        row = (bits >> (u * n)) & ((1 << n) - 1)
        diag = row >> u & 1
        if closed and not diag:
            return ValueError(f"closed encoding missing self-loop at {u}")
        if not closed and diag:
            return ValueError(f"open encoding has self-loop at {u}")
        for v in range(u + 1, n):
            if row >> v & 1:
                edges.append((u, v))
    graph = Graph(n, edges)
    if (graph.adjacency_bits() if closed
            else graph.open_adjacency_bits()) != bits:
        return ValueError("adjacency bits do not describe an undirected graph")
    return graph


@st.composite
def _adjacency_cases(draw):
    """Valid closed and open encodings, each of the three rejections,
    and arbitrary integers (bits at or above n², negatives)."""
    g = draw(small_graphs())
    n = g.n
    closed = draw(st.booleans())
    bits = g.adjacency_bits() if closed else g.open_adjacency_bits()
    kind = draw(st.sampled_from(
        ["valid", "diagonal", "asymmetric", "arbitrary"]))
    if kind == "diagonal":
        # Clears a self-loop of a closed encoding, sets one in an open one.
        v = draw(st.integers(min_value=0, max_value=n - 1))
        bits ^= 1 << (v * n + v)
    elif kind == "asymmetric" and n > 1:
        u, v = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                             min_size=2, max_size=2, unique=True))
        bits ^= 1 << (u * n + v)
    elif kind == "arbitrary":
        bound = 1 << (n * n + 3)
        bits = draw(st.integers(min_value=-bound, max_value=bound))
    return n, bits, closed


class TestFromAdjacencyBitsEquivalence:
    @given(_adjacency_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_position_scan(self, case):
        n, bits, closed = case
        expected = _from_adjacency_bits_scan(n, bits, closed)
        if isinstance(expected, ValueError):
            with pytest.raises(ValueError) as info:
                Graph.from_adjacency_bits(n, bits, closed)
            assert str(info.value) == str(expected)
        else:
            assert Graph.from_adjacency_bits(n, bits, closed) == expected


class TestDunder:
    def test_equality_and_hash(self):
        g1 = Graph(3, [(0, 1)])
        g2 = Graph(3, [(1, 0)])
        assert g1 == g2 and hash(g1) == hash(g2)

    def test_inequality_different_n(self):
        assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])

    def test_usable_in_sets(self):
        graphs = {Graph(3, [(0, 1)]), Graph(3, [(0, 1)]), Graph(3)}
        assert len(graphs) == 2

    def test_len_and_iter(self):
        g = Graph(4)
        assert len(g) == 4 and list(g) == [0, 1, 2, 3]

    def test_repr_contains_edges(self):
        assert "(0, 1)" in repr(Graph(2, [(0, 1)]))


class TestProperties:
    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_handshake_lemma(self, g):
        assert sum(g.degree(v) for v in g) == 2 * g.num_edges

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_adjacency_roundtrip(self, g):
        assert Graph.from_adjacency_bits(g.n, g.adjacency_bits()) == g

    @given(small_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_relabel_preserves_structure(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = g.relabel(perm)
        assert h.num_edges == g.num_edges
        assert h.degree_sequence() == g.degree_sequence()
        assert h.is_connected() == g.is_connected()

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_components_partition_vertices(self, g):
        comps = g.connected_components()
        flat = [v for comp in comps for v in comp]
        assert sorted(flat) == list(range(g.n))

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_complement_degree(self, g):
        comp = g.complement()
        for v in g:
            assert g.degree(v) + comp.degree(v) == g.n - 1
