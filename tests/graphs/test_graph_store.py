"""``Graph`` against the frozenset edge store it was first written with.

The graph keeps its adjacency bitmasks as its one edge store and
derives the edge set on demand.  ``FrozensetGraph`` below is the
earlier store — edges kept as a frozenset of sorted pairs next to the
masks — copied as the oracle: every observable the two share (edge
set, edge count, equality, hash value, repr, the derived graphs and
the constructor's errors) must agree on arbitrary edge lists,
duplicates and both orientations included.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph

Edge = Tuple[int, int]


def _normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical (sorted) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class FrozensetGraph:
    """The frozenset-store graph (oracle; only what ``Graph`` shares)."""

    __slots__ = ("_n", "_edges", "_adj_masks", "_hash")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        normalized = set()
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed; closed "
                                 "neighborhoods add implicit self-loops")
            normalized.add(_normalize_edge(u, v))
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._n = n
        self._edges: FrozenSet[Edge] = frozenset(normalized)
        self._adj_masks: Tuple[int, ...] = tuple(masks)
        self._hash: Optional[int] = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> FrozenSet[Edge]:
        return self._edges

    def relabel(self, mapping: Sequence[int]) -> "FrozensetGraph":
        if sorted(mapping) != list(range(self._n)):
            raise ValueError("mapping is not a permutation of the vertex set")
        return FrozensetGraph(self._n,
                              ((mapping[u], mapping[v])
                               for u, v in self._edges))

    def induced_subgraph(self, vertices: Sequence[int]) -> "FrozensetGraph":
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("duplicate vertices in induced_subgraph")
        for v in vertices:
            self._check_vertex(v)
        sub_edges = [(index[u], index[v]) for u, v in self._edges
                     if u in index and v in index]
        return FrozensetGraph(len(vertices), sub_edges)

    def with_edges(self, extra: Iterable[Edge]) -> "FrozensetGraph":
        return FrozensetGraph(self._n, itertools.chain(self._edges, extra))

    def disjoint_union(self, other: "FrozensetGraph") -> "FrozensetGraph":
        shifted = ((u + self._n, v + self._n) for u, v in other.edges)
        return FrozensetGraph(self._n + other.n,
                              itertools.chain(self._edges, shifted))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrozensetGraph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._n, self._edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, edges={sorted(self._edges)})"

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise ValueError(f"vertex {v} out of range for n={self._n}")


@st.composite
def edge_lists(draw, max_n: int = 9):
    """``(n, edges)``: valid pairs in either orientation, repeated."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=3 * n))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=n)
                   if edges else st.just([]))
    return n, edges + [(v, u) for u, v in repeats]


def assert_same(graph: Graph, oracle: FrozensetGraph) -> None:
    assert graph.n == oracle.n
    assert graph.edges == oracle.edges
    assert isinstance(graph.edges, frozenset)
    assert graph.num_edges == oracle.num_edges
    assert hash(graph) == hash(oracle)
    assert repr(graph) == repr(oracle)


def outcome(build):
    """The built value, or the ``ValueError`` message it raised."""
    try:
        return build()
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestAgainstFrozensetStore:
    @given(edge_lists())
    @settings(max_examples=150, deadline=None)
    def test_observables_agree(self, case):
        n, edges = case
        assert_same(Graph(n, edges), FrozensetGraph(n, edges))

    @given(edge_lists(), edge_lists())
    @settings(max_examples=150, deadline=None)
    def test_equality_agrees(self, left, right):
        (n1, e1), (n2, e2) = left, right
        for other_n, other_edges in ((n2, e2), (n1, list(reversed(e1))),
                                     (n1, e1[1:])):
            same = Graph(n1, e1) == Graph(other_n, other_edges)
            assert same == (FrozensetGraph(n1, e1)
                            == FrozensetGraph(other_n, other_edges))
            if same:
                assert hash(Graph(n1, e1)) == hash(Graph(other_n,
                                                         other_edges))

    @given(edge_lists(), st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_derived_graphs_agree(self, case, rnd):
        n, edges = case
        graph, oracle = Graph(n, edges), FrozensetGraph(n, edges)
        perm = list(range(n))
        rnd.shuffle(perm)
        assert_same(graph.relabel(perm), oracle.relabel(perm))
        chosen = rnd.sample(range(n), rnd.randint(0, n))
        assert_same(graph.induced_subgraph(chosen),
                    oracle.induced_subgraph(chosen))
        extra = [(rnd.randrange(n), rnd.randrange(n)) for _ in range(n)]
        extra = [(u, v) for u, v in extra if u != v]
        assert_same(graph.with_edges(extra), oracle.with_edges(extra))
        m = rnd.randint(0, 5)
        other = [(u, v) for u, v in itertools.combinations(range(m), 2)
                 if rnd.random() < 0.5]
        assert_same(graph.disjoint_union(Graph(m, other)),
                    oracle.disjoint_union(FrozensetGraph(m, other)))

    @given(st.integers(-3, 6),
           st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 7)),
                    max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_constructor_errors_agree(self, n, edges):
        built = outcome(lambda: Graph(n, edges))
        expected = outcome(lambda: FrozensetGraph(n, edges))
        if isinstance(expected, tuple):
            assert built == expected
        else:
            assert_same(built, expected)

    @pytest.mark.parametrize("n, edges, message", [
        (-1, [], "vertex count must be non-negative, got -1"),
        (3, [(0, 3)], "edge (0, 3) out of range for n=3"),
        (3, [(1, 1)], "self-loop (1, 1) not allowed"),
    ])
    def test_each_constructor_error(self, n, edges, message):
        with pytest.raises(ValueError, match=message.replace("(", r"\(")
                           .replace(")", r"\)")):
            Graph(n, edges)
        with pytest.raises(ValueError):
            FrozensetGraph(n, edges)

    def test_derived_errors_agree(self):
        graph, oracle = Graph(3, [(0, 1)]), FrozensetGraph(3, [(0, 1)])
        for call in (lambda g: g.relabel([0, 0, 1]),
                     lambda g: g.induced_subgraph([0, 0]),
                     lambda g: g.induced_subgraph([3]),
                     lambda g: g.with_edges([(2, 2)])):
            assert outcome(lambda: call(graph)) == outcome(
                lambda: call(oracle))
