"""Immutable undirected graphs on vertex set ``{0, ..., n-1}``.

This is the foundational graph type for the whole library.  It is
deliberately small and dependency-free: protocols, provers and the
lower-bound machinery all need a *hashable*, *canonical-ready* graph
value they can put in sets and dictionaries, which rules out mutable
adjacency structures.

Design notes
------------
* Vertices are always ``0..n-1``.  Named or sparse vertex sets are
  handled one level up (``repro.network.topology`` maps simulator node
  identifiers onto these indices).
* Edges are stored once, as per-vertex adjacency bitmasks: the O(1)
  adjacency queries the verifiers' decision functions make in hot
  loops read them directly, and :attr:`Graph.edges` derives the set of
  sorted pairs from them on demand.
* Following Section 3.1.1 of the paper, protocols work with *closed*
  neighborhoods ("with self-loops for all vertices"): ``N(v)`` includes
  ``v`` itself.  :meth:`Graph.closed_neighborhood` and
  :meth:`Graph.closed_row` expose that convention; the plain
  :meth:`Graph.neighbors` never includes ``v``.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]


def bits_of_mask(mask: int) -> Tuple[int, ...]:
    """Set bit positions of ``mask``, ascending.

    The sparse decode of an adjacency bitmask: O(popcount) instead of
    an O(n) scan, which is what keeps neighborhood iteration usable at
    n in the tens of thousands.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Graph:
    """An immutable, hashable, simple undirected graph on ``{0..n-1}``.

    Parameters
    ----------
    n:
        Number of vertices.  Must be non-negative.
    edges:
        Iterable of ``(u, v)`` pairs with ``0 <= u, v < n`` and
        ``u != v``.  Duplicates (in either orientation) are collapsed.

    Raises
    ------
    ValueError
        If an endpoint is out of range or an edge is a self-loop.
    """

    __slots__ = ("_n", "_adj_masks", "_num_edges", "_hash")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        masks = [0] * n
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed; closed "
                                 "neighborhoods add implicit self-loops")
            bit = 1 << v
            if not masks[u] & bit:
                masks[u] |= bit
                masks[v] |= 1 << u
                count += 1
        self._n = n
        self._adj_masks: Tuple[int, ...] = tuple(masks)
        # Counted here, not per call: the isomorphism search compares
        # edge counts on every call.
        self._num_edges = count
        self._hash: Optional[int] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return self._num_edges

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The edge set, each edge as a sorted pair — derived from the
        adjacency masks on every access, not stored."""
        return frozenset(self._sorted_edges())

    @property
    def vertices(self) -> range:
        """The vertex set as a range object."""
        return range(self._n)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge.  ``has_edge(v, v)`` is False."""
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._adj_masks[u] >> v & 1)

    def degree(self, v: int) -> int:
        """Number of neighbors of ``v`` (self excluded)."""
        self._check_vertex(v)
        return bin(self._adj_masks[v]).count("1")

    def degree_sequence(self) -> Tuple[int, ...]:
        """Sorted (ascending) degree sequence — an isomorphism invariant."""
        return tuple(sorted(self.degree(v) for v in self.vertices))

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Open neighborhood of ``v`` (sorted, excludes ``v``)."""
        self._check_vertex(v)
        return bits_of_mask(self._adj_masks[v])

    def closed_neighborhood(self, v: int) -> Tuple[int, ...]:
        """Closed neighborhood ``N(v)`` in the paper's convention.

        Includes ``v`` itself (Section 3.1.1: "with self-loops for all
        vertices").
        """
        self._check_vertex(v)
        return bits_of_mask(self._adj_masks[v] | (1 << v))

    def row_mask(self, v: int) -> int:
        """Open neighborhood of ``v`` as an integer bitmask."""
        self._check_vertex(v)
        return self._adj_masks[v]

    def closed_row(self, v: int) -> int:
        """Closed-neighborhood row of ``v`` as a bitmask (bit u = adjacency).

        This is the row ``N(v) ∈ {0,1}^V`` of the self-looped adjacency
        matrix that Protocols 1 and 2 hash.
        """
        self._check_vertex(v)
        return self._adj_masks[v] | (1 << v)

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------

    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph counts as connected)."""
        if self._n <= 1:
            return True
        seen = 1  # bitmask of visited vertices, start from vertex 0
        frontier = [0]
        while frontier:
            v = frontier.pop()
            mask = self._adj_masks[v] & ~seen
            while mask:
                low = mask & -mask
                u = low.bit_length() - 1
                seen |= low
                mask ^= low
                frontier.append(u)
        return seen == (1 << self._n) - 1

    def connected_components(self) -> List[Tuple[int, ...]]:
        """Connected components, each as a sorted vertex tuple."""
        unvisited = set(self.vertices)
        components = []
        while unvisited:
            start = min(unvisited)
            stack = [start]
            comp = {start}
            while stack:
                v = stack.pop()
                for u in self.neighbors(v):
                    if u not in comp:
                        comp.add(u)
                        stack.append(u)
            unvisited -= comp
            components.append(tuple(sorted(comp)))
        return components

    def bfs_tree(self, root: int) -> Dict[int, int]:
        """BFS parent map from ``root``: ``{child: parent}``, root absent.

        Only vertices reachable from ``root`` appear as keys.
        """
        self._check_vertex(root)
        parent: Dict[int, int] = {}
        seen = {root}
        queue = [root]
        while queue:
            next_queue = []
            for v in queue:
                for u in self.neighbors(v):
                    if u not in seen:
                        seen.add(u)
                        parent[u] = v
                        next_queue.append(u)
            queue = next_queue
        return parent

    def distances_from(self, root: int) -> Dict[int, int]:
        """BFS distances from ``root`` for reachable vertices."""
        self._check_vertex(root)
        dist = {root: 0}
        queue = [root]
        while queue:
            next_queue = []
            for v in queue:
                for u in self.neighbors(v):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        next_queue.append(u)
            queue = next_queue
        return dist

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------

    def relabel(self, mapping: Sequence[int]) -> "Graph":
        """Apply a vertex permutation: vertex ``v`` becomes ``mapping[v]``.

        ``mapping`` must be a permutation of ``0..n-1``.  The result has
        an edge ``{mapping[u], mapping[v]}`` for every edge ``{u, v}``.
        """
        if sorted(mapping) != list(range(self._n)):
            raise ValueError("mapping is not a permutation of the vertex set")
        return Graph(self._n,
                     ((mapping[u], mapping[v])
                      for u, v in self._sorted_edges()))

    def induced_subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph on ``vertices``, relabeled to ``0..k-1``.

        ``vertices[i]`` becomes vertex ``i`` of the result; order matters.
        """
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("duplicate vertices in induced_subgraph")
        for v in vertices:
            self._check_vertex(v)
        sub_edges = [(index[u], index[v]) for u, v in self._sorted_edges()
                     if u in index and v in index]
        return Graph(len(vertices), sub_edges)

    def complement(self) -> "Graph":
        """The complement graph (no self-loops)."""
        edges = [(u, v) for u, v in itertools.combinations(range(self._n), 2)
                 if not self.has_edge(u, v)]
        return Graph(self._n, edges)

    def with_edges(self, extra: Iterable[Edge]) -> "Graph":
        """A new graph with ``extra`` edges added."""
        return Graph(self._n, itertools.chain(self._sorted_edges(), extra))

    def disjoint_union(self, other: "Graph") -> "Graph":
        """Disjoint union; ``other``'s vertices are shifted by ``self.n``."""
        shifted = ((u + self._n, v + self._n)
                   for u, v in other._sorted_edges())
        return Graph(self._n + other.n,
                     itertools.chain(self._sorted_edges(), shifted))

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def adjacency_bits(self) -> int:
        """The self-looped adjacency matrix packed as an n²-bit integer.

        Bit ``u*n + v`` is the ``(u, v)`` entry of the matrix whose rows
        are the closed neighborhoods.  This is the canonical encoding of
        a graph as an element of ``{0,1}^{n²}``, used as hash input by
        the GNI protocol.
        """
        n = self._n
        bits = 0
        for u in range(n):
            bits |= self.closed_row(u) << (u * n)
        return bits

    def open_adjacency_bits(self) -> int:
        """Adjacency matrix without self-loops, packed as an n²-bit int."""
        n = self._n
        bits = 0
        for u in range(n):
            bits |= self._adj_masks[u] << (u * n)
        return bits

    @classmethod
    def from_adjacency_bits(cls, n: int, bits: int,
                            closed: bool = True) -> "Graph":
        """Inverse of :meth:`adjacency_bits` / :meth:`open_adjacency_bits`.

        Off-diagonal asymmetry is rejected (the encoding must describe an
        undirected graph); with ``closed=True`` the diagonal must be all
        ones, otherwise all zeros.
        """
        edges = []
        for u in range(n):
            row = (bits >> (u * n)) & ((1 << n) - 1)
            diag = row >> u & 1
            if closed and not diag:
                raise ValueError(f"closed encoding missing self-loop at {u}")
            if not closed and diag:
                raise ValueError(f"open encoding has self-loop at {u}")
            upper = row >> (u + 1) << (u + 1)
            edges.extend((u, v) for v in bits_of_mask(upper))
        graph = cls(n, edges)
        if (graph.adjacency_bits() if closed
                else graph.open_adjacency_bits()) != bits:
            raise ValueError("adjacency bits do not describe an undirected graph")
        return graph

    @classmethod
    def from_edge_list(cls, edges: Iterable[Edge], n: Optional[int] = None) -> "Graph":
        """Build a graph from edges, inferring ``n`` as 1 + max endpoint."""
        edge_list = list(edges)
        if n is None:
            n = 1 + max((max(e) for e in edge_list), default=-1)
        return cls(n, edge_list)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj_masks == other._adj_masks

    def __hash__(self) -> int:
        # The edge-set hash, not one of the masks: sets of graphs
        # iterate in hash order, and callers rely on that order.
        if self._hash is None:
            self._hash = hash((self._n, self.edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, edges={list(self._sorted_edges())})"

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n

    def _sorted_edges(self) -> Iterator[Edge]:
        """Every edge ``(u, v)`` with ``u < v``, in lexicographic order."""
        for u, mask in enumerate(self._adj_masks):
            for v in bits_of_mask(mask >> (u + 1)):
                yield u, u + 1 + v

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._n):
            raise ValueError(f"vertex {v} out of range for n={self._n}")
