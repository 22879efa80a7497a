"""Tests for the spanning-tree proof labeling scheme."""

import random
from dataclasses import dataclass
from typing import Dict

import pytest

from repro.core import LocalView
from repro.graphs import (Graph, cycle_graph, path_graph,
                          random_connected_graph, star_graph)
from repro.network import (FIELD_DIST, FIELD_PARENT, TreeAdvice, children_of,
                           honest_tree_advice, subtree_vertices, tree_check)

ROUND = 0


def view_for(graph, v, messages):
    """Build a LocalView for node v with round-0 messages for everyone
    (restricted to v's closed neighborhood, as the runner would)."""
    closed = graph.closed_neighborhood(v)
    return LocalView(
        node=v,
        n=graph.n,
        closed_neighborhood=closed,
        node_input=None,
        randomness={},
        messages={ROUND: {u: messages[u] for u in closed}},
    )


def advice_messages(advice):
    return {v: {FIELD_PARENT: parent, FIELD_DIST: dist}
            for v, (parent, dist) in enumerate(zip(advice.parent,
                                                   advice.dist))}


class TestHonestAdvice:
    def test_root_self_parent(self):
        advice = honest_tree_advice(path_graph(4), 0)
        assert advice == TreeAdvice(parent=(0, 0, 1, 2), dist=(0, 1, 2, 3))
        assert advice.parent[0] == 0 and advice.dist[0] == 0

    def test_bfs_distances(self):
        advice = honest_tree_advice(cycle_graph(6), 0)
        assert advice.dist[3] == 3
        assert set(advice.dist) == {0, 1, 2, 3}

    def test_parents_are_edges(self):
        g = star_graph(5)
        advice = honest_tree_advice(g, 2)
        assert len(advice.parent) == len(advice.dist) == g.n
        for v, parent in enumerate(advice.parent):
            if v != 2:
                assert g.has_edge(v, parent)

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            honest_tree_advice(g, 0)


class TestTreeCheck:
    def test_honest_advice_passes_everywhere(self):
        for g, root in ((path_graph(5), 2), (cycle_graph(7), 0),
                        (star_graph(6), 0), (star_graph(6), 3)):
            advice = honest_tree_advice(g, root)
            msgs = advice_messages(advice)
            for v in g.vertices:
                assert tree_check(view_for(g, v, msgs), ROUND, root), (g, v)

    def test_root_nonzero_distance_rejected(self):
        g = path_graph(3)
        advice = honest_tree_advice(g, 0)
        msgs = advice_messages(advice)
        msgs[0] = {FIELD_PARENT: 0, FIELD_DIST: 1}
        assert not tree_check(view_for(g, 0, msgs), ROUND, 0)

    def test_root_pointing_into_tree_rejected(self):
        """The hardening: t_root must equal root (see module docstring
        of repro.network.spanning_tree)."""
        g = path_graph(3)
        advice = honest_tree_advice(g, 0)
        msgs = advice_messages(advice)
        msgs[0] = {FIELD_PARENT: 1, FIELD_DIST: 0}
        assert not tree_check(view_for(g, 0, msgs), ROUND, 0)

    def test_non_neighbor_parent_rejected(self):
        g = path_graph(4)  # 0-1-2-3
        advice = honest_tree_advice(g, 0)
        msgs = advice_messages(advice)
        msgs[3] = {FIELD_PARENT: 0, FIELD_DIST: 1}  # 0 is not 3's neighbor
        assert not tree_check(view_for(g, 3, msgs), ROUND, 0)

    def test_wrong_distance_rejected(self):
        g = path_graph(4)
        advice = honest_tree_advice(g, 0)
        msgs = advice_messages(advice)
        msgs[2] = {FIELD_PARENT: 1, FIELD_DIST: 3}  # should be 2
        assert not tree_check(view_for(g, 2, msgs), ROUND, 0)

    def test_zero_distance_nonroot_rejected(self):
        g = path_graph(3)
        advice = honest_tree_advice(g, 0)
        msgs = advice_messages(advice)
        msgs[2] = {FIELD_PARENT: 1, FIELD_DIST: 0}
        assert not tree_check(view_for(g, 2, msgs), ROUND, 0)

    def test_distance_at_least_n_rejected(self):
        g = path_graph(3)
        msgs = {0: {FIELD_PARENT: 0, FIELD_DIST: 0},
                1: {FIELD_PARENT: 0, FIELD_DIST: 3},
                2: {FIELD_PARENT: 1, FIELD_DIST: 4}}
        assert not tree_check(view_for(g, 1, msgs), ROUND, 0)

    def test_non_integer_fields_rejected(self):
        g = path_graph(2)
        msgs = {0: {FIELD_PARENT: 0, FIELD_DIST: 0},
                1: {FIELD_PARENT: "0", FIELD_DIST: 1}}
        assert not tree_check(view_for(g, 1, msgs), ROUND, 0)

    def test_cycle_claim_rejected_somewhere(self):
        """A 'tree' with a parent cycle must fail at some node: the
        distance-decrease rule is what makes cycles impossible."""
        g = cycle_graph(4)
        msgs = {0: {FIELD_PARENT: 0, FIELD_DIST: 0},
                1: {FIELD_PARENT: 2, FIELD_DIST: 2},
                2: {FIELD_PARENT: 3, FIELD_DIST: 2},
                3: {FIELD_PARENT: 2, FIELD_DIST: 3}}
        results = [tree_check(view_for(g, v, msgs), ROUND, 0)
                   for v in range(4)]
        assert not all(results)


class TestChildren:
    def test_children_of_root(self):
        g = star_graph(5)
        advice = honest_tree_advice(g, 0)
        msgs = advice_messages(advice)
        assert children_of(view_for(g, 0, msgs), ROUND, 0) == [1, 2, 3, 4]

    def test_leaf_has_no_children(self):
        g = path_graph(4)
        advice = honest_tree_advice(g, 0)
        msgs = advice_messages(advice)
        assert children_of(view_for(g, 3, msgs), ROUND, 0) == []

    def test_root_never_a_child(self):
        """Even if the prover points the root at a neighbor, the child
        sets exclude it (hardening)."""
        g = path_graph(3)
        msgs = {0: {FIELD_PARENT: 1, FIELD_DIST: 0},
                1: {FIELD_PARENT: 0, FIELD_DIST: 1},
                2: {FIELD_PARENT: 1, FIELD_DIST: 2}}
        assert children_of(view_for(g, 1, msgs), ROUND, root=0) == [2]


class TestSubtreeVertices:
    def test_path_subtrees(self):
        advice = honest_tree_advice(path_graph(4), 0)
        assert subtree_vertices(advice, 0) == [0, 1, 2, 3]
        assert subtree_vertices(advice, 2) == [2, 3]
        assert subtree_vertices(advice, 3) == [3]

    def test_star_subtrees(self):
        advice = honest_tree_advice(star_graph(4), 0)
        assert subtree_vertices(advice, 0) == [0, 1, 2, 3]
        for leaf in (1, 2, 3):
            assert subtree_vertices(advice, leaf) == [leaf]

    def test_subtrees_partition_under_root_children(self):
        g = cycle_graph(8)
        advice = honest_tree_advice(g, 0)
        children = [v for v, parent in enumerate(advice.parent)
                    if parent == 0 and v != 0]
        union = sorted(v for c in children for v in subtree_vertices(advice, c))
        assert union == [v for v in range(1, 8)]


@dataclass(frozen=True)
class DictTreeAdvice:
    """Per-node spanning tree advice: parent pointer and root distance."""

    parent: int
    dist: int


def dict_tree_advice(graph: Graph, root: int) -> Dict[int, DictTreeAdvice]:
    """The per-node dict builder ``honest_tree_advice`` started as
    (oracle): one advice object per vertex, from the same level-order
    BFS."""
    advice = {root: DictTreeAdvice(parent=root, dist=0)}
    seen = 1 << root
    queue = [root]
    dist = 0
    while queue:
        dist += 1
        next_queue = []
        for v in queue:
            mask = graph.row_mask(v) & ~seen
            seen |= mask
            while mask:
                low = mask & -mask
                u = low.bit_length() - 1
                mask ^= low
                advice[u] = DictTreeAdvice(parent=v, dist=dist)
                next_queue.append(u)
        queue = next_queue
    if len(advice) != graph.n:
        raise ValueError("graph is not connected; no spanning tree exists")
    return advice


def per_vertex(oracle, n):
    """The dict oracle's ``[(parent, dist)]`` in vertex order."""
    return [(oracle[v].parent, oracle[v].dist) for v in range(n)]


_ORACLE_GRAPHS = [
    path_graph(1), path_graph(2), path_graph(9), cycle_graph(3),
    cycle_graph(12), star_graph(1), star_graph(7),
    *(random_connected_graph(n, prob, random.Random(seed))
      for n, prob, seed in ((6, 0.3, 1), (15, 0.2, 2), (30, 0.1, 3),
                            (40, 0.3, 4), (64, 0.05, 5)))]


class TestAgainstDictBuilder:
    @pytest.mark.parametrize("graph", _ORACLE_GRAPHS,
                             ids=lambda g: f"n{g.n}e{g.num_edges}")
    def test_parent_and_dist_per_vertex(self, graph):
        for root in sorted({0, 1 % graph.n, graph.n // 2, graph.n - 1}):
            advice = honest_tree_advice(graph, root)
            assert list(zip(advice.parent, advice.dist)) \
                == per_vertex(dict_tree_advice(graph, root), graph.n)

    def test_disconnected_rejected_like_the_oracle(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        for root in range(5):
            with pytest.raises(ValueError, match="not connected"):
                dict_tree_advice(g, root)
            with pytest.raises(ValueError, match="not connected"):
                honest_tree_advice(g, root)
