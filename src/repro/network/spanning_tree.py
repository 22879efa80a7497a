"""The spanning-tree proof labeling scheme (Korman–Kutten–Peleg [23]).

Protocols 1 and 2, the DSym protocol and the GNI protocol all make the
prover supply a rooted spanning tree — per node: the root ``r``
(broadcast), a parent pointer ``t_v`` and a distance ``d_v`` — and the
nodes verify it locally (advice length Θ(log n)):

* the root: ``d_r = 0`` and ``t_r = r``;
* everyone else: ``t_v ∈ N(v)``, ``1 ≤ d_v < n`` and
  ``d_{t_v} = d_v − 1``.

If every node passes and the (connected) network agrees on ``r`` via
the broadcast check, the parent pointers form a spanning tree rooted at
``r``: distances strictly decrease along parent pointers, so chains
terminate, and only the root may claim distance 0.

Hardening note: the paper's box defines ``C(v) = {u ∈ N(v) | t_u = v}``
and does not constrain the root's own parent pointer.  A prover that
points the root *into* the tree (``t_r ∈ N(r)``) creates a cycle
through the root that turns the hash-aggregation constraints of
Protocols 1/2 into a degenerate linear system, adding an extra ~``m/p``
soundness slack.  We close the hole at zero cost by requiring
``t_r = r`` and excluding the root from every child set — exactly what
the honest prover produces anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.model import LocalView
from ..graphs.graph import Graph

#: Canonical field names protocols use for the tree advice.
FIELD_ROOT = "root"
FIELD_PARENT = "parent"
FIELD_DIST = "dist"


@dataclass(frozen=True)
class TreeAdvice:
    """One rooted spanning tree as two flat per-vertex sequences:
    ``parent[v]`` (the root is its own parent) and ``dist[v]``, the
    root distance."""

    parent: Tuple[int, ...]
    dist: Tuple[int, ...]


def honest_tree_advice(graph: Graph, root: int) -> TreeAdvice:
    """BFS spanning tree advice rooted at ``root`` (graph must be connected).

    The root's parent is itself, distance 0.  A single level-order BFS
    yields both parents and distances (same traversal order as
    ``Graph.bfs_tree`` / ``Graph.distances_from``, so the advice is
    identical to combining those).
    """
    parent = [-1] * graph.n
    dist = [0] * graph.n
    seen = 1 << root
    queue = [root]
    level = 0
    while queue:
        level += 1
        next_queue = []
        for v in queue:
            # Incremental frontier BFS: mask off already-discovered
            # vertices and decode only the new ones (ascending, the
            # same discovery order the neighbor-scan loop produced).
            mask = graph.row_mask(v) & ~seen
            seen |= mask
            while mask:
                low = mask & -mask
                u = low.bit_length() - 1
                mask ^= low
                parent[u] = v
                dist[u] = level
                next_queue.append(u)
        queue = next_queue
    parent[root] = root
    if -1 in parent:
        raise ValueError("graph is not connected; no spanning tree exists")
    return TreeAdvice(parent=tuple(parent), dist=tuple(dist))


def tree_check(view: LocalView, round_idx: int, root: int,
               parent_field: str = FIELD_PARENT,
               dist_field: str = FIELD_DIST) -> bool:
    """Node-local spanning-tree verification (Protocol 1/2, line 1).

    Reads this node's parent/dist from its round-``round_idx`` message
    and the parent's dist from the parent's message (visible because
    the parent must be a neighbor).
    """
    v = view.node
    own = view.own_message(round_idx)
    parent = own[parent_field]
    dist = own[dist_field]
    if not isinstance(dist, int) or not isinstance(parent, int):
        return False
    if v == root:
        return dist == 0 and parent == v
    if not view.has_edge(parent):
        return False  # parent must be an actual graph neighbor
    if not 1 <= dist < view.n:
        return False
    parent_dist = view.message_of(round_idx, parent)[dist_field]
    return parent_dist == dist - 1


def children_of(view: LocalView, round_idx: int, root: int,
                parent_field: str = FIELD_PARENT) -> List[int]:
    """``C(v)``: neighbors that claim this node as their tree parent.

    The root is never anyone's child (see module hardening note).
    Walks the closed neighborhood in place, skipping the node itself,
    so no neighbor tuple is built per call.
    """
    v = view.node
    messages = view.messages[round_idx]
    return [u for u in view.closed_neighborhood
            if u != v and u != root
            and messages[u].get(parent_field) == v]


def subtree_vertices(advice: TreeAdvice, v: int) -> List[int]:
    """All vertices in the subtree rooted at ``v`` (honest advice only).

    Used by honest provers to compute the partial hash values they owe
    each node, and by tests as the ground truth for Lemma 3.3.
    """
    children: Dict[int, List[int]] = {}
    for u, parent in enumerate(advice.parent):
        if parent != u:
            children.setdefault(parent, []).append(u)
    result = []
    stack = [v]
    while stack:
        w = stack.pop()
        result.append(w)
        stack.extend(children.get(w, ()))
    return sorted(result)
