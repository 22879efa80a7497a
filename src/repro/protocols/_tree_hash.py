"""Shared machinery for "hash it up the spanning tree" protocols.

Protocols 1 and 2, DSym and GNI all follow the same skeleton: the
prover supplies a rooted spanning tree and, for one or more linear
quantities, per-node *subtree aggregates* which each node checks
against its own contribution plus its children's claimed aggregates:

    x_v  =  own_term(v)  +  Σ_{u ∈ C(v)} x_u      (mod p).

By induction up the tree (Lemma 3.3) the root's accepted value is
forced to be the true total ``Σ_v own_term(v)`` — the prover has no
freedom anywhere, which is what reduces soundness to a hash-collision
event at the root.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..core.model import LocalView, ProtocolViolation
from ..graphs.graph import Graph
from ..network.spanning_tree import TreeAdvice, children_of


def check_aggregate(view: LocalView, tree_round: int, value_round: int,
                    root: int, field: str, own_term: int, p: int) -> bool:
    """Node-local aggregation check for one field (Protocol 1/2, line 3).

    ``own_term`` is this node's contribution (already reduced mod p);
    the parent pointers live in round ``tree_round`` messages and the
    aggregate values in round ``value_round`` messages.
    """
    own_value = view.own_message(value_round)[field]
    if not isinstance(own_value, int) or not 0 <= own_value < p:
        return False
    total = own_term % p
    for u in children_of(view, tree_round, root):
        child_value = view.message_of(value_round, u)[field]
        if not isinstance(child_value, int) or not 0 <= child_value < p:
            return False
        total = (total + child_value) % p
    return own_value == total


def honest_aggregates(graph: Graph, advice: TreeAdvice,
                      own_term: Callable[[int], int],
                      p: int) -> Dict[int, int]:
    """The honest prover's subtree sums: ``x_v = Σ_{u ∈ T_v} own_term(u)``.

    Computed bottom-up in one pass over the (honest, hence acyclic)
    parent map.
    """
    values = {v: own_term(v) % p for v in graph.vertices}
    # Process deepest-first so children are final before their parent.
    order = sorted(graph.vertices, key=lambda v: advice.dist[v], reverse=True)
    for v in order:
        parent = advice.parent[v]
        if parent != v:
            values[parent] = (values[parent] + values[v]) % p
    return values


def rho_image_row(view: LocalView, rho_round: int, rho_field: str) -> int:
    """``ρ(N(v))`` as a bitmask, computed from the neighborhood's ρ values.

    Node v sees ``ρ_u`` for every ``u`` in its *closed* neighborhood
    (which includes v), so it can form the characteristic vector of the
    image set ``{ρ_u : u ∈ N(v)}`` — the row of the ρ-permuted matrix
    it is responsible for (see DESIGN.md on the paper's ``N_ρ(v)``).
    """
    bits = 0
    for u in view.closed_neighborhood:
        rho_u = view.message_of(rho_round, u)[rho_field]
        if not isinstance(rho_u, int) or not 0 <= rho_u < view.n:
            raise ProtocolViolation(f"ρ value {rho_u!r} out of range")
        bits |= 1 << rho_u
    return bits


def closed_row_bits(view: LocalView) -> int:
    """The node's own row ``N(v)`` of the self-looped adjacency matrix."""
    bits = 0
    for u in view.closed_neighborhood:
        bits |= 1 << u
    return bits
