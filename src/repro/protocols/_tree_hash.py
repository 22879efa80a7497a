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

Protocols 1 and 2 and the fixed-map protocol (hence DSym) share more:
the prover commits to a mapping ρ (fixed and public for the fixed-map
protocol), every node hashes its share of ``Σ[v, N(v)]`` into ``a``
and of ``Σ[ρ(v), ρ(N(v))]`` into ``b`` with the Theorem 3.2 family,
and the root compares ``a_r = b_r`` and pins the echoed seed to its
own challenge.  :class:`MappingHashProtocol`,
:func:`check_mapping_hash` and the two aggregate helpers own that
mechanism once; each protocol keeps its round pattern, message layout,
parsing and range checks.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence, Tuple

from ..core.model import (Instance, LocalView, Protocol, ProtocolViolation,
                          bits_for_identifier, bits_for_value)
from ..graphs.graph import Graph
from ..hashing.linear import LinearHashFamily
from ..hashing.rowmatrix import image_bits
from ..network.spanning_tree import TreeAdvice, children_of

#: The echoed seed and the two aggregates, in every mapping-hash layout.
FIELD_SEED = "seed"
FIELD_A = "a"
FIELD_B = "b"


def check_aggregate(view: LocalView, value_round: int, field: str,
                    own_term: int, children: Sequence[int], p: int) -> bool:
    """Node-local aggregation check for one field (Protocol 1/2, line 3).

    ``own_term`` is this node's contribution (already reduced mod p),
    ``children`` its ``C(v)`` from
    :func:`~repro.network.spanning_tree.children_of` — found once per
    node for every field it checks — and the aggregate values live in
    round ``value_round`` messages.
    """
    own_value = view.own_message(value_round)[field]
    if not isinstance(own_value, int) or not 0 <= own_value < p:
        return False
    total = own_term % p
    values = view.messages[value_round]
    for u in children:
        child_value = values[u][field]
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
    order = sorted(graph.vertices, key=advice.dist.__getitem__,
                   reverse=True)
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


class MappingHashProtocol(Protocol):
    """The commit-hash-aggregate protocols on ``n`` vertices: the
    Theorem 3.2 family whose dimension covers the n×n matrix, the
    instance-size check, Arthur's one seed per node, and the field
    widths every ``merlin_bits`` charges: ``id_bits`` for an
    identifier or distance, ``value_bits`` for an aggregate in [p)
    and ``seed_bits`` for the echoed seed, computed once."""

    def __init__(self, n: int, family: LinearHashFamily) -> None:
        self.n = n
        self.family = family
        if family.m < n * n:
            raise ValueError("hash dimension must cover the n×n matrix")
        self.id_bits = bits_for_identifier(n)
        self.value_bits = bits_for_value(family.p)
        self.seed_bits = family.seed_bits

    def validate_instance(self, instance: Instance) -> None:
        super().validate_instance(instance)
        if instance.n != self.n:
            raise ValueError(
                f"protocol built for n={self.n}, instance has n={instance.n}")

    def arthur_value(self, instance: Instance, round_idx: int, v: int,
                     rng: random.Random) -> int:
        return self.family.sample_seed(rng)

    def arthur_bits(self, instance: Instance, round_idx: int) -> int:
        return self.seed_bits


def check_mapping_hash(view: LocalView, family: LinearHashFamily,
                       seed: int, own_row: int, image_node: int,
                       image_row: int, tree_round: int, value_round: int,
                       root: int, arthur_round: int) -> bool:
    """The verifier core (lines 3–4 of Protocol 1) on parsed inputs.

    Node v hashes its adjacency row ``own_row`` at row v and its image
    row at row ``image_node`` under the echoed ``seed``, checks both
    aggregates against its children's, and the root also requires
    ``a_r = b_r`` and that the echo is the challenge it sent in
    ``arthur_round`` (so the prover could not pick the seed).
    """
    p = family.p
    a_term = family.hash_row_matrix(seed, view.n, view.node, own_row)
    b_term = family.hash_row_matrix(seed, view.n, image_node, image_row)
    children = children_of(view, tree_round, root)
    if not check_aggregate(view, value_round, FIELD_A, a_term, children, p):
        return False
    if not check_aggregate(view, value_round, FIELD_B, b_term, children, p):
        return False
    if view.node == root:
        values = view.own_message(value_round)
        if values[FIELD_A] != values[FIELD_B]:
            return False
        if seed != view.own_randomness(arthur_round):
            return False
    return True


def adjacency_terms(family: LinearHashFamily, seed: int,
                    graph: Graph) -> List[int]:
    """Every node's ``a`` term ``h_seed([v, N(v)])``, in vertex order:
    its share of the adjacency matrix ``Σ_v [v, N(v)]``."""
    n = graph.n
    hash_row = family.hash_row_matrix
    return [hash_row(seed, n, v, graph.closed_row(v)) for v in range(n)]


def image_terms(family: LinearHashFamily, seed: int, graph: Graph,
                rho: Sequence[int]) -> List[int]:
    """Every node's ``b`` term ``h_seed([ρ(v), ρ(N(v))])``, in vertex
    order: its share of the ρ-permuted matrix (ρ any mapping)."""
    n = graph.n
    hash_row = family.hash_row_matrix
    return [hash_row(seed, n, rho[v], image_bits(graph.closed_row(v), rho, n))
            for v in range(n)]


def adjacency_aggregates(family: LinearHashFamily, seed: int, graph: Graph,
                         advice: TreeAdvice) -> Dict[int, int]:
    """The truthful ``a`` side: subtree sums of the ``a`` terms."""
    return honest_aggregates(
        graph, advice, adjacency_terms(family, seed, graph).__getitem__,
        family.p)


def image_aggregates(family: LinearHashFamily, seed: int, graph: Graph,
                     advice: TreeAdvice,
                     rho: Sequence[int]) -> Dict[int, int]:
    """The truthful ``b`` side: subtree sums of the ``b`` terms."""
    return honest_aggregates(
        graph, advice, image_terms(family, seed, graph, rho).__getitem__,
        family.p)


def moved_root(rho: Sequence[int]) -> int:
    """The smallest vertex ρ moves: the root every Sym prover's
    spanning tree hangs from, so the root check ``ρ(r) ≠ r`` holds.
    ``ValueError`` if ρ moves none."""
    for v, image in enumerate(rho):
        if image != v:
            return v
    raise ValueError("the mapping moves no vertex")


def honest_rho(context) -> Tuple[int, ...]:
    """The honest Sym provers' ρ: the non-trivial automorphism of the
    context's graph.  Raises ``ProtocolViolation`` on an asymmetric
    graph, where no honest commitment exists."""
    rho = context.nontrivial_automorphism()
    if rho is None:
        raise ProtocolViolation(
            "honest prover run on an asymmetric graph — "
            "completeness only applies to YES instances")
    return rho
