"""Distributed NP baselines: Locally Checkable Proofs (LCPs).

The non-interactive "distributed NP" model the paper generalizes: the
prover hands each node a single advice string (one Merlin round, no
randomness) and nodes verify locally.  These baselines anchor the
separations:

* :class:`SymLCP` — the Θ(n²)-bit scheme for Sym, matching the
  Göös–Suomela lower bound [17] that makes Theorem 1.1's O(log n)
  dMAM protocol an exponential improvement.
* :class:`DSymLCP` — the same scheme restricted to DSym, the baseline
  against which the O(log n) dAM protocol of Theorem 1.2 is measured.
* :class:`ConnectivityLCP` — the O(log n) spanning-tree labeling
  scheme of Korman–Kutten–Peleg [23] (the substrate every interactive
  protocol in this library reuses), shown here in its classical
  standalone role: certifying connectivity with subtree counts.

All three have *perfect* completeness and soundness (they are
deterministic), which is exactly what distributed NP buys at the price
of advice length.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Mapping, Sequence

from ..core.model import (Instance, LocalView, NodeMessage, Protocol,
                          ProtocolViolation, Prover, PATTERN_DNP,
                          bits_for_identifier, field_cost, tuple_field_cost)
from ..graphs.dumbbell import DSymLayout, dsym_automorphism
from ..graphs.graph import Graph
from ..hashing.rowmatrix import image_bits
from ..network.spanning_tree import (FIELD_DIST, FIELD_PARENT, FIELD_ROOT,
                                     honest_tree_advice, tree_check)

FIELD_MATRIX = "matrix"
FIELD_RHO = "rho"
FIELD_SIZE = "size"

ROUND_M0 = 0


def _matrix_row(matrix_bits: int, n: int, v: int) -> int:
    """Row ``v`` of an n×n closed adjacency matrix packed in an int."""
    return (matrix_bits >> (v * n)) & ((1 << n) - 1)


def _is_automorphism_of_bits(matrix_bits: int, n: int,
                             rho: Sequence[int]) -> bool:
    """Whether ``rho`` is an automorphism of the matrix-encoded graph.

    Row by row: ρ maps row u onto row ρ(u), i.e. ρ(N(u)) = N(ρ(u)).
    Since ρ is a bijection this is the entry test M[u][v] = M[ρu][ρv].
    """
    if sorted(rho) != list(range(n)):
        return False
    rows = [_matrix_row(matrix_bits, n, u) for u in range(n)]
    return all(image_bits(rows[u], rho, n) == rows[rho[u]]
               for u in range(n))


class SymLCP(Protocol):
    """The Θ(n²)-bit locally checkable proof for Sym.

    Advice (identical everywhere, enforced by the broadcast check): the
    full closed adjacency matrix plus a non-trivial automorphism table.
    Node v checks that the matrix's row v matches its actual
    neighborhood — over a connected graph this pins the matrix to the
    real one — and that the advice's ρ is a non-trivial automorphism of
    the advice's matrix.  Advice length n² + n·⌈log n⌉ bits.
    """

    name = "sym-lcp"
    pattern = PATTERN_DNP

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("Sym needs at least 2 vertices")
        self.n = n

    def validate_instance(self, instance: Instance) -> None:
        super().validate_instance(instance)
        if instance.n != self.n:
            raise ValueError(
                f"protocol built for n={self.n}, instance has n={instance.n}")

    def broadcast_fields(self, round_idx: int) -> FrozenSet[str]:
        return frozenset({FIELD_MATRIX, FIELD_RHO})

    def merlin_fields(self, round_idx: int) -> FrozenSet[str]:
        return frozenset({FIELD_MATRIX, FIELD_RHO})

    def merlin_bits(self, instance: Instance, round_idx: int,
                    message: NodeMessage) -> int:
        # Matrix (n² bits) + mapping table; malformed fields cost 0.
        return (field_cost(message, FIELD_MATRIX, self.n * self.n)
                + tuple_field_cost(message, FIELD_RHO, self.n,
                                   bits_for_identifier(self.n)))

    def decide(self, view: LocalView) -> bool:
        msg = view.own_message(ROUND_M0)
        matrix_bits = msg[FIELD_MATRIX]
        rho = msg[FIELD_RHO]
        n = view.n
        if not isinstance(matrix_bits, int) or matrix_bits >> (n * n):
            return False
        if not isinstance(rho, tuple) or len(rho) != n:
            return False
        own_row = 0
        for u in view.closed_neighborhood:
            own_row |= 1 << u
        if _matrix_row(matrix_bits, n, view.node) != own_row:
            return False
        if all(rho[v] == v for v in range(n)):
            return False
        return _is_automorphism_of_bits(matrix_bits, n, rho)

    def honest_prover(self) -> Prover:
        return _SymLCPProver(self)


class _SymLCPProver(Prover):
    def __init__(self, protocol: SymLCP) -> None:
        self.protocol = protocol

    def respond(self, instance: Instance, round_idx: int,
                randomness: Mapping[int, Mapping[int, int]],
                own_messages: Mapping[int, Mapping[int, NodeMessage]],
                rng: random.Random) -> Dict[int, NodeMessage]:
        graph = instance.graph
        # The context's witness: one search per instance, not per trial.
        rho = self.acquire_context(instance).nontrivial_automorphism()
        if rho is None:
            raise ProtocolViolation(
                "honest prover run on an asymmetric graph")
        advice = {FIELD_MATRIX: graph.adjacency_bits(), FIELD_RHO: rho}
        return {v: dict(advice) for v in graph.vertices}


class DSymLCP(Protocol):
    """The n²-bit LCP for DSym: broadcast the matrix, check rows locally
    plus Definition 5's conditions against the *fixed* σ.

    [17] shows Ω(n²) advice is necessary for DSym in this model — our
    scheme is the matching (trivial) upper bound, the non-interactive
    side of the Theorem-1.2 separation.
    """

    name = "dsym-lcp"
    pattern = PATTERN_DNP

    def __init__(self, layout: DSymLayout) -> None:
        self.layout = layout
        self.sigma = dsym_automorphism(layout)

    @property
    def total_n(self) -> int:
        return self.layout.total_n

    def validate_instance(self, instance: Instance) -> None:
        super().validate_instance(instance)
        if instance.n != self.total_n:
            raise ValueError("instance size does not match the layout")

    def broadcast_fields(self, round_idx: int) -> FrozenSet[str]:
        return frozenset({FIELD_MATRIX})

    def merlin_fields(self, round_idx: int) -> FrozenSet[str]:
        return frozenset({FIELD_MATRIX})

    def merlin_bits(self, instance: Instance, round_idx: int,
                    message: NodeMessage) -> int:
        return field_cost(message, FIELD_MATRIX,
                          self.total_n * self.total_n)

    def decide(self, view: LocalView) -> bool:
        msg = view.own_message(ROUND_M0)
        matrix_bits = msg[FIELD_MATRIX]
        n = view.n
        if not isinstance(matrix_bits, int) or matrix_bits >> (n * n):
            return False
        own_row = 0
        for u in view.closed_neighborhood:
            own_row |= 1 << u
        if _matrix_row(matrix_bits, n, view.node) != own_row:
            return False
        # The advice matrix is globally agreed and locally pinned; each
        # node checks the whole Definition-5 predicate on its copy.
        try:
            graph = Graph.from_adjacency_bits(n, matrix_bits, closed=True)
        except ValueError:
            return False
        from ..graphs.dumbbell import in_dsym
        return in_dsym(graph, self.layout.n)

    def honest_prover(self) -> Prover:
        return _DSymLCPProver(self)


class _DSymLCPProver(Prover):
    def __init__(self, protocol: DSymLCP) -> None:
        self.protocol = protocol

    def respond(self, instance: Instance, round_idx: int,
                randomness: Mapping[int, Mapping[int, int]],
                own_messages: Mapping[int, Mapping[int, NodeMessage]],
                rng: random.Random) -> Dict[int, NodeMessage]:
        advice = {FIELD_MATRIX: instance.graph.adjacency_bits()}
        return {v: dict(advice) for v in instance.graph.vertices}


class ConnectivityLCP(Protocol):
    """The classical O(log n) spanning-tree labeling scheme ([23]).

    Advice per node: root (broadcast), parent, distance, and subtree
    size.  Sizes are forced bottom-up exactly like the hash aggregates
    of the interactive protocols, and the root requires its size to be
    ``n`` (the vertex set is public) — so a disconnected graph cannot
    be certified even though the broadcast check only propagates
    within components.  Unlike the other protocols in this package,
    this one therefore tolerates disconnected inputs (they are
    NO instances rather than model violations).
    """

    name = "connectivity-lcp"
    pattern = PATTERN_DNP

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("need at least one vertex")
        self.n = n

    @property
    def requires_connected(self) -> bool:
        return False

    def validate_instance(self, instance: Instance) -> None:
        if instance.n != self.n:
            raise ValueError(
                f"protocol built for n={self.n}, instance has n={instance.n}")

    def broadcast_fields(self, round_idx: int) -> FrozenSet[str]:
        return frozenset({FIELD_ROOT})

    def merlin_fields(self, round_idx: int) -> FrozenSet[str]:
        return frozenset({FIELD_ROOT, FIELD_PARENT, FIELD_DIST, FIELD_SIZE})

    def merlin_bits(self, instance: Instance, round_idx: int,
                    message: NodeMessage) -> int:
        id_bits = bits_for_identifier(self.n)
        return (field_cost(message, FIELD_ROOT, id_bits)
                + field_cost(message, FIELD_PARENT, id_bits)
                + field_cost(message, FIELD_DIST, id_bits)
                + field_cost(message, FIELD_SIZE,
                             bits_for_identifier(self.n + 1)))

    def decide(self, view: LocalView) -> bool:
        msg = view.own_message(ROUND_M0)
        root = msg[FIELD_ROOT]
        if not isinstance(root, int) or not 0 <= root < view.n:
            return False
        if not tree_check(view, ROUND_M0, root):
            return False
        size = msg[FIELD_SIZE]
        if not isinstance(size, int):
            return False
        total = 1
        for u in view.neighbors:
            if u == root:
                continue
            u_msg = view.message_of(ROUND_M0, u)
            if u_msg.get(FIELD_PARENT) == view.node:
                child_size = u_msg.get(FIELD_SIZE)
                if not isinstance(child_size, int):
                    return False
                total += child_size
        if size != total:
            return False
        if view.node == root and size != view.n:
            return False
        return True

    def honest_prover(self) -> Prover:
        return _ConnectivityLCPProver(self)


class _ConnectivityLCPProver(Prover):
    def __init__(self, protocol: ConnectivityLCP) -> None:
        self.protocol = protocol

    def respond(self, instance: Instance, round_idx: int,
                randomness: Mapping[int, Mapping[int, int]],
                own_messages: Mapping[int, Mapping[int, NodeMessage]],
                rng: random.Random) -> Dict[int, NodeMessage]:
        graph = instance.graph
        if not graph.is_connected():
            raise ProtocolViolation(
                "honest prover run on a disconnected graph (NO instance)")
        root = 0
        advice = honest_tree_advice(graph, root)
        sizes = {v: 1 for v in graph.vertices}
        order = sorted(graph.vertices, key=lambda v: advice.dist[v],
                       reverse=True)
        for v in order:
            parent = advice.parent[v]
            if parent != v:
                sizes[parent] += sizes[v]
        return {
            v: {FIELD_ROOT: root,
                FIELD_PARENT: advice.parent[v],
                FIELD_DIST: advice.dist[v],
                FIELD_SIZE: sizes[v]}
            for v in graph.vertices
        }


# -- cost declarations ----------------------------------------------------

from ..ledger.declare import CostDeclaration, phase  # noqa: E402

#: The distributed-NP baselines: one Merlin round, no interaction.
#: Sym and DSym certificates ship an adjacency matrix — the Θ(n²)
#: floor interaction beats — while connectivity's KKP-style labels
#: stay logarithmic.
COST_DECLARATIONS = (
    CostDeclaration(
        key="sym-lcp", title="Sym LCP — the Θ(n²) distributed-NP floor",
        pattern="M", asymptotic="Θ(n²)",
        reference="Section 1.1 (Göös–Suomela LCP lower bound)",
        phases=(
            phase("M0", "merlin", "n * n + n * log2(n)",
                  "full adjacency matrix + rho table as advice"),
        ),
        total=phase("total", "merlin", "c * n^2",
                    "Θ(n²) advice per node"),
    ),
    CostDeclaration(
        key="dsym-lcp", title="DSym LCP — Θ(n²) advice",
        pattern="M", asymptotic="Θ(n²)",
        reference="Theorem 1.2 discussion (DSym LCP lower bound)",
        phases=(
            phase("M0", "merlin", "n * n",
                  "adjacency matrix of the whole layout as advice"),
        ),
        total=phase("total", "merlin", "c * n^2",
                    "Θ(n²) advice per node"),
    ),
    CostDeclaration(
        key="connectivity-lcp",
        title="Connectivity PLS — the O(log n) contrast",
        pattern="M", asymptotic="O(log n)",
        reference="Korman–Kutten–Peleg proof labeling (related work)",
        phases=(
            phase("M0", "merlin", "3 * log2(n) + log2(n + 1)",
                  "root, parent, own id + distance label in 0..n"),
        ),
        total=phase("total", "merlin", "c * log2(n)",
                    "O(log n) labels suffice for connectivity"),
    ),
)
