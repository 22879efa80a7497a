"""Certifying a *public* mapping: the reusable core of the DSym result.

Section 3.3's key observation generalizes: whenever the automorphism
to check is fixed and publicly known (rather than existentially
quantified), the prover has nothing to commit to, so Protocol 1's
verification collapses to a single Arthur–Merlin exchange with the
*small* prime — O(log n) bits — even though the prover answers after
seeing the challenge.  Soundness needs no union bound because both
hashed matrices, ``Σ[v, N(v)]`` and ``Σ[σ(v), σ(N(v))]``, are
determined by the graph alone.

:class:`FixedMappingProtocol` implements exactly that: a dAM protocol
deciding the language "σ is an automorphism of G" for a fixed public
permutation σ.  The DSym protocol of Theorem 1.2 is this protocol plus
Definition 5's purely-local structure checks (see
``repro.protocols.dsym``); other uses include certifying replication
layouts, ring rotations, or any designed-in symmetry.

Practical use: a system that *constructs* its network with a known
symmetry can have the construction certified with logarithmic
communication, which is the "certifying distributed algorithms"
motivation from the paper's introduction.
"""

from __future__ import annotations

import random
from typing import (Callable, Dict, FrozenSet, Iterable, Mapping, Optional,
                    Sequence)

from ..core.model import (Instance, LocalView, NodeMessage,
                          ProtocolViolation, Prover, PATTERN_DAM,
                          field_cost)
from ..hashing.linear import LinearHashFamily
from ..hashing.rowmatrix import image_bits
from ..network.spanning_tree import (FIELD_DIST, FIELD_PARENT, TreeAdvice,
                                     tree_check)
from ._tree_hash import (FIELD_A, FIELD_B, FIELD_SEED, MappingHashProtocol,
                         adjacency_aggregates, check_mapping_hash,
                         closed_row_bits, image_aggregates)
from .sym_dmam import protocol1_hash_family

ROUND_A0 = 0
ROUND_M1 = 1


def response_messages(seed: int, advice: TreeAdvice,
                      a_values: Mapping[int, int],
                      b_values: Mapping[int, int],
                      vertices: Iterable[int]) -> Dict[int, NodeMessage]:
    """Round M₁ for ``vertices``: the broadcast seed echo, each node's
    spanning-tree advice and its two subtree aggregates."""
    return {v: {FIELD_SEED: seed,
                FIELD_PARENT: advice.parent[v],
                FIELD_DIST: advice.dist[v],
                FIELD_A: a_values[v],
                FIELD_B: b_values[v]}
            for v in vertices}


class FixedMappingProtocol(MappingHashProtocol):
    """dAM[O(log n)] protocol for "σ ∈ Aut(G)", σ fixed and public.

    Parameters
    ----------
    sigma:
        The public permutation to certify (a tuple/list over ``0..n-1``;
        it need not move the root — there is no non-triviality check
        here, that is the caller's business if it has one).
    root:
        The (public) spanning-tree root; defaults to vertex 0.
    structure_check:
        Optional extra node-local predicate (``view -> bool``) ANDed
        into every node's decision — how DSym adds Definition 5's
        conditions 2 and 3.
    family:
        Hash family override for ablations; defaults to the paper's
        ``p ∈ [10n³, 100n³]`` window with m = n².
    """

    name = "fixed-map-dam"
    pattern = PATTERN_DAM

    def __init__(self, sigma: Sequence[int], root: int = 0,
                 structure_check: Optional[
                     Callable[[LocalView], bool]] = None,
                 family: Optional[LinearHashFamily] = None) -> None:
        n = len(sigma)
        if n < 1:
            raise ValueError("mapping must cover at least one vertex")
        if sorted(sigma) != list(range(n)):
            raise ValueError("sigma must be a permutation of 0..n-1")
        if not 0 <= root < n:
            raise ValueError("root out of range")
        self.sigma = tuple(sigma)
        self.root = root
        self.structure_check = structure_check
        super().__init__(n, family or protocol1_hash_family(n))

    # -- Merlin ----------------------------------------------------------

    def broadcast_fields(self, round_idx: int) -> FrozenSet[str]:
        return frozenset({FIELD_SEED})

    def merlin_fields(self, round_idx: int) -> FrozenSet[str]:
        return frozenset({FIELD_SEED, FIELD_PARENT, FIELD_DIST,
                          FIELD_A, FIELD_B})

    def merlin_bits(self, instance: Instance, round_idx: int,
                    message: NodeMessage) -> int:
        id_bits = self.id_bits
        value_bits = self.value_bits
        # Per-field charging: malformed fields cost 0 bits (they ride
        # the codec escape lane and make the node reject).
        return (field_cost(message, FIELD_SEED, self.seed_bits)
                + field_cost(message, FIELD_PARENT, id_bits)
                + field_cost(message, FIELD_DIST, id_bits)
                + field_cost(message, FIELD_A, value_bits)
                + field_cost(message, FIELD_B, value_bits))

    # -- decision ----------------------------------------------------------

    def decide(self, view: LocalView) -> bool:
        if self.structure_check is not None \
                and not self.structure_check(view):
            return False
        if not tree_check(view, ROUND_M1, self.root):
            return False

        seed = view.own_message(ROUND_M1)[FIELD_SEED]
        if not isinstance(seed, int) or not 0 <= seed < self.family.p:
            return False
        own_row = closed_row_bits(view)
        return check_mapping_hash(
            view, self.family, seed, own_row, self.sigma[view.node],
            image_bits(own_row, self.sigma, view.n),
            ROUND_M1, ROUND_M1, self.root, ROUND_A0)

    # -- provers -----------------------------------------------------------

    def honest_prover(self) -> Prover:
        return ForcedMappingProver(self)


class ForcedMappingProver(Prover):
    """The unique sensible prover: echo the root's seed and report
    truthful aggregates — the tree and aggregation checks leave no
    other strategy alive.  On YES instances (σ really is an
    automorphism) it always wins; on NO instances it wins exactly on a
    hash collision (≤ m/p), making it simultaneously the completeness
    witness and the optimal cheater.
    """

    def __init__(self, protocol: FixedMappingProtocol) -> None:
        self.protocol = protocol

    def respond(self, instance: Instance, round_idx: int,
                randomness: Mapping[int, Mapping[int, int]],
                own_messages: Mapping[int, Mapping[int, NodeMessage]],
                rng: random.Random) -> Dict[int, NodeMessage]:
        if round_idx != ROUND_M1:
            raise ProtocolViolation(f"unexpected Merlin round {round_idx}")
        protocol = self.protocol
        graph = instance.graph
        family = protocol.family
        seed = randomness[ROUND_A0][protocol.root]
        advice = self.acquire_context(instance).tree_advice(protocol.root)
        return response_messages(
            seed, advice, adjacency_aggregates(family, seed, graph, advice),
            image_aggregates(family, seed, graph, advice, protocol.sigma),
            graph.vertices)


# -- cost declaration -----------------------------------------------------

from ..ledger.declare import CostDeclaration, phase  # noqa: E402

#: The generic fixed-mapping verifier every dAM reduction rides
#: (DSym instantiates it over the layout graph): same phase bill as
#: ``dsym-dam``, declared once for the primitive itself.
COST_DECLARATIONS = (
    CostDeclaration(
        key="fixed-map-dam",
        title="Fixed-mapping verification (Protocol 3 core)",
        pattern="AM", asymptotic="O(log n)",
        reference="Section 5 (fixed-mapping verification)",
        phases=(
            phase("A0", "arthur", "log2(100 * n^3)",
                  "one seed of the Theorem 3.2 family"),
            phase("M1", "merlin",
                  "3 * log2(100 * n^3) + 2 * log2(n)",
                  "seed echo + two aggregates + parent/dist fields"),
        ),
        total=phase("total", "merlin", "c * log2(n)",
                    "O(log n) bits per node"),
    ),
)
