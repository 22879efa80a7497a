"""Protocol 1: the O(log n)-bit dMAM protocol for Graph Symmetry.

Theorem 1.1 / Section 3.1 of the paper.  Round structure:

* **M₀** — the prover broadcasts a claimed root ``r`` and unicasts to
  each node: its image ``ρ_v`` under a claimed non-trivial
  automorphism, its parent ``t_v`` in a claimed spanning tree rooted at
  ``r``, and its distance ``d_v`` from ``r``.
* **A₁** — each node sends a uniformly random hash index
  ``i_v ∈ [|H|]`` (``H`` is the Theorem-3.2 linear family for
  ``m = n²`` and a prime ``p ∈ [10n³, 100n³]``).
* **M₂** — the prover broadcasts an index ``i`` (claimed to be the
  root's ``i_r``) and unicasts subtree hash aggregates
  ``a_v, b_v ∈ [p]`` for the matrices ``Σ[u, N(u)]`` and
  ``Σ[ρ(u), ρ(N(u))]``.

Verification (per node): spanning-tree checks, aggregation checks for
``a`` and ``b`` (each node's own terms are ``h_i([v, N(v)])`` and
``h_i([ρ_v, ρ(N(v))])``, both computable from its local view), and at
the root: ``a_r = b_r``, ``ρ_r ≠ r``, ``i = i_r``.

Soundness: the prover commits to ρ *before* seeing the hash index, so
on an asymmetric graph acceptance requires a hash collision between
two fixed distinct matrices — probability ≤ m/p ≤ 1/(10n) < 1/3.

Every per-node message is O(log n) bits: four identifiers/counters in
round M₀ and three values in ``[p]``-sized domains in round M₂.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from ..core.model import (Instance, LocalView, NodeMessage, Protocol,
                          ProtocolViolation, Prover, PATTERN_DMAM,
                          bits_for_identifier, bits_for_value, field_cost)
from ..graphs.graph import Graph
from ..hashing.linear import LinearHashFamily
from ..hashing.primes import theorem32_prime_window
from ..hashing.rowmatrix import image_bits
from ..network.spanning_tree import (FIELD_DIST, FIELD_PARENT, FIELD_ROOT,
                                     tree_check)
from ._tree_hash import (check_aggregate, closed_row_bits, honest_aggregates,
                         rho_image_row)

FIELD_RHO = "rho"
FIELD_SEED = "seed"
FIELD_A = "a"
FIELD_B = "b"

ROUND_M0 = 0
ROUND_A1 = 1
ROUND_M2 = 2


def protocol1_hash_family(n: int) -> LinearHashFamily:
    """The paper's Protocol-1 family: m = n², prime in [10n³, 100n³]."""
    return LinearHashFamily(m=n * n, p=theorem32_prime_window(n, exponent=3))


class SymDMAMProtocol(Protocol):
    """Protocol 1 (dMAM for Sym), parameterized by vertex count.

    ``family`` may be overridden to study soundness as a function of
    the prime size (experiment E7); the default follows the paper.
    """

    name = "sym-dmam"
    pattern = PATTERN_DMAM

    def __init__(self, n: int,
                 family: Optional[LinearHashFamily] = None) -> None:
        if n < 2:
            raise ValueError("Sym needs at least 2 vertices")
        self.n = n
        self.family = family or protocol1_hash_family(n)
        if self.family.m < n * n:
            raise ValueError("hash dimension must cover the n×n matrix")

    def validate_instance(self, instance: Instance) -> None:
        super().validate_instance(instance)
        if instance.n != self.n:
            raise ValueError(
                f"protocol built for n={self.n}, instance has n={instance.n}")

    # -- Arthur ----------------------------------------------------------

    def arthur_value(self, instance: Instance, round_idx: int, v: int,
                     rng: random.Random) -> int:
        return self.family.sample_seed(rng)

    def arthur_bits(self, instance: Instance, round_idx: int) -> int:
        return self.family.seed_bits

    # -- Merlin ----------------------------------------------------------

    def broadcast_fields(self, round_idx: int) -> FrozenSet[str]:
        if round_idx == ROUND_M0:
            return frozenset({FIELD_ROOT})
        if round_idx == ROUND_M2:
            return frozenset({FIELD_SEED})
        return frozenset()

    def merlin_fields(self, round_idx: int) -> FrozenSet[str]:
        if round_idx == ROUND_M0:
            return frozenset({FIELD_ROOT, FIELD_RHO, FIELD_PARENT,
                              FIELD_DIST})
        if round_idx == ROUND_M2:
            return frozenset({FIELD_SEED, FIELD_A, FIELD_B})
        return frozenset()

    def merlin_bits(self, instance: Instance, round_idx: int,
                    message: NodeMessage) -> int:
        id_bits = bits_for_identifier(self.n)
        if round_idx == ROUND_M0:
            # root + rho + parent are identifiers; dist is in [0, n).
            # Each field is charged only if wire-encodable — malformed
            # fields cost 0 bits (the codec escape-lane convention).
            return sum(field_cost(message, name, id_bits)
                       for name in (FIELD_ROOT, FIELD_RHO,
                                    FIELD_PARENT, FIELD_DIST))
        if round_idx == ROUND_M2:
            value_bits = bits_for_value(self.family.p)
            return (field_cost(message, FIELD_SEED, self.family.seed_bits)
                    + field_cost(message, FIELD_A, value_bits)
                    + field_cost(message, FIELD_B, value_bits))
        raise ValueError(f"round {round_idx} is not a Merlin round")

    # -- decision ----------------------------------------------------------

    def decide(self, view: LocalView) -> bool:
        m0 = view.own_message(ROUND_M0)
        root = m0[FIELD_ROOT]
        if not isinstance(root, int) or not 0 <= root < view.n:
            return False
        if not tree_check(view, ROUND_M0, root):
            return False

        m2 = view.own_message(ROUND_M2)
        seed = m2[FIELD_SEED]
        if not isinstance(seed, int) or not 0 <= seed < self.family.p:
            return False

        # Own terms for the two aggregates (line 3 of Protocol 1).
        own_row = closed_row_bits(view)
        a_term = self.family.hash_row_matrix(seed, view.n, view.node, own_row)
        rho_v = m0[FIELD_RHO]
        if not isinstance(rho_v, int) or not 0 <= rho_v < view.n:
            return False
        b_row = rho_image_row(view, ROUND_M0, FIELD_RHO)
        b_term = self.family.hash_row_matrix(seed, view.n, rho_v, b_row)

        if not check_aggregate(view, ROUND_M0, ROUND_M2, root, FIELD_A,
                               a_term, self.family.p):
            return False
        if not check_aggregate(view, ROUND_M0, ROUND_M2, root, FIELD_B,
                               b_term, self.family.p):
            return False

        if view.node == root:
            # Line 4: a_r = b_r, ρ_r ≠ r, and the broadcast index is the
            # one this node sent (so the prover could not pick it).
            if m2[FIELD_A] != m2[FIELD_B]:
                return False
            if rho_v == root:
                return False
            if seed != view.own_randomness(ROUND_A1):
                return False
        return True

    # -- honest prover -----------------------------------------------------

    def honest_prover(self) -> Prover:
        return HonestSymDMAMProver(self)


class HonestSymDMAMProver(Prover):
    """Completeness witness: finds a non-trivial automorphism, builds a
    BFS spanning tree rooted at a moved vertex, and later reports the
    true subtree hash aggregates."""

    def __init__(self, protocol: SymDMAMProtocol) -> None:
        self.protocol = protocol
        self._rho: Optional[Tuple[int, ...]] = None
        self._advice = None
        self._root: Optional[int] = None

    def reset(self) -> None:
        self._rho = None
        self._advice = None
        self._root = None

    def batch_plan(self, context):
        """The numpy batch engine's description of this strategy: the
        memoized automorphism and its canonical root — exactly the
        commitments ``respond`` would make, including the
        ``ProtocolViolation`` on an asymmetric graph."""
        rho = context.nontrivial_automorphism()
        if rho is None:
            raise ProtocolViolation(
                "honest prover run on an asymmetric graph — "
                "completeness only applies to YES instances")
        root = min(v for v in context.graph.vertices if rho[v] != v)
        return {"rho": rho, "root": root}

    def respond(self, instance: Instance, round_idx: int,
                randomness: Mapping[int, Mapping[int, int]],
                own_messages: Mapping[int, Mapping[int, NodeMessage]],
                rng: random.Random) -> Dict[int, NodeMessage]:
        graph = instance.graph
        if round_idx == ROUND_M0:
            ctx = self.acquire_context(instance)
            rho = ctx.nontrivial_automorphism()
            if rho is None:
                raise ProtocolViolation(
                    "honest prover run on an asymmetric graph — "
                    "completeness only applies to YES instances")
            root = min(v for v in graph.vertices if rho[v] != v)
            self._rho = rho
            self._root = root
            self._advice = ctx.tree_advice(root)
            return {
                v: {FIELD_ROOT: root,
                    FIELD_RHO: rho[v],
                    FIELD_PARENT: self._advice.parent[v],
                    FIELD_DIST: self._advice.dist[v]}
                for v in graph.vertices
            }
        if round_idx == ROUND_M2:
            assert self._rho is not None and self._root is not None
            family = self.protocol.family
            seed = randomness[ROUND_A1][self._root]
            rho = self._rho
            n = graph.n

            def a_term(v: int) -> int:
                return family.hash_row_matrix(seed, n, v, graph.closed_row(v))

            def b_term(v: int) -> int:
                row = image_bits(graph.closed_row(v), rho, n)
                return family.hash_row_matrix(seed, n, rho[v], row)

            a_values = honest_aggregates(graph, self._advice, a_term,
                                         family.p)
            b_values = honest_aggregates(graph, self._advice, b_term,
                                         family.p)
            return {
                v: {FIELD_SEED: seed,
                    FIELD_A: a_values[v],
                    FIELD_B: b_values[v]}
                for v in graph.vertices
            }
        raise ProtocolViolation(f"unexpected Merlin round {round_idx}")


class CommittedMappingProver(Prover):
    """The canonical *cheating* prover for Protocol 1 on NO instances.

    Commits to an arbitrary non-identity mapping ρ (by default the swap
    of the two vertices whose closed neighborhoods differ least) and a
    root moved by ρ, then reports truthful aggregates for its committed
    mapping.  Any other round-2 values are caught deterministically by
    the aggregation checks, so within this protocol the truthful
    strategy is optimal for a fixed ρ: the acceptance probability is
    exactly the hash-collision probability of the two committed matrix
    sums, which Theorem 3.2 bounds by m/p.
    """

    def __init__(self, protocol: SymDMAMProtocol,
                 mapping: Optional[Sequence[int]] = None) -> None:
        self.protocol = protocol
        self._fixed_mapping = tuple(mapping) if mapping is not None else None
        self._rho: Optional[Tuple[int, ...]] = None
        self._advice = None
        self._root: Optional[int] = None

    def reset(self) -> None:
        self._rho = None
        self._advice = None
        self._root = None

    def choose_mapping(self, graph: Graph) -> Tuple[int, ...]:
        """Pick the swap (u, w) minimizing the symmetric difference of
        closed neighborhoods — the difference matrix with the smallest
        support, hence the difference polynomial with the best shot at
        a collision."""
        if self._fixed_mapping is not None:
            return self._fixed_mapping
        best = None
        best_score = None
        for u in graph.vertices:
            for w in range(u + 1, graph.n):
                diff = bin(graph.closed_row(u) ^ graph.closed_row(w)).count("1")
                if best_score is None or diff < best_score:
                    best_score = diff
                    best = (u, w)
        assert best is not None
        mapping = list(range(graph.n))
        mapping[best[0]], mapping[best[1]] = best[1], best[0]
        return tuple(mapping)

    def batch_plan(self, context):
        """The committed ρ and root for the numpy batch engine — the
        same memoized choice (``sym_dmam.committed_swap``) ``respond``
        commits to, so both engines play the identical strategy."""
        graph = context.graph
        if self._fixed_mapping is not None:
            rho = self._fixed_mapping
        else:
            rho = context.memo("sym_dmam.committed_swap",
                               lambda: self.choose_mapping(graph))
        if all(rho[v] == v for v in graph.vertices):
            raise ProtocolViolation("cheating prover must move a vertex")
        root = min(v for v in graph.vertices if rho[v] != v)
        return {"rho": rho, "root": root}

    def respond(self, instance: Instance, round_idx: int,
                randomness: Mapping[int, Mapping[int, int]],
                own_messages: Mapping[int, Mapping[int, NodeMessage]],
                rng: random.Random) -> Dict[int, NodeMessage]:
        graph = instance.graph
        if round_idx == ROUND_M0:
            ctx = self.acquire_context(instance)
            if self._fixed_mapping is not None:
                rho = self._fixed_mapping
            else:
                rho = ctx.memo("sym_dmam.committed_swap",
                               lambda: self.choose_mapping(graph))
            if all(rho[v] == v for v in graph.vertices):
                raise ProtocolViolation("cheating prover must move a vertex")
            root = min(v for v in graph.vertices if rho[v] != v)
            self._rho = rho
            self._root = root
            self._advice = ctx.tree_advice(root)
            return {
                v: {FIELD_ROOT: root,
                    FIELD_RHO: rho[v],
                    FIELD_PARENT: self._advice.parent[v],
                    FIELD_DIST: self._advice.dist[v]}
                for v in graph.vertices
            }
        if round_idx == ROUND_M2:
            assert self._rho is not None and self._root is not None
            family = self.protocol.family
            seed = randomness[ROUND_A1][self._root]
            rho = self._rho
            n = graph.n

            def a_term(v: int) -> int:
                return family.hash_row_matrix(seed, n, v, graph.closed_row(v))

            def b_term(v: int) -> int:
                row = image_bits(graph.closed_row(v), rho, n)
                return family.hash_row_matrix(seed, n, rho[v], row)

            a_values = honest_aggregates(graph, self._advice, a_term,
                                         family.p)
            b_values = honest_aggregates(graph, self._advice, b_term,
                                         family.p)
            return {
                v: {FIELD_SEED: seed,
                    FIELD_A: a_values[v],
                    FIELD_B: b_values[v]}
                for v in graph.vertices
            }
        raise ProtocolViolation(f"unexpected Merlin round {round_idx}")


# -- cost declaration -----------------------------------------------------

from ..ledger.declare import CostDeclaration, phase  # noqa: E402

#: Protocol 1's bill, phase by phase: the mapping advice is four
#: identifier-width fields, the challenge is one seed of the
#: Theorem 3.2 family (p ∈ [10n³, 100n³]), and the response echoes the
#: seed plus two field elements.  Theorem 1.1's O(log n) headline is
#: the fitted total.
COST_DECLARATIONS = (
    CostDeclaration(
        key="sym-dmam", title="Protocol 1 — Sym ∈ dMAM(log n)",
        pattern="MAM", asymptotic="O(log n)",
        reference="Theorem 1.1 / Protocol 1 (Section 3)",
        phases=(
            phase("M0", "merlin", "4 * log2(n)",
                  "Protocol 1 step 1: rho(v), rho-image, successor, "
                  "root flag — four identifier fields"),
            phase("A1", "arthur", "log2(100 * n^3)",
                  "Protocol 1 step 2: one seed of the Theorem 3.2 "
                  "family, p in [10n^3, 100n^3]"),
            phase("M2", "merlin", "3 * log2(100 * n^3)",
                  "Protocol 1 step 3: echoed seed + aggregates "
                  "a_v, b_v in F_p"),
        ),
        total=phase("total", "merlin", "c * log2(n)",
                    "Theorem 1.1: O(log n) bits per node"),
    ),
)
