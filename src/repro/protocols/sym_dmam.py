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
from typing import (Dict, FrozenSet, Iterable, Mapping, Optional, Sequence,
                    Tuple)

from ..core.model import (Instance, LocalView, NodeMessage,
                          ProtocolViolation, Prover, PATTERN_DMAM,
                          field_cost)
from ..graphs.graph import Graph
from ..hashing.linear import LinearHashFamily
from ..hashing.primes import theorem32_prime_window
from ..network.spanning_tree import (FIELD_DIST, FIELD_PARENT, FIELD_ROOT,
                                     TreeAdvice, tree_check)
from ._tree_hash import (FIELD_A, FIELD_B, FIELD_SEED, MappingHashProtocol,
                         adjacency_aggregates, check_mapping_hash,
                         closed_row_bits, honest_rho, image_aggregates,
                         moved_root, rho_image_row)

FIELD_RHO = "rho"

ROUND_M0 = 0
ROUND_A1 = 1
ROUND_M2 = 2


def protocol1_hash_family(n: int) -> LinearHashFamily:
    """The paper's Protocol-1 family: m = n², prime in [10n³, 100n³]."""
    return LinearHashFamily(m=n * n, p=theorem32_prime_window(n, exponent=3))


def commitment_messages(rho: Sequence[int], root: int, advice: TreeAdvice,
                        vertices: Iterable[int]) -> Dict[int, NodeMessage]:
    """Round M₀ for ``vertices``: the broadcast root, each node's image
    ``ρ_v`` and its spanning-tree advice."""
    return {v: {FIELD_ROOT: root,
                FIELD_RHO: rho[v],
                FIELD_PARENT: advice.parent[v],
                FIELD_DIST: advice.dist[v]}
            for v in vertices}


def aggregate_messages(seed: int, a_values: Mapping[int, int],
                       b_values: Mapping[int, int],
                       vertices: Iterable[int]) -> Dict[int, NodeMessage]:
    """Round M₂ for ``vertices``: the broadcast seed echo and each
    node's two subtree aggregates (any sequence indexed by vertex)."""
    return {v: {FIELD_SEED: seed,
                FIELD_A: a_values[v],
                FIELD_B: b_values[v]}
            for v in vertices}


class SymDMAMProtocol(MappingHashProtocol):
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
        super().__init__(n, family or protocol1_hash_family(n))

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
        if round_idx == ROUND_M0:
            # root + rho + parent are identifiers; dist is in [0, n).
            # Each field is charged only if wire-encodable — malformed
            # fields cost 0 bits (the codec escape-lane convention).
            id_bits = self.id_bits
            return (field_cost(message, FIELD_ROOT, id_bits)
                    + field_cost(message, FIELD_RHO, id_bits)
                    + field_cost(message, FIELD_PARENT, id_bits)
                    + field_cost(message, FIELD_DIST, id_bits))
        if round_idx == ROUND_M2:
            value_bits = self.value_bits
            return (field_cost(message, FIELD_SEED, self.seed_bits)
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

        seed = view.own_message(ROUND_M2)[FIELD_SEED]
        if not isinstance(seed, int) or not 0 <= seed < self.family.p:
            return False
        rho_v = m0[FIELD_RHO]
        if not isinstance(rho_v, int) or not 0 <= rho_v < view.n:
            return False
        # Line 4 also needs ρ_r ≠ r at the root.
        if view.node == root and rho_v == root:
            return False
        # The b-side row is ρ(N(v)), read from the neighbors' ρ values.
        return check_mapping_hash(
            view, self.family, seed, closed_row_bits(view), rho_v,
            rho_image_row(view, ROUND_M0, FIELD_RHO),
            ROUND_M0, ROUND_M2, root, ROUND_A1)

    # -- honest prover -----------------------------------------------------

    def honest_prover(self) -> Prover:
        return HonestSymDMAMProver(self)


class _CommitThenAggregateProver(Prover):
    """Protocol 1's provers: commit to ρ, the smallest vertex it moves
    as root and that root's BFS tree in M₀, then report the truthful
    subtree aggregates under the root's challenge in M₂.  Subclasses
    only choose ρ (:meth:`committed_rho`)."""

    def __init__(self, protocol: SymDMAMProtocol) -> None:
        self.protocol = protocol
        self.reset()

    def reset(self) -> None:
        self._rho = None
        self._advice = None
        self._root = None

    def committed_rho(self, context) -> Tuple[int, ...]:
        """The ρ to commit to on ``context``'s instance; raises
        ``ProtocolViolation`` when the strategy has none."""
        raise NotImplementedError

    def batch_plan(self, context):
        """The numpy batch engine's description of this strategy:
        exactly the ρ and root ``respond`` commits to, including any
        ``ProtocolViolation`` its first response would raise."""
        rho = self.committed_rho(context)
        return {"rho": rho, "root": moved_root(rho)}

    def respond(self, instance: Instance, round_idx: int,
                randomness: Mapping[int, Mapping[int, int]],
                own_messages: Mapping[int, Mapping[int, NodeMessage]],
                rng: random.Random) -> Dict[int, NodeMessage]:
        graph = instance.graph
        if round_idx == ROUND_M0:
            ctx = self.acquire_context(instance)
            plan = self.batch_plan(ctx)
            self._rho = plan["rho"]
            self._root = plan["root"]
            self._advice = ctx.tree_advice(self._root)
            return commitment_messages(self._rho, self._root, self._advice,
                                       graph.vertices)
        if round_idx == ROUND_M2:
            assert self._rho is not None and self._root is not None
            family = self.protocol.family
            seed = randomness[ROUND_A1][self._root]
            return aggregate_messages(
                seed, adjacency_aggregates(family, seed, graph, self._advice),
                image_aggregates(family, seed, graph, self._advice,
                                 self._rho),
                graph.vertices)
        raise ProtocolViolation(f"unexpected Merlin round {round_idx}")


class HonestSymDMAMProver(_CommitThenAggregateProver):
    """Completeness witness: finds a non-trivial automorphism, builds a
    BFS spanning tree rooted at a moved vertex, and later reports the
    true subtree hash aggregates."""

    def committed_rho(self, context) -> Tuple[int, ...]:
        return honest_rho(context)


class CommittedMappingProver(_CommitThenAggregateProver):
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
        super().__init__(protocol)
        self._fixed_mapping = tuple(mapping) if mapping is not None else None

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

    def committed_rho(self, context) -> Tuple[int, ...]:
        """The fixed mapping, or the memoized swap
        (``sym_dmam.committed_swap``) shared by every prover on the
        context, so both engines play the identical strategy."""
        graph = context.graph
        if self._fixed_mapping is not None:
            rho = self._fixed_mapping
        else:
            rho = context.memo("sym_dmam.committed_swap",
                               lambda: self.choose_mapping(graph))
        if all(rho[v] == v for v in graph.vertices):
            raise ProtocolViolation("cheating prover must move a vertex")
        return rho


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
