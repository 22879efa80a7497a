"""Protocol 2: the O(n log n)-bit dAM protocol for Graph Symmetry.

Theorem 1.3 / Section 3.2 of the paper.  Round structure:

* **A₀** — each node sends a uniformly random hash index
  ``i_v ∈ [|H|]``, where ``H`` is the Theorem-3.2 family for
  ``m = n²`` and a prime ``p ∈ [10·n^{n+2}, 100·n^{n+2}]`` — so a seed
  index costs Θ(n log n) bits.
* **M₁** — the prover broadcasts the *entire* mapping
  ``ρ : V → V`` (n identifiers), an index ``i`` (claimed ``i_r``) and
  the root ``r``; it unicasts the spanning-tree advice ``t_v, d_v``
  and the two subtree aggregates ``a_v, b_v``.

Because the prover moves *after* seeing the challenge, it can choose ρ
adaptively; soundness instead comes from a union bound over all ``n^n``
mappings (Lemma 3.1 holds for arbitrary mappings, which is why the
nodes never need to check that ρ is a permutation): for each fixed
non-identity σ the collision probability is ≤ m/p ≤ 1/(10·n^n), so
even the best adaptive prover succeeds with probability ≤ 1/10.

The ``family`` parameter exists for experiment E6: running this
protocol with Protocol 1's small prime hands the adaptive prover a
feasible collision search and demonstrably *breaks* soundness —
the reason interaction order matters.
"""

from __future__ import annotations

import itertools
import random
from typing import (Dict, FrozenSet, Iterable, Mapping, Optional, Sequence,
                    Tuple)

from ..core.model import (Instance, LocalView, NodeMessage,
                          ProtocolViolation, Prover, PATTERN_DAM,
                          field_cost, tuple_field_cost)
from ..graphs.graph import Graph
from ..hashing.linear import LinearHashFamily
from ..hashing.primes import prime_in_range
from ..hashing.rowmatrix import image_bits
from ..network.spanning_tree import (FIELD_DIST, FIELD_PARENT, FIELD_ROOT,
                                     TreeAdvice, tree_check)
from ._tree_hash import (FIELD_A, FIELD_B, FIELD_SEED, MappingHashProtocol,
                         adjacency_aggregates, adjacency_terms,
                         check_mapping_hash, closed_row_bits, honest_rho,
                         image_aggregates, image_terms, moved_root)
from .analysis import all_swaps

FIELD_RHO_TABLE = "rho_table"

ROUND_A0 = 0
ROUND_M1 = 1


def protocol2_hash_family(n: int) -> LinearHashFamily:
    """The paper's Protocol-2 family: prime in [10·n^(n+2), 100·n^(n+2)].

    The union bound over all n^n mappings leaves total soundness error
    ≤ n^n · n²/p ≤ 1/10.
    """
    base = n ** (n + 2)
    return LinearHashFamily(m=n * n, p=prime_in_range(10 * base, 100 * base))


def mapping_messages(rho: Tuple[int, ...], seed: int, root: int,
                     advice: TreeAdvice, a_values: Mapping[int, int],
                     b_values: Mapping[int, int],
                     vertices: Iterable[int]) -> Dict[int, NodeMessage]:
    """Round M₁ for ``vertices``: the broadcast ρ table, seed echo and
    root, each node's spanning-tree advice and its two subtree
    aggregates (any sequence indexed by vertex)."""
    return {v: {FIELD_RHO_TABLE: rho,
                FIELD_SEED: seed,
                FIELD_ROOT: root,
                FIELD_PARENT: advice.parent[v],
                FIELD_DIST: advice.dist[v],
                FIELD_A: a_values[v],
                FIELD_B: b_values[v]}
            for v in vertices}


class SymDAMProtocol(MappingHashProtocol):
    """Protocol 2 (dAM for Sym) on ``n`` vertices."""

    name = "sym-dam"
    pattern = PATTERN_DAM

    def __init__(self, n: int,
                 family: Optional[LinearHashFamily] = None) -> None:
        if n < 2:
            raise ValueError("Sym needs at least 2 vertices")
        super().__init__(n, family or protocol2_hash_family(n))

    # -- Merlin ----------------------------------------------------------

    def broadcast_fields(self, round_idx: int) -> FrozenSet[str]:
        return frozenset({FIELD_RHO_TABLE, FIELD_SEED, FIELD_ROOT})

    def merlin_fields(self, round_idx: int) -> FrozenSet[str]:
        return frozenset({FIELD_RHO_TABLE, FIELD_SEED, FIELD_ROOT,
                          FIELD_PARENT, FIELD_DIST, FIELD_A, FIELD_B})

    def merlin_bits(self, instance: Instance, round_idx: int,
                    message: NodeMessage) -> int:
        id_bits = self.id_bits
        value_bits = self.value_bits
        # The full mapping table plus tree/aggregate fields; each field
        # is charged only if wire-encodable (malformed costs 0 bits).
        return (tuple_field_cost(message, FIELD_RHO_TABLE, self.n, id_bits)
                + field_cost(message, FIELD_SEED, self.seed_bits)
                + field_cost(message, FIELD_ROOT, id_bits)
                + field_cost(message, FIELD_PARENT, id_bits)
                + field_cost(message, FIELD_DIST, id_bits)
                + field_cost(message, FIELD_A, value_bits)
                + field_cost(message, FIELD_B, value_bits))

    # -- decision ----------------------------------------------------------

    def decide(self, view: LocalView) -> bool:
        m1 = view.own_message(ROUND_M1)
        root = m1[FIELD_ROOT]
        if not isinstance(root, int) or not 0 <= root < view.n:
            return False
        rho = m1[FIELD_RHO_TABLE]
        if (not isinstance(rho, tuple) or len(rho) != view.n
                or any(not isinstance(x, int) or not 0 <= x < view.n
                       for x in rho)):
            return False
        seed = m1[FIELD_SEED]
        if not isinstance(seed, int) or not 0 <= seed < self.family.p:
            return False
        if not tree_check(view, ROUND_M1, root):
            return False
        if view.node == root and rho[root] == root:
            return False
        # With the full table broadcast, each node computes ρ(N(v))
        # directly (no need to read neighbors' unicasts for ρ).
        own_row = closed_row_bits(view)
        return check_mapping_hash(
            view, self.family, seed, own_row, rho[view.node],
            image_bits(own_row, rho, view.n),
            ROUND_M1, ROUND_M1, root, ROUND_A0)

    # -- provers -----------------------------------------------------------

    def honest_prover(self) -> Prover:
        return HonestSymDAMProver(self)


def _mapping_response(protocol: SymDAMProtocol, graph: Graph,
                      rho: Tuple[int, ...], seed: int, context,
                      root: Optional[int] = None) -> Dict[int, NodeMessage]:
    """Build the full M₁ response for a committed mapping: truthful
    spanning tree and truthful aggregates (the prover has no slack in
    the aggregates; see Protocol 1's cheating-prover docstring).

    ``context`` is the :class:`~repro.core.context.InstanceContext`
    supplying the cached spanning tree.  ``root`` overrides the
    canonical choice (the smallest moved vertex) — the root determines
    whose challenge is echoed, so adaptive callers may prefer a
    different moved vertex."""
    family = protocol.family
    if root is None:
        root = moved_root(rho)
    advice = context.tree_advice(root)
    return mapping_messages(
        rho, seed, root, advice,
        adjacency_aggregates(family, seed, graph, advice),
        image_aggregates(family, seed, graph, advice, rho),
        graph.vertices)


class _PlannedMappingProver(Prover):
    """Protocol 2's non-adaptive provers: the truthful response for the
    ``(ρ, root)`` of :meth:`batch_plan`, under the root's challenge."""

    def respond(self, instance: Instance, round_idx: int,
                randomness: Mapping[int, Mapping[int, int]],
                own_messages: Mapping[int, Mapping[int, NodeMessage]],
                rng: random.Random) -> Dict[int, NodeMessage]:
        if round_idx != ROUND_M1:
            raise ProtocolViolation(f"unexpected Merlin round {round_idx}")
        ctx = self.acquire_context(instance)
        plan = self.batch_plan(ctx)
        seed = randomness[ROUND_A0][plan["root"]]
        return _mapping_response(self.protocol, instance.graph,
                                 plan["rho"], seed, ctx, plan["root"])


class HonestSymDAMProver(_PlannedMappingProver):
    """Completeness witness for Protocol 2."""

    def __init__(self, protocol: SymDAMProtocol) -> None:
        self.protocol = protocol

    def batch_plan(self, context):
        """A non-trivial automorphism and the smallest vertex it moves
        (same contract as ``HonestSymDMAMProver.batch_plan``)."""
        rho = honest_rho(context)
        return {"rho": rho, "root": moved_root(rho)}


class CommittedDAMProver(_PlannedMappingProver):
    """Protocol 2's analogue of Protocol 1's ``CommittedMappingProver``:
    plays one fixed non-identity mapping regardless of the challenge.

    Deliberately *non-adaptive* — it echoes the root's challenge and
    reports truthful aggregates for its committed ρ, so its acceptance
    probability is exactly the collision probability of the two fixed
    matrices (``analysis.exact_commit_acceptance``).  This is the
    per-candidate oracle the coordinate-ascent search climbs with, and
    the committed baseline the adaptive game value is compared against.
    """

    def __init__(self, protocol: SymDAMProtocol, mapping: Sequence[int],
                 root: Optional[int] = None) -> None:
        rho = tuple(mapping)
        if len(rho) != protocol.n:
            raise ValueError("mapping must cover every vertex")
        moved = [v for v in range(protocol.n) if rho[v] != v]
        if not moved:
            raise ValueError("committed cheating mapping must move a vertex")
        chosen_root = root if root is not None else min(moved)
        if rho[chosen_root] == chosen_root:
            raise ValueError("root must be moved by the mapping")
        self.protocol = protocol
        self.mapping = rho
        self.root = chosen_root

    def batch_plan(self, context):
        """The committed (ρ, root) pair — validated at construction,
        and challenge-independent by design, so the numpy batch engine
        can replay this prover wholesale."""
        return {"rho": self.mapping, "root": self.root}


class AdaptiveCollisionProver(Prover):
    """The adaptive cheating prover for Protocol 2 (experiment E6).

    Unlike Protocol 1's prover, this one sees the root's hash index
    *before* committing to a mapping, so it searches a candidate set of
    non-identity mappings for one whose permuted matrix collides with
    the adjacency matrix under ``h_{i_r}``.  With the paper's huge
    prime the search fails (soundness holds); with a small prime it
    frequently succeeds — quantifying why dAM needs the union-bound
    sized hash while dMAM does not.

    ``search``:
      * ``"swaps"`` — all transpositions (n·(n-1)/2 candidates);
      * ``"permutations"`` — all n! permutations (tiny n only);
      * ``"mappings"`` — all n^n mappings (tinier n only).
    """

    def __init__(self, protocol: SymDAMProtocol,
                 search: str = "swaps",
                 candidate_cap: int = 200_000) -> None:
        if search not in ("swaps", "permutations", "mappings"):
            raise ValueError(f"unknown search mode {search!r}")
        self.protocol = protocol
        self.search = search
        self.candidate_cap = candidate_cap
        #: Set by each respond() call: did the collision search succeed?
        self.last_search_succeeded = False

    def _candidates(self, n: int) -> Iterable[Tuple[int, ...]]:
        identity = tuple(range(n))
        if self.search == "swaps":
            yield from all_swaps(n)
        elif self.search == "permutations":
            for perm in itertools.permutations(range(n)):
                if perm != identity:
                    yield perm
        else:
            for mapping in itertools.product(range(n), repeat=n):
                if mapping != identity:
                    yield mapping

    def respond(self, instance: Instance, round_idx: int,
                randomness: Mapping[int, Mapping[int, int]],
                own_messages: Mapping[int, Mapping[int, NodeMessage]],
                rng: random.Random) -> Dict[int, NodeMessage]:
        if round_idx != ROUND_M1:
            raise ProtocolViolation(f"unexpected Merlin round {round_idx}")
        graph = instance.graph
        family = self.protocol.family
        p = family.p
        n = graph.n

        fallback: Optional[Tuple[int, ...]] = None
        self.last_search_succeeded = False
        chosen: Optional[Tuple[int, ...]] = None
        chosen_seed: Optional[int] = None
        # h_s(Σ_v [v, N(v)]) depends only on the seed, and candidates
        # share their roots' seeds: hash the adjacency once per seed.
        a_totals: Dict[int, int] = {}
        count = 0
        for rho in self._candidates(n):
            if fallback is None:
                fallback = rho
            count += 1
            if count > self.candidate_cap:
                break
            # The root is determined by the candidate (the protocol's
            # root check ties the seed to the root's challenge).
            seed = randomness[ROUND_A0][moved_root(rho)]
            a_total = a_totals.get(seed)
            if a_total is None:
                a_total = sum(adjacency_terms(family, seed, graph)) % p
                a_totals[seed] = a_total
            if sum(image_terms(family, seed, graph, rho)) % p == a_total:
                chosen = rho
                chosen_seed = seed
                self.last_search_succeeded = True
                break

        if chosen is None:
            assert fallback is not None
            chosen = fallback
            chosen_seed = randomness[ROUND_A0][moved_root(chosen)]
        assert chosen_seed is not None
        return _mapping_response(self.protocol, graph, chosen, chosen_seed,
                                 self.acquire_context(instance))


# -- cost declarations ----------------------------------------------------

from ..ledger.declare import CostDeclaration, phase  # noqa: E402

#: Protocol 2 hashes the whole mapping at once, so the prime window is
#: [10n^(n+2), 100n^(n+2)] and one seed costs
#: log2(p) ≤ 7 + (n+2)·log2(n) bits (+1 for the width convention);
#: Merlin's reply carries the full ρ table (n identifiers), the seed
#: echo and two field elements, plus parent/dist spanning fields.  The
#: ``sym-dam-smallprime`` variant is the E6 ablation: Protocol 2's
#: machinery with Protocol 1's ~3·log n-bit prime.
COST_DECLARATIONS = (
    CostDeclaration(
        key="sym-dam", title="Protocol 2 — Sym ∈ dAM(n log n)",
        pattern="AM", asymptotic="O(n log n)",
        reference="Theorem 1.3 / Protocol 2 (Section 3.4)",
        phases=(
            phase("A0", "arthur", "(n + 2) * log2(n) + 8",
                  "Protocol 2: one seed over p in "
                  "[10n^(n+2), 100n^(n+2)]"),
            phase("M1", "merlin",
                  "n * log2(n) + 3 * log2(n) "
                  "+ 3 * ((n + 2) * log2(n) + 8)",
                  "Protocol 2: full rho table, spanning fields, "
                  "seed echo + two field elements"),
        ),
        total=phase("total", "merlin", "c * n * log2(n)",
                    "Theorem 1.3: O(n log n) bits per node"),
    ),
    CostDeclaration(
        key="sym-dam-smallprime",
        title="Protocol 2 with Protocol 1's prime (E6 ablation)",
        pattern="AM", asymptotic="O(n log n)",
        reference="E6 round-order ablation (Theorem 3.1 vs 3.2 window)",
        phases=(
            phase("A0", "arthur", "log2(100 * n^3)",
                  "one seed of the Theorem 3.2 family"),
            phase("M1", "merlin",
                  "n * log2(n) + 3 * log2(n) + 3 * log2(100 * n^3)",
                  "full rho table, spanning fields, seed echo + two "
                  "field elements"),
        ),
        total=phase("total", "merlin", "c * n * log2(n)",
                    "dominated by the rho table: O(n log n)"),
    ),
)
