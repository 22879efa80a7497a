"""The paper's *alternative* GNI definition: marked induced subgraphs.

Section 2.3, after Definition 4: "we have only one graph, the network
graph G.  Each node in the graph is marked with an input from
{0, 1, ⊥}, and the goal is to determine whether the subgraph induced
by the nodes marked 0 is not isomorphic to the subgraph induced by the
nodes marked 1."  The nodes communicate over all of G (this is what
makes the variant weaker than Definition 4, which forbids using G₁'s
edges).

This protocol decides that language and, unlike our base GNI protocol,
makes *essential* use of all four dAMAM rounds:

* **A₀** — the Goldwasser–Sipser challenges (ε-API seed parts,
  targets), exactly as in the base protocol.
* **M₁** — the prover reveals the structure the nodes cannot see
  locally: each node's claimed mark (self-verified: a node rejects if
  its own mark is misstated, so neighbors may trust what they read),
  spanning-tree advice, per-mark *subtree counts* (forced bottom-up,
  giving the root the true sizes k₀, k₁), and per repetition a claim
  ``(b, labeling)``: a bijection π from the marked-b vertices onto
  ``{0..k-1}``, unicast as each node's own label.  ``σ(H_b)`` is then
  determined: node v's row of the relabeled induced subgraph is
  ``{π_u : u ∈ N(v), mark_u = b}`` (+ self-loop), all locally
  computable from *neighbors'* labels and verified marks.
* **A₂** — a fresh distinctness challenge ``z``: π was committed in
  M₁, so a random-evaluation identity test is now sound.
* **M₂** — per claimed repetition, two tree aggregates: the ε-API
  partials of the relabeled matrix, and ``Σ_{marked b} z^{π_v}``,
  which the root compares against ``Σ_{i<k} z^i`` — equal iff the
  multiset of labels is exactly ``{0..k-1}``, i.e. π is a genuine
  bijection (error ≤ n/P for the prime P of the test).

Decision at the root: if the verified counts differ (k₀ ≠ k₁) the
subgraphs are trivially non-isomorphic — accept.  Otherwise count the
surviving GS claims against the usual threshold.

Size promise: the GS output range must be calibrated to ``|S| = 2·k!``,
so the protocol is parameterized by the *declared* common size ``k``
(instances whose equal mark-counts differ from ``k`` are outside the
promise; unequal counts are always handled correctly).  As in the
paper's Section 4 we restrict to asymmetric induced subgraphs; the
compensation of :mod:`repro.protocols.gni_general` composes the same
way if needed.

On the skeleton of :mod:`repro.protocols._gs` this is a single GS
batch (A₀/M₁) whose aggregates arrive in M₃, after the distinctness
challenge; the variant adds the marks, counts, labels and z-test.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..core.model import (Instance, LocalView, NodeMessage,
                          ProtocolViolation, Prover, bits_for_identifier,
                          bits_for_value)
from ..graphs.graph import Graph
from ..hashing.primes import prime_in_range
from ..network.spanning_tree import (FIELD_DIST, FIELD_PARENT, TreeAdvice,
                                     children_of, tree_check)
from ._gs import (FIELD_CLAIMS, FIELD_ECHO, FIELD_PARTIALS, GS_ROOT,
                  GSProtocol, GSProver, ROUND_A0, ROUND_A2, ROUND_M1,
                  ROUND_M3, gs_cost_declaration, relabeler)

MARK_ZERO = 0
MARK_ONE = 1
MARK_NONE = 2

FIELD_MARK = "mark"
FIELD_COUNT0 = "count0"
FIELD_COUNT1 = "count1"
FIELD_LABELS = "labels"
FIELD_ZECHO = "zecho"
FIELD_ZSUMS = "zsums"

ROOT = GS_ROOT


def marked_instance(graph: Graph, marks: Mapping[int, int]) -> Instance:
    """Build a marked-GNI instance; every vertex needs a mark in
    {MARK_ZERO, MARK_ONE, MARK_NONE}."""
    for v in graph.vertices:
        if marks.get(v) not in (MARK_ZERO, MARK_ONE, MARK_NONE):
            raise ValueError(f"vertex {v} needs a mark in {{0, 1, ⊥}}")
    return Instance(graph=graph, inputs=dict(marks))


def marked_subgraph(graph: Graph, marks: Mapping[int, int],
                    mark: int) -> Tuple[Graph, List[int]]:
    """The induced subgraph on ``mark``-marked vertices, plus the
    vertex list mapping subgraph index → original vertex."""
    vertices = [v for v in graph.vertices if marks[v] == mark]
    return graph.induced_subgraph(vertices), vertices


def _marks(instance: Instance) -> Dict[int, int]:
    return {v: instance.input_of(v) for v in instance.graph.vertices}


class MarkedGNIProtocol(GSProtocol):
    """dAMAM protocol for marked-subgraph non-isomorphism.

    ``n`` is the network size; ``k`` the declared common size of the
    two marked sets (the size promise — see module docstring).
    """

    name = "gni-marked-damam"
    claim_tables = 0

    def __init__(self, n: int, k: int, repetitions: int = 60,
                 q: Optional[int] = None, big_q: Optional[int] = None,
                 z_prime: Optional[int] = None,
                 threshold: Optional[int] = None) -> None:
        if n < 2:
            raise ValueError("need at least 2 network nodes")
        if not 0 <= k <= n:
            raise ValueError("declared size must fit the network")
        self.k = k
        # The witness catalog depends on k, a protocol parameter.
        self.catalog_key = ("gni_marked.catalog", k)
        # The label-distinctness test: degree < n polynomial identity,
        # generous prime so the per-repetition slack is ~1e-6.
        self.z_prime = z_prime if z_prime is not None \
            else prime_in_range(10 * n ** 6, 100 * n ** 6)
        # Encodings use stride n, so the hash domain is n² bits.
        super().__init__(n, repetitions, q, big_q, threshold,
                         set_size_yes=2 * math.factorial(k),
                         hash_bits=n * n)

    def round_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """One GS batch: A₀ draws every repetition's challenge and M₁
        carries the claims; A₂/M₃ is the distinctness exchange."""
        return ((ROUND_A0, ROUND_M1),)

    @property
    def z_test_slack(self) -> float:
        """Per-repetition probability of a bogus labeling surviving."""
        return self.n / self.z_prime

    no_slack = z_test_slack

    def catalog(self, g0: Graph, g1: Graph
                ) -> Dict[int, Tuple[int, Tuple[int, ...]]]:
        """The witness catalog of the two marked subgraphs: encoding ↦
        (b, labeling), a 2·k! enumeration."""
        result: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        for b, sub in enumerate((g0, g1)):
            # n-stride encodings: bit π_v·n + π_u.
            encode = relabeler(sub, self.n)
            for labeling in itertools.permutations(range(self.k)):
                result.setdefault(encode(labeling), (b, labeling))
        return result

    def instance_graphs(self, instance: Instance) -> Tuple[Graph, Graph]:
        marks = _marks(instance)
        return (marked_subgraph(instance.graph, marks, MARK_ZERO)[0],
                marked_subgraph(instance.graph, marks, MARK_ONE)[0])

    def aggregates(self) -> Tuple[Tuple[str, int], ...]:
        return super().aggregates() + ((FIELD_ZSUMS, self.z_prime),)

    def marked_terms(self, label: Optional[int], row: int, c: int, s: int,
                     z: int) -> Dict[str, int]:
        """A node's terms: its relabeled row and ``z^{π_v}`` inside the
        claimed side, else just its seed offset and 0."""
        if label is None:
            return {FIELD_PARTIALS: c % self.hash.big_q, FIELD_ZSUMS: 0}
        return {FIELD_PARTIALS: self.hash.row_term(s, c, self.n, label, row),
                FIELD_ZSUMS: pow(z, label, self.z_prime)}

    # -- model -------------------------------------------------------------

    def _check_inputs(self, instance: Instance) -> None:
        if instance.inputs is None:
            raise ValueError("marked GNI instances carry marks as inputs")
        for v in instance.graph.vertices:
            if instance.input_of(v) not in (MARK_ZERO, MARK_ONE, MARK_NONE):
                raise ValueError(f"vertex {v} has an invalid mark")

    # -- Arthur ----------------------------------------------------------

    def arthur_value(self, instance: Instance, round_idx: int, v: int,
                     rng: random.Random):
        if round_idx == ROUND_A2:
            # One distinctness evaluation point per repetition, drawn
            # only after the labelings are committed.
            return tuple(rng.randrange(self.z_prime)
                         for _ in range(self.repetitions))
        return super().arthur_value(instance, round_idx, v, rng)

    def arthur_bits(self, instance: Instance, round_idx: int) -> int:
        if round_idx == ROUND_A2:
            return self.repetitions * bits_for_value(self.z_prime)
        return super().arthur_bits(instance, round_idx)

    # -- Merlin ----------------------------------------------------------

    def broadcast_fields(self, round_idx: int) -> FrozenSet[str]:
        if round_idx == ROUND_M3:
            return frozenset({FIELD_ZECHO})
        return super().broadcast_fields(round_idx)

    def scalar_widths(self, round_idx: int) -> Tuple[Tuple[str, int], ...]:
        if round_idx != ROUND_M1:
            return ()
        count_bits = bits_for_identifier(self.n + 1)
        return super().scalar_widths(round_idx) + (
            (FIELD_MARK, 2), (FIELD_COUNT0, count_bits),
            (FIELD_COUNT1, count_bits))

    def indexed_widths(self, round_idx: int) -> Tuple[Tuple[str, int], ...]:
        if round_idx == ROUND_M1:
            return ((FIELD_LABELS, bits_for_identifier(self.n)),)
        return ((FIELD_ZECHO, bits_for_value(self.z_prime)),) \
            + super().indexed_widths(round_idx)

    # -- decision ----------------------------------------------------------

    def decide(self, view: LocalView) -> bool:
        # Self-verified mark: a prover that misstates any node's mark
        # loses that node immediately, so neighbors may trust marks.
        if view.own_message(ROUND_M1)[FIELD_MARK] != view.node_input:
            return False
        if not tree_check(view, ROUND_M1, ROOT):
            return False

        children = children_of(view, ROUND_M1, ROOT)
        counts = self._check_counts(view, children)
        if counts is None:
            return False

        verified = self._check_batch(view, ROUND_A0, ROUND_M1, children)
        if verified is None:
            return False

        if view.node == ROOT:
            k0, k1 = counts
            if k0 != k1:
                return True   # unequal sizes: trivially non-isomorphic
            if k0 != self.k:
                return False  # outside the size promise: reject
            if verified < self.threshold:
                return False
        return True

    def _check_counts(self, view: LocalView,
                      children: List[int]) -> Optional[Tuple[int, int]]:
        """Verify the per-mark subtree counts; returns the root's pair."""
        m1 = view.own_message(ROUND_M1)
        totals = []
        for mark, field in ((MARK_ZERO, FIELD_COUNT0),
                            (MARK_ONE, FIELD_COUNT1)):
            own = m1[field]
            if not isinstance(own, int) or not 0 <= own <= view.n:
                return None
            expected = 1 if view.node_input == mark else 0
            for u in children:
                child = view.message_of(ROUND_M1, u)[field]
                if not isinstance(child, int) or not 0 <= child <= view.n:
                    return None
                expected += child
            if own != expected:
                return None
            totals.append(own)
        return (totals[0], totals[1])

    def _sum_round(self, m_round: int) -> int:
        return ROUND_M3

    def _root_pinned(self, view: LocalView, echo: Tuple, own_random: Tuple,
                     reps: int) -> bool:
        # The root also pins the echoed distinctness points.
        return (super()._root_pinned(view, echo, own_random, reps)
                and view.own_message(ROUND_M3)[FIELD_ZECHO]
                == view.own_randomness(ROUND_A2))

    def claim_terms(self, view: LocalView, j: int, graph_bit: int,
                    tables: Sequence, s: int, seeds: Sequence[int],
                    c: int) -> Optional[Dict[str, int]]:
        n = view.n
        z = view.own_message(ROUND_M3)[FIELD_ZECHO][j]
        if not 0 <= z < self.z_prime:
            return None
        own_label = view.own_message(ROUND_M1)[FIELD_LABELS][j]
        if view.node_input != graph_bit:
            # Outside the claimed side: no label, just the seed offset.
            if own_label is not None:
                return None
            return self.marked_terms(None, 0, c, s, z)
        if not isinstance(own_label, int) or not 0 <= own_label < n:
            return None
        # Our row of the relabeled subgraph σ(H_b), from the neighbors'
        # labels and verified marks.
        row = 1 << own_label
        for u in view.neighbors:
            u_m1 = view.message_of(ROUND_M1, u)
            if u_m1.get(FIELD_MARK) == graph_bit:
                u_label = u_m1[FIELD_LABELS][j]
                if not isinstance(u_label, int) or not 0 <= u_label < n:
                    return None
                row |= 1 << u_label
        return self.marked_terms(own_label, row, c, s, z)

    def root_accepts(self, view: LocalView, j: int, values: Dict[str, int],
                     a: int, b: int, y: int) -> bool:
        # Distinctness: Σ_{marked b} z^{π_v} = Σ_{i<k} z^i iff the
        # labels are exactly {0..k-1}.
        z = view.own_message(ROUND_M3)[FIELD_ZECHO][j]
        target = sum(pow(z, i, self.z_prime)
                     for i in range(self.k)) % self.z_prime
        return (super().root_accepts(view, j, values, a, b, y)
                and values[FIELD_ZSUMS] == target)

    # -- provers -----------------------------------------------------------

    def honest_prover(self) -> Prover:
        return MarkedGSProver(self)


def _subtree_counts(graph: Graph, marks: Mapping[int, int],
                    advice: TreeAdvice
                    ) -> Dict[int, Tuple[int, int]]:
    """Per node, the number of 0- and 1-marked vertices in its subtree."""
    acc = {v: [1 if marks[v] == MARK_ZERO else 0,
               1 if marks[v] == MARK_ONE else 0]
           for v in graph.vertices}
    order = sorted(graph.vertices, key=lambda v: advice.dist[v],
                   reverse=True)
    for v in order:
        parent = advice.parent[v]
        if parent != v:
            acc[parent][0] += acc[v][0]
            acc[parent][1] += acc[v][1]
    return {v: (c[0], c[1]) for v, c in acc.items()}


class MarkedGSProver(GSProver):
    """Honest-and-optimal prover for the marked protocol."""

    _state: Optional[tuple] = None

    def reset(self) -> None:
        super().reset()
        self._state = None

    def respond(self, instance: Instance, round_idx: int,
                randomness: Mapping[int, Mapping[int, tuple]],
                own_messages: Mapping[int, Mapping[int, NodeMessage]],
                rng: random.Random) -> Dict[int, NodeMessage]:
        if round_idx == ROUND_M1:
            return self._commit(instance, randomness)
        if round_idx != ROUND_M3:
            raise ProtocolViolation(f"unexpected Merlin round {round_idx}")
        return self._sums(instance, randomness)

    def _commit(self, instance: Instance,
                randomness: Mapping[int, Mapping[int, tuple]]
                ) -> Dict[int, NodeMessage]:
        """M₁: marks, tree, counts, and per repetition a claim ``(b,)``
        with each claimed-side node's label."""
        protocol = self.protocol
        graph = instance.graph
        ctx = self.acquire_context(instance)
        marks = _marks(instance)
        advice = self._advice = ctx.tree_advice(ROOT)
        sides = (marked_subgraph(graph, marks, MARK_ZERO),
                 marked_subgraph(graph, marks, MARK_ONE))
        reps = protocol.repetitions
        batch0 = randomness[ROUND_A0]
        echo = self._echo(batch0, reps)
        labelings: List[Optional[Tuple[int, Dict[int, int]]]] = [None] * reps
        if sides[0][0].n == sides[1][0].n == protocol.k:
            found = self._witnesses(instance, echo, batch0)
            for j, witness in enumerate(found):
                if witness is not None:
                    graph_bit, labeling = witness
                    labelings[j] = (graph_bit,
                                    dict(zip(sides[graph_bit][1], labeling)))
        else:
            self.last_claim_flags = [False] * reps
        counts = ctx.memo("gni_marked.counts",
                          lambda: _subtree_counts(graph, marks, advice))
        self._state = (marks, echo, labelings)
        claims = tuple(None if claimed is None else (claimed[0],)
                       for claimed in labelings)
        return {v: {
            FIELD_MARK: marks[v],
            FIELD_PARENT: advice.parent[v],
            FIELD_DIST: advice.dist[v],
            FIELD_COUNT0: counts[v][0],
            FIELD_COUNT1: counts[v][1],
            FIELD_ECHO: echo,
            FIELD_CLAIMS: claims,
            FIELD_LABELS: tuple(None if claimed is None
                                else claimed[1].get(v)
                                for claimed in labelings),
        } for v in graph.vertices}

    def _sums(self, instance: Instance,
              randomness: Mapping[int, Mapping[int, tuple]]
              ) -> Dict[int, NodeMessage]:
        """M₃: the echoed z points and, per claimed repetition, the
        ε-API and distinctness aggregates."""
        protocol = self.protocol
        graph = instance.graph
        marks, echo, labelings = self._state
        batch0 = randomness[ROUND_A0]
        z_values = randomness[ROUND_A2][ROOT]
        sums: List[Optional[Dict[str, Dict[int, int]]]] = []
        for j, claimed in enumerate(labelings):
            if claimed is None:
                sums.append(None)
                continue
            graph_bit, labels = claimed
            s, z = echo[j][0], z_values[j]
            terms = {}
            for v in graph.vertices:
                c = batch0[v][j][0]
                if marks[v] != graph_bit:
                    terms[v] = protocol.marked_terms(None, 0, c, s, z)
                    continue
                row = 1 << labels[v]
                for u in graph.neighbors(v):
                    if marks[u] == graph_bit:
                        row |= 1 << labels[u]
                terms[v] = protocol.marked_terms(labels[v], row, c, s, z)
            sums.append(self._aggregates(graph, terms))
        return {v: {FIELD_ZECHO: tuple(z_values), **self._indexed(sums, v)}
                for v in graph.vertices}


# -- cost declaration -----------------------------------------------------

#: The marked-graph variant adds per-node mark/count fields
#: (identifier-width) to the GS skeleton; every phase stays
#: Θ(n log n) for constant repetitions.
COST_DECLARATIONS = (
    gs_cost_declaration(
        "gni-marked-8", "GNI on marked graphs (8 repetitions)",
        "Section 4 (marked-graph reduction)",
        ("batch-1 eps-API seeds",
         "batch-1 echo, marks/counts, claims + aggregates",
         "batch-2 eps-API seeds",
         "batch-2 echo, claims + aggregates")),
)
