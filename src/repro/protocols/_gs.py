"""The Goldwasser–Sipser skeleton shared by the GNI family.

Theorem 1.5 / Section 4 describes one protocol shape, whatever the set
``S`` whose size doubles exactly on YES instances: Arthur sends a hash
challenge, Merlin claims a preimage in ``S``, the nodes aggregate their
row hashes up a spanning tree, and the root finalizes the hash and
counts surviving claims against a threshold (see
:mod:`repro.protocols.gni` for the full walk-through).

:class:`GSProtocol` and :class:`GSProver` own that shape once:

* construction — the output range ``q``, the ε-API hash, one batch of
  repetitions per Arthur–Merlin pair of ``pattern`` (so the dAM[k]
  round/bit trade-offs are pattern strings, not modules) and the
  threshold;
* the analytic bounds, with a per-variant NO-side slack;
* per-repetition challenge sampling ``(c_v, s, a, b, y)`` plus the
  seeds of any extra hash family a variant needs;
* root echo pinning, range checks, the ``merlin_bits`` charging of
  echo, claims and per-repetition sequences, and one indexed
  aggregate check over :func:`~repro.network.spanning_tree.children_of`;
* the prover's catalog memo, witness search and response assembly;
* the phase bill behind each variant's ``COST_DECLARATIONS``;
* :func:`relabeler`, the relabeled-matrix encoder every variant's
  catalog enumerates ``S`` with.

A variant only says how it encodes ``S``: its witness catalog, the
permutation tables a claim carries, each node's terms of the
aggregated quantities, and any extra test at the root.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

from ..core.amplify import choose_threshold, threshold_guarantees
from ..core.model import (Instance, LocalView, NodeMessage, Protocol,
                          ProtocolViolation, Prover, PATTERN_DAMAM,
                          ROUND_ARTHUR, bits_for_identifier, bits_for_value,
                          field_cost, sequence_field, uint_fits,
                          uint_tuple_fits)
from ..graphs.graph import Graph, bits_of_mask
from ..hashing.api import APIChallenge, DistributedAPIHash, gs_output_modulus
from ..ledger.declare import (CHANNEL_ARTHUR, CHANNEL_MERLIN, CostDeclaration,
                              phase)
from ..network.spanning_tree import (FIELD_DIST, FIELD_PARENT, children_of,
                                     tree_check)
from ._tree_hash import closed_row_bits, honest_aggregates

FIELD_ECHO = "echo"
FIELD_CLAIMS = "claims"
FIELD_PARTIALS = "partials"

ROUND_A0 = 0
ROUND_M1 = 1
ROUND_A2 = 2
ROUND_M3 = 3

#: The spanning tree root is fixed publicly; the prover picks nothing.
GS_ROOT = 0

Witness = Tuple[Any, ...]
#: An encoding of ``S`` with the positions of its set bits.
SearchEntry = Tuple[int, Tuple[int, ...]]


def relabeler(graph: Graph, stride: int) -> Callable[[Sequence[int]], int]:
    """The encoder of ``graph``'s relabelings: ``σ ↦`` the closed
    adjacency matrix of ``σ(graph)``, row ``σ(v)`` at bit offset
    ``σ(v)·stride`` — bit ``σ(v)·stride + σ(u)`` for every
    ``u ∈ N[v]``.  The rows' members are decoded once per graph, not
    once per σ; ``σ`` may be longer than ``graph.n``."""
    rows = tuple(enumerate(map(graph.closed_neighborhood, graph.vertices)))

    def encode(sigma: Sequence[int]) -> int:
        bits = 0
        for v, members in rows:
            base = sigma[v] * stride
            for u in members:
                bits |= 1 << (base + sigma[u])
        return bits
    return encode


def search_entries(encodings: Iterable[int]) -> Tuple[SearchEntry, ...]:
    """Each encoding, in order, with its set-bit positions: what
    :meth:`~repro.hashing.api.DistributedAPIHash.preimage_exists`
    scans, so a challenge costs one power-table sum per encoding."""
    return tuple((encoding, bits_of_mask(encoding))
                 for encoding in encodings)


@dataclass(frozen=True)
class GNIGuarantees:
    """Analytic per-repetition bounds and the amplified guarantee."""

    p_yes_lower: float
    p_no_upper: float
    repetitions: int
    threshold: int
    completeness: float
    soundness_error: float


class GSProtocol(Protocol):
    """The Section-4 round structure over a variant's set ``S``.

    A variant passes ``|S|`` on YES instances and the hash domain width
    to :meth:`__init__`, and defines :meth:`catalog` (``S`` with
    witnesses), :meth:`node_terms` (a node's terms of each aggregate)
    and, where it adds checks, :meth:`aggregates` and
    :meth:`root_accepts`.  Instances follow Definition 4 — network
    ``G₀``, each node's closed ``G₁`` row as input — unless a variant
    overrides :meth:`claim_terms` and :meth:`instance_graphs`.
    """

    pattern = PATTERN_DAMAM
    #: Permutation tables a claim carries after its graph bit.
    claim_tables = 1
    #: Extra hash families whose seeds the root appends to each
    #: challenge (after ``(s, a, b, y)``) and the prover echoes.
    seed_families: Tuple[Any, ...] = ()
    #: ``InstanceContext.memo`` key of the witness catalog (one per
    #: variant: a shared context must never hand one variant's catalog
    #: to another).
    catalog_key: Any = None

    def __init__(self, n: int, repetitions: int, q: Optional[int],
                 big_q: Optional[int], threshold: Optional[int], *,
                 set_size_yes: int, hash_bits: int) -> None:
        if n < 2:
            raise ValueError("GNI needs at least 2 vertices")
        batches = len(self.round_pairs())
        if repetitions < batches:
            raise ValueError("need at least one repetition per batch")
        self.n = n
        self.set_size_yes = set_size_yes
        self.q = q if q is not None else gs_output_modulus(set_size_yes)
        self.hash = DistributedAPIHash(m=hash_bits, q=self.q, big_q=big_q)
        # Earlier batches take the remainder: 5 -> (3, 2).
        self.batch_sizes = tuple(
            repetitions // batches + (index < repetitions % batches)
            for index in range(batches))
        p_yes, p_no = self.repetition_bounds()
        self.threshold = (threshold if threshold is not None
                          else choose_threshold(repetitions, p_yes, p_no))

    def round_pairs(self) -> Tuple[Tuple[int, int], ...]:
        """The (Arthur round, Merlin round) pair of each batch: every
        Arthur round of the pattern with the Merlin round answering it."""
        return tuple((index, index + 1)
                     for index, kind in enumerate(self.pattern)
                     if kind == ROUND_ARTHUR)

    def _batch(self, a_round: int) -> int:
        return [arthur for arthur, _ in self.round_pairs()].index(a_round)

    def _arthur_of(self, m_round: int) -> Optional[int]:
        """The Arthur round a batch's Merlin round answers (None if
        ``m_round`` carries no claims)."""
        return {merlin: arthur
                for arthur, merlin in self.round_pairs()}.get(m_round)

    # -- analysis ----------------------------------------------------------

    @property
    def repetitions(self) -> int:
        return sum(self.batch_sizes)

    @property
    def no_slack(self) -> float:
        """Per-repetition chance that a claim outside ``S`` survives a
        variant's extra check (added to the NO-side bound)."""
        return 0.0

    def repetition_bounds(self) -> Tuple[float, float]:
        """(YES lower bound, NO upper bound) on per-repetition success.

        Inclusion–exclusion with the ε-API axioms:
        ``Pr[∃x ∈ S : h(x) = y] ≥ |S|(1−δ)/q − (1+ε)|S|²/(2q²)`` and
        ``≤ |S|(1+δ)/q``, plus :attr:`no_slack` on the NO side.
        """
        eps, delta = self.hash.epsilon, self.hash.delta
        s_yes = self.set_size_yes
        s_no = s_yes // 2
        p_yes = (s_yes * (1 - delta) / self.q
                 - (1 + eps) * s_yes * s_yes / (2 * self.q * self.q))
        p_no = s_no * (1 + delta) / self.q + self.no_slack
        return p_yes, p_no

    def guarantees(self) -> GNIGuarantees:
        """The analytic completeness / soundness of this configuration."""
        p_yes, p_no = self.repetition_bounds()
        completeness, soundness = threshold_guarantees(
            self.repetitions, self.threshold, p_yes, p_no)
        return GNIGuarantees(
            p_yes_lower=p_yes, p_no_upper=p_no,
            repetitions=self.repetitions, threshold=self.threshold,
            completeness=completeness, soundness_error=soundness)

    # -- the set S ---------------------------------------------------------

    def catalog(self, g0: Graph, g1: Graph) -> Dict[int, Witness]:
        """``S`` with witnesses: encoding ↦ (b, tables...), keeping the
        first witness the enumeration meets for each encoding."""
        raise NotImplementedError

    def instance_graphs(self, instance: Instance) -> Tuple[Graph, Graph]:
        """Definition 4: the network ``G₀`` and ``G₁`` from its rows."""
        n = instance.n
        full = (1 << n) - 1
        edges = []
        for v in range(n):
            upper = instance.input_of(v) & (full >> (v + 1) << (v + 1))
            edges.extend((v, u) for u in bits_of_mask(upper))
        return instance.graph, Graph(n, edges)

    def node_terms(self, v: int, row: int, c: int, tables: Sequence[Any],
                   s: int, seeds: Sequence[int]) -> Dict[str, int]:
        """Node ``v``'s term of each aggregate for a claim, given its
        row of ``G_b``, its seed offset ``c`` and the echoed seeds."""
        raise NotImplementedError

    def aggregates(self) -> Tuple[Tuple[str, int], ...]:
        """The per-repetition subtree aggregates and their moduli."""
        return ((FIELD_PARTIALS, self.hash.big_q),)

    # -- model -------------------------------------------------------------

    def validate_instance(self, instance: Instance) -> None:
        super().validate_instance(instance)
        if instance.n != self.n:
            raise ValueError(
                f"protocol built for n={self.n}, instance has n={instance.n}")
        self._check_inputs(instance)

    def _check_inputs(self, instance: Instance) -> None:
        if instance.inputs is None:
            raise ValueError("GNI instances carry G₁ rows as node inputs")
        for v in instance.graph.vertices:
            row = instance.input_of(v)
            if (not isinstance(row, int) or row >> self.n
                    or not (row >> v) & 1):
                raise ValueError(
                    f"node {v} input is not a closed G₁ adjacency row")

    # -- Arthur ----------------------------------------------------------

    def _sample_repetition(self, rng: random.Random) -> Tuple[int, ...]:
        return ((self.hash.sample_node_offset(rng),)
                + self.hash.sample_root_part(rng)
                + tuple(family.sample_seed(rng)
                        for family in self.seed_families))

    def arthur_value(self, instance: Instance, round_idx: int, v: int,
                     rng: random.Random) -> Tuple[Tuple[int, ...], ...]:
        """Per repetition: ``(c_v, s, a, b, y)`` plus the extra seeds.

        Every node samples the full tuple so challenges are identically
        distributed; the shared parts are only *used* from the root's
        challenge, as in Protocol 1's root-randomness trick.
        """
        reps = self.batch_sizes[self._batch(round_idx)]
        return tuple(self._sample_repetition(rng) for _ in range(reps))

    def arthur_bits(self, instance: Instance, round_idx: int) -> int:
        reps = self.batch_sizes[self._batch(round_idx)]
        return reps * (self.hash.node_seed_bits + sum(self._echo_widths()))

    # -- Merlin ----------------------------------------------------------

    def _echo_widths(self) -> Tuple[int, ...]:
        """Widths of an echo entry ``(s, a, b, y, seeds...)``."""
        node_bits = self.hash.node_seed_bits
        return ((node_bits,) * 3
                + (self.hash.root_seed_bits - 3 * node_bits,)
                + tuple(family.seed_bits for family in self.seed_families))

    def scalar_widths(self, round_idx: int) -> Tuple[Tuple[str, int], ...]:
        """Fixed-width fields of a Merlin round: the tree advice in M1."""
        if round_idx != ROUND_M1:
            return ()
        id_bits = bits_for_identifier(self.n)
        return ((FIELD_PARENT, id_bits), (FIELD_DIST, id_bits))

    def indexed_widths(self, round_idx: int) -> Tuple[Tuple[str, int], ...]:
        """Per-repetition sequences of a Merlin round (entry widths)."""
        return tuple((field, bits_for_value(modulus))
                     for field, modulus in self.aggregates())

    def broadcast_fields(self, round_idx: int) -> FrozenSet[str]:
        return frozenset({FIELD_ECHO, FIELD_CLAIMS})

    def merlin_fields(self, round_idx: int) -> FrozenSet[str]:
        fields = {name for name, _ in (self.scalar_widths(round_idx)
                                       + self.indexed_widths(round_idx))}
        if self._arthur_of(round_idx) is not None:
            fields |= {FIELD_ECHO, FIELD_CLAIMS}
        return frozenset(fields)

    def merlin_bits(self, instance: Instance, round_idx: int,
                    message: NodeMessage) -> int:
        # Every entry is charged only when well-formed: malformed ones
        # ride the codec's escape lane and cost 0 bits.
        total = sum(field_cost(message, name, width)
                    for name, width in self.scalar_widths(round_idx))
        for name, width in self.indexed_widths(round_idx):
            total += width * sum(uint_fits(value, width) for value
                                 in sequence_field(message, name))
        if self._arthur_of(round_idx) is None:
            return total
        widths = self._echo_widths()
        for item in sequence_field(message, FIELD_ECHO):
            if (isinstance(item, tuple) and len(item) == len(widths)
                    and all(uint_fits(part, width)
                            for part, width in zip(item, widths))):
                total += sum(widths)
        id_bits = bits_for_identifier(self.n)
        for claim in sequence_field(message, FIELD_CLAIMS):
            if claim is None:
                total += 1  # the found/pass bit
            elif (isinstance(claim, tuple)
                    and len(claim) == 1 + self.claim_tables
                    and uint_fits(claim[0], 1)
                    and all(uint_tuple_fits(table, self.n, id_bits)
                            for table in claim[1:])):
                # pass + graph bit + the permutation tables
                total += 2 + self.claim_tables * self.n * id_bits
        return total

    # -- decision ----------------------------------------------------------

    def decide(self, view: LocalView) -> bool:
        if not tree_check(view, ROUND_M1, GS_ROOT):
            return False
        children = children_of(view, ROUND_M1, GS_ROOT)
        verified = 0
        for a_round, m_round in self.round_pairs():
            count = self._check_batch(view, a_round, m_round, children)
            if count is None:
                return False
            verified += count
        return view.node != GS_ROOT or verified >= self.threshold

    def _sum_round(self, m_round: int) -> int:
        """The Merlin round carrying the aggregates of ``m_round``'s
        claims."""
        return m_round

    def _check_batch(self, view: LocalView, a_round: int, m_round: int,
                     children: List[int]) -> Optional[int]:
        """Verify one batch at this node; None = reject, else the number
        of claims this node could verify (final hash check root-only)."""
        reps = self.batch_sizes[self._batch(a_round)]
        msg = view.own_message(m_round)
        echo, claims = msg[FIELD_ECHO], msg[FIELD_CLAIMS]
        sequences = [echo, claims] + [
            msg[name] for name, _ in self.indexed_widths(m_round)]
        sum_round = self._sum_round(m_round)
        if sum_round != m_round:
            sums = view.own_message(sum_round)
            sequences += [sums[name]
                          for name, _ in self.indexed_widths(sum_round)]
        if not all(isinstance(seq, tuple) and len(seq) == reps
                   for seq in sequences):
            return None
        own_random = view.own_randomness(a_round)
        if view.node == GS_ROOT \
                and not self._root_pinned(view, echo, own_random, reps):
            return None
        claimed = 0
        for j in range(reps):
            if claims[j] is None:
                continue
            if not self._check_claim(view, j, claims[j], echo[j],
                                     own_random[j][0], sum_round,
                                     children):
                return None
            claimed += 1
        return claimed

    def _root_pinned(self, view: LocalView, echo: Tuple[Any, ...],
                     own_random: Tuple[Any, ...], reps: int) -> bool:
        """The root pins the echoed shared parts to its own coins."""
        return all(tuple(echo[j]) == tuple(own_random[j][1:])
                   for j in range(reps))

    def _check_claim(self, view: LocalView, j: int, claim: Any, entry: Any,
                     c: int, sum_round: int, children: List[int]) -> bool:
        graph_bit, *tables = claim
        if graph_bit not in (0, 1) or len(tables) != self.claim_tables:
            return False
        # Every table must be a genuine permutation.
        if not all(isinstance(table, tuple)
                   and sorted(table) == list(range(view.n))
                   for table in tables):
            return False
        s, a, b, y, *seeds = entry
        big_q = self.hash.big_q
        if not (0 <= s < big_q and 0 <= a < big_q and 0 <= b < big_q
                and 0 <= y < self.q
                and len(seeds) == len(self.seed_families)
                and all(0 <= seed < family.p for seed, family
                        in zip(seeds, self.seed_families))):
            return False
        terms = self.claim_terms(view, j, graph_bit, tables, s, seeds, c)
        if terms is None:
            return False
        values = {}
        for field, modulus in self.aggregates():
            value = self._aggregate(view, sum_round, field, j, terms[field],
                                    modulus, children)
            if value is None:
                return False
            values[field] = value
        # A false claim is an immediate reject at the root.
        return view.node != GS_ROOT \
            or self.root_accepts(view, j, values, a, b, y)

    def claim_terms(self, view: LocalView, j: int, graph_bit: int,
                    tables: Sequence[Any], s: int, seeds: Sequence[int],
                    c: int) -> Optional[Dict[str, int]]:
        """This node's terms for claimed repetition ``j`` (None =
        reject), from its Definition-4 row of ``G_b``."""
        row = closed_row_bits(view) if graph_bit == 0 else view.node_input
        if not isinstance(row, int):
            return None
        return self.node_terms(view.node, row, c, tables, s, seeds)

    def _aggregate(self, view: LocalView, round_idx: int, field: str,
                   rep: int, own_term: int, modulus: int,
                   children: List[int]) -> Optional[int]:
        """Check one indexed aggregate; returns the node's value or None."""
        own_value = view.own_message(round_idx)[field][rep]
        if not isinstance(own_value, int) or not 0 <= own_value < modulus:
            return None
        total = own_term % modulus
        for u in children:
            child = view.message_of(round_idx, u)[field][rep]
            if not isinstance(child, int) or not 0 <= child < modulus:
                return None
            total = (total + child) % modulus
        return own_value if own_value == total else None

    def root_accepts(self, view: LocalView, j: int, values: Dict[str, int],
                     a: int, b: int, y: int) -> bool:
        """The root's final test of a verified claim: ``h(x) = y``."""
        return self.hash.finalize(a, b, values[FIELD_PARTIALS]) == y


class GSProver(Prover):
    """The canonical GS prover — honest on YES instances and *optimal*
    on NO instances alike: per repetition it claims a witness exactly
    when one exists (all other behavior is dominated: a false claim is
    rejected by the root deterministically, and forged aggregates are
    caught by the tree checks)."""

    def __init__(self, protocol: GSProtocol) -> None:
        self.protocol = protocol
        self._advice = None
        #: Per-repetition success flags of the last execution (for tests).
        self.last_claim_flags: List[bool] = []

    def reset(self) -> None:
        self._advice = None
        self.last_claim_flags = []

    def _catalog(self, instance: Instance) -> Dict[int, Witness]:
        # The catalog enumeration is by far the dominant cost; memoized
        # on the batch context so it is built once per instance, not
        # per trial.
        protocol = self.protocol
        return self.acquire_context(instance).memo(
            protocol.catalog_key,
            lambda: protocol.catalog(*protocol.instance_graphs(instance)))

    def _search_entries(self, instance: Instance) -> Tuple[SearchEntry, ...]:
        """The catalog's encodings with their set-bit positions, decoded
        once per instance next to the catalog memo."""
        return self.acquire_context(instance).memo(
            (self.protocol.catalog_key, "positions"),
            lambda: search_entries(self._catalog(instance)))

    @staticmethod
    def _echo(batch_random: Mapping[int, Any],
              reps: int) -> Tuple[Tuple[int, ...], ...]:
        return tuple(tuple(batch_random[GS_ROOT][j][1:])
                     for j in range(reps))

    def _witnesses(self, instance: Instance,
                   echo: Tuple[Tuple[int, ...], ...],
                   batch_random: Mapping[int, Any]
                   ) -> List[Optional[Witness]]:
        """Per repetition, the first catalog witness hashing to the
        target (None if the challenge has no preimage in ``S``)."""
        catalog = self._catalog(instance)
        entries = self._search_entries(instance)
        found: List[Optional[Witness]] = []
        for j, (s, a, b, y, *_seeds) in enumerate(echo):
            offsets = tuple(batch_random[v][j][0]
                            for v in range(instance.n))
            encoding = self.protocol.hash.preimage_exists(
                APIChallenge(s=s, a=a, b=b, y=y, offsets=offsets), entries)
            found.append(None if encoding is None else catalog[encoding])
            self.last_claim_flags.append(encoding is not None)
        return found

    def _aggregates(self, graph: Graph, terms: Mapping[int, Dict[str, int]]
                    ) -> Dict[str, Dict[int, int]]:
        """The honest subtree sums of each aggregate's node terms."""
        return {field: honest_aggregates(
                    graph, self._advice,
                    lambda v, _field=field: terms[v][_field], modulus)
                for field, modulus in self.protocol.aggregates()}

    def _indexed(self, sums: Sequence[Optional[Dict[str, Dict[int, int]]]],
                 v: int) -> Dict[str, Tuple[Optional[int], ...]]:
        """Node ``v``'s per-repetition aggregate sequences."""
        return {field: tuple(None if per is None else per[field][v]
                             for per in sums)
                for field, _ in self.protocol.aggregates()}

    def respond(self, instance: Instance, round_idx: int,
                randomness: Mapping[int, Mapping[int, Tuple]],
                own_messages: Mapping[int, Mapping[int, NodeMessage]],
                rng: random.Random) -> Dict[int, NodeMessage]:
        protocol = self.protocol
        a_round = protocol._arthur_of(round_idx)
        if a_round is None:
            raise ProtocolViolation(f"unexpected Merlin round {round_idx}")
        graph = instance.graph
        if self._advice is None:
            self._advice = self.acquire_context(instance).tree_advice(
                GS_ROOT)
        batch_random = randomness[a_round]
        echo = self._echo(batch_random,
                          protocol.batch_sizes[protocol._batch(a_round)])
        witnesses = self._witnesses(instance, echo, batch_random)
        sums: List[Optional[Dict[str, Dict[int, int]]]] = []
        for j, witness in enumerate(witnesses):
            if witness is None:
                sums.append(None)
                continue
            graph_bit, *tables = witness
            s, _a, _b, _y, *seeds = echo[j]
            terms = {v: protocol.node_terms(
                         v, (graph.closed_row(v) if graph_bit == 0
                             else instance.input_of(v)),
                         batch_random[v][j][0], tables, s, seeds)
                     for v in graph.vertices}
            sums.append(self._aggregates(graph, terms))
        claims = tuple(witnesses)
        response: Dict[int, NodeMessage] = {}
        for v in graph.vertices:
            msg: NodeMessage = {FIELD_ECHO: echo, FIELD_CLAIMS: claims,
                                **self._indexed(sums, v)}
            if round_idx == ROUND_M1:
                msg[FIELD_PARENT] = self._advice.parent[v]
                msg[FIELD_DIST] = self._advice.dist[v]
            response[v] = msg
        return response


def per_repetition_success_rate(g0: Graph, g1: Graph, protocol: GSProtocol,
                                samples: int,
                                rng: random.Random) -> float:
    """Monte-Carlo estimate of a single repetition's success probability
    (the chance a random challenge has a preimage in the protocol's
    set ``S`` for the graph pair).

    This is the quantity the analytic bounds of
    :meth:`GSProtocol.repetition_bounds` sandwich; the amplified
    acceptance probability is its exact binomial tail.
    """
    entries = search_entries(protocol.catalog(g0, g1))
    hits = 0
    for _ in range(samples):
        challenge = protocol.hash.sample_challenge(protocol.n, rng)
        if protocol.hash.preimage_exists(challenge, entries) is not None:
            hits += 1
    return hits / samples


#: Every GS phase bills Θ(n log n) bits per node: seeds, echoes and
#: aggregates live in fields of ~log(n!) bits and permutation tables
#: are n identifiers, with the constant repetition count absorbed into
#: each phase's fitted leading constant.
GS_PHASE_BOUND = "c * n * log2(n)"


def gs_cost_declaration(key: str, title: str, reference: str,
                        notes: Sequence[str],
                        total_note: str = "O(n log n) bits per node for "
                                          "constant repetitions"
                        ) -> CostDeclaration:
    """A GS variant's dAMAM phase bill; ``notes`` describe the rounds
    A0, M1, A2 and M3 in order."""
    return CostDeclaration(
        key=key, title=title, pattern=PATTERN_DAMAM,
        asymptotic="O(n log n)", reference=reference,
        phases=tuple(
            phase(f"{kind}{index}",
                  CHANNEL_ARTHUR if kind == ROUND_ARTHUR else CHANNEL_MERLIN,
                  GS_PHASE_BOUND, note)
            for index, (kind, note) in enumerate(zip(PATTERN_DAMAM, notes))),
        total=phase("total", CHANNEL_MERLIN, GS_PHASE_BOUND, total_note))
