"""Simple protocols on dumbbells, and their response-set semantics.

The brute-force half of the Section-3.4 lower bound machinery.  A
*simple* dAM protocol (Definition 6) is one where the two bridge nodes
``x_A, x_B`` accept only if they received the *same* prover message,
plus a local predicate ``f`` on (neighborhood challenges, the shared
message).  Lemma 3.7 says any dAM protocol can be made simple at 4×
cost; Lemmas 3.8–3.9 then characterize the best prover's acceptance
probability on ``G(F_A, F_B)`` via the *response sets*

    M_A(F, r) = { m : the message m to x_A extends to messages for
                  V_A ∪ {x_A} making that whole side accept },

and Lemma 3.11 forces the challenge-induced distributions of these
sets to be pairwise far apart for a correct Sym protocol.  All of
that is *executable* at small scale, and this module executes it:
response sets by exhaustive search over prover messages, acceptance
probabilities both via Lemma 3.9's characterization and by direct
search over full prover responses (the tests check they agree), and
the induced distributions μ_A(F).

Protocols here are intentionally tiny and abstract — messages and
challenges are L-bit integers — because the search space is
``2^{L·(n+1)}`` per challenge.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence

from ..graphs.dumbbell import DumbbellLayout, lower_bound_dumbbell
from ..graphs.graph import Graph
from .packing import empirical_distribution

Challenge = Mapping[int, int]   # node -> L-bit challenge
Response = Mapping[int, int]    # node -> L-bit prover message


class SimpleBridgeProtocol(ABC):
    """A simple 1-round dAM protocol on lower-bound dumbbells.

    ``length`` is L: challenges and messages are integers in
    ``[0, 2^L)``.  Decision functions:

    * :meth:`out_side` — the decision of a non-bridge node ``v``,
      given the dumbbell graph and the challenges/messages of its
      closed neighborhood;
    * :meth:`bridge_predicate` — the ``f_{x_A}``/``f_{x_B}`` of
      Definition 6 (the equality ``M_{x_A} = M_{x_B}`` is enforced by
      the framework, not by the predicate).
    """

    def __init__(self, length: int) -> None:
        if length < 1:
            raise ValueError("protocol length must be at least 1")
        self.length = length

    @property
    def message_space(self) -> range:
        return range(1 << self.length)

    @abstractmethod
    def out_side(self, graph: Graph, v: int, r_local: Challenge,
                 m_local: Response) -> bool:
        """Decision of a non-bridge node."""

    @abstractmethod
    def bridge_predicate(self, graph: Graph, bridge: int,
                         r_local: Challenge, m: int) -> bool:
        """``f_bridge(R_{N(bridge)}, m)`` for a bridge node."""

    def analytic_response_set(self, f_side: Graph, challenge: Challenge,
                              side: str) -> Optional[FrozenSet[int]]:
        """Closed-form ``M_A/M_B`` if the protocol knows one, else None.

        Protocols with large message spaces (e.g. the n²-bit
        :class:`EncodingProtocol`) override this; the brute-force
        search is used otherwise, and the tests cross-check the two on
        protocols small enough to afford both.
        """
        return None


def _local(assignment: Mapping[int, int], graph: Graph,
           v: int) -> Dict[int, int]:
    closed = graph.closed_neighborhood(v)
    return {u: assignment[u] for u in closed if u in assignment}


def sample_challenge(layout: DumbbellLayout, length: int,
                     rng: random.Random) -> Dict[int, int]:
    """A uniform challenge for every node of the dumbbell."""
    return {v: rng.randrange(1 << length)
            for v in range(layout.total_n)}


def response_set_a(protocol: SimpleBridgeProtocol, f_side: Graph,
                   challenge: Challenge) -> FrozenSet[int]:
    """``M_A(F, r)``: messages to ``x_A`` extendable over side A.

    Exhaustive search over prover messages to ``V_A``; the graph used
    is ``G(F, F)`` as in the paper's definition.
    """
    return _response_set(protocol, f_side, challenge, side="A")


def response_set_b(protocol: SimpleBridgeProtocol, f_side: Graph,
                   challenge: Challenge) -> FrozenSet[int]:
    """``M_B(F, r)``: messages to ``x_B`` extendable over side B."""
    return _response_set(protocol, f_side, challenge, side="B")


def _response_set(protocol: SimpleBridgeProtocol, f_side: Graph,
                  challenge: Challenge, side: str) -> FrozenSet[int]:
    analytic = protocol.analytic_response_set(f_side, challenge, side)
    if analytic is not None:
        return analytic
    graph = lower_bound_dumbbell(f_side, f_side)
    layout = DumbbellLayout(f_side.n)
    if side == "A":
        side_nodes = list(layout.side_a)
        bridge = layout.x_a
    else:
        side_nodes = list(layout.side_b)
        bridge = layout.x_b

    good: List[int] = []
    space = protocol.message_space
    for m in space:
        if not protocol.bridge_predicate(graph, bridge,
                                         _local(challenge, graph, bridge),
                                         m):
            continue
        if _extends(protocol, graph, side_nodes, bridge, m, challenge):
            good.append(m)
    return frozenset(good)


def _extends(protocol: SimpleBridgeProtocol, graph: Graph,
             side_nodes: Sequence[int], bridge: int, bridge_message: int,
             challenge: Challenge) -> bool:
    """Is there an assignment of messages to ``side_nodes`` making every
    side node accept, given the bridge's message?"""
    space = protocol.message_space
    for values in itertools.product(space, repeat=len(side_nodes)):
        assignment = dict(zip(side_nodes, values))
        assignment[bridge] = bridge_message
        if all(protocol.out_side(graph, v,
                                 _local(challenge, graph, v),
                                 _local(assignment, graph, v))
               for v in side_nodes):
            return True
    return False


def lemma39_acceptance(protocol: SimpleBridgeProtocol, f_a: Graph,
                       f_b: Graph, challenges: int,
                       rng: random.Random) -> float:
    """Lemma 3.9: best-prover acceptance on ``G(F_A, F_B)`` equals
    ``Pr_r[M_A(F_A, r) ∩ M_B(F_B, r) ≠ ∅]`` — estimated by sampling."""
    layout = DumbbellLayout(f_a.n)
    hits = 0
    for _ in range(challenges):
        challenge = sample_challenge(layout, protocol.length, rng)
        set_a = response_set_a(protocol, f_a, challenge)
        set_b = response_set_b(protocol, f_b, challenge)
        if set_a & set_b:
            hits += 1
    return hits / challenges


def direct_acceptance(protocol: SimpleBridgeProtocol, f_a: Graph,
                      f_b: Graph, challenges: int,
                      rng: random.Random) -> float:
    """Best-prover acceptance by *direct* search over full responses on
    the actual graph ``G(F_A, F_B)`` — the ground truth Lemma 3.8/3.9
    must reproduce (tests compare the two with a shared seed)."""
    graph = lower_bound_dumbbell(f_a, f_b)
    layout = DumbbellLayout(f_a.n)
    side_a = list(layout.side_a)
    side_b = list(layout.side_b)
    space = protocol.message_space
    hits = 0
    for _ in range(challenges):
        challenge = sample_challenge(layout, protocol.length, rng)
        found = False
        for m in space:
            ok_a = protocol.bridge_predicate(
                graph, layout.x_a, _local(challenge, graph, layout.x_a), m)
            ok_b = protocol.bridge_predicate(
                graph, layout.x_b, _local(challenge, graph, layout.x_b), m)
            if not (ok_a and ok_b):
                continue
            if _extends(protocol, graph, side_a, layout.x_a, m, challenge) \
                    and _extends(protocol, graph, side_b, layout.x_b, m,
                                 challenge):
                found = True
                break
        if found:
            hits += 1
    return hits / challenges


def mu_a(protocol: SimpleBridgeProtocol, f_side: Graph, challenges: int,
         rng: random.Random) -> Dict[FrozenSet[int], float]:
    """The distribution ``μ_A(F)`` of the response set over challenges,
    estimated empirically (domain: subsets of the message space)."""
    layout = DumbbellLayout(f_side.n)
    samples = []
    for _ in range(challenges):
        challenge = sample_challenge(layout, protocol.length, rng)
        samples.append(response_set_a(protocol, f_side, challenge))
    return empirical_distribution(samples)


# ----------------------------------------------------------------------
# Concrete toy protocols instantiating the framework
# ----------------------------------------------------------------------


class EncodingProtocol(SimpleBridgeProtocol):
    """The canonical *correct* simple protocol (deterministic, L = n²-ish).

    The prover must hand every node of a side the full edge encoding of
    that side's graph; each node checks its own row inside the message
    and that its neighbors hold the identical message.  The bridge
    equality then accepts iff the two sides are equal as labeled
    graphs — which on the lower-bound family is exactly Sym membership.
    Its μ_A(F) distributions are point masses at distinct singletons,
    the extreme case of Lemma 3.11 (pairwise L1 distance 2).
    """

    def __init__(self, inner_n: int) -> None:
        self.inner_n = inner_n
        self.layout = DumbbellLayout(inner_n)
        bits = inner_n * (inner_n - 1) // 2
        super().__init__(length=max(1, bits))
        self._pairs = list(itertools.combinations(range(inner_n), 2))

    def _side_offset(self, v: int) -> Optional[int]:
        if v in self.layout.side_a:
            return 0
        if v in self.layout.side_b:
            return self.inner_n
        return None

    def out_side(self, graph: Graph, v: int, r_local: Challenge,
                 m_local: Response) -> bool:
        offset = self._side_offset(v)
        if offset is None:
            return True
        own = m_local[v]
        rel = v - offset
        # Row check: bit for pair (rel, w) must match the actual edge.
        for idx, (u, w) in enumerate(self._pairs):
            if rel not in (u, w):
                continue
            other = (w if rel == u else u) + offset
            if bool(own >> idx & 1) != graph.has_edge(v, other):
                return False
        # Consistency with same-side neighbors (and the adjacent bridge
        # node, which must carry the side encoding too).
        return all(m_local[u] == own for u in m_local)

    def bridge_predicate(self, graph: Graph, bridge: int,
                         r_local: Challenge, m: int) -> bool:
        return True  # equality of the two bridge messages does the work

    def analytic_response_set(self, f_side: Graph, challenge: Challenge,
                              side: str) -> FrozenSet[int]:
        # Every side node (and the adjacent bridge node, via the
        # attachment vertex's consistency check) must carry exactly the
        # side's encoding: the set is the singleton {encode(F)},
        # independent of the challenge.  The brute-force search would
        # agree but needs 2^(L·n) steps; tests verify the reasoning on
        # inner graphs small enough to brute-force.
        return frozenset({self.encode_side_graph(f_side)})

    def encode_side_graph(self, f_side: Graph) -> int:
        """Encoding of a side graph given on labels ``0..n-1``."""
        bits = 0
        for idx, (u, w) in enumerate(self._pairs):
            if f_side.has_edge(u, w):
                bits |= 1 << idx
        return bits


class LocalHashProtocol(SimpleBridgeProtocol):
    """A cheap, *incorrect* protocol: every node just checks a hash of
    its own degree against its challenge.

    Its response sets carry no information about the side graph beyond
    local degrees, so μ_A(F₁) ≈ μ_A(F₂) for graphs with matching degree
    profiles — Lemma 3.11 fails, and the framework correctly brands the
    protocol unable to decide Sym on the family.
    """

    def __init__(self, length: int = 1) -> None:
        super().__init__(length)

    def out_side(self, graph: Graph, v: int, r_local: Challenge,
                 m_local: Response) -> bool:
        mask = (1 << self.length) - 1
        expected = (graph.degree(v) ^ r_local[v]) & mask
        return m_local[v] == expected

    def bridge_predicate(self, graph: Graph, bridge: int,
                         r_local: Challenge, m: int) -> bool:
        return True


class AlwaysAcceptProtocol(SimpleBridgeProtocol):
    """Accepts everything — the degenerate baseline for unit tests."""

    def out_side(self, graph: Graph, v: int, r_local: Challenge,
                 m_local: Response) -> bool:
        return True

    def bridge_predicate(self, graph: Graph, bridge: int,
                         r_local: Challenge, m: int) -> bool:
        return True


def mu_a_exact(protocol: SimpleBridgeProtocol,
               f_side: Graph) -> Dict[FrozenSet[int], float]:
    """``μ_A(F)`` computed *exactly*, by enumerating every challenge.

    ``M_A(F, r)`` depends only on the challenges of side A's vertices
    and the two bridge nodes (everything a decision function on that
    side can see), so the relevant challenge space has
    ``2^(L·(n+2))`` points — exhaustively enumerable for L = 1 and
    n = 6, which upgrades the Lemma 3.11 measurements from sampled to
    exact.  Raises ``ValueError`` when the enumeration would exceed
    ~10⁶ challenges (use the sampled :func:`mu_a` there).
    """
    layout = DumbbellLayout(f_side.n)
    relevant = list(layout.side_a) + [layout.x_a, layout.x_b]
    space = protocol.message_space
    if len(space) ** len(relevant) > 1_000_000:
        raise ValueError(
            "challenge space too large for exact enumeration "
            f"({len(space)}^{len(relevant)}); use mu_a (sampled)")
    counts: Dict[FrozenSet[int], int] = {}
    total = 0
    for values in itertools.product(space, repeat=len(relevant)):
        challenge = {v: 0 for v in range(layout.total_n)}
        challenge.update(dict(zip(relevant, values)))
        key = response_set_a(protocol, f_side, challenge)
        counts[key] = counts.get(key, 0) + 1
        total += 1
    return {key: count / total for key, count in counts.items()}
