"""Game adapters: protocol executions as solvable prover-vs-chance games.

Enumerating raw Merlin messages field-by-field is astronomically
infeasible even on tiny instances (a single ``a``-aggregate field
already ranges over ``p^n`` assignments), so each adapter here reduces
a protocol's move space to a *sufficient* set — one that provably
contains an optimal move at every decision point — and lets
:func:`~repro.adversary.game_tree.solve_game` do the rest.  Three
reductions carry all the weight; each is stated with its proof
obligation and backed by a dedicated validation mode or test:

1. **Structured Merlin moves.**  The aggregation checks force every
   surviving Merlin response to be the truthful aggregate vector for
   the mapping and echoed seed it commits to (Lemma 3.3's induction up
   the spanning tree: any node whose subtree sum deviates is rejected
   by its parent-side recomputation, and the root ties the echo to its
   own challenge).  The adapters therefore enumerate ``(mapping, root)``
   commitments plus *representative deviations* — a shifted echo and
   per-field aggregate corruptions — rather than raw field values.
   The deviations are provably value-0 moves; they are kept so the max
   at Merlin nodes is exercised against real alternatives rather than
   being vacuous, and the tests assert they never win.

2. **Challenge-coordinate reduction.**  Every decision function reads
   transcript randomness only through the root's own coordinate (the
   echo comparison); non-root coordinates are dead.  The adapters
   therefore enumerate only the root's challenge and pin every other
   coordinate to ``challenge_fill``.  :class:`ForcedMappingGame`
   exposes ``joint_challenges=True``, which enumerates the *full*
   product space instead — equality of the two values on small
   instances is the empirical validation of this reduction.

3. **Candidate mapping pools.**  The commitment space is parameterized
   (transpositions, all permutations, or an explicit pool) to match
   the pools of :mod:`repro.protocols.analysis`, making
   ``game value == optimal_committed_cheater value`` a well-defined
   cross-validation; with the exhaustive permutation pool on ``n ≤ 6``
   the value equals ``exact_soundness_bound``'s optimum exactly.

GNI-family protocols have no adapter: their challenge space is a
product of ε-API seeds with no single-coordinate reduction, so exact
solving is infeasible beyond degenerate sizes — certification there
relies on the analytic threshold bounds plus Monte-Carlo with
Clopper–Pearson certificates (see ``docs/ADVERSARY.md``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.context import InstanceContext
from ..core.model import Instance, NodeMessage, Protocol
from ..core.runner import Transcript, decide_transcript
from ..protocols import fixed_map, sym_dam, sym_dmam
from ..protocols._tree_hash import (FIELD_A, FIELD_B, adjacency_aggregates,
                                    image_aggregates)
from ..protocols.analysis import all_swaps
from .game_tree import GameSpec, GameSolution, History, solve_game

#: Merlin deviation tokens: the truthful committed response plus
#: representative always-rejected alternatives (see module docstring).
TOKEN_TRUTHFUL = "truthful"
TOKEN_ECHO_SHIFT = "echo+1"
TOKEN_A_SHIFT = "a+1"
TOKEN_B_SHIFT = "b+1"

_ALL_TOKENS = (TOKEN_TRUTHFUL, TOKEN_ECHO_SHIFT, TOKEN_A_SHIFT,
               TOKEN_B_SHIFT)
#: The root field each aggregate-corrupting token shifts.
_SHIFTED_FIELD = {TOKEN_A_SHIFT: FIELD_A, TOKEN_B_SHIFT: FIELD_B}

#: Candidate pools accepted by the adapters.
Candidates = Union[str, Iterable[Sequence[int]]]


class SolverInfeasible(ValueError):
    """The exact solver does not apply (no adapter, or the game tree
    would exceed the work limit)."""


def _candidate_pool(candidates: Candidates, n: int) -> List[Tuple[int, ...]]:
    identity = tuple(range(n))
    if candidates == "swaps":
        return list(all_swaps(n))
    if candidates == "permutations":
        return [perm for perm in itertools.permutations(range(n))
                if perm != identity]
    if isinstance(candidates, str):
        raise ValueError(f"unknown candidate pool {candidates!r}")
    pool = [tuple(rho) for rho in candidates]
    for rho in pool:
        if len(rho) != n:
            raise ValueError("candidate mappings must cover every vertex")
    return [rho for rho in pool if rho != identity]


def _echo(challenge: int, token: str, p: int) -> int:
    """The seed a response echoes: the root's challenge, shifted under
    :data:`TOKEN_ECHO_SHIFT`."""
    return (challenge + 1) % p if token == TOKEN_ECHO_SHIFT else challenge


def _shift_aggregate(messages: Dict[int, NodeMessage], root: int,
                     token: str, p: int) -> None:
    """Apply an aggregate-corrupting token to the root's message."""
    field = _SHIFTED_FIELD.get(token)
    if field is not None:
        messages[root][field] = (messages[root][field] + 1) % p


def _roots_of(rho: Tuple[int, ...], roots: str) -> List[int]:
    moved = [v for v, image in enumerate(rho) if image != v]
    if not moved:
        return []
    if roots == "canonical":
        return [min(moved)]
    if roots == "all":
        return moved
    raise ValueError(f"roots must be 'canonical' or 'all', not {roots!r}")


class CommittedSymGame(GameSpec):
    """Protocol 1 (``sym-dmam``) as an exact game.

    Rounds ``MAM``: the prover commits ``(ρ, root)``, chance draws the
    root's hash seed, the prover answers with the truthful committed
    response or a representative deviation.  For a fixed commitment the
    game value is exactly ``|collision seeds|/p`` — the quantity
    ``protocols.analysis.exact_commit_acceptance`` computes from the
    difference polynomial — so the solved value must coincide with
    ``optimal_committed_cheater`` over the same pool; the test suite
    asserts this end to end through the real decision functions.
    """

    rounds = "MAM"

    def __init__(self, protocol: sym_dmam.SymDMAMProtocol,
                 instance: Instance, *,
                 candidates: Candidates = "swaps",
                 roots: str = "canonical",
                 challenge_fill: int = 0,
                 deviations: bool = True,
                 work_limit: int = 500_000,
                 context: Optional[InstanceContext] = None) -> None:
        protocol.validate_instance(instance)
        self.protocol = protocol
        self.instance = instance
        self.graph = instance.graph
        self.p = protocol.family.p
        self.challenge_fill = challenge_fill
        self.context = context or InstanceContext(instance, protocol)

        moves: List[Tuple[Tuple[int, ...], int]] = []
        for rho in _candidate_pool(candidates, self.graph.n):
            moves.extend((rho, root) for root in _roots_of(rho, roots))
        if not moves:
            raise ValueError("empty commitment pool: every candidate "
                             "mapping is the identity")
        self._m0_moves = moves
        self._tokens = _ALL_TOKENS if deviations else (TOKEN_TRUTHFUL,)
        leaves = len(moves) * self.p * len(self._tokens)
        if leaves > work_limit:
            raise SolverInfeasible(
                f"{leaves} leaves exceed work_limit={work_limit} "
                f"({len(moves)} commitments x p={self.p} x "
                f"{len(self._tokens)} responses)")
        self._m0_cache: Dict[Tuple[Tuple[int, ...], int],
                             Dict[int, NodeMessage]] = {}
        self._a_cache: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._b_cache: Dict[Tuple[Tuple[int, ...], int, int],
                            Dict[int, int]] = {}

    def moves(self, history: History) -> Sequence[Any]:
        return self._m0_moves if not history else self._tokens

    def outcomes(self, history: History) -> Sequence[Tuple[Any, Fraction]]:
        prob = Fraction(1, self.p)
        return [(seed, prob) for seed in range(self.p)]

    def _m0_messages(self, rho: Tuple[int, ...],
                     root: int) -> Dict[int, NodeMessage]:
        key = (rho, root)
        cached = self._m0_cache.get(key)
        if cached is None:
            cached = sym_dmam.commitment_messages(
                rho, root, self.context.tree_advice(root),
                self.graph.vertices)
            self._m0_cache[key] = cached
        return cached

    def _aggregates(self, rho: Tuple[int, ...], root: int,
                    seed: int) -> Tuple[Dict[int, int], Dict[int, int]]:
        family = self.protocol.family
        advice = self.context.tree_advice(root)
        # The a side does not depend on ρ: cache it per (root, seed).
        a_values = self._a_cache.get((root, seed))
        if a_values is None:
            a_values = adjacency_aggregates(family, seed, self.graph, advice)
            self._a_cache[(root, seed)] = a_values
        b_values = self._b_cache.get((rho, root, seed))
        if b_values is None:
            b_values = image_aggregates(family, seed, self.graph, advice,
                                        rho)
            self._b_cache[(rho, root, seed)] = b_values
        return a_values, b_values

    def accept(self, history: History) -> bool:
        (rho, root), challenge, token = history
        seed = _echo(challenge, token, self.p)
        a_values, b_values = self._aggregates(rho, root, seed)
        m2 = sym_dmam.aggregate_messages(seed, a_values, b_values,
                                         self.graph.vertices)
        _shift_aggregate(m2, root, token, self.p)
        transcript = Transcript(
            randomness={sym_dmam.ROUND_A1: {
                v: (challenge if v == root else self.challenge_fill)
                for v in self.graph.vertices}},
            messages={sym_dmam.ROUND_M0: self._m0_messages(rho, root),
                      sym_dmam.ROUND_M2: m2})
        accepted, _decisions = decide_transcript(
            self.protocol, self.instance, transcript, context=self.context)
        return accepted


class AdaptiveSymGame(GameSpec):
    """Protocol 2 (``sym-dam``) as an exact game.

    Rounds ``AM``: chance draws the *full* joint challenge vector
    first, then the prover — adaptively — picks ``(ρ, root)`` and its
    echo.  The joint space is ``p^n``, so this adapter only works with
    a deliberately tiny ablation family (experiment E6's setting);
    that is exactly the regime where adaptivity bites, and the solved
    value must match the inclusion–exclusion closed form
    ``1 − Π_v (1 − |C_v|/p)`` with ``C_v`` the union of collision
    seeds over pool mappings moving ``v`` (challenge coordinates are
    independent, and the prover wins on joint vectors where *some*
    moved root's coordinate lies in its mapping's collision set).
    Acceptance depends on the joint vector only through the chosen
    root's coordinate, so leaf verdicts are memoized per
    ``(move, root coordinate)``.
    """

    rounds = "AM"

    def __init__(self, protocol: sym_dam.SymDAMProtocol,
                 instance: Instance, *,
                 candidates: Candidates = "swaps",
                 roots: str = "all",
                 deviations: bool = True,
                 work_limit: int = 500_000,
                 context: Optional[InstanceContext] = None) -> None:
        protocol.validate_instance(instance)
        self.protocol = protocol
        self.instance = instance
        self.graph = instance.graph
        self.p = protocol.family.p
        self.context = context or InstanceContext(instance, protocol)
        n = self.graph.n

        tokens = ((TOKEN_TRUTHFUL, TOKEN_ECHO_SHIFT) if deviations
                  else (TOKEN_TRUTHFUL,))
        moves: List[Tuple[Tuple[int, ...], int, str]] = []
        for rho in _candidate_pool(candidates, n):
            for root in _roots_of(rho, roots):
                moves.extend((rho, root, token) for token in tokens)
        if not moves:
            raise ValueError("empty commitment pool: every candidate "
                             "mapping is the identity")
        self._m1_moves = moves

        joints = self.p ** n
        if joints > work_limit or joints * len(moves) > 64 * work_limit:
            raise SolverInfeasible(
                f"joint challenge space p^n = {joints} (x {len(moves)} "
                f"moves) exceeds work_limit={work_limit}; the adaptive "
                f"game needs an ablation-sized family")
        self._verdicts: Dict[Tuple[Tuple[int, ...], int, str, int],
                             bool] = {}

    def moves(self, history: History) -> Sequence[Any]:
        return self._m1_moves

    def outcomes(self, history: History) -> Sequence[Tuple[Any, Fraction]]:
        prob = Fraction(1, self.p ** self.graph.n)
        return [(joint, prob) for joint in
                itertools.product(range(self.p), repeat=self.graph.n)]

    def accept(self, history: History) -> bool:
        joint, (rho, root, token) = history
        challenge = joint[root]
        key = (rho, root, token, challenge)
        verdict = self._verdicts.get(key)
        if verdict is None:
            m1 = sym_dam._mapping_response(
                self.protocol, self.graph, rho,
                _echo(challenge, token, self.p), self.context, root)
            transcript = Transcript(
                randomness={sym_dam.ROUND_A0:
                            {v: joint[v] for v in self.graph.vertices}},
                messages={sym_dam.ROUND_M1: m1})
            verdict, _decisions = decide_transcript(
                self.protocol, self.instance, transcript,
                context=self.context)
            self._verdicts[key] = verdict
        return verdict


class ForcedMappingGame(GameSpec):
    """``fixed-map-dam`` (and DSym) as an exact game.

    The mapping is public, so the prover has no commitment move at all:
    rounds ``AM`` with chance first, then only the truthful response
    and its representative deviations.  The value must therefore equal
    ``exact_commit_acceptance(graph, σ, family)`` — 1 on YES instances.

    ``joint_challenges=True`` enumerates the full ``p^n`` product
    instead of the root coordinate: the validation mode for the
    challenge-coordinate reduction (values must agree exactly).
    """

    rounds = "AM"

    def __init__(self, protocol: fixed_map.FixedMappingProtocol,
                 instance: Instance, *,
                 joint_challenges: bool = False,
                 challenge_fill: int = 0,
                 deviations: bool = True,
                 work_limit: int = 500_000,
                 context: Optional[InstanceContext] = None) -> None:
        protocol.validate_instance(instance)
        self.protocol = protocol
        self.instance = instance
        self.graph = instance.graph
        self.p = protocol.family.p
        self.joint = joint_challenges
        self.challenge_fill = challenge_fill
        self.context = context or InstanceContext(instance, protocol)
        self._tokens = _ALL_TOKENS if deviations else (TOKEN_TRUTHFUL,)
        outcomes = (self.p ** self.graph.n if joint_challenges else self.p)
        if outcomes * len(self._tokens) > work_limit:
            raise SolverInfeasible(
                f"{outcomes} challenge outcomes exceed "
                f"work_limit={work_limit}")
        self._agg_cache: Dict[int, Tuple[Dict[int, int],
                                         Dict[int, int]]] = {}

    def moves(self, history: History) -> Sequence[Any]:
        return self._tokens

    def outcomes(self, history: History) -> Sequence[Tuple[Any, Fraction]]:
        if self.joint:
            prob = Fraction(1, self.p ** self.graph.n)
            return [(joint, prob) for joint in
                    itertools.product(range(self.p),
                                      repeat=self.graph.n)]
        prob = Fraction(1, self.p)
        return [(seed, prob) for seed in range(self.p)]

    def _aggregates(self, seed: int) -> Tuple[Dict[int, int],
                                              Dict[int, int]]:
        cached = self._agg_cache.get(seed)
        if cached is None:
            protocol = self.protocol
            advice = self.context.tree_advice(protocol.root)
            cached = (adjacency_aggregates(protocol.family, seed, self.graph,
                                           advice),
                      image_aggregates(protocol.family, seed, self.graph,
                                       advice, protocol.sigma))
            self._agg_cache[seed] = cached
        return cached

    def accept(self, history: History) -> bool:
        challenge, token = history
        root = self.protocol.root
        if self.joint:
            randomness = {v: challenge[v] for v in self.graph.vertices}
            root_challenge = challenge[root]
        else:
            randomness = {v: (challenge if v == root
                              else self.challenge_fill)
                          for v in self.graph.vertices}
            root_challenge = challenge
        seed = _echo(root_challenge, token, self.p)
        a_values, b_values = self._aggregates(seed)
        m1 = fixed_map.response_messages(
            seed, self.context.tree_advice(root), a_values, b_values,
            self.graph.vertices)
        _shift_aggregate(m1, root, token, self.p)
        transcript = Transcript(
            randomness={fixed_map.ROUND_A0: randomness},
            messages={fixed_map.ROUND_M1: m1})
        accepted, _decisions = decide_transcript(
            self.protocol, self.instance, transcript, context=self.context)
        return accepted


def build_game(protocol: Protocol, instance: Instance,
               **options: Any) -> GameSpec:
    """The adapter for ``protocol``, or :class:`SolverInfeasible`.

    Options are forwarded to the adapter (candidate pools, work
    limits, validation modes — see each adapter's docstring).
    """
    if isinstance(protocol, sym_dmam.SymDMAMProtocol):
        return CommittedSymGame(protocol, instance, **options)
    if isinstance(protocol, sym_dam.SymDAMProtocol):
        return AdaptiveSymGame(protocol, instance, **options)
    if isinstance(protocol, fixed_map.FixedMappingProtocol):
        return ForcedMappingGame(protocol, instance, **options)
    raise SolverInfeasible(
        f"no exact game adapter for protocol {protocol.name!r} "
        f"(GNI-family challenge spaces admit no coordinate reduction)")


def solver_feasible(protocol: Protocol, instance: Instance,
                    **options: Any) -> bool:
    """Whether :func:`exact_game_value` would succeed."""
    try:
        build_game(protocol, instance, **options)
    except SolverInfeasible:
        return False
    return True


def exact_game_value(protocol: Protocol, instance: Instance,
                     **options: Any) -> Fraction:
    """``sup_P Pr[accept]`` for the adapted game — exact."""
    return solve_game(build_game(protocol, instance, **options)).value


def solve_protocol_game(protocol: Protocol, instance: Instance,
                        **options: Any) -> GameSolution:
    """Full :class:`GameSolution` (value + optimal opening move)."""
    return solve_game(build_game(protocol, instance, **options))
