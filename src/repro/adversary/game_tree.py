"""Exact best-prover values by backward induction.

Every protocol in this repo is *public coin*: Arthur's challenges are
broadcast draws from known finite distributions, and the prover sees
the full history before each Merlin round.  The interaction is
therefore a finite extensive-form game of perfect information between
a maximizing prover and chance, and the paper's soundness quantity

    sup_P Pr[all nodes accept]

is attained by a deterministic prover strategy and computable exactly
by backward induction: *max* over messages at Merlin nodes, *exact
expectation* over the challenge distribution at Arthur nodes.

This module is protocol-agnostic.  A :class:`GameSpec` describes one
concrete game: the round pattern, the prover's move set after each
history, the challenge distribution (as explicit ``(outcome,
Fraction)`` pairs), and an acceptance predicate on complete histories.
The protocol adapters in :mod:`repro.adversary.spaces` build specs
whose ``accept`` assembles a real :class:`~repro.core.runner.Transcript`
and scores it with :func:`~repro.core.runner.decide_transcript`, so
the computed optimum certifies the implemented decision functions.

:func:`brute_force_value` re-computes the same value by enumerating
*whole deterministic strategies* (a move for every Merlin history) and
taking the best forward-play expectation.  It shares no logic with the
backward induction — no max/expectation interchange — which makes it
the independent cross-check the property tests lean on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, List, Optional, Sequence, Tuple

from abc import ABC, abstractmethod

MERLIN_NODE = "M"
ARTHUR_NODE = "A"

#: Complete or partial history: one entry per resolved round.
History = Tuple[Any, ...]


class GameSpec(ABC):
    """One finite prover-versus-chance game.

    ``rounds`` is a string over {"M", "A"} — e.g. ``"MAM"`` for a
    dMAM protocol.  Histories are tuples with one entry per resolved
    round, in order.
    """

    rounds: str = ""

    @abstractmethod
    def moves(self, history: History) -> Sequence[Any]:
        """The prover's candidate messages after ``history`` (Merlin
        rounds only).  Must be non-empty."""

    @abstractmethod
    def outcomes(self, history: History) -> Sequence[Tuple[Any, Fraction]]:
        """The challenge distribution after ``history`` (Arthur rounds
        only), as ``(outcome, probability)`` pairs summing to 1."""

    @abstractmethod
    def accept(self, history: History) -> bool:
        """Verdict on a complete history (all rounds resolved)."""


@dataclass
class GameSolution:
    """The exact optimum plus bookkeeping from one solve."""

    #: sup over prover strategies of Pr[all nodes accept], exact.
    value: Fraction
    #: an optimal first Merlin move (None if the game opens with Arthur
    #: or the first Merlin round was never reached... it always is).
    best_initial_move: Optional[Any] = None
    #: complete histories scored.
    leaves: int = field(default=0, compare=False)
    #: Merlin decision points expanded.
    merlin_nodes: int = field(default=0, compare=False)


def solve_game(spec: GameSpec) -> GameSolution:
    """Backward induction over ``spec``; exact ``Fraction`` arithmetic
    throughout, so the result is a true rational value, not a float."""
    rounds = spec.rounds
    if not rounds or any(kind not in (MERLIN_NODE, ARTHUR_NODE)
                         for kind in rounds):
        raise ValueError(f"rounds must be a non-empty M/A string: {rounds!r}")
    depth_total = len(rounds)
    counters = {"leaves": 0, "merlin": 0}
    best_initial: List[Any] = [None]
    one = Fraction(1)

    def value_of(history: History, depth: int) -> Fraction:
        if depth == depth_total:
            counters["leaves"] += 1
            return one if spec.accept(history) else Fraction(0)
        if rounds[depth] == MERLIN_NODE:
            counters["merlin"] += 1
            best: Optional[Fraction] = None
            best_move = None
            for move in spec.moves(history):
                value = value_of(history + (move,), depth + 1)
                if best is None or value > best:
                    best, best_move = value, move
                    if best == one:
                        break  # nothing beats certain acceptance
            if best is None:
                raise ValueError(f"no Merlin moves after {history!r}")
            if depth == 0:
                best_initial[0] = best_move
            return best
        total = Fraction(0)
        mass = Fraction(0)
        for outcome, prob in spec.outcomes(history):
            prob = Fraction(prob)
            mass += prob
            if prob:
                total += prob * value_of(history + (outcome,), depth + 1)
        if mass != 1:
            raise ValueError(f"outcome probabilities after {history!r} "
                             f"sum to {mass}, not 1")
        return total

    value = value_of((), 0)
    return GameSolution(value=value,
                        best_initial_move=best_initial[0],
                        leaves=counters["leaves"],
                        merlin_nodes=counters["merlin"])


def game_tree_value(spec: GameSpec) -> Fraction:
    """``sup_P Pr[accept]`` for the game described by ``spec``."""
    return solve_game(spec).value


def _merlin_points(spec: GameSpec) -> List[Tuple[History, List[Any]]]:
    """Every Merlin decision point reachable under *some* strategy,
    with its move list, in a fixed discovery order."""
    rounds = spec.rounds
    points: List[Tuple[History, List[Any]]] = []

    def walk(history: History, depth: int) -> None:
        if depth == len(rounds):
            return
        if rounds[depth] == MERLIN_NODE:
            moves = list(spec.moves(history))
            if not moves:
                raise ValueError(f"no Merlin moves after {history!r}")
            points.append((history, moves))
            for move in moves:
                walk(history + (move,), depth + 1)
        else:
            for outcome, _prob in spec.outcomes(history):
                walk(history + (outcome,), depth + 1)

    walk((), 0)
    return points


def brute_force_value(spec: GameSpec,
                      max_strategies: int = 200_000) -> Fraction:
    """The same optimum by strategy enumeration (cross-check only).

    A deterministic prover strategy fixes one move at every Merlin
    decision point; each full strategy is scored by forward play
    (expectation over chance), and the best score is returned.  The
    enumeration covers every assignment — including choices at points
    a strategy's own earlier moves make unreachable, which is redundant
    but harmless — so its cost is the product of the move counts; a
    guard raises once that exceeds ``max_strategies``.
    """
    rounds = spec.rounds
    points = _merlin_points(spec)
    total = 1
    for _history, moves in points:
        total *= len(moves)
        if total > max_strategies:
            raise ValueError(f"strategy space exceeds {max_strategies}; "
                             f"use solve_game for large games")
    index = {history: i for i, (history, _moves) in enumerate(points)}

    def play(history: History, depth: int,
             assignment: Tuple[Any, ...]) -> Fraction:
        if depth == len(rounds):
            return Fraction(1 if spec.accept(history) else 0)
        if rounds[depth] == MERLIN_NODE:
            move = assignment[index[history]]
            return play(history + (move,), depth + 1, assignment)
        value = Fraction(0)
        for outcome, prob in spec.outcomes(history):
            prob = Fraction(prob)
            if prob:
                value += prob * play(history + (outcome,), depth + 1,
                                     assignment)
        return value

    best = Fraction(0)
    for assignment in itertools.product(
            *[moves for _history, moves in points]):
        best = max(best, play((), 0, assignment))
        if best == 1:
            break
    return best
