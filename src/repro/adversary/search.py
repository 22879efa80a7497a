"""Search adversaries: coordinate-ascent provers for instances the
exact solver cannot touch.

The exact games of :mod:`repro.adversary.spaces` stop being feasible
around ``n = 6`` with ablation-sized hash families; the battery
instances (``n = 14`` dumbbells, paper-sized primes) are far beyond
them.  There, the strongest adversary we can field is a *search*: climb
acceptance probability over the committed-mapping space using the
Monte-Carlo engine as the oracle.

Design points:

* **Permutation moves.**  The search state is a non-identity
  permutation and every neighbor is the state with two positions
  exchanged — so the reachable space is exactly the non-identity
  permutations, the same space ``analysis.exact_soundness_bound``
  optimizes over.  That makes "search never beats the exact game
  value" a theorem (the game's sup is over a superset), and the test
  suite asserts it by scoring the search's final commitment *exactly*
  with ``exact_commit_acceptance`` — no Monte-Carlo noise in the
  comparison.

* **Common random numbers.**  Every candidate is scored by
  :func:`~repro.core.runner.run_trials` on the *same* fixed seed
  stream, so candidate comparisons see identical challenges, the
  variance of the comparison is the variance of the difference, and
  the whole search is deterministic (same result serial or parallel,
  by the PR-1 determinism contract).

* **A real ``Prover``.**  :class:`LocalSearchProver` implements the
  prover interface by delegating to the committed prover for its best
  found mapping, so it drops into ``run_trials``, the certification
  panel, and the fork worker pool like any shipped adversary.  The
  search runs once per instance (lazily on first response, or
  explicitly via :meth:`LocalSearchProver.ensure_searched`) and is
  itself oracle-parallel via ``workers``.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..core.model import Instance, NodeMessage, Prover
from ..core.runner import AcceptanceEstimate, run_trials
from ..obs.session import active
from ..protocols.sym_dam import CommittedDAMProver, SymDAMProtocol
from ..protocols.sym_dmam import CommittedMappingProver, SymDMAMProtocol

#: mapping -> committed prover playing it.
ProverFactory = Callable[[Tuple[int, ...]], Prover]


def commitment_prover_factory(protocol) -> Optional[ProverFactory]:
    """The committed prover family for ``protocol``'s cheating space,
    or None for protocols without a mapping-shaped commitment (GNI,
    LCPs, fixed-map — where the honest prover already is the optimal
    cheater)."""
    if isinstance(protocol, SymDMAMProtocol):
        return lambda mapping: CommittedMappingProver(protocol,
                                                      mapping=mapping)
    if isinstance(protocol, SymDAMProtocol):
        return lambda mapping: CommittedDAMProver(protocol, mapping)
    return None


@dataclass
class SearchResult:
    """Outcome of one coordinate-ascent run."""

    best_mapping: Tuple[int, ...]
    best_estimate: AcceptanceEstimate
    #: distinct candidates scored (cache misses).
    evaluations: int = field(default=0, compare=False)
    #: hill-climb starts (1 heuristic + restarts).
    starts: int = field(default=0, compare=False)
    #: accepted strict improvements across all climbs.
    improvements: int = field(default=0, compare=False)


def _heuristic_swap(instance: Instance) -> Tuple[int, ...]:
    """The min-difference swap (CommittedMappingProver's default): the
    transposition of the two vertices whose closed neighborhoods differ
    least."""
    graph = instance.graph
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


class LocalSearchProver(Prover):
    """Coordinate-ascent adversary over committed non-identity
    permutations (see module docstring for the design contract).

    Parameters
    ----------
    trials:
        Oracle trials per candidate (the common-random-numbers stream).
    seed:
        Master seed: fixes the oracle stream and the restart draws, so
        the search — and hence the prover — is fully deterministic.
    restarts:
        Random restarts beyond the heuristic start.
    max_sweeps:
        Neighbor sweeps per climb before giving up without convergence.
    workers:
        Worker processes for the oracle's trial batches.
    make_prover:
        Override for the committed-prover family (defaults to
        :func:`commitment_prover_factory`; required for protocols it
        does not know).
    """

    def __init__(self, protocol, *, trials: int = 48, seed: int = 2018,
                 restarts: int = 2, max_sweeps: int = 4, workers: int = 1,
                 make_prover: Optional[ProverFactory] = None) -> None:
        factory = make_prover or commitment_prover_factory(protocol)
        if factory is None:
            raise ValueError(
                f"protocol {protocol.name!r} has no committed-mapping "
                f"strategy space; pass make_prover explicitly")
        if trials < 1:
            raise ValueError("the oracle needs at least one trial")
        self.protocol = protocol
        self.trials = trials
        self.seed = seed
        self.restarts = restarts
        self.max_sweeps = max_sweeps
        self.workers = workers
        self._make = factory
        #: Best mapping found; None until a search has run.
        self.mapping: Optional[Tuple[int, ...]] = None
        #: Full result of the last search.
        self.result: Optional[SearchResult] = None
        self._searched_for: Optional[Instance] = None
        self._inner: Optional[Prover] = None

    # -- search ------------------------------------------------------------

    def _random_permutation(self, n: int,
                            rng: random.Random) -> Tuple[int, ...]:
        identity = tuple(range(n))
        while True:
            perm = list(identity)
            rng.shuffle(perm)
            if tuple(perm) != identity:
                return tuple(perm)

    def search(self, instance: Instance) -> SearchResult:
        """Run the coordinate ascent on ``instance`` and adopt the best
        mapping found as this prover's commitment."""
        sess = active()
        outer = nullcontext() if sess is None else sess.span(
            "adversary.search", protocol=self.protocol.name,
            n=instance.graph.n, trials=self.trials, seed=self.seed,
            restarts=self.restarts)
        with outer as span:
            result = self._search(instance)
            if span is not None:
                span.set(evaluations=result.evaluations,
                         improvements=result.improvements,
                         starts=result.starts,
                         best_accepted=result.best_estimate.accepted)
            if sess is not None and sess.metrics_enabled:
                metrics = sess.metrics
                metrics.counter("adversary/search/evaluations").inc(
                    result.evaluations)
                metrics.counter("adversary/search/improvements").inc(
                    result.improvements)
                metrics.counter("adversary/search/starts").inc(
                    result.starts)
        return result

    def _search(self, instance: Instance) -> SearchResult:
        n = instance.graph.n
        context = self.acquire_context(instance)
        # The oracle stream is fixed once per search: common random
        # numbers across every candidate comparison.
        oracle_seed = self.seed ^ 0x5EED_C0DE
        cache: Dict[Tuple[int, ...], AcceptanceEstimate] = {}
        counters = {"evaluations": 0, "improvements": 0}

        def score(mapping: Tuple[int, ...]) -> AcceptanceEstimate:
            estimate = cache.get(mapping)
            if estimate is None:
                estimate = run_trials(
                    self.protocol, instance, self._make(mapping),
                    self.trials, oracle_seed, workers=self.workers,
                    context=context)
                cache[mapping] = estimate
                counters["evaluations"] += 1
            return estimate

        def climb(start: Tuple[int, ...]) -> Tuple[int, ...]:
            current = start
            current_score = score(current).accepted
            identity = tuple(range(n))
            for _sweep in range(self.max_sweeps):
                improved = False
                for u in range(n):
                    for w in range(u + 1, n):
                        candidate = list(current)
                        candidate[u], candidate[w] = \
                            candidate[w], candidate[u]
                        neighbor = tuple(candidate)
                        if neighbor == identity:
                            continue
                        neighbor_score = score(neighbor).accepted
                        if neighbor_score > current_score:
                            current, current_score = \
                                neighbor, neighbor_score
                            counters["improvements"] += 1
                            improved = True
                if not improved:
                    break
            return current

        rng = random.Random(self.seed)
        starts = [_heuristic_swap(instance)]
        starts.extend(self._random_permutation(n, rng)
                      for _ in range(self.restarts))

        best: Optional[Tuple[int, ...]] = None
        best_estimate: Optional[AcceptanceEstimate] = None
        for start in starts:
            final = climb(start)
            estimate = score(final)
            # Deterministic tie-break: more acceptances, then the
            # lexicographically smallest mapping.
            if (best_estimate is None
                    or estimate.accepted > best_estimate.accepted
                    or (estimate.accepted == best_estimate.accepted
                        and final < best)):
                best, best_estimate = final, estimate

        assert best is not None and best_estimate is not None
        self.mapping = best
        self.result = SearchResult(
            best_mapping=best,
            best_estimate=best_estimate,
            evaluations=counters["evaluations"],
            starts=len(starts),
            improvements=counters["improvements"])
        self._searched_for = instance
        self._inner = None
        return self.result

    def ensure_searched(self, instance: Instance) -> SearchResult:
        """Search once per instance; later calls return the cached
        result.  Called lazily by :meth:`respond`, so batch runners
        (including the fork pool, whose trial 0 runs in the parent)
        need no special handling."""
        if self.result is None or self._searched_for is not instance:
            return self.search(instance)
        return self.result

    # -- Prover interface --------------------------------------------------

    def reset(self) -> None:
        # Per-execution state lives in the inner committed prover; the
        # search result is per-instance and must survive resets.
        if self._inner is not None:
            self._inner.reset()

    def respond(self, instance: Instance, round_idx: int,
                randomness: Mapping[int, Mapping[int, int]],
                own_messages: Mapping[int, Mapping[int, NodeMessage]],
                rng: random.Random) -> Dict[int, NodeMessage]:
        self.ensure_searched(instance)
        if self._inner is None:
            assert self.mapping is not None
            self._inner = self._make(self.mapping)
        self._inner.bind_context(self.context)
        return self._inner.respond(instance, round_idx, randomness,
                                   own_messages, rng)

