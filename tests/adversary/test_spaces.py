"""Protocol game adapters versus the closed-form analysis.

Every game here is evaluated through the *implemented* decision
functions (``decide_transcript``), so agreement with ``analysis.py`` —
which reasons about the mathematics directly — cross-validates both:
the exact solver certifies the code, and the code certifies the
algebra.

Numeric regime: the tests use ``LinearHashFamily(m=36, p=37)``-style
ablation families with p *larger* than m.  With p < m the difference
polynomial of a committed mapping can vanish at every seed (``x^p − x``
divides it) and all values degenerate to 1 — still consistent, but a
vacuous check.
"""

from fractions import Fraction
import random

import pytest

from repro.adversary import (AdaptiveSymGame, CommittedSymGame,
                             ForcedMappingGame, SolverInfeasible,
                             build_game, solve_game, solve_protocol_game,
                             solver_feasible)
from repro.core import Instance, run_trials
from repro.graphs import complete_graph, path_graph, rigid_family_exhaustive
from repro.hashing import LinearHashFamily
from repro.protocols import (CommittedMappingProver,
                             GNIGoldwasserSipserProtocol, SymDAMProtocol,
                             SymDMAMProtocol, gni_instance)
from repro.protocols.analysis import (all_swaps, collision_seeds,
                                      exact_commit_acceptance,
                                      exact_soundness_bound,
                                      optimal_committed_cheater)
from repro.protocols.fixed_map import FixedMappingProtocol

FAMILY = LinearHashFamily(m=36, p=37)


@pytest.fixture(scope="module")
def rigid6():
    return rigid_family_exhaustive(6, max_size=1)[0]


@pytest.fixture(scope="module")
def dmam_protocol():
    return SymDMAMProtocol(6, family=FAMILY)


class TestCommittedSymGame:
    def test_swaps_pool_matches_analysis(self, rigid6, dmam_protocol):
        game = CommittedSymGame(dmam_protocol, Instance(rigid6),
                                candidates="swaps")
        value = solve_game(game).value
        _, reference = optimal_committed_cheater(
            rigid6, FAMILY, candidates=all_swaps(6))
        assert value == reference
        assert value == Fraction(14, 37)  # pinned: non-degenerate

    def test_permutation_pool_matches_soundness_bound(self, rigid6,
                                                      dmam_protocol):
        # The full non-identity-permutation pool: the game value IS
        # the protocol's exact soundness on this instance.
        game = CommittedSymGame(dmam_protocol, Instance(rigid6),
                                candidates="permutations")
        assert solve_game(game).value == exact_soundness_bound(
            rigid6, FAMILY)

    def test_root_choice_is_immaterial(self, rigid6, dmam_protocol):
        canonical = solve_protocol_game(dmam_protocol, Instance(rigid6),
                                        candidates="swaps",
                                        roots="canonical")
        every = solve_protocol_game(dmam_protocol, Instance(rigid6),
                                    candidates="swaps", roots="all")
        assert canonical.value == every.value

    def test_challenge_fill_is_immaterial(self, rigid6, dmam_protocol):
        # Non-root coordinates are never read by the decision
        # functions; the reduction to the root coordinate is exact.
        values = {
            solve_protocol_game(dmam_protocol, Instance(rigid6),
                                candidates="swaps",
                                challenge_fill=fill).value
            for fill in (0, 1, 17)}
        assert len(values) == 1

    def test_deviations_never_help(self, rigid6, dmam_protocol):
        # The aggregation checks force truthful responses: adding the
        # representative deviating moves must not change the sup.
        with_dev = solve_protocol_game(dmam_protocol, Instance(rigid6),
                                       candidates="swaps",
                                       deviations=True)
        without = solve_protocol_game(dmam_protocol, Instance(rigid6),
                                      candidates="swaps",
                                      deviations=False)
        assert with_dev.value == without.value

    def test_yes_instance_has_value_one(self, dmam_protocol):
        # K4 is symmetric: a real automorphism wins every challenge.
        protocol = SymDMAMProtocol(4, family=FAMILY)
        solution = solve_protocol_game(protocol,
                                       Instance(complete_graph(4)),
                                       candidates="swaps")
        assert solution.value == 1

    def test_work_limit_raises(self, rigid6, dmam_protocol):
        with pytest.raises(SolverInfeasible):
            solve_protocol_game(dmam_protocol, Instance(rigid6),
                                candidates="permutations", work_limit=10)


class TestForcedMappingGame:
    def test_matches_exact_commit_acceptance(self, rigid6):
        swap = (1, 0, 2, 3, 4, 5)
        protocol = FixedMappingProtocol(swap, family=FAMILY)
        game = ForcedMappingGame(protocol, Instance(rigid6))
        assert solve_game(game).value == exact_commit_acceptance(
            rigid6, swap, FAMILY)

    def test_joint_challenges_validate_the_reduction(self):
        # Full joint challenge space (p^n outcomes) versus the root-
        # coordinate reduction: equality validates the reduction
        # against the real decision functions, not just on paper.
        family = LinearHashFamily(m=9, p=11)
        sigma = (1, 0, 2)  # NOT an automorphism of the path
        protocol = FixedMappingProtocol(sigma, family=family)
        instance = Instance(path_graph(3))
        reduced = ForcedMappingGame(protocol, instance)
        joint = ForcedMappingGame(protocol, instance,
                                  joint_challenges=True)
        expected = exact_commit_acceptance(path_graph(3), sigma, family)
        assert solve_game(reduced).value == expected
        assert solve_game(joint).value == expected
        assert expected == Fraction(3, 11)  # pinned: non-degenerate


class TestAdaptiveSymGame:
    # The adaptive game enumerates the full p^n joint challenge space
    # (the adaptive cheater reads the root's coordinate before choosing
    # (rho, root), so no coordinate reduction applies) — p must be tiny.

    def _closed_form(self, graph, candidates, family):
        # 1 - prod_v (1 - |C_v|/p), where C_v collects the collision
        # seeds of candidate mappings rooted at v.
        p = family.p
        miss = Fraction(1, 1)
        for root in range(graph.n):
            seeds = set()
            for rho in candidates:
                if rho[root] != root:
                    seeds.update(collision_seeds(graph, rho, family))
            miss *= Fraction(p - len(seeds), p)
        return 1 - miss

    def test_matches_inclusion_exclusion(self, rigid6):
        family = LinearHashFamily(m=36, p=7)
        protocol = SymDAMProtocol(6, family=family)
        game = AdaptiveSymGame(protocol, Instance(rigid6),
                               candidates="swaps")
        assert solve_game(game).value == self._closed_form(
            rigid6, all_swaps(6), family)

    def test_restricted_pool_non_degenerate(self, rigid6):
        # A single-swap pool keeps the value strictly inside (0, 1),
        # so the equality is not the vacuous 1 == 1 of rich pools at
        # tiny primes.
        family = LinearHashFamily(m=36, p=7)
        pool = [(1, 0, 2, 3, 4, 5)]
        protocol = SymDAMProtocol(6, family=family)
        game = AdaptiveSymGame(protocol, Instance(rigid6),
                               candidates=pool)
        value = solve_game(game).value
        assert value == self._closed_form(rigid6, pool, family)
        assert 0 < value < 1

    def test_adaptive_at_least_committed(self, rigid6):
        family = LinearHashFamily(m=36, p=7)
        adaptive = solve_protocol_game(SymDAMProtocol(6, family=family),
                                       Instance(rigid6),
                                       candidates="swaps")
        committed = solve_protocol_game(
            SymDMAMProtocol(6, family=family), Instance(rigid6),
            candidates="swaps")
        assert adaptive.value >= committed.value


class TestDispatchAndFeasibility:
    def test_build_game_dispatch(self, rigid6, dmam_protocol):
        instance = Instance(rigid6)
        assert isinstance(build_game(dmam_protocol, instance),
                          CommittedSymGame)
        small = LinearHashFamily(m=36, p=5)
        assert isinstance(
            build_game(SymDAMProtocol(6, family=small), instance),
            AdaptiveSymGame)
        assert isinstance(
            build_game(FixedMappingProtocol((1, 0, 2, 3, 4, 5),
                                            family=FAMILY), instance),
            ForcedMappingGame)

    def test_gni_is_infeasible(self):
        protocol = GNIGoldwasserSipserProtocol(4, repetitions=6, q=5,
                                               threshold=0)
        instance = gni_instance(path_graph(4),
                                path_graph(4).relabel([2, 0, 1, 3]))
        assert not solver_feasible(protocol, instance)
        with pytest.raises(SolverInfeasible):
            build_game(protocol, instance)


class TestMonteCarloContainment:
    def test_cp_interval_contains_exact_value(self, rigid6,
                                              dmam_protocol):
        """Satellite property: on a tiny instance the exact game value
        must sit inside both the Wilson and Clopper-Pearson intervals
        of a Monte-Carlo estimate of the optimal committed cheater."""
        solution = solve_protocol_game(dmam_protocol, Instance(rigid6),
                                       candidates="swaps")
        mapping, _ = optimal_committed_cheater(
            rigid6, FAMILY, candidates=all_swaps(6))
        estimate = run_trials(
            dmam_protocol, Instance(rigid6),
            CommittedMappingProver(dmam_protocol, mapping=mapping),
            400, 20180)
        exact = float(solution.value)
        lower, upper = estimate.wilson_interval()
        assert lower <= exact <= upper
        assert (estimate.clopper_pearson_lower(0.001) <= exact
                <= estimate.clopper_pearson_upper(0.001))
