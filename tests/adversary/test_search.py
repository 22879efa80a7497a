"""The coordinate-ascent adversary: determinism, the exact-value
ceiling, and the Prover contract."""

import pytest

from repro.adversary import (LocalSearchProver, commitment_prover_factory,
                             solve_protocol_game)
from repro.core import Instance, run_trials
from repro.graphs import cycle_graph, rigid_family_exhaustive
from repro.hashing import LinearHashFamily
from repro.protocols import (SymDAMProtocol, SymDMAMProtocol, SymLCP)
from repro.protocols.analysis import exact_commit_acceptance

FAMILY = LinearHashFamily(m=36, p=37)


@pytest.fixture(scope="module")
def rigid6():
    return rigid_family_exhaustive(6, max_size=1)[0]


@pytest.fixture(scope="module")
def protocol():
    return SymDMAMProtocol(6, family=FAMILY)


class TestSearch:
    def test_search_is_deterministic(self, protocol, rigid6):
        results = [
            LocalSearchProver(protocol, trials=24, seed=99,
                              restarts=1).search(Instance(rigid6))
            for _ in range(2)]
        assert results[0].best_mapping == results[1].best_mapping
        assert results[0].best_estimate == results[1].best_estimate

    def test_search_stays_in_permutation_space(self, protocol, rigid6):
        result = LocalSearchProver(protocol, trials=24,
                                   seed=7).search(Instance(rigid6))
        mapping = result.best_mapping
        assert sorted(mapping) == list(range(6))
        assert mapping != tuple(range(6))  # never the identity

    def test_search_never_beats_the_exact_game(self, protocol, rigid6):
        """The acceptance-criteria property: the search's final
        commitment, scored EXACTLY (zero Monte-Carlo noise), is at
        most the game value over its entire move space."""
        game = solve_protocol_game(protocol, Instance(rigid6),
                                   candidates="permutations").value
        for seed in (1, 2018, 777):
            result = LocalSearchProver(
                protocol, trials=32, seed=seed,
                restarts=2).search(Instance(rigid6))
            exact = exact_commit_acceptance(rigid6, result.best_mapping,
                                            FAMILY)
            assert exact <= game

    def test_search_finds_a_nontrivial_cheat(self, protocol, rigid6):
        # On this instance the best swap fools 14/37 of the seeds; a
        # search with enough oracle resolution must find something
        # strictly better than "never accepted".
        result = LocalSearchProver(protocol, trials=48, seed=2018,
                                   restarts=2).search(Instance(rigid6))
        assert result.best_estimate.accepted > 0
        assert result.evaluations > 0
        assert result.starts == 3

    def test_prover_contract(self, protocol, rigid6):
        """LocalSearchProver drops into run_trials like any prover,
        and its estimate matches re-running its commitment directly."""
        instance = Instance(rigid6)
        prover = LocalSearchProver(protocol, trials=24, seed=5,
                                   restarts=1)
        estimate = run_trials(protocol, instance, prover, 30, 123)
        committed = commitment_prover_factory(protocol)(prover.mapping)
        reference = run_trials(protocol, instance, committed, 30, 123)
        assert estimate.accepted == reference.accepted

    def test_rejects_protocols_without_commitments(self):
        with pytest.raises(ValueError):
            LocalSearchProver(SymLCP(6))

    def test_rejects_nonpositive_trials(self, protocol):
        with pytest.raises(ValueError):
            LocalSearchProver(protocol, trials=0)

    def test_sym_dam_factory(self, rigid6):
        # The dAM committed prover family: same search harness, other
        # protocol.
        dam = SymDAMProtocol(6, family=FAMILY)
        result = LocalSearchProver(dam, trials=16,
                                   seed=3).search(Instance(rigid6))
        assert sorted(result.best_mapping) == list(range(6))


class TestBattery:
    def test_yes_instance_search_wins(self):
        # On a symmetric graph the search space contains true
        # automorphisms; with enough restarts the climb lands on one
        # (the collision-rich ablation family gives the ascent a
        # usable gradient even from non-automorphism starts).
        protocol = SymDMAMProtocol(6, family=FAMILY)
        graph = cycle_graph(6)
        result = LocalSearchProver(protocol, trials=32, seed=11,
                                   restarts=3).search(Instance(graph))
        assert result.best_estimate.accepted == result.best_estimate.trials
        rho = result.best_mapping
        edges = {frozenset(e) for e in graph.edges}
        assert all(frozenset((rho[u], rho[v])) in edges
                   for u, v in graph.edges)
