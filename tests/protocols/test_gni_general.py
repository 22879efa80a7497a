"""Tests for the automorphism-compensated GNI protocol on general
(including symmetric) graphs."""

import math
import random

import pytest

from repro.core import Instance, TamperingProver, run_protocol
from repro.graphs import (complete_bipartite_graph, complete_graph,
                          cycle_graph, path_graph, star_graph)
from repro.protocols import (GeneralGNIProtocol, GNIGoldwasserSipserProtocol,
                             gni_instance, isomorphism_closure_encodings,
                             pair_catalog, per_repetition_success_rate)
from repro.protocols.gni_general import (FIELD_AUT_LEFT, FIELD_CLAIMS,
                                         ROUND_M1, _alpha_block, _compose,
                                         _inverse)


@pytest.fixture(scope="module")
def protocol():
    return GeneralGNIProtocol(6, repetitions=40)


class TestPermutationHelpers:
    def test_compose(self):
        assert _compose((1, 2, 0), (2, 0, 1)) == (0, 1, 2)

    def test_inverse(self):
        perm = (2, 0, 3, 1)
        inv = _inverse(perm)
        assert _compose(perm, inv) == (0, 1, 2, 3)
        assert _compose(inv, perm) == (0, 1, 2, 3)

    def test_alpha_block_offsets(self):
        bits = _alpha_block((1, 0), 2, 1)
        # Offsets start at n² = 4: α[0]=1 at bit 4, α[1]=0 at bit 5.
        assert bits == 1 << 4


class TestPairCatalog:
    def test_symmetric_yes_has_full_size(self):
        """The whole point of the compensation: symmetric inputs still
        give |S| = 2·n!."""
        catalog = pair_catalog(star_graph(6), cycle_graph(6))
        assert len(catalog) == 2 * math.factorial(6)

    def test_symmetric_no_has_half_size(self):
        g = cycle_graph(6)
        catalog = pair_catalog(g, g.relabel([1, 2, 3, 4, 5, 0]))
        assert len(catalog) == math.factorial(6)

    def test_extremely_symmetric_graphs(self):
        """Complete graph: one isomorphism class, n! automorphisms —
        the compensation must still produce exactly n! pairs."""
        catalog = pair_catalog(complete_graph(5), complete_graph(5))
        assert len(catalog) == math.factorial(5)

    def test_rigid_inputs_match_base_counts(self, rigid6):
        base = isomorphism_closure_encodings(rigid6[0], rigid6[1])
        compensated = pair_catalog(rigid6[0], rigid6[1])
        assert len(compensated) == len(base) == 2 * math.factorial(6)

    def test_witnesses_valid(self):
        from repro.graphs import is_automorphism
        g0, g1 = star_graph(5), cycle_graph(5)
        catalog = pair_catalog(g0, g1)
        graphs = (g0, g1)
        for encoding, (bit, sigma, alpha) in list(catalog.items())[:40]:
            relabeled = graphs[bit].relabel(list(sigma))
            assert is_automorphism(relabeled, alpha)


class TestUnrestrictedCorrectness:
    """The headline: symmetric inputs, where the base protocol's gap
    collapses, are handled correctly."""

    def test_yes_symmetric_accepted(self, protocol):
        instance = gni_instance(star_graph(6), cycle_graph(6))
        accepted = sum(
            run_protocol(protocol, instance, protocol.honest_prover(),
                         random.Random(i)).accepted
            for i in range(10))
        assert accepted >= 7

    def test_no_symmetric_rejected(self, protocol):
        g = star_graph(6)
        instance = gni_instance(g, g.relabel([3, 1, 2, 0, 4, 5]))
        accepted = sum(
            run_protocol(protocol, instance, protocol.honest_prover(),
                         random.Random(i)).accepted
            for i in range(10))
        assert accepted <= 3

    def test_mixed_symmetric_asymmetric(self, protocol, rigid6):
        instance = gni_instance(rigid6[0], cycle_graph(6))
        result = run_protocol(protocol, instance, protocol.honest_prover(),
                              random.Random(3))
        # Rigid vs cycle: non-isomorphic, so mostly accepted.
        prover = protocol.honest_prover()
        run_protocol(protocol, instance, prover, random.Random(4))
        assert sum(prover.last_claim_flags) >= protocol.threshold - 6

    def test_guarantees_meet_definition(self, protocol):
        g = protocol.guarantees()
        assert g.completeness > 2 / 3
        assert g.soundness_error < 1 / 3

    def test_pair_rates_straddle_bounds(self, protocol):
        rng = random.Random(5)
        p_yes_lb, p_no_ub = protocol.repetition_bounds()
        rate_yes = per_repetition_success_rate(
            star_graph(6), cycle_graph(6), protocol, 120, rng)
        g = star_graph(6)
        rate_no = per_repetition_success_rate(
            g, g.relabel([1, 0, 2, 3, 4, 5]), protocol, 120, rng)
        sigma = math.sqrt(0.25 / 120)
        assert rate_yes >= p_yes_lb - 4 * sigma
        assert rate_no <= p_no_ub + 4 * sigma


class TestBaseProtocolCollapse:
    """The ablation motivating the compensation: on symmetric inputs
    the *base* protocol's set sizes shrink by the automorphism counts
    and the YES/NO gap disappears."""

    def test_base_set_sizes_collapse(self):
        g0, g1 = star_graph(6), cycle_graph(6)
        base_yes = isomorphism_closure_encodings(g0, g1)
        # star: |Aut| = 5! = 120; cycle: |Aut| = 12.
        expected = math.factorial(6) // 120 + math.factorial(6) // 12
        assert len(base_yes) == expected  # 66 ≪ 1440

    def test_base_gap_vanishes_compensated_gap_survives(self):
        rng = random.Random(6)
        g0, g1 = star_graph(6), cycle_graph(6)
        g1_iso = g0.relabel([2, 0, 1, 4, 3, 5])
        base = GNIGoldwasserSipserProtocol(6, repetitions=8)
        base_yes = per_repetition_success_rate(g0, g1, base, 120, rng)
        base_no = per_repetition_success_rate(g0, g1_iso, base, 120, rng)
        general = GeneralGNIProtocol(6, repetitions=8)
        gen_yes = per_repetition_success_rate(g0, g1, general, 120, rng)
        gen_no = per_repetition_success_rate(g0, g1_iso, general, 120, rng)
        # Base gap: both rates are tiny and indistinguishable (< 5%).
        assert abs(base_yes - base_no) < 0.05
        # Compensated gap: healthy.
        assert gen_yes - gen_no > 0.08


class TestGeneralSoundnessMechanics:
    def test_forged_alpha_caught(self, protocol):
        """Swapping in a non-automorphism α must be rejected (the
        conjugated hash comparison catches it)."""
        instance = gni_instance(star_graph(6), cycle_graph(6))

        def break_alpha(claims):
            out = []
            for c in claims:
                if c is None:
                    out.append(None)
                else:
                    bit, sigma, alpha = c
                    bad = list(alpha)
                    bad[0], bad[1] = bad[1], bad[0]
                    out.append((bit, sigma, tuple(bad)))
            return tuple(out)

        corruptions = {(round_idx, v, FIELD_CLAIMS): break_alpha
                       for v in range(6) for round_idx in (1, 3)}
        prover = TamperingProver(protocol.honest_prover(), corruptions)
        result = run_protocol(protocol, instance, prover, random.Random(7))
        assert not result.accepted

    def test_forged_aut_aggregate_caught(self, protocol):
        instance = gni_instance(star_graph(6), cycle_graph(6))

        def corrupt(values):
            return tuple(
                (x + 1) % protocol.aut_family.p if x is not None else None
                for x in values)

        prover = TamperingProver(protocol.honest_prover(),
                                 {(ROUND_M1, 2, FIELD_AUT_LEFT): corrupt})
        result = run_protocol(protocol, instance, prover, random.Random(8))
        assert not result.accepted

    def test_input_validation(self, protocol, rng):
        with pytest.raises(ValueError):
            run_protocol(protocol, Instance(cycle_graph(6)),
                         protocol.honest_prover(), rng)


class TestGeneralCost:
    def test_cost_still_n_log_n_per_rep(self, rng):
        protocol = GeneralGNIProtocol(6, repetitions=8)
        instance = gni_instance(star_graph(6), cycle_graph(6))
        result = run_protocol(protocol, instance, protocol.honest_prover(),
                              rng)
        per_rep = result.max_cost_bits / 8
        n = 6
        assert per_rep <= 60 * n * math.log2(n)

    def test_costs_exceed_base_protocol_constant_factor(self, rigid6, rng):
        """The compensation costs a constant factor (two extra
        aggregates + the α table), not an order of growth."""
        instance = gni_instance(rigid6[0], rigid6[1])
        base = GNIGoldwasserSipserProtocol(6, repetitions=8)
        general = GeneralGNIProtocol(6, repetitions=8)
        base_cost = run_protocol(base, instance, base.honest_prover(),
                                 rng).max_cost_bits
        general_cost = run_protocol(general, instance,
                                    general.honest_prover(),
                                    rng).max_cost_bits
        assert base_cost < general_cost <= 6 * base_cost
