"""Integration tests: one test class per theorem of the paper.

These are the end-to-end reproductions that EXPERIMENTS.md reports;
each exercises the full stack (graphs, hashing, network, protocol,
runner) rather than a single module.
"""

import math
import random

import pytest

from repro import Instance, gni_instance, run_protocol, run_trials
from repro.adversary import certify_protocol, render_certification
from repro.graphs import (DSymLayout, cycle_graph, dsym_graph,
                          dsym_no_instance, grid_graph,
                          lower_bound_dumbbell, rigid_family_exhaustive,
                          star_graph, symmetric_doubled_graph)
from repro.lowerbound import (EncodingProtocol, l1_distance,
                              lower_bound_table, mu_a, packing_bound)
from repro.protocols import (AdaptiveCollisionProver, CommittedMappingProver,
                             DSymDAMProtocol, DSymLCP,
                             GNIGoldwasserSipserProtocol, SymDAMProtocol,
                             SymDMAMProtocol, SymLCP)
from repro.protocols.batteries import LabeledInstance


class TestTheorem11_SymInDMAMLogN:
    """Sym ∈ dMAM[O(log n)]."""

    def test_definition2_on_instance_battery(self, rigid6):
        n = 14
        battery = [
            LabeledInstance("doubled-rigid", Instance(
                symmetric_doubled_graph(rigid6[0], bridge_length=2)), True),
            LabeledInstance("dumbbell-FF", Instance(lower_bound_dumbbell(
                rigid6[1], rigid6[1])), True),
            LabeledInstance("dumbbell-F1F2", Instance(lower_bound_dumbbell(
                rigid6[0], rigid6[1])), False),
            LabeledInstance("dumbbell-F2F3", Instance(lower_bound_dumbbell(
                rigid6[2], rigid6[3])), False),
        ]
        protocol = SymDMAMProtocol(n)
        report = certify_protocol(
            protocol, battery, trials=30, seed=11,
            adversaries={"committed-swap":
                         lambda instance: CommittedMappingProver(protocol)})
        assert report.all_certified, render_certification(report)

    def test_log_cost_budget(self):
        rng = random.Random(1)
        for n in (16, 64, 256):
            protocol = SymDMAMProtocol(n)
            result = run_protocol(protocol, Instance(cycle_graph(n)),
                                  protocol.honest_prover(), rng)
            # O(log n) with the implementation's constant (< 20:
            # roughly 4 id fields + 3 values mod p with p ~ n³).
            assert result.max_cost_bits <= 20 * math.log2(n)


class TestTheorem13_SymInDAMNLogN:
    """Sym ∈ dAM[O(n log n)]."""

    def test_correctness_both_sides(self, rigid6):
        rng = random.Random(13)
        n = 14
        protocol = SymDAMProtocol(n)
        yes = Instance(lower_bound_dumbbell(rigid6[0], rigid6[0]))
        no = Instance(lower_bound_dumbbell(rigid6[0], rigid6[1]))
        assert run_trials(protocol, yes, protocol.honest_prover(), 10,
                          rng.getrandbits(64)).probability == 1.0
        adversary = AdaptiveCollisionProver(protocol, search="swaps")
        assert run_trials(protocol, no, adversary, 15,
                          rng.getrandbits(64)).probability == 0.0

    def test_n_log_n_cost_budget(self):
        rng = random.Random(2)
        for n in (8, 16, 32):
            protocol = SymDAMProtocol(n)
            result = run_protocol(protocol, Instance(cycle_graph(n)),
                                  protocol.honest_prover(), rng)
            assert result.max_cost_bits <= 25 * n * math.log2(n)
            assert result.max_cost_bits >= n * math.log2(n)


class TestTheorem12_ExponentialSeparation:
    """DSym ∈ dAM[O(log n)] while LCP needs Ω(n²): measured curves."""

    def test_separation_curve(self):
        rng = random.Random(17)
        dam_costs = {}
        lcp_costs = {}
        for inner in (6, 12, 24):
            layout = DSymLayout(inner, 2)
            graph = dsym_graph(cycle_graph(inner), 2)
            instance = Instance(graph)
            dam = DSymDAMProtocol(layout)
            lcp = DSymLCP(layout)
            n = layout.total_n
            dam_costs[n] = run_protocol(dam, instance, dam.honest_prover(),
                                        rng).max_cost_bits
            lcp_costs[n] = run_protocol(lcp, instance, lcp.honest_prover(),
                                        rng).max_cost_bits
        # LCP grows quadratically, dAM logarithmically: the gap widens.
        ns = sorted(dam_costs)
        gaps = [lcp_costs[n] / dam_costs[n] for n in ns]
        assert gaps == sorted(gaps)
        assert gaps[-1] > 2 * gaps[0]
        assert all(lcp_costs[n] == n * n for n in ns)

    def test_dsym_correctness(self, asym6):
        rng = random.Random(19)
        layout = DSymLayout(6, 2)
        protocol = DSymDAMProtocol(layout)
        yes = Instance(dsym_graph(asym6, 2))
        no = Instance(dsym_no_instance(asym6, cycle_graph(6), 2))
        assert run_trials(protocol, yes, protocol.honest_prover(), 10,
                          rng.getrandbits(64)).probability == 1.0
        assert run_trials(protocol, no, protocol.honest_prover(), 30,
                          rng.getrandbits(64)).probability < 1 / 3


class TestTheorem14_LowerBoundMachinery:
    """The Ω(log log n) packing argument, executed."""

    def test_full_pipeline_on_rigid6(self, rigid6):
        rng = random.Random(23)
        # 1. A correct simple protocol induces far-apart distributions
        #    (Lemma 3.11) ...
        protocol = EncodingProtocol(6)
        mus = [mu_a(protocol, f, 4, rng) for f in rigid6]
        for i in range(len(mus)):
            for j in range(i + 1, len(mus)):
                assert l1_distance(mus[i], mus[j]) >= 2 / 3
        # 2. ... and at most 5^d of those fit (Lemma 3.12): with
        #    |F| = 8 distributions the packing inequality 8 < 5^d must
        #    hold for the protocol's domain size — it does, hugely.
        assert len(rigid6) < packing_bound(4)

    def test_bound_table_scaling(self):
        rows = lower_bound_table([10, 10 ** 2, 10 ** 4, 10 ** 8])
        bounds = [r.min_simple_length for r in rows]
        loglogs = [r.loglog_n for r in rows]
        # Monotone growth tracking log log n within a constant factor.
        assert bounds == sorted(bounds) and bounds[-1] > bounds[0]
        ratios = [b / c for b, c in zip(bounds, loglogs)]
        assert max(ratios) / min(ratios) < 4.0


class TestTheorem15_GNIInDAMAM:
    """GNI ∈ dAMAM[O(n log n)]."""

    def test_correctness_both_sides(self, rigid6):
        protocol = GNIGoldwasserSipserProtocol(6, repetitions=40)
        guarantees = protocol.guarantees()
        assert guarantees.completeness > 2 / 3
        assert guarantees.soundness_error < 1 / 3

        yes = gni_instance(rigid6[0], rigid6[1])
        no = gni_instance(rigid6[0],
                          rigid6[0].relabel([5, 1, 2, 3, 4, 0]))
        yes_acc = sum(
            run_protocol(protocol, yes, protocol.honest_prover(),
                         random.Random(i)).accepted for i in range(10))
        no_acc = sum(
            run_protocol(protocol, no, protocol.honest_prover(),
                         random.Random(i)).accepted for i in range(10))
        assert yes_acc >= 7
        assert no_acc <= 3

    def test_cost_budget(self, rigid6):
        rng = random.Random(29)
        protocol = GNIGoldwasserSipserProtocol(6, repetitions=8)
        instance = gni_instance(rigid6[0], rigid6[1])
        result = run_protocol(protocol, instance, protocol.honest_prover(),
                              rng)
        n = 6
        per_rep = result.max_cost_bits / 8
        # Each repetition costs Θ(n log n) bits (~log(n!) sized fields).
        assert per_rep <= 40 * n * math.log2(n)


class TestHeadlineComparison:
    """The paper's overall story in one table: per-node bits for Sym at
    a fixed network size, LCP vs dAM vs dMAM."""

    def test_cost_ordering(self):
        rng = random.Random(31)
        n = 64
        instance = Instance(star_graph(n))
        costs = {}
        for protocol in (SymLCP(n), SymDAMProtocol(n), SymDMAMProtocol(n)):
            costs[protocol.name] = run_protocol(
                protocol, instance, protocol.honest_prover(),
                rng).max_cost_bits
        assert costs["sym-dmam"] < costs["sym-dam"] < costs["sym-lcp"]
        # The separations are substantial by n = 64 (and widen with n:
        # log n vs n log n vs n²).
        assert costs["sym-lcp"] >= 2 * costs["sym-dam"]
        assert costs["sym-dam"] >= 10 * costs["sym-dmam"]
