"""The grand certification: Definition 2 checked for every protocol
over its canonical instance battery, in one place.

This is the closest executable statement of "the library reproduces
the paper": each protocol must clear > 2/3 on every YES instance with
its honest prover and stay < 1/3 on every NO instance against its
strongest shipped adversary.
"""

import random

import pytest

from repro.adversary import certify_protocol, render_certification
from repro.graphs import DSymLayout
from repro.protocols import (AdaptiveCollisionProver, CommittedMappingProver,
                             DSymDAMProtocol, GNIGoldwasserSipserProtocol,
                             SymDAMProtocol, SymDMAMProtocol)
from repro.protocols.batteries import (dsym_battery, gni_battery,
                                       sym_battery)


@pytest.fixture(scope="module")
def sym_instances():
    return sym_battery(6, random.Random(10))


@pytest.fixture(scope="module")
def dsym_instances():
    return dsym_battery(DSymLayout(6, 2), random.Random(11))


@pytest.fixture(scope="module")
def gni_instances():
    return gni_battery(6, random.Random(12))


class TestBatteryConstruction:
    def test_sym_battery_truths(self, sym_instances):
        from repro.graphs import is_symmetric
        for item in sym_instances:
            assert is_symmetric(item.instance.graph) == item.is_yes, \
                item.label

    def test_dsym_battery_truths(self, dsym_instances):
        from repro.graphs import in_dsym
        for item in dsym_instances:
            assert in_dsym(item.instance.graph, 6) == item.is_yes, \
                item.label
        assert any(item.is_yes for item in dsym_instances)
        assert any(not item.is_yes for item in dsym_instances)

    def test_gni_battery_truths(self, gni_instances):
        from repro.graphs import Graph, are_isomorphic
        for item in gni_instances:
            g0 = item.instance.graph
            n = g0.n
            edges = []
            for v in range(n):
                row = item.instance.input_of(v)
                edges += [(v, u) for u in range(v + 1, n)
                          if (row >> u) & 1]
            g1 = Graph(n, edges)
            assert (not are_isomorphic(g0, g1)) == item.is_yes, item.label


class TestDefinition2:
    """Each protocol against the cheater it is tested with, through
    ``certify_protocol``: Clopper-Pearson bounds at alpha = 0.01, so
    12 trials is the fewest that can certify (12/12 gives a lower
    bound of 0.681, 0/12 an upper bound of 0.319)."""

    def test_sym_dmam_certified(self, sym_instances):
        protocol = SymDMAMProtocol(sym_instances[0].instance.n)
        report = certify_protocol(
            protocol, sym_instances, trials=25, seed=20,
            adversaries={"committed-swap":
                         lambda instance: CommittedMappingProver(protocol)})
        assert report.all_certified, render_certification(report)

    def test_sym_dam_certified(self, sym_instances):
        protocol = SymDAMProtocol(sym_instances[0].instance.n)
        report = certify_protocol(
            protocol, sym_instances, trials=12, seed=21,
            adversaries={"adaptive-swaps":
                         lambda instance: AdaptiveCollisionProver(
                             protocol, search="swaps")})
        assert report.all_certified, render_certification(report)

    def test_dsym_certified(self, dsym_instances):
        protocol = DSymDAMProtocol(DSymLayout(6, 2))
        report = certify_protocol(
            protocol, dsym_instances, trials=25, seed=22,
            adversaries={"forced-mapping":
                         lambda instance: protocol.honest_prover()})
        assert report.all_certified, render_certification(report)

    def test_gni_certified(self, gni_instances):
        # Point estimates, not CP bounds: at 40 repetitions the
        # analytic completeness is 0.784, too close to 2/3 for a CP
        # lower bound at this trial count.  ``certify --sections gni``
        # certifies GNI with CP bounds at 120 repetitions.
        protocol = GNIGoldwasserSipserProtocol(6, repetitions=40)
        report = certify_protocol(
            protocol, gni_instances, trials=10, seed=23,
            adversaries={"optimal-claims":
                         lambda instance: protocol.honest_prover()})
        for certificate in report.instances:
            probability = certificate.best.estimate.probability
            if certificate.is_yes:
                assert probability > 2 / 3, certificate.label
            else:
                assert probability < 1 / 3, certificate.label
