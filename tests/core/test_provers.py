"""Tests for the generic adversarial provers: garbage, tampering, replay."""

import random

import pytest

from repro.core import (Instance, RandomGarbageProver, ReplayProver,
                        TamperingProver, record_responses, run_protocol,
                        run_trials)
from repro.graphs import cycle_graph
from repro.protocols import SymDMAMProtocol
from repro.protocols.sym_dmam import (FIELD_A, FIELD_B, FIELD_RHO,
                                      FIELD_SEED, ROUND_M0, ROUND_M2)
from repro.network.spanning_tree import FIELD_DIST, FIELD_PARENT, FIELD_ROOT


@pytest.fixture
def protocol():
    return SymDMAMProtocol(8)


@pytest.fixture
def instance():
    return Instance(cycle_graph(8))


class TestRandomGarbage:
    def test_garbage_never_accepted(self, protocol, instance, rng):
        prover = RandomGarbageProver(protocol)
        estimate = run_trials(protocol, instance, prover, 50,
                              rng.getrandbits(64))
        assert estimate.probability == 0.0

    def test_garbage_covers_all_fields(self, protocol, instance, rng):
        prover = RandomGarbageProver(protocol)
        result = run_protocol(protocol, instance, prover, rng)
        for round_idx in protocol.merlin_round_indices():
            for v in instance.graph.vertices:
                msg = result.transcript.messages[round_idx][v]
                assert set(msg) == set(protocol.merlin_fields(round_idx))

    def test_tuple_fields(self, protocol, instance, rng):
        prover = RandomGarbageProver(protocol, tuple_fields={FIELD_A: 3})
        result = run_protocol(protocol, instance, prover, rng)
        msg = result.transcript.messages[ROUND_M2][0]
        assert isinstance(msg[FIELD_A], tuple) and len(msg[FIELD_A]) == 3


class TestTampering:
    """Mutation testing of Protocol 1's verification: corrupt one field
    at one node and the protocol must reject (every check is
    load-bearing)."""

    @pytest.mark.parametrize("round_idx,field", [
        (ROUND_M0, FIELD_RHO),
        (ROUND_M0, FIELD_PARENT),
        (ROUND_M0, FIELD_DIST),
        (ROUND_M2, FIELD_A),
        (ROUND_M2, FIELD_B),
    ])
    def test_single_field_corruption_rejected(self, protocol, instance,
                                              round_idx, field, rng):
        prover = TamperingProver(
            protocol.honest_prover(),
            {(round_idx, 3, field): lambda value: value + 1})
        rejections = sum(
            not run_protocol(protocol, instance, prover, rng).accepted
            for _ in range(10))
        assert rejections == 10

    def test_root_field_corruption_rejected(self, protocol, instance, rng):
        prover = TamperingProver(
            protocol.honest_prover(),
            {(ROUND_M0, 0, FIELD_ROOT): lambda value: (value + 1) % 8})
        result = run_protocol(protocol, instance, prover, rng)
        assert not result.accepted

    def test_seed_echo_corruption_rejected(self, protocol, instance, rng):
        corruptions = {(ROUND_M2, v, FIELD_SEED):
                       (lambda value: (value + 1) % protocol.family.p)
                       for v in range(8)}
        prover = TamperingProver(protocol.honest_prover(), corruptions)
        result = run_protocol(protocol, instance, prover, rng)
        assert not result.accepted

    def test_identity_mutation_accepted(self, protocol, instance, rng):
        """Sanity check of the harness itself: a no-op corruption must
        leave the honest run accepted."""
        prover = TamperingProver(protocol.honest_prover(),
                                 {(ROUND_M0, 3, FIELD_RHO): lambda v: v})
        assert run_protocol(protocol, instance, prover, rng).accepted


class TestReplay:
    def test_replay_rejected_whp(self, protocol, instance):
        """Replaying a previous execution's messages must fail: the new
        root challenge differs from the replayed echo whp."""
        recorded = record_responses(protocol, instance,
                                    protocol.honest_prover(),
                                    random.Random(11))
        replayer = ReplayProver(recorded)
        accepted = sum(
            run_protocol(protocol, instance, replayer,
                         random.Random(100 + i)).accepted
            for i in range(20))
        assert accepted == 0

    def test_replay_of_missing_round(self, protocol, instance, rng):
        replayer = ReplayProver({})
        with pytest.raises(KeyError):
            replayer.respond(instance, 0, {}, {}, rng)


def _replay_cases():
    """(label, protocol, instance, replay_should_accept).

    Replay must fail against every protocol with an Arthur round (the
    fresh challenges break the echoed/aggregated values), and must
    succeed against the non-interactive LCPs — their pattern is all-
    Merlin, so a replayed transcript *is* a verbatim honest rerun.
    That asymmetry is the point: interactivity is what makes recorded
    proofs non-transferable.
    """
    from repro.graphs import (DSymLayout, cycle_graph, dsym_graph,
                              path_graph, star_graph)
    from repro.protocols import (ConnectivityLCP, DSymDAMProtocol,
                                 FixedMappingProtocol,
                                 GNIGoldwasserSipserProtocol, SymDAMProtocol,
                                 SymDMAMProtocol, SymLCP, gni_instance)

    n = 8
    cycle = Instance(cycle_graph(n))
    rotation = tuple((v + 1) % n for v in range(n))
    return [
        ("sym-dmam", SymDMAMProtocol(n), cycle, False),
        ("sym-dam", SymDAMProtocol(n), cycle, False),
        ("fixed-map", FixedMappingProtocol(rotation), cycle, False),
        ("dsym-dam", DSymDAMProtocol(DSymLayout(6, 2)),
         Instance(dsym_graph(cycle_graph(6), 2)), False),
        ("gni-damam",
         GNIGoldwasserSipserProtocol(4, repetitions=6, q=5, threshold=0),
         gni_instance(path_graph(4), star_graph(4)), False),
        ("sym-lcp", SymLCP(n), cycle, True),
        ("connectivity-lcp", ConnectivityLCP(n), cycle, True),
    ]


class TestReplayAcrossProtocols:
    @pytest.mark.parametrize("label,protocol,instance,should_accept",
                             _replay_cases(),
                             ids=[case[0] for case in _replay_cases()])
    def test_replay_verdict(self, label, protocol, instance,
                            should_accept):
        recorded = record_responses(protocol, instance,
                                    protocol.honest_prover(),
                                    random.Random(7))
        accepted = sum(
            run_protocol(protocol, instance, ReplayProver(recorded),
                         random.Random(500 + i)).accepted
            for i in range(10))
        if should_accept:
            assert accepted == 10, (
                f"{label}: replaying a non-interactive proof must "
                f"verify verbatim")
        else:
            assert accepted == 0, (
                f"{label}: a replayed transcript fooled the verifier "
                f"{accepted}/10 times")
