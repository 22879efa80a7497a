"""Tests for the marked-subgraph GNI protocol (the paper's alternative
Definition-4 variant)."""

import math
import random

import pytest

from repro.core import Instance, TamperingProver, run_protocol
from repro.graphs import Graph, path_graph, rigid_family_exhaustive
from repro.protocols import (MARK_NONE, MARK_ONE, MARK_ZERO,
                             MarkedGNIProtocol, marked_instance,
                             marked_subgraph)
from repro.protocols._gs import relabeler
from repro.protocols.gni_marked import (FIELD_CLAIMS, FIELD_COUNT0,
                                        FIELD_LABELS, FIELD_MARK,
                                        FIELD_ZSUMS, ROUND_M1, ROUND_M3)


def dumbbell_marked(f_a: Graph, f_b: Graph):
    """Two marked 6-vertex graphs joined through an unmarked connector."""
    edges = list(f_a.edges)
    edges += [(u + 6, v + 6) for u, v in f_b.edges]
    edges += [(0, 12), (12, 6)]
    graph = Graph(13, edges)
    marks = {v: MARK_ZERO for v in range(6)}
    marks.update({v: MARK_ONE for v in range(6, 12)})
    marks[12] = MARK_NONE
    return marked_instance(graph, marks)


@pytest.fixture(scope="module")
def protocol():
    return MarkedGNIProtocol(13, k=6, repetitions=40)


@pytest.fixture(scope="module")
def yes_instance(rigid6):
    return dumbbell_marked(rigid6[0], rigid6[1])


@pytest.fixture(scope="module")
def no_instance(rigid6):
    relabeled = rigid6[0].relabel([2, 0, 1, 4, 3, 5])
    return dumbbell_marked(rigid6[0], relabeled)


class TestHelpers:
    def test_marked_subgraph(self, yes_instance, rigid6):
        marks = {v: yes_instance.input_of(v)
                 for v in yes_instance.graph.vertices}
        sub, verts = marked_subgraph(yes_instance.graph, marks, MARK_ZERO)
        assert sub == rigid6[0]
        assert verts == list(range(6))

    def test_relabeled_encoding_identity(self, rigid6):
        sub = rigid6[0]
        identity = list(range(6))
        bits = relabeler(sub, 6)(identity)
        assert bits == sub.adjacency_bits()

    def test_relabeled_encoding_permutation(self, rigid6):
        sub = rigid6[0]
        perm = [1, 0, 3, 2, 5, 4]
        assert relabeler(sub, 6)(perm) == \
            sub.relabel(perm).adjacency_bits()

    def test_marked_instance_validates(self):
        with pytest.raises(ValueError):
            marked_instance(path_graph(3), {0: 0, 1: 5, 2: 1})


class TestCorrectness:
    def test_yes_accepted(self, protocol, yes_instance):
        accepted = sum(
            run_protocol(protocol, yes_instance, protocol.honest_prover(),
                         random.Random(i)).accepted
            for i in range(10))
        assert accepted >= 7

    def test_no_rejected(self, protocol, no_instance):
        accepted = sum(
            run_protocol(protocol, no_instance, protocol.honest_prover(),
                         random.Random(i)).accepted
            for i in range(10))
        assert accepted <= 3

    def test_unequal_sizes_trivially_accepted(self, protocol, rigid6):
        instance = dumbbell_marked(rigid6[0], rigid6[1])
        marks = dict(instance.inputs)
        marks[5] = MARK_NONE  # shrink side 0 to five vertices
        smaller = marked_instance(instance.graph, marks)
        result = run_protocol(protocol, smaller, protocol.honest_prover(),
                              random.Random(0))
        assert result.accepted  # 5 != 6: non-isomorphic for free

    def test_unequal_sizes_still_check_claims(self, protocol, rigid6):
        """The free accept on k₀ ≠ k₁ comes only after every claim
        check: a bogus claim (no labels behind it) still rejects."""
        instance = dumbbell_marked(rigid6[0], rigid6[1])
        marks = dict(instance.inputs)
        marks[5] = MARK_NONE
        smaller = marked_instance(instance.graph, marks)
        claim_first = {(ROUND_M1, v, FIELD_CLAIMS):
                       (lambda claims: ((0,),) + claims[1:])
                       for v in range(13)}
        prover = TamperingProver(protocol.honest_prover(), claim_first)
        result = run_protocol(protocol, smaller, prover, random.Random(0))
        assert not result.accepted
        assert not result.decisions[0]

    def test_wrong_promise_rejected(self, rigid6):
        """Equal sizes that differ from the declared k are outside the
        promise and must be rejected (the GS range is mistuned)."""
        protocol = MarkedGNIProtocol(13, k=5, repetitions=12)
        instance = dumbbell_marked(rigid6[0], rigid6[1])  # k really 6
        result = run_protocol(protocol, instance, protocol.honest_prover(),
                              random.Random(1))
        assert not result.accepted

    def test_guarantees(self, protocol):
        g = protocol.guarantees()
        assert g.completeness > 2 / 3
        assert g.soundness_error < 1 / 3
        assert protocol.z_test_slack < 1e-5


class TestSoundnessMechanics:
    def test_mark_lies_rejected_by_owner(self, protocol, yes_instance,
                                         rng):
        prover = TamperingProver(
            protocol.honest_prover(),
            {(ROUND_M1, 3, FIELD_MARK): lambda m: (m + 1) % 3})
        result = run_protocol(protocol, yes_instance, prover, rng)
        assert not result.accepted
        assert 3 in result.rejecting_nodes()

    def test_count_lies_rejected(self, protocol, yes_instance, rng):
        prover = TamperingProver(
            protocol.honest_prover(),
            {(ROUND_M1, 2, FIELD_COUNT0): lambda c: c + 1})
        assert not run_protocol(protocol, yes_instance, prover,
                                rng).accepted

    def test_duplicate_labels_caught_by_z_test(self, protocol,
                                               yes_instance):
        """Forcing node 1's labels to equal node 0's creates a
        duplicate; the committed-then-challenged polynomial test
        catches it (up to n/P ≈ 1e-6)."""
        rejections = 0
        for i in range(5):
            base = protocol.honest_prover()

            class LabelCopier(TamperingProver):
                def respond(self, instance, round_idx, randomness,
                            own_messages, rng):
                    response = self.base.respond(
                        instance, round_idx, randomness, own_messages, rng)
                    if round_idx == ROUND_M1:
                        response[1] = dict(response[1])
                        response[1][FIELD_LABELS] = \
                            response[0][FIELD_LABELS]
                    return response

            prover = LabelCopier(base, {})
            result = run_protocol(protocol, yes_instance, prover,
                                  random.Random(50 + i))
            # Runs with no claims at all can "reject" for threshold
            # reasons; either way acceptance must not happen.
            rejections += not result.accepted
        assert rejections == 5

    def test_zsum_forgery_caught(self, protocol, yes_instance, rng):
        def corrupt(zsums):
            return tuple(
                (x + 1) % protocol.z_prime if x is not None else None
                for x in zsums)

        prover = TamperingProver(protocol.honest_prover(),
                                 {(ROUND_M3, 4, FIELD_ZSUMS): corrupt})
        assert not run_protocol(protocol, yes_instance, prover,
                                rng).accepted

    def test_instance_validation(self, protocol, rng):
        with pytest.raises(ValueError):
            run_protocol(protocol, Instance(path_graph(13)),
                         protocol.honest_prover(), rng)


class TestRoundStructure:
    def test_labels_committed_before_z(self, protocol, yes_instance, rng):
        """The structural reason this protocol is genuinely dAMAM: the
        labelings live in round 1, the distinctness challenge in round
        2, its verification in round 3."""
        result = run_protocol(protocol, yes_instance,
                              protocol.honest_prover(), rng)
        assert FIELD_LABELS in result.transcript.messages[ROUND_M1][0]
        assert set(result.transcript.randomness) == {0, 2}
        assert FIELD_ZSUMS in result.transcript.messages[ROUND_M3][0]

    def test_cost_budget(self, protocol, yes_instance, rng):
        result = run_protocol(protocol, yes_instance,
                              protocol.honest_prover(), rng)
        n = 13
        per_rep = result.max_cost_bits / protocol.repetitions
        assert per_rep <= 40 * n * math.log2(n)
