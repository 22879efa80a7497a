"""Tests for the execution report renderer."""

import random

import pytest

from repro.core import Instance, TamperingProver, run_protocol
from repro.core.report import describe_rounds, render_execution
from repro.graphs import cycle_graph
from repro.protocols import SymDMAMProtocol
from repro.protocols.sym_dmam import FIELD_RHO, ROUND_M0


@pytest.fixture
def executed(rng):
    protocol = SymDMAMProtocol(8)
    instance = Instance(cycle_graph(8))
    result = run_protocol(protocol, instance, protocol.honest_prover(),
                          rng)
    return protocol, instance, result


class TestDescribeRounds:
    def test_round_kinds(self):
        lines = describe_rounds(SymDMAMProtocol(6))
        assert len(lines) == 3
        assert "Merlin" in lines[0]
        assert "Arthur" in lines[1]
        assert "Merlin" in lines[2]

    def test_broadcast_fields_starred(self):
        lines = describe_rounds(SymDMAMProtocol(6))
        assert "root*" in lines[0]
        assert "rho" in lines[0] and "rho*" not in lines[0]


class TestRenderExecution:
    def test_accepted_report(self, executed):
        protocol, instance, result = executed
        text = render_execution(protocol, instance, result)
        assert "ACCEPTED" in text
        assert "sym-dmam" in text
        assert "node 0" in text
        assert "rejecting nodes" not in text

    def test_rejected_report_names_nodes(self, rng):
        protocol = SymDMAMProtocol(8)
        instance = Instance(cycle_graph(8))
        prover = TamperingProver(
            protocol.honest_prover(),
            {(ROUND_M0, 5, FIELD_RHO): lambda x: (x + 1) % 8})
        result = run_protocol(protocol, instance, prover, rng)
        text = render_execution(protocol, instance, result)
        assert "REJECTED" in text
        assert "rejecting nodes" in text
        assert "node 5" in text  # rejecting nodes are always shown

    def test_node_selection(self, executed):
        protocol, instance, result = executed
        text = render_execution(protocol, instance, result, nodes=[7])
        assert "node 7" in text and "node 0" not in text

    def test_long_values_truncated(self, executed):
        protocol, instance, result = executed
        # Hash values mod p (~4-6 digits) exceed a 3-char budget.
        text = render_execution(protocol, instance, result, value_limit=3)
        assert "..." in text
