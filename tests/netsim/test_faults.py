"""Fault injection: drops/retransmits, duplication, reordering,
corruption, crashes, byzantine relays — and the hashed-equality
detection bound of the fault matrix."""

import random

import pytest

from repro import Instance
from repro.graphs import cycle_graph
from repro.netsim import (PROVER, ChannelPolicy, FaultPlan,
                          equality_scheme, run_netsim)
from repro.netsim.faults import RELIABLE
from repro.netsim.harness import fault_matrix
from repro.obs import session as obs_session
from repro.protocols import SymDMAMProtocol

SEED = 1234

#: Fault kinds the simulation tallies (= the trace event kinds the
#: injectors record, = the ``netsim/faults/*`` counter suffixes).
FAULT_KINDS = ("drop", "retransmit", "timeout", "duplicate", "corrupt",
               "crash", "violation")


def _run(faults, *, crosscheck="exact", seed=SEED, n=8, trace=True):
    protocol = SymDMAMProtocol(n)
    instance = Instance(cycle_graph(n))
    return run_netsim(protocol, instance, protocol.honest_prover(),
                      random.Random(seed), faults=faults,
                      crosscheck=crosscheck, net_seed=seed, trace=trace)


class TestChannelPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelPolicy(drop=1.5)
        with pytest.raises(ValueError):
            ChannelPolicy(flips=0)
        with pytest.raises(ValueError):
            ChannelPolicy(timeout=0)
        with pytest.raises(ValueError):
            ChannelPolicy(max_retries=-1)

    def test_reliability_flags(self):
        assert RELIABLE.is_reliable
        assert not ChannelPolicy(drop=0.1).is_reliable
        assert FaultPlan().is_fault_free
        assert not FaultPlan(crashes={0: 1}).is_fault_free


class TestDropsAndRetransmits:
    def test_retransmits_recover_moderate_loss(self):
        result = _run(FaultPlan(default=ChannelPolicy(drop=0.2,
                                                      max_retries=8)))
        assert result.accepted
        assert result.trace.count("retransmit") > 0
        assert result.lost_frames == 0

    def test_exhausted_budget_loses_frames_and_rejects(self):
        result = _run(FaultPlan(default=ChannelPolicy(drop=0.6,
                                                      max_retries=0)))
        assert not result.accepted
        assert result.lost_frames > 0
        assert result.trace.count("timeout") == result.lost_frames

    def test_lost_challenge_becomes_zero_codeword(self):
        """A challenge lost past the budget: the prover substitutes the
        all-zeros codeword.  Losing the *root's* seed (the coin the
        dMAM seed-echo check verifies) makes the root reject."""
        faults = FaultPlan(channels={
            (0, PROVER): ChannelPolicy(drop=1.0, max_retries=1)})
        result = _run(faults)
        assert result.lost_frames == 1
        assert not result.accepted
        assert result.rejecting_nodes() == [0]


class TestDuplicationAndReordering:
    def test_duplicates_are_idempotent(self):
        result = _run(FaultPlan(default=ChannelPolicy(duplicate=0.7)))
        assert result.accepted
        assert result.trace.count("duplicate") > 0

    def test_jitter_reorders_without_changing_verdicts(self):
        result = _run(FaultPlan(default=ChannelPolicy(jitter=4)))
        assert result.accepted

    def test_duplicates_count_channel_bits(self):
        clean = _run(FaultPlan())
        noisy = _run(FaultPlan(default=ChannelPolicy(duplicate=0.7)))
        assert sum(noisy.channel_bits.values()) \
            > sum(clean.channel_bits.values())
        assert noisy.node_cost_bits == clean.node_cost_bits


class TestCorruption:
    def test_untargeted_corruption_rejects(self):
        result = _run(FaultPlan(default=ChannelPolicy(corrupt=0.8,
                                                      flips=2)))
        assert not result.accepted
        assert result.trace.count("corrupt") > 0

    def test_targeted_field_skips_frames_without_it(self):
        """corrupt_field='seed' must leave M0 and challenge frames
        untouched — only frames carrying the field are flipped."""
        faults = FaultPlan(default=ChannelPolicy(corrupt=1.0,
                                                 corrupt_field="seed"))
        result = _run(faults)
        rounds = {event["round"]
                  for event in result.trace.of_kind("corrupt")}
        assert rounds == {2}  # dMAM: seed lives in the M2 frame only


class TestCrashAndByzantine:
    def test_crashed_node_rejects_and_stops_sending(self):
        result = _run(FaultPlan(crashes={3: 0}))
        assert not result.accepted
        assert not result.decisions[3]
        assert result.trace.count("crash") == 1
        assert all(event["src"] != 3
                   for event in result.trace.of_kind("send"))

    def test_byzantine_relay_garbles_neighbors(self):
        result = _run(FaultPlan(byzantine=frozenset({2})))
        assert not result.accepted
        # Its own challenges stay honest; only relays are garbled.
        garbled = result.trace.of_kind("corrupt")
        assert garbled and all(event["byzantine"] for event in garbled)
        assert all(event["src"] == 2 for event in garbled)


class TestFaultEventCounters:
    """``result.fault_events`` must agree with the trace and with the
    ``netsim/faults/*`` obs counters — three views of one tally."""

    @pytest.mark.parametrize("faults,expect_kinds", [
        (FaultPlan(default=ChannelPolicy(drop=0.3, max_retries=8)),
         {"drop", "retransmit"}),
        (FaultPlan(default=ChannelPolicy(duplicate=0.7)),
         {"duplicate"}),
        (FaultPlan(default=ChannelPolicy(corrupt=0.8, flips=2)),
         {"corrupt"}),
        (FaultPlan(crashes={3: 0}), {"crash"}),
    ], ids=["drop-retry", "duplicate", "corrupt", "crash"])
    def test_events_match_trace(self, faults, expect_kinds):
        result = _run(faults)
        assert expect_kinds <= set(result.fault_events)
        for kind in FAULT_KINDS:
            assert result.fault_events.get(kind, 0) \
                == result.trace.count(kind), kind

    def test_fault_free_run_has_no_events(self):
        assert _run(FaultPlan()).fault_events == {}

    def test_events_match_obs_counters(self):
        faults = FaultPlan(default=ChannelPolicy(drop=0.3, timeout=2,
                                                 max_retries=5))
        with obs_session(trace=False) as sess:
            result = _run(faults, trace=False)
            counters = {
                name[len("netsim/faults/"):]: snap["value"]
                for name, snap in sess.metrics.snapshot().items()
                if name.startswith("netsim/faults/")}
        assert counters == result.fault_events
        assert sum(result.fault_events.values()) > 0

    def test_violation_events_tally_detections(self):
        corrupt_seed = ChannelPolicy(corrupt=1.0, flips=1,
                                     corrupt_field="seed")
        result = _run(FaultPlan(channels={(PROVER, 3): corrupt_seed}),
                      crosscheck="hashed")
        assert result.fault_events.get("violation", 0) \
            == result.broadcast_violations > 0


class TestFaultMatrix:
    def test_matrix_is_green(self):
        matrix = fault_matrix(SEED, trials=20)
        assert matrix["all_ok"]

    def test_rows_tally_fault_events(self):
        matrix = fault_matrix(SEED, trials=10)
        rows = {row["fault"]: row for row in matrix["rows"]}
        assert rows["baseline"]["fault_events"] == {}
        assert rows["duplicate-0.5"]["fault_events"].get("duplicate",
                                                         0) > 0
        assert rows["drop-0.3-retry-5"]["fault_events"].get("drop",
                                                            0) > 0
        assert rows["crash-node-3"]["fault_events"] == {"crash": 10}
        assert rows["corrupt-broadcast-seed"]["fault_events"].get(
            "corrupt", 0) > 0

    def test_injected_vs_observed_gate_under_obs(self):
        """With metrics recording, every row must carry an exact
        injected-vs-observed counter match — and the gate folds into
        the row's ``ok``."""
        with obs_session(trace=False):
            matrix = fault_matrix(SEED, trials=10)
        assert matrix["all_ok"]
        for row in matrix["rows"]:
            assert row["counters_match"], row["fault"]
            assert row["observed_events"] == row["fault_events"]

    def test_gate_absent_without_metrics(self):
        matrix = fault_matrix(SEED, trials=5)
        assert all("counters_match" not in row
                   for row in matrix["rows"])

    def test_one_automorphism_search_per_matrix(self,
                                                automorphism_searches):
        # Every row and trial runs on one context, so the honest
        # prover's witness is searched once for the whole matrix.
        matrix, searches = automorphism_searches(fault_matrix, SEED, 3)
        assert searches == 1
        assert matrix["all_ok"]

    def test_detection_beats_analytic_bound(self):
        matrix = fault_matrix(SEED, trials=25)
        row = matrix["rows"][-1]
        assert row["fault"] == "corrupt-broadcast-seed"
        protocol = SymDMAMProtocol(8)
        bound = 1.0 - equality_scheme(
            protocol.family.seed_bits).error_bound
        assert row["analytic_bound"] == pytest.approx(bound)
        assert row["detection_rate"] >= bound
        assert row["accept_rate"] == 0.0
