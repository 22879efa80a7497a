"""The certification layer end to end: batteries, CP bounds, the
solver cross-validation, JSON serialization, and the CLI.

The headline acceptance property lives here: every NO instance of the
standard battery gets a certified (Clopper-Pearson, α = 0.01) upper
bound strictly below the paper's 1/3 soundness target, across the
whole adversary panel.
"""

import json
import random

import pytest

from repro.adversary import (certification_jsonable, certify_protocol,
                             render_certification, render_solver_checks,
                             solver_cross_validation,
                             standard_certification)
from repro.core import Instance
from repro.core.runner import _fork_pool_context
from repro.graphs import SMALLEST_ASYMMETRIC, rigid_family_exhaustive
from repro.hashing import LinearHashFamily
from repro.protocols import CommittedMappingProver, SymDMAMProtocol
from repro.protocols.batteries import LabeledInstance, sym_battery
from repro.__main__ import main

needs_fork = pytest.mark.skipif(
    _fork_pool_context() is None,
    reason="fork-based multiprocessing unavailable on this platform")


@pytest.fixture(scope="module")
def battery():
    return sym_battery(6, random.Random(10))


@pytest.fixture(scope="module")
def report(battery):
    # The SYM battery instances are disjoint-union constructions, so
    # take n from the battery rather than the inner graph size.
    protocol = SymDMAMProtocol(battery[0].instance.n)
    return certify_protocol(protocol, battery, trials=30, seed=2018)


class TestCertifyProtocol:
    def test_battery_certifies(self, report):
        assert report.all_certified

    def test_no_instances_certified_below_one_third(self, report):
        """Acceptance criterion: on every NO instance the certified CP
        upper bound — the max over the whole adversary panel — is
        strictly below 1/3."""
        no_instances = [c for c in report.instances if not c.is_yes]
        assert no_instances
        for certificate in no_instances:
            assert certificate.certified_upper < 1 / 3
            # and the panel actually ran: honest is never in it,
            # replay/garbage always are.
            names = {o.name for o in certificate.outcomes}
            assert "honest" not in names
            assert {"replay", "garbage"} <= names

    def test_yes_instances_certified_above_two_thirds(self, report):
        yes_instances = [c for c in report.instances if c.is_yes]
        assert yes_instances
        for certificate in yes_instances:
            assert certificate.certified_lower > 2 / 3
            assert [o.name for o in certificate.outcomes] == ["honest"]

    def test_analytic_bounds_attached(self, report):
        assert report.analytic_completeness == 1.0
        assert report.analytic_soundness is not None
        assert report.analytic_soundness < 1 / 3

    def test_render_is_textual(self, report):
        text = "\n".join(render_certification(report))
        assert "all certified" in text
        assert "PASS" in text and "FAIL" not in text


class TestAdversaryPanel:
    def test_empty_panel_rejected_before_any_trial(self, battery,
                                                   monkeypatch):
        """A NO instance with no adversary to run has no soundness
        verdict, so the call is refused up front rather than returning
        a report whose verdict cannot be computed."""
        import repro.adversary.certify as certify_module
        ran = []
        real_run_trials = certify_module.run_trials

        def counting_run_trials(*args, **kwargs):
            ran.append(args[3])
            return real_run_trials(*args, **kwargs)

        monkeypatch.setattr(certify_module, "run_trials",
                            counting_run_trials)
        protocol = SymDMAMProtocol(battery[0].instance.n)
        assert any(not item.is_yes for item in battery)
        with pytest.raises(ValueError, match=protocol.name):
            certify_protocol(protocol, battery, trials=12, adversaries={})
        assert ran == []

    def test_best_adversary_reported(self):
        """With two adversaries on one NO instance the certificate
        reports the one accepted more often and the larger CP upper
        bound, whichever panel position it holds."""
        protocol = SymDMAMProtocol(6, family=LinearHashFamily(m=36, p=37))
        battery = [LabeledInstance("rigid6", Instance(SMALLEST_ASYMMETRIC),
                                   False)]
        report = certify_protocol(
            protocol, battery, trials=20, seed=2018,
            adversaries={
                "committed-swap":
                    lambda instance: CommittedMappingProver(protocol),
                "fixed-swap": lambda instance: CommittedMappingProver(
                    protocol, mapping=(1, 0, 2, 3, 4, 5))})
        (certificate,) = report.instances
        first, second = certificate.outcomes
        assert first.estimate.accepted < second.estimate.accepted
        assert certificate.best is second
        assert certificate.certified_upper == second.cp_upper
        assert second.cp_upper > first.cp_upper


class TestExactScoring:
    def test_ablation_family_records_exact_and_game_values(self):
        """On an ablation-sized family every committed adversary gets an
        exact (all-seeds) score, and none exceeds the game value."""
        family = LinearHashFamily(m=36, p=37)
        graph = rigid_family_exhaustive(6, max_size=1)[0]
        battery = [LabeledInstance("rigid6[0]", Instance(graph), False)]
        report = certify_protocol(
            SymDMAMProtocol(6, family=family), battery, trials=20,
            seed=2018, solver_options={"candidates": "swaps"})
        certificate = report.instances[0]
        from fractions import Fraction
        assert certificate.game_value == Fraction(14, 37)
        scored = [o for o in certificate.outcomes
                  if o.exact_value is not None]
        assert any(o.name == "committed-swap" for o in scored)
        for outcome in scored:
            assert outcome.exact_value <= certificate.game_value
        # Note: at p = 37 the best swap fools 14/37 > 1/3 of the seeds,
        # so this instance does NOT certify — the ablation family is
        # for cross-validation, not soundness claims.
        assert not certificate.passes


class TestWorkerPool:
    @needs_fork
    def test_workers_2_matches_serial(self, battery):
        """Satellite 5: the certification run over the fork pool is
        bit-identical to the serial run — same accepted counts, same
        verdicts — so CI can use workers=2 safely."""
        protocol = SymDMAMProtocol(battery[0].instance.n)
        serial = certify_protocol(protocol, battery[:3],
                                  trials=16, seed=77, workers=1)
        forked = certify_protocol(protocol, battery[:3],
                                  trials=16, seed=77, workers=2)
        assert forked.workers == 2
        for one, two in zip(serial.instances, forked.instances):
            assert one.label == two.label
            assert ([o.estimate.accepted for o in one.outcomes]
                    == [o.estimate.accepted for o in two.outcomes])


class TestSolverCrossValidation:
    def test_checks_hold(self):
        checks = solver_cross_validation(seed=2018, trials=200,
                                         graphs=1)
        assert len(checks) == 1
        for check in checks:
            assert check.solver_matches_analysis
            assert check.search_within_game
            assert check.cp_covers_exact
        assert "game" in "\n".join(render_solver_checks(checks))


class TestSerializationAndCLI:
    @pytest.fixture(scope="class")
    def payload(self):
        return standard_certification(trials=15,
                                      sections=["sym-dmam"])

    def test_payload_certifies(self, payload):
        assert payload["all_certified"]

    def test_jsonable_round_trips(self, payload):
        jsonable = certification_jsonable(payload)
        text = json.dumps(jsonable, sort_keys=True)
        back = json.loads(text)
        report = back["reports"][0]
        assert report["protocol"]
        assert report["all_certified"] is True
        for certificate in report["instances"]:
            assert certificate["passes"] is True
            for outcome in certificate["adversaries"]:
                assert 0.0 <= outcome["clopper_pearson_upper"] <= 1.0

    def test_cli_text_mode(self, capsys):
        code = main(["certify", "--trials", "15",
                     "--sections", "sym-dmam"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: CERTIFIED" in out

    def test_cli_json_mode(self, capsys):
        code = main(["certify", "--trials", "15",
                     "--sections", "sym-dmam", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        parsed = json.loads(out)
        assert parsed["all_certified"] is True
