"""Certification: Definition 2 with confidence bounds and exact anchors.

A *certificate* here is a statement with explicit statistical
standing.  For every battery instance:

* **YES** — the honest prover's acceptance is estimated and reported
  with its Clopper–Pearson *lower* bound: the certificate passes when
  the bound clears 2/3 (so "completeness > 2/3" holds with confidence
  1 − α, not merely on the observed sample).
* **NO** — a panel of adversaries (shipped cheaters, the coordinate-
  ascent search, replay, garbage) is run and each estimate carries its
  Clopper–Pearson *upper* bound; the certificate passes when every
  per-adversary bound stays below 1/3.

Honest caveat, stated here because the JSON output repeats it: the CP
bound is per-adversary — "no *tested* adversary exceeds 1/3 (with
confidence 1 − α each)" — not a bound over all provers.  Universal
quantification is exactly what the exact game solver contributes, and
only on instances where it is feasible; :func:`solver_cross_validation`
runs it on dedicated small instances and checks it against
``protocols/analysis.py`` and the search adversary.  At battery scale
the universal statement rests on the paper's analytic bounds, which the
report carries alongside the measurements.

Where the committed-mapping semantics applies (both Sym protocols),
each adversary's *final commitment* is additionally scored exactly via
``exact_commit_acceptance`` — a zero-variance channel for "the search
never beats the analytic bound".
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..core.context import InstanceContext
from ..obs.session import active
from ..core.model import Instance, Protocol, Prover
from ..core.provers import (RandomGarbageProver, ReplayProver,
                            record_responses)
from ..core.runner import AcceptanceEstimate, run_trials
from ..graphs import DSymLayout, rigid_family_exhaustive
from ..hashing.linear import LinearHashFamily
from ..protocols.analysis import (all_swaps, exact_commit_acceptance,
                                  optimal_committed_cheater)
from ..protocols.batteries import (LabeledInstance, dsym_battery,
                                   gni_battery, sym_battery)
from ..protocols.dsym import DSymDAMProtocol
from ..protocols.fixed_map import FixedMappingProtocol
from ..protocols.gni import GNIGoldwasserSipserProtocol
from ..protocols.sym_dam import (AdaptiveCollisionProver, SymDAMProtocol)
from ..protocols.sym_dmam import CommittedMappingProver, SymDMAMProtocol
from .search import LocalSearchProver
from .spaces import SolverInfeasible, solve_protocol_game

#: instance -> adversary; one fresh prover per (instance, adversary).
AdversaryFactory = Callable[[Instance], Prover]

#: Definition 2's thresholds.
SOUNDNESS_THRESHOLD = 1.0 / 3.0
COMPLETENESS_THRESHOLD = 2.0 / 3.0


def _fraction_jsonable(value: Optional[Fraction]) -> Optional[Dict[str, Any]]:
    if value is None:
        return None
    return {"fraction": f"{value.numerator}/{value.denominator}",
            "float": float(value)}


@dataclass
class AdversaryOutcome:
    """One adversary's measured performance on one instance."""

    name: str
    estimate: AcceptanceEstimate
    cp_upper: float
    cp_lower: float
    #: exact acceptance of the final commitment, when computable.
    exact_value: Optional[Fraction] = None

    def to_jsonable(self) -> Dict[str, Any]:
        lo, hi = self.estimate.wilson_interval()
        return {
            "name": self.name,
            "accepted": self.estimate.accepted,
            "trials": self.estimate.trials,
            "probability": self.estimate.probability,
            "clopper_pearson_upper": self.cp_upper,
            "clopper_pearson_lower": self.cp_lower,
            "wilson_interval": [lo, hi],
            "exact_value": _fraction_jsonable(self.exact_value),
        }


@dataclass
class InstanceCertificate:
    """The per-instance verdict with its supporting measurements."""

    label: str
    is_yes: bool
    n: int
    alpha: float
    outcomes: List[AdversaryOutcome]
    #: exact ``sup_P Pr[accept]`` where the solver was feasible.
    game_value: Optional[Fraction] = None

    @property
    def best(self) -> AdversaryOutcome:
        """The strongest outcome (highest observed acceptance)."""
        return max(self.outcomes, key=lambda o: (o.estimate.probability,
                                                 o.name))

    @property
    def certified_upper(self) -> float:
        """Max per-adversary CP upper bound (NO-side certificate)."""
        return max(o.cp_upper for o in self.outcomes)

    @property
    def certified_lower(self) -> float:
        """The honest CP lower bound (YES-side certificate)."""
        return max(o.cp_lower for o in self.outcomes)

    @property
    def passes(self) -> bool:
        if self.is_yes:
            return self.certified_lower > COMPLETENESS_THRESHOLD
        return self.certified_upper < SOUNDNESS_THRESHOLD

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "is_yes": self.is_yes,
            "n": self.n,
            "alpha": self.alpha,
            "game_value": _fraction_jsonable(self.game_value),
            "adversaries": [o.to_jsonable() for o in self.outcomes],
            "certified_upper": (None if self.is_yes
                                else self.certified_upper),
            "certified_lower": (self.certified_lower if self.is_yes
                                else None),
            "passes": self.passes,
        }


@dataclass
class CertificationReport:
    """One protocol's certification over one battery."""

    protocol_name: str
    alpha: float
    trials: int
    seed: int
    workers: int
    instances: List[InstanceCertificate]
    #: the paper's analytic guarantees, for side-by-side display.
    analytic_completeness: Optional[float] = None
    analytic_soundness: Optional[float] = None
    notes: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def all_certified(self) -> bool:
        return all(cert.passes for cert in self.instances)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol_name,
            "alpha": self.alpha,
            "trials": self.trials,
            "seed": self.seed,
            "workers": self.workers,
            "analytic_completeness": self.analytic_completeness,
            "analytic_soundness": self.analytic_soundness,
            "caveat": ("Clopper-Pearson bounds are per tested adversary; "
                       "quantification over all provers comes from the "
                       "exact solver (small instances) and the analytic "
                       "bounds"),
            "instances": [cert.to_jsonable() for cert in self.instances],
            "all_certified": self.all_certified,
            "notes": list(self.notes),
        }


def analytic_bounds(protocol: Protocol
                    ) -> Tuple[Optional[float], Optional[float]]:
    """The paper's (completeness, soundness) guarantees for
    ``protocol``, or ``(None, None)`` when no closed form is wired up.
    """
    if isinstance(protocol, SymDMAMProtocol):
        return 1.0, protocol.family.collision_bound
    if isinstance(protocol, SymDAMProtocol):
        n = protocol.n
        return 1.0, min(1.0, (n ** n) * protocol.family.collision_bound)
    if isinstance(protocol, FixedMappingProtocol):
        return 1.0, protocol.family.collision_bound
    guarantees = getattr(protocol, "guarantees", None)
    if callable(guarantees):
        g = guarantees()
        return g.completeness, g.soundness_error
    return None, None


def default_adversaries(protocol: Protocol, *, seed: int = 2018,
                        search_trials: int = 24, search_restarts: int = 1,
                        workers: int = 1
                        ) -> Dict[str, AdversaryFactory]:
    """The standard NO-side panel: the protocol's strongest shipped
    cheater, the coordinate-ascent search where the commitment space
    exists, a replay of the strongest cheater's recorded responses
    against fresh challenges, and structured garbage."""
    panel: Dict[str, AdversaryFactory] = {}
    if isinstance(protocol, SymDMAMProtocol):
        strongest: AdversaryFactory = \
            lambda instance: CommittedMappingProver(protocol)
        panel["committed-swap"] = strongest
        panel["local-search"] = lambda instance: LocalSearchProver(
            protocol, trials=search_trials, seed=seed,
            restarts=search_restarts, workers=workers)
    elif isinstance(protocol, SymDAMProtocol):
        strongest = lambda instance: AdaptiveCollisionProver(
            protocol, search="swaps")
        panel["adaptive-swaps"] = strongest
        panel["local-search"] = lambda instance: LocalSearchProver(
            protocol, trials=search_trials, seed=seed,
            restarts=search_restarts, workers=workers)
    elif isinstance(protocol, FixedMappingProtocol):
        # The forced prover is simultaneously honest and optimal.
        strongest = lambda instance: protocol.honest_prover()
        panel["forced-mapping"] = strongest
    else:
        # GNI family: the GS prover claims exactly when a preimage
        # exists, which is the optimal per-repetition strategy.
        strongest = lambda instance: protocol.honest_prover()
        panel["optimal-claims"] = strongest
    panel["replay"] = lambda instance: ReplayProver(record_responses(
        protocol, instance, strongest(instance),
        random.Random(seed ^ 0x5EBA11)))
    panel["garbage"] = lambda instance: RandomGarbageProver(protocol)
    return panel


def _solve_game(protocol: Protocol, instance: Instance, **options):
    """Run the exact solver and publish its work counters
    (``adversary/solver/*``) to the ambient observability session."""
    solution = solve_protocol_game(protocol, instance, **options)
    sess = active()
    if sess is not None and sess.metrics_enabled:
        metrics = sess.metrics
        metrics.counter("adversary/solver/solved").inc()
        metrics.counter("adversary/solver/leaves").inc(solution.leaves)
        metrics.counter("adversary/solver/merlin_nodes").inc(
            solution.merlin_nodes)
    return solution


def _commitment_of(prover: Prover,
                   instance: Instance) -> Optional[Tuple[int, ...]]:
    """The mapping a committed-style prover ended up playing, if its
    interface exposes one."""
    mapping = getattr(prover, "mapping", None)
    if mapping is not None:
        return tuple(mapping)
    choose = getattr(prover, "choose_mapping", None)
    if callable(choose):
        return tuple(choose(instance.graph))
    return None


def certify_protocol(protocol: Protocol,
                     battery: Sequence[LabeledInstance], *,
                     trials: int, seed: int = 2018, alpha: float = 0.01,
                     workers: int = 1,
                     adversaries: Optional[Mapping[str,
                                                   AdversaryFactory]] = None,
                     solver_options: Optional[Dict[str, Any]] = None
                     ) -> CertificationReport:
    """Certify one protocol over one labeled battery.

    ``trials`` should be ≥ 12: below that even a perfect honest record
    cannot push the CP lower bound past 2/3 at α = 0.01.
    ``solver_options`` (a dict, possibly empty) additionally runs the
    exact game solver per instance with those adapter options, storing
    the value where feasible; None skips solving.
    """
    if adversaries is None:
        adversaries = default_adversaries(
            protocol, seed=seed,
            search_trials=max(12, trials // 2), workers=workers)
    completeness_bound, soundness_bound = analytic_bounds(protocol)
    sess = active()
    outer = nullcontext() if sess is None else sess.span(
        "adversary.certify", protocol=protocol.name,
        instances=len(battery), trials=trials, seed=seed)
    with outer:
        certificates = [
            _certify_instance(protocol, item, index, trials=trials,
                              seed=seed, alpha=alpha, workers=workers,
                              adversaries=adversaries,
                              solver_options=solver_options, sess=sess)
            for index, item in enumerate(battery)]
        if sess is not None and sess.metrics_enabled:
            metrics = sess.metrics
            metrics.counter("adversary/certify/instances").inc(
                len(certificates))
            metrics.counter("adversary/certify/passes").inc(
                sum(cert.passes for cert in certificates))
    return CertificationReport(
        protocol_name=protocol.name, alpha=alpha, trials=trials,
        seed=seed, workers=workers, instances=certificates,
        analytic_completeness=completeness_bound,
        analytic_soundness=soundness_bound)


def _certify_instance(protocol: Protocol, item: LabeledInstance,
                      index: int, *, trials: int, seed: int, alpha: float,
                      workers: int,
                      adversaries: Mapping[str, AdversaryFactory],
                      solver_options: Optional[Dict[str, Any]],
                      sess) -> InstanceCertificate:
    """One battery instance's certificate (optionally under a span)."""
    with (nullcontext() if sess is None else
          sess.span("adversary.certify_instance", protocol=protocol.name,
                    label=item.label, is_yes=item.is_yes,
                    n=item.instance.n)):
        context = InstanceContext(item.instance, protocol)
        base_seed = seed + 7919 * index
        outcomes = []
        if item.is_yes:
            estimate = run_trials(protocol, item.instance,
                                  protocol.honest_prover(), trials,
                                  base_seed, workers=workers,
                                  context=context)
            outcomes.append(AdversaryOutcome(
                name="honest", estimate=estimate,
                cp_upper=estimate.clopper_pearson_upper(alpha),
                cp_lower=estimate.clopper_pearson_lower(alpha)))
        else:
            for offset, (name, factory) in enumerate(adversaries.items()):
                prover = factory(item.instance)
                estimate = run_trials(protocol, item.instance, prover,
                                      trials, base_seed + 101 * offset,
                                      workers=workers, context=context)
                exact = None
                # Exact scoring enumerates the seed space, so it is
                # only on the table for ablation-sized primes — the
                # battery families have poly(n)-bit seeds.
                if isinstance(protocol, (SymDMAMProtocol, SymDAMProtocol)) \
                        and protocol.family.p <= 100_000 \
                        and not isinstance(prover, AdaptiveCollisionProver):
                    mapping = _commitment_of(prover, item.instance)
                    if mapping is not None:
                        exact = exact_commit_acceptance(
                            item.instance.graph, mapping, protocol.family)
                outcomes.append(AdversaryOutcome(
                    name=name, estimate=estimate,
                    cp_upper=estimate.clopper_pearson_upper(alpha),
                    cp_lower=estimate.clopper_pearson_lower(alpha),
                    exact_value=exact))
        game_value = None
        if solver_options is not None:
            try:
                game_value = _solve_game(protocol, item.instance,
                                         **solver_options).value
            except SolverInfeasible:
                game_value = None
        return InstanceCertificate(
            label=item.label, is_yes=item.is_yes, n=item.instance.n,
            alpha=alpha, outcomes=outcomes, game_value=game_value)


@dataclass
class SolverCheck:
    """One solver-vs-analysis-vs-search agreement row (small instance,
    ablation-sized family — cross-validation, not a Definition-2
    claim)."""

    label: str
    n: int
    p: int
    pool: str
    game_value: Fraction
    analysis_value: Fraction
    search_value: Fraction
    mc_estimate: AcceptanceEstimate
    cp_upper: float
    cp_lower: float

    @property
    def solver_matches_analysis(self) -> bool:
        return self.game_value == self.analysis_value

    @property
    def search_within_game(self) -> bool:
        return self.search_value <= self.game_value

    @property
    def cp_covers_exact(self) -> bool:
        return self.cp_lower <= float(self.game_value) <= self.cp_upper

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "n": self.n,
            "p": self.p,
            "pool": self.pool,
            "game_value": _fraction_jsonable(self.game_value),
            "analysis_value": _fraction_jsonable(self.analysis_value),
            "search_value": _fraction_jsonable(self.search_value),
            "mc_probability": self.mc_estimate.probability,
            "mc_trials": self.mc_estimate.trials,
            "clopper_pearson": [self.cp_lower, self.cp_upper],
            "solver_matches_analysis": self.solver_matches_analysis,
            "search_within_game": self.search_within_game,
            "cp_covers_exact": self.cp_covers_exact,
        }


def solver_cross_validation(*, seed: int = 2018, trials: int = 300,
                            alpha: float = 0.01, workers: int = 1,
                            graphs: int = 2) -> List[SolverCheck]:
    """The acceptance-criteria anchor: on solver-feasible instances the
    game value must equal ``analysis.py``'s optimal committed value,
    the search must never exceed it, and the Monte-Carlo CP interval
    must cover it.

    Uses Protocol 1 on rigid 6-vertex graphs with a deliberately small
    family (m = 36, p = 37) so the exact solver is fast and collisions
    are common enough for non-degenerate values.  The pool is the
    exhaustive non-identity permutations — the same space the search
    climbs — so "search ≤ game" is the sup over the search's entire
    reachable space, not a pool artifact.
    """
    family = LinearHashFamily(m=36, p=37)
    checks = []
    for graph in rigid_family_exhaustive(6, max_size=graphs):
        protocol = SymDMAMProtocol(6, family=family)
        instance = Instance(graph)
        solution = _solve_game(protocol, instance,
                               candidates="permutations")
        _mapping, analysis_value = optimal_committed_cheater(graph, family)
        search = LocalSearchProver(protocol, trials=48, seed=seed,
                                   restarts=2, workers=workers)
        result = search.search(instance)
        search_value = exact_commit_acceptance(graph, result.best_mapping,
                                               family)
        best_rho, _best_root = solution.best_initial_move
        estimate = run_trials(
            protocol, instance,
            CommittedMappingProver(protocol, mapping=best_rho),
            trials, seed + 31 * len(checks), workers=workers)
        checks.append(SolverCheck(
            label=f"rigid6[{len(checks)}]",
            n=graph.n, p=family.p, pool="permutations",
            game_value=solution.value,
            analysis_value=analysis_value,
            search_value=search_value,
            mc_estimate=estimate,
            cp_upper=estimate.clopper_pearson_upper(alpha),
            cp_lower=estimate.clopper_pearson_lower(alpha)))
    return checks


def standard_certification(*, seed: int = 2018, trials: int = 60,
                           alpha: float = 0.01, workers: int = 1,
                           sections: Optional[Sequence[str]] = None
                           ) -> Dict[str, Any]:
    """The full battery behind ``python -m repro certify``.

    Sections: ``sym-dmam``, ``sym-dam``, ``dsym``, ``gni`` (battery
    certifications) and ``solver`` (the exact-solver cross-validation).
    Per-section trial counts scale from ``trials`` to keep the slower
    protocols proportionate.
    """
    chosen = tuple(sections) if sections else ("sym-dmam", "sym-dam",
                                               "dsym", "gni", "solver")
    reports: List[CertificationReport] = []
    solver_checks: Optional[List[SolverCheck]] = None

    if "sym-dmam" in chosen or "sym-dam" in chosen:
        battery = sym_battery(6, random.Random(10))
        n = battery[0].instance.n
        if "sym-dmam" in chosen:
            reports.append(certify_protocol(
                SymDMAMProtocol(n), battery, trials=trials, seed=seed,
                alpha=alpha, workers=workers))
        if "sym-dam" in chosen:
            # The adaptive cheater re-hashes 91 candidates per trial
            # with Θ(n log n)-bit values; keep its share proportionate.
            reports.append(certify_protocol(
                SymDAMProtocol(n), battery,
                trials=max(12, trials // 4), seed=seed, alpha=alpha,
                workers=workers))
    if "dsym" in chosen:
        layout = DSymLayout(6, 2)
        reports.append(certify_protocol(
            DSymDAMProtocol(layout),
            dsym_battery(layout, random.Random(11)),
            trials=trials, seed=seed, alpha=alpha, workers=workers))
    if "gni" in chosen:
        # 120 repetitions: the analytic completeness bound at 40 reps
        # is 0.78, too close to 2/3 for a CP lower bound to clear it;
        # at 120 reps the bounds are 0.92 / 0.06 and the certificates
        # have headroom.
        reports.append(certify_protocol(
            GNIGoldwasserSipserProtocol(6, repetitions=120),
            gni_battery(6, random.Random(12)),
            trials=max(20, trials // 2), seed=seed, alpha=alpha,
            workers=workers))
    if "solver" in chosen:
        solver_checks = solver_cross_validation(
            seed=seed, trials=max(trials, 200), alpha=alpha,
            workers=workers)

    payload: Dict[str, Any] = {
        "seed": seed,
        "alpha": alpha,
        "workers": workers,
        "reports": reports,
        "solver_checks": solver_checks,
    }
    payload["all_certified"] = (
        all(report.all_certified for report in reports)
        and (solver_checks is None
             or all(check.solver_matches_analysis
                    and check.search_within_game
                    for check in solver_checks)))
    return payload


def certification_jsonable(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The machine-readable mirror of :func:`standard_certification`."""
    solver_checks = payload.get("solver_checks")
    return {
        "seed": payload["seed"],
        "alpha": payload["alpha"],
        "workers": payload["workers"],
        "reports": [report.to_jsonable()
                    for report in payload["reports"]],
        "solver_checks": (None if solver_checks is None
                          else [check.to_jsonable()
                                for check in solver_checks]),
        "all_certified": payload["all_certified"],
    }
