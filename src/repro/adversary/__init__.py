"""Adversarial soundness certification.

Three layers, weakest-to-strongest quantification:

* :mod:`~repro.adversary.game_tree` / :mod:`~repro.adversary.spaces` —
  exact optimal-adversary values (``sup_P Pr[accept]``) by backward
  induction over the protocol's real decision functions, feasible on
  small instances;
* :mod:`~repro.adversary.search` — coordinate-ascent provers that
  scale to battery instances, with the exact value as a ceiling where
  both exist;
* :mod:`~repro.adversary.certify` — Clopper–Pearson-certified
  Definition-2 verdicts over the standard batteries, exposed as
  ``python -m repro certify``.
"""

from .game_tree import (ARTHUR_NODE, MERLIN_NODE, GameSolution, GameSpec,
                        brute_force_value, game_tree_value, solve_game)
from .spaces import (AdaptiveSymGame, CommittedSymGame, ForcedMappingGame,
                     SolverInfeasible, build_game, exact_game_value,
                     solve_protocol_game, solver_feasible)
from .search import (LocalSearchProver, SearchResult,
                     commitment_prover_factory)
from .certify import (AdversaryOutcome, CertificationReport,
                      InstanceCertificate, SolverCheck, analytic_bounds,
                      certification_jsonable, certify_protocol,
                      default_adversaries, render_certification,
                      render_solver_checks, solver_cross_validation,
                      standard_certification)

__all__ = [name for name in dir() if not name.startswith("_")]
