"""The paper's protocols: Protocol 1 (dMAM Sym), Protocol 2 (dAM Sym),
the DSym dAM protocol, the distributed Goldwasser-Sipser GNI protocol,
and the non-interactive (distributed NP / LCP) baselines."""

from .batteries import (LabeledInstance, dsym_battery, gni_battery,
                        sym_battery)
from .analysis import (all_swaps, collision_seeds,
                       difference_coefficients,
                       exact_commit_acceptance, exact_soundness_bound,
                       optimal_committed_cheater)
from .dsym import DSymDAMProtocol, DSymForcedProver
from .fixed_map import FixedMappingProtocol, ForcedMappingProver
from .gni import (GNIDAMProtocol, GNIGoldwasserSipserProtocol,
                  GNIGuarantees,
                  GoldwasserSipserProver, gni_instance,
                  isomorphism_closure_encodings,
                  per_repetition_success_rate)
from .gni_marked import (MARK_NONE, MARK_ONE, MARK_ZERO,
                         MarkedGNIProtocol, MarkedGSProver,
                         marked_instance, marked_subgraph)
from .gni_general import GeneralGNIProtocol, GeneralGSProver, pair_catalog
from .lcp import ConnectivityLCP, DSymLCP, SymLCP
from .sym_dam import (AdaptiveCollisionProver, CommittedDAMProver,
                      HonestSymDAMProver, SymDAMProtocol,
                      protocol2_hash_family)
from .sym_dmam import (CommittedMappingProver, HonestSymDMAMProver,
                       SymDMAMProtocol, protocol1_hash_family)

__all__ = [name for name in dir() if not name.startswith("_")]
