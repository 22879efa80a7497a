"""Declarative experiment specs and the E1–E14 registry.

An :class:`ExperimentSpec` names everything an experiment cell needs —
protocol constructor, instance family, size grid, prover panel, trial
count, seed — as *registry keys*, so a spec is pure data: hashable,
serializable, and executable by the sweep runner without touching the
benchmark scripts.  ``EXPERIMENTS.md``'s tables are projections of
these specs' recorded cells.

Content addressing
------------------
``spec.hash`` digests the spec's *identity* (name, kind, protocol,
graph, prover panel, seed) — the fields that make two records
comparable.  Grids and trial counts are deliberately excluded: they
identify individual cells inside one spec's store file (quick-mode and
full-grid cells coexist), not the spec itself.  Changing an identity
field retires the old store file wholesale, which is exactly the
semantics a regression baseline needs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..core.model import Instance, Protocol, Prover

#: Bumping this retires every committed store file at once (use when
#: the record schema itself changes incompatibly).
SPEC_VERSION = 1

#: Spec kinds the runner knows how to execute.
KIND_SWEEP = "sweep"          # protocol × instance × n-grid × provers
KIND_PACKING = "packing"      # Theorem 1.4's analytic packing table
KIND_COLLISION = "collision"  # Theorem 3.2 exact collision-seed counts
KIND_EDGECHECK = "edgecheck"  # E10 randomized edge-equality baseline
KIND_NETSIM_EQUIV = "netsim-equiv"    # E13 substrate ≡ abstract runner
KIND_NETSIM_FAULTS = "netsim-faults"  # E13 fault matrix + detection
KIND_LEDGER = "ledger"                # E14 symbolic bound inequalities
KINDS = (KIND_SWEEP, KIND_PACKING, KIND_COLLISION, KIND_EDGECHECK,
         KIND_NETSIM_EQUIV, KIND_NETSIM_FAULTS, KIND_LEDGER)


@lru_cache(maxsize=1)
def _rigid6():
    # Only the first two classes are used; the enumeration stops there.
    from ..graphs import rigid_family_exhaustive
    return rigid_family_exhaustive(6, max_size=2)


def _fixed(expected: int, n: int, family: str) -> None:
    if n != expected:
        raise ValueError(f"graph family {family!r} is fixed at "
                         f"n={expected} (got {n})")


def _cycle(n: int) -> Instance:
    from ..graphs import cycle_graph
    return Instance(cycle_graph(n))


def _dsym_cycle(n: int) -> Instance:
    from ..graphs import cycle_graph, dsym_graph
    return Instance(dsym_graph(cycle_graph(n), 2))


def _rigid(n: int) -> Instance:
    _fixed(6, n, "rigid")
    return Instance(_rigid6()[0])


def _dumbbell_no(n: int) -> Instance:
    from ..graphs import lower_bound_dumbbell
    _fixed(14, n, "dumbbell-no")
    rigid = _rigid6()
    return Instance(lower_bound_dumbbell(rigid[0], rigid[1]))


def _dumbbell_yes(n: int) -> Instance:
    from ..graphs import lower_bound_dumbbell
    _fixed(14, n, "dumbbell-yes")
    rigid = _rigid6()
    return Instance(lower_bound_dumbbell(rigid[0], rigid[0]))


def _gni_rigid_yes(n: int) -> Instance:
    from ..protocols import gni_instance
    _fixed(6, n, "gni-rigid-yes")
    rigid = _rigid6()
    return gni_instance(rigid[0], rigid[1])


def _gni_rigid_no(n: int) -> Instance:
    from ..protocols import gni_instance
    _fixed(6, n, "gni-rigid-no")
    rigid = _rigid6()
    return gni_instance(rigid[0], rigid[0].relabel([2, 0, 1, 4, 3, 5]))


def _gni_sym_yes(n: int) -> Instance:
    from ..graphs import cycle_graph, star_graph
    from ..protocols import gni_instance
    _fixed(6, n, "gni-sym-yes")
    return gni_instance(star_graph(6), cycle_graph(6))


def _gni_sym_no(n: int) -> Instance:
    from ..graphs import star_graph
    from ..protocols import gni_instance
    _fixed(6, n, "gni-sym-no")
    return gni_instance(star_graph(6), star_graph(6).relabel(
        [3, 1, 2, 0, 4, 5]))


def _marked_dumbbell(f_a, f_b) -> Instance:
    """Two marked 6-vertex subgraphs joined through an unmarked hub —
    the E11 network (same construction as ``bench_gni_marked``)."""
    from ..graphs import Graph
    from ..protocols import MARK_NONE, MARK_ONE, MARK_ZERO, marked_instance
    edges = list(f_a.edges)
    edges += [(u + 6, v + 6) for u, v in f_b.edges]
    edges += [(0, 12), (12, 6)]
    marks = {v: MARK_ZERO for v in range(6)}
    marks.update({v: MARK_ONE for v in range(6, 12)})
    marks[12] = MARK_NONE
    return marked_instance(Graph(13, edges), marks)


def _marked_yes(n: int) -> Instance:
    _fixed(13, n, "marked-yes")
    rigid = _rigid6()
    return _marked_dumbbell(rigid[0], rigid[1])


def _marked_no(n: int) -> Instance:
    _fixed(13, n, "marked-no")
    rigid = _rigid6()
    return _marked_dumbbell(rigid[0], rigid[0].relabel([2, 0, 1, 4, 3, 5]))


#: Instance builders, keyed by the family names specs use.
GRAPHS: Dict[str, Callable[[int], Instance]] = {
    "cycle": _cycle,
    "dsym-cycle": _dsym_cycle,
    "rigid": _rigid,
    "dumbbell-no": _dumbbell_no,
    "dumbbell-yes": _dumbbell_yes,
    "gni-rigid-yes": _gni_rigid_yes,
    "gni-rigid-no": _gni_rigid_no,
    "gni-sym-yes": _gni_sym_yes,
    "gni-sym-no": _gni_sym_no,
    "marked-yes": _marked_yes,
    "marked-no": _marked_no,
}


def _sym_dmam(n: int) -> Protocol:
    from ..protocols import SymDMAMProtocol
    return SymDMAMProtocol(n)


def _sym_dam(n: int) -> Protocol:
    from ..protocols import SymDAMProtocol
    return SymDAMProtocol(n)


def _sym_dam_smallprime(n: int) -> Protocol:
    """Protocol 2's machinery with Protocol 1's ~3·log n-bit prime —
    the E6 ablation target (sound in dMAM order, broken in dAM order)."""
    from ..protocols import SymDAMProtocol, protocol1_hash_family
    return SymDAMProtocol(n, family=protocol1_hash_family(n))


def _sym_lcp(n: int) -> Protocol:
    from ..protocols import SymLCP
    return SymLCP(n)


def _connectivity_lcp(n: int) -> Protocol:
    from ..protocols import ConnectivityLCP
    return ConnectivityLCP(n)


def _dsym_dam(n: int) -> Protocol:
    from ..graphs import DSymLayout
    from ..protocols import DSymDAMProtocol
    return DSymDAMProtocol(DSymLayout(n, 2))


def _dsym_lcp(n: int) -> Protocol:
    from ..graphs import DSymLayout
    from ..protocols import DSymLCP
    return DSymLCP(DSymLayout(n, 2))


def _gni_damam8(n: int) -> Protocol:
    from ..protocols import GNIGoldwasserSipserProtocol
    return GNIGoldwasserSipserProtocol(n, repetitions=8)


def _gni_general8(n: int) -> Protocol:
    from ..protocols import GeneralGNIProtocol
    return GeneralGNIProtocol(n, repetitions=8)


def _gni_marked8(n: int) -> Protocol:
    from ..protocols import MarkedGNIProtocol
    return MarkedGNIProtocol(n, k=6, repetitions=8)


#: Protocol constructors, keyed by the names specs use.  For DSym the
#: grid value is the *inner* graph size (the layout derives the full
#: network size); everywhere else it is the network size.
PROTOCOLS: Dict[str, Callable[[int], Protocol]] = {
    "sym-dmam": _sym_dmam,
    "sym-dam": _sym_dam,
    "sym-dam-smallprime": _sym_dam_smallprime,
    "sym-lcp": _sym_lcp,
    "connectivity-lcp": _connectivity_lcp,
    "dsym-dam": _dsym_dam,
    "dsym-lcp": _dsym_lcp,
    "gni-damam-8": _gni_damam8,
    "gni-general-8": _gni_general8,
    "gni-marked-8": _gni_marked8,
}


def _honest(protocol: Protocol) -> Prover:
    return protocol.honest_prover()


def _committed(protocol: Protocol) -> Prover:
    from ..protocols import CommittedMappingProver
    return CommittedMappingProver(protocol)


def _adaptive_swaps(protocol: Protocol) -> Prover:
    from ..protocols import AdaptiveCollisionProver
    return AdaptiveCollisionProver(protocol, search="swaps")


def _adaptive_perms(protocol: Protocol) -> Prover:
    from ..protocols import AdaptiveCollisionProver
    return AdaptiveCollisionProver(protocol, search="permutations")


def _search(protocol: Protocol) -> Prover:
    from ..adversary import LocalSearchProver
    return LocalSearchProver(protocol, trials=12, restarts=1, seed=2018)


#: Prover panel entries, keyed by the names specs use.  Each builder
#: must produce a prover compatible with the spec's protocol (spec
#: authors pick matching keys; the runner surfaces mismatches as the
#: constructor errors they are).
PROVERS: Dict[str, Callable[[Protocol], Prover]] = {
    "honest": _honest,
    "committed": _committed,
    "adaptive-swaps": _adaptive_swaps,
    "adaptive-perms": _adaptive_perms,
    "search": _search,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment: protocol × graph family × n-grid ×
    prover panel × trials/seed, plus the scaling claim to assert."""

    name: str
    experiment: str            # EXPERIMENTS.md section (E1 … E13)
    title: str
    protocol: str              # PROTOCOLS key ("-" for analytic kinds)
    graph: str                 # GRAPHS key ("-" for analytic kinds)
    grid: Tuple[int, ...]      # full sweep sizes
    quick_grid: Tuple[int, ...]  # CI smoke sizes (⊆ cheap end)
    provers: Tuple[str, ...]   # PROVERS keys
    trials: int
    quick_trials: int
    seed: int = 2018
    kind: str = KIND_SWEEP
    expect_model: Optional[str] = None   # fitter verdict target
    fit_prover: str = "honest"           # whose bits form the curve
    fit_models: Tuple[str, ...] = ("log n", "n", "n log n", "n^2")
    min_ratio: float = 1.5

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown spec kind {self.kind!r}")
        if self.kind in (KIND_SWEEP, KIND_NETSIM_EQUIV,
                         KIND_NETSIM_FAULTS):
            if self.protocol not in PROTOCOLS:
                raise ValueError(f"unknown protocol {self.protocol!r}")
            if self.graph not in GRAPHS:
                raise ValueError(f"unknown graph family {self.graph!r}")
            unknown = [p for p in self.provers if p not in PROVERS]
            if unknown:
                raise ValueError(f"unknown provers {unknown}")
        if self.expect_model is not None \
                and self.expect_model not in self.fit_models:
            raise ValueError(f"expected model {self.expect_model!r} "
                             f"not among candidates {self.fit_models}")

    @property
    def hash(self) -> str:
        """Content address of the spec's identity (12 hex chars)."""
        identity = {
            "version": SPEC_VERSION,
            "name": self.name,
            "kind": self.kind,
            "protocol": self.protocol,
            "graph": self.graph,
            "provers": list(self.provers),
            "seed": self.seed,
        }
        digest = hashlib.sha256(
            json.dumps(identity, sort_keys=True).encode("ascii"))
        return digest.hexdigest()[:12]

    def sizes(self, quick: bool) -> Tuple[int, ...]:
        return self.quick_grid if quick else self.grid

    def cell_trials(self, quick: bool) -> int:
        return self.quick_trials if quick else self.trials


def _spec(**kwargs) -> ExperimentSpec:
    return ExperimentSpec(**kwargs)


#: The registry: every experiment from EXPERIMENTS.md as declarative
#: specs, in table order.  Analytic kinds use "-" for protocol/graph.
REGISTRY: Tuple[ExperimentSpec, ...] = (
    _spec(name="E1-sym-dmam-cost", experiment="E1",
          title="Protocol 1 (Sym/dMAM) per-node cost — Theorem 1.1",
          protocol="sym-dmam", graph="cycle",
          grid=(8, 16, 32, 64, 128, 256, 1024, 4096, 16384),
          quick_grid=(8, 16, 32),
          provers=("honest",), trials=10, quick_trials=4,
          expect_model="log n", min_ratio=1.5),
    _spec(name="E1-sym-dmam-soundness", experiment="E1",
          title="Protocol 1 committed cheater on G(F0,F1) — Theorem 1.1",
          protocol="sym-dmam", graph="dumbbell-no",
          grid=(14,), quick_grid=(14,),
          provers=("committed",), trials=60, quick_trials=10),
    _spec(name="E1-lcp-baseline", experiment="E1",
          title="Sym LCP advice length — the Θ(n²) distributed-NP floor",
          protocol="sym-lcp", graph="cycle",
          grid=(8, 16, 32, 64, 128), quick_grid=(8, 16, 32),
          provers=("honest",), trials=2, quick_trials=2,
          expect_model="n^2", min_ratio=2.0),
    _spec(name="E2-sym-dam-cost", experiment="E2",
          title="Protocol 2 (Sym/dAM) per-node cost — Theorem 1.3",
          protocol="sym-dam", graph="cycle",
          grid=(8, 16, 32, 64), quick_grid=(8, 16),
          provers=("honest",), trials=5, quick_trials=3,
          expect_model="n log n", min_ratio=1.5),
    _spec(name="E2-sym-dam-soundness", experiment="E2",
          title="Adaptive collision search vs the union-bound prime",
          protocol="sym-dam", graph="dumbbell-no",
          grid=(14,), quick_grid=(14,),
          provers=("adaptive-swaps",), trials=15, quick_trials=5),
    _spec(name="E3-dsym-dam-cost", experiment="E3",
          title="DSym dAM per-node cost — Theorem 1.2 upper side",
          protocol="dsym-dam", graph="dsym-cycle",
          grid=(6, 12, 24, 48, 96, 1024, 4096, 16384),
          quick_grid=(6, 12),
          provers=("honest",), trials=5, quick_trials=3,
          expect_model="log n", min_ratio=1.5),
    _spec(name="E3-dsym-lcp-cost", experiment="E3",
          title="DSym LCP per-node cost — Theorem 1.2 Ω(n²) baseline",
          protocol="dsym-lcp", graph="dsym-cycle",
          grid=(6, 12, 24, 48, 96), quick_grid=(6, 12),
          provers=("honest",), trials=2, quick_trials=2,
          expect_model="n^2", min_ratio=2.0),
    _spec(name="E4-packing", experiment="E4",
          title="Theorem 1.4 packing bound — implied min protocol length",
          protocol="-", graph="-", kind=KIND_PACKING,
          grid=(6, 10, 100, 10 ** 4, 10 ** 6, 10 ** 9),
          quick_grid=(6, 10, 100),
          provers=("analytic",), trials=0, quick_trials=0,
          expect_model="log log n", fit_prover="analytic",
          fit_models=("log log n", "log n", "n"), min_ratio=1.5),
    _spec(name="E5-gni-yes", experiment="E5",
          title="GNI dAMAM honest acceptance, rigid YES pair — Theorem 1.5",
          protocol="gni-damam-8", graph="gni-rigid-yes",
          grid=(6,), quick_grid=(6,),
          provers=("honest",), trials=4, quick_trials=2),
    _spec(name="E5-gni-no", experiment="E5",
          title="GNI dAMAM honest acceptance, isomorphic NO pair",
          protocol="gni-damam-8", graph="gni-rigid-no",
          grid=(6,), quick_grid=(6,),
          provers=("honest",), trials=4, quick_trials=2),
    _spec(name="E6-order-dmam", experiment="E6",
          title="Small prime, commit-then-challenge (sound order)",
          protocol="sym-dmam", graph="rigid",
          grid=(6,), quick_grid=(6,),
          provers=("committed",), trials=25, quick_trials=6),
    _spec(name="E6-order-dam", experiment="E6",
          title="Small prime, challenge-then-respond (broken order)",
          protocol="sym-dam-smallprime", graph="rigid",
          grid=(6,), quick_grid=(6,),
          provers=("adaptive-perms",), trials=25, quick_trials=6),
    _spec(name="E7-collision-law", experiment="E7",
          title="Theorem 3.2 exact collision-seed counts vs the m/p cap",
          protocol="-", graph="-", kind=KIND_COLLISION,
          grid=(101, 401, 1601, 6373), quick_grid=(101, 401),
          provers=("exact",), trials=10, quick_trials=4),
    _spec(name="E8-substrate-pls", experiment="E8",
          title="Spanning-tree PLS (ConnectivityLCP) label length",
          protocol="connectivity-lcp", graph="cycle",
          grid=(32, 64, 128, 256, 512, 1024, 4096, 16384),
          quick_grid=(32, 64),
          provers=("honest",), trials=3, quick_trials=2,
          expect_model="log n", min_ratio=1.5),
    _spec(name="E9-general-yes", experiment="E9",
          title="Compensated GNI on symmetric inputs, YES side",
          protocol="gni-general-8", graph="gni-sym-yes",
          grid=(6,), quick_grid=(6,),
          provers=("honest",), trials=3, quick_trials=2),
    _spec(name="E9-general-no", experiment="E9",
          title="Compensated GNI on symmetric inputs, NO side",
          protocol="gni-general-8", graph="gni-sym-no",
          grid=(6,), quick_grid=(6,),
          provers=("honest",), trials=3, quick_trials=2),
    _spec(name="E10-edge-verification", experiment="E10",
          title="Randomized edge-equality baseline — k vs O(log k) bits",
          protocol="-", graph="-", kind=KIND_EDGECHECK,
          grid=(64, 256, 1024, 4096), quick_grid=(64, 256),
          provers=("hashed",), trials=150, quick_trials=40,
          expect_model="log n", fit_prover="hashed", min_ratio=2.0),
    _spec(name="E11-marked-yes", experiment="E11",
          title="Marked-subgraph GNI (Section 2.3), YES side",
          protocol="gni-marked-8", graph="marked-yes",
          grid=(13,), quick_grid=(13,),
          provers=("honest",), trials=3, quick_trials=2),
    _spec(name="E11-marked-no", experiment="E11",
          title="Marked-subgraph GNI (Section 2.3), NO side",
          protocol="gni-marked-8", graph="marked-no",
          grid=(13,), quick_grid=(13,),
          provers=("honest",), trials=3, quick_trials=2),
    _spec(name="E12-adversary-panel", experiment="E12",
          title="Adversary panel on a rigid NO instance (certify's core)",
          protocol="sym-dmam", graph="rigid",
          grid=(6,), quick_grid=(6,),
          provers=("committed", "search"), trials=20, quick_trials=5),
    _spec(name="E13-netsim-equivalence", experiment="E13",
          title="netsim substrate ≡ abstract runner (faults off)",
          protocol="sym-dmam", graph="cycle", kind=KIND_NETSIM_EQUIV,
          grid=(8, 16, 32), quick_grid=(8,),
          provers=("honest",), trials=5, quick_trials=2),
    _spec(name="E13-netsim-faults", experiment="E13",
          title="netsim fault matrix + hashed-equality detection bound",
          protocol="sym-dmam", graph="cycle", kind=KIND_NETSIM_FAULTS,
          grid=(8, 16), quick_grid=(8,),
          provers=("honest",), trials=20, quick_trials=6),
    _spec(name="E14-ledger", experiment="E14",
          title="Symbolic cost ledger — declared bounds vs measured bits",
          protocol="-", graph="-", kind=KIND_LEDGER,
          grid=(14,), quick_grid=(14,),
          provers=("ledger",), trials=0, quick_trials=0),
)

_BY_NAME: Dict[str, ExperimentSpec] = {spec.name: spec for spec in REGISTRY}
if len(_BY_NAME) != len(REGISTRY):  # pragma: no cover - registry bug
    raise RuntimeError("duplicate spec names in REGISTRY")


def get_spec(name: str) -> ExperimentSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown experiment spec {name!r}; known: "
                       f"{sorted(_BY_NAME)}") from None


def get_specs(names: Optional[Sequence[str]] = None
              ) -> Tuple[ExperimentSpec, ...]:
    """All registry specs, or the named subset in registry order."""
    if names is None:
        return REGISTRY
    wanted = set(names)
    unknown = wanted - set(_BY_NAME)
    if unknown:
        raise KeyError(f"unknown experiment specs {sorted(unknown)}; "
                       f"known: {sorted(_BY_NAME)}")
    return tuple(spec for spec in REGISTRY if spec.name in wanted)
