"""repro — Interactive Distributed Proofs (Kol, Oshman, Saxena; PODC 2018).

A complete, executable reproduction of the paper: the dAM / dMAM /
dAMAM model of distributed interactive proofs, the Symmetry protocols
(Theorems 1.1 and 1.3), the DSym separation (Theorem 1.2), the
Ω(log log n) lower-bound machinery (Theorem 1.4), and the distributed
Goldwasser–Sipser protocol for Graph Non-Isomorphism (Theorem 1.5) —
together with every substrate they need: an exact network simulator
with locality enforced by construction, the Theorem-3.2 linear hash
family, a distributed ε-almost pairwise-independent hash, the
spanning-tree proof labeling scheme, graph automorphism/isomorphism
search, and rigid graph families.

Quick start::

    import random
    from repro import Instance, SymDMAMProtocol, run_protocol
    from repro.graphs import cycle_graph

    graph = cycle_graph(8)                      # symmetric: YES instance
    protocol = SymDMAMProtocol(graph.n)
    result = run_protocol(protocol, Instance(graph),
                          protocol.honest_prover(), random.Random(0))
    assert result.accepted
    print(f"per-node cost: {result.max_cost_bits} bits")

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every theorem.
"""

from .core import (AcceptanceEstimate, AndAmplifiedProtocol,
                   ExecutionResult, Instance, InstanceContext, LocalView,
                   Protocol, ProtocolViolation, Prover, run_protocol,
                   run_trials)
from .graphs import Graph
from .protocols import (ConnectivityLCP, DSymDAMProtocol, DSymLCP,
                        GNIGoldwasserSipserProtocol, SymDAMProtocol,
                        SymDMAMProtocol, SymLCP, gni_instance)

__version__ = "1.0.0"

__all__ = [
    "AcceptanceEstimate",
    "AndAmplifiedProtocol",
    "ConnectivityLCP",
    "DSymDAMProtocol",
    "DSymLCP",
    "ExecutionResult",
    "GNIGoldwasserSipserProtocol",
    "Graph",
    "Instance",
    "InstanceContext",
    "LocalView",
    "Protocol",
    "ProtocolViolation",
    "Prover",
    "SymDAMProtocol",
    "SymDMAMProtocol",
    "SymLCP",
    "gni_instance",
    "run_protocol",
    "run_trials",
    "__version__",
]
