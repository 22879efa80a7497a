"""Batch kernels for the Sym protocols (Protocols 1 and 2).

Both protocols share one algebraic skeleton, which is what makes them
vectorizable: the prover commits to a mapping ρ, a root and a BFS tree
that are **pure functions of the instance** (exposed through
``Prover.batch_plan``), and the only challenge-dependent work is

1. hashing every node's adjacency row and ρ-image row under the root's
   seed — a ``(trials, nodes)`` evaluation of the Theorem-3.2 family
   (:meth:`~repro.hashing.linear.LinearHashFamily.row_hash_batch`,
   one int64 matmul per side),
2. folding the per-node terms up the spanning tree (one prefix sum
   over a DFS preorder, in which every subtree is a contiguous run), and
3. the root's collision check ``a_r == b_r`` — the accept mask.

Every other verifier check (tree shape, broadcast consistency, range
checks, aggregation equalities) is challenge-independent and passes by
construction for these provers, so the per-trial verdict reduces to
the mask; the runner still cross-checks trial 0 of every batch against
the reference engine (:class:`~repro.core.kernels.base.KernelMismatch`)
so that this reduction can never silently drift from the real decision
functions.

Permutation ρ's ride the sparse path: both hash sides use the CSR
closed adjacency (``InstanceContext.closed_adjacency_csr``), the image
side with its column indices mapped through ρ — O(trials · edges) work
and memory, which is what makes n in the tens of thousands batchable.
Protocol 2's committed provers may carry arbitrary *mappings*, which
go through a dense one-hot matmul instead — Lemma 3.1 never required a
permutation, and neither does the kernel.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, Optional, Sequence, Tuple

from ...protocols import sym_dam, sym_dmam
from ...protocols.sym_dam import (CommittedDAMProver, HonestSymDAMProver,
                                  SymDAMProtocol)
from ...protocols.sym_dmam import (CommittedMappingProver,
                                   HonestSymDMAMProver, SymDMAMProtocol)
from ..context import InstanceContext
from ..model import Instance, Protocol, Prover
from ..runner import ExecutionResult, Transcript
from ._np import randrange_batch, require_numpy, supported_modulus
from .base import TrialBatch, TrialKernel


class _SymAggregateKernel(TrialKernel):
    """Shared batch math for the commit-hash-aggregate skeleton."""

    #: round index whose challenges seed the hashes (subclass).
    ARTHUR_ROUND: int = 0

    def __init__(self, protocol: Protocol, instance: Instance,
                 context: InstanceContext, prover: Prover,
                 rho: Tuple[int, ...], root: int) -> None:
        super().__init__(protocol, instance, context, prover)
        np = require_numpy()
        self.family = protocol.family
        self.p = self.family.p
        n = instance.n
        self.n = n
        self.rho = tuple(rho)
        self.root = root

        rho_arr = np.asarray(self.rho, dtype=np.int64)
        if sorted(self.rho) == list(range(n)):
            # Permutation: hash both sides sparsely.  The b-side row of
            # node v is the characteristic vector of ρ(N[v]) — the same
            # CSR layout with every column index mapped through ρ (a
            # permutation never collapses entries), so no dense (n, n)
            # matrix is ever materialized.
            indptr, indices = context.closed_adjacency_csr()
            image_indices = rho_arr[indices]
            image_indices.setflags(write=False)
            self._csr = (indptr, indices)
            self._csr_image = (indptr, image_indices)
            self._adjacency = None
            self._image_rows = None
        else:
            # Arbitrary mapping (Protocol 2 committed cheaters): the
            # image set ρ(N[v]) may collapse vertices, so build it as
            # closed-adjacency × one-hot(ρ), clamped back to 0/1.
            # These provers only appear on small NO instances, where
            # the dense path is fine.
            adjacency = context.closed_adjacency()
            onehot = np.zeros((n, n), dtype=np.int64)
            onehot[np.arange(n), rho_arr] = 1
            image_rows = (adjacency @ onehot > 0).astype(np.int64)
            self._csr = None
            self._csr_image = None
            self._adjacency = adjacency
            self._image_rows = image_rows
        self._a_row_index = np.arange(n, dtype=np.int64)
        self._b_row_index = rho_arr
        self._order, self._ends = context.tree_levels(root)
        advice = context.tree_advice(root)
        self.parent = advice.parent
        self.dist = advice.dist
        # The only root check that is not satisfied by construction
        # besides the collision itself.
        self._root_static_ok = self.rho[root] != root

        # Per-node bit accounting, via the protocol's own meters on one
        # node's template messages: every transmitted value lies in its
        # declared domain, so the charge is value-independent and the
        # same at every node.  The trial-0 cross-check still compares
        # all n charges with the reference engine's.
        charge = sum(protocol.arthur_bits(instance, r)
                     for r in protocol.arthur_round_indices())
        charge += sum(protocol.merlin_bits(instance, r, message)
                      for r, message in self._template_messages(root))
        self.node_bits = (charge,) * n
        self._max_bits = charge
        self._total_bits = charge * n

    # -- subclass layout -------------------------------------------------

    def _template_messages(self, v: int):
        """``(round, message)`` pairs node ``v`` receives, with
        domain-representative placeholder values for the per-trial
        fields (costs are value-independent within the domain)."""
        raise NotImplementedError

    def _materialize_transcript(self, challenges: Sequence[int],
                                a_values: Sequence[int],
                                b_values: Sequence[int]) -> Transcript:
        raise NotImplementedError

    # -- batch math ------------------------------------------------------

    def _compute(self, seed: int, start: int,
                 count: int) -> Dict[str, Any]:
        np = require_numpy()
        p = self.p
        n = self.n

        tick = time.perf_counter()
        # Per-trial challenge streams, byte-compatible with the
        # reference engine: trial t draws n seeds from
        # random.Random(seed + t) in vertex order.  The Sym provers
        # never touch the rng, so these are the trial's only draws and
        # the bulk draw may consume the stream past them.
        challenges = np.empty((count, n), dtype=np.int64)
        for i in range(count):
            challenges[i] = randrange_batch(
                random.Random(seed + start + i), p, n)
        arthur_seconds = time.perf_counter() - tick

        tick = time.perf_counter()
        # Both sides hash under the root's seeds: one table build.  Each
        # side still gathers on its own, which keeps the transient
        # (trials, nnz) array at one side's size.
        tables = self.family.row_tables_batch(challenges[:, self.root], n)
        if self._csr is not None:
            a_terms = self.family.row_hash_batch_csr(
                tables, self._a_row_index, *self._csr)
            b_terms = self.family.row_hash_batch_csr(
                tables, self._b_row_index, *self._csr_image)
        else:
            a_terms = self.family.row_hash_batch(
                tables, self._a_row_index, self._adjacency)
            b_terms = self.family.row_hash_batch(
                tables, self._b_row_index, self._image_rows)
        a_values = self._aggregate(a_terms)
        b_values = self._aggregate(b_terms)
        merlin_seconds = time.perf_counter() - tick

        tick = time.perf_counter()
        collide = a_values[:, self.root] == b_values[:, self.root]
        if self._root_static_ok:
            accepted = collide
        else:  # pragma: no cover - provers guarantee a moved root
            accepted = np.zeros(count, dtype=bool)
        decide_seconds = time.perf_counter() - tick

        return {
            "challenges": challenges,
            "a_values": a_values,
            "b_values": b_values,
            "accepted": accepted,
            "phase": {"arthur": arthur_seconds,
                      "merlin": merlin_seconds,
                      "decide": decide_seconds},
        }

    def _aggregate(self, terms):
        """Fold per-node terms into subtree sums — the batched
        ``honest_aggregates``.  One cumulative sum in DFS preorder;
        each subtree sum is the difference of two prefix entries.  The
        sums stay exact below n·p < 2⁶² (``_check_sum_headroom``)."""
        np = require_numpy()
        prefix = np.zeros((terms.shape[0], self.n + 1), dtype=np.int64)
        np.cumsum(terms[:, self._order], axis=1, out=prefix[:, 1:])
        values = np.empty_like(terms)
        values[:, self._order] = (prefix[:, self._ends]
                                  - prefix[:, :-1]) % self.p
        return values

    # -- TrialKernel interface -------------------------------------------

    def run_batch(self, seed: int, start: int, count: int,
                  stop_on_first_reject: bool) -> TrialBatch:
        np = require_numpy()
        computed = self._compute(seed, start, count)
        accepted = computed["accepted"]
        n = self.n
        # The reference engine decides nodes in vertex order; every
        # node before the root accepts by construction, so a rejecting
        # trial short-circuits exactly at the root.
        reject_calls = self.root + 1 if stop_on_first_reject else n
        decide_calls = np.where(accepted, n, reject_calls)
        return TrialBatch(
            start=start,
            count=count,
            accepted=accepted,
            decide_calls=decide_calls,
            max_cost_bits=np.full(count, self._max_bits, dtype=np.int64),
            proof_bits=np.full(count, self._total_bits, dtype=np.int64),
            phase_seconds=computed["phase"],
        )

    def execution_result(self, seed: int, trial: int,
                         stop_on_first_reject: bool) -> ExecutionResult:
        computed = self._compute(seed, trial, 1)
        challenges = [int(x) for x in computed["challenges"][0]]
        a_values = [int(x) for x in computed["a_values"][0]]
        b_values = [int(x) for x in computed["b_values"][0]]
        accepted = bool(computed["accepted"][0])
        transcript = self._materialize_transcript(challenges, a_values,
                                                  b_values)
        if accepted:
            decisions = {v: True for v in range(self.n)}
        elif stop_on_first_reject:
            decisions = {v: v != self.root for v in range(self.root + 1)}
        else:
            decisions = {v: v != self.root for v in range(self.n)}
        return ExecutionResult(
            accepted=accepted,
            decisions=decisions,
            transcript=transcript,
            node_cost_bits={v: self.node_bits[v] for v in range(self.n)},
            phase_seconds=computed["phase"],
            decide_calls=len(decisions),
        )


class SymDMAMKernel(_SymAggregateKernel):
    """Protocol 1 (dMAM): static M₀ commitments, A₁ challenges, M₂
    aggregates seeded by the root's challenge."""

    ARTHUR_ROUND = sym_dmam.ROUND_A1

    def _template_messages(self, v: int):
        m0 = {sym_dmam.FIELD_ROOT: self.root,
              sym_dmam.FIELD_RHO: self.rho[v],
              sym_dmam.FIELD_PARENT: self.parent[v],
              sym_dmam.FIELD_DIST: self.dist[v]}
        m2 = {sym_dmam.FIELD_SEED: 0,
              sym_dmam.FIELD_A: 0,
              sym_dmam.FIELD_B: 0}
        return ((sym_dmam.ROUND_M0, m0), (sym_dmam.ROUND_M2, m2))

    def _materialize_transcript(self, challenges, a_values,
                                b_values) -> Transcript:
        seed = challenges[self.root]
        return Transcript(
            randomness={sym_dmam.ROUND_A1: dict(enumerate(challenges))},
            messages={
                sym_dmam.ROUND_M0: {
                    v: {sym_dmam.FIELD_ROOT: self.root,
                        sym_dmam.FIELD_RHO: self.rho[v],
                        sym_dmam.FIELD_PARENT: self.parent[v],
                        sym_dmam.FIELD_DIST: self.dist[v]}
                    for v in range(self.n)},
                sym_dmam.ROUND_M2: {
                    v: {sym_dmam.FIELD_SEED: seed,
                        sym_dmam.FIELD_A: a_values[v],
                        sym_dmam.FIELD_B: b_values[v]}
                    for v in range(self.n)},
            })


class SymDAMKernel(_SymAggregateKernel):
    """Protocol 2 (dAM): A₀ challenges, one M₁ round carrying the full
    ρ table plus tree advice and aggregates."""

    ARTHUR_ROUND = sym_dam.ROUND_A0

    def _template_messages(self, v: int):
        m1 = {sym_dam.FIELD_RHO_TABLE: self.rho,
              sym_dam.FIELD_SEED: 0,
              sym_dam.FIELD_ROOT: self.root,
              sym_dam.FIELD_PARENT: self.parent[v],
              sym_dam.FIELD_DIST: self.dist[v],
              sym_dam.FIELD_A: 0,
              sym_dam.FIELD_B: 0}
        return ((sym_dam.ROUND_M1, m1),)

    def _materialize_transcript(self, challenges, a_values,
                                b_values) -> Transcript:
        seed = challenges[self.root]
        return Transcript(
            randomness={sym_dam.ROUND_A0: dict(enumerate(challenges))},
            messages={
                sym_dam.ROUND_M1: {
                    v: {sym_dam.FIELD_RHO_TABLE: self.rho,
                        sym_dam.FIELD_SEED: seed,
                        sym_dam.FIELD_ROOT: self.root,
                        sym_dam.FIELD_PARENT: self.parent[v],
                        sym_dam.FIELD_DIST: self.dist[v],
                        sym_dam.FIELD_A: a_values[v],
                        sym_dam.FIELD_B: b_values[v]}
                    for v in range(self.n)},
            })


#: (exact protocol type, exact prover types, kernel) — exact types, not
#: isinstance: a subclass may override anything the kernel models.
_SUPPORTED = (
    (SymDMAMProtocol, (HonestSymDMAMProver, CommittedMappingProver),
     SymDMAMKernel),
    (SymDAMProtocol, (HonestSymDAMProver, CommittedDAMProver),
     SymDAMKernel),
)


def build_sym_kernel(protocol: Protocol, instance: Instance,
                     prover: Prover, context: InstanceContext
                     ) -> Optional[TrialKernel]:
    """The kernel :func:`~repro.core.kernels.find_kernel` returns: one
    for exactly the (protocol, prover) pairs the batch math models, or
    None (→ reference engine).

    The prover's own ``batch_plan`` supplies ρ and the root — the same
    memoized choices its ``respond`` would make — and may raise the
    same ``ProtocolViolation`` its first response would (e.g. honest
    prover on an asymmetric graph).
    """
    for protocol_type, prover_types, kernel_type in _SUPPORTED:
        if type(protocol) is protocol_type and type(prover) in prover_types:
            break
    else:
        return None
    if not supported_modulus(protocol.family.p):
        # Protocol 2's paper-sized prime (~n^(n+2)) overflows int64;
        # only small-prime families (experiment E6/E7) batch.
        return None
    plan = prover.batch_plan(context)
    if plan is None:  # pragma: no cover - supported provers always plan
        return None
    rho = tuple(plan["rho"])
    root = plan["root"]
    n = instance.n
    if len(rho) != n or not all(
            isinstance(x, int) and 0 <= x < n for x in rho):
        return None
    if not 0 <= root < n:  # pragma: no cover - provers validate roots
        return None
    return kernel_type(protocol, instance, context, prover, rho, root)
