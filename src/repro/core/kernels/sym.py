"""Batch kernels for the Sym protocols (Protocols 1 and 2).

Both protocols share one algebraic skeleton, which is what makes them
vectorizable: the prover commits to a mapping ρ, a root and a BFS tree
that are **pure functions of the instance** (exposed through
``Prover.batch_plan``).  Every verifier check but the root's (tree
shape, broadcast consistency, range checks, aggregation equalities) is
challenge-independent and passes by construction for these provers,
whose aggregates are the truthful subtree sums Lemma 3.3 forces.  So a
trial's verdict is the root's collision test ``a_r == b_r`` on the two
totals Σa = h_s(A) and Σb = h_s(B) under the root's challenge s, where
A holds N[v] in row v and B holds ρ(N[v]) in row ρ(v).  The family is
linear, so the test is h_s(A − B) = 0, and a batch computes only that:

1. the signed difference A − B, once per (context, ρ)
   (:func:`_signed_difference`): a plus and a minus row set, or
   nothing when ρ is an automorphism — then every trial accepts, and
   no coin is drawn or hashed;
2. otherwise each trial's challenges in vertex order up to the root's,
   the one coin the hashes read;
3. both row sets hashed under it (``row_tables_batch`` and
   ``row_hash_batch_csr`` of the Theorem-3.2 family, work in the
   coordinates where A and B differ) and their totals compared mod p —
   the accept mask.

A transcript (:meth:`_SymAggregateKernel.execution_result`) also needs
every node's challenge and every subtree aggregate, so only it draws
the full row, hashes every node's two rows and folds the terms up the
spanning tree (one prefix sum over a DFS preorder, in which every
subtree is a contiguous run).  Its verdict comes from the same
function as the batch's, and the runner cross-checks it against the
reference engine on trial 0 of every batch
(:class:`~repro.core.kernels.base.KernelMismatch`), so the reduction
can never silently drift from the real decision functions.

Both sides are CSR row sets over the closed adjacency
(``InstanceContext.closed_adjacency_csr``), the image side with its
column indices mapped through ρ — O(trials · edges) work and memory,
which is what makes n in the tens of thousands batchable.  Protocol 2's
committed provers may carry arbitrary *mappings*, whose image rows are
clamped back to 0/1 where ρ merges two members of N[v] — Lemma 3.1
never required a permutation, and neither does the kernel.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Optional, Sequence, Tuple

from ...protocols import sym_dam, sym_dmam
from ...protocols.sym_dam import (CommittedDAMProver, HonestSymDAMProver,
                                  SymDAMProtocol)
from ...protocols.sym_dmam import (CommittedMappingProver,
                                   HonestSymDMAMProver, SymDMAMProtocol)
from ..context import InstanceContext
from ..model import Instance, NodeMessage, Protocol, Prover
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

        indptr, indices = context.closed_adjacency_csr()
        rho_arr = np.asarray(self.rho, dtype=np.int64)
        if sorted(self.rho) == list(range(n)):
            # A permutation never collapses entries: node v's image row
            # is N[v] with every column index mapped through ρ.
            image = (indptr, rho_arr[indices])
        else:
            # An arbitrary mapping (Protocol 2's committed cheaters)
            # may send two members of N[v] to one vertex: each node's
            # image row is clamped back to 0/1 (sorted and deduplicated
            # by hand: a plain np.unique call imports numpy.ma).
            cells = np.sort(_row_positions(np.arange(n), indptr) * n
                            + rho_arr[indices])
            cells = cells[np.diff(cells, prepend=-1) > 0]
            image = (np.searchsorted(cells, np.arange(n + 1) * n),
                     cells % n)
        # The two hashed n×n matrices as CSR row sets (row positions,
        # indptr, indices): A holds N[v] in row v, B node v's image row
        # in row ρ(v), once per node.
        self._sides = ((np.arange(n, dtype=np.int64), indptr, indices),
                       (rho_arr, *image))
        self._difference = context.memo(
            ("sym.signed_difference", self.rho),
            lambda: _signed_difference(n, *self._sides))
        self._order, self._ends = context.tree_levels(root)
        self._advice = context.tree_advice(root)
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
        template = self._messages(0, {root: 0}, {root: 0}, (root,))
        charge += sum(protocol.merlin_bits(instance, r, messages[root])
                      for r, messages in template.items())
        self.node_bits = (charge,) * n
        self._max_bits = charge
        self._total_bits = charge * n

    # -- subclass layout -------------------------------------------------

    def _messages(self, seed: int, a_values: Sequence[int],
                  b_values: Sequence[int], vertices: Sequence[int]
                  ) -> Dict[int, Dict[int, NodeMessage]]:
        """Every Merlin round's messages to ``vertices``, built by the
        protocol module's layout builders.  The one-node metering
        template passes placeholder zeros: costs are value-independent
        within each field's domain."""
        raise NotImplementedError

    # -- batch math ------------------------------------------------------

    def _root_coins(self, seed: int, start: int, count: int):
        """The root's challenge in each of trials ``start ..
        start+count-1`` — the one coin the hashes read.

        Byte-compatible with the reference engine: trial t draws its
        seeds from random.Random(seed + t) in vertex order, and the
        root's is draw number root+1.  The bulk draw of root+1 values
        is a prefix of the full n-value draw a transcript makes
        (:meth:`execution_result`), so the root's coin is the same;
        the Sym provers never touch the rng, so the stream may be
        consumed past it."""
        np = require_numpy()
        p = self.p
        draws = self.root + 1
        coins = np.empty(count, dtype=np.int64)
        for i in range(count):
            coins[i] = randrange_batch(
                random.Random(seed + start + i), p, draws)[-1]
        return coins

    def _hash_terms(self, coins):
        """Both sides' per-node hash terms, ``(trials, nodes)`` each,
        under each trial's root coin — what a transcript's aggregates
        fold: one table build for both sides, each side gathered on
        its own."""
        tables = self.family.row_tables_batch(coins, self.n)
        return tuple(self.family.row_hash_batch_csr(tables, *side)
                     for side in self._sides)

    def _verdict(self, count: int, coins):
        """The accept mask of ``count`` trials: the root's collision
        test ``a_r = b_r``.

        For these provers ``a_r`` and ``b_r`` are h_s(A) and h_s(B)
        (Lemma 3.3), so the test is h_s(A − B) = 0: it accepts every
        trial when the difference is empty, and otherwise compares the
        totals of its plus and minus row sets under each trial's root
        coin (``coins``, read only then).  Both kernel paths read their
        verdict here: :meth:`run_batch` for every trial,
        :meth:`execution_result` for the one the runner cross-checks.
        """
        np = require_numpy()
        if not self._root_static_ok:  # provers guarantee a moved root
            return np.zeros(count, dtype=bool)
        if self._difference is None:
            return np.ones(count, dtype=bool)
        tables = self.family.row_tables_batch(coins, self.n)
        plus, minus = (
            0 if rows is None else
            self.family.row_hash_batch_csr(tables, *rows).sum(axis=1)
            % self.p
            for rows in self._difference)
        return plus == minus

    def _aggregate(self, terms):
        """Fold per-node terms into subtree sums — the batched form of
        the provers' truthful aggregates, which only a transcript
        reads.  One cumulative sum in DFS preorder; each subtree sum is
        the difference of two prefix entries.  The sums stay exact
        below n·p < 2⁶² (``_check_sum_headroom``)."""
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
        tick = time.perf_counter()
        coins = (None if self._difference is None
                 else self._root_coins(seed, start, count))
        arthur_seconds = time.perf_counter() - tick
        tick = time.perf_counter()
        accepted = self._verdict(count, coins)
        merlin_seconds = time.perf_counter() - tick
        tick = time.perf_counter()
        n = self.n
        # The reference engine decides nodes in vertex order; every
        # node before the root accepts by construction, so a rejecting
        # trial short-circuits exactly at the root.
        reject_calls = self.root + 1 if stop_on_first_reject else n
        decide_calls = np.where(accepted, n, reject_calls)
        decide_seconds = time.perf_counter() - tick
        return TrialBatch(
            start=start,
            count=count,
            accepted=accepted,
            decide_calls=decide_calls,
            max_cost_bits=np.full(count, self._max_bits, dtype=np.int64),
            proof_bits=np.full(count, self._total_bits, dtype=np.int64),
            phase_seconds={"arthur": arthur_seconds,
                           "merlin": merlin_seconds,
                           "decide": decide_seconds},
        )

    def execution_result(self, seed: int, trial: int,
                         stop_on_first_reject: bool) -> ExecutionResult:
        np = require_numpy()
        tick = time.perf_counter()
        challenges = randrange_batch(random.Random(seed + trial), self.p,
                                     self.n).tolist()
        arthur_seconds = time.perf_counter() - tick
        tick = time.perf_counter()
        coin = challenges[self.root]
        coins = np.array([coin], dtype=np.int64)
        a_terms, b_terms = self._hash_terms(coins)
        a_values = self._aggregate(a_terms)[0].tolist()
        b_values = self._aggregate(b_terms)[0].tolist()
        merlin_seconds = time.perf_counter() - tick
        tick = time.perf_counter()
        accepted = bool(self._verdict(1, coins)[0])
        if accepted:
            decisions = {v: True for v in range(self.n)}
        elif stop_on_first_reject:
            decisions = {v: v != self.root for v in range(self.root + 1)}
        else:
            decisions = {v: v != self.root for v in range(self.n)}
        decide_seconds = time.perf_counter() - tick
        transcript = Transcript(
            randomness={self.ARTHUR_ROUND: dict(enumerate(challenges))},
            messages=self._messages(coin, a_values, b_values,
                                    range(self.n)))
        return ExecutionResult(
            accepted=accepted,
            decisions=decisions,
            transcript=transcript,
            node_cost_bits={v: self.node_bits[v] for v in range(self.n)},
            phase_seconds={"arthur": arthur_seconds,
                           "merlin": merlin_seconds,
                           "decide": decide_seconds},
            decide_calls=len(decisions),
        )


def _signed_difference(n: int, a_side, b_side):
    """The coordinates where the two hashed n×n matrices differ:
    ``(plus, minus)`` CSR row sets (each ``(row_indices, indptr,
    indices)``, or None when empty) with A − B = plus − minus, or None
    when A = B, i.e. when ρ is an automorphism.

    ``a_side`` and ``b_side`` are the kernel's two sides as CSR row
    sets; B counts a cell once per node whose image row holds it, since
    several nodes may share ρ(v).  Integer counts, independent of the
    modulus, so both protocols and every prime share one difference per
    (context, ρ)."""
    np = require_numpy()
    a_cells, b_cells = (_row_positions(rows, indptr) * n + indices
                        for rows, indptr, indices in (a_side, b_side))
    cells, position = np.unique(np.concatenate((a_cells, b_cells)),
                                return_inverse=True)
    counts = (np.bincount(position[:a_cells.size], minlength=cells.size)
              - np.bincount(position[a_cells.size:], minlength=cells.size))
    if not counts.any():
        return None
    return tuple(_row_set(np.repeat(cells[side], abs(counts[side])), n)
                 for side in (counts > 0, counts < 0))


def _row_positions(rows, indptr):
    """The row position of every CSR entry."""
    np = require_numpy()
    return np.repeat(np.asarray(rows, dtype=np.int64), np.diff(indptr))


def _row_set(cells, n: int):
    """Sorted flat cells ``i·n + j``, repeated by multiplicity, as a
    CSR row set, or None when there are none.  A row of the minus side
    may hold several nodes' image rows, so each CSR row takes at most
    n entries, the row length ``row_tables_batch``'s int64 headroom
    covers; its ≤ 2n row terms then total below 2n·p < 2⁶³."""
    if not cells.size:
        return None
    np = require_numpy()
    rows, columns = np.divmod(cells, n)
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    starts = np.flatnonzero(rank % n == 0)
    return rows[starts], np.append(starts, rows.size), columns


class SymDMAMKernel(_SymAggregateKernel):
    """Protocol 1 (dMAM): static M₀ commitments, A₁ challenges, M₂
    aggregates seeded by the root's challenge."""

    ARTHUR_ROUND = sym_dmam.ROUND_A1

    def _messages(self, seed, a_values, b_values, vertices):
        return {
            sym_dmam.ROUND_M0: sym_dmam.commitment_messages(
                self.rho, self.root, self._advice, vertices),
            sym_dmam.ROUND_M2: sym_dmam.aggregate_messages(
                seed, a_values, b_values, vertices),
        }


class SymDAMKernel(_SymAggregateKernel):
    """Protocol 2 (dAM): A₀ challenges, one M₁ round carrying the full
    ρ table plus tree advice and aggregates."""

    ARTHUR_ROUND = sym_dam.ROUND_A0

    def _messages(self, seed, a_values, b_values, vertices):
        return {sym_dam.ROUND_M1: sym_dam.mapping_messages(
            self.rho, seed, self.root, self._advice, a_values, b_values,
            vertices)}


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
