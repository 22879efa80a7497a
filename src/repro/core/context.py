"""Per-instance structural cache for the batched execution engine.

Every Monte-Carlo trial of ``run_protocol`` used to re-derive the same
*static* structure: closed neighborhoods for every node's
:class:`~repro.core.model.LocalView`, the BFS spanning tree the honest
provers advise, the non-trivial automorphism the Sym provers search
for, and the witness catalogs the GNI provers enumerate.  None of that
depends on the challenge randomness — it is a function of the
``(protocol, instance)`` pair alone — so recomputing it per trial was
pure waste (at n = 64 the automorphism search alone was > 90% of an
honest dMAM trial).

:class:`InstanceContext` computes each piece **once** and memoizes it.
The runner threads a context through every execution of a trial batch
(:func:`~repro.core.runner.run_trials`), and provers reach it through
:meth:`~repro.core.model.Prover.acquire_context`.

Locality discipline
-------------------
The context never widens what a node may see.  The *decision path*
consumes only per-node closed neighborhoods and the protocol's
broadcast-field layout — exactly the structure a node legally holds at
decision time (its own neighborhood and the public protocol
definition).  Prover-side material (spanning-tree advice, automorphism
witnesses, GNI catalogs) lives behind prover-only accessors and is
never passed to ``decide``; the :class:`~repro.core.model.LocalView`
construction remains the single gate through which decision functions
observe the world.

Caches are also **randomness-free**: nothing stored here depends on
challenges or prover messages, so sharing one context across trials —
or across a completeness run and a soundness run with different
provers — cannot leak state between executions (regression-tested in
``tests/core/test_context.py``).
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, FrozenSet, Hashable, Optional,
                    Tuple, TYPE_CHECKING)

from .model import Instance, Protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..network.spanning_tree import TreeAdvice

#: Sentinel distinguishing "not computed yet" from a computed ``None``.
_UNSET = object()


class InstanceContext:
    """Memoized static structure of one ``(protocol, instance)`` pair.

    Construction is O(1): every field is computed lazily on first use,
    so building a throwaway context inside a single ``run_protocol``
    call costs nothing beyond what that execution needed anyway.

    Parameters
    ----------
    instance:
        The instance this context describes.  All caches are keyed on
        it; the runner rejects a context whose instance is not
        (identically) the one being executed.
    protocol:
        Optional protocol the context is bound to.  When present,
        ``ensure_validated`` runs ``protocol.validate_instance`` only
        once per context instead of once per trial.
    """

    __slots__ = ("instance", "protocol", "graph", "_vertices",
                 "_closed", "_closed_rows", "_tree_advice",
                 "_automorphism", "_memo", "_validated",
                 "_broadcast_plan")

    def __init__(self, instance: Instance,
                 protocol: Optional[Protocol] = None) -> None:
        self.instance = instance
        self.protocol = protocol
        self.graph = instance.graph
        self._vertices: Optional[Tuple[int, ...]] = None
        self._closed: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._closed_rows: Optional[Tuple[int, ...]] = None
        self._tree_advice: Dict[int, "TreeAdvice"] = {}
        self._automorphism: Any = _UNSET
        self._memo: Dict[Hashable, Any] = {}
        self._validated = False
        self._broadcast_plan: Optional[
            Tuple[Protocol, Tuple[Tuple[int, FrozenSet[str]], ...]]] = None

    def _shared(self, values) -> Tuple[int, ...]:
        """``values`` (vertices) as a tuple of the context's one int
        object per vertex.  ``bits_of_mask`` mints a new int for every
        position above 256, so every cached tuple of vertices — the
        closed neighborhoods, the BFS parents, the automorphism
        witness — reads its members from one vertex tuple instead of
        storing a copy of a vertex per entry."""
        vertices = self._vertices
        if vertices is None:
            vertices = self._vertices = tuple(self.graph.vertices)
        return tuple(map(vertices.__getitem__, values))

    # -- runner-side structure (decision-time legal) ---------------------

    @property
    def closed_neighborhoods(self) -> Tuple[Tuple[int, ...], ...]:
        """``closed_neighborhoods[v]`` — the tuple every LocalView gets,
        of shared vertex objects (:meth:`_shared`)."""
        if self._closed is None:
            graph = self.graph
            self._closed = tuple(
                self._shared(graph.closed_neighborhood(v))
                for v in graph.vertices)
        return self._closed

    @property
    def closed_rows(self) -> Tuple[int, ...]:
        """``closed_rows[v]`` — the self-looped adjacency row bitmasks."""
        if self._closed_rows is None:
            graph = self.graph
            self._closed_rows = tuple(graph.closed_row(v)
                                      for v in graph.vertices)
        return self._closed_rows

    def broadcast_plan(self, protocol: Protocol
                       ) -> Tuple[Tuple[int, FrozenSet[str]], ...]:
        """The Merlin rounds with broadcast fields, computed once.

        The per-node broadcast-consistency check used to rebuild this
        (``merlin_round_indices`` + ``broadcast_fields``) for every
        node of every trial.  The plan is public protocol structure,
        so caching it cannot widen any node's view.
        """
        plan = self._broadcast_plan
        if plan is None or plan[0] is not protocol:
            rounds = tuple(
                (r, fields) for r in protocol.merlin_round_indices()
                for fields in (protocol.broadcast_fields(r),) if fields)
            plan = (protocol, rounds)
            self._broadcast_plan = plan
        return plan[1]

    def ensure_validated(self, protocol: Protocol) -> None:
        """Run ``protocol.validate_instance`` once per (bound) context.

        Only the protocol the context was built for is cached —
        validating a different protocol falls through to a plain call,
        so correctness never depends on the cache.
        """
        if protocol is self.protocol:
            if not self._validated:
                protocol.validate_instance(self.instance)
                self._validated = True
        else:
            protocol.validate_instance(self.instance)

    # -- prover-side structure (never reaches decide()) ------------------

    def tree_advice(self, root: int) -> "TreeAdvice":
        """BFS spanning-tree advice rooted at ``root``, one BFS ever:
        flat ``parent[v]`` / ``dist[v]`` sequences, the parents shared
        vertex objects (:meth:`_shared`)."""
        advice = self._tree_advice.get(root)
        if advice is None:
            from ..network.spanning_tree import (TreeAdvice,
                                                 honest_tree_advice)
            bfs = honest_tree_advice(self.graph, root)
            advice = TreeAdvice(parent=self._shared(bfs.parent),
                                dist=bfs.dist)
            self._tree_advice[root] = advice
        return advice

    def nontrivial_automorphism(self) -> Optional[Tuple[int, ...]]:
        """The honest Sym provers' witness, searched exactly once, of
        shared vertex objects (:meth:`_shared`).

        ``None`` (an asymmetric graph) is cached too.
        """
        if self._automorphism is _UNSET:
            from ..graphs.automorphism import find_nontrivial_automorphism
            rho = find_nontrivial_automorphism(self.graph)
            self._automorphism = None if rho is None else self._shared(rho)
        return self._automorphism

    # -- batch-kernel structure (numpy engine) ---------------------------
    #
    # ndarray mirrors of the tuple/bitmask caches above, materialized
    # once per context for the vectorized trial kernels.  numpy is
    # imported lazily through the kernels' gate, so a context built on
    # a bare interpreter never touches these.  Everything here is still
    # randomness-free instance structure; the locality discipline is
    # unchanged (the arrays feed the kernels, which reproduce exactly
    # the per-LocalView decisions of the reference engine).

    def closed_adjacency(self):
        """The (n, n) int64 closed adjacency matrix (1s on the diagonal).

        One row per node's ``closed_row`` bitmask; the kernels' matmul
        operand for hashing all n adjacency rows of a trial batch at
        once.
        """
        def build():
            from .kernels._np import require_numpy
            np = require_numpy()
            n = self.graph.n
            arr = np.zeros((n, n), dtype=np.int64)
            for v, row in enumerate(self.closed_rows):
                while row:
                    low = row & -row
                    arr[v, low.bit_length() - 1] = 1
                    row ^= low
            arr.setflags(write=False)
            return arr
        return self.memo("kernels.closed_adjacency", build)

    def closed_adjacency_csr(self):
        """The closed adjacency as CSR ``(indptr, indices)`` arrays.

        ``indices[indptr[v]:indptr[v+1]]`` are the sorted members of
        ``N[v]`` — the sparse operand the kernels hand to
        :meth:`LinearHashFamily.row_hash_batch_csr`, sized O(edges)
        where :meth:`closed_adjacency` is O(n²).
        """
        def build():
            from .kernels._np import require_numpy
            np = require_numpy()
            neighborhoods = self.closed_neighborhoods
            indptr = np.zeros(len(neighborhoods) + 1, dtype=np.int64)
            for v, members in enumerate(neighborhoods):
                indptr[v + 1] = indptr[v] + len(members)
            indices = np.fromiter(
                (u for members in neighborhoods for u in members),
                dtype=np.int64, count=int(indptr[-1]))
            indptr.setflags(write=False)
            indices.setflags(write=False)
            return indptr, indices
        return self.memo("kernels.closed_adjacency_csr", build)

    def permuted_closed_adjacency(self, sigma: Tuple[int, ...]):
        """Closed adjacency of the graph relabeled by permutation σ.

        ``A_σ[a, b] = A[σ⁻¹(a), σ⁻¹(b)]`` — the whole relabeling is one
        ``np.ix_`` fancy-indexing op on :meth:`closed_adjacency`.  Row
        ``σ(v)`` is the characteristic vector of ``σ(N[v])``, which is
        what the Sym kernels hash on the committed-mapping side.
        """
        def build():
            from .kernels._np import require_numpy
            np = require_numpy()
            adj = self.closed_adjacency()
            inverse = np.argsort(np.asarray(sigma, dtype=np.int64))
            arr = adj[np.ix_(inverse, inverse)]
            arr.setflags(write=False)
            return arr
        return self.memo(("kernels.permuted_closed_adjacency", tuple(sigma)),
                         build)

    def tree_levels(self, root: int):
        """The BFS tree at ``root`` laid out for one prefix sum.

        ``(order, ends)``: the vertices in a DFS preorder, and for each
        position ``i`` the end of the subtree run starting there, so
        ``order[i:ends[i]]`` is the subtree of ``order[i]`` — the
        kernels fold per-node hash terms up the tree as differences of
        one cumulative sum.  Two int64 arrays of n entries whatever the
        depth.  Prover-side structure, like :meth:`tree_advice`.
        """
        def build():
            from .kernels._np import require_numpy
            np = require_numpy()
            parent = self.tree_advice(root).parent
            children = [[] for _ in parent]
            for v, up in enumerate(parent):
                if up != v:
                    children[up].append(v)
            order, stack = [], [root]
            while stack:
                order.append(stack.pop())
                stack.extend(children[order[-1]])
            size = [1] * len(parent)
            for v in reversed(order[1:]):
                size[parent[v]] += size[v]
            return (np.asarray(order, dtype=np.int64),
                    np.asarray([i + size[v] for i, v in enumerate(order)],
                               dtype=np.int64))
        return self.memo(("kernels.tree_levels", root), build)

    def memo(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Generic instance-keyed memo: ``factory()`` runs at most once.

        Used by provers for expensive instance-determined structure
        (GNI witness catalogs, committed cheating mappings, per-mark
        subtree counts).  Keys must encode every non-instance input the
        factory depends on (e.g. a protocol parameter).
        """
        value = self._memo.get(key, _UNSET)
        if value is _UNSET:
            value = factory()
            self._memo[key] = value
        return value

    def __repr__(self) -> str:
        cached = sum((self._closed is not None,
                      self._closed_rows is not None,
                      self._automorphism is not _UNSET,
                      len(self._tree_advice), len(self._memo)))
        return (f"<InstanceContext n={self.graph.n} "
                f"cached_entries={cached}>")
