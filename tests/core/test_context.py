"""The batched execution engine: InstanceContext, run_trials, workers.

The two load-bearing properties:

* **determinism** — parallel (workers > 1) and serial estimation are
  bit-identical for a fixed seed, across protocols (including DSym,
  whose protocol object holds an unpicklable closure — the fork pool
  must not care);
* **isolation** — a context caches only randomness-free instance
  structure, so sharing one between a completeness run and a soundness
  run on the same instance changes nothing.
"""

from __future__ import annotations

import random

import pytest

from repro import Instance, InstanceContext, run_protocol, run_trials
from repro.core.kernels import numpy_available
from repro.graphs import (SMALLEST_ASYMMETRIC, cycle_graph, dsym_graph,
                          path_graph, random_connected_graph,
                          rigid_family_exhaustive, star_graph)
from repro.graphs.dumbbell import DSymLayout
from repro.network.spanning_tree import honest_tree_advice
from repro.protocols import (CommittedMappingProver, DSymDAMProtocol,
                             GNIGoldwasserSipserProtocol, SymDMAMProtocol,
                             gni_instance)


def _sym_dmam():
    return SymDMAMProtocol(8), Instance(cycle_graph(8))


def _dsym():
    return (DSymDAMProtocol(DSymLayout(6, 1)),
            Instance(dsym_graph(cycle_graph(6), 1)))


def _gni():
    rigid = rigid_family_exhaustive(6)
    protocol = GNIGoldwasserSipserProtocol(6, repetitions=6)
    return protocol, gni_instance(rigid[0], rigid[1])


class TestParallelSerialDeterminism:
    @pytest.mark.parametrize("make", [_sym_dmam, _dsym, _gni],
                             ids=["sym_dmam", "dsym", "gni"])
    def test_run_trials_bit_identical(self, make):
        protocol, instance = make()
        serial = run_trials(protocol, instance, protocol.honest_prover(),
                            12, 424242, workers=1)
        parallel = run_trials(protocol, instance, protocol.honest_prover(),
                              12, 424242, workers=3)
        assert serial == parallel  # dataclass equality: (accepted, trials)
        assert serial.accepted == parallel.accepted
        assert parallel.workers == 3

    @pytest.mark.parametrize("make", [_sym_dmam, _dsym, _gni],
                             ids=["sym_dmam", "dsym", "gni"])
    def test_estimate_acceptance_bit_identical(self, make):
        protocol, instance = make()
        serial = run_trials(protocol, instance, protocol.honest_prover(),
                            10, random.Random(7).getrandbits(64),
                            workers=1)
        parallel = run_trials(protocol, instance, protocol.honest_prover(),
                              10, random.Random(7).getrandbits(64),
                              workers=4)
        assert serial == parallel

    def test_chunking_independent_of_worker_count(self):
        protocol, instance = _sym_dmam()
        estimates = [run_trials(protocol, instance,
                                protocol.honest_prover(), 11, 5, workers=w)
                     for w in (1, 2, 3, 5)]
        assert all(e == estimates[0] for e in estimates)


class TestContextIsolation:
    def test_no_leak_between_completeness_and_soundness(self):
        """One shared context across honest and cheating batches on the
        same instance must reproduce the fresh-context results exactly,
        in either order."""
        protocol, instance = _sym_dmam()

        def honest(ctx):
            return run_trials(protocol, instance, protocol.honest_prover(),
                              8, 99, context=ctx)

        def cheating(ctx):
            return run_trials(protocol, instance,
                              CommittedMappingProver(protocol), 8, 99,
                              context=ctx)

        fresh_honest = honest(InstanceContext(instance, protocol))
        fresh_cheating = cheating(InstanceContext(instance, protocol))

        shared = InstanceContext(instance, protocol)
        assert honest(shared) == fresh_honest
        assert cheating(shared) == fresh_cheating

        reversed_shared = InstanceContext(instance, protocol)
        assert cheating(reversed_shared) == fresh_cheating
        assert honest(reversed_shared) == fresh_honest

    def test_soundness_run_unchanged_by_warm_context(self):
        graph = random_connected_graph(12, 0.3, random.Random(3))
        protocol = SymDMAMProtocol(12)
        instance = Instance(graph)
        ctx = InstanceContext(instance, protocol)
        # Warm the context with a full honest-side structure pass.
        ctx.closed_neighborhoods
        ctx.nontrivial_automorphism()
        ctx.tree_advice(0)
        warm = run_trials(protocol, instance,
                          CommittedMappingProver(protocol), 10, 17,
                          context=ctx)
        cold = run_trials(protocol, instance,
                          CommittedMappingProver(protocol), 10, 17)
        assert warm == cold

    def test_context_rejects_foreign_instance(self):
        protocol, instance = _sym_dmam()
        other = Instance(cycle_graph(8))
        ctx = InstanceContext(other, protocol)
        with pytest.raises(ValueError):
            run_protocol(protocol, instance, protocol.honest_prover(),
                         random.Random(0), context=ctx)
        with pytest.raises(ValueError):
            run_trials(protocol, instance, protocol.honest_prover(),
                       4, 0, context=ctx)


class TestShortCircuit:
    def test_short_circuit_preserves_verdicts(self):
        """Per-trial accept/reject is unchanged by stop_on_first_reject;
        only the number of decisions taken may shrink."""
        graph = random_connected_graph(12, 0.3, random.Random(11))
        protocol = SymDMAMProtocol(12)
        instance = Instance(graph)
        for t in range(10):
            full = run_protocol(protocol, instance,
                                CommittedMappingProver(protocol),
                                random.Random(1000 + t))
            short = run_protocol(protocol, instance,
                                 CommittedMappingProver(protocol),
                                 random.Random(1000 + t),
                                 stop_on_first_reject=True)
            assert full.accepted == short.accepted
            assert short.decide_calls <= full.decide_calls
            if not full.accepted:
                # The partial decision map must agree where defined.
                for v, verdict in short.decisions.items():
                    assert full.decisions[v] == verdict

    def test_batch_counts_short_circuits(self):
        graph = random_connected_graph(12, 0.3, random.Random(11))
        protocol = SymDMAMProtocol(12)
        estimate = run_trials(protocol, Instance(graph),
                              CommittedMappingProver(protocol), 10, 3)
        rejected = estimate.trials - estimate.accepted
        assert estimate.short_circuits <= rejected
        assert estimate.decide_calls < estimate.trials * 12


class TestContextCaches:
    def test_closed_neighborhoods_match_graph(self, cycle8):
        ctx = InstanceContext(Instance(cycle8))
        assert ctx.closed_neighborhoods == tuple(
            cycle8.closed_neighborhood(v) for v in cycle8.vertices)
        assert ctx.closed_rows == tuple(
            cycle8.closed_row(v) for v in cycle8.vertices)

    def test_closed_neighborhoods_share_vertex_ints(self):
        """Above 256 python mints a new int per decoded bit; the cache
        stores one object per vertex, however many neighborhoods hold
        it."""
        from repro.graphs import cycle_graph
        graph = cycle_graph(600)
        ctx = InstanceContext(Instance(graph))
        assert ctx.closed_neighborhoods == tuple(
            graph.closed_neighborhood(v) for v in graph.vertices)
        first = {}
        for members in ctx.closed_neighborhoods:
            for u in members:
                assert first.setdefault(u, u) is u

    def test_tree_advice_matches_direct(self, cycle8):
        ctx = InstanceContext(Instance(cycle8))
        assert ctx.tree_advice(3) == honest_tree_advice(cycle8, 3)
        assert ctx.tree_advice(3) is ctx.tree_advice(3)  # memoized

    def test_automorphism_cached_including_none(self):
        ctx = InstanceContext(Instance(SMALLEST_ASYMMETRIC))
        assert ctx.nontrivial_automorphism() is None
        assert ctx.nontrivial_automorphism() is None  # cached miss

    def test_memo_runs_factory_once(self, cycle8):
        ctx = InstanceContext(Instance(cycle8))
        calls = []
        for _ in range(3):
            ctx.memo("key", lambda: calls.append(1) or "value")
        assert calls == [1]

    def test_broadcast_plan_matches_protocol(self):
        protocol, instance = _sym_dmam()
        ctx = InstanceContext(instance, protocol)
        plan = ctx.broadcast_plan(protocol)
        assert plan == tuple(
            (r, protocol.broadcast_fields(r))
            for r in protocol.merlin_round_indices()
            if protocol.broadcast_fields(r))
        assert ctx.broadcast_plan(protocol) is plan  # cached by identity


def _levels_per_depth(context, root):
    """The BFS tree as per-depth levels — ``(nodes, parents)`` lists,
    one pair per depth, deepest first, ascending within a depth — read
    from the tree advice: the oracle the preorder layout must encode."""
    advice = context.tree_advice(root)
    by_depth = {}
    for v, dist in enumerate(advice.dist):
        if v != root:
            by_depth.setdefault(dist, []).append(v)
    levels = []
    for dist in sorted(by_depth, reverse=True):
        nodes = sorted(by_depth[dist])
        levels.append((nodes, [advice.parent[v] for v in nodes]))
    return levels


def _levels_from_layout(order, ends):
    """The same per-depth levels, read back from ``tree_levels``'s
    preorder layout: a vertex's parent is the innermost subtree run
    that encloses its own, and its depth the number of such runs."""
    by_depth = {}
    enclosing = []  # (vertex, end) of the runs around position i
    for i, (v, end) in enumerate(zip(order.tolist(), ends.tolist())):
        while enclosing and enclosing[-1][1] <= i:
            enclosing.pop()
        assert i < end <= (enclosing[-1][1] if enclosing else len(order))
        if enclosing:
            by_depth.setdefault(len(enclosing), []).append(
                (v, enclosing[-1][0]))
        enclosing.append((v, end))
    return [([v for v, _ in sorted(pairs)], [u for _, u in sorted(pairs)])
            for _, pairs in sorted(by_depth.items(), reverse=True)]


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestTreeLevels:
    @pytest.mark.parametrize("graph", [
        path_graph(1), path_graph(2), path_graph(9), cycle_graph(12),
        star_graph(7),
        *(random_connected_graph(n, 0.3, random.Random(seed))
          for n, seed in ((6, 1), (15, 2), (30, 3), (40, 4)))],
        ids=["path1", "path2", "path9", "cycle12", "star7", "random6",
             "random15", "random30", "random40"])
    def test_flat_layout_matches_per_depth_levels(self, graph):
        context = InstanceContext(Instance(graph))
        for root in sorted({0, graph.n // 2, graph.n - 1}):
            order, ends = context.tree_levels(root)
            assert order.dtype == ends.dtype == "int64"
            assert sorted(order.tolist()) == list(range(graph.n))
            assert order[0] == root and ends[0] == graph.n
            assert _levels_from_layout(order, ends) \
                == _levels_per_depth(context, root)
            assert context.tree_levels(root) is context.tree_levels(root)


class TestInstrumentation:
    def test_phase_seconds_and_counters(self):
        protocol, instance = _sym_dmam()
        result = run_protocol(protocol, instance, protocol.honest_prover(),
                              random.Random(1))
        assert set(result.phase_seconds) == {"arthur", "merlin", "decide"}
        assert all(v >= 0.0 for v in result.phase_seconds.values())
        assert result.decide_calls == instance.n

        estimate = run_trials(protocol, instance, protocol.honest_prover(),
                              5, 12)
        assert estimate.elapsed_seconds > 0.0
        assert estimate.decide_calls == 5 * instance.n  # all accepting
        assert estimate.trials_per_second > 0.0

    def test_instrumentation_excluded_from_equality(self):
        protocol, instance = _sym_dmam()
        a = run_trials(protocol, instance, protocol.honest_prover(), 5, 12)
        b = run_trials(protocol, instance, protocol.honest_prover(), 5, 12,
                       workers=2)
        assert a == b  # equality ignores timing and worker count
