"""The numpy batch engine: cross-engine parity, fallback, exact math.

The two-engine contract under test:

* **parity** — ``run_trials(engine="numpy")`` and the python reference
  engine are byte-identical on every observable field, across random
  protocols, instances, provers, seeds and stop modes (hypothesis
  drives the sampling); the kernels' ``execution_result`` reproduces
  ``run_protocol`` exactly, transcript included;
* **fallback** — a missing numpy, an unsupported (protocol, prover)
  triple, or a paper-sized modulus all degrade to the reference engine
  inside the same call (warning only for missing numpy), so
  ``engine="numpy"`` is always safe to request;
* **safety net** — a kernel that disagrees with the reference engine on
  trial 0 raises ``KernelMismatch`` instead of returning estimates;
* **exact arithmetic** — ``mulmod``/``powmod_column`` match python
  big-int arithmetic up to the advertised ``MAX_MODULUS_BITS`` ceiling.

Every test is either numpy-gated (skipped on the no-numpy CI leg) or
engine-agnostic, so the module passes on both matrix legs.
"""

from __future__ import annotations

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Instance, InstanceContext, run_protocol, run_trials
from repro.core.kernels import (KernelMismatch, MAX_MODULUS_BITS,
                                find_kernel, mulmod, numpy_available,
                                powmod_column, require_numpy,
                                supported_modulus)
from repro.core.kernels._np import randrange_batch
from repro.core.runner import _verify_kernel
from repro.core.kernels.sym import SymDMAMKernel
from repro.graphs import (Graph, complete_graph, cycle_graph, path_graph,
                          random_connected_graph, random_tree,
                          rigid_family_exhaustive, star_graph)
from repro.hashing import LinearHashFamily, next_prime
from repro.network.spanning_tree import subtree_vertices
from repro.protocols import (CommittedDAMProver, CommittedMappingProver,
                             GNIGoldwasserSipserProtocol, SymDAMProtocol,
                             SymDMAMProtocol, gni_instance)

requires_numpy = pytest.mark.skipif(not numpy_available(),
                                    reason="numpy not installed")


def _small_dam_protocol(n: int) -> SymDAMProtocol:
    """Protocol 2 with an E6-style small prime (the paper-sized
    ~n^(n+2) prime overflows int64, so only these families batch)."""
    return SymDAMProtocol(
        n, family=LinearHashFamily(m=n * n, p=next_prime(10 * n ** 3)))


def _small_prime_family(n: int, graph_seed: int) -> LinearHashFamily:
    """A prime in (n², 3n²): a committed cheater's trial then accepts
    with probability up to m/p > 1/3, so parity compares accepting
    trials too, not almost only rejections as at p ≈ 10n³."""
    return LinearHashFamily(
        m=n * n, p=next_prime(n * n + 1 + graph_seed % (n * n)))


def _case(kind: str, n: int, graph_seed: int):
    """One (protocol, instance, prover-factory) triple per kernel-able
    shape: both protocols, honest and committed-cheating provers,
    symmetric and random instances, and both cheaters again under a
    small prime (``-small-p``)."""
    if kind == "dmam-honest":
        protocol = SymDMAMProtocol(n)
        instance = Instance(cycle_graph(n))
        make_prover = lambda: protocol.honest_prover()
    elif kind.startswith("dmam-committed"):
        protocol = SymDMAMProtocol(
            n, family=(_small_prime_family(n, graph_seed)
                       if kind.endswith("-small-p") else None))
        instance = Instance(
            random_connected_graph(n, 0.35, random.Random(graph_seed)))
        make_prover = lambda: CommittedMappingProver(protocol)
    elif kind == "dam-honest":
        protocol = _small_dam_protocol(n)
        instance = Instance(cycle_graph(n))
        make_prover = lambda: protocol.honest_prover()
    else:  # dam-committed: an arbitrary (non-permutation) mapping
        protocol = (SymDAMProtocol(n, family=_small_prime_family(
                        n, graph_seed))
                    if kind.endswith("-small-p") else
                    _small_dam_protocol(n))
        instance = Instance(
            random_connected_graph(n, 0.35, random.Random(graph_seed)))
        rng = random.Random(graph_seed + 1)
        mapping = [rng.randrange(n) for _ in range(n)]
        mapping[0] = (mapping[0] % (n - 1)) + 1  # ensure a moved vertex
        make_prover = lambda: CommittedDAMProver(protocol, mapping)
    return protocol, instance, make_prover


_KINDS = ("dmam-honest", "dmam-committed", "dam-honest", "dam-committed",
          "dmam-committed-small-p", "dam-committed-small-p")


@requires_numpy
class TestEngineParity:
    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(_KINDS),
           n=st.integers(min_value=6, max_value=10),
           graph_seed=st.integers(min_value=0, max_value=10 ** 6),
           seed=st.integers(min_value=0, max_value=2 ** 32),
           trials=st.integers(min_value=1, max_value=8),
           stop=st.booleans())
    def test_run_trials_identical_across_engines(self, kind, n, graph_seed,
                                                 seed, trials, stop):
        protocol, instance, make_prover = _case(kind, n, graph_seed)
        python = run_trials(protocol, instance, make_prover(), trials,
                            seed, stop_on_first_reject=stop,
                            engine="python")
        numpy = run_trials(protocol, instance, make_prover(), trials,
                           seed, stop_on_first_reject=stop,
                           engine="numpy")
        assert numpy.engine == "numpy"  # a kernel actually ran
        assert python.engine == "python"
        assert python == numpy  # dataclass equality: (accepted, trials)
        # The provenance fields are excluded from equality; the batch
        # math must still reproduce them exactly.
        assert python.accepted == numpy.accepted
        assert python.decide_calls == numpy.decide_calls
        assert python.short_circuits == numpy.short_circuits

    @settings(max_examples=15, deadline=None)
    @given(kind=st.sampled_from(_KINDS),
           n=st.integers(min_value=6, max_value=9),
           graph_seed=st.integers(min_value=0, max_value=10 ** 6),
           seed=st.integers(min_value=0, max_value=2 ** 32),
           trial=st.integers(min_value=0, max_value=5),
           stop=st.booleans())
    def test_execution_result_matches_run_protocol(self, kind, n,
                                                   graph_seed, seed,
                                                   trial, stop):
        protocol, instance, make_prover = _case(kind, n, graph_seed)
        prover = make_prover()
        context = InstanceContext(instance, protocol)
        prover.bind_context(context)
        kernel = find_kernel(protocol, instance, prover, context)
        assert kernel is not None
        reference = run_protocol(protocol, instance, make_prover(),
                                 random.Random(seed + trial),
                                 context=context,
                                 stop_on_first_reject=stop)
        candidate = kernel.execution_result(seed, trial, stop)
        # Dataclass equality covers verdict, decisions, the full
        # transcript, and per-node bit accounting.
        assert candidate == reference
        assert candidate.decide_calls == reference.decide_calls
        assert candidate.decisions == reference.decisions

    @pytest.mark.parametrize("kind", ["dmam-committed-small-p",
                                      "dam-committed-small-p"])
    def test_small_prime_cheaters_compare_accepting_trials(self, kind):
        # Parity over these fixed draws includes accepting cheater
        # trials (the -small-p kinds exist for them), not only the
        # rejections a ~10n³ prime leaves.
        accepted = trials = 0
        for graph_seed in range(6):
            protocol, instance, make_prover = _case(kind, 8, graph_seed)
            python = run_trials(protocol, instance, make_prover(), 40,
                                graph_seed, stop_on_first_reject=False,
                                engine="python")
            numpy = run_trials(protocol, instance, make_prover(), 40,
                               graph_seed, stop_on_first_reject=False,
                               engine="numpy")
            assert numpy.engine == "numpy"
            assert python == numpy
            assert python.decide_calls == numpy.decide_calls
            accepted += numpy.accepted
            trials += numpy.trials
        assert 0 < accepted < trials

    def test_split_limb_prime_matches_reference(self):
        # The draws above keep n <= 10, so p < 2^17 and every table
        # product takes mulmod's direct branch.  At n=1024 the
        # Protocol-1 prime has 34 bits: the split-limb branch builds
        # every power table.
        n = 1024
        protocol = SymDMAMProtocol(n)
        assert protocol.family.p.bit_length() > 31
        instance = Instance(cycle_graph(n))
        python = run_trials(protocol, instance, protocol.honest_prover(),
                            3, 2018, engine="python")
        numpy = run_trials(protocol, instance, protocol.honest_prover(),
                           3, 2018, engine="numpy")
        assert numpy.engine == "numpy"
        assert python == numpy
        assert python.decide_calls == numpy.decide_calls
        # A later trial's full transcript, aggregates included.
        prover = protocol.honest_prover()
        context = InstanceContext(instance, protocol)
        prover.bind_context(context)
        kernel = find_kernel(protocol, instance, prover, context)
        reference = run_protocol(protocol, instance,
                                 protocol.honest_prover(),
                                 random.Random(2018 + 2), context=context)
        assert kernel.execution_result(2018, 2, True) == reference

    def test_fork_pool_matches_serial_numpy_path(self):
        protocol = SymDMAMProtocol(10)
        instance = Instance(cycle_graph(10))
        python = run_trials(protocol, instance, protocol.honest_prover(),
                            24, 99, engine="python")
        serial = run_trials(protocol, instance, protocol.honest_prover(),
                            24, 99, engine="numpy", workers=1)
        forked = run_trials(protocol, instance, protocol.honest_prover(),
                            24, 99, engine="numpy", workers=2)
        assert serial == forked == python
        assert forked.workers == 2
        assert serial.engine == forked.engine == "numpy"
        assert (serial.decide_calls == forked.decide_calls
                == python.decide_calls)


@requires_numpy
class TestKernelSafetyNet:
    def test_tampered_kernel_raises_mismatch(self):
        protocol = SymDMAMProtocol(8)
        instance = Instance(cycle_graph(8))
        prover = protocol.honest_prover()
        context = InstanceContext(instance, protocol)
        prover.bind_context(context)
        kernel = find_kernel(protocol, instance, prover, context)
        assert kernel is not None
        # Flip the static root check: the kernel now rejects every
        # trial of a YES instance, which the trial-0 cross-check must
        # catch before any estimate is produced.
        kernel._root_static_ok = False
        with pytest.raises(KernelMismatch):
            _verify_kernel(kernel, protocol, instance,
                           protocol.honest_prover(), context, seed=7,
                           stop_on_first_reject=True)

    def test_every_numpy_run_pays_the_crosscheck(self):
        # End to end: run_trials itself must surface the mismatch.
        protocol = SymDMAMProtocol(8)
        instance = Instance(cycle_graph(8))
        context = InstanceContext(instance, protocol)
        import repro.core.runner as runner_module
        original = runner_module._resolve_kernel

        def tampered(protocol, instance, prover, context):
            kernel = original(protocol, instance, prover, context)
            if kernel is not None:
                kernel._root_static_ok = False
            return kernel

        runner_module._resolve_kernel = tampered
        try:
            with pytest.raises(KernelMismatch):
                run_trials(protocol, instance, protocol.honest_prover(),
                           5, 7, context=context, engine="numpy")
        finally:
            runner_module._resolve_kernel = original


def _closed_under(graph: Graph, rho) -> Graph:
    """The smallest supergraph of ``graph`` that the permutation ρ maps
    onto itself, so ρ is one of its automorphisms."""
    edges = {tuple(sorted(edge)) for edge in graph.edges}
    while True:
        image = {tuple(sorted((rho[u], rho[v]))) for u, v in edges}
        if image <= edges:
            return Graph(graph.n, edges)
        edges |= image


def _totals_verdict(kernel, coins):
    """The oracle: the two totals the root compares (Lemma 3.3),
    computed in full — every node's a row (row v holds N[v]) and b row
    (row ρ(v) holds ρ(N[v]), clamped to 0/1 for a mapping) hashed under
    each coin, both sides summed mod p and compared."""
    np = require_numpy()
    family, n, context = kernel.family, kernel.n, kernel.context
    rho = np.asarray(kernel.rho, dtype=np.int64)
    nodes = np.arange(n, dtype=np.int64)
    tables = family.row_tables_batch(coins, n)
    if sorted(kernel.rho) == list(range(n)):
        indptr, indices = context.closed_adjacency_csr()
        a_terms = family.row_hash_batch_csr(tables, nodes, indptr, indices)
        b_terms = family.row_hash_batch_csr(tables, rho, indptr,
                                            rho[indices])
    else:
        adjacency = context.closed_adjacency()
        onehot = np.zeros((n, n), dtype=np.int64)
        onehot[nodes, rho] = 1
        image_rows = (adjacency @ onehot > 0).astype(np.int64)
        a_terms = family.row_hash_batch(tables, nodes, adjacency)
        b_terms = family.row_hash_batch(tables, rho, image_rows)
    return (a_terms.sum(axis=1) % family.p
            == b_terms.sum(axis=1) % family.p)


def _kernel_for(graph: Graph, rho, p: int) -> SymDMAMKernel:
    """A Protocol-1 kernel committed to ρ, rooted at a vertex it moves,
    under the prime ``p``."""
    n = graph.n
    protocol = SymDMAMProtocol(n, family=LinearHashFamily(m=n * n, p=p))
    instance = Instance(graph)
    context = InstanceContext(instance, protocol)
    root = next(v for v in range(n) if rho[v] != v)
    return SymDMAMKernel(protocol, instance, context,
                         protocol.honest_prover(), rho, root)


@requires_numpy
class TestDifferenceVerdict:
    """The batch decides from the hash of A − B, the coordinates where
    the two hashed matrices differ; the totals Σa and Σb it replaced
    are the oracle, on every coin of small primes."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(min_value=3, max_value=12),
           shape=st.sampled_from(("automorphism", "permutation",
                                  "mapping")),
           graph_seed=st.integers(min_value=0, max_value=10 ** 6),
           data=st.data())
    def test_matches_the_two_totals(self, n, shape, graph_seed, data):
        np = require_numpy()
        rng = random.Random(graph_seed)
        graph = random_connected_graph(n, rng.choice((0.2, 0.35, 0.6)),
                                       rng)
        if shape == "mapping":
            rho = [rng.randrange(n) for _ in range(n)]
        else:
            rho = list(range(n))
            rng.shuffle(rho)
        if rho == list(range(n)):
            rho[0], rho[1] = 1, 0
        if shape == "automorphism":
            graph = _closed_under(graph, rho)
        p = next_prime(data.draw(st.integers(min_value=n * n + 1,
                                             max_value=n ** 3),
                                 label="p from"))
        kernel = _kernel_for(graph, rho, p)
        coins = np.arange(p, dtype=np.int64)  # every coin in [0, p)
        accepted = kernel._verdict(p, coins)
        assert accepted.tolist() == _totals_verdict(kernel,
                                                    coins).tolist()
        if shape == "automorphism":
            assert kernel._difference is None
            assert accepted.all()

    def test_shared_image_rows_keep_their_multiplicity(self):
        # Five vertices of K_6 map to vertex 0, so B's row 0 holds five
        # image rows: entries of multiplicity up to 5, and more than n
        # entries in one row of the minus side.
        np = require_numpy()
        n = 6
        rho = [0, 0, 0, 0, 0, 1]
        kernel = _kernel_for(complete_graph(n), rho, next_prime(n ** 3))
        plus, minus = kernel._difference
        rows, indptr, _ = minus
        assert (np.diff(indptr) <= n).all()
        assert rows.tolist().count(0) > 1  # row 0 split into CSR rows
        coins = np.arange(kernel.p, dtype=np.int64)
        assert (kernel._verdict(kernel.p, coins).tolist()
                == _totals_verdict(kernel, coins).tolist())

    def test_honest_batch_builds_no_row_tables(self, monkeypatch):
        # An automorphism's difference is empty: the batch accepts
        # every trial without drawing a coin or hashing a row.
        protocol = SymDMAMProtocol(1024)
        instance = Instance(cycle_graph(1024))
        context = InstanceContext(instance, protocol)
        prover = protocol.honest_prover()
        prover.bind_context(context)
        kernel = find_kernel(protocol, instance, prover, context)
        builds = []
        original = LinearHashFamily.row_tables_batch

        def counted(family, seeds, n):
            builds.append(n)
            return original(family, seeds, n)

        monkeypatch.setattr(LinearHashFamily, "row_tables_batch", counted)
        batch = kernel.run_batch(12345, 0, 100, True)
        assert batch.accepted.all()
        assert builds == []

    @pytest.mark.parametrize("kind", ["dmam-honest", "dmam-committed",
                                      "dam-committed"])
    def test_difference_is_computed_once_per_context(self, kind,
                                                     monkeypatch):
        import repro.core.kernels.sym as sym
        calls = []
        original = sym._signed_difference

        def counted(*sides):
            calls.append(sides)
            return original(*sides)

        monkeypatch.setattr(sym, "_signed_difference", counted)
        protocol, instance, make_prover = _case(kind, 9, graph_seed=3)
        context = InstanceContext(instance, protocol)
        kernels = []
        for _ in range(2):
            prover = make_prover()
            prover.bind_context(context)
            kernels.append(find_kernel(protocol, instance, prover,
                                       context))
        assert len(calls) == 1
        assert kernels[0]._difference is kernels[1]._difference
        assert (kernels[0]._difference is None) == (kind == "dmam-honest")


#: A 41-bit prime: the widest modulus the int64 kernels accept.
_P41 = next_prime((1 << MAX_MODULUS_BITS) - 10 ** 9)


def _tree_shape(kind: str, n: int, graph_seed: int):
    rng = random.Random(graph_seed)
    if kind == "tree":
        return random_tree(n, rng)
    if kind == "sparse":
        return random_connected_graph(n, 0.1, rng)
    if kind == "dense":
        return random_connected_graph(n, 0.5, rng)
    if kind == "star":
        return star_graph(n)
    return path_graph(n)


@requires_numpy
class TestAggregate:
    """The kernel's subtree fold against a python sum over
    ``subtree_vertices``: every node's value is the sum, mod p, of the
    terms of the vertices below it in the BFS tree (Lemma 3.3's
    honest aggregates)."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(("tree", "sparse", "dense", "star",
                                 "path")),
           n=st.integers(min_value=2, max_value=40),
           graph_seed=st.integers(min_value=0, max_value=10 ** 6),
           root_seed=st.integers(min_value=0, max_value=10 ** 6),
           trials=st.integers(min_value=1, max_value=6),
           fill=st.sampled_from(("random", "max")))
    def test_matches_python_subtree_sums(self, kind, n, graph_seed,
                                         root_seed, trials, fill):
        np = require_numpy()
        assert _P41.bit_length() == MAX_MODULUS_BITS
        graph = _tree_shape(kind, n, graph_seed)
        root = root_seed % n
        protocol = SymDMAMProtocol(
            n, family=LinearHashFamily(m=n * n, p=_P41))
        instance = Instance(graph)
        context = InstanceContext(instance, protocol)
        rho = list(range(n))
        other = (root + 1) % n
        rho[root], rho[other] = other, root
        kernel = SymDMAMKernel(protocol, instance, context,
                               protocol.honest_prover(), rho, root)
        rng = random.Random(graph_seed ^ root_seed)
        terms = np.array(
            [[_P41 - 1 if fill == "max" else rng.randrange(_P41)
              for _ in range(n)] for _ in range(trials)], dtype=np.int64)
        advice = context.tree_advice(root)
        expected = [[sum(int(row[u]) for u in subtree_vertices(advice, v))
                     % _P41 for v in range(n)] for row in terms]
        before = terms.copy()
        assert kernel._aggregate(terms).tolist() == expected
        assert (terms == before).all()  # the terms are not folded in place


#: Primes of every width from 2 to 41 bits — each just above a power
#: of two, where randrange rejects almost half its candidates, and
#: just below the next — plus both neighbours of 2³², where one
#: candidate grows from one Mersenne Twister word to two.
_DRAW_PRIMES = sorted(
    {next_prime(1 << (bits - 1)) for bits in range(2, 42)}
    | {max(q for q in range((1 << bits) - 200, 1 << bits)
           if q == next_prime(q)) for bits in (5, 17, 31, 40, 41)}
    | {4294967291, next_prime(1 << 32)})


@requires_numpy
class TestChallengeDraws:
    """The kernels' bulk challenge draws against ``randrange``.

    Honest jobs accept every trial and the runtime cross-check replays
    only trial 0, so a wrong stream in trials 1..T−1 would go unseen
    anywhere else."""

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 32 + 17, 2 ** 40 + 3])
    def test_bulk_draw_matches_randrange(self, seed):
        assert {p.bit_length() for p in _DRAW_PRIMES} == set(range(2, 42))
        for p in _DRAW_PRIMES:
            rng = random.Random(seed)
            reference = [rng.randrange(p) for _ in range(300)]
            for count in range(301):
                got = randrange_batch(random.Random(seed), p, count)
                assert got.dtype == "int64"
                assert got.tolist() == reference[:count], (p, count)

    def test_bulk_draw_rejects_unrepresentable_moduli(self):
        for p in (0, 1 << 63):
            with pytest.raises(ValueError):
                randrange_batch(random.Random(0), p, 1)

    @pytest.mark.parametrize("kind, n", [
        ("dmam-honest", 12), ("dmam-committed", 9), ("dam-honest", 10),
        ("dam-committed", 8), ("dmam-honest", 1024)])
    def test_every_trial_draws_its_own_stream(self, kind, n):
        if n < 1024:
            protocol, instance, make_prover = _late_root_case(kind, n)
        else:
            protocol, instance, make_prover = _case(kind, n, graph_seed=5)
        prover = make_prover()
        context = InstanceContext(instance, protocol)
        prover.bind_context(context)
        kernel = find_kernel(protocol, instance, prover, context)
        if n < 1024:
            assert kernel.root >= n // 2
        p = protocol.family.p
        seed, start, count = 2018, 3, 6
        streams = [random.Random(seed + start + i) for i in range(count)]
        expected = [[rng.randrange(p) for _ in range(n)] for rng in streams]
        # The transcript path draws every node's coin.
        for i, row in enumerate(expected):
            result = kernel.execution_result(seed, start + i, True)
            randomness = result.transcript.randomness[kernel.ARTHUR_ROUND]
            assert randomness == dict(enumerate(row)), i
        # The batch path draws up to the root's coin, the one its
        # verdict reads.
        coins = kernel._root_coins(seed, start, count)
        assert coins.tolist() == [row[kernel.root] for row in expected]


def _late_root_case(kind: str, n: int):
    """:func:`_case`'s four kernel shapes with the root at n//2 or
    beyond, so a batch draws many coins before the root's.  The graph
    is a path that forks into two leaves at one end; the honest
    provers commit to swapping the leaves (its only non-trivial
    automorphism), the committed ones move vertex n//2."""
    edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    tailed = Instance(Graph(n, edges))
    late = n // 2
    swap = list(range(n))
    swap[late], swap[n - 1] = n - 1, late
    if kind == "dmam-honest":
        protocol = SymDMAMProtocol(n)
        return protocol, tailed, protocol.honest_prover
    if kind == "dmam-committed":
        protocol = SymDMAMProtocol(n)
        return protocol, tailed, lambda: CommittedMappingProver(protocol,
                                                                swap)
    protocol = _small_dam_protocol(n)
    if kind == "dam-honest":
        return protocol, tailed, protocol.honest_prover
    mapping = [v // 2 for v in range(n)]  # not a permutation
    return protocol, tailed, lambda: CommittedDAMProver(protocol, mapping,
                                                        root=late)


class TestFallback:
    def test_unknown_engine_rejected(self):
        protocol = SymDMAMProtocol(6)
        instance = Instance(cycle_graph(6))
        with pytest.raises(ValueError, match="unknown engine"):
            run_trials(protocol, instance, protocol.honest_prover(),
                       2, 0, engine="fortran")

    def test_missing_numpy_warns_and_falls_back(self, monkeypatch):
        import repro.core.kernels._np as np_gate
        monkeypatch.setattr(np_gate, "np", None)
        assert not numpy_available()
        protocol = SymDMAMProtocol(6)
        instance = Instance(cycle_graph(6))
        python = run_trials(protocol, instance, protocol.honest_prover(),
                            4, 11, engine="python")
        with pytest.warns(RuntimeWarning, match="falling back"):
            fallback = run_trials(protocol, instance,
                                  protocol.honest_prover(), 4, 11,
                                  engine="numpy")
        assert fallback == python
        assert fallback.engine == "python"

    def test_require_numpy_error_names_the_extra(self, monkeypatch):
        import repro.core.kernels._np as np_gate
        monkeypatch.setattr(np_gate, "np", None)
        with pytest.raises(ImportError, match=r"repro\[fast\]"):
            require_numpy()

    @requires_numpy
    def test_unsupported_triple_falls_back_silently(self):
        # GNI has no kernel; the numpy request must not warn, and the
        # estimate must report the engine that actually ran.
        rigid = rigid_family_exhaustive(6)
        protocol = GNIGoldwasserSipserProtocol(6, repetitions=4)
        instance = gni_instance(rigid[0], rigid[1])
        python = run_trials(protocol, instance, protocol.honest_prover(),
                            3, 5, engine="python")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fallback = run_trials(protocol, instance,
                                  protocol.honest_prover(), 3, 5,
                                  engine="numpy")
        assert fallback == python
        assert fallback.engine == "python"

    @requires_numpy
    def test_paper_sized_modulus_falls_back(self):
        # Protocol 2's default ~n^(n+2) prime overflows int64 from
        # n = 10 on; the registry must decline it rather than compute
        # inexactly.
        protocol = SymDAMProtocol(10)
        assert not supported_modulus(protocol.family.p)
        instance = Instance(cycle_graph(10))
        python = run_trials(protocol, instance, protocol.honest_prover(),
                            3, 5, engine="python")
        numpy = run_trials(protocol, instance, protocol.honest_prover(),
                           3, 5, engine="numpy")
        assert numpy == python
        assert numpy.engine == "python"


@requires_numpy
class TestExactArithmetic:
    @pytest.mark.parametrize("p", [
        3,
        next_prime(10 * 64 ** 3),          # a real Protocol-1 prime
        next_prime(2 ** 30),               # just below the direct path
        next_prime(2 ** 31),               # first split-limb modulus
        next_prime((1 << MAX_MODULUS_BITS) - 10 ** 9),  # near ceiling
    ])
    def test_mulmod_matches_bigint(self, p):
        np = require_numpy()
        assert supported_modulus(p)
        rng = random.Random(p)
        a = np.array([rng.randrange(p) for _ in range(64)],
                     dtype=np.int64)
        b = np.array([rng.randrange(p) for _ in range(64)],
                     dtype=np.int64)
        got = mulmod(a, b, p)
        expected = [(int(x) * int(y)) % p for x, y in zip(a, b)]
        assert [int(v) for v in got] == expected

    def test_mulmod_rejects_oversized_modulus(self):
        np = require_numpy()
        p = next_prime(1 << (MAX_MODULUS_BITS + 1))
        assert not supported_modulus(p)
        with pytest.raises(ValueError, match="at most"):
            mulmod(np.array([1], dtype=np.int64),
                   np.array([1], dtype=np.int64), p)

    @settings(max_examples=30, deadline=None)
    @given(base=st.integers(min_value=0, max_value=(1 << 41) - 1),
           exponent=st.integers(min_value=0, max_value=5000))
    def test_powmod_column_matches_builtin_pow(self, base, exponent):
        np = require_numpy()
        p = next_prime(10 * 200 ** 3)
        got = powmod_column(np.array([base % p], dtype=np.int64),
                            exponent, p)
        assert int(got[0]) == pow(base % p, exponent, p)

    def test_supported_modulus_boundaries(self):
        assert not supported_modulus(1)
        assert supported_modulus(2)
        assert supported_modulus((1 << MAX_MODULUS_BITS) - 1)
        assert not supported_modulus(1 << MAX_MODULUS_BITS)
