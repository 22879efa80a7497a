"""The Goldwasser–Sipser witness catalogs and witness search, pinned
against the straightforward builders and scan they replaced.

The oracles below are the plain enumerations: every σ ∈ S_n, and for
the compensated pair catalog every τ ∈ Aut(G_b) under every σ, each
encoding built bit by bit and kept by ``setdefault``; and a witness
scan that decodes every encoding's set bits again for every challenge.
The library must return the same catalog items in the same order (so
every first witness is the same) and the same first preimage, ``None``
included.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import bits_for_identifier
from repro.graphs import (Graph, complete_graph, cycle_graph, empty_graph,
                          star_graph)
from repro.graphs.automorphism import all_automorphisms
from repro.hashing import DistributedAPIHash
from repro.hashing.rowmatrix import image_bits
from repro.lab.spec import GRAPHS, PROTOCOLS
from repro.protocols import (GeneralGNIProtocol, GNIGoldwasserSipserProtocol,
                             MarkedGNIProtocol, isomorphism_closure_encodings,
                             pair_catalog, per_repetition_success_rate)
from repro.protocols._gs import search_entries


# -- oracles ---------------------------------------------------------------

def oracle_closure(g0: Graph, g1: Graph) -> Dict[int, tuple]:
    n = g0.n
    catalog: Dict[int, tuple] = {}
    for sigma in itertools.permutations(range(n)):
        for b, graph in ((0, g0), (1, g1)):
            bits = 0
            for v in range(n):
                row = image_bits(graph.closed_row(v), sigma, n)
                bits |= row << (sigma[v] * n)
            catalog.setdefault(bits, (b, sigma))
    return catalog


def _alpha_block(alpha: Sequence[int], n: int, id_bits: int) -> int:
    bits = 0
    base = n * n
    for u in range(n):
        bits |= alpha[u] << (base + u * id_bits)
    return bits


def _compose(outer: Sequence[int], inner: Sequence[int]) -> Tuple[int, ...]:
    return tuple(outer[x] for x in inner)


def _inverse(perm: Sequence[int]) -> Tuple[int, ...]:
    inv = [0] * len(perm)
    for i, x in enumerate(perm):
        inv[x] = i
    return tuple(inv)


def oracle_pairs(g0: Graph, g1: Graph) -> Dict[int, tuple]:
    n = g0.n
    id_bits = bits_for_identifier(n)
    catalog: Dict[int, tuple] = {}
    for b, graph in ((0, g0), (1, g1)):
        auts = list(all_automorphisms(graph))
        for sigma in itertools.permutations(range(n)):
            matrix_bits = 0
            for v in range(n):
                row = image_bits(graph.closed_row(v), sigma, n)
                matrix_bits |= row << (sigma[v] * n)
            sigma_inv = _inverse(sigma)
            for tau in auts:
                alpha = _compose(sigma, _compose(tau, sigma_inv))
                encoding = matrix_bits | _alpha_block(alpha, n, id_bits)
                catalog.setdefault(encoding, (b, sigma, alpha))
    return catalog


def _relabeled_encoding(sub: Graph, labeling: Sequence[int],
                        stride: int) -> int:
    bits = 0
    for v in range(sub.n):
        row = image_bits(sub.closed_row(v), labeling, sub.n)
        bits |= row << (labeling[v] * stride)
    return bits


def oracle_marked(k: int, stride: int, g0: Graph, g1: Graph
                  ) -> Dict[int, tuple]:
    result: Dict[int, tuple] = {}
    for b, sub in enumerate((g0, g1)):
        for labeling in itertools.permutations(range(k)):
            encoding = _relabeled_encoding(sub, labeling, stride)
            result.setdefault(encoding, (b, labeling))
    return result


def oracle_search(api: DistributedAPIHash, challenge, encodings):
    """The witness scan: decode every encoding's set bits per challenge."""
    table = api.inner.power_table(challenge.s)
    offset = challenge.offset_total
    for bits in encodings:
        acc = 0
        remaining = bits
        while remaining:
            low = remaining & -remaining
            acc += table[low.bit_length() - 1]
            remaining ^= low
        inner_value = (acc % api.inner.p + offset) % api.big_q
        if api.finalize(challenge.a, challenge.b, inner_value) == challenge.y:
            return bits
    return None


def library_search(api: DistributedAPIHash, challenge,
                   catalog: Dict[int, tuple]):
    """The library's witness search over ``catalog`` in catalog order."""
    return api.preimage_exists(challenge, search_entries(catalog))


# -- cases -------------------------------------------------------------------

def _relabel(graph: Graph, seed: int) -> Graph:
    perm = list(graph.vertices)
    random.Random(seed).shuffle(perm)
    return graph.relabel(perm)


def _registry_graphs(protocol_name: str, graph_name: str, n: int):
    protocol = PROTOCOLS[protocol_name](n)
    return protocol, protocol.instance_graphs(GRAPHS[graph_name](n))


#: (label, g0, g1) pairs for the plain and the compensated catalogs:
#: large automorphism groups, isomorphic and non-isomorphic pairs.
PAIRS = {
    "empty5-complete5": (empty_graph(5), complete_graph(5)),
    "empty5-empty5": (empty_graph(5), empty_graph(5)),
    "complete5-complete5": (complete_graph(5), complete_graph(5)),
    "star5-cycle5": (star_graph(5), cycle_graph(5)),
    "cycle5-cycle5-relabeled": (cycle_graph(5), _relabel(cycle_graph(5), 1)),
    "star6-cycle6": (star_graph(6), cycle_graph(6)),
    "cycle6-star6-relabeled": (cycle_graph(6), _relabel(star_graph(6), 2)),
    "star6-star6-relabeled": (star_graph(6), _relabel(star_graph(6), 3)),
}

REGISTRY = {
    "E5-gni-yes": ("gni-damam-8", "gni-rigid-yes", 6),
    "E5-gni-no": ("gni-damam-8", "gni-rigid-no", 6),
    "E9-general-yes": ("gni-general-8", "gni-sym-yes", 6),
    "E9-general-no": ("gni-general-8", "gni-sym-no", 6),
    "E11-marked-yes": ("gni-marked-8", "marked-yes", 13),
    "E11-marked-no": ("gni-marked-8", "marked-no", 13),
}


def _oracle_for(protocol, g0: Graph, g1: Graph) -> Dict[int, tuple]:
    if isinstance(protocol, MarkedGNIProtocol):
        return oracle_marked(protocol.k, protocol.n, g0, g1)
    if isinstance(protocol, GeneralGNIProtocol):
        return oracle_pairs(g0, g1)
    return oracle_closure(g0, g1)


_ORACLES: Dict[str, Dict[int, tuple]] = {}


def _registry_case(name: str):
    """(protocol, g0, g1, oracle catalog) of a registry cell, the
    oracle built once per test process."""
    protocol, (g0, g1) = _registry_graphs(*REGISTRY[name])
    if name not in _ORACLES:
        _ORACLES[name] = _oracle_for(protocol, g0, g1)
    return protocol, g0, g1, _ORACLES[name]


# -- catalogs ----------------------------------------------------------------

class TestCatalogOrder:
    @pytest.mark.parametrize("label", sorted(PAIRS))
    def test_closure_matches_oracle(self, label):
        g0, g1 = PAIRS[label]
        assert list(isomorphism_closure_encodings(g0, g1).items()) \
            == list(oracle_closure(g0, g1).items())

    @pytest.mark.parametrize("label", sorted(PAIRS))
    def test_pairs_match_oracle(self, label):
        g0, g1 = PAIRS[label]
        assert list(pair_catalog(g0, g1).items()) \
            == list(oracle_pairs(g0, g1).items())

    def test_rigid_pairs_match_oracle(self, rigid6):
        for g1 in (rigid6[1], rigid6[0].relabel([2, 0, 1, 4, 3, 5])):
            assert list(isomorphism_closure_encodings(rigid6[0], g1)
                        .items()) == list(oracle_closure(rigid6[0], g1)
                                          .items())
            assert list(pair_catalog(rigid6[0], g1).items()) \
                == list(oracle_pairs(rigid6[0], g1).items())

    @pytest.mark.parametrize("k, stride", [(4, 4), (5, 9), (6, 13)])
    def test_marked_matches_oracle(self, k, stride):
        protocol = MarkedGNIProtocol(stride, k=k, repetitions=8)
        for g0, g1 in ((star_graph(k), cycle_graph(k)),
                       (empty_graph(k), complete_graph(k)),
                       (cycle_graph(k), _relabel(cycle_graph(k), k))):
            assert list(protocol.catalog(g0, g1).items()) \
                == list(oracle_marked(k, stride, g0, g1).items())

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_registry_instances_match_oracle(self, name):
        protocol, g0, g1, oracle = _registry_case(name)
        assert list(protocol.catalog(g0, g1).items()) \
            == list(oracle.items())


@st.composite
def graph_pairs(draw, max_n: int):
    """A graph on at most ``max_n`` vertices and a second one that is
    either independent or a relabeling of the first."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    slots = list(itertools.combinations(range(n), 2))

    def graph() -> Graph:
        keep = draw(st.lists(st.booleans(), min_size=len(slots),
                             max_size=len(slots)))
        return Graph(n, [e for e, kept in zip(slots, keep) if kept])

    g0 = graph()
    if draw(st.booleans()):
        return g0, g0.relabel(draw(st.permutations(range(n))))
    return g0, graph()


class TestDrawnCatalogs:
    @given(graph_pairs(6))
    @settings(max_examples=25, deadline=None)
    def test_closure(self, pair):
        g0, g1 = pair
        assert list(isomorphism_closure_encodings(g0, g1).items()) \
            == list(oracle_closure(g0, g1).items())

    # n ≤ 5: the oracle walks n!·(|Aut G₀| + |Aut G₁|) α blocks, a
    # million for an empty or complete graph on 6 vertices.
    @given(graph_pairs(5))
    @settings(max_examples=25, deadline=None)
    def test_pairs(self, pair):
        g0, g1 = pair
        assert list(pair_catalog(g0, g1).items()) \
            == list(oracle_pairs(g0, g1).items())

    @given(graph_pairs(5), st.integers(min_value=0, max_value=7))
    @settings(max_examples=25, deadline=None)
    def test_marked_inside_a_larger_network(self, pair, extra):
        g0, g1 = pair
        k = g0.n
        stride = k + extra
        protocol = MarkedGNIProtocol(max(stride, 2), k=k, repetitions=8)
        assert list(protocol.catalog(g0, g1).items()) \
            == list(oracle_marked(k, protocol.n, g0, g1).items())


# -- witness search ------------------------------------------------------------

def _search_cases():
    cases = []
    for name in sorted(REGISTRY):
        protocol, g0, g1, oracle = _registry_case(name)
        cases.append((name, protocol, protocol.catalog(g0, g1), oracle))
    for label in ("empty5-complete5", "cycle5-cycle5-relabeled"):
        g0, g1 = PAIRS[label]
        for protocol in (GNIGoldwasserSipserProtocol(g0.n, repetitions=8),
                         GeneralGNIProtocol(g0.n, repetitions=8)):
            cases.append((label, protocol, protocol.catalog(g0, g1),
                          _oracle_for(protocol, g0, g1)))
    return cases


@pytest.fixture(scope="module")
def search_cases():
    return _search_cases()


class TestWitnessSearch:
    def test_small_q_first_match_wins(self, search_cases):
        """q = 5: about a fifth of the catalog hashes to any target, so
        the scan order decides which witness comes back."""
        crowded = 0
        for label, protocol, catalog, oracle in search_cases:
            api = DistributedAPIHash(m=protocol.hash.m, q=5)
            rng = random.Random(label)
            for _ in range(12):
                challenge = api.sample_challenge(protocol.n, rng)
                expected = oracle_search(api, challenge, oracle)
                assert library_search(api, challenge, catalog) == expected
                crowded += sum(
                    api.hash_encoding(challenge, x) == challenge.y
                    for x in itertools.islice(oracle, 40)) >= 2
        assert crowded >= 6 * len(search_cases)

    def test_protocol_q_with_misses(self, search_cases):
        misses = hits = 0
        for label, protocol, catalog, oracle in search_cases:
            api = protocol.hash
            rng = random.Random(label + "/q")
            for _ in range(12):
                challenge = api.sample_challenge(protocol.n, rng)
                expected = oracle_search(api, challenge, oracle)
                assert library_search(api, challenge, catalog) == expected
                misses += expected is None
                hits += expected is not None
        assert misses > 0 and hits > 0

    def test_empty_catalog_has_no_preimage(self):
        api = DistributedAPIHash(m=9, q=5)
        challenge = api.sample_challenge(3, random.Random(0))
        assert library_search(api, challenge, {}) is None

    @pytest.mark.parametrize("name", ["E5-gni-yes", "E9-general-no",
                                      "E11-marked-yes"])
    def test_success_rate_matches_oracle_scan(self, name):
        protocol, g0, g1, oracle = _registry_case(name)
        samples = 10
        rng = random.Random(name)
        hits = sum(
            oracle_search(protocol.hash,
                          protocol.hash.sample_challenge(protocol.n, rng),
                          oracle) is not None
            for _ in range(samples))
        assert per_repetition_success_rate(
            g0, g1, protocol, samples, random.Random(name)) \
            == hits / samples
