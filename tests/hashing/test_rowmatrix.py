"""Tests for the row-matrix algebra and Lemma 3.1."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (Graph, cycle_graph, gnp_random_graph,
                          is_automorphism, path_graph, star_graph)
from repro.hashing import (MatrixSum, bits_to_coeffs, graph_matrix_sum,
                           image_bits, mapped_matrix_sum, matrix_sums_equal)


class TestBitsHelpers:
    def test_bits_to_coeffs(self):
        assert bits_to_coeffs(0b1011, 4) == (1, 1, 0, 1)
        assert bits_to_coeffs(0, 3) == (0, 0, 0)

    def test_image_bits_permutation(self):
        # {0, 2} under mapping (1, 2, 0) -> {1, 0}.
        assert image_bits(0b101, [1, 2, 0], 3) == 0b011

    def test_image_bits_non_injective_sets_once(self):
        # Both 0 and 1 map to 2: the characteristic vector is still 0/1.
        assert image_bits(0b011, [2, 2, 0], 3) == 0b100

    def test_image_bits_empty(self):
        assert image_bits(0, [1, 0], 2) == 0


def _image_bits_scan(bits, mapping, n):
    """The position-scanning ``image_bits`` loop, kept as the oracle."""
    out = 0
    for u in range(n):
        if (bits >> u) & 1:
            out |= 1 << mapping[u]
    return out


@st.composite
def _image_cases(draw):
    """Bits reaching above ``n`` (and below zero) with arbitrary, often
    non-injective, mappings into the vertex set."""
    n = draw(st.integers(min_value=0, max_value=12))
    mapping = draw(st.lists(st.integers(min_value=0, max_value=max(n - 1, 0)),
                            min_size=n, max_size=n))
    bound = 1 << (n + 4)
    bits = draw(st.integers(min_value=-bound, max_value=bound))
    return bits, mapping, n


class TestImageBitsEquivalence:
    @given(_image_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_position_scan(self, case):
        bits, mapping, n = case
        assert image_bits(bits, mapping, n) == _image_bits_scan(bits, mapping, n)


class TestMatrixSum:
    def test_add_row(self):
        m = MatrixSum(3, 7)
        m.add_row(1, 0b101)
        assert m.entries() == ((0, 0, 0), (1, 0, 1), (0, 0, 0))

    def test_entries_wrap_mod_p(self):
        m = MatrixSum(2, 3)
        for _ in range(4):
            m.add_row(0, 0b01)
        assert m.entries()[0][0] == 1  # 4 mod 3

    def test_row_index_validation(self):
        m = MatrixSum(2, 5)
        with pytest.raises(ValueError):
            m.add_row(2, 0b1)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            MatrixSum(2, 1)

    def test_equality(self):
        a, b = MatrixSum(2, 5), MatrixSum(2, 5)
        a.add_row(0, 0b11)
        b.add_row(0, 0b11)
        assert a == b
        b.add_row(1, 0b01)
        assert a != b


class TestGraphMatrixSum:
    def test_is_closed_adjacency(self):
        g = path_graph(3)
        m = graph_matrix_sum(g, 101)
        assert m.entries() == ((1, 1, 0), (1, 1, 1), (0, 1, 1))

    def test_identity_mapping_reproduces_graph_sum(self, rng):
        g = gnp_random_graph(6, 0.5, rng)
        identity = list(range(6))
        assert graph_matrix_sum(g, 101) == mapped_matrix_sum(g, identity, 101)


class TestLemma31:
    """Lemma 3.1: the matrix sums agree iff the mapping is an
    automorphism — tested exhaustively over all mappings on small
    graphs, including non-permutations."""

    @pytest.mark.parametrize("graph", [
        path_graph(3), cycle_graph(4), star_graph(4),
    ])
    def test_exhaustive_over_all_mappings(self, graph):
        n = graph.n
        p = 1009
        for mapping in itertools.product(range(n), repeat=n):
            equal = matrix_sums_equal(graph, list(mapping), p)
            assert equal == is_automorphism(graph, list(mapping)), mapping

    def test_automorphism_gives_equal_sums(self, rigid6):
        # On a rigid graph only the identity qualifies.
        g = rigid6[0]
        assert matrix_sums_equal(g, list(range(6)), 1009)

    def test_non_permutation_detected(self, rng):
        """The permutation half of Lemma 3.1's proof: a constant map
        leaves a row of the mapped sum zero while the graph sum's row
        has its diagonal 1."""
        g = gnp_random_graph(6, 0.5, rng)
        constant = [0] * 6
        assert not matrix_sums_equal(g, constant, 1009)

    def test_swap_on_rigid_graph_detected(self, asym6):
        mapping = [1, 0, 2, 3, 4, 5]
        assert not matrix_sums_equal(asym6, mapping, 1009)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_random_permutations_on_cycle(self, rnd):
        g = cycle_graph(6)
        perm = list(range(6))
        rnd.shuffle(perm)
        assert matrix_sums_equal(g, perm, 1009) == is_automorphism(g, perm)

    def test_mapping_length_validation(self):
        with pytest.raises(ValueError):
            mapped_matrix_sum(path_graph(3), [0, 1], 7)
