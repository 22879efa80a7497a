"""Tests for rigid graph families."""

import random

import pytest

from repro.graphs import (SMALLEST_ASYMMETRIC, are_isomorphic,
                          count_rigid_classes, is_asymmetric, rigid_family,
                          rigid_family_exhaustive, rigid_family_sampled)


class TestSmallestAsymmetric:
    def test_is_rigid(self):
        assert is_asymmetric(SMALLEST_ASYMMETRIC)

    def test_is_connected(self):
        assert SMALLEST_ASYMMETRIC.is_connected()

    def test_six_vertices(self):
        assert SMALLEST_ASYMMETRIC.n == 6


class TestExhaustive:
    def test_no_rigid_below_six(self):
        for n in (2, 3, 4, 5):
            assert rigid_family_exhaustive(n) == []

    def test_exactly_eight_classes_on_six(self):
        family = rigid_family_exhaustive(6)
        assert len(family) == 8

    def test_family_members_rigid_and_connected(self, rigid6):
        for g in rigid6:
            assert is_asymmetric(g)
            assert g.is_connected()

    def test_family_pairwise_non_isomorphic(self, rigid6):
        for i in range(len(rigid6)):
            for j in range(i + 1, len(rigid6)):
                assert not are_isomorphic(rigid6[i], rigid6[j])

    def test_max_size_truncation(self, rigid6):
        # The truncated enumeration is a prefix of the full one: callers
        # that use only the first classes enumerate only that far.
        for k in range(1, 9):
            assert rigid_family_exhaustive(6, max_size=k) == rigid6[:k]

    def test_count_rigid_classes(self):
        assert count_rigid_classes(6) == 8


class TestSampled:
    def test_sampled_family_properties(self):
        rng = random.Random(42)
        family = rigid_family_sampled(8, 5, rng)
        assert len(family) == 5
        for g in family:
            assert g.n == 8
            assert is_asymmetric(g)
            assert g.is_connected()
        for i in range(5):
            for j in range(i + 1, 5):
                assert not are_isomorphic(family[i], family[j])

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            rigid_family_sampled(4, 1, random.Random(0))

    def test_exhausted_budget_raises(self):
        with pytest.raises(RuntimeError):
            # 6 vertices host only 8 connected classes.
            rigid_family_sampled(6, 100, random.Random(0), max_tries=500)


class TestFrontend:
    def test_small_uses_exhaustive(self):
        family = rigid_family(6, 8)
        assert len(family) == 8

    def test_too_many_requested(self):
        with pytest.raises(ValueError):
            rigid_family(6, 9)

    def test_large_uses_sampling(self):
        family = rigid_family(9, 4, random.Random(1))
        assert len(family) == 4
        assert all(g.n == 9 for g in family)
