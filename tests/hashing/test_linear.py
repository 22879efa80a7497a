"""Tests for the Theorem-3.2 linear hash family: linearity, the m/p
collision law (exactly, by counting seeds), and the row-matrix fast
path against the flattened reference and the pow-based formula."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import numpy_available
from repro.graphs import cycle_graph, gnp_random_graph, path_graph
from repro.graphs.graph import bits_of_mask
from repro.hashing import (LinearHashFamily, collision_seed_count,
                           graph_matrix_sum, mapped_matrix_sum, next_prime)


@pytest.fixture
def family():
    return LinearHashFamily(m=16, p=1009)


def _pow_row_hash(family, seed, n, i, row_bits):
    """``hash_row_matrix`` as the pow-based formula — one ``pow`` for
    the row offset ``s^(i·n)`` and one per set bit, in the order that
    decides which error a bad argument raises — kept as the oracle the
    table-driven method must match, errors included."""
    if n * n > family.m:
        raise ValueError(f"matrix {n}x{n} does not fit dimension m={family.m}")
    if not 0 <= i < n:
        raise ValueError(f"row index {i} out of range")
    if row_bits >> n:
        raise ValueError("row has bits beyond column n")
    offset = pow(seed, i * n, family.p)
    if not 0 <= seed < family.p:
        raise ValueError(f"seed {seed} outside [0, {family.p})")
    acc = 0
    remaining = row_bits
    while remaining:
        low = remaining & -remaining
        j = low.bit_length() - 1
        acc = (acc + pow(seed, j + 1, family.p)) % family.p
        remaining ^= low
    return (offset * acc) % family.p


#: Primes from 2 up to 61 bits (2^61 - 1 is itself prime).
_PRIMES = st.integers(min_value=2, max_value=(1 << 61) - 1).map(next_prime)


class TestConstruction:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LinearHashFamily(m=0, p=7)
        with pytest.raises(ValueError):
            LinearHashFamily(m=4, p=1)

    def test_seed_count_and_bits(self, family):
        assert family.seed_count == 1009
        assert family.seed_bits == 10

    def test_collision_bound(self, family):
        assert family.collision_bound == 16 / 1009

    def test_sample_seed_in_range(self, family, rng):
        for _ in range(100):
            assert 0 <= family.sample_seed(rng) < 1009


class TestHashing:
    def test_zero_hashes_to_zero(self, family):
        assert family.hash_bits(5, 0) == 0
        assert family.hash_vector(5, [0, 0, 0]) == 0

    def test_hash_bits_single_coordinate(self, family):
        # bit j contributes s^(j+1).
        assert family.hash_bits(3, 1 << 0) == 3
        assert family.hash_bits(3, 1 << 2) == pow(3, 3, 1009)

    def test_hash_bits_matches_hash_vector(self, family, rng):
        for _ in range(50):
            bits = rng.randrange(1 << 16)
            coeffs = [(bits >> j) & 1 for j in range(16)]
            seed = family.sample_seed(rng)
            assert family.hash_bits(seed, bits) == \
                family.hash_vector(seed, coeffs)

    def test_bit_outside_dimension_rejected(self, family):
        with pytest.raises(ValueError):
            family.hash_bits(3, 1 << 16)

    def test_vector_too_long_rejected(self, family):
        with pytest.raises(ValueError):
            family.hash_vector(3, [1] * 17)

    def test_seed_out_of_range(self, family):
        with pytest.raises(ValueError):
            family.hash_bits(1009, 1)
        with pytest.raises(ValueError):
            family.hash_bits(-1, 1)

    def test_power_table_path(self, family, rng):
        """The witness search's position sum: a bitmask hashes to the
        table entries at its set-bit positions, summed mod p."""
        seed = family.sample_seed(rng)
        table = family.power_table(seed)
        for _ in range(30):
            bits = rng.randrange(1 << 16)
            assert sum(table[j] for j in bits_of_mask(bits)) % family.p \
                == family.hash_bits(seed, bits)


class TestLinearity:
    @given(st.integers(min_value=0, max_value=1008),
           st.lists(st.integers(min_value=0, max_value=1008),
                    min_size=16, max_size=16),
           st.lists(st.integers(min_value=0, max_value=1008),
                    min_size=16, max_size=16))
    @settings(max_examples=80, deadline=None)
    def test_additivity(self, seed, xs, ys):
        family = LinearHashFamily(m=16, p=1009)
        summed = [(a + b) % 1009 for a, b in zip(xs, ys)]
        assert family.hash_vector(seed, summed) == \
            (family.hash_vector(seed, xs) + family.hash_vector(seed, ys)) \
            % 1009

    @given(st.integers(min_value=0, max_value=1008),
           st.integers(min_value=0, max_value=1008),
           st.lists(st.integers(min_value=0, max_value=1008),
                    min_size=8, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_scaling(self, seed, scalar, xs):
        family = LinearHashFamily(m=8, p=1009)
        scaled = [scalar * x % 1009 for x in xs]
        assert family.hash_vector(seed, scaled) == \
            scalar * family.hash_vector(seed, xs) % 1009


class TestCollisionLaw:
    def test_exact_collision_count_within_bound(self):
        """Theorem 3.2: at most m colliding seeds for any fixed pair."""
        family = LinearHashFamily(m=6, p=97)
        rng = random.Random(5)
        for _ in range(25):
            a = [rng.randrange(97) for _ in range(6)]
            b = [rng.randrange(97) for _ in range(6)]
            if a == b:
                continue
            collisions = collision_seed_count(family, a, b)
            assert collisions <= 6

    def test_identical_inputs_always_collide(self):
        family = LinearHashFamily(m=4, p=31)
        assert collision_seed_count(family, [1, 2, 3, 4], [1, 2, 3, 4]) == 31

    def test_empirical_collision_rate(self, rng):
        """Sampled collision frequency obeys m/p with slack."""
        family = LinearHashFamily(m=8, p=10007)
        x = [1, 0, 1, 1, 0, 0, 1, 0]
        y = [0, 1, 1, 0, 1, 0, 0, 1]
        trials = 3000
        collisions = sum(
            family.hash_vector(family.sample_seed(rng), x)
            == family.hash_vector(family.sample_seed(rng), y)
            for _ in range(trials))
        # Bound is 8/10007 ~ 0.0008 per matched seed; with independent
        # seeds it is ~1/p.  Allow generous slack; mostly a smoke check
        # that collisions are *rare*.
        assert collisions / trials < 0.01


class TestRowMatrix:
    def test_row_matrix_matches_flattened(self, rng):
        n = 5
        family = LinearHashFamily(m=n * n, p=100003)
        graph = gnp_random_graph(n, 0.5, rng)
        seed = family.sample_seed(rng)
        for v in graph.vertices:
            row = graph.closed_row(v)
            direct = family.hash_row_matrix(seed, n, v, row)
            flat = [0] * (n * n)
            for u in range(n):
                flat[v * n + u] = (row >> u) & 1
            assert direct == family.hash_vector(seed, flat)

    def test_sum_of_rows_is_matrix_hash(self, rng):
        """Linearity in action: Σ_v h([v, N(v)]) == h(Σ_v [v, N(v)])."""
        n = 6
        p = 100003
        family = LinearHashFamily(m=n * n, p=p)
        graph = cycle_graph(n)
        seed = family.sample_seed(rng)
        per_row = sum(family.hash_row_matrix(seed, n, v, graph.closed_row(v))
                      for v in graph.vertices) % p
        assert per_row == family.hash_matrix_sum(
            seed, graph_matrix_sum(graph, p))

    def test_mapped_matrix_hash_via_rows(self, rng):
        from repro.hashing import image_bits
        n = 6
        p = 100003
        family = LinearHashFamily(m=n * n, p=p)
        graph = path_graph(n)
        rho = [1, 0, 3, 2, 5, 4]
        seed = family.sample_seed(rng)
        per_row = sum(
            family.hash_row_matrix(
                seed, n, rho[v], image_bits(graph.closed_row(v), rho, n))
            for v in graph.vertices) % p
        assert per_row == family.hash_matrix_sum(
            seed, mapped_matrix_sum(graph, rho, p))

    def test_row_matrix_validations(self):
        family = LinearHashFamily(m=16, p=101)
        with pytest.raises(ValueError):
            family.hash_row_matrix(3, 5, 0, 1)   # 25 > 16
        with pytest.raises(ValueError):
            family.hash_row_matrix(3, 4, 4, 1)   # row index out of range
        with pytest.raises(ValueError):
            family.hash_row_matrix(3, 4, 0, 1 << 4)  # column overflow

    @settings(max_examples=80, deadline=None)
    @given(p=_PRIMES, data=st.data())
    def test_matches_pow_oracle(self, p, data):
        # Calls interleave several seeds, and several n under one
        # (p, seed), so any per-seed table reuse is exercised across
        # switches as well as repeats.
        ns = data.draw(st.lists(st.integers(min_value=1, max_value=40),
                                min_size=1, max_size=3))
        seeds = data.draw(st.lists(st.integers(min_value=0,
                                               max_value=p - 1),
                                   min_size=1, max_size=4))
        family = LinearHashFamily(m=max(ns) ** 2, p=p)
        for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
            n = data.draw(st.sampled_from(ns))
            seed = data.draw(st.sampled_from(seeds))
            i = data.draw(st.integers(min_value=0, max_value=n - 1))
            row = data.draw(st.integers(min_value=0,
                                        max_value=(1 << n) - 1))
            got = family.hash_row_matrix(seed, n, i, row)
            assert type(got) is int
            assert got == _pow_row_hash(family, seed, n, i, row)

    @pytest.mark.parametrize("args, error", [
        ((3.0, 5, 2, 0b10110), TypeError),
        ((-1, 5, 2, 0b10110), ValueError),
        ((1009, 5, 2, 0b10110), ValueError),
        ((3, 5, 2.0, 0b10110), TypeError),
        ((3, 5, 2, 1 << 5), ValueError),
        ((3, 5, 5, 1), ValueError),
        ((3, 6, 0, 1), ValueError),
    ], ids=["float-seed", "negative-seed", "seed-p", "float-row-index",
            "bit-at-n", "row-index-n", "n-squared-above-m"])
    def test_errors_match_pow_oracle(self, args, error):
        family = LinearHashFamily(m=25, p=1009)
        with pytest.raises(error):
            _pow_row_hash(family, *args)
        with pytest.raises(error):
            family.hash_row_matrix(*args)

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_numpy_integer_seed_rejected(self):
        import numpy as np
        family = LinearHashFamily(m=25, p=1009)
        with pytest.raises(TypeError):
            family.hash_row_matrix(np.int64(3), 5, 2, 0b10110)
        # A numpy seed equal to a cached int seed must not be served.
        family.hash_row_matrix(3, 5, 2, 0b10110)
        with pytest.raises(TypeError):
            family.hash_row_matrix(np.int64(3), 5, 2, 0b10110)

    def test_float_seed_does_not_poison_int_seed(self):
        # 3.0 == 3 and both hash alike: a rejected float seed must leave
        # nothing behind that the int seed could be answered from.
        family = LinearHashFamily(m=25, p=1009)
        with pytest.raises(TypeError):
            family.hash_row_matrix(3.0, 5, 2, 0b10110)
        got = family.hash_row_matrix(3, 5, 2, 0b10110)
        assert type(got) is int
        assert got == _pow_row_hash(family, 3, 5, 2, 0b10110)

    def test_matrix_modulus_mismatch(self):
        family = LinearHashFamily(m=16, p=101)
        from repro.hashing import MatrixSum
        with pytest.raises(ValueError):
            family.hash_matrix_sum(3, MatrixSum(4, 103))

    def test_add_reduces_mod_p(self, family):
        assert family.add(1000, 10) == (1010) % 1009


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestBatchTables:
    """The numpy power tables against sequential python tables, at a
    prime on each ``mulmod`` branch (direct below 2³¹, split limbs up
    to the 41-bit ceiling) and for every count up to 70, so tables of
    non-power-of-two width are covered."""

    PRIMES = ((1 << 31) - 1,                  # 31 bits: direct products
              next_prime(10 * 1024 ** 3),     # 34 bits: split limbs
              next_prime((1 << 41) - 10 ** 6))  # 41 bits: the ceiling

    def _seeds(self, p):
        rng = random.Random(p)
        return [0, 1, 2, p - 1] + [rng.randrange(p) for _ in range(4)]

    @pytest.mark.parametrize("p", PRIMES)
    def test_power_table_batch_matches_sequential(self, p):
        assert p.bit_length() in (31, 34, 41)
        family = LinearHashFamily(m=70 * 70, p=p)
        seeds = self._seeds(p)
        for count in range(71):
            got = family.power_table_batch(seeds, count)
            assert got.shape == (len(seeds), count)
            for t, seed in enumerate(seeds):
                expect, acc = [], 1
                for _ in range(count):
                    acc = acc * seed % p
                    expect.append(acc)
                assert [int(x) for x in got[t]] == expect

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("stride", [1, 5, 64])
    def test_stride_power_batch_matches_sequential(self, p, stride):
        family = LinearHashFamily(m=70 * 70, p=p)
        seeds = self._seeds(p)
        for count in range(71):
            got = family.stride_power_batch(seeds, stride, count)
            assert got.shape == (len(seeds), count)
            for t, seed in enumerate(seeds):
                step = pow(seed, stride, p)
                expect, acc = [], 1 % p
                for _ in range(count):
                    expect.append(acc)
                    acc = acc * step % p
                assert [int(x) for x in got[t]] == expect
