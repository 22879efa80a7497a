"""Tests for the distributed ε-API hash: both axioms measured, the
tree-aggregation path against the reference path, and the GS range
helper."""

import math
import random

import pytest

from repro.graphs import cycle_graph, path_graph
from repro.graphs.graph import bits_of_mask
from repro.hashing import (APIChallenge, DistributedAPIHash,
                           gs_output_modulus, image_bits, is_prime)


def _entries(encodings):
    """``preimage_exists`` input: each encoding with its set bits."""
    return [(bits, bits_of_mask(bits)) for bits in encodings]


@pytest.fixture
def small_hash():
    # Tiny parameters so exact enumeration over parts of the seed space
    # stays cheap: m=4 bits, q=7, Q chosen by the constructor.
    return DistributedAPIHash(m=4, q=7)


class TestConstruction:
    def test_big_q_is_prime_and_large(self, small_hash):
        assert is_prime(small_hash.big_q)
        assert small_hash.big_q >= 100 * 7 * (4 + 2)

    def test_epsilon_delta_small(self, small_hash):
        assert small_hash.epsilon <= 0.05
        assert small_hash.delta <= 0.01

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            DistributedAPIHash(m=0, q=7)
        with pytest.raises(ValueError):
            DistributedAPIHash(m=4, q=1)
        with pytest.raises(ValueError):
            DistributedAPIHash(m=4, q=100, big_q=7)

    def test_seed_bit_accounting(self, small_hash):
        assert small_hash.node_seed_bits == \
            (small_hash.big_q - 1).bit_length()
        assert small_hash.root_seed_bits == \
            3 * small_hash.node_seed_bits + 3  # log2(7) -> 3 bits


class TestHashing:
    def test_row_term_linearity(self, small_hash, rng):
        """Summing row terms equals hashing the whole encoding."""
        h = DistributedAPIHash(m=9, q=11)  # 3x3 matrices
        n = 3
        challenge = h.sample_challenge(n, rng)
        rows = [0b011, 0b111, 0b110]  # a closed adjacency matrix
        bits = sum(rows[v] << (v * n) for v in range(n))
        inner_total = sum(
            h.row_term(challenge.s, challenge.offsets[v], n, v, rows[v])
            for v in range(n)) % h.big_q
        assert h.finalize(challenge.a, challenge.b, inner_total) == \
            h.hash_encoding(challenge, bits)

    def test_hash_encoding_range(self, small_hash, rng):
        for _ in range(50):
            challenge = small_hash.sample_challenge(4, rng)
            bits = rng.randrange(16)
            assert 0 <= small_hash.hash_encoding(challenge, bits) < 7

    def test_preimage_exists_finds_member(self, small_hash, rng):
        encodings = _entries(range(16))  # the full 4-bit input space
        found_any = False
        for _ in range(30):
            challenge = small_hash.sample_challenge(4, rng)
            hit = small_hash.preimage_exists(challenge, encodings)
            if hit is not None:
                found_any = True
                assert small_hash.hash_encoding(challenge, hit) == challenge.y
        assert found_any

    def test_preimage_none_on_empty_set(self, small_hash, rng):
        challenge = small_hash.sample_challenge(4, rng)
        assert small_hash.preimage_exists(challenge, []) is None

    def test_offsets_shift_output(self):
        """The per-node offsets genuinely enter the hash value.

        With a = 1 and b = 0 the compressor is the identity-then-mod-q,
        so a +1 offset shift must move most outputs (an a that is a
        multiple of q could mask the shift, hence the pinned seed).
        """
        h = DistributedAPIHash(m=4, q=7)
        base = APIChallenge(s=3, a=1, b=0, y=0, offsets=(5, 9))
        shifted = APIChallenge(s=3, a=1, b=0, y=0, offsets=(6, 9))
        diff = sum(h.hash_encoding(base, x) != h.hash_encoding(shifted, x)
                   for x in range(16))
        assert diff > 0


class TestAxioms:
    def test_axiom2_near_uniformity(self, rng):
        """Pr[h(x) = y] = (1 ± δ)/q, measured by Monte Carlo."""
        h = DistributedAPIHash(m=4, q=5)
        x = 0b1010
        y = 3
        trials = 20000
        hits = sum(
            h.hash_encoding(h.sample_challenge(3, rng), x) == y
            for _ in range(trials))
        rate = hits / trials
        expected = 1 / 5
        # 4 sigma of Monte Carlo noise plus the delta allowance.
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(rate - expected) <= h.delta * expected + 4.5 * sigma

    def test_axiom1_pairwise(self, rng):
        """Pr[h(x1)=y1 ∧ h(x2)=y2] ≤ (1+ε)/q² with sampling slack."""
        h = DistributedAPIHash(m=4, q=5)
        x1, x2 = 0b0011, 0b1100
        y1, y2 = 1, 4
        trials = 30000
        hits = 0
        for _ in range(trials):
            challenge = h.sample_challenge(3, rng)
            if (h.hash_encoding(challenge, x1) == y1
                    and h.hash_encoding(challenge, x2) == y2):
                hits += 1
        rate = hits / trials
        bound = (1 + h.epsilon) / 25
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert rate <= bound + 4.5 * sigma

    def test_collision_rate_controlled(self, rng):
        """Pr[h(x1) = h(x2)] should be ~1/q, not inflated — the
        property pairwise independence buys over plain linearity."""
        h = DistributedAPIHash(m=6, q=11)
        x1, x2 = 0b101010, 0b010101
        trials = 20000
        hits = sum(
            (lambda c: h.hash_encoding(c, x1) == h.hash_encoding(c, x2))(
                h.sample_challenge(3, rng))
            for _ in range(trials))
        rate = hits / trials
        assert rate <= (1 + h.epsilon) / 11 + 4.5 * math.sqrt(
            (1 / 11) * (10 / 11) / trials)


class TestGSModulus:
    def test_prime_above_double(self):
        q = gs_output_modulus(1440)
        assert q >= 2880 and is_prime(q)

    def test_small_set(self):
        assert gs_output_modulus(1) >= 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gs_output_modulus(0)

    def test_gs_gap_shape(self, rng):
        """End-to-end: with |S_yes| = 2k and |S_no| = k in range q ≈ 4k,
        the preimage-existence probabilities must show the 3/8 vs 1/4
        Goldwasser–Sipser gap."""
        k = 60
        q = gs_output_modulus(2 * k)
        h = DistributedAPIHash(m=12, q=q)
        universe = rng.sample(range(1 << 12), 2 * k)
        s_yes = _entries(universe)
        s_no = s_yes[:k]
        trials = 2500
        yes_hits = no_hits = 0
        for _ in range(trials):
            challenge = h.sample_challenge(4, rng)
            if h.preimage_exists(challenge, s_yes) is not None:
                yes_hits += 1
            if h.preimage_exists(challenge, s_no) is not None:
                no_hits += 1
        p_yes = yes_hits / trials
        p_no = no_hits / trials
        assert p_yes > p_no + 0.08  # the GS gap, with Monte Carlo slack
        assert p_no < 0.30
        assert p_yes > 0.30


class TestExactAxioms:
    """The ε-API axioms verified by FULL enumeration of the seed space
    at tiny parameters (q=3, Q=7, one node): every probability is a
    rational with denominator 7⁴, compared against the analytic bounds
    exactly — no sampling noise anywhere."""

    @pytest.fixture(scope="class")
    def tiny(self):
        return DistributedAPIHash(m=2, q=3, big_q=7)

    def _enumerate(self, h, inputs):
        """Yield h(x) for every seed tuple, for each x in inputs."""
        for s in range(7):
            for a in range(7):
                for b in range(7):
                    for c in range(7):
                        challenge = APIChallenge(s=s, a=a, b=b, y=0,
                                                 offsets=(c,))
                        yield tuple(h.hash_encoding(challenge, x)
                                    for x in inputs)

    def test_axiom2_exact(self, tiny):
        from collections import Counter
        total = 7 ** 4
        for x in range(4):
            counts = Counter(v[0] for v in self._enumerate(tiny, [x]))
            for y in range(3):
                prob = counts.get(y, 0) / total
                assert abs(prob - 1 / 3) <= tiny.delta / 3 + 1e-12, (x, y)

    def test_axiom1_exact(self, tiny):
        from collections import Counter
        total = 7 ** 4
        bound = (1 + tiny.epsilon) / 9
        for x1 in range(4):
            for x2 in range(x1 + 1, 4):
                joint = Counter(self._enumerate(tiny, [x1, x2]))
                worst = max(joint.values()) / total
                assert worst <= bound + 1e-12, (x1, x2, worst, bound)
