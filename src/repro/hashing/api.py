"""The distributed ε-almost pairwise-independent hash (Section 4).

The Goldwasser–Sipser set-size estimation at the heart of the GNI
protocol needs a hash ``h : {0,1}^{n²} → [q]`` with, for ``x ≠ x'``:

  (1)  Pr[h(x) = y ∧ h(x') = y'] ≤ (1+ε)/q²           (ε-API axiom)
  (2)  Pr[h(x) = y] = (1 ± δ)/q                        (near-uniformity)

and, critically, a *distributed* structure: the seed is contributed in
small parts by the network nodes, and a claimed hash value can be
verified up a spanning tree with the prover's assistance.

The paper's concrete construction is in its full version; we build one
with the same interface and guarantees (see DESIGN.md §2.3):

    h(x)  =  g_{a,b}( H_s(x) + C )   where   C = Σ_v c_v (mod Q),
    g_{a,b}(z) = ((a·z + b) mod Q) mod q,

with ``H_s`` the Theorem-3.2 linear row hash into F_Q (shared seed
``s``, aggregatable row-by-row up the spanning tree exactly like
Protocol 1), ``c_v`` a private additive offset held by node ``v``, and
``(a, b, y)`` held by the root.  Why this satisfies the axioms:

* **(2)**: ``C`` is uniform on F_Q and independent of everything else,
  so ``H_s(x) + C`` is uniform; pushing a uniform value through
  ``g_{a,b}`` and the mod-q truncation gives each target probability
  in ``[⌊Q/q⌋/Q, ⌈Q/q⌉/Q]`` — i.e. δ ≤ q/Q.
* **(1)**: the offsets cancel in ``h(x) − h(x')``-type events.  If
  ``H_s(x) ≠ H_s(x')``, the affine map ``(a, b) ↦ (a z₁ + b, a z₂ + b)``
  is a bijection of F_Q², making the pre-truncation pair exactly
  uniform — probability ≤ (⌈Q/q⌉/Q)².  The collision case
  ``H_s(x) = H_s(x')`` happens with probability ≤ m/Q (Theorem 3.2,
  m = n²) and then contributes only to ``y = y'``.  Altogether
  ε ≤ (m + 2)·q/Q + O((q/Q)²).

Choosing ``Q ≥ 100·q·(m+2)`` (prime) gives ε ≤ ~0.02 and δ ≤ 10⁻⁴·…,
small enough for the GS gap.  Seed sizes: each node holds
``c_v`` (log Q bits); the root additionally holds ``s, a, b``
(3·log Q bits) and the target ``y`` — everything O(n log n) for the
GNI parameters (q ≈ 4·n!), matching the paper's budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .linear import LinearHashFamily
from .primes import next_prime


@dataclass(frozen=True)
class APIChallenge:
    """One full challenge for one GS repetition.

    ``s, a, b`` and the target ``y`` are the root's contribution;
    ``offsets[v]`` is node v's private part ``c_v``.
    """

    s: int
    a: int
    b: int
    y: int
    offsets: tuple

    @property
    def offset_total(self) -> int:
        return sum(self.offsets)


class DistributedAPIHash:
    """ε-API hash ``{0,1}^m → [q]`` with a distributed, verifiable seed."""

    def __init__(self, m: int, q: int, big_q: Optional[int] = None) -> None:
        if m < 1:
            raise ValueError("input dimension must be positive")
        if q < 2:
            raise ValueError("output modulus must be >= 2")
        self.m = m
        self.q = q
        self.big_q = big_q if big_q is not None else next_prime(
            100 * q * (m + 2))
        if self.big_q <= q:
            raise ValueError("inner field must be larger than output range")
        self.inner = LinearHashFamily(m=m, p=self.big_q)

    # -- guarantees --------------------------------------------------------

    @property
    def epsilon(self) -> float:
        """Upper bound on the axiom-(1) excess ε (see module docstring)."""
        ratio = self.q / self.big_q
        return (self.m + 2) * ratio + 3 * ratio * ratio

    @property
    def delta(self) -> float:
        """Upper bound on the axiom-(2) deviation δ."""
        return self.q / self.big_q

    # -- seeds ---------------------------------------------------------------

    def sample_node_offset(self, rng: random.Random) -> int:
        """One node's private seed part ``c_v``."""
        return rng.randrange(self.big_q)

    def sample_root_part(self, rng: random.Random) -> tuple:
        """The root's seed part ``(s, a, b)`` plus the GS target ``y``."""
        return (rng.randrange(self.big_q), rng.randrange(self.big_q),
                rng.randrange(self.big_q), rng.randrange(self.q))

    def sample_challenge(self, n_nodes: int,
                         rng: random.Random) -> APIChallenge:
        """A full challenge (root part + one offset per node)."""
        s, a, b, y = self.sample_root_part(rng)
        offsets = tuple(self.sample_node_offset(rng) for _ in range(n_nodes))
        return APIChallenge(s=s, a=a, b=b, y=y, offsets=offsets)

    @property
    def node_seed_bits(self) -> int:
        """Bits of one node's seed part."""
        return self.inner.seed_bits

    @property
    def root_seed_bits(self) -> int:
        """Extra bits of the root's part (s, a, b, y)."""
        return 3 * self.inner.seed_bits + max(1, (self.q - 1).bit_length())

    # -- hashing ---------------------------------------------------------------

    def row_term(self, s: int, c: int, n: int, row_index: int,
                 row_bits: int) -> int:
        """Node v's own contribution for an n×n matrix row it holds:
        ``s^{row_index·n} · poly_s(row_bits) + c  (mod Q)``.

        Summing these over all nodes (up the spanning tree) gives
        ``H_s(x) + C`` for the full matrix encoding ``x``.
        """
        return (self.inner.hash_row_matrix(s, n, row_index, row_bits)
                + c) % self.big_q

    def finalize(self, a: int, b: int, aggregate: int) -> int:
        """The root's step: ``g_{a,b}(aggregate) ∈ [q]``."""
        return ((a * aggregate + b) % self.big_q) % self.q

    def hash_encoding(self, challenge: APIChallenge, bits: int) -> int:
        """Hash a full m-bit encoding (prover-side / reference path).

        Equals the tree aggregation of :meth:`row_term` by linearity;
        tests check the two paths agree.
        """
        inner_value = (self.inner.hash_bits(challenge.s, bits)
                       + challenge.offset_total) % self.big_q
        return self.finalize(challenge.a, challenge.b, inner_value)

    def preimage_exists(self, challenge: APIChallenge,
                        entries: Iterable[Tuple[int, Sequence[int]]]
                        ) -> Optional[int]:
        """The prover's search: some ``x`` in the set with ``h(x) = y``.

        ``entries`` pairs each encoding of the set with the positions
        of its set bits.  Returns the first matching encoding in their
        order, or None.  The prover is computationally unbounded in the
        model; here we enumerate, with a per-challenge power table so
        each encoding costs one sum over its stored positions.
        """
        table = self.inner.power_table(challenge.s).__getitem__
        big_q, q, a, y = self.big_q, self.q, challenge.a, challenge.y
        # finalize(a, b, H + C) with the offset total C folded in once.
        shift = a * challenge.offset_total + challenge.b
        for encoding, positions in entries:
            if (a * sum(map(table, positions)) + shift) % big_q % q == y:
                return encoding
        return None


def gs_output_modulus(set_size_yes: int) -> int:
    """The GS output range: a prime just above ``2 · |S_yes|``.

    With ``|S| = set_size_yes`` on YES instances (2·n! for GNI) and
    half that on NO instances, the per-repetition acceptance
    probabilities land near 1/2 − 1/8 = 3/8 and 1/4 respectively.
    """
    if set_size_yes < 1:
        raise ValueError("set size must be positive")
    return next_prime(2 * set_size_yes)
