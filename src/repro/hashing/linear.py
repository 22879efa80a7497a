"""The linear hash family of Theorem 3.2.

The family ``H = {h_s : s ∈ Z_p}`` hashes vectors ``x ∈ Z_p^m`` (in the
protocols, characteristic vectors in {0,1}^m with m = n²) to Z_p by
polynomial evaluation:

    h_s(x) = Σ_{j=1..m} x_j · s^j   (mod p).

Properties (both property-tested in ``tests/hashing``):

* **Linearity** — ``h_s(x + x') = h_s(x) + h_s(x')`` where the left
  sum is coordinate-wise mod p.  This is what lets the network hash the
  full adjacency matrix by hashing one row per node and adding the
  results up a spanning tree.
* **Collision bound** — for ``x ≠ x'`` (mod p, coordinate-wise),
  ``Pr_s[h_s(x) = h_s(x')] ≤ m/p``: the difference polynomial is a
  nonzero polynomial of degree ≤ m with zero constant term, so it has
  at most m roots among the p seeds.

Row-matrix inputs: a single-row matrix ``[i, r]`` viewed as a vector in
``{0,1}^{n²}`` (coordinate ``i·n + v`` holds ``r_v``) hashes to
``s^{i·n} · h_s(r)`` — no n²-length loop.  Both factors come from two
per-seed tables, the powers ``s¹…sⁿ`` and the row offsets ``s^{i·n}``,
built with 2n multiplications once per ``(p, seed, n)`` and kept in a
small per-process memo: every node of a trial hashes its rows under the
root's one challenge, so a row costs one lookup per set bit.
"""

from __future__ import annotations

import functools
import random
from itertools import accumulate, repeat
from typing import Sequence, Tuple

from .rowmatrix import MatrixSum


class LinearHashFamily:
    """The Theorem-3.2 family for m-coordinate vectors mod a prime p.

    ``seed_count == p``; drawing a random function costs ``⌈log₂ p⌉``
    random bits, which is the protocols' O(log n) / O(n log n) budget.
    """

    __slots__ = ("m", "p")

    def __init__(self, m: int, p: int) -> None:
        if m < 1:
            raise ValueError("dimension m must be positive")
        if p < 2:
            raise ValueError("modulus must be a prime >= 2")
        self.m = m
        self.p = p

    # -- seed management -------------------------------------------------

    @property
    def seed_count(self) -> int:
        """|H| = p."""
        return self.p

    @property
    def seed_bits(self) -> int:
        """Bits needed to name a seed: ⌈log₂ p⌉."""
        return max(1, (self.p - 1).bit_length())

    def sample_seed(self, rng: random.Random) -> int:
        """A uniform seed index in [0, p)."""
        return rng.randrange(self.p)

    @property
    def collision_bound(self) -> float:
        """The Theorem-3.2 guarantee ``m/p`` (may exceed 1 if p is tiny)."""
        return self.m / self.p

    # -- hashing ---------------------------------------------------------

    def hash_bits(self, seed: int, bits: int) -> int:
        """Hash a characteristic vector packed as an integer bitmask.

        Coordinate ``j`` (bit ``j`` of ``bits``) contributes ``s^(j+1)``.
        """
        self._check_seed(seed)
        acc = 0
        remaining = bits
        while remaining:
            low = remaining & -remaining
            j = low.bit_length() - 1
            if j >= self.m:
                raise ValueError(f"bit {j} outside dimension m={self.m}")
            acc = (acc + pow(seed, j + 1, self.p)) % self.p
            remaining ^= low
        return acc

    def power_table(self, seed: int) -> Sequence[int]:
        """``[s^1, s^2, ..., s^m] mod p`` — amortizes hashing many inputs
        under one seed (the GNI prover hashes |S| ≈ 2·n! encodings): a
        bitmask hashes to the sum of the entries at its set-bit
        positions, mod p."""
        self._check_seed(seed)
        table = [0] * self.m
        acc = 1
        for j in range(self.m):
            acc = acc * seed % self.p
            table[j] = acc
        return table

    def hash_vector(self, seed: int, coeffs: Sequence[int]) -> int:
        """Hash an arbitrary coefficient vector (Horner's rule).

        ``h_s(x) = Σ x_j s^(j+1) = s · (x_0 + s·(x_1 + ...))``.
        """
        self._check_seed(seed)
        if len(coeffs) > self.m:
            raise ValueError("vector longer than dimension m")
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * seed + c) % self.p
        return acc * seed % self.p

    def hash_row_matrix(self, seed: int, n: int, i: int, row_bits: int) -> int:
        """Hash the single-row matrix ``[i, row_bits]`` of an n×n matrix.

        The matrix is flattened to m = n² coordinates with coordinate
        ``i·n + v`` holding entry (i, v); requires ``m >= n²``.  The
        seed must be an ``int`` in ``[0, p)`` (``TypeError`` /
        ``ValueError`` otherwise, as from ``pow``).
        """
        if n * n > self.m:
            raise ValueError(f"matrix {n}x{n} does not fit dimension m={self.m}")
        if not 0 <= i < n:
            raise ValueError(f"row index {i} out of range")
        if row_bits >> n:
            raise ValueError("row has bits beyond column n")
        # Before the memo: 3.0 == 3 hash alike, so a float seed would
        # leave a float table for the int seed to be served from.
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, not {type(seed).__name__}")
        p = self.p
        if not 0 <= seed < p:
            raise ValueError(f"seed {seed} outside [0, {p})")
        powers, offsets = _row_tables(p, seed, n)
        # Walk the set bits inline: every node of every trial hashes
        # its rows here, so no position tuple is built per call.
        total = 0
        while row_bits:
            low = row_bits & -row_bits
            total += powers[low.bit_length() - 1]
            row_bits ^= low
        return offsets[i] * total % p

    # -- batched hashing (numpy trial kernels) ---------------------------
    #
    # The batch engine (:mod:`repro.core.kernels`) evaluates the family
    # over whole (trials, nodes) arrays at once.  numpy is imported
    # lazily through the kernels' import gate so this module keeps
    # working — and the scalar methods above stay the reference
    # implementation — on interpreters without it.  All array math is
    # exact int64 modular arithmetic (see ``kernels._np.mulmod``), so
    # batched and scalar results are equal as python ints, not merely
    # close.

    def power_table_batch(self, seeds, count: int):
        """``P[t, j] = seeds[t]^(j+1) mod p`` for ``j < count``.

        The batched :meth:`power_table` prefix: one column per power,
        one row per trial seed, filled by doubling.  ``count`` may be
        far below ``m`` — protocol kernels only need the first ``n``
        powers plus the stride powers from :meth:`stride_power_batch`.
        """
        from ..core.kernels._np import require_numpy
        np = require_numpy()
        if not 0 <= count <= self.m:
            raise ValueError(f"count {count} outside [0, m={self.m}]")
        seeds = np.asarray(seeds, dtype=np.int64)
        table = np.empty((seeds.shape[0], count), dtype=np.int64)
        if count:
            table[:, 0] = seeds % self.p
            _fill_powers(table, self.p)
        return table

    def stride_power_batch(self, seeds, stride: int, count: int):
        """``Q[t, v] = seeds[t]^(v * stride) mod p`` for ``v < count``.

        The row-offset factors of :meth:`hash_row_matrix` (``s^{i·n}``)
        for a whole trial batch: column 0 is all ones, and columns
        ``1..count-1`` are the powers of ``s^stride``, filled by
        doubling.
        """
        from ..core.kernels._np import powmod_column, require_numpy
        np = require_numpy()
        seeds = np.asarray(seeds, dtype=np.int64)
        table = np.empty((seeds.shape[0], count), dtype=np.int64)
        if count:
            table[:, 0] = 1 % self.p
        if count > 1:
            table[:, 1] = powmod_column(seeds, stride, self.p)
            _fill_powers(table[:, 1:], self.p)
        return table

    def row_tables_batch(self, seeds, n: int):
        """``(powers, strides)``: :meth:`power_table_batch` ``(seeds,
        n)`` and :meth:`stride_power_batch` ``(seeds, n, n)``, the
        tables the batched row hashes read for the rows of an n×n
        matrix.  Every row set hashed under the same seeds (a Sym
        kernel's two sides) reads one build.  Requires ``m >= n²`` and
        row sums that fit int64 (:meth:`_check_sum_headroom`).
        """
        if n * n > self.m:
            raise ValueError(
                f"matrix {n}x{n} does not fit dimension m={self.m}")
        self._check_sum_headroom(n)
        return (self.power_table_batch(seeds, n),
                self.stride_power_batch(seeds, n, n))

    def row_hash_batch(self, tables, row_indices, rows01):
        """Batched :meth:`hash_row_matrix` over a (trials, nodes) grid.

        ``tables`` is :meth:`row_tables_batch` ``(seeds, n)``.
        ``rows01`` is a 0/1 array of shape ``(nodes, n)`` whose row
        ``v`` is the characteristic vector the node hashes;
        ``row_indices[v]`` is its row position ``i`` in the n×n matrix.
        Returns ``H[t, v] = seeds[t]^{i·n} · Σ_u rows01[v, u] ·
        seeds[t]^{u+1} mod p`` — one fancy-indexed matmul for the whole
        batch.  Row sums stay below 2⁶² (n < 2²¹ terms under a < 2⁴¹
        modulus), so the accumulation is exact.
        """
        from ..core.kernels._np import mulmod, require_numpy
        np = require_numpy()
        powers, strides = tables
        rows01 = np.asarray(rows01, dtype=np.int64)
        sums = powers @ rows01.T % self.p
        row_indices = np.asarray(row_indices, dtype=np.int64)
        return mulmod(strides[:, row_indices], sums, self.p)

    def row_hash_batch_csr(self, tables, row_indices, indptr, indices):
        """Sparse :meth:`row_hash_batch`: rows as CSR index lists.

        ``(indptr, indices)`` describe each node's characteristic
        vector as the column indices of its set bits (CSR over the
        ``(nodes, n)`` 0/1 matrix): row ``v`` holds the columns
        ``indices[indptr[v]:indptr[v+1]]``.  Returns the same
        ``H[t, v]`` integers as the dense form — a segmented gather-sum
        (``np.add.reduceat``) replaces the dense matmul, so work and
        memory are O(trials · nnz) instead of O(trials · nodes · n).
        Rows must be non-empty (closed neighborhoods always are;
        ``reduceat`` does not represent empty segments).
        """
        from ..core.kernels._np import mulmod, require_numpy
        np = require_numpy()
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.shape[0] < 2 or (indptr[1:] <= indptr[:-1]).any():
            raise ValueError("CSR rows must be non-empty and ordered")
        powers, strides = tables
        sums = np.add.reduceat(powers[:, indices], indptr[:-1],
                               axis=1) % self.p
        row_indices = np.asarray(row_indices, dtype=np.int64)
        return mulmod(strides[:, row_indices], sums, self.p)

    def _check_sum_headroom(self, n: int) -> None:
        """Refuse batched row sums that could overflow int64.

        A row sum accumulates up to ``n`` unreduced powers below ``p``;
        ``bits(n) + bits(p-1) <= 62`` keeps the total below 2⁶³ with a
        sign bit to spare.  Raises the same ``UnsupportedModulus`` the
        kernels use, so callers fall back to the exact python path
        instead of silently wrapping.
        """
        from .primes import UnsupportedModulus
        if n.bit_length() + max(self.p - 1, 1).bit_length() > 62:
            raise UnsupportedModulus(
                f"batched row sums of {n} terms under modulus {self.p} "
                f"({self.p.bit_length()} bits) may overflow int64; use "
                f"the python engine")

    def hash_matrix_sum(self, seed: int, matrix: MatrixSum) -> int:
        """Hash a full ``MatrixSum`` (reference implementation for tests).

        Equals the sum of ``hash_row_matrix`` over the constituent rows
        by linearity; the protocols use the per-row form, tests compare
        both.
        """
        if matrix.p != self.p:
            raise ValueError("matrix modulus differs from hash modulus")
        flat = [entry for row in matrix.rows for entry in row]
        return self.hash_vector(seed, flat)

    def add(self, *values: int) -> int:
        """Sum hash values in the output group Z_p."""
        return sum(values) % self.p

    def _check_seed(self, seed: int) -> None:
        if not 0 <= seed < self.p:
            raise ValueError(f"seed {seed} outside [0, {self.p})")


@functools.lru_cache(maxsize=4)
def _row_tables(p: int, seed: int, n: int
                ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``powers[u] = s^(u+1)`` and ``offsets[i] = s^(i·n)`` mod p for
    ``u, i < n``: 2n products, memoized per ``(p, seed, n)`` because a
    trial hashes all its rows under one seed (at most 4 × 2n ints)."""
    powers = tuple(accumulate(repeat(seed, n), lambda a, s: a * s % p))
    offsets = tuple(accumulate(repeat(powers[-1], n - 1),
                               lambda a, s: a * s % p, initial=1))
    return powers, offsets


def _fill_powers(table, p: int) -> None:
    """Fill ``table[:, j] = table[:, 0]^(j+1) mod p`` by doubling: the
    filled columns ``[0, k)`` times column ``k-1`` fill ``[k, 2k)``, so
    ⌈log₂ count⌉ exact ``mulmod`` products (column 0 must be reduced)."""
    from ..core.kernels._np import mulmod
    count = table.shape[1]
    filled = 1
    while filled < count:
        width = min(filled, count - filled)
        table[:, filled:filled + width] = mulmod(
            table[:, :width], table[:, filled - 1:filled], p)
        filled += width


def collision_seed_count(family: LinearHashFamily,
                         coeffs_a: Sequence[int],
                         coeffs_b: Sequence[int]) -> int:
    """Exactly count seeds with ``h_s(a) = h_s(b)`` (brute force over p).

    Used by tests and the soundness experiments with *small* p to check
    the ≤ m/p collision law exactly.
    """
    return sum(1 for s in range(family.p)
               if family.hash_vector(s, coeffs_a)
               == family.hash_vector(s, coeffs_b))
