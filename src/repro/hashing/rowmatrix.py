"""The ``[i, r]`` row-matrix algebra of Section 3.1.1.

The paper represents the adjacency matrix of ``G`` as a sum of
single-row matrices, ``A_G = Σ_v [v, N(v)]``, and the "ρ-permuted"
matrix as ``Σ_v [ρ(v), ρ(N(v))]``, both with entries in Z_p.  The
protocols never materialize these sums (they hash rows and add hash
values), but the soundness analysis — and our tests of Lemma 3.1 —
reason about the sums directly, so this module implements them
exactly.

Vectors over the vertex set are packed integers: bit ``v`` of ``bits``
is coordinate ``v``.  Row sums, which can exceed 1 when ρ is not
injective, use dense per-row coefficient lists mod p.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..graphs.graph import Graph, bits_of_mask


def bits_to_coeffs(bits: int, n: int) -> Tuple[int, ...]:
    """Unpack an n-bit characteristic vector into 0/1 coefficients."""
    return tuple((bits >> v) & 1 for v in range(n))


def image_bits(bits: int, mapping: Sequence[int], n: int) -> int:
    """Characteristic vector of the *image set* ``mapping(S)``.

    ``S`` is given by ``bits``; coordinate ``w`` of the result is 1 iff
    some ``u ∈ S`` has ``mapping[u] = w``.  (Set semantics: multiple
    preimages still give 1 — this matches the paper's definition of
    ``ρ(S)`` as a characteristic vector.)  Only the set bits below
    ``n`` are visited, so a row costs O(popcount), not O(n).
    """
    out = 0
    for u in bits_of_mask(bits & ((1 << n) - 1)):
        out |= 1 << mapping[u]
    return out


class MatrixSum:
    """An ``n × n`` matrix over Z_p accumulated as a sum of rows.

    ``add_row(i, bits)`` adds the single-row matrix ``[i, r]`` where
    ``r`` is the characteristic vector packed in ``bits``.
    """

    __slots__ = ("n", "p", "rows")

    def __init__(self, n: int, p: int) -> None:
        if p < 2:
            raise ValueError("modulus must be at least 2")
        self.n = n
        self.p = p
        self.rows: List[List[int]] = [[0] * n for _ in range(n)]

    def add_row(self, i: int, bits: int) -> None:
        """Add ``[i, bits]`` to the sum (entries mod p)."""
        if not 0 <= i < self.n:
            raise ValueError(f"row index {i} out of range")
        row = self.rows[i]
        for v in range(self.n):
            if (bits >> v) & 1:
                row[v] = (row[v] + 1) % self.p

    def entries(self) -> Tuple[Tuple[int, ...], ...]:
        """The matrix as a tuple of row tuples."""
        return tuple(tuple(row) for row in self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixSum):
            return NotImplemented
        return (self.n, self.p, self.rows) == (other.n, other.p, other.rows)

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.n, self.p, self.entries()))

    def __repr__(self) -> str:
        return f"MatrixSum(n={self.n}, p={self.p})"


def graph_matrix_sum(graph: Graph, p: int) -> MatrixSum:
    """``Σ_v [v, N(v)]`` — the self-looped adjacency matrix over Z_p."""
    acc = MatrixSum(graph.n, p)
    for v in graph.vertices:
        acc.add_row(v, graph.closed_row(v))
    return acc


def mapped_matrix_sum(graph: Graph, mapping: Sequence[int],
                      p: int) -> MatrixSum:
    """``Σ_v [ρ(v), ρ(N(v))]`` for an arbitrary mapping ρ (Lemma 3.1).

    ρ need not be a permutation; when it is not, rows collide and add.
    """
    n = graph.n
    if len(mapping) != n:
        raise ValueError("mapping length must equal vertex count")
    acc = MatrixSum(n, p)
    for v in graph.vertices:
        acc.add_row(mapping[v], image_bits(graph.closed_row(v), mapping, n))
    return acc


def matrix_sums_equal(graph: Graph, mapping: Sequence[int], p: int) -> bool:
    """Whether ``Σ_v [v, N(v)] = Σ_v [ρ(v), ρ(N(v))]`` over Z_p.

    By Lemma 3.1 this holds iff ρ is an automorphism of the graph
    (given entries stay below p, which they do for p > n).
    """
    return graph_matrix_sum(graph, p) == mapped_matrix_sum(graph, mapping, p)
