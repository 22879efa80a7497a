"""GNI for *general* graphs: the automorphism-compensated protocol.

The base protocol (:mod:`repro.protocols.gni`) follows the paper's
Section 4 in restricting attention to asymmetric inputs: for symmetric
graphs the orbit ``{σ(G_b)}`` has only ``n!/|Aut(G_b)|`` members, the
set-size gap shrinks, and the Goldwasser–Sipser estimation loses its
teeth (the ablation in ``benchmarks/bench_gni_general.py`` measures
exactly this collapse).

The paper points at the classical fix from [15]: count *pairs* instead
of graphs —

    S = { (H, α) : H ≅ G_b for some b, α ∈ Aut(H) }.

For every graph, symmetric or not, each ``b`` contributes exactly
``n!`` pairs (``n!/|Aut|`` graphs × ``|Aut|`` automorphisms each), so
``|S| = 2·n!`` iff ``G₀ ≇ G₁`` and ``n!`` otherwise — the clean gap is
restored.  The paper defers the distributed details to its full
version ("to solve the unrestricted GNI problem, we utilize the dAM
protocol for Symmetry constructed in Section 3.2"); this module works
them out:

* the prover's claim per repetition becomes ``(b, σ, α)`` with the
  pair encoded as the ``n²``-bit matrix of ``H = σ(G_b)`` followed by
  an ``n·⌈log n⌉``-bit block for α; the ε-API hash runs over the
  extended domain, with the α-block contributed by the root (α is
  broadcast, so the root can hash it as part of its own term);
* ``α ∈ Aut(H)`` is verified distributedly with exactly Protocol 2's
  machinery — and this is where Section 3.2 enters, as the paper
  says: ``α ∈ Aut(σ(G_b))`` iff ``τ = σ⁻¹ ∘ α ∘ σ ∈ Aut(G_b)``
  (every node computes τ locally from the broadcast tables), which the
  nodes check by hash-comparing ``Σ[v, N_b(v)]`` against
  ``Σ[τ(v), τ(N_b(v))]`` up the spanning tree.  The prover chooses α
  *after* seeing the seed, so the check needs Protocol 2's union-bound
  prime; we widen it to ``[10³·n^{n+2}, 10⁴·n^{n+2}]`` so the cheat
  probability (≤ n^n · n²/p₂ ≤ 10⁻³) is negligible against the GS gap
  rather than merely < 1/10.

Cost stays Θ(n log n) per repetition: the α and σ tables and the p₂
hash values are all Θ(n log n)-bit objects.  Everything else — rounds,
challenges, echo pinning, the aggregate checks and the prover's search
— is the shared skeleton of :mod:`repro.protocols._gs`.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Optional, Sequence, Tuple

from ..core.model import LocalView, Prover, bits_for_identifier
from ..graphs.automorphism import all_automorphisms
from ..graphs.graph import Graph
from ..hashing.linear import LinearHashFamily
from ..hashing.primes import prime_in_range
from ..hashing.rowmatrix import image_bits
from ._gs import (FIELD_CLAIMS, FIELD_ECHO, FIELD_PARTIALS,  # noqa: F401
                  GS_ROOT, GSProtocol, GSProver, ROUND_A0, ROUND_A2,
                  ROUND_M1, ROUND_M3, gs_cost_declaration, relabeler)

FIELD_AUT_LEFT = "aut_left"
FIELD_AUT_RIGHT = "aut_right"

GNI_ROOT = GS_ROOT


def _alpha_block(alpha: Sequence[int], n: int, id_bits: int) -> int:
    """The α table packed as bits at offsets ``n² + u·id_bits``."""
    bits = 0
    base = n * n
    for u in range(n):
        bits |= alpha[u] << (base + u * id_bits)
    return bits


def _compose(outer: Sequence[int], inner: Sequence[int]) -> Tuple[int, ...]:
    """``(outer ∘ inner)(v) = outer[inner[v]]``."""
    return tuple(outer[x] for x in inner)


def _inverse(perm: Sequence[int]) -> Tuple[int, ...]:
    inv = [0] * len(perm)
    for i, x in enumerate(perm):
        inv[x] = i
    return tuple(inv)


def pair_catalog(g0: Graph, g1: Graph
                 ) -> Dict[int, Tuple[int, Tuple[int, ...], Tuple[int, ...]]]:
    """The compensated set S with witnesses: encoding ↦ (b, σ, α).

    Exactly ``2·n!`` entries when the graphs are non-isomorphic and
    ``n!`` when isomorphic, for *any* graphs (the whole point).

    σ and σ∘τ relabel ``G_b`` to the same matrix ``H``, and both give
    the α set ``Aut(H)``; so only the first σ to reach each ``H`` —
    from either graph — runs the τ loop, in enumeration order, and
    every later one would only repeat its entries.  That is at most
    ``2·n!`` α blocks instead of ``n!·(|Aut G₀| + |Aut G₁|)``.
    """
    n = g0.n
    id_bits = bits_for_identifier(n)
    # shifts[u][x]: the α block's bits for α(u) = x.
    shifts = tuple(tuple(x << (n * n + u * id_bits) for x in range(n))
                   for u in range(n))
    catalog: Dict[int, Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = {}
    matrices = set()
    for b, graph in ((0, g0), (1, g1)):
        auts = list(all_automorphisms(graph))
        encode = relabeler(graph, n)
        for sigma in itertools.permutations(range(n)):
            matrix_bits = encode(sigma)
            if matrix_bits in matrices:
                continue
            matrices.add(matrix_bits)
            at_sigma = sigma.__getitem__
            sigma_inv = _inverse(sigma)
            # α = σ∘τ∘σ⁻¹ sends σ(w) to σ(τ(w)): the block is the
            # shift table of σ(w) read at σ(τ(w)), for every w.
            shifts_at = tuple(map(shifts.__getitem__, sigma))
            for tau in auts:
                encoding = matrix_bits | sum(
                    map(tuple.__getitem__, shifts_at, map(at_sigma, tau)))
                if encoding not in catalog:
                    alpha = tuple(map(at_sigma,
                                      map(tau.__getitem__, sigma_inv)))
                    catalog[encoding] = (b, sigma, alpha)
    return catalog


class GeneralGNIProtocol(GSProtocol):
    """dAMAM GNI protocol valid for arbitrary (also symmetric) inputs.

    A claim is ``(b, σ, α)``; the seed ``s₂`` of the α-validity hash
    rides along with each challenge and echo.
    """

    name = "gni-general-damam"
    claim_tables = 2
    catalog_key = "gni_general.pair_catalog"

    def __init__(self, n: int, repetitions: int = 60,
                 q: Optional[int] = None, big_q: Optional[int] = None,
                 aut_prime: Optional[int] = None,
                 threshold: Optional[int] = None) -> None:
        self.id_bits = bits_for_identifier(n)
        # The α-validity hash: Protocol 2's family, widened by 100× so
        # the adaptive cheat probability is negligible (see module doc).
        base = n ** (n + 2)
        self.aut_family = LinearHashFamily(
            m=n * n,
            p=aut_prime if aut_prime is not None
            else prime_in_range(1000 * base, 10000 * base))
        self.seed_families = (self.aut_family,)
        # The ε-API hash runs over (matrix, α) encodings.
        super().__init__(n, repetitions, q, big_q, threshold,
                         set_size_yes=2 * math.factorial(n),
                         hash_bits=n * n + n * self.id_bits)

    @property
    def aut_cheat_bound(self) -> float:
        """Per-repetition probability of slipping a non-automorphism α
        past the union-bounded hash check (added to the NO side: a
        bogus pair must still hit ``h(x) = y``, so this is
        conservative)."""
        return (self.n ** self.n) * (self.n * self.n) / self.aut_family.p

    no_slack = aut_cheat_bound

    def catalog(self, g0: Graph, g1: Graph
                ) -> Dict[int, Tuple[int, Tuple[int, ...], Tuple[int, ...]]]:
        return pair_catalog(g0, g1)

    def aggregates(self) -> Tuple[Tuple[str, int], ...]:
        p2 = self.aut_family.p
        return super().aggregates() + ((FIELD_AUT_LEFT, p2),
                                       (FIELD_AUT_RIGHT, p2))

    def node_terms(self, v: int, row: int, c: int,
                   tables: Sequence[Tuple[int, ...]], s: int,
                   seeds: Sequence[int]) -> Dict[str, int]:
        sigma, alpha = tables
        (s2,) = seeds
        n = self.n
        # (i) ε-API aggregate over the (matrix, α) encoding: the root's
        # own term also covers the broadcast α block.
        term = self.hash.row_term(s, c, n, sigma[v],
                                  image_bits(row, sigma, n))
        if v == GNI_ROOT:
            block = _alpha_block(alpha, n, self.id_bits)
            term = (term + self.hash.inner.hash_bits(s, block)) \
                % self.hash.big_q
        # (ii) α ∈ Aut(σ(G_b)) ⟺ τ = σ⁻¹∘α∘σ ∈ Aut(G_b): Protocol 2's
        # two aggregates over the b-side rows.
        tau = _compose(_inverse(sigma), _compose(alpha, sigma))
        family = self.aut_family
        return {FIELD_PARTIALS: term,
                FIELD_AUT_LEFT: family.hash_row_matrix(s2, n, v, row),
                FIELD_AUT_RIGHT: family.hash_row_matrix(
                    s2, n, tau[v], image_bits(row, tau, n))}

    def root_accepts(self, view: LocalView, j: int, values: Dict[str, int],
                     a: int, b: int, y: int) -> bool:
        return (super().root_accepts(view, j, values, a, b, y)
                and values[FIELD_AUT_LEFT] == values[FIELD_AUT_RIGHT])

    def honest_prover(self) -> Prover:
        return GeneralGSProver(self)


class GeneralGSProver(GSProver):
    """Honest-and-optimal prover for the compensated protocol: claims a
    pair exactly when one hashes to the target (bogus claims are
    deterministically caught, up to the negligible α-check collision).
    """


# -- cost declaration -----------------------------------------------------

#: Same GS skeleton as ``gni-damam-8`` plus the automorphism-count
#: compensation fields (two more Θ(n log n) aggregates per batch) —
#: the asymptotic phase bill is unchanged.
COST_DECLARATIONS = (
    gs_cost_declaration(
        "gni-general-8", "GNI without asymmetry promise (8 repetitions)",
        "Section 4 (automorphism-compensated variant)",
        ("batch-1 eps-API seeds",
         "batch-1 echo, claims, aggregates + automorphism counts",
         "batch-2 eps-API seeds",
         "batch-2 echo, claims, aggregates + automorphism counts")),
)
