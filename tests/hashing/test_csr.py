"""CSR sparse row hashing: exact parity with the dense batch path."""

import random

import pytest

from repro.core.kernels import numpy_available
from repro.hashing import LinearHashFamily, next_prime

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="numpy not installed")


def _random_rows(rng, nodes, n):
    """Non-empty sorted index rows plus the matching dense 0/1 rows."""
    rows = [sorted(rng.sample(range(n), rng.randint(1, n)))
            for _ in range(nodes)]
    dense = [[1 if u in set(members) else 0 for u in range(n)]
             for members in rows]
    indptr = [0]
    indices = []
    for members in rows:
        indices.extend(members)
        indptr.append(len(indices))
    return dense, indptr, indices


class TestCSRParity:
    @pytest.mark.parametrize("seed", [0, 7, 2018])
    def test_same_integers_as_dense(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        nodes = rng.randint(1, n)
        family = LinearHashFamily(m=n * n, p=next_prime(10 * n ** 3))
        dense, indptr, indices = _random_rows(rng, nodes, n)
        row_indices = [rng.randrange(n) for _ in range(nodes)]
        seeds = [family.sample_seed(rng) for _ in range(4)]
        tables = family.row_tables_batch(seeds, n)
        got_dense = family.row_hash_batch(tables, row_indices, dense)
        got_csr = family.row_hash_batch_csr(tables, row_indices,
                                            indptr, indices)
        assert (got_dense == got_csr).all()

    def test_matches_scalar_reference(self):
        # Both batch forms must equal hash_row_matrix bit for bit.
        rng = random.Random(3)
        n = 6
        family = LinearHashFamily(m=n * n, p=next_prime(10 * n ** 3))
        dense, indptr, indices = _random_rows(rng, n, n)
        row_indices = list(range(n))
        seeds = [family.sample_seed(rng) for _ in range(3)]
        got = family.row_hash_batch_csr(family.row_tables_batch(seeds, n),
                                        row_indices, indptr, indices)
        for t, seed in enumerate(seeds):
            for v in range(n):
                bits = sum(b << u for u, b in enumerate(dense[v]))
                expect = family.hash_row_matrix(seed, n, row_indices[v],
                                                bits)
                assert got[t, v] == expect

    @pytest.mark.parametrize("seed", [1, 11, 2018])
    def test_shared_tables_equal_two_separate_calls(self, seed):
        """The Sym kernels' two sides (rows at their own index, and the
        image rows at ρ's) read one ``row_tables_batch`` build; each
        side equals a call on its own tables and the scalar hash."""
        import numpy as np
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        family = LinearHashFamily(m=n * n, p=next_prime(10 * n ** 3))
        seeds = [family.sample_seed(rng) for _ in range(5)]
        shared = family.row_tables_batch(seeds, n)
        rho = list(range(n))
        rng.shuffle(rho)
        dense, indptr, indices = _random_rows(rng, n, n)
        image = [sorted(rho[u] for u in indices[indptr[v]:indptr[v + 1]])
                 for v in range(n)]
        image_indices = [u for members in image for u in members]
        image_dense = [[1 if u in members else 0 for u in range(n)]
                       for members in image]
        for row_indices, rows, csr_indices in (
                (list(range(n)), dense, indices),
                (rho, image_dense, image_indices)):
            got = family.row_hash_batch_csr(shared, row_indices, indptr,
                                            csr_indices)
            alone = family.row_tables_batch(seeds, n)
            assert np.array_equal(got, family.row_hash_batch_csr(
                alone, row_indices, indptr, csr_indices))
            assert np.array_equal(got, family.row_hash_batch(
                shared, row_indices, rows))
            for t, s in enumerate(seeds):
                for v in range(n):
                    bits = sum(b << u for u, b in enumerate(rows[v]))
                    assert got[t, v] == family.hash_row_matrix(
                        s, n, row_indices[v], bits)

    def test_tables_refuse_matrices_past_the_dimension(self):
        family = LinearHashFamily(m=8, p=next_prime(1000))
        with pytest.raises(ValueError, match="does not fit"):
            family.row_tables_batch([3], 3)

    def test_empty_rows_rejected(self):
        family = LinearHashFamily(m=9, p=next_prime(1000))
        with pytest.raises(ValueError, match="non-empty"):
            family.row_hash_batch_csr(family.row_tables_batch([3], 3),
                                      [0, 1], [0, 1, 1], [0])


class TestContextCSR:
    def test_closed_adjacency_csr_matches_dense(self):
        import numpy as np
        from repro import Instance, InstanceContext
        from repro.graphs import cycle_graph
        context = InstanceContext(Instance(cycle_graph(9)))
        indptr, indices = context.closed_adjacency_csr()
        dense = context.closed_adjacency()
        for v in range(9):
            members = indices[indptr[v]:indptr[v + 1]]
            assert sorted(members) == list(members)
            assert (np.flatnonzero(dense[v]) == members).all()
