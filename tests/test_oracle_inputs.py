"""`numeric_rank` refuses non-finite entries; `schmidt` asks LAPACK only
for the vectors it keeps.

A NaN or infinite entry made the elimination's cutoff meaningless: an
infinite largest pivot ended it at rank 0, a NaN ran it to full rank.
The Schmidt form keeps at most min(m, n) vectors per side, so the
reduced SVD gives it everything; the full one asked for an n x n V^H.
"""

import tracemalloc

import numpy as np
import pytest

from entcheck import CoeffTensor, gen_product_state, gen_random_state
from entcheck.oracle import numeric_rank, schmidt


NON_FINITE = [np.inf, -np.inf, np.nan, complex(0, np.inf), complex(np.nan, 1),
              complex(np.inf, np.nan)]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_numeric_rank_refuses_non_finite_entries(bad):
    with pytest.raises(ValueError, match="must be finite"):
        numeric_rank([[bad, 1], [1, 1]])


def test_numeric_rank_still_counts_finite_ranks():
    assert numeric_rank([[1, 1], [1, 1]]) == 1
    assert numeric_rank([[2, 1], [1, 1]]) == 2
    with pytest.raises(ValueError, match="zero matrix"):
        numeric_rank([[0, 0], [0, 0]])


def _shapes():
    return [(m, n) for m in range(1, 8) for n in range(1, 8)]


def _kept_part_of_full_svd(a, tol_rank=1e-10):
    u, s, vh = np.linalg.svd(a)
    keep = max(int(np.count_nonzero(s > tol_rank * s[0])), 1)
    return s[:keep], u[:, :keep].T, vh[:keep]


@pytest.mark.parametrize("shape", _shapes(), ids=lambda s: f"{s[0]}x{s[1]}")
def test_schmidt_matches_the_full_svds_kept_part(shape):
    for seed in range(4):
        make = gen_product_state if seed % 2 else gen_random_state
        t = make(shape, seed)
        form = schmidt(t)
        values, left, right = _kept_part_of_full_svd(t.array)
        assert form.values.tobytes() == values.tobytes()
        assert form.left_vectors.tobytes() == left.tobytes()
        if shape[0] >= shape[1]:
            assert form.right_vectors.tobytes() == right.tobytes()
        else:
            # LAPACK takes another path for the reduced V^H of a wide
            # matrix; the rows agree to rounding
            atol = 8 * np.finfo(float).eps
            np.testing.assert_allclose(form.right_vectors, right, rtol=0, atol=atol)


def test_schmidt_of_a_wide_product_stays_small():
    t = gen_product_state((2, 2048), 1)
    tracemalloc.start()
    try:
        form = schmidt(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert form.rank == 1
    assert peak <= 1e6
    np.testing.assert_allclose(form.matrix(), t.array, rtol=0, atol=1e-12)


def test_schmidt_of_entangled_matrix_rebuilds_it():
    t = CoeffTensor([[1, 0, 0], [0, 2j, 0]])
    form = schmidt(t)
    assert form.rank == 2
    np.testing.assert_allclose(form.values, [2, 1])
    np.testing.assert_allclose(form.matrix(), t.array, atol=1e-15)
