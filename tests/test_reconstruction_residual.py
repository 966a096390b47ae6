"""The slab-wise reconstruction residual of factor finalisation against
the full-size formula it replaced, and its memory bound."""

import tracemalloc

import numpy as np
import pytest

from entcheck import gen_product_state
from entcheck.pipeline import (
    _SLAB,
    _oracle_factor_extraction,
    _reconstruction_residual,
    normalize_factors,
)

SHAPES = [(2,) * r for r in range(2, 21)] + [
    (1024, 1024),
    (3, 5, 7, 11, 13),
    (300, 7, 40),
    (2, 3 * _SLAB),
    (7, 1, 3, 1, 5, 1, 600),
]


@pytest.mark.parametrize("dims", SHAPES, ids=lambda d: "x".join(map(str, d)))
def test_residual_equals_full_formula(dims):
    t = gen_product_state(dims, 11)
    normalized = normalize_factors(_oracle_factor_extraction(t))
    full = float(np.abs(normalized.outer() - t.array).max())
    assert _reconstruction_residual(normalized, t.array) == full


def test_residual_peak_is_a_fraction_of_the_input():
    t = gen_product_state((2,) * 20, 5)
    normalized = normalize_factors(_oracle_factor_extraction(t))
    tracemalloc.start()
    try:
        _reconstruction_residual(normalized, t.array)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * t.array.nbytes
