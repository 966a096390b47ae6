"""Comparing factorizations.

`LocalFactors` compares by value, as `CoeffTensor` does: equal dims and
equal vectors entry by entry, so `==` between two factorized verdicts
is a bool, not a numpy error.  `equivalence_scalar` bounds each of its
comparisons by eps_mag times the larger max modulus of the two vectors
compared, so it says the same for a pair of factorizations at every
scale: a true reciprocal rescaling is found, and a pair that differs in
one coordinate by a relative 1/3 is not, at 1e-12 as at 1 and 1e12.
"""

import numpy as np
import pytest

from entcheck import CoeffTensor, LocalFactors, equivalence_scalar, gen_product_state, sum_test

A = np.array([1, 2j, -3])
A_OTHER = np.array([1, 2j, -4])
B = np.array([0.5, -1j])


def test_equal_factors_compare_equal():
    assert LocalFactors(([1, 2], [3, 4])) == LocalFactors(([1, 2], [3, 4]))
    assert LocalFactors(([1, 2], [3, 4])) == LocalFactors((np.array([1.0, 2.0]), (3 + 0j, 4)))


def test_unequal_or_differently_shaped_factors_compare_unequal():
    pair = LocalFactors(([1, 2], [3, 4]))
    assert pair != LocalFactors(([1, 2], [3, 5]))
    assert pair != LocalFactors(([1, 2], [3, 4, 0]))
    assert pair != LocalFactors(([1, 2, 3], [4]))
    assert pair != LocalFactors(([1, 2], [3, 4], [1]))
    assert pair != ((1, 2), (3, 4))


def test_factors_are_not_hashable():
    with pytest.raises(TypeError):
        hash(LocalFactors(([1, 2], [3, 4])))


def test_factorized_verdicts_compare_by_value():
    t = gen_product_state((3, 4), 7)
    assert sum_test(t) == sum_test(CoeffTensor(t.array.copy()))
    assert sum_test(t) != sum_test(gen_product_state((3, 4), 8))


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_equivalent_pairs_are_found_at_every_scale(scale):
    f = LocalFactors((scale * A, B))
    lam = 2 - 0.5j
    assert equivalence_scalar(f, LocalFactors((lam * scale * A, B / lam))) == pytest.approx(lam)
    assert equivalence_scalar(f, f) == 1


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_inequivalent_pairs_are_refused_at_every_scale(scale):
    f = LocalFactors((scale * A, B))
    assert equivalence_scalar(f, LocalFactors((scale * A_OTHER, B))) is None
    assert equivalence_scalar(LocalFactors((A, scale * B)), LocalFactors((A, scale * B[::-1]))) is None


def test_a_non_finite_scalar_is_refused():
    f = LocalFactors(([1e-300, 1], [1, 1]))
    assert equivalence_scalar(f, LocalFactors(([1e300, 1], [1, 1]))) is None
