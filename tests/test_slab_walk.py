"""The sum criteria, the sign-flip screen and the reconstruction residual
run on one slab walk (`core._slab_walk`).

With the default slab size every input of the differential corpus is a
single slab, so these tests shrink `core._SLAB` to cut the same inputs
into many slabs, and check:

- the corpus gives the same verdicts as the frozen references of
  `test_sum_kernel_equivalence.py`, and bit-identical witnesses,
  residuals and factors to a whole-array walk (one slab of everything);
- `sum_test` keeps its witness tiers across slabs: an exact
  contradiction in a late slab beats plain mismatches in earlier ones,
  and a zero entry or a zero row sum turns the early exit off;
- a random matrix is decided from its first slab;
- the sum tests' temporaries stay under half the input;
- verdicts at extreme global scales do not depend on the slab size.
"""

import tracemalloc

import numpy as np
import pytest

import entcheck.bipartite as bipartite
import entcheck.core as core
from entcheck import (
    CoeffTensor,
    Outcome,
    analyze,
    extract_local_factors,
    gen_random_state,
    magnitude_phase_test,
    multiparty_sum_test,
    sign_flip_recover,
    sum_test,
)
from entcheck.pipeline import _oracle_factor_extraction, _reconstruction_residual, normalize_factors
from test_sum_kernel_equivalence import (
    BIPARTITE,
    CORPUS,
    assert_same_verdict,
    ref_magnitude_phase_test,
    ref_multiparty_sum_test,
    ref_sign_flip_recover,
    ref_sum_test,
)

WHOLE = 1 << 40  # a slab size no test input reaches: one slab, the whole array


def with_slab(monkeypatch, size, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(core, "_SLAB", size)
        return fn(*args)


def assert_identical(a, b):
    """Same verdict, witness, residual and factors, bit for bit."""
    assert (a.outcome, a.decided_by, a.reason, a.witness) == (
        b.outcome,
        b.decided_by,
        b.reason,
        b.witness,
    )
    assert (a.factors is None) == (b.factors is None)
    if a.factors is not None:
        for u, v in zip(a.factors.vectors, b.factors.vectors):
            assert np.array_equal(u, v)


BIPARTITE_STAGES = [
    (sum_test, ref_sum_test),
    (sign_flip_recover, ref_sign_flip_recover),
    (magnitude_phase_test, ref_magnitude_phase_test),
]


@pytest.mark.parametrize("slab", [1, 7, 64])
@pytest.mark.parametrize("name", sorted(BIPARTITE))
def test_bipartite_corpus_in_slabs(monkeypatch, slab, name):
    t = BIPARTITE[name]
    for stage, ref in BIPARTITE_STAGES:
        sliced = with_slab(monkeypatch, slab, stage, t)
        assert_same_verdict(ref(t), sliced)
        assert_identical(with_slab(monkeypatch, WHOLE, stage, t), sliced)


def test_sum_test_factors_are_extract_local_factors_bit_for_bit():
    for t in BIPARTITE.values():
        verdict = sum_test(t)
        if verdict.is_factorized:
            for u, v in zip(verdict.factors.vectors, extract_local_factors(t).vectors):
                assert np.array_equal(u, v)


@pytest.mark.parametrize("slab", [1, 7, 64])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_multiparty_corpus_in_slabs(monkeypatch, slab, name):
    t = CORPUS[name]
    sliced = with_slab(monkeypatch, slab, multiparty_sum_test, t)
    assert_same_verdict(ref_multiparty_sum_test(t), sliced)
    assert_identical(with_slab(monkeypatch, WHOLE, multiparty_sum_test, t), sliced)


@pytest.mark.parametrize("slab", [1, 7, 64])
def test_reconstruction_residual_in_slabs(monkeypatch, slab):
    for name in ("EX1", "product-0", "product-7", "product-21", "zero-row-product-64"):
        t = CORPUS[name]
        normalized = normalize_factors(_oracle_factor_extraction(t))
        full = float(np.abs(normalized.outer() - t.array).max())
        assert with_slab(monkeypatch, slab, _reconstruction_residual, normalized, t.array) == full


@pytest.mark.parametrize("slab", [1, 7, 64, WHOLE])
@pytest.mark.parametrize("axis", [0, 1])
def test_sign_flip_screen_matches_full_size_formula(monkeypatch, slab, axis):
    rng = np.random.default_rng(30 + axis)
    for m, n in [(2, 2), (3, 9), (9, 3), (17, 5)]:
        c = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        sums = (c.sum(axis=1), c.sum(axis=0))
        full = np.abs(sums[1 - axis] - 2 * (c if axis == 0 else c.T)).max(axis=1)
        sliced = with_slab(monkeypatch, slab, bipartite._flipped_sum_max, c, sums, axis)
        assert np.array_equal(sliced, full)


# --- witness tiers across slabs ----------------------------------------------


def _random_matrix(seed, m=6, n=5):
    rng = np.random.default_rng(seed)
    # entries of magnitude above 1 keep the reference's old absolute
    # floors out of play
    return 10.0 * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))


def _sum_test_in_row_slabs(monkeypatch, c):
    """sum_test with one matrix row per slab, checked against the frozen
    reference and against one whole-array slab."""
    t = CoeffTensor(c)
    sliced = with_slab(monkeypatch, 1, sum_test, t)
    assert_same_verdict(ref_sum_test(t), sliced)
    assert_identical(with_slab(monkeypatch, WHOLE, sum_test, t), sliced)
    assert sliced.outcome is Outcome.ENTANGLED
    return sliced.witness.index


def test_tier_one_in_a_late_slab_beats_earlier_mismatches(monkeypatch):
    c = _random_matrix(1)
    c[4] -= c[4].mean()  # row 4 sums to zero: its entries are tier 1
    assert _sum_test_in_row_slabs(monkeypatch, c) == (4, 0)


def test_tier_two_in_a_late_slab_beats_earlier_mismatches(monkeypatch):
    c = _random_matrix(2)
    c[3, 2] = 0  # a zero entry with a nonzero sum product: tier 2
    assert _sum_test_in_row_slabs(monkeypatch, c) == (3, 2)


def test_late_tier_one_beats_an_earlier_tier_two(monkeypatch):
    c = _random_matrix(3)
    c[1, 3] = 0
    c[5] -= c[5].mean()
    assert _sum_test_in_row_slabs(monkeypatch, c) == (5, 0)


def test_zero_column_sum_falls_back_to_the_full_scan(monkeypatch):
    c = _random_matrix(4)
    c[:, 3] -= c[:, 3].mean()  # column 3 sums to zero: (0, 3) is tier 1
    assert _sum_test_in_row_slabs(monkeypatch, c) == (0, 3)


def test_plain_mismatch_is_the_first_violation(monkeypatch):
    assert _sum_test_in_row_slabs(monkeypatch, _random_matrix(5)) == (0, 0)


# --- early exit, memory ------------------------------------------------------


def count_slabs(monkeypatch, module):
    """Record the slabs each criterion walk (one with vectors) hands out."""
    walks = []
    original = module._slab_walk

    def counting(c, vectors=()):
        if vectors:
            walks.append(0)
        for item in original(c, vectors):
            if vectors:
                walks[-1] += 1
            yield item

    monkeypatch.setattr(module, "_slab_walk", counting)
    return walks


def test_random_matrix_is_decided_on_its_first_slab(monkeypatch):
    t = gen_random_state((1024, 1024), 3)
    walks = count_slabs(monkeypatch, bipartite)
    assert sum_test(t).is_entangled
    assert walks == [1]


def test_random_tensor_is_decided_on_its_first_slab(monkeypatch):
    t = gen_random_state((2,) * 20, 3)
    walks = count_slabs(monkeypatch, bipartite)
    assert multiparty_sum_test(t).is_entangled
    assert walks == [1]


def _peak(fn, t):
    tracemalloc.start()
    try:
        fn(t)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "fn, dims", [(sum_test, (1024, 1024)), (multiparty_sum_test, (2,) * 20)], ids=["sum", "multi"]
)
def test_sum_criteria_peak_under_half_the_input(fn, dims):
    rng = np.random.default_rng(8)
    vectors = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
    product = np.ones(1, dtype=complex)
    for v in vectors:
        product = np.multiply.outer(product, v)
    t = CoeffTensor(product.reshape(dims))
    assert fn(t).is_factorized  # a product is scanned to the end
    assert _peak(fn, t) <= 0.5 * t.array.nbytes


# --- global scale ---------------------------------------------------------------


def _scale_families():
    rng = np.random.default_rng(1)

    def cvec(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def zero_sum(n):
        v = cvec(n)
        return v - v.mean()

    return {
        "product-3x3": np.outer(cvec(3), cvec(3)),
        "random-3x3": cvec(9).reshape(3, 3),
        "product-2x2x2": np.multiply.outer(np.outer(cvec(2), cvec(2)), cvec(2)),
        "random-2x2x2": cvec(8).reshape(2, 2, 2),
        "zero-sum-product-4x4": np.outer(zero_sum(4), zero_sum(4)),
        "zero-sum-product-2x2x2": np.multiply.outer(np.outer(zero_sum(2), zero_sum(2)), zero_sum(2)),
    }


SCALES = [1e-300, 1e-200, 1e-160, 1e-100, 1.0, 1e100, 1e150, 1e200, 1e300]


def _stages(report):
    """Each stage's verdict, with residuals as repr so that NaN compares equal."""
    return [
        (
            s.name,
            s.verdict.outcome,
            s.verdict.decided_by,
            s.verdict.reason,
            None if s.verdict.witness is None else s.verdict.witness.index,
            None if s.verdict.witness is None else repr(s.verdict.witness.residual),
        )
        for s in report.stages
    ]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("family", sorted(_scale_families()))
def test_stage_verdicts_at_extreme_scales_match_whole_array(monkeypatch, family, scale):
    # Some of these scales still overflow or underflow inside the
    # criteria (a known open defect); only slab independence is checked.
    t = CoeffTensor(_scale_families()[family] * scale)
    with np.errstate(all="ignore"):
        whole = with_slab(monkeypatch, WHOLE, analyze, t)
        sliced = with_slab(monkeypatch, 1, analyze, t)
    assert _stages(sliced) == _stages(whole)
    assert (sliced.verdict, sliced.error) == (whole.verdict, whole.error)
    assert repr(sliced.reconstruction_residual) == repr(whole.reconstruction_residual)
