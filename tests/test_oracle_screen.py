"""The one-pass rank-1 screen in front of the oracle for r >= 3 parties.

`oracle._rank_one_screen` certifies rank 1 for every unfolding from one
slab walk of max|c - G|, G the outer product of the pivot factors.  It
must never decide a tensor `unfolding_ranks` would not call factorized,
its reported ratio must bound the exact one from above, and where it
does not decide the report must be `unfolding_ranks`'s, field for field.
The pipeline runs it only where the oracle may answer rank 1, so
entangled and 2-party reports keep the exact ratio.
"""

import math
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest

import entcheck.oracle as oracle
import entcheck.pipeline as pipeline
from entcheck import AnalysisReport, CoeffTensor, Outcome, Tolerances, analyze, gen_product_state, gen_random_state
from entcheck.core import DEFAULT_TOLERANCES
from entcheck.oracle import _pivot_factors, _rank_one_screen, numeric_rank, unfold, unfolding_ranks
from test_oracle_decision import CORPUS, ghz


def _screen(t, tol=DEFAULT_TOLERANCES):
    p, vectors = _pivot_factors(t.array)
    return _rank_one_screen(t.array, p, vectors, tol)


def _oracle_report(t, tol=DEFAULT_TOLERANCES):
    """The report after the pipeline's oracle stage as the deciding stage
    (finalisation left out: it is not scale-safe at 1e200)."""
    report = AnalysisReport(t.dims, t.entry_count, 0.0, tol, "oracle")
    pipeline._oracle_stage(report, t, tol, screen=True)
    return report


def _product(dims, seed):
    rng = np.random.default_rng(seed)
    return reduce(np.multiply.outer, [rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims])


def _zero_total_product(dims, seed):
    rng = np.random.default_rng(seed)
    vectors = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims]
    vectors[0] -= vectors[0].mean()
    return CoeffTensor(reduce(np.multiply.outer, vectors))


def _seeded():
    tensors = []
    for seed in range(3):
        for dims in ((2,) * 3, (2,) * 8, (2,) * 12, (8,) * 5, (16,) * 4, (32,) * 3):
            tensors.append(CoeffTensor(_product(dims, seed)))
        for dims in ((2,) * 3, (2,) * 9, (3, 2, 2, 3)):
            tensors.append(_zero_total_product(dims, seed))
    return tensors


MULTIPARTY = [t for t in CORPUS if t.party_count >= 3] + _seeded()


def test_screen_agrees_with_the_exact_oracle():
    decided = 0
    for n, t in enumerate(MULTIPARTY):
        screened = _screen(t)
        exact = unfolding_ranks(t)
        report = _oracle_report(t)
        if screened is None:
            assert report.oracle_ranks == exact.ranks, n
            assert report.oracle_pivot_ratio == exact.pivot_ratio, n
            assert report.oracle_says_factorized == exact.factorized, n
            continue
        decided += 1
        assert all(numeric_rank(unfold(t, k)) == 1 for k in range(1, t.party_count + 1)), n
        assert exact.factorized, n
        assert exact.pivot_ratio <= screened.pivot_ratio <= DEFAULT_TOLERANCES.eps_rank / 4, n
        assert screened.ranks == (1,) * t.party_count
        assert report.oracle_ranks == screened.ranks
        assert report.oracle_pivot_ratio == screened.pivot_ratio
    # every seeded product decides, and so does most of the corpus's r >= 3 share
    assert decided >= 200


def test_products_never_reach_the_full_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the screen should have decided")

    monkeypatch.setattr(pipeline, "unfolding_ranks", refuse)
    product = analyze(CoeffTensor(_product((2, 3, 4), 5)))
    assert product.decided_by == "multi-sum"
    assert product.oracle_agrees and product.oracle_ranks == (1, 1, 1)
    zero_total = analyze(_zero_total_product((2, 3, 4), 5))
    assert zero_total.decided_by == "oracle"
    assert zero_total.verdict is Outcome.FACTORIZED


def test_screened_factors_are_reused_by_finalisation(monkeypatch):
    walks = []
    pivot = oracle._abs_range
    monkeypatch.setattr(oracle, "_abs_range", lambda c: walks.append(1) or pivot(c))
    t = _zero_total_product((3, 2, 2, 3), 2)
    report = analyze(t)
    assert report.decided_by == "oracle" and report.verdict is Outcome.FACTORIZED
    assert len(walks) == 1
    assert report.reconstruction_residual <= 1e-12 * t.max_abs
    reference = pipeline.normalize_factors(pipeline._oracle_factor_extraction(t))
    assert all(np.array_equal(a, b) for a, b in zip(report.factors.vectors, reference.vectors))
    assert report.factors.scale == reference.scale


def _counting(monkeypatch):
    calls = []
    exact = pipeline.unfolding_ranks

    def count(t, tol):
        calls.append(t)
        return exact(t, tol)

    monkeypatch.setattr(pipeline, "unfolding_ranks", count)
    return calls


@pytest.mark.parametrize(
    "t, tol, method",
    [
        (gen_random_state((2, 3, 4), 1), DEFAULT_TOLERANCES, "auto"),
        (ghz(3), DEFAULT_TOLERANCES, "auto"),
        (ghz(3), DEFAULT_TOLERANCES, "oracle"),
        (CoeffTensor(_product((2, 3, 4), 5)), Tolerances(eps_rank=1e-17), "auto"),
        (_zero_total_product((2, 3, 4), 5), Tolerances(eps_rank=1e-17), "auto"),
        (gen_product_state((4, 5), 1), DEFAULT_TOLERANCES, "auto"),
        (gen_random_state((4, 5), 1), DEFAULT_TOLERANCES, "auto"),
        (gen_product_state((4, 5), 1), DEFAULT_TOLERANCES, "oracle"),
        (CoeffTensor(np.diag([1.0, 3e-11])), DEFAULT_TOLERANCES, "oracle"),
        (CoeffTensor(np.outer([1.0, -1.0], [1.0, 2.0j, -3.0])), DEFAULT_TOLERANCES, "auto"),
    ],
)
def test_entangled_two_party_and_tight_inputs_reach_the_full_oracle(monkeypatch, t, tol, method):
    calls = _counting(monkeypatch)
    report = analyze(t, tol, method=method)
    assert len(calls) == 1
    exact = unfolding_ranks(t, tol)
    assert report.oracle_ranks == exact.ranks
    assert report.oracle_pivot_ratio == exact.pivot_ratio


def test_analyze_on_a_qubit_product_peaks_far_below_the_input():
    t = CoeffTensor(_product((2,) * 20, 11))
    analyze(t)  # warm-up
    tracemalloc.start()
    try:
        report = analyze(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.oracle_agrees and report.verdict is Outcome.FACTORIZED
    assert peak <= 0.25 * t.array.nbytes


def _unit_product(dims, seed):
    """Factor entries of modulus in [0.5, 1], so no entry of a 2**k
    scaling with |k| <= 1000 is subnormal or overflows."""
    rng = np.random.default_rng(seed)
    vectors = [rng.uniform(0.5, 1.0, size=d) * np.exp(2j * np.pi * rng.uniform(size=d)) for d in dims]
    return reduce(np.multiply.outer, vectors)


SCALE_SHAPES = [(2, 2, 2), (3, 4, 5), (2,) * 12]


@pytest.mark.parametrize("dims", SCALE_SHAPES)
def test_screen_is_bit_identical_under_power_of_two_scaling(dims):
    base = _unit_product(dims, 3)
    nudged = base.copy()
    nudged.flat[1] *= 1 + 1e-9  # over the budget: falls through at every scale
    for c, decides in ((base, True), (nudged, False)):
        outcomes = set()
        for k in (-1000, -300, 0, 300, 1000):
            scaled = c * math.ldexp(1.0, k)
            assert np.abs(scaled).min() >= np.finfo(float).tiny
            screened = _screen(CoeffTensor(scaled))
            outcomes.add(None if screened is None else (screened.ranks, screened.pivot_ratio.hex()))
        assert len(outcomes) == 1
        assert (outcomes.pop() is not None) == decides


@pytest.mark.parametrize("dims", SCALE_SHAPES)
def test_oracle_stage_is_quiet_at_decimal_scales(dims):
    base = _unit_product(dims, 4)
    for k in range(-300, 301, 100):
        t = CoeffTensor(base * 10.0**k)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = _oracle_report(t)
        assert report.oracle_says_factorized
        assert report.oracle_pivot_ratio <= DEFAULT_TOLERANCES.eps_rank / 4


def test_a_pivot_near_the_subnormal_range_reaches_the_full_oracle():
    # below 4 * tiny the rounding of subnormal results is not small
    # against u * |c[p]|, so the screen's bound would not hold
    t = CoeffTensor(np.full((2, 2, 2), 3e-308, dtype=complex))
    assert _screen(t) is None
    report = _oracle_report(t)
    exact = unfolding_ranks(t)
    assert (report.oracle_ranks, report.oracle_pivot_ratio) == (exact.ranks, exact.pivot_ratio)
