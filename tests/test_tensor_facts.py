"""Per-tensor facts, computed once in `core`.

`CoeffTensor._range` (max |c|, min |c| and the first index of the
largest |c|) and `CoeffTensor._sums` (the total and every party's
partial sums) are the values `core._abs_range` and
`core._all_party_sums` give, bit for bit, and every stage reads them
from the tensor: on a fresh tensor each array is walked at most once by
each helper, whatever route `analyze` takes.  Also the regressions at
extreme scales: a multi-sum whose S^(r-1) leaves the floating-point
range hands over to the oracle, and the oracle divides by a subnormal
pivot without overflow.
"""

import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import entcheck.bipartite as bipartite
import entcheck.core as core
import entcheck.multipartite as multipartite
import entcheck.oracle as oracle
import entcheck.phase as phase
import entcheck.pipeline as pipeline
from entcheck import CoeffTensor, analyze, dumps, gen_product_state, gen_random_state
from entcheck.cli import main
from entcheck.oracle import _pivot_factors, unfolding_ranks

from test_sum_kernel_equivalence import CORPUS


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_facts_equal_the_helpers_bit_for_bit(name):
    c = CORPUS[name].array
    t = CoeffTensor(c)
    assert t._range == core._abs_range(c)
    total, partials = t._sums
    assert np.array_equal(_bits(np.array([total])), _bits(np.array([c.sum()])))
    expected = core._all_party_sums(c)
    assert len(partials) == len(expected) == c.ndim
    for got, want in zip(partials, expected):
        assert np.array_equal(_bits(got), _bits(want))
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0
    assert t.max_abs == t._range[0]
    assert core.total_sum(t) == complex(total)


def test_facts_are_computed_once(monkeypatch):
    calls = []
    walk = core._abs_range
    monkeypatch.setattr(core, "_abs_range", lambda c: calls.append(c) or walk(c))
    t = gen_product_state((3, 4), 1)
    assert t._range is t._range and t._sums is t._sums
    assert t.max_abs == t.max_abs
    assert len(calls) == 1


def test_no_stage_keeps_its_own_copy():
    for module in (bipartite, multipartite, phase, pipeline):
        assert not hasattr(module, "_abs_range"), module.__name__
        assert not hasattr(module, "_all_party_sums"), module.__name__
    # the screen's pivot walk is the oracle's own
    assert not hasattr(oracle, "_all_party_sums")


def _zero_sum(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v - v.mean()


def _routes():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    flip = np.outer([1.0, 1.0, -2.0], [1.0, 2.0, 3.0])  # zero total; a row negation decides
    return {
        "sum": (gen_product_state((4, 5), 3, zero_avoidance=True), "auto", "sum"),
        "sign-flip": (CoeffTensor(flip), "auto", "sign-flip"),
        "mag-phase": (CoeffTensor(np.outer(_zero_sum(rng, 4), _zero_sum(rng, 6))), "auto", "mag-phase"),
        "multi-sum product": (gen_product_state((2, 3, 4), 5, zero_avoidance=True), "auto", "multi-sum"),
        "random r=3": (gen_random_state((3, 2, 4), 6), "auto", "multi-sum"),
        "zero-sum r=3": (CoeffTensor(np.multiply.outer(np.outer(a, [1, 2]), [1, -1])), "auto", "oracle"),
        "forced oracle product": (gen_product_state((3, 4, 2), 8), "oracle", "oracle"),
        "forced oracle random": (gen_random_state((5, 6), 9), "oracle", "oracle"),
    }


ROUTES = _routes()


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_each_array_is_walked_at_most_once_per_helper(monkeypatch, route):
    t, method, deciding = ROUTES[route]
    t = CoeffTensor(t.array)  # fresh: no fact computed yet
    walked = {}
    for name in ("_abs_range", "_all_party_sums"):
        calls, helper = Counter(), getattr(core, name)
        walked[name] = calls

        def counting(c, calls=calls, helper=helper, keep=[]):
            keep.append(c)  # keep ids unique for the whole run
            calls[id(c)] += 1
            return helper(c)

        monkeypatch.setattr(core, name, counting)
    report = analyze(t, method=method)
    deciding_stage = [s.name for s in report.stages if s.verdict.outcome.value != "inconclusive"][0]
    assert deciding_stage == deciding
    assert report.exit_code in (0, 1)
    for name, calls in walked.items():
        assert max(calls.values(), default=0) <= 1, (name, calls)


def test_unfolding_ranks_peak_on_a_random_qubit_state():
    t = CoeffTensor(gen_random_state((2,) * 20, 11).array)
    tracemalloc.start()
    try:
        decision = unfolding_ranks(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not decision.factorized
    assert peak <= 0.8 * t.array.nbytes


# --- extreme scales ------------------------------------------------------------


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3)])
def test_subnormal_pivot_divides_without_overflow(dims):
    t = CoeffTensor(np.full(dims, 1e-310))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decision = unfolding_ranks(t)
        p, vectors = _pivot_factors(t.array)
        report = analyze(t, method="oracle")
    assert decision.ranks == (1,) * len(dims) and decision.pivot_ratio == 0.0
    assert p == (0,) * len(dims)
    assert all(np.array_equal(v, np.ones(d)) for v, d in zip(vectors[1:], dims[1:]))
    assert report.exit_code == 0 and report.reconstruction_residual == 0.0
    assert np.isfinite(report.factors.scale)


def test_subnormal_product_is_factorized_by_the_oracle():
    base = gen_product_state((3, 2, 4), 12, zero_avoidance=True).array
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analyze(CoeffTensor(base * 1e-310), method="oracle")
    assert report.exit_code == 0 and report.oracle_ranks == (1, 1, 1)
    assert all(np.isfinite(v).all() for v in report.factors.vectors)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_normal_pivots_keep_the_plain_division(name):
    c = CORPUS[name].array
    p, vectors = _pivot_factors(c)
    for k, v in enumerate(vectors[1:], start=1):
        fibre = c[p[:k] + (slice(None),) + p[k + 1 :]]
        assert np.array_equal(_bits(v), _bits(fibre / c[p]))


@pytest.mark.parametrize("scale", [1e-300, 1e-200])
@pytest.mark.parametrize("seed", [3, 4])
def test_multi_sum_out_of_range_power_hands_over_to_the_oracle(seed, scale):
    product = CoeffTensor(gen_product_state((2, 2, 2), seed).array * scale)
    random = CoeffTensor(gen_random_state((2, 2, 2), seed).array * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p_report = analyze(product)
        r_report = analyze(random)
    for report in (p_report, r_report):
        multi = report.stages[0]
        assert multi.name == "multi-sum" and multi.verdict.is_inconclusive
        assert "out of range" in multi.verdict.reason
        assert report.decided_by == "oracle"
    assert p_report.exit_code == 0
    assert np.isfinite(p_report.factors.scale)
    assert all(np.isfinite(v).all() for v in p_report.factors.vectors)
    assert p_report.reconstruction_residual <= 1e-12 * product.max_abs
    assert r_report.exit_code == 1


def test_forced_multi_sum_with_an_out_of_range_power_exits_two(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text(dumps(CoeffTensor(gen_product_state((2, 2, 2), 3).array * 1e-300)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", "--input", str(path), "--method", "multi"])
    assert code == 2
    assert "out of range" in capsys.readouterr().out
