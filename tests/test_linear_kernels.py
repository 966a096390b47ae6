"""The kernels that keep the r-party path linear in the number of entries.

- `_first_index` reads the first violation from one argmax, not from an
  index array of every violation, and still refuses an all-False mask.
- `_all_party_sums` returns every party's partial sums from one halving
  pass; it must match a plain sum over the other axes.
- `unfolding_ranks` forms each residual on the off-pivot slabs only; its
  pivot ratio must equal the full-tensor step's exactly.
- Oracle factors come from the fibres through the pivot, with no
  unfolding and no SVD.
- `multiparty_sum_test` allocates a few times the input, not one index
  array per party.
"""

import tracemalloc
from functools import reduce

import numpy as np
import pytest

import entcheck.oracle as oracle
import entcheck.pipeline as pipeline
from entcheck import CoeffTensor, Outcome, analyze, gen_random_state, multiparty_sum_test
from entcheck.bipartite import _first_index
from entcheck.core import _all_party_sums
from entcheck.oracle import unfolding_ranks


def _random_dims(rng, r, low=1, high=5):
    return tuple(int(d) for d in rng.integers(low, high, size=r))


@pytest.mark.parametrize("r", range(1, 7))
def test_first_index_is_first_argwhere_row(r):
    rng = np.random.default_rng(100 + r)
    for _ in range(50):
        dims = _random_dims(rng, r)
        mask = rng.uniform(size=dims) < rng.uniform(0.01, 0.5)
        if not mask.any():
            mask.flat[int(rng.integers(mask.size))] = True
        assert _first_index(mask) == tuple(int(i) for i in np.argwhere(mask)[0])


def test_first_index_on_strided_mask():
    mask = np.zeros((6, 5), dtype=bool)
    mask[4, 1] = mask[2, 3] = True
    assert _first_index(mask.T) == (1, 4)
    assert _first_index(mask[::2]) == (1, 3)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 1, 1)])
def test_first_index_refuses_all_false_mask(shape):
    with pytest.raises(ValueError, match="no True entry"):
        _first_index(np.zeros(shape, dtype=bool))


@pytest.mark.parametrize("r", range(2, 9))
def test_all_party_sums_match_sum_over_other_axes(r):
    rng = np.random.default_rng(200 + r)
    for trial in range(10):
        dims = _random_dims(rng, r, 1, 5 if r < 6 else 4)
        if trial == 0:
            dims = (1,) + dims[1:]
        c = rng.normal(size=dims) + 1j * rng.normal(size=dims)
        sums = _all_party_sums(c)
        assert len(sums) == r
        for k, got in enumerate(sums):
            want = c.sum(axis=tuple(ax for ax in range(r) if ax != k))
            assert got.shape == (dims[k],)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(c).sum())


def _full_tensor_pivot_ratio(t):
    """The one-step decision over the whole tensor, as it was written before
    the slabs: residual everywhere, pivot row and column zeroed."""
    c = t.array
    r = c.ndim
    magnitude = np.abs(c)
    p = np.unravel_index(int(magnitude.argmax()), c.shape)
    seconds = []
    for axis in range(1 if r == 2 else r):
        fiber_at = p[:axis] + (slice(None),) + p[axis + 1 :]
        row_at = (slice(None),) * axis + (p[axis],)
        shape = [1] * r
        shape[axis] = c.shape[axis]
        residual = c - (c[fiber_at] / c[p]).reshape(shape) * np.expand_dims(c[row_at], axis)
        mag = np.abs(residual)
        mag[row_at] = 0.0
        mag[fiber_at] = 0.0
        seconds.append(mag.max())
    return float(max(seconds) / magnitude[p])


def test_slab_oracle_pivot_ratio_equals_full_tensor_step():
    rng = np.random.default_rng(7)
    for trial in range(300):
        r = int(rng.integers(2, 6))
        dims = _random_dims(rng, r)
        c = rng.normal(size=dims) + 1j * rng.normal(size=dims)
        if trial % 3 == 0:
            c = reduce(np.multiply.outer, [rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims])
        t = CoeffTensor(c)
        assert unfolding_ranks(t).pivot_ratio == _full_tensor_pivot_ratio(t)


def _zero_sum_product(r, seed):
    rng = np.random.default_rng(seed)
    dims = [2 if k % 3 else 3 for k in range(r)]
    vectors = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims]
    vectors[0] = vectors[0] - vectors[0].mean()
    return CoeffTensor(reduce(np.multiply.outer, vectors))


@pytest.mark.parametrize("r", range(3, 13))
def test_oracle_factors_are_pivot_fibres(r, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("factor extraction must not build an unfolding")

    monkeypatch.setattr(pipeline, "unfold", refuse)
    monkeypatch.setattr(oracle, "unfold", refuse)
    t = _zero_sum_product(r, 300 + r)
    report = analyze(t)
    assert report.verdict is Outcome.FACTORIZED
    assert report.decided_by == "oracle"
    assert report.reconstruction_residual <= 1e-12 * t.max_abs


@pytest.mark.parametrize("dims", [(2,) * 16, (8,) * 5])
def test_multiparty_sum_test_peak_stays_near_the_input(dims):
    t = gen_random_state(dims, 3)
    tracemalloc.start()
    try:
        verdict = multiparty_sum_test(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.outcome is Outcome.ENTANGLED
    assert peak <= 4.5 * t.array.nbytes
