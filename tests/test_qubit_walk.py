"""The slab walk's outer products and the sum bound, bit for bit.

`core._slab_walk` forms the leading parties' product once and multiplies
the trailing vectors into each slab's run of it, in long loops for small
parties (`core._outer_rows`).  Every slab it yields must equal the same
slab of reduce(np.multiply.outer, vectors), compared as raw bits, at the
default slab size and at the small sizes the other slab tests use.

Parties of dimension 1 cover the one product numpy forms without a
fused multiply-add, a 1 x 1 outer product (`_outer_rows` keeps to the
full reduce's choice).

`bipartite._sum_slabs` skips the bound on a slab whose residuals are
all at most eps_mag * floor and forms the one-step bound on any other;
its residuals and masks must equal a frozen copy of the one-step bound
on every slab, on the sum-kernel corpus, on entries nudged to just
inside and just outside the bound, and on overflowing inputs whose
residuals are NaN.
"""

from functools import reduce

import numpy as np
import pytest

import entcheck.core as core
from entcheck.bipartite import _sum_slabs
from entcheck.core import DEFAULT_TOLERANCES, _all_party_sums, _slab_walk
from test_sum_kernel_equivalence import CORPUS

TOL = DEFAULT_TOLERANCES
SLABS = [1, 7, 64, core._SLAB]


def _bits(a):
    return np.ascontiguousarray(a).reshape(-1).view(np.uint64)


def _vectors(dims, seed=5):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]


def _walk_shapes():
    shapes = [(2,) * r for r in range(2, 21)]
    shapes += [(3,) * 9, (4,) * 7, (5, 7, 11), (1, 2, 1, 3), (2, 1, 2, 1, 1), (6, 1, 1), (1,) * 4]
    shapes += [(2,) * 10 + (64,), (256, 2, 2), (1, 1024, 2), (2, 3, 2, 1, 5, 2, 2, 3)]
    return shapes


@pytest.mark.parametrize("slab", SLABS)
@pytest.mark.parametrize("dims", _walk_shapes(), ids=lambda d: "x".join(map(str, d)))
def test_walk_outer_products_are_the_full_reduce(monkeypatch, dims, slab):
    monkeypatch.setattr(core, "_SLAB", slab)
    vectors = _vectors(dims)
    full = reduce(np.multiply.outer, vectors)
    c = np.ones(dims, dtype=complex)
    pieces, seen = [], 0
    for offset, block, outer in _slab_walk(c, vectors):
        assert outer.shape == block.shape
        assert offset == seen
        seen += block.size
        pieces.append(_bits(outer))
    assert np.array_equal(np.concatenate(pieces), _bits(full))


@pytest.mark.parametrize("dims", [(2,) * 20, (2,) * 22, (4,) * 10, (3,) * 12])
def test_default_walk_keeps_slabs_near_the_slab_size(dims):
    vectors = _vectors(dims)
    c = np.broadcast_to(np.ones(1, dtype=complex), dims)
    sizes = [block.size for _, block, _ in _slab_walk(c, vectors)]
    assert max(sizes) <= core._SLAB
    assert len(sizes) <= 2 * np.prod(dims) // core._SLAB


def test_real_and_mixed_vectors_keep_their_bits():
    rng = np.random.default_rng(9)
    dims = (2,) * 16
    for kinds in ("rrrr", "rcrc", "crcr"):
        vectors = [rng.standard_normal(d) for d in dims]
        for k, v in enumerate(vectors):
            if kinds[k % 4] == "c":
                vectors[k] = v + 1j * rng.standard_normal(len(v))
        full = reduce(np.multiply.outer, vectors)
        got = np.concatenate([o.reshape(-1) for _, _, o in _slab_walk(np.ones(dims), vectors)])
        assert got.dtype == full.dtype
        assert np.array_equal(got.view(np.uint64), full.reshape(-1).view(np.uint64))


# --- the sum bound ---------------------------------------------------------------


def _one_step_sum_slabs(c, partials, power, floor, tol):
    """The one-step bound, formed on every slab (frozen)."""
    for offset, block, rhs in _slab_walk(c, partials):
        lhs = block * power
        resid = np.abs(lhs - rhs)
        bound = tol.eps_mag * np.maximum(floor, np.maximum(np.abs(lhs), np.abs(rhs)))
        yield offset, block, rhs, resid, ~(resid <= bound)


def _assert_same_slabs(c, partials, power, floor):
    new = list(_sum_slabs(c, partials, power, floor, TOL))
    old = list(_one_step_sum_slabs(c, partials, power, floor, TOL))
    assert len(new) == len(old)
    for (o1, b1, r1, res1, v1), (o2, b2, r2, res2, v2) in zip(new, old):
        assert o1 == o2
        assert np.array_equal(_bits(r1), _bits(r2))
        assert np.array_equal(_bits(res1), _bits(res2))
        assert np.array_equal(v1, v2)
    return np.concatenate([v.reshape(-1) for *_, v in new])


def _criterion_args(c):
    """(partials, power, floor) as the multiparty sum test forms them."""
    total = c.sum()
    r = c.ndim
    cmax = float(np.abs(c).max())
    return _all_party_sums(c), total ** (r - 1), cmax * abs(total) ** (r - 1)


@pytest.mark.parametrize("slab", [7, core._SLAB])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_two_step_bound_matches_one_step_on_the_corpus(monkeypatch, slab, name):
    monkeypatch.setattr(core, "_SLAB", slab)
    c = CORPUS[name].array
    partials, power, floor = _criterion_args(c)
    for f in (floor, 0.0):  # with no floor, |lhs| and |rhs| set every bound
        _assert_same_slabs(c, partials, power, f)


def _nudged(dims, ratios, seed):
    """A product, its sums, and a copy whose entries 0, 1, ... have
    residual / (eps_mag * |rhs|) near the given ratios, half of them
    with |lhs| below |rhs| and half above."""
    vectors = _vectors(dims, seed)
    c = reduce(np.multiply.outer, vectors)
    partials, power, _ = _criterion_args(c)
    rhs = reduce(np.multiply.outer, partials).reshape(-1)
    nudged = c.copy().reshape(-1)
    k = 0
    for ratio in ratios:
        for sign in (-1.0, 1.0):
            nudged[k] = rhs[k] * (1.0 + sign * ratio * TOL.eps_mag) / power
            k += 1
    return nudged.reshape(dims), partials, power


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 4), (2,) * 12, (5, 3, 4)])
def test_two_step_bound_matches_one_step_near_the_bound(dims):
    ratios = [0.5, 0.999, 1.001, 2.0]
    c, partials, power = _nudged(dims, ratios, seed=len(dims))
    _, _, floor = _criterion_args(c)
    for f in (floor, 0.0, 1e-300):
        viol = _assert_same_slabs(c, partials, power, f)
        if f == 0.0:
            # the nudges straddle the bound: both outcomes occur
            assert viol[: 2 * len(ratios)].any() and not viol[: 2 * len(ratios)].all()


@pytest.mark.parametrize(
    "c",
    [
        np.full((2, 2, 2), 1e200, dtype=complex),
        np.full((2, 3), 1e200 + 1e200j),
        np.array([[1e200, -1e200], [3e199, 1e150]], dtype=complex),
        np.full((2,) * 10, 1e160, dtype=complex),
    ],
    ids=["cube", "matrix", "mixed", "qubits"],
)
def test_two_step_bound_matches_one_step_on_overflow(c):
    with np.errstate(all="ignore"):
        partials, power, floor = _criterion_args(c)
        for f in (floor, 0.0):
            _assert_same_slabs(c, partials, power, f)
        slabs = _sum_slabs(c, partials, power, floor, TOL)
        resid = np.concatenate([r.reshape(-1) for _, _, _, r, _ in slabs])
    assert np.isnan(resid).any()
