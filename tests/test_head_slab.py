"""The slab walk's head slab, the tensor's kept norm, and two edges of
the pipeline.

A walk with vectors (`core._slab_walk(c, vectors)`) yields its first
leading index as a slab of its own, then runs of `_SLAB` // widths[k]
indices, so a per-entry criterion decides a generic entangled input
from its first widths[k] entries.  Checked here, at small slab sizes and
at the default:

- the head is one leading index, and the slabs cover every entry once,
  in row-major order, with matching offsets;
- the outer products are reduce(np.multiply.outer, vectors), as uint64;
- a walk without vectors yields the slabs of a frozen copy of the walk
  before the head slab;
- `sum_test` on a random matrix and `multiparty_sum_test` on a random
  qubit state form one head slab and return the witnesses of the frozen
  walk, bit for bit.

`CoeffTensor.norm` is kept: two `analyze` calls on one tensor form it
once, with the bits of a fresh tensor's.  `analyze` at the top of the
float range raises no RuntimeWarning (the test configuration makes them
errors), and `magnitude_phase_test` frees |c| before its reconstruction
walk.
"""

import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

import entcheck.bipartite as bipartite
import entcheck.core as core
from entcheck import (
    CoeffTensor,
    analyze,
    dumps,
    gen_random_state,
    magnitude_phase_test,
    multiparty_sum_test,
    render_report,
    sum_test,
)
from entcheck.cli import main
from entcheck.core import _slab_walk
from test_qubit_walk import _bits, _vectors

SLABS = [1, 7, 64, core._SLAB]
SHAPES = [(256, 256), (1024, 3), (3, 1, 30000), (5, 1, 7), (32, 32, 32), (2,) * 18]


def _old_slab_walk(c, vectors=()):
    """The walk before the head slab (frozen): runs of `_SLAB` // widths[k]
    leading indices from the first one on."""
    widths = [math.prod(c.shape[k:]) for k in range(c.ndim)]
    k = 1
    while k < c.ndim - 1 and widths[k] > core._SLAB // 64 and (
        widths[k] > core._SLAB or widths[k + 1] >= 64
    ):
        k += 1
    blocks = c.reshape((-1,) + c.shape[k:])
    step = max(1, core._SLAB // widths[k])
    lead = core._outer_rows(vectors[0], vectors[1:k]) if vectors else None
    for i in range(0, blocks.shape[0], step):
        block = blocks[i : i + step]
        outer = None
        if lead is not None:
            run = lead[i : i + step]
            outer = core._outer_rows(run, vectors[k:], len(run) == len(lead)).reshape(block.shape)
        yield i * widths[k], block, outer


def _numbered(dims):
    return np.arange(math.prod(dims), dtype=complex).reshape(dims)


@pytest.mark.parametrize("slab", SLABS)
@pytest.mark.parametrize("dims", SHAPES, ids=lambda d: "x".join(map(str, d)))
def test_the_head_slab_is_one_leading_index_then_plain_runs(monkeypatch, dims, slab):
    monkeypatch.setattr(core, "_SLAB", slab)
    c = _numbered(dims)
    vectors = _vectors(dims)
    plain = list(_old_slab_walk(c))
    step = len(plain[0][1])
    slabs = list(_slab_walk(c, vectors))
    assert len(slabs[0][1]) == 1
    assert slabs[0][1].shape[1:] == plain[0][1].shape[1:]
    assert [len(b) for _, b, _ in slabs[1:-1]] == [step] * (len(slabs) - 2)
    seen = 0
    for offset, block, outer in slabs:
        assert offset == seen and outer.shape == block.shape
        seen += block.size
    assert seen == c.size
    assert np.array_equal(np.concatenate([b.reshape(-1) for _, b, _ in slabs]), c.reshape(-1))
    full = reduce(np.multiply.outer, vectors)
    walked = np.concatenate([_bits(o) for _, _, o in slabs])
    assert np.array_equal(walked, _bits(full))


@pytest.mark.parametrize("slab", SLABS)
@pytest.mark.parametrize("dims", SHAPES, ids=lambda d: "x".join(map(str, d)))
def test_a_walk_without_vectors_keeps_the_plain_runs(monkeypatch, dims, slab):
    monkeypatch.setattr(core, "_SLAB", slab)
    c = _numbered(dims)
    new, old = list(_slab_walk(c)), list(_old_slab_walk(c))
    assert [(o, b.shape, x) for o, b, x in new] == [(o, b.shape, x) for o, b, x in old]
    for (_, b1, _), (_, b2, _) in zip(new, old):
        assert np.shares_memory(b1, c) and np.array_equal(b1, b2)


def _formed(monkeypatch, fn, t):
    """(verdict, entries of every slab the criterion's walks yielded)."""
    formed = []

    def counting(c, vectors=()):
        for item in _slab_walk(c, vectors):
            formed.append(item[1].size)
            yield item

    with monkeypatch.context() as m:
        m.setattr(bipartite, "_slab_walk", counting)
        verdict = fn(t)
    return verdict, formed


@pytest.mark.parametrize(
    "fn, dims", [(sum_test, (256, 256)), (multiparty_sum_test, (2,) * 18)], ids=["sum", "multi"]
)
def test_a_random_input_is_decided_from_its_head_slab(monkeypatch, fn, dims):
    t = gen_random_state(dims, 22)
    verdict, formed = _formed(monkeypatch, fn, t)
    assert verdict.is_entangled
    assert formed == [256]  # one row of the matrix; the last 8 qubits
    with monkeypatch.context() as m:
        m.setattr(bipartite, "_slab_walk", _old_slab_walk)
        old = fn(t)
    assert (verdict.outcome, verdict.decided_by, verdict.reason) == (
        old.outcome,
        old.decided_by,
        old.reason,
    )
    assert verdict.witness.index == old.witness.index
    assert _bits(np.float64(verdict.witness.residual)) == _bits(np.float64(old.witness.residual))


# --- the kept norm ------------------------------------------------------------


@pytest.mark.parametrize("dims", [(64, 64), (2,) * 10])
def test_the_norm_is_formed_once_per_tensor(monkeypatch, dims):
    t = gen_random_state(dims, 4)
    calls = []
    norm_and_exponent = core._norm_and_exponent

    def counting(a):
        calls.append(a is t.array)
        return norm_and_exponent(a)

    monkeypatch.setattr(core, "_norm_and_exponent", counting)
    first, second = analyze(t), analyze(t)
    assert calls.count(True) == 1
    fresh = CoeffTensor(t.array.copy()).norm
    for report in (first, second):
        assert _bits(np.float64(report.norm)) == _bits(np.float64(fresh))


# --- the top of the float range ---------------------------------------------------

BIG = np.full((2, 2, 2), 1e308 + 1e308j)


def test_analyze_at_the_top_of_the_float_range_warns_nothing():
    report = analyze(CoeffTensor(BIG))
    assert report.norm == math.inf and report.exit_code == 2
    assert report.error.startswith("criterion 'multi-sum' says entangled but the oracle found")
    text = render_report(report)
    assert "norm: inf\n" in text and "oracle_agrees: false\n" in text
    huge = analyze(CoeffTensor(np.full((2, 2, 2), 1e200)))
    assert huge.exit_code == 2 and huge.error is not None


def test_cli_at_the_top_of_the_float_range_keeps_stderr_empty(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text(dumps(CoeffTensor(BIG)))
    assert main(["analyze", "--input", str(path)]) == 2
    out = capsys.readouterr()
    assert out.err == ""
    assert "error: criterion 'multi-sum' says entangled but the oracle found" in out.out


# --- the magnitude/phase peak -----------------------------------------------------


def test_magnitude_phase_frees_the_magnitudes_before_reconstruction():
    rng = np.random.default_rng(6)
    a, b = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (2, 1 << 18))
    t = CoeffTensor(np.multiply.outer(a - a.mean(), b - b.mean()))
    tracemalloc.start()
    try:
        verdict = magnitude_phase_test(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.is_factorized
    assert peak <= 3.4 * t.array.nbytes
