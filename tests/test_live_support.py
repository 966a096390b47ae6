"""The phase step on the live rectangular support.

The magnitude/phase test checks the shared-constant phase identity on the
rows and columns with an entry above the zero cutoff, with the copies
that square that support up folded into the argument sums as one
multiple, and never forms a d x d grid.  These tests check:

- wide and tall zero-sum products are factorized, and the same products
  with a phase noise of 1e-6 are entangled by the phase condition;
- the 2*pi/3 grid that satisfies the identity exactly is still caught,
  by the reconstruction check;
- `phase_constant` is bit-identical to the frozen squared-grid reference
  on rectangular supports with zero rows and columns;
- the test's memory stays a small multiple of the input, and the CLI
  decides a 2 x 65536 product file;
- the column sums' tree, the shared residual walk, and the pivot of the
  oracle-decided factors.
"""

import math
import tracemalloc

import numpy as np
import pytest

import entcheck.core as core
import entcheck.phase as phase
from entcheck import CoeffTensor, Outcome, analyze, dumps, magnitude_phase_test, phase_constant
from entcheck.cli import main
from entcheck.core import _abs_range, _outer_residual
from entcheck.pipeline import _oracle_factor_extraction
from test_oracle_decision import CORPUS as ORACLE_CORPUS
from test_sum_kernel_equivalence import ref_magnitude_phase_test, ref_phase_constant

SHAPES = [(2, 4096), (4, 4096), (8, 4096), (8192, 2), (65536, 2), (2, 65536), (2, 1 << 20)]


def _zero_sum(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v - v.mean()


def zero_sum_product(m, n, seed=0):
    rng = np.random.default_rng(seed + 7 * m + n)
    return np.outer(_zero_sum(rng, m), _zero_sum(rng, n))


def _shape_id(shape):
    return "x".join(map(str, shape))


@pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
def test_zero_sum_product_is_factorized(shape):
    report = analyze(CoeffTensor(zero_sum_product(*shape)), oracle_check=False)
    assert [s.name for s in report.stages] == ["sum", "sign-flip", "mag-phase"]
    assert report.verdict is Outcome.FACTORIZED
    assert report.error is None


@pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
def test_phase_noise_is_entangled(shape):
    c = zero_sum_product(*shape)
    rng = np.random.default_rng(99)
    t = CoeffTensor(c * np.exp(1e-6j * rng.standard_normal(c.shape)))
    verdict = magnitude_phase_test(t)
    assert verdict.outcome is Outcome.ENTANGLED
    assert verdict.reason == "phase condition violated"
    assert analyze(t, oracle_check=False).verdict is Outcome.ENTANGLED


def test_tall_product_with_equal_arguments_down_each_column():
    # m equal terms added row after row round the same way every time;
    # such column sums missed the phase bound by 3x at 4096 rows
    rng = np.random.default_rng(4)
    a = rng.uniform(0.5, 1.0, 4096)
    t = CoeffTensor(np.outer(a, np.exp(1j * np.array([6.2, 3.3, 1.9]))))
    assert magnitude_phase_test(t).is_factorized


def test_identity_without_a_factorization_fails_reconstruction():
    # unit magnitudes whose arguments satisfy the shared-constant
    # identity exactly: it fixes each argument only modulo 2*pi / 3
    t = CoeffTensor(np.exp(2j * math.pi / 3 * np.array([[1, 2, 0], [2, 1, 0], [0, 0, 0]])))
    verdict = magnitude_phase_test(t)
    assert verdict.outcome is Outcome.ENTANGLED
    assert verdict.reason == "phase grid admits no consistent factor reconstruction"
    ref = ref_magnitude_phase_test(t)
    assert verdict.witness.index == ref.witness.index
    assert verdict.witness.residual == pytest.approx(ref.witness.residual, rel=1e-12)


def _embedded(rng, m2, n2, m, n, product):
    """An m x n matrix whose live support is m2 x n2, on random rows and
    columns, the rest zero."""
    if product:
        live = np.outer(_zero_sum(rng, m2) + 0.5, _zero_sum(rng, n2) - 0.5j)
    else:
        live = rng.uniform(0.5, 1.0, (m2, n2)) * np.exp(1j * rng.uniform(-4, 4, (m2, n2)))
    c = np.zeros((m, n), dtype=complex)
    rows = np.sort(rng.choice(m, m2, replace=False))
    cols = np.sort(rng.choice(n, n2, replace=False))
    c[np.ix_(rows, cols)] = live
    return CoeffTensor(c)


SUPPORTS = [(1, 5), (5, 1), (3, 7), (7, 3), (6, 6), (2, 64), (64, 2), (64, 512), (512, 64)]


@pytest.mark.parametrize("product", [True, False], ids=["product", "random"])
@pytest.mark.parametrize("support", SUPPORTS, ids=_shape_id)
def test_phase_constant_is_the_squared_grid_value_to_the_bit(support, product):
    rng = np.random.default_rng(sum(support) + product)
    m2, n2 = support
    for m, n in [(m2, n2), (m2 + 2, n2 + 3), (m2 + 5, n2)]:
        t = _embedded(rng, m2, n2, m, n, product)
        assert phase_constant(t) == ref_phase_constant(t)
        live = np.argwhere(np.abs(t.array) > 0)
        for k in {0, len(live) // 2, len(live) - 1, int(rng.integers(len(live)))}:
            ref = tuple(int(i) for i in live[k])
            assert phase_constant(t, ref=ref) == ref_phase_constant(t, ref=ref)


def test_phase_constant_rejects_references_off_the_support():
    t = _embedded(np.random.default_rng(3), 3, 4, 5, 6, True)
    zero = tuple(int(i) for i in np.argwhere(t.array == 0)[0])
    for ref in (zero, (5, 0), (0, 6), (-1, 0)):
        with pytest.raises(ValueError):
            phase_constant(t, ref=ref)
    with pytest.raises(ValueError):
        ref_phase_constant(t, ref=zero)


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "shape, ratio",
    [((256, 256), 2.5), ((1024, 1024), 2.5), ((2, 65536), 5.0)],
    ids=["256x256", "1024x1024", "2x65536"],
)
def test_peak_is_a_small_multiple_of_the_input(shape, ratio):
    t = CoeffTensor(zero_sum_product(*shape))
    assert magnitude_phase_test(t).is_factorized  # scanned to the end
    assert _peak(magnitude_phase_test, t) <= ratio * t.array.nbytes


def test_cli_decides_a_wide_zero_sum_product_file(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text(dumps(CoeffTensor(zero_sum_product(2, 65536))))
    assert main(["analyze", "--input", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "verdict: factorized" in out
    assert "decided_by: mag-phase" in out
    assert "oracle_agrees: true" in out


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 64, 1000, 1 << 16])
def test_column_sums_are_within_the_tree_bound(m):
    # adding row after row misses this bound by 8x at 2**16 rows
    rng = np.random.default_rng(m)
    x = rng.uniform(0, 2 * math.pi, (m, 3))
    got = phase._column_sums(x)
    for j in range(3):
        exact = math.fsum(x[:, j])
        assert abs(got[j] - exact) <= max(1, math.ceil(math.log2(m))) * 2.0**-53 * exact


def test_oracle_factor_pivot_is_the_first_largest_entry():
    for t in ORACLE_CORPUS:
        c = t.array
        flat = int(np.abs(c).argmax())
        assert _abs_range(c)[2] == flat
        p = np.unravel_index(flat, c.shape)
        fibres = [c[p[:k] + (slice(None),) + p[k + 1 :]] for k in range(t.party_count)]
        expected = [fibres[0]] + [f / c[p] for f in fibres[1:]]
        for got, want in zip(_oracle_factor_extraction(t).vectors, expected):
            assert np.array_equal(got, want)


def test_outer_residual_reports_the_first_maximum_and_nan(monkeypatch):
    monkeypatch.setattr(core, "_SLAB", 4)  # one row per slab
    ones = (np.ones(3), np.ones(4))
    c = np.ones((3, 4))
    c[1, 2] = c[2, 0] = 3.0
    assert _outer_residual(c, ones) == (2.0, 6)
    assert _outer_residual(c, ones, 2.0) == (1.0, 0)
    worst, where = _outer_residual(c, (np.array([1.0, np.nan, 1.0]), np.ones(4)))
    assert math.isnan(worst) and where == 4
