"""Sum-test factors of matrices near the subnormal range.

`extract_local_factors` divides the row sums by the total.  numpy's
complex division overflows on a subnormal divisor, so a total below
2**-960 is scaled up with the row sums by an exact power of two first
(`core._over_pivot`); larger totals divide as they are, bit for bit.  A
matrix near 1e-310, or one whose only nonzero entry is 1e-320, must give
exit 0, finite factors and a reconstruction residual within 1e-12 of
max|c|, with no floating-point warning.
"""

import warnings

import numpy as np
import pytest

from entcheck import CoeffTensor, analyze, dumps, gen_product_state
from entcheck.bipartite import extract_local_factors
from entcheck.cli import main
from test_sum_kernel_equivalence import BIPARTITE


def _single(value):
    a = np.zeros((3, 4), dtype=complex)
    a[1, 2] = value
    return a


CASES = {
    "3x3 product 1e-310": gen_product_state((3, 3), 1).array * 1e-310,
    "2x3 full 1e-310": np.full((2, 3), 1e-310, dtype=complex),
    "single 1e-320": _single(1e-320),
    "single -1e-315j": _single(-1e-315j),
}


def _check(report, a):
    assert report.exit_code == 0 and report.decided_by == "sum"
    assert all(np.isfinite(v).all() for v in report.factors.vectors)
    assert np.isfinite(report.factors.scale)
    assert report.reconstruction_residual <= 1e-12 * np.abs(a).max()


@pytest.mark.parametrize("name", sorted(CASES))
def test_subnormal_matrix_gives_finite_sum_factors(name):
    a = CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analyze(CoeffTensor(a))
    _check(report, a)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_reads_a_subnormal_file_to_exit_zero(tmp_path, capsys, name):
    a = CASES[name]
    path = tmp_path / "state.txt"
    path.write_text(dumps(CoeffTensor(a)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "nan" not in out and "inf" not in out
    assert "decided_by: sum" in out


@pytest.mark.parametrize("name", sorted(k for k, t in BIPARTITE.items() if t._sums[0] != 0))
def test_normal_totals_keep_the_plain_division(name):
    t = BIPARTITE[name]
    total, (rows, cols) = t._sums
    a, b = extract_local_factors(t).vectors
    assert np.array_equal(a.view(np.uint64), (rows / total).astype(complex).view(np.uint64))
    assert np.array_equal(b.view(np.uint64), cols.astype(complex).view(np.uint64))
