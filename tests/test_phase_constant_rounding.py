"""`phase_constant` and the constant of the phase test agree within rounding.

`phase_constant` adds the reference column's arguments row after row,
and `magnitude_phase_test` adds every column as a balanced tree
(`phase._column_sums`), with the copies that square the support up as
one multiple, so the two constants may differ in their last bits.  On a
seeded corpus of products their circular distance stays within the
slack the test allows at its reference entry: `_PHASE_ROUNDING` times
that entry's row sum, column sum, d times its argument and 2*pi.
"""

import pytest

from entcheck import gen_product_state, phase
from entcheck.core import DEFAULT_TOLERANCES, TWO_PI


def _test_constant(t):
    """(constant, reference size) as `phase._magnitude_phase_test` forms
    them on the whole argument grid."""
    mags, cutoff, live_rows, live_cols, (ri, rj) = phase._support(t, DEFAULT_TOLERANCES)
    m2, n2 = int(live_rows.sum()), int(live_cols.sum())
    d = max(m2, n2)
    args = phase._arguments(t.array, mags <= cutoff)
    row_arg = args.sum(axis=1)
    col_arg = phase._column_sums(args)
    if m2 < d:
        col_arg += (d - m2) * args[ri]
    elif n2 < d:
        row_arg += (d - n2) * args[:, rj]
    const = (row_arg[ri] + col_arg[rj] - d * args[ri, rj]) % TWO_PI
    return const, row_arg[ri] + col_arg[rj] + d * args[ri, rj] + TWO_PI


@pytest.mark.parametrize("shape", [(7, 9), (16, 16), (33, 5), (64, 64), (5, 40)])
def test_phase_constant_is_the_tests_within_rounding(shape):
    for seed in range(300):
        t = gen_product_state(shape, seed)
        want, size = _test_constant(t)
        got = phase.phase_constant(t)
        assert phase.circular_distance(got, want) <= phase._PHASE_ROUNDING * size, (shape, seed)
