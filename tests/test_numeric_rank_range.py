"""`numeric_rank` at the edges of the float range.

A matrix whose largest modulus lies outside [2**-960, 2**960] is scaled
by a power of two before the elimination, which is exact, so its rank
is the rank of the same matrix scaled into the middle of the range, and
no quotient or product of the elimination overflows or warns.
"""

import warnings

import numpy as np
import pytest

from entcheck.oracle import numeric_rank

MATRICES = {
    "top-rank-1": [[1e308 + 1e308j, 1], [1, 1]],
    "top-rank-2": [[1e308, 1e308j], [1e308j, 1e308]],
    "top-3x3": [[1e308, 2e307, 0], [3e307j, -1e308, 5e306], [1e308, 1e308, 1e308j]],
    "low-rank-1": [[5e-324, 1e-323], [1e-323, 2e-323]],
    "low-rank-2": [[1e-310, 1e-310j], [-1e-310j, 3e-310]],
}


@pytest.mark.parametrize("name", MATRICES)
def test_rank_is_the_rank_scaled_into_range(name):
    a = np.array(MATRICES[name], dtype=complex)
    shift = -60 if np.abs(a).max() > 1 else 960
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = numeric_rank(a)
        want = numeric_rank(np.ldexp(a.real, shift) + 1j * np.ldexp(a.imag, shift))
    assert got == want == (1 if "rank-1" in name else 2 if "rank-2" in name else 3)
