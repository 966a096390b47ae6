"""Factor normalisation and the report's norm at extreme global scales.

`normalize_factors` divides each vector by a power of two before taking
its norm, and `CoeffTensor.norm` does the same where the plain sum of
squares would overflow or underflow.  A product scaled by 2**k must give
the same unit vectors bit for bit, and a scale, a residual and a norm
exactly 2**k times those at k = 0; near 1e+-300 the factors must come
out finite, with no floating-point warning.
"""

import warnings

import numpy as np
import pytest

from entcheck import CoeffTensor, analyze, gen_product_state
from entcheck.pipeline import normalize_factors, render_report
from entcheck.bipartite import LocalFactors

BASES = [gen_product_state((2, 2, 2), seed).array for seed in range(4)]
BASES.append(gen_product_state((3, 2, 4), 9).array)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("k", [-1000, -600, 0, 600, 1000])
@pytest.mark.parametrize("which", range(len(BASES)))
def test_power_of_two_scaling_is_exact(which, k):
    base = BASES[which]
    ref = analyze(CoeffTensor(base), method="oracle")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = analyze(CoeffTensor(base * 2.0**k), method="oracle")
    assert got.exit_code == 0
    for u, v in zip(got.factors.vectors, ref.factors.vectors):
        assert np.array_equal(_bits(u), _bits(v))
    assert got.factors.scale == ref.factors.scale * 2.0**k
    assert got.reconstruction_residual == ref.reconstruction_residual * 2.0**k
    assert got.norm == ref.norm * 2.0**k


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
@pytest.mark.parametrize("which", range(len(BASES)))
def test_extreme_scales_give_finite_factors(which, scale):
    c = BASES[which] * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analyze(CoeffTensor(c), method="oracle")
        text = render_report(report)
    assert report.exit_code == 0
    assert np.isfinite(report.factors.scale)
    assert all(np.isfinite(v).all() for v in report.factors.vectors)
    assert report.reconstruction_residual <= 1e-12 * np.abs(c).max()
    assert np.isclose(report.norm, np.linalg.norm(BASES[which]) * scale, rtol=1e-14)
    assert "nan" not in text and "inf" not in text


def test_normalize_factors_keeps_numpy_scalar_scale():
    # a Python complex scale would change how numpy multiplies it into a
    # large temporary, and with it the bits of NormalizedFactors.outer()
    f = LocalFactors([np.array([3.0, 4.0j]), np.array([1e-300, 1e-300])])
    nf = normalize_factors(f)
    assert isinstance(nf.scale, np.complexfloating)
    assert np.isclose(abs(nf.scale), 5.0 * np.sqrt(2.0) * 1e-300, rtol=1e-15)
