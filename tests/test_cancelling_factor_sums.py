"""A true product whose factor sums nearly cancel fails closed, never entangled.

Under `auto` the sum test reads the matrix product a (x) b as factorized
from its row and column sums.  When sum(b) nearly cancels, the factors
rowsum / total lose accuracy by about max|c| / |total|, so the
reconstruction bound of `pipeline._finalize` can turn the verdict into
an error (exit 2).  The verdict fails closed: it is never "entangled"
(exit 1).  `method="phase"` builds the factors from magnitudes and
phases, not from the cancelling sums, and factors every such product.
The corpus: a and b complex Gaussian, b shifted so that
sum(b) = rho * max|b|, for n in {16, 64, 256} and seeds 0-19.
"""

import numpy as np
import pytest

from entcheck import CoeffTensor, analyze


def _products(rho):
    for n in (16, 64, 256):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            b = b - b.mean() + rho * np.abs(b).max() / n
            yield (n, seed), CoeffTensor(np.outer(a, b))


@pytest.mark.parametrize("rho", [1e-8, 1e-7])
def test_auto_fails_closed_and_phase_factors(rho):
    for key, t in _products(rho):
        auto = analyze(t)
        assert auto.exit_code in (0, 2), (key, auto.exit_code, auto.error)
        if auto.exit_code == 2:
            assert auto.error.startswith("factors from 'sum' reconstruct"), (key, auto.error)
        phase = analyze(t, method="phase")
        assert phase.exit_code == 0, (key, phase.error)
