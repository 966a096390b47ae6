"""Tolerance bounds are relative to the input's own scale.

A state is a ray, so scaling every coefficient by 1e-5 must not change
the verdict.  With an absolute floor of 1 in the bounds, these small
random states were declared factorized by the sum criterion, and the
oracle's disagreement turned the run into an error (exit 2); a small
degenerate entangled matrix passed the magnitude step the same way.
"""

import numpy as np
import pytest

from entcheck import CoeffTensor, Outcome, analyze, gen_random_state, magnitude_phase_test


def _scaled(dims, seed, factor):
    return CoeffTensor(gen_random_state(dims, seed).array * factor)


@pytest.mark.parametrize(
    "dims, seed",
    [((3, 3), 2), ((3, 3, 3), 0), ((3, 3, 3), 1), ((3, 3, 3), 2)],
)
def test_small_random_state_is_entangled(dims, seed):
    report = analyze(_scaled(dims, seed, 1e-5))
    assert report.verdict is Outcome.ENTANGLED
    assert report.oracle_agrees
    assert report.exit_code == 1


@pytest.mark.parametrize("factor", [1e-5, 1.0, 1e5])
def test_verdict_stages_do_not_depend_on_scale(factor):
    for dims, seed in [((3, 3), 2), ((4, 4), 5), ((3, 3, 3), 1), ((2, 3, 4), 4)]:
        reference = analyze(gen_random_state(dims, seed))
        report = analyze(_scaled(dims, seed, factor))
        assert [s.verdict.outcome for s in report.stages] == [
            s.verdict.outcome for s in reference.stages
        ]
        assert report.witness == reference.witness


def test_small_degenerate_entangled_matrix_fails_the_magnitude_step():
    # every row and column sums to zero, the signs are a product, and the
    # magnitudes kron([[1, 1], [1, 1.001]], ones) have rank 2
    c = np.kron([[1.0, 1.0], [1.0, 1.001]], [[1.0, -1.0], [-1.0, 1.0]]) * 1e-6
    verdict = magnitude_phase_test(CoeffTensor(c))
    assert verdict.outcome is Outcome.ENTANGLED
    assert verdict.reason == "magnitude condition violated"
    report = analyze(CoeffTensor(c))
    assert report.decided_by == "mag-phase"
    assert report.exit_code == 1


def test_small_degenerate_product_stays_factorized():
    a = np.array([1.0, -1.0, 2.0, -2.0])
    b = np.array([1.0, 2.0, -3.0])
    t = CoeffTensor(np.outer(a, b) * 1e-6)
    report = analyze(t)
    assert report.verdict is Outcome.FACTORIZED
    assert report.decided_by == "mag-phase"
    assert report.oracle_agrees
    assert report.reconstruction_residual <= 1e-12 * t.max_abs
