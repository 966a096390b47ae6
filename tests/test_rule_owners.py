"""Each rule has one owner, and its callers reach it.

The generators leave shape and value checks to `CoeffTensor`, so a
dimension of 0 raises at once instead of drawing empty tensors forever.
`solve_phases` folds its angles with the same step as the phase test,
so an angle that rounds up to 2*pi comes out as 0.
"""

import math
import os
import subprocess
import sys

import pytest

import entcheck
from entcheck import gen_product_state, solve_phases

SRC = os.path.dirname(os.path.dirname(os.path.abspath(entcheck.__file__)))

ZERO_DIMENSION_CALLS = [
    "gen_random_state((2, 0), 1)",
    "gen_product_state((2, 0), 1)",
    "gen_product_state((3, 0), 1, zero_avoidance=True)",
]


@pytest.mark.parametrize("call", ZERO_DIMENSION_CALLS)
def test_a_zero_dimension_raises_instead_of_looping(call):
    # a child process, so that a generator that loops fails the test on
    # the timeout instead of stalling the suite
    code = (
        "from entcheck import gen_product_state, gen_random_state\n"
        f"try:\n    {call}\nexcept ValueError as exc:\n    print(exc)\n"
    )
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("every dimension must be >= 1")


def test_solved_angles_lie_in_zero_to_two_pi():
    # seed 29 has an argument that np.mod folds to 2*pi exactly
    for seed in range(200):
        solution = solve_phases(gen_product_state((3, 4), seed))
        for angle in solution.alpha + solution.beta:
            assert 0.0 <= angle < 2 * math.pi, (seed, angle)
