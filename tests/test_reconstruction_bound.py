"""A factorized verdict whose factors do not rebuild the tensor fails closed.

`pipeline._finalize` compares the reconstruction residual with
max|c| * (32 * max(eps_mag, eps_rank) + r * 16 eps).  Above it, or when
the residual is NaN, the report carries an error and exits 2, with or
without the oracle cross-check.  The corpus holds small tensors of
Gaussian integers, their truth from exact 2x2 minors; scaled by 2**600
or 2**-600 some of them meet criteria whose sums over- or underflow
(ROADMAP finding 1), and none may read "factorized" with exit 0, nor
make `analyze` raise.  Scaling by a power of two is exact, so the
scaled tensors have the same truth.  The criteria's RuntimeWarnings at
those scales are left to the exact scaling of ROADMAP item 1, and are
ignored here.
"""

import math
from functools import reduce

import numpy as np
import pytest

import entcheck.pipeline as pipeline
from entcheck import CoeffTensor, Outcome, analyze, dumps, multiparty_sum_test
from entcheck.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SCALE = 2.0**600

# an entangled matrix that the sum test reads as factorized at 2**600
SUM_AT_2_600 = np.array([[7 + 8j, -5 + 5j, -2 - 6j], [-6 - 8j, 5 - 5j, 2 + 6j]])
# an entangled (1, 3, 2) tensor whose multi-sum factor is zero at 2**600
ZERO_FACTOR_AT_2_600 = np.array([[[2, -1], [-2 + 4j, 2 - 4j], [-2 + 2j, 2 - 2j]]])


def _rank_one(c) -> bool:
    """Whether every unfolding of c has all 2x2 minors zero.  Entries are
    Gaussian integers below 2**10, so every product is exact."""
    for k in range(c.ndim):
        m = np.moveaxis(c, k, 0).reshape(c.shape[k], -1)
        if not np.array_equal(np.einsum("ij,kl->ikjl", m, m), np.einsum("il,kj->ikjl", m, m)):
            return False
    return True


def _corpus(seed: int, count: int):
    """(products, entangled): `count` seeded Gaussian-integer tensors each,
    r = 2..4 parties and at most 64 entries.  Products come from integer
    factors, some with a zero-sum factor; entangled tensors are a product
    plus 1 at one entry, or the sum of two products."""
    rng = np.random.default_rng(seed)

    def factor(d):
        while True:
            v = rng.integers(-3, 4, size=d) + 1j * rng.integers(-3, 4, size=d)
            if d > 1 and rng.random() < 0.3:
                v[-1] -= v.sum()
            if v.any():
                return v

    products, entangled = [], []
    while len(products) < count or len(entangled) < count:
        r = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(1, 5, size=r))
        if math.prod(dims) > 64 or max(dims) < 2:
            continue
        c = reduce(np.multiply.outer, [factor(d) for d in dims])
        if len(products) < count:
            products.append(c)
        if rng.random() < 0.5:
            c = c.copy()
            c[tuple(int(rng.integers(0, d)) for d in dims)] += 1
        else:
            c = c + reduce(np.multiply.outer, [factor(d) for d in dims])
        if len(entangled) < count and c.any() and not _rank_one(c):
            entangled.append(c)
    return products, entangled


PRODUCTS, ENTANGLED = _corpus(0, 300)


def test_corpus_truth():
    assert all(_rank_one(c) for c in PRODUCTS)
    assert not any(_rank_one(c) for c in ENTANGLED)


@pytest.mark.parametrize("check", [True, False], ids=["checked", "unchecked"])
def test_unscaled_corpus_exits_right(check):
    # the bound passes every product the criteria factorize at scale 1
    for c in PRODUCTS:
        report = analyze(CoeffTensor(c), oracle_check=check)
        assert report.exit_code == 0, (c, report.error)
        assert report.reconstruction_residual <= 1e-14 * np.abs(c).max()
    for c in ENTANGLED:
        assert analyze(CoeffTensor(c), oracle_check=check).exit_code == 1


@pytest.mark.parametrize("scale", [SCALE, 1 / SCALE], ids=["2^600", "2^-600"])
@pytest.mark.parametrize("check", [True, False], ids=["checked", "unchecked"])
def test_scaled_corpus_never_exits_zero_on_an_entangled_input(scale, check):
    for c in ENTANGLED:
        report = analyze(CoeffTensor(c * scale), oracle_check=check)
        assert report.exit_code != 0, (c, report.decided_by, report.reconstruction_residual)
    for c in PRODUCTS:
        report = analyze(CoeffTensor(c * scale), oracle_check=check)
        assert report.exit_code != 1 or not check


def test_sum_factors_that_do_not_rebuild_are_an_error():
    t = CoeffTensor(SUM_AT_2_600 * SCALE)
    report = analyze(t, oracle_check=False)
    assert report.verdict is Outcome.FACTORIZED and report.decided_by == "sum"
    bound = t.max_abs * (32e-9 + 2 * 16 * float(np.finfo(float).eps))
    assert report.reconstruction_residual > bound
    assert report.error == (
        f"factors from 'sum' reconstruct with residual "
        f"{report.reconstruction_residual!r} > bound {bound!r}"
    )
    assert report.exit_code == 2


def test_a_disagreement_keeps_its_error():
    report = analyze(CoeffTensor(SUM_AT_2_600 * SCALE))
    assert report.exit_code == 2
    assert report.error.startswith("criterion 'sum' says factorized but the oracle found")


def test_a_nan_residual_fails_the_bound(monkeypatch):
    monkeypatch.setattr(pipeline, "_reconstruction_residual", lambda normalized, c: math.nan)
    report = analyze(CoeffTensor([[1, 2], [2, 4]]), oracle_check=False)
    assert report.exit_code == 2
    assert report.error.startswith("factors from 'sum' reconstruct with residual nan > bound ")


def test_a_zero_multi_sum_factor_is_inconclusive():
    verdict = multiparty_sum_test(CoeffTensor(ZERO_FACTOR_AT_2_600 * SCALE))
    assert verdict.outcome is Outcome.INCONCLUSIVE
    assert "out of range" in verdict.reason


@pytest.mark.parametrize("check", [True, False], ids=["checked", "unchecked"])
def test_a_zero_multi_sum_factor_reaches_the_oracle(check):
    report = analyze(CoeffTensor(ZERO_FACTOR_AT_2_600 * SCALE), oracle_check=check)
    assert [stage.name for stage in report.stages] == ["multi-sum", "oracle"]
    assert report.verdict is Outcome.ENTANGLED and report.decided_by == "oracle"
    assert report.exit_code == 1


@pytest.mark.parametrize(
    "c, want",
    [(SUM_AT_2_600, 2), (ZERO_FACTOR_AT_2_600, 1)],
    ids=["sum-2x3", "multi-sum-1x3x2"],
)
@pytest.mark.parametrize("flags", [[], ["--no-oracle-check"]], ids=["checked", "unchecked"])
def test_cli_exits_without_a_traceback(tmp_path, capsys, c, want, flags):
    path = tmp_path / "f8.txt"
    path.write_text(dumps(CoeffTensor(c * SCALE)))
    assert main(["analyze", "--input", str(path), *flags]) == want
    out = capsys.readouterr()
    text = out.out + out.err
    assert "Traceback" not in text
    errors = [line for line in text.splitlines() if line.startswith("error:")]
    assert len(errors) == (1 if want == 2 else 0)
