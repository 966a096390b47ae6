"""Who asks for the reconstruction, and how often it is formed.

Inside `analyze` a sum walk asks the call's reconstruction to certify
the rest of the walk only after a head slab (first leading index) whose
residuals all sit at or under `least` = fl(eps_mag * floor): the
certificate bounds every residual of the walk, the head's included, so
it could only decline after a head above `least`.  Checked on 64 x 64
products of factors 1 + 0.3 z (z complex normal), whose |S| is far
above max|c|, with entry (40, 7) moved by 2 to 6 times eps_mag *
max|c|: the head slab's residuals exceed `least` without violating, and
(40, 7) violates.  Such a walk must not ask (`_Reconstruction.certifies`
is not called) and must normalize nothing and walk no reconstruction,
and its report must be the one without the certificate.

Every factorized route takes its normalized factors and residual from
`pipeline._Reconstruction.of`, so each `analyze` makes one
normalization and one reconstruction walk on the routes that no
certificate reaches: sign-flip, mag-phase, the screened oracle and the
unscreened oracle.
"""

import collections
import contextvars
from functools import reduce

import numpy as np
import pytest

import entcheck.bipartite as bipartite
import entcheck.pipeline as pipeline
from entcheck import CoeffTensor, Outcome, Tolerances, analyze, gen_product_state
from test_degenerate_screens import _canon
from test_live_support import _zero_sum, zero_sum_product

TOL = Tolerances(eps_mag=1e-9)
AT = (40, 7)


@pytest.fixture
def counts(monkeypatch):
    tally = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    certifies = counted("certify", pipeline._Reconstruction.certifies)
    monkeypatch.setattr(pipeline._Reconstruction, "certifies", certifies)
    monkeypatch.setattr(pipeline, "normalize_factors", counted("normalize", pipeline.normalize_factors))
    monkeypatch.setattr(
        pipeline, "_reconstruction_residual", counted("reconstruct", pipeline._reconstruction_residual)
    )
    return tally


def _moved_product(seed):
    """A 64 x 64 product with entry (40, 7) moved by 2 to 6 times
    eps_mag * max|c|.  The move shifts column 7's sum as well, so a much
    larger one can make the head slab violate in column 7."""
    rng = np.random.default_rng(seed)
    c = np.outer(*[1 + 0.3 * (rng.standard_normal(64) + 1j * rng.standard_normal(64)) for _ in range(2)])
    step = np.exp(1j * rng.uniform(0, 2 * np.pi)) * rng.uniform(2, 6)
    c[AT] += step * TOL.eps_mag * np.abs(c).max()
    return c


def _head_and_violations(c):
    """(largest residual of the sum walk's head slab, `least`, the flat
    indices of every violation of the full walk)."""
    t = CoeffTensor(c)
    total, partials = t._sums
    floor = t.max_abs * t.max_abs
    slabs = list(bipartite._sum_slabs(t.array, partials, total, floor, TOL))
    violations = np.concatenate([offset + np.flatnonzero(viol) for offset, *_, viol in slabs])
    return float(slabs[0][3].max()), TOL.eps_mag * floor, violations


SEEDS = range(5)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_input_has_a_head_above_least_and_one_violation(seed):
    c = _moved_product(seed)
    head, least, violations = _head_and_violations(c)
    assert head > least
    assert list(violations) == [np.ravel_multi_index(AT, c.shape)]


@pytest.mark.parametrize("seed", SEEDS)
def test_a_head_slab_above_least_does_not_ask(monkeypatch, counts, seed):
    c = _moved_product(seed)
    report = analyze(CoeffTensor(c), TOL)
    assert (report.verdict, report.decided_by, report.witness) == (Outcome.ENTANGLED, "sum", AT)
    assert {key: counts[key] for key in ("certify", "normalize", "reconstruct")} == {
        "certify": 0,
        "normalize": 0,
        "reconstruct": 0,
    }
    monkeypatch.setattr(bipartite, "_RECONSTRUCTION", contextvars.ContextVar("unset", default=None))
    assert _canon(report) == _canon(analyze(CoeffTensor(c), TOL))


def _generic(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def _zero_sum_row_product():
    rng = np.random.default_rng(1)
    return np.outer(_zero_sum(rng, 6), _generic(rng, 5))


def _zero_total_product():
    rng = np.random.default_rng(3)
    return reduce(np.multiply.outer, [_zero_sum(rng, 2), _generic(rng, 3), _generic(rng, 4)])


ROUTES = [
    ("sign-flip", _zero_sum_row_product, "auto", ["sum", "sign-flip", "oracle"], "sum"),
    ("mag-phase", lambda: zero_sum_product(6, 5), "auto", ["sum", "sign-flip", "mag-phase", "oracle"], "mag-phase"),
    ("screened-oracle", _zero_total_product, "auto", ["multi-sum", "oracle"], "oracle"),
    ("unscreened-oracle", lambda: gen_product_state((6, 5), 4).array, "oracle", ["oracle"], "oracle"),
]


@pytest.mark.parametrize(
    "make, method, stages, decided_by", [r[1:] for r in ROUTES], ids=[r[0] for r in ROUTES]
)
def test_each_factorized_route_forms_one_reconstruction(counts, make, method, stages, decided_by):
    report = analyze(CoeffTensor(make()), method=method)
    assert [s.name for s in report.stages] == stages
    assert (report.verdict, report.decided_by, report.error) == (Outcome.FACTORIZED, decided_by, None)
    assert {key: counts[key] for key in ("normalize", "reconstruct")} == {"normalize": 1, "reconstruct": 1}
