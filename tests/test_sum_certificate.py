"""Reports with the reconstruction certificate against reports without it.

Inside `analyze` a sum criterion on the call's own tensor offers its
factors to the call's reconstruction once its first leading index
passes (`bipartite._offer`), and stops walking when the reconstruction
residual certifies every residual left (`pipeline._Reconstruction`).
Without it (`bipartite._RECONSTRUCTION` swapped for a variable no one
sets) every walk runs in full.  Whole reports must be the same, floats
compared as uint64 bits and stage times dropped (`_canon`), on:

- a seeded family of products with r = 2..4, most of them with noise
  of 1e-17 to 1e-5 times max|c|, at scales 2**k for k in {0, +-300,
  +-450, +-700} (k = 0 a third of the time), with eps_mag from 1e-13 to 1e-4 and eps_rank varied;
  the certificate must fire on at least a third of it;
- the corpora of test_sum_kernel_equivalence, test_degenerate_screens,
  test_live_support, test_oracle_decision and
  test_cancelling_factor_sums;
- products perturbed so that the full walk's largest residual lies
  between `least` and twice it, where the certificate must decline.
"""

import contextvars
import math
from functools import reduce

import numpy as np
import pytest

import entcheck.bipartite as bipartite
import entcheck.pipeline as pipeline
from entcheck import CoeffTensor, Tolerances, analyze
from test_cancelling_factor_sums import _products as cancelling_products
from test_degenerate_screens import CORPUS as DEGENERATE_CORPUS
from test_degenerate_screens import _canon
from test_live_support import SHAPES as LIVE_SHAPES
from test_live_support import SUPPORTS, _embedded, zero_sum_product
from test_oracle_decision import CORPUS as ORACLE_CORPUS
from test_sum_kernel_equivalence import CORPUS as KERNEL_CORPUS

# scale 1 three times as often as each extreme one
SCALES = [0, 0, 0, 300, -300, 450, -450, 700, -700]


def _family(seed=29, count=600):
    """(c, tol, method, oracle_check) for `count` seeded products."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        r = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(1, 13, size=r))
        if math.prod(dims) > 4096 or dims[0] < 2:
            continue
        vectors = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims]
        c = reduce(np.multiply.outer, vectors)
        if rng.random() < 0.7:
            noise = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
            c = c + 10.0 ** rng.uniform(-17, -5) * np.abs(c).max() * noise
        c = c * 2.0 ** SCALES[int(rng.integers(len(SCALES)))]
        tol = Tolerances(eps_mag=10.0 ** rng.uniform(-13, -4), eps_rank=10.0 ** rng.uniform(-12, -5))
        method = "auto" if r > 2 or rng.random() < 0.8 else str(rng.choice(["sum", "multi"]))
        cases.append((c, tol, method, bool(rng.random() < 0.8)))
    return cases


def _without_certificate(monkeypatch):
    monkeypatch.setattr(bipartite, "_RECONSTRUCTION", contextvars.ContextVar("unset", default=None))


def _fired(monkeypatch):
    """A list that gets each certificate's answer."""
    answers = []
    certifies = pipeline._Reconstruction.certifies

    def spy(self, *args):
        answers.append(certifies(self, *args))
        return answers[-1]

    monkeypatch.setattr(pipeline._Reconstruction, "certifies", spy)
    return answers


def _assert_same_reports(monkeypatch, cases):
    """Each (c, tol, method, oracle_check) gives the same report with and
    without the certificate; returns the certificate's answers."""
    with monkeypatch.context() as m:
        answers = _fired(m)
        new = [analyze(CoeffTensor(c), tol, method, check) for c, tol, method, check in cases]
    with monkeypatch.context() as m:
        _without_certificate(m)
        old = [analyze(CoeffTensor(c), tol, method, check) for c, tol, method, check in cases]
    for k, (a, b) in enumerate(zip(new, old)):
        assert _canon(a) == _canon(b), k
    return answers


FAMILY = _family()


def test_the_seeded_family_reports_the_same_and_the_certificate_fires(monkeypatch):
    answers = _assert_same_reports(monkeypatch, FAMILY)
    assert sum(answers) >= len(FAMILY) / 3, (sum(answers), len(answers))


def _corpus_cases():
    yield "kernel", [t.array for t in KERNEL_CORPUS.values()]
    yield "degenerate", list(DEGENERATE_CORPUS.values())
    live = [zero_sum_product(*shape) for shape in LIVE_SHAPES]
    for support in SUPPORTS:
        rng = np.random.default_rng(sum(support))
        m2, n2 = support
        live += [_embedded(rng, m2, n2, m2 + 2, n2 + 3, product).array for product in (True, False)]
    yield "live", live
    yield "oracle", [t.array for t in ORACLE_CORPUS]
    yield "cancelling", [t.array for rho in (1e-8, 1e-7) for _, t in cancelling_products(rho)]


CORPORA = dict(_corpus_cases())


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_the_corpora_report_the_same(monkeypatch, name):
    cases = [(c, Tolerances(), "auto", check) for c in CORPORA[name] for check in (True, False)]
    _assert_same_reports(monkeypatch, cases)


def _walk_max(c, tol):
    """(largest residual of the full sum walk, largest of its head slab,
    `least`) for a tensor with a nonzero total."""
    t = CoeffTensor(c)
    total, partials = t._sums
    r = t.party_count
    if r == 2:
        power, floor = total, t.max_abs * t.max_abs
    else:
        power, floor = total ** (r - 1), t.max_abs * abs(total) ** (r - 1)
    worst = [float(resid.max()) for *_, resid, _ in bipartite._sum_slabs(t.array, partials, power, floor, tol)]
    return max(worst), worst[0], tol.eps_mag * floor


def _near_least(seed=31, count=60):
    """Products with one entry past the head slab moved so that the full
    walk's largest residual lies in (least, 2 least] while the head
    slab's stay at most least, so the walk offers its factors."""
    rng = np.random.default_rng(seed)
    tol = Tolerances(eps_mag=1e-9)
    cases = []
    while len(cases) < count:
        dims = [(24, 24), (6, 5, 4), (4, 3, 3, 3)][len(cases) % 3]
        c = reduce(np.multiply.outer, [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims])
        at = (int(rng.integers(1, dims[0])),) + tuple(int(rng.integers(d)) for d in dims[1:])
        step = np.exp(1j * rng.uniform(0, 2 * math.pi))
        base, _, least = _walk_max(c, tol)
        bumped = c.copy()
        bumped[at] += step * 1e-6 * np.abs(c).max()
        unit = (_walk_max(bumped, tol)[0] - base) / 1e-6
        moved = c.copy()
        moved[at] += step * rng.uniform(1.05, 1.95) * least / unit * np.abs(c).max()
        worst, head, least = _walk_max(moved, tol)
        if head <= least < worst <= 2 * least:
            cases.append((moved, tol, "auto", True))
    return cases


def test_the_certificate_declines_near_least(monkeypatch):
    cases = _near_least()
    answers = _assert_same_reports(monkeypatch, cases)
    assert len(answers) == len(cases) and not any(answers)
