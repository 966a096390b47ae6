"""How much of a product each `analyze` call walks.

A product's sum criterion stops after its head slab once the
reconstruction residual of its factors certifies the rest, and
finalisation reuses that normalization and that residual.  Counted
here: the slabs `bipartite._sum_slabs` yields, and the calls of
`pipeline.normalize_factors` and `pipeline._reconstruction_residual`.

- a 256 x 256 product: the sum walk yields its head slab only, with
  one normalization and one reconstruction walk;
- a 2**14 qubit product: the same for the multi-sum;
- a random 256 x 256 matrix: the head slab decides, and nothing is
  normalized; with a zero entry the walk goes on past its failing head
  slab for an exact witness, and still normalizes nothing;
- two calls on one tensor do the same work each, and the tensor keeps
  nothing new, so nothing is cached across calls.
"""

import collections

import pytest

import entcheck.bipartite as bipartite
import entcheck.pipeline as pipeline
from entcheck import CoeffTensor, Outcome, analyze, gen_product_state, gen_random_state


@pytest.fixture
def counts(monkeypatch):
    tally = collections.Counter()
    sum_slabs = bipartite._sum_slabs

    def counted_slabs(*args, **kwargs):
        for slab in sum_slabs(*args, **kwargs):
            tally["slabs"] += 1
            yield slab

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(bipartite, "_sum_slabs", counted_slabs)
    monkeypatch.setattr(pipeline, "normalize_factors", counted("normalize", pipeline.normalize_factors))
    monkeypatch.setattr(
        pipeline, "_reconstruction_residual", counted("reconstruct", pipeline._reconstruction_residual)
    )
    return tally


def _random_with_a_zero():
    c = gen_random_state((256, 256), 4).array.copy()
    c[0, 0] = 0
    return CoeffTensor(c)


CASES = [
    ("product-256x256", lambda: gen_product_state((256, 256), 1), "sum", Outcome.FACTORIZED, 1, 1),
    ("product-2^14", lambda: gen_product_state((2,) * 14, 2), "multi-sum", Outcome.FACTORIZED, 1, 1),
    ("random-256x256", lambda: gen_random_state((256, 256), 3), "sum", Outcome.ENTANGLED, 1, 0),
    # a zero entry: the sum test looks for an exact witness in every slab
    # (its head row, then four runs of 64 rows), and a head slab that
    # fails offers nothing
    ("random-with-a-zero", _random_with_a_zero, "sum", Outcome.ENTANGLED, 5, 0),
]


@pytest.mark.parametrize(
    "make, decided_by, outcome, slabs, walks", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_each_call_walks_the_head_slab_and_one_reconstruction(
    counts, make, decided_by, outcome, slabs, walks
):
    t = make()
    before = set(vars(t))
    want = {"slabs": slabs, "normalize": walks, "reconstruct": walks}
    for _ in range(2):
        counts.clear()
        report = analyze(t)
        assert (report.verdict, report.decided_by, report.error) == (outcome, decided_by, None)
        assert {key: counts[key] for key in want} == want
    # the kept facts are the ones every call reads: sums and norm
    assert set(vars(t)) - before <= {"_sums", "norm"}
