"""The rank oracle's one-step decision against exact complete-pivot ranks.

`unfolding_ranks` decides "rank 1 or not" per mode unfolding from one
elimination step; `numeric_rank(unfold(t, k))` runs the full elimination
and stays the reference.  On a seeded corpus every decision must match
the reference, and every entry reported as an exact rank must equal it.
"""

import tracemalloc

import numpy as np

import entcheck.oracle as oracle
from entcheck import (
    CoeffTensor,
    Outcome,
    Tolerances,
    analyze,
    gen_product_state,
    gen_random_state,
)
from entcheck.cli import main
from entcheck.oracle import numeric_rank, oracle_factorized, unfold, unfolding_ranks

PSI = CoeffTensor([[1, -1], [-1, 1]])
PSI_PRIME = CoeffTensor([[1, -1, 0, 0], [0, 0, 1, -1]])


def ghz(r):
    c = np.zeros((2,) * r, dtype=complex)
    c[(0,) * r] = 1
    c[(1,) * r] = 1
    return CoeffTensor(c)


def w_state(r):
    c = np.zeros((2,) * r, dtype=complex)
    for k in range(r):
        c[tuple(int(j == k) for j in range(r))] = 1
    return CoeffTensor(c)


def _vector(rng, d):
    return rng.normal(size=d) + 1j * rng.normal(size=d)


def near_cutoff_matrices(count=200, seed=41):
    """Rank-2 matrices whose second term is 1e-13..1e-7 of the first, so
    the second pivot lands on both sides of eps_rank = 1e-10."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m, n = (int(d) for d in rng.integers(2, 7, size=2))
        first = np.outer(_vector(rng, m), _vector(rng, n))
        second = np.outer(_vector(rng, m), _vector(rng, n))
        size = 10.0 ** rng.uniform(-13, -7)
        out.append(CoeffTensor(first + size * np.abs(first).max() / np.abs(second).max() * second))
    return out


def corpus():
    rng = np.random.default_rng(2027)
    tensors = []
    for r in range(2, 6):
        for seed in range(50):
            dims = tuple(int(d) for d in rng.integers(1, 6, size=r))
            tensors.append(gen_product_state(dims, seed))
            tensors.append(gen_random_state(dims, seed))
    for r in range(2, 7):
        tensors += [ghz(r), w_state(r)]
    tensors += [CoeffTensor(np.diag(np.ones(k))) for k in range(1, 7)]
    tensors += [PSI, PSI_PRIME, CoeffTensor(np.ones((3, 4, 2)))]
    tensors += near_cutoff_matrices()
    for seed in range(100):
        dims = tuple(int(d) for d in rng.integers(2, 5, size=3))
        first = gen_product_state(dims, seed).array
        second = gen_product_state(dims, seed + 1000).array
        tensors.append(CoeffTensor(first + 10.0 ** rng.uniform(-13, -7) * second))
    for scale in (1e-200, 1e200):
        for seed in range(10):
            tensors.append(CoeffTensor(scale * gen_product_state((3, 4), seed).array))
            tensors.append(CoeffTensor(scale * gen_random_state((2, 3, 2), seed).array))
    for seed in range(60):
        # products with exact zeros: ties and zero rows/columns
        vectors = [_vector(rng, int(d)) * (rng.uniform(size=int(d)) < 0.6)
                   for d in rng.integers(2, 5, size=3)]
        for v in vectors:
            v[0] = 1.0
        tensors.append(CoeffTensor(np.multiply.outer(np.multiply.outer(vectors[0], vectors[1]),
                                                     vectors[2])))
    return tensors


CORPUS = corpus()


def test_corpus_size():
    assert len(CORPUS) >= 800


def test_decision_matches_numeric_rank():
    mismatches = []
    for n, t in enumerate(CORPUS):
        decision = unfolding_ranks(t)
        assert len(decision.ranks) == t.party_count
        exact = [numeric_rank(unfold(t, k)) for k in range(1, t.party_count + 1)]
        for k, (reported, rank) in enumerate(zip(decision.ranks, exact), start=1):
            if (reported == 1) != (rank == 1):
                mismatches.append((n, t.dims, k, reported, rank))
            elif reported == ">=2":
                side = min(t.dims[k - 1], t.entry_count // t.dims[k - 1])
                assert side > 2 and rank >= 2
            else:
                assert reported == rank, (n, t.dims, k)
        assert decision.factorized == all(rank == 1 for rank in exact)
        assert oracle_factorized(t) == decision.factorized
    assert mismatches == []


def test_near_cutoff_corpus_straddles_the_cutoff():
    verdicts = [unfolding_ranks(t).factorized for t in near_cutoff_matrices()]
    assert 20 <= sum(verdicts) <= 180


def test_exact_ranks_where_reported():
    assert analyze(PSI_PRIME).oracle_ranks == (2, 2)
    assert analyze(gen_random_state((6, 6), 3)).oracle_ranks == (">=2", ">=2")
    assert unfolding_ranks(ghz(3)).ranks == (2, 2, 2)
    assert unfolding_ranks(CoeffTensor(np.ones((3, 4, 2)))).ranks == (1, 1, 1)


def test_pivot_ratio_is_second_over_first_pivot():
    assert unfolding_ranks(CoeffTensor(np.diag([1.0, 3e-11]))).pivot_ratio == 3e-11
    assert unfolding_ranks(CoeffTensor(np.diag([2.0, 1.0]))).pivot_ratio == 0.5
    assert unfolding_ranks(ghz(4)).pivot_ratio == 1.0


def _write(tmp_path, text):
    path = tmp_path / "state.txt"
    path.write_text(text)
    return str(path)


def test_cli_pivot_ratio_below_cutoff_is_factorized(tmp_path, capsys):
    path = _write(tmp_path, "dims: 2 2\n1 0  0 0\n0 0  3e-11 0\n")
    assert main(["analyze", "--input", path, "--method", "oracle"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "verdict: factorized" in lines
    assert "oracle_pivot_ratio: 3e-11" in lines
    assert lines.index("oracle_pivot_ratio: 3e-11") == lines.index("oracle_ranks: 1 1") + 1


def test_cli_pivot_ratio_above_cutoff_is_entangled(tmp_path, capsys):
    path = _write(tmp_path, "dims: 2 2\n1 0  0 0\n0 0  3e-10 0\n")
    assert main(["analyze", "--input", path, "--method", "oracle"]) == 1
    out = capsys.readouterr().out
    assert "verdict: entangled" in out
    assert "oracle_ranks: 2 2" in out
    assert "oracle_pivot_ratio: 3e-10" in out


def test_disagreement_error_prints_the_stage_ranks():
    # a loose magnitude tolerance lets the sum test accept a perturbed product
    c = np.array([[4, -3j, 5], [-8, 6j, -10], [12, -9j, 15]], dtype=complex)
    c[0, 0] += 1e-3
    report = analyze(CoeffTensor(c), Tolerances(eps_mag=0.1))
    assert report.oracle_agrees is False
    assert report.stages[-1].verdict.reason == "unfolding ranks >=2 >=2"
    assert report.error.endswith("unfolding ranks >=2 >=2")


def test_pipeline_runs_no_full_elimination_or_unfolding_copy(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle decision must not call this")

    monkeypatch.setattr(oracle, "numeric_rank", refuse)
    monkeypatch.setattr(oracle, "unfold", refuse)
    assert analyze(gen_random_state((8, 8), 1)).verdict is Outcome.ENTANGLED
    assert analyze(gen_random_state((2, 3, 4), 1)).oracle_agrees
    assert analyze(gen_product_state((4, 5), 1)).oracle_agrees


def test_decision_allocates_less_than_twice_the_input():
    t = gen_random_state((64, 64, 64), 5)
    tracemalloc.start()
    try:
        unfolding_ranks(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * t.array.nbytes
