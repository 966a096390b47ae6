"""The magnitude/phase layer forms each fact once.

- `magnitude_phase_test`, `phase_constant` and `solve_phases` each form
  the support (|c|, the cutoff, the live lines, the largest entry) once
  per call, and `solve_phases` takes its constant and d from the test's
  own support rather than from the public `phase_constant`.
- On a seeded corpus of matrices with at least two rows (products,
  zero-sum products, dead rows and columns, entries below the zero
  cutoff, entangled sums, phase noise), every output is bit-identical
  to a frozen copy of the layer in which `solve_phases` ran `_support`
  three times: verdicts, witnesses, factors, phase constants and every
  `PhaseSolution` field, floats compared as uint64.
- One-row and one-column products are factorized.  The column sums of a
  one-row argument grid used to be that row itself, so adding the
  squared-up copies doubled the row that the identity walk then read.
"""

import math

import numpy as np
import pytest

import entcheck.phase as phase
from entcheck import CoeffTensor, Outcome, analyze, magnitude_phase_test, phase_constant, solve_phases
from entcheck.bipartite import MAG_PHASE, LocalFactors, Verdict, Witness, _first_sum_violation, _witness
from entcheck.cli import main
from entcheck.core import TWO_PI, DEFAULT_TOLERANCES, _outer_residual, _slab_walk
from entcheck.phase import _PHASE_ROUNDING, _arguments, _column_sums, circular_distance

# --- frozen copy of the layer with three support passes per solve_phases ---------


def _old_support(t, tol):
    c = t.array
    cmax, _, top = t._range
    mags = np.abs(c)
    cutoff = tol.eps_rank * cmax
    live_rows = mags.max(axis=1) > cutoff
    live_cols = mags.max(axis=0) > cutoff
    return mags, cutoff, live_rows, live_cols, divmod(top, c.shape[1])


def _old_column_sums(x):
    while len(x) > 1:
        half = len(x) // 2
        x = np.concatenate((x[:half] + x[half : 2 * half], x[2 * half :]))
    return x[0]


def _old_phase_constant(t, tol=DEFAULT_TOLERANCES, ref=None):
    c = t.array
    mags, cutoff, live_rows, live_cols, (ti, tj) = _old_support(t, tol)
    i, j = (ti, tj) if ref is None else ref
    m2, n2 = int(live_rows.sum()), int(live_cols.sum())
    d = max(m2, n2)

    def arg(row, col):
        return _arguments(c[row, col : col + 1], mags[row, col : col + 1] <= cutoff)[0]

    row = _arguments(c[i, live_cols], mags[i, live_cols] <= cutoff)
    col = _arguments(c[live_rows, j], mags[live_rows, j] <= cutoff)
    if m2 < n2:
        col = np.append(col, np.full(d - m2, arg(ti, j)))
    elif n2 < m2:
        row = np.append(row, np.full(d - n2, arg(i, tj)))
    return float((row.sum() + np.add.accumulate(col)[-1] - d * arg(i, j)) % TWO_PI)


def _old_magnitude_phase_test(t, tol=DEFAULT_TOLERANCES):
    c = t.array
    n = c.shape[1]
    mags, cutoff, live_rows, live_cols, (ri, rj) = _old_support(t, tol)
    cmax = mags[ri, rj]
    s = mags.sum()
    row_mag = mags.sum(axis=1)
    col_mag = mags.sum(axis=0)
    witness = _first_sum_violation(mags, (row_mag, col_mag), s, cmax * cmax, tol)
    if witness is not None:
        return Verdict(Outcome.ENTANGLED, MAG_PHASE, witness=witness, reason="magnitude condition violated")
    m2, n2 = int(live_rows.sum()), int(live_cols.sum())
    d = max(m2, n2)
    args = _arguments(c, mags <= cutoff)
    row_arg = args.sum(axis=1)
    col_arg = _old_column_sums(args)
    if m2 < d:
        col_arg += (d - m2) * args[ri]
    elif n2 < d:
        row_arg += (d - n2) * args[:, rj]
    const = (row_arg[ri] + col_arg[rj] - d * args[ri, rj]) % TWO_PI
    ref_size = row_arg[ri] + col_arg[rj] + d * args[ri, rj] + TWO_PI
    for offset, block, _ in _slab_walk(args):
        rows = slice(offset // n, offset // n + len(block))
        sums = np.add.outer(row_arg[rows], col_arg)
        x = sums - d * block - const
        dist = np.abs(x - TWO_PI * np.rint(x / TWO_PI))
        if dist.max() > tol.eps_ang:
            bound = np.where(mags[rows] <= 10.0 * cutoff, 10.0 * tol.eps_ang, tol.eps_ang)
            bound += _PHASE_ROUNDING * (sums + d * block + ref_size)
            bad = (mags[rows] > cutoff) & (dist > bound)
            if bad.any():
                return Verdict(
                    Outcome.ENTANGLED,
                    MAG_PHASE,
                    witness=_witness(c, offset, bad, dist),
                    reason="phase condition violated",
                )
    ref_arg = math.atan2(c[ri, rj].imag, c[ri, rj].real)
    alpha = np.where(live_rows, np.angle(c[:, rj]) - ref_arg, 0.0)
    beta = np.where(live_cols, np.angle(c[ri]), 0.0)
    a = row_mag / s * np.exp(1j * alpha)
    b = col_mag * np.exp(1j * beta)
    worst, where = _outer_residual(c, (a, b))
    if worst > 10.0 * tol.eps_mag * cmax:
        witness = Witness(tuple(int(v) for v in divmod(where, n)), worst)
        return Verdict(
            Outcome.ENTANGLED,
            MAG_PHASE,
            witness=witness,
            reason="phase grid admits no consistent factor reconstruction",
        )
    return Verdict(Outcome.FACTORIZED, MAG_PHASE, factors=LocalFactors((a, b)))


def _old_solve_phases(t, tol=DEFAULT_TOLERANCES):
    verdict = _old_magnitude_phase_test(t, tol)
    if not verdict.is_factorized:
        return None
    a, b = verdict.factors.vectors
    _, _, live_rows, live_cols, _ = _old_support(t, tol)
    return phase.PhaseSolution(
        d=int(max(live_rows.sum(), live_cols.sum())),
        c=_old_phase_constant(t, tol),
        alpha=tuple(_arguments(a, a == 0).tolist()),
        beta=tuple(_arguments(b, b == 0).tolist()),
        mags_a=tuple(np.abs(a).tolist()),
        mags_b=tuple(np.abs(b).tolist()),
    )


# --- corpus ----------------------------------------------------------------------


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _kill(rng, v, tiny):
    """Zero (or, with `tiny`, shrink below the zero cutoff) a few
    coordinates of `v`, keeping at least one."""
    v = v.copy()
    dead = rng.random(len(v)) < 0.3
    dead[rng.integers(len(v))] = False
    v[dead] = 1e-12 * v[dead] if tiny else 0
    return v


def _corpus():
    rng = np.random.default_rng(1600)
    out = []
    for k in range(240):
        m, n = (int(v) for v in rng.integers(2, 41, size=2))
        a, b = _cvec(rng, m), _cvec(rng, n)
        kind = k % 8
        if kind in (1, 3, 5, 7):  # zero-sum factors
            a, b = a - a.mean(), b - b.mean()
        if kind in (2, 3):
            a, b = _kill(rng, a, tiny=False), _kill(rng, b, tiny=False)
        if kind in (4, 5):
            a, b = _kill(rng, a, tiny=k % 16 < 8), _kill(rng, b, tiny=k % 16 >= 8)
        c = np.multiply.outer(a, b)
        if kind == 6:  # an entangled sum of two products
            c = c + np.multiply.outer(_cvec(rng, m), _cvec(rng, n))
        if kind == 7:  # phase noise at one live entry: magnitudes still factor
            i, j = np.unravel_index(np.argmax(np.abs(c)), c.shape)
            c[i, j] *= np.exp(1j * 10.0 ** -rng.integers(3, 8))
        out.append((f"{k}-{m}x{n}", c))
    # the identity holds exactly on this grid; only the reconstruction catches it
    out.append(("2pi/3", np.exp(2j * np.pi / 3 * np.array([[1, 2, 0], [2, 1, 0], [0, 0, 0]]))))
    return out


CORPUS = _corpus()
IDS = [name for name, _ in CORPUS]


def _assert_same_verdict(old, new):
    assert new.outcome is old.outcome
    assert (new.decided_by, new.reason) == (old.decided_by, old.reason)
    assert (new.witness is None) == (old.witness is None)
    if old.witness is not None:
        assert new.witness.index == old.witness.index
        assert _bits(new.witness.residual) == _bits(old.witness.residual)
    assert (new.factors is None) == (old.factors is None)
    if old.factors is not None:
        for u, v in zip(old.factors.vectors, new.factors.vectors):
            assert np.array_equal(_bits(v.view(float)), _bits(u.view(float)))


def test_corpus_reaches_every_outcome():
    reasons = {magnitude_phase_test(CoeffTensor(c)).reason for _, c in CORPUS}
    assert reasons == {
        None,
        "magnitude condition violated",
        "phase condition violated",
        "phase grid admits no consistent factor reconstruction",
    }
    assert {c.shape[0] < c.shape[1] for _, c in CORPUS} == {True, False}  # wide and tall


@pytest.mark.parametrize("c", [c for _, c in CORPUS], ids=IDS)
def test_outputs_are_bit_identical_to_the_frozen_layer(c):
    t = CoeffTensor(c)
    verdict = magnitude_phase_test(t)
    _assert_same_verdict(_old_magnitude_phase_test(t), verdict)
    top = divmod(t._range[2], c.shape[1])
    for ref in (None, top, tuple(int(v) for v in np.argwhere(np.abs(c) > 1e-8 * np.abs(c).max())[-1])):
        assert _bits(phase_constant(t, ref=ref)) == _bits(_old_phase_constant(t, ref=ref))
    old, new = _old_solve_phases(t), solve_phases(t)
    assert (new is None) == (not verdict.is_factorized) == (old is None)
    if old is not None:
        assert new.d == old.d
        for field in ("c", "alpha", "beta", "mags_a", "mags_b"):
            assert np.array_equal(_bits(getattr(new, field)), _bits(getattr(old, field))), field


# --- one support pass per call ---------------------------------------------------


@pytest.fixture
def support_calls(monkeypatch):
    calls = []
    real = phase._support

    def counted(t, tol):
        calls.append(t)
        return real(t, tol)

    monkeypatch.setattr(phase, "_support", counted)
    return calls


PRODUCT = np.multiply.outer([1, -1, 2j, 0], [3, 1j, -3, 0, 1])  # a dead row and a dead column
ENTANGLED = np.eye(3)


@pytest.mark.parametrize("c", [PRODUCT, ENTANGLED], ids=["product", "entangled"])
@pytest.mark.parametrize("call", [magnitude_phase_test, phase_constant, solve_phases], ids=lambda f: f.__name__)
def test_each_public_call_forms_the_support_once(support_calls, call, c):
    call(CoeffTensor(c))
    assert len(support_calls) == 1


def test_solve_phases_takes_its_constant_from_the_test_pass(monkeypatch, support_calls):
    def public_phase_constant(*args, **kwargs):
        raise AssertionError("solve_phases called the public phase_constant")

    monkeypatch.setattr(phase, "phase_constant", public_phase_constant)
    t = CoeffTensor(PRODUCT)
    solution = solve_phases(t)
    assert len(support_calls) == 1
    monkeypatch.undo()
    assert (solution.d, solution.c) == (4, phase_constant(t))


# --- one-row and one-column products ---------------------------------------------


def _line_products():
    rng = np.random.default_rng(16)
    out = []
    for shape in [(1, 2), (1, 3), (1, 50), (1, 20000), (50, 1)]:
        for seed in range(3):
            c = np.multiply.outer(_cvec(rng, shape[0]), _cvec(rng, shape[1]))
            out.append((f"{shape[0]}x{shape[1]}-{seed}", c))
            dead = c.copy()
            if shape[0] == 1:
                dead[0, seed % shape[1]] = 0
            else:
                dead[seed % shape[0], 0] = 0
            out.append((f"{shape[0]}x{shape[1]}-{seed}-dead", dead))
    return out


LINES = _line_products()


@pytest.mark.parametrize("c", [c for _, c in LINES], ids=[name for name, _ in LINES])
def test_one_row_and_one_column_products_are_factorized(c):
    t = CoeffTensor(c)
    assert magnitude_phase_test(t).outcome is Outcome.FACTORIZED
    solution = solve_phases(t)
    assert solution.d == max(int((np.abs(c) > 0).any(axis=1).sum()), int((np.abs(c) > 0).any(axis=0).sum()))
    cmax = np.abs(c).max()
    for i, j in np.argwhere(np.abs(c) > 0):
        angle = np.angle(c[i, j]) % TWO_PI
        assert circular_distance(solution.alpha[i] + solution.beta[j], angle) < 1e-9
        assert abs(solution.mags_a[i] * solution.mags_b[j] - abs(c[i, j])) <= 1e-12 * cmax
    report = analyze(t, method="phase")
    assert report.exit_code == 0
    assert report.oracle_agrees is True


def test_cli_decides_a_one_row_file_by_the_phase_test(tmp_path, capsys):
    path = tmp_path / "row.txt"
    path.write_text("dims: 1 3\n1 0  0 1  -2 0\n")
    assert main(["analyze", "--input", str(path), "--method", "phase"]) == 0
    out = capsys.readouterr().out
    assert "verdict: factorized\n" in out
    assert "oracle_ranks: 1 1\n" in out
    assert "oracle_agrees: true\n" in out


@pytest.mark.parametrize("m", [1, 2, 3])
def test_column_sums_are_an_array_of_their_own(m):
    x = np.arange(m * 5, dtype=float).reshape(m, 5)
    sums = _column_sums(x)
    assert not np.shares_memory(sums, x)
    assert np.array_equal(sums, x.sum(axis=0))
