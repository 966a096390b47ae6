"""Differential test: the shared sum-criterion kernel and the screened
sign-flip scan against frozen reference copies of the implementations
they replaced.

The reference functions below are the earlier code, kept verbatim apart
from names: the sum test, the multiparty sum test, the magnitude/phase
test with its phase-grid helpers, the phase constant, and the sign-flip
scan that re-ran the full sum test for every single row and column
negation.  On a seeded corpus of named states, products, random states
and zero-total-sum bipartite families the current code must give the
same outcome, decided_by, reason and witness index, a witness residual
within rtol 1e-12, and factors equal up to the bipartite reciprocal
rescaling.
"""

import math
from functools import reduce

import numpy as np
import pytest

import entcheck.bipartite as bipartite
from entcheck import (
    CoeffTensor,
    LocalFactors,
    Outcome,
    Verdict,
    Witness,
    equivalence_scalar,
    extract_local_factors,
    magnitude_phase_test,
    multiparty_sum_test,
    phase_constant,
    sign_flip_recover,
    sum_test,
)
from entcheck.core import TWO_PI, DEFAULT_TOLERANCES

TOL = DEFAULT_TOLERANCES

# --- frozen reference implementations ---------------------------------------


def _ref_first_index(mask):
    return tuple(int(i) for i in np.argwhere(mask)[0])


def _ref_select_sum_witness(entries, prods, viol, tol, cmax):
    entry_zero = np.abs(entries) <= tol.eps_mag * max(1.0, cmax)
    prod_zero = np.abs(prods) <= tol.eps_mag * max(1.0, cmax * cmax)
    for tier in (viol & ~entry_zero & prod_zero, viol & entry_zero & ~prod_zero, viol):
        if tier.any():
            return _ref_first_index(tier)
    raise AssertionError("witness requested without violations")


def ref_sum_test(t, tol=TOL):
    c = t.array
    cmax = t.max_abs
    total = c.sum()
    rows = c.sum(axis=1)
    cols = c.sum(axis=0)
    prods = np.outer(rows, cols)
    scale = max(1.0, cmax * cmax)

    if abs(total) <= tol.eps_mag * cmax:
        viol = np.abs(prods) > tol.eps_mag * scale
        if viol.any():
            idx = _ref_first_index(viol)
            return Verdict(
                Outcome.ENTANGLED,
                "sum-product",
                witness=Witness(idx, float(abs(prods[idx]))),
                reason="total sum vanishes but a row-sum * column-sum product does not",
            )
        return Verdict(
            Outcome.INCONCLUSIVE,
            "degenerate",
            reason="total sum and every row-sum * column-sum product vanish",
        )

    lhs = c * total
    resid = np.abs(lhs - prods)
    viol = resid > tol.eps_mag * np.maximum(scale, np.maximum(np.abs(lhs), np.abs(prods)))
    if viol.any():
        idx = _ref_select_sum_witness(c, prods, viol, tol, cmax)
        return Verdict(Outcome.ENTANGLED, "sum", witness=Witness(idx, float(resid[idx])))
    return Verdict(Outcome.FACTORIZED, "sum", factors=extract_local_factors(t))


def ref_sign_flip_recover(t, tol=TOL):
    c = t.array
    for axis in (0, 1):
        label = "row" if axis == 0 else "column"
        for idx in range(c.shape[axis]):
            flipped = c.copy()
            if axis == 0:
                flipped[idx, :] = -flipped[idx, :]
            else:
                flipped[:, idx] = -flipped[:, idx]
            verdict = ref_sum_test(CoeffTensor(flipped), tol)
            if verdict.is_inconclusive:
                continue
            reason = f"{label} {idx} negated"
            if verdict.is_factorized:
                vecs = [v.copy() for v in verdict.factors.vectors]
                vecs[axis][idx] = -vecs[axis][idx]
                return Verdict(
                    Outcome.FACTORIZED,
                    verdict.decided_by,
                    factors=LocalFactors(vecs),
                    reason=reason,
                )
            return Verdict(
                Outcome.ENTANGLED, verdict.decided_by, witness=verdict.witness, reason=reason
            )
    return Verdict(
        Outcome.INCONCLUSIVE,
        "degenerate",
        reason="every single row/column negation stays degenerate",
    )


def ref_multiparty_sum_test(t, tol=TOL):
    c = t.array
    r = t.party_count
    cmax = t.max_abs
    total = c.sum()
    if abs(total) <= tol.eps_mag * cmax:
        return Verdict(
            Outcome.INCONCLUSIVE,
            "multi-sum",
            reason="total sum vanishes; escalate to the rank oracle",
        )

    power = total ** (r - 1)
    partials = [
        c.sum(axis=tuple(ax for ax in range(r) if ax != k)) for k in range(r)
    ]
    rhs = reduce(np.multiply.outer, partials)
    lhs = c * power
    resid = np.abs(lhs - rhs)
    scale = max(1.0, cmax * abs(total) ** (r - 1))
    viol = resid > tol.eps_mag * np.maximum(scale, np.maximum(np.abs(lhs), np.abs(rhs)))
    if viol.any():
        idx = _ref_first_index(viol)
        return Verdict(Outcome.ENTANGLED, "multi-sum", witness=Witness(idx, float(resid[idx])))

    vectors = [partials[0] / power] + partials[1:]
    return Verdict(Outcome.FACTORIZED, "multi-sum", factors=LocalFactors(vectors))


def _ref_nonzero_structure(c, tol):
    mags = np.abs(c)
    cutoff = tol.eps_rank * mags.max()
    nz = mags > cutoff
    live_rows = np.flatnonzero(nz.any(axis=1))
    live_cols = np.flatnonzero(nz.any(axis=0))
    return mags, cutoff, live_rows, live_cols


def _ref_squared_submatrix(c, live_rows, live_cols):
    sub = c[np.ix_(live_rows, live_cols)]
    m2, n2 = sub.shape
    ri, rj = np.unravel_index(int(np.abs(sub).argmax()), sub.shape)
    row_map = list(live_rows)
    col_map = list(live_cols)
    if m2 < n2:
        pad = np.repeat(sub[ri : ri + 1, :], n2 - m2, axis=0)
        sub = np.vstack([sub, pad])
        row_map += [live_rows[ri]] * (n2 - m2)
    elif n2 < m2:
        pad = np.repeat(sub[:, rj : rj + 1], m2 - n2, axis=1)
        sub = np.hstack([sub, pad])
        col_map += [live_cols[rj]] * (m2 - n2)
    return sub, row_map, col_map


def _ref_args_grid(sq, cutoff):
    nz = np.abs(sq) > cutoff
    args = np.where(nz, np.mod(np.angle(sq), TWO_PI), 0.0)
    args[args >= TWO_PI] = 0.0
    return args, nz


def ref_phase_constant(t, tol=TOL, ref=None):
    c = t.array
    mags, cutoff, live_rows, live_cols = _ref_nonzero_structure(c, tol)
    sq, row_map, col_map = _ref_squared_submatrix(c, live_rows, live_cols)
    args, nz = _ref_args_grid(sq, cutoff)
    row_arg = args.sum(axis=1)
    col_arg = args.sum(axis=0)
    d = sq.shape[0]
    if ref is None:
        i, j = np.unravel_index(int(np.abs(sq).argmax()), sq.shape)
    else:
        candidates = [
            (i, j)
            for i in range(d)
            for j in range(d)
            if (row_map[i], col_map[j]) == tuple(ref) and nz[i, j]
        ]
        if not candidates:
            raise ValueError(f"reference entry {ref} is zero or outside the nonzero support")
        i, j = candidates[0]
    return float((row_arg[i] + col_arg[j] - d * args[i, j]) % TWO_PI)


def ref_magnitude_phase_test(t, tol=TOL):
    c = t.array
    m, n = c.shape
    mags, cutoff, live_rows, live_cols = _ref_nonzero_structure(c, tol)
    cmax = mags.max()

    s = mags.sum()
    row_mag = mags.sum(axis=1)
    col_mag = mags.sum(axis=0)
    lhs = mags * s
    rhs = np.outer(row_mag, col_mag)
    resid = np.abs(lhs - rhs)
    scale = max(1.0, cmax * cmax)
    viol = resid > tol.eps_mag * np.maximum(scale, np.maximum(lhs, rhs))
    if viol.any():
        idx = _ref_first_index(viol)
        return Verdict(
            Outcome.ENTANGLED,
            "mag-phase",
            witness=Witness(idx, float(resid[idx])),
            reason="magnitude condition violated",
        )

    sq, row_map, col_map = _ref_squared_submatrix(c, live_rows, live_cols)
    args, nz = _ref_args_grid(sq, cutoff)
    d = sq.shape[0]
    row_arg = args.sum(axis=1)
    col_arg = args.sum(axis=0)
    ri, rj = np.unravel_index(int(np.abs(sq).argmax()), sq.shape)
    const = (row_arg[ri] + col_arg[rj] - d * args[ri, rj]) % TWO_PI

    lhs_ang = np.add.outer(row_arg, col_arg) % TWO_PI
    rhs_ang = (d * args + const) % TWO_PI
    delta = (lhs_ang - rhs_ang) % TWO_PI
    dist = np.minimum(delta, TWO_PI - delta)
    # angle noise blows up as 1/|entry|; relax near the zero cutoff
    bound = np.where(np.abs(sq) <= 10.0 * cutoff, 10.0 * tol.eps_ang, tol.eps_ang)
    bad = nz & (dist > bound)
    if bad.any():
        wi, wj = _ref_first_index(bad)
        idx = (int(row_map[wi]), int(col_map[wj]))
        return Verdict(
            Outcome.ENTANGLED,
            "mag-phase",
            witness=Witness(idx, float(dist[wi, wj])),
            reason="phase condition violated",
        )

    alpha = np.zeros(m)
    beta = np.zeros(n)
    ref_row = row_map[ri]
    ref_col = col_map[rj]
    ref_arg = math.atan2(c[ref_row, ref_col].imag, c[ref_row, ref_col].real)
    for i in live_rows:
        alpha[i] = (np.angle(c[i, ref_col]) - ref_arg) % TWO_PI
    for j in live_cols:
        beta[j] = np.angle(c[ref_row, j]) % TWO_PI
    mags_a = row_mag / s
    mags_b = col_mag.copy()

    a = mags_a * np.exp(1j * alpha)
    b = mags_b * np.exp(1j * beta)
    recon_resid = np.abs(np.outer(a, b) - c)
    recon_bound = 10.0 * tol.eps_mag * max(1.0, cmax)
    if recon_resid.max() > recon_bound:
        idx = tuple(int(v) for v in np.unravel_index(int(recon_resid.argmax()), c.shape))
        return Verdict(
            Outcome.ENTANGLED,
            "mag-phase",
            witness=Witness(idx, float(recon_resid[idx])),
            reason="phase grid admits no consistent factor reconstruction",
        )
    return Verdict(Outcome.FACTORIZED, "mag-phase", factors=LocalFactors((a, b)))


# --- seeded corpus ------------------------------------------------------------


def _cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _zero_sum(rng, n):
    v = _cvec(rng, n)
    return v - v.mean()


def _corpus():
    ghz = np.zeros((2, 2, 2), dtype=complex)
    ghz[0, 0, 0] = ghz[1, 1, 1] = 1
    cases = {
        "EX1": [[4, -3j, 5], [-8, 6j, -10], [12, -9j, 15]],
        "PSI": [[1, -1], [-1, 1]],
        "PSI_PRIME": [[1, -1, 0, 0], [0, 0, 1, -1]],
        "GHZ": ghz,
        "elementary": [[1, 0], [0, 0]],
        "diagonal": np.diag([1.0, 1.0]),
        "sum-product": [[2, -1], [-1, 0]],
        "zero-sum-columns": [[1, -1], [1, -1]],
    }
    rng = np.random.default_rng(20190221)
    for k in range(40):
        dims = tuple(int(d) for d in rng.integers(2, 5, size=int(rng.integers(2, 5))))
        cases[f"product-{k}"] = reduce(np.multiply.outer, [_cvec(rng, d) for d in dims])
        cases[f"random-{k}"] = _cvec(rng, int(np.prod(dims))).reshape(dims)
    for k in range(40):
        m, n = (int(d) for d in rng.integers(2, 5, size=2))
        cases[f"integer-{k}"] = rng.integers(-2, 3, size=(m, n)) + 1j * rng.integers(-1, 2, size=(m, n))
    for n in (2, 3, 5, 8, 13, 32, 64):
        m = max(2, n // 2 + 1)
        cases[f"zs-row-{n}"] = np.outer(_zero_sum(rng, m), _cvec(rng, n))
        cases[f"zs-col-{n}"] = np.outer(_cvec(rng, m), _zero_sum(rng, n))
        cases[f"zs-both-{n}"] = np.outer(_zero_sum(rng, n), _zero_sum(rng, m))
        pair = np.outer(_zero_sum(rng, n), _zero_sum(rng, n))
        cases[f"zs-pair-{n}"] = pair + np.outer(_zero_sum(rng, n), _zero_sum(rng, n))
        a, b = _cvec(rng, m), _cvec(rng, n)
        a[rng.integers(m)] = 0
        cases[f"zero-row-product-{n}"] = np.outer(a, b)
        scrambled = np.outer(np.abs(a), np.abs(b)) * np.exp(1j * rng.uniform(0, TWO_PI, (m, n)))
        cases[f"phase-scrambled-{n}"] = scrambled
    return {name: CoeffTensor(c) for name, c in cases.items()}


CORPUS = _corpus()
BIPARTITE = {k: t for k, t in CORPUS.items() if t.party_count == 2}


def assert_same_verdict(ref, new):
    assert new.outcome is ref.outcome
    assert new.decided_by == ref.decided_by
    assert new.reason == ref.reason
    assert (new.witness is None) == (ref.witness is None)
    if ref.witness is not None:
        assert new.witness.index == ref.witness.index
        np.testing.assert_allclose(new.witness.residual, ref.witness.residual, rtol=1e-12)
    assert (new.factors is None) == (ref.factors is None)
    if ref.factors is None:
        return
    if len(ref.factors.vectors) == 2:
        assert equivalence_scalar(ref.factors, new.factors) is not None
    else:
        np.testing.assert_allclose(new.factors.outer(), ref.factors.outer(), rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", sorted(BIPARTITE))
def test_bipartite_criteria_match_reference(name):
    t = BIPARTITE[name]
    assert_same_verdict(ref_sum_test(t), sum_test(t))
    assert_same_verdict(ref_sign_flip_recover(t), sign_flip_recover(t))
    ref_mp = ref_magnitude_phase_test(t)
    assert_same_verdict(ref_mp, magnitude_phase_test(t))
    if ref_mp.is_factorized:
        assert phase_constant(t) == ref_phase_constant(t)
        first = tuple(int(i) for i in np.argwhere(np.abs(t.array) > 0)[0])
        assert phase_constant(t, ref=first) == ref_phase_constant(t, ref=first)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_multiparty_sum_test_matches_reference(name):
    t = CORPUS[name]
    assert_same_verdict(ref_multiparty_sum_test(t), multiparty_sum_test(t))


def test_corpus_reaches_every_branch():
    flips = [sign_flip_recover(t) for t in BIPARTITE.values()]
    reasons = {v.reason.split()[0] for v in flips if v.reason}
    assert {"row", "column", "every"} <= reasons
    assert {v.decided_by for v in flips} >= {"sum", "sum-product", "degenerate"}
    mp_reasons = {magnitude_phase_test(t).reason for t in BIPARTITE.values()}
    assert {None, "magnitude condition violated", "phase condition violated"} <= mp_reasons


def test_sign_flip_runs_at_most_one_sum_test(monkeypatch):
    calls = []
    original = bipartite.sum_test

    def counting(t, tol=TOL):
        calls.append(t.dims)
        return original(t, tol)

    monkeypatch.setattr(bipartite, "sum_test", counting)
    for t in BIPARTITE.values():
        calls.clear()
        sign_flip_recover(t)
        assert len(calls) <= 1
