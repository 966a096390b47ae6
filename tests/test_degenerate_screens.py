"""O(m + n) screens on the zero-total path against the full passes they skip.

The vanishing-total branch of `sum_test`, the flip screen of
`sign_flip_recover`, `_sum_slabs` and the phase identity walk of
`magnitude_phase_test` each skip a full pass when a bound from the sums
(or a slab's residuals and distances) proves the pass cannot change the
outcome.  The negated copy of the sign-flip stage takes its parent's
`_range`.  Frozen copies of the code before the screens run beside the
new code on a seeded corpus of zero-total matrices: products with a
zero-sum row factor, a zero-sum column factor or both, sums of two such
products, real and complex, sizes 1..40 and a few of 100..300, some with
zero lines, and tolerances placed within 2**-40 of every screen's
threshold and of the decision it guards.  Every report field must be
equal, floats compared as uint64; only the stage times differ.

Operation counts pin the skipped passes: no `_flipped_sum_max` and no
vanishing-branch walk on the products the screens settle.
"""

import dataclasses
import enum
import math
from dataclasses import replace

import numpy as np
import pytest

import entcheck.bipartite as bipartite
import entcheck.core as core
import entcheck.pipeline as pipeline
from entcheck.bipartite import (
    DEGENERATE,
    MAG_PHASE,
    SUM,
    SUM_PRODUCT,
    LocalFactors,
    Outcome,
    Verdict,
    Witness,
    _require_bipartite,
    _SCREEN_SLACK,
    _sum_slabs,
    _TINY,
    _witness,
    sign_flip_recover,
    sum_test,
)
from entcheck.core import TWO_PI, CoeffTensor, DEFAULT_TOLERANCES, Tolerances
from entcheck.core import _outer_residual, _slab_walk
from entcheck.phase import (
    _PHASE_ROUNDING,
    _arguments,
    _column_sums,
    _support,
    magnitude_phase_test,
)

# --- frozen copies of the code before the screens -------------------------------


def _old_sum_slabs(c, partials, power, floor, tol):
    eps = tol.eps_mag
    for offset, block, rhs in _slab_walk(c, partials):
        lhs = block * power
        bound = np.abs(lhs)
        lhs -= rhs
        resid = np.abs(lhs)
        np.maximum(bound, floor, out=bound)
        bound *= eps
        viol = ~(resid <= bound)
        if viol.any():
            rhs_bound = np.abs(rhs)
            rhs_bound *= eps
            np.maximum(bound, rhs_bound, out=bound)
            viol = ~(resid <= bound)
        yield offset, block, rhs, resid, viol


def _old_first_sum_violation(c, partials, power, floor, tol):
    for offset, _, _, resid, viol in _old_sum_slabs(c, partials, power, floor, tol):
        if viol.any():
            return _witness(c, offset, viol, resid)
    return None


def _old_sum_test(t, tol=DEFAULT_TOLERANCES):
    _require_bipartite(t)
    c = t.array
    cmax, cmin, _ = t._range
    total, (rows, cols) = t._sums
    scale = cmax * cmax

    if abs(total) <= tol.eps_mag * cmax:
        bound = tol.eps_mag * scale
        for offset, _, prods in _slab_walk(c, (rows, cols)):
            mags = np.abs(prods)
            viol = mags > bound
            if viol.any():
                return Verdict(
                    Outcome.ENTANGLED,
                    SUM_PRODUCT,
                    witness=_witness(c, offset, viol, mags),
                    reason="total sum vanishes but a row-sum * column-sum product does not",
                )
        return Verdict(
            Outcome.INCONCLUSIVE,
            DEGENERATE,
            reason="total sum and every row-sum * column-sum product vanish",
        )

    entry_cut = tol.eps_mag * cmax
    prod_cut = tol.eps_mag * cmax * cmax
    least_prod = float(np.abs(rows).min()) * float(np.abs(cols).min())
    screened = cmin > entry_cut and least_prod > max(prod_cut, _TINY) * _SCREEN_SLACK
    found = {}
    for offset, block, prods, resid, viol in _old_sum_slabs(c, (rows, cols), total, scale, tol):
        if not viol.any():
            continue
        if screened:
            return Verdict(Outcome.ENTANGLED, SUM, witness=_witness(c, offset, viol, resid))
        entry_zero = np.abs(block) <= entry_cut
        prod_zero = np.abs(prods) <= prod_cut
        exact = viol & ~entry_zero & prod_zero
        if exact.any():
            return Verdict(Outcome.ENTANGLED, SUM, witness=_witness(c, offset, exact, resid))
        for tier, mask in ((2, viol & entry_zero & ~prod_zero), (3, viol)):
            if tier not in found and mask.any():
                found[tier] = _witness(c, offset, mask, resid)
    if found:
        return Verdict(Outcome.ENTANGLED, SUM, witness=found[min(found)])
    return Verdict(Outcome.FACTORIZED, SUM, factors=LocalFactors((rows / total, cols)))


def _old_flipped_sum_max(c, sums, axis):
    rows, cols = sums
    if axis == 0:
        return np.concatenate([np.abs(cols - 2 * block).max(axis=1) for _, block, _ in _slab_walk(c)])
    worst = np.zeros(c.shape[1])
    for offset, block, _ in _slab_walk(c):
        i = offset // c.shape[1]
        np.maximum(worst, np.abs(rows[i : i + len(block), None] - 2 * block).max(axis=0), out=worst)
    return worst


def _old_sign_flip_recover(t, tol=DEFAULT_TOLERANCES):
    _require_bipartite(t)
    c = t.array
    cmax = t.max_abs
    total, sums = t._sums
    for axis in (0, 1):
        label = "row" if axis == 0 else "column"
        own = sums[axis]
        conclusive = (np.abs(total - 2 * own) > tol.eps_mag * cmax) | (
            np.abs(own).max() * _old_flipped_sum_max(c, sums, axis) > tol.eps_mag * cmax * cmax
        )
        if not conclusive.any():
            continue
        idx = int(conclusive.argmax())
        flipped = c.copy()
        lines = flipped if axis == 0 else flipped.T
        lines[idx] = -lines[idx]
        verdict = _old_sum_test(CoeffTensor._adopt(flipped), tol)
        reason = f"{label} {idx} negated"
        if verdict.is_factorized:
            vecs = [v.copy() for v in verdict.factors.vectors]
            vecs[axis][idx] = -vecs[axis][idx]
            return replace(verdict, factors=LocalFactors(vecs), reason=reason)
        if verdict.is_entangled:
            return replace(verdict, reason=reason)
        break
    return Verdict(
        Outcome.INCONCLUSIVE,
        DEGENERATE,
        reason="every single row/column negation stays degenerate",
    )


def _old_phase_walk(t, tol):
    """The phase identity walk of the frozen magnitude/phase test: yields
    (offset, dist, bad) per slab, without stopping."""
    c = t.array
    n = c.shape[1]
    mags, cutoff, live_rows, live_cols, (ri, rj) = _support(t, tol)
    m2, n2 = int(live_rows.sum()), int(live_cols.sum())
    d = max(m2, n2)
    args = _arguments(c, mags <= cutoff)
    row_arg = args.sum(axis=1)
    col_arg = _column_sums(args)
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
        bound = np.where(mags[rows] <= 10.0 * cutoff, 10.0 * tol.eps_ang, tol.eps_ang)
        bound += _PHASE_ROUNDING * (sums + d * block + ref_size)
        bad = (mags[rows] > cutoff) & (dist > bound)
        yield offset, dist, bad


def _old_magnitude_phase_test(t, tol=DEFAULT_TOLERANCES):
    _require_bipartite(t)
    c = t.array
    n = c.shape[1]
    mags, cutoff, live_rows, live_cols, (ri, rj) = _support(t, tol)
    cmax = mags[ri, rj]
    s = mags.sum()
    row_mag = mags.sum(axis=1)
    col_mag = mags.sum(axis=0)
    witness = _old_first_sum_violation(mags, (row_mag, col_mag), s, cmax * cmax, tol)
    if witness is not None:
        return Verdict(Outcome.ENTANGLED, MAG_PHASE, witness=witness, reason="magnitude condition violated")
    for offset, dist, bad in _old_phase_walk(t, tol):
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


# --- bit-level comparison of verdicts and reports ------------------------------


def _canon(x):
    """x as nested tuples in which every float is its uint64 bits and
    every array its dtype, shape and raw bits; stage times are dropped."""
    if isinstance(x, np.ndarray):
        flat = np.ascontiguousarray(x).reshape(-1)
        bits = flat.view(np.uint64) if flat.dtype.kind in "fc" else flat
        return ("array", str(x.dtype), x.shape, bits.tobytes())
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        return ("f", int(np.float64(x).view(np.uint64)))
    if isinstance(x, (complex, np.complexfloating)):
        return ("c", _canon(float(np.real(x))), _canon(float(np.imag(x))))
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, enum.Enum):
        return x.value
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            (f.name, _canon(getattr(x, f.name)))
            for f in dataclasses.fields(x)
            if f.name != "elapsed_ms"
        )
    if isinstance(x, (list, tuple)):
        return tuple(_canon(v) for v in x)
    assert x is None or isinstance(x, str), type(x)
    return x


def _assert_same(new, old):
    assert _canon(new) == _canon(old)


# --- corpus --------------------------------------------------------------------


def _vec(rng, n, real, zero_sum):
    v = rng.standard_normal(n)
    if not real:
        v = v + 1j * rng.standard_normal(n)
    return v - v.mean() if zero_sum else v


def _product(rng, m, n, real, kind):
    a = _vec(rng, m, real, kind in ("row", "both"))
    b = _vec(rng, n, real, kind in ("col", "both"))
    return np.multiply.outer(a, b)


def _case(seed):
    rng = np.random.default_rng(seed)
    if seed % 25 == 24:
        m, n = (int(x) for x in rng.integers(100, 301, 2))
    else:
        m, n = (int(x) for x in rng.integers(1, 41, 2))
    real = bool(rng.integers(2))
    kinds = ("row", "col", "both")
    kind = kinds[seed % 3]
    c = _product(rng, m, n, real, kind)
    if seed % 6 >= 3:  # a sum of two such products
        c = c + _product(rng, m, n, real, kinds[int(rng.integers(3))])
    if seed % 10 == 7:  # a dead row and column
        i, j = int(rng.integers(m + 1)), int(rng.integers(n + 1))
        c = np.insert(np.insert(c, i, 0, axis=0), j, 0, axis=1)
    c = c * 10.0 ** float(rng.integers(-4, 5))
    return c if c.any() else None


def _corpus(count=300):
    cases = {}
    for seed in range(count):
        c = _case(seed)
        if c is not None:
            cases[f"seed{seed}-{c.shape[0]}x{c.shape[1]}"] = c
    return cases


CORPUS = _corpus()
NEAR = [1.0 - 2.0**-40, 1.0 - 2.0**-46, 1.0, 1.0 + 2.0**-46, 1.0 + 2.0**-40]


def _mag_tolerances(values, cmax):
    """eps_mag values that put eps_mag * cmax**2 within 2**-40 of each
    value; values that give no valid tolerance are left out."""
    out = []
    for v in values:
        for f in NEAR:
            eps = float(v) / (cmax * cmax) * f
            if 0.0 < eps < 1.0:
                out.append(Tolerances(eps_mag=eps))
    return out


def _sum_resid_max(c, partials, power, floor):
    """The largest sum-criterion residual of every slab."""
    return [float(resid.max()) for *_, resid, _ in _old_sum_slabs(c, partials, power, floor, DEFAULT_TOLERANCES)]


def _tolerances(c):
    """Tolerances around each screen's threshold and the decision it
    guards, for the matrix c."""
    t = CoeffTensor(c)
    cmax = t.max_abs
    total, (rows, cols) = t._sums
    top_rows, top_cols = float(np.abs(rows).max()), float(np.abs(cols).max())
    values = [
        # vanishing branch: the screen and the largest product
        max(top_rows * top_cols, _TINY) * _SCREEN_SLACK,
        float(np.abs(np.multiply.outer(rows, cols)).max()),
        # flip screen, both axes: the bound and the largest product term
        max(top_rows * (top_cols + 2 * cmax), _TINY) * _SCREEN_SLACK,
        max(top_cols * (top_rows + 2 * cmax), _TINY) * _SCREEN_SLACK,
        top_rows * float(_old_flipped_sum_max(c, (rows, cols), 0).max()),
        top_cols * float(_old_flipped_sum_max(c, (rows, cols), 1).max()),
    ]
    # the sum criterion's fast path on the magnitudes: the least and the
    # largest of the slabs' cuts
    mags = np.abs(c)
    cuts = _sum_resid_max(mags, (mags.sum(axis=1), mags.sum(axis=0)), mags.sum(), cmax * cmax)
    tols = _mag_tolerances(values + [min(cuts), max(cuts)], cmax)
    # the sum criterion's fast path after the first row flip
    flipped = c.copy()
    flipped[0] = -flipped[0]
    ft = CoeffTensor(flipped)
    ftotal, fparts = ft._sums
    if ftotal != 0:
        tols += _mag_tolerances([max(_sum_resid_max(flipped, fparts, ftotal, cmax * cmax))], cmax)
    # the phase walk: eps_ang near the distances of a few entries
    dist = np.concatenate([d.reshape(-1) for _, d, _ in _old_phase_walk(t, DEFAULT_TOLERANCES)])
    for v in np.quantile(dist, [0.5, 1.0]):
        for f in NEAR:
            eps = float(v) * f
            if 0.0 < eps < math.pi:
                tols.append(Tolerances(eps_ang=eps))
    return tols


# --- the tests -----------------------------------------------------------------


def _stages(t, tol):
    return (
        (sum_test(t, tol), _old_sum_test(t, tol)),
        (sign_flip_recover(t, tol), _old_sign_flip_recover(t, tol)),
        (magnitude_phase_test(t, tol), _old_magnitude_phase_test(t, tol)),
    )


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_stages_match_the_frozen_passes(name):
    c = CORPUS[name]
    for tol in [DEFAULT_TOLERANCES] + _tolerances(c):
        for new, old in _stages(CoeffTensor(c), tol):
            _assert_same(new, old)


def _frozen_pipeline(monkeypatch):
    monkeypatch.setattr(pipeline, "sum_test", _old_sum_test)
    monkeypatch.setattr(pipeline, "sign_flip_recover", _old_sign_flip_recover)
    monkeypatch.setattr(pipeline, "magnitude_phase_test", _old_magnitude_phase_test)


@pytest.mark.parametrize("name", sorted(CORPUS)[::4])
def test_reports_match_the_frozen_pipeline(monkeypatch, name):
    c = CORPUS[name]
    new = pipeline.analyze(CoeffTensor(c))
    with monkeypatch.context() as m:
        _frozen_pipeline(m)
        old = pipeline.analyze(CoeffTensor(c))
    assert [s.name for s in new.stages] == [s.name for s in old.stages]
    _assert_same(new, old)


@pytest.mark.parametrize("slab", [1, 7, core._SLAB])
@pytest.mark.parametrize("name", [k for k in sorted(CORPUS)[::8] if CORPUS[k].size <= 1600])
def test_sum_slabs_fast_path_matches_the_two_step_bound(monkeypatch, slab, name):
    monkeypatch.setattr(core, "_SLAB", slab)
    c = CORPUS[name]
    mags = np.abs(c)
    partials, power, floor = (mags.sum(axis=1), mags.sum(axis=0)), mags.sum(), float(mags.max()) ** 2
    cuts = _sum_resid_max(mags, partials, power, floor)
    for v in [0.0, min(cuts), float(np.median(cuts)), max(cuts)]:
        for f in NEAR:
            eps = v / floor * f
            tol = Tolerances(eps_mag=eps) if eps > 0 else DEFAULT_TOLERANCES
            new = list(_sum_slabs(mags, partials, power, floor, tol))
            old = list(_old_sum_slabs(mags, partials, power, floor, tol))
            assert _canon(new) == _canon(old)


def test_negated_copy_takes_the_parents_range_and_its_own_sums():
    c = CORPUS[sorted(CORPUS)[0]]
    t = CoeffTensor(c)
    for axis in (0, 1):
        for idx in (0, c.shape[axis] - 1):
            flipped = c.copy()
            lines = flipped if axis == 0 else flipped.T
            lines[idx] = -lines[idx]
            copy = t._line_negated(axis, idx)
            fresh = CoeffTensor(flipped)
            assert np.array_equal(copy.array, fresh.array) and not copy.array.flags.writeable
            assert copy._range == fresh._range
            _assert_same(copy._sums, fresh._sums)
    assert t.array.flags.writeable is False and np.array_equal(t.array, c)


# --- skipped passes ------------------------------------------------------------


def _zero_sum_product(n, kinds, seed=3):
    rng = np.random.default_rng(seed)
    a = _vec(rng, n, False, "row" in kinds)
    b = _vec(rng, n, False, "col" in kinds)
    return CoeffTensor(np.multiply.outer(a, b) / n)


def _count(monkeypatch):
    """Count `_flipped_sum_max` calls per axis and `_slab_walk` calls with
    vectors in `bipartite`."""
    counts = {"flip": [], "walks": 0}
    flipped_sum_max, walk = bipartite._flipped_sum_max, bipartite._slab_walk

    def counting_max(c, sums, axis):
        counts["flip"].append(axis)
        return flipped_sum_max(c, sums, axis)

    def counting_walk(c, vectors=()):
        if vectors:
            counts["walks"] += 1
        return walk(c, vectors)

    monkeypatch.setattr(bipartite, "_flipped_sum_max", counting_max)
    monkeypatch.setattr(bipartite, "_slab_walk", counting_walk)
    return counts


def test_zero_sum_row_product_skips_the_full_passes(monkeypatch):
    t = _zero_sum_product(256, ("row",))
    counts = _count(monkeypatch)
    verdict = sum_test(t)
    assert verdict.decided_by == DEGENERATE and counts["walks"] == 0
    flip = sign_flip_recover(t)
    assert flip.is_factorized and flip.reason == "row 0 negated"
    assert counts["flip"] == []


def test_two_zero_sum_factors_skip_both_flip_passes(monkeypatch):
    t = _zero_sum_product(192, ("row", "col"))
    counts = _count(monkeypatch)
    assert sum_test(t).decided_by == DEGENERATE and counts["walks"] == 0
    assert sign_flip_recover(t).is_inconclusive
    assert counts["flip"] == [] and counts["walks"] == 0


def test_flip_pass_still_runs_when_the_product_term_can_decide(monkeypatch):
    # row 0 sums to zero, so its flip leaves the total at zero and the
    # total term first settles row 1; the product term settles row 0
    t = CoeffTensor(np.array([[1.0, -1.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
    counts = _count(monkeypatch)
    new = sign_flip_recover(t)
    assert counts["flip"] == [0] and new.reason == "row 0 negated"
    _assert_same(new, _old_sign_flip_recover(t))
