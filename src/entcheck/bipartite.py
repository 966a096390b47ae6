"""Bipartite factorization tests based on coefficient sums.

The primary test compares each coefficient, scaled by the total sum,
against the product of its row and column sums.  When the total sum
vanishes the product-of-sums shortcut may still certify entanglement;
when that is silent too, the matrix is degenerate and either outcome is
possible, so the caller must escalate (sign-flip heuristic, then the
magnitude/phase test).

Every criterion here is a per-entry identity, so one violating index
decides.  The sum criterion runs on the core slab walk: each slab of
about 2**14 entries forms its own products, residuals, bounds and mask,
and the walk stops at the first slab that decides, so no temporary is
the size of the matrix.  The sign-flip screen's per-line maxima are
formed on the same walk.  `multiparty_sum_test` and step 1 of
`magnitude_phase_test` run the same check (`_first_sum_violation`).
Every bound is relative to the input's own scale (max|c|, the total sum
and their products), with no absolute floor, so scaling a state by 1e-5
leaves its verdict alone.

On a zero-total matrix the full passes run only when the O(m + n) row,
column and total sums cannot settle their question: the vanishing-total
branch is degenerate outright when max|rowsum| * max|colsum| bounds
every sum product below the cut, and the sign-flip screen skips its
per-line maxima when the flipped totals already pick the first line or
a bound from the sums rules the product term out.  A slab of the sum
criterion whose residuals all sit below eps_mag times the floor skips
its per-entry bounds.  Each screen only skips work: verdicts, witnesses
and factors are those of the full passes, bit for bit.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass, replace
from functools import reduce
from typing import Optional

import numpy as np

from .core import CoeffTensor, DEFAULT_TOLERANCES, Tolerances, _over_pivot, _slab_walk


class Outcome(enum.Enum):
    FACTORIZED = "factorized"
    ENTANGLED = "entangled"
    INCONCLUSIVE = "inconclusive"


# decided_by tags
SUM = "sum"                  # total-sum criterion
SUM_PRODUCT = "sum-product"  # vanishing total sum, nonzero row*column sum product
MAG_PHASE = "mag-phase"      # magnitude + phase criterion
MULTI_SUM = "multi-sum"      # r-party sum criterion
ORACLE = "oracle"            # rank-based oracle
DEGENERATE = "degenerate"    # total sum and all sum products vanish


class PreconditionError(ValueError):
    """A caller violated an operation's stated precondition."""


@dataclass(frozen=True, eq=False)
class LocalFactors:
    """Per-party coefficient vectors of a claimed factorization.

    Equal factors have equal dims and equal vectors, entry by entry, as
    for `CoeffTensor`; like it, they are not hashable."""

    vectors: tuple

    def __init__(self, vectors):
        vecs = tuple(np.asarray(v, dtype=complex) for v in vectors)
        if len(vecs) < 2:
            raise ValueError("need at least two factor vectors")
        for k, v in enumerate(vecs):
            if v.ndim != 1 or v.size == 0:
                raise ValueError(f"factor {k} is not a nonempty vector")
            if not v.any():
                raise ValueError(f"factor {k} is the zero vector")
        for v in vecs:
            v.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def dims(self):
        return tuple(v.size for v in self.vectors)

    def __eq__(self, other):
        if not isinstance(other, LocalFactors):
            return NotImplemented
        return self.dims == other.dims and all(map(np.array_equal, self.vectors, other.vectors))

    def outer(self) -> np.ndarray:
        """Dense outer product of the factor vectors."""
        return reduce(np.multiply.outer, self.vectors)


@dataclass(frozen=True)
class Witness:
    """Concrete violating index plus the raw residual |LHS - RHS| there."""

    index: tuple
    residual: float


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    decided_by: str
    factors: Optional[LocalFactors] = None
    witness: Optional[Witness] = None
    reason: Optional[str] = None

    @property
    def is_factorized(self):
        return self.outcome is Outcome.FACTORIZED

    @property
    def is_entangled(self):
        return self.outcome is Outcome.ENTANGLED

    @property
    def is_inconclusive(self):
        return self.outcome is Outcome.INCONCLUSIVE


def _require_bipartite(t: CoeffTensor):
    if t.party_count != 2:
        raise PreconditionError(f"bipartite test needs 2 parties, got {t.party_count}")


def _first_index(mask: np.ndarray) -> tuple:
    """Multi-index of the first True entry in row-major order."""
    flat = int(mask.argmax())
    if not mask.flat[flat]:
        raise ValueError("no True entry in the mask")
    return tuple(int(i) for i in np.unravel_index(flat, mask.shape))


def _witness(c: np.ndarray, offset: int, mask: np.ndarray, values: np.ndarray) -> Witness:
    """Witness at the first True entry of a slab's mask, `offset` the
    slab's first flat index in `c`, with the slab's value there."""
    j = int(mask.argmax())
    index = np.unravel_index(offset + j, c.shape)
    return Witness(tuple(int(i) for i in index), float(values.flat[j]))


def _sum_slabs(c, partials, power, floor, tol):
    """The sum criterion c * power == outer product of the partial sums,
    one slab of `c` at a time.

    `power` is S^(r-1) for the total sum S of r parties and `partials`
    are the r per-party sum vectors.  Yields (offset, block, rhs, resid,
    viol) per slab: the slab's first flat index, its entries, its part
    of the outer product, |lhs - rhs|, and the mask of entries where the
    residual exceeds eps_mag * max(floor, |lhs|, |rhs|).  The products
    are formed in the order of the full outer product, so each residual
    is bit-identical to a whole-array evaluation.  A NaN residual
    (inf - inf after overflow) counts as a violation.

    A slab whose residuals are all at most fl(eps_mag * floor) skips the
    bound: rounding is monotone, so every entry's bound is at least that
    value and the mask is all False.  A NaN residual fails that
    comparison and takes the full bound.  The residuals are formed
    first, so a slab that takes the bound forms lhs a second time for
    its |lhs|.
    """
    eps = tol.eps_mag
    least = eps * floor
    for offset, block, rhs in _slab_walk(c, partials):
        lhs = block * power
        lhs -= rhs
        resid = np.abs(lhs)
        if resid.max() <= least:
            yield offset, block, rhs, resid, np.zeros(resid.shape, dtype=bool)
            continue
        # |lhs| from lhs formed again, the same bits, in the spent buffer
        bound = np.abs(np.multiply(block, power, out=lhs))
        np.maximum(bound, np.abs(rhs), out=bound)
        np.maximum(bound, floor, out=bound)
        bound *= eps
        yield offset, block, rhs, resid, ~(resid <= bound)


def _first_sum_violation(c, partials, power, floor, tol) -> Optional[Witness]:
    """Witness at the first violation of the sum criterion in row-major
    order, or None; stops at the first slab that has one."""
    for offset, _, _, resid, viol in _sum_slabs(c, partials, power, floor, tol):
        if viol.any():
            return _witness(c, offset, viol, resid)
    return None


# Relative slack of the tier screen in `sum_test`.  The screen bounds
# every computed |rowsum_i * colsum_j| from below by the computed
# min|rowsum| * min|colsum|.  Each side is the exact |rowsum_i| |colsum_j|
# within a few units of roundoff u = 2**-53: the complex product within
# sqrt(5) u (Brent, Percival and Zimmermann, 2007), each modulus within
# about u, the screen's real product within u, and subnormal parts of a
# normal modulus add at most 2**-1075 each, a further u or so.  So when
# the screen clears a normal threshold by 2**-46 = 128 u, no computed
# product can fall to the threshold.
_SCREEN_SLACK = 1.0 + 2.0**-46
_TINY = float(np.finfo(float).tiny)


def _all_within(top, threshold) -> bool:
    """Whether computed values that `top` bounds from above, within a
    few units of roundoff, are certainly all at most `threshold`.  The
    upper-bound twin of the tier screen: `top` is raised to the normal
    floor, where the absolute rounding of subnormal results is at most
    2**-52 of it, and by `_SCREEN_SLACK`.  A NaN `top` certifies
    nothing."""
    return max(top, _TINY) * _SCREEN_SLACK <= threshold


def sum_test(t: CoeffTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Decide factorization of a matrix from its coefficient sums.

    With a nonzero total sum the criterion is exact: the matrix is a
    product iff c_ij * total == rowsum_i * colsum_j everywhere, and the
    factors fall out of the sums.  With a vanishing total sum a nonzero
    rowsum * colsum product certifies entanglement; otherwise the matrix
    is degenerate and the verdict is inconclusive.  When max|rowsum| *
    max|colsum| already bounds every product below the cut, that is
    settled from the sums in O(m + n), without walking the products.

    Violations where one side vanishes identically are exact
    contradictions immune to the tolerance choice, so the witness is, in
    order of preference, the first nonzero coefficient whose row-sum *
    column-sum product vanishes (tier 1), the first vanishing coefficient
    with a nonzero product (tier 2), or the first violation (tier 3).
    The matrix is walked in slabs.  When no entry and no sum product can
    vanish, tiers 1 and 2 are empty and the walk stops at the first
    violating slab; otherwise it goes on, keeping the first index of each
    tier, until a tier-1 index turns up or the matrix ends.
    """
    _require_bipartite(t)
    c = t.array
    cmax, cmin, _ = t._range
    total, (rows, cols) = t._sums
    scale = cmax * cmax

    if abs(total) <= tol.eps_mag * cmax:
        bound = tol.eps_mag * scale
        # every computed |rowsum_i * colsum_j| is at most max|rowsum| *
        # max|colsum| within the rounding the tier screen allows for, so
        # the products are walked only when that bound may exceed `bound`
        if not _all_within(float(np.abs(rows).max()) * float(np.abs(cols).max()), bound):
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
    for offset, block, prods, resid, viol in _sum_slabs(c, (rows, cols), total, scale, tol):
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
    return Verdict(Outcome.FACTORIZED, SUM, factors=extract_local_factors(t))


def vanishing_sum_test(t: CoeffTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Entanglement shortcut for matrices whose total sum vanishes.

    Precondition: |total sum| within tolerance of zero, relative to the
    largest coefficient magnitude.
    """
    _require_bipartite(t)
    if abs(t._sums[0]) > tol.eps_mag * t.max_abs:
        raise PreconditionError("vanishing_sum_test requires a vanishing total sum")
    return sum_test(t, tol)


def extract_local_factors(t: CoeffTensor) -> LocalFactors:
    """Factor vectors (a, b) with a_i = rowsum_i / total, b_j = colsum_j.

    Only valid once the sum criterion has been verified; requires a
    nonzero total sum.  A total below 2**-960 (a matrix near 1e-310) is
    scaled up with the row sums by an exact power of two before the
    division (`core._over_pivot`), so the factors stay finite; larger
    totals divide as they are.
    """
    _require_bipartite(t)
    total, (rows, cols) = t._sums
    if total == 0:
        raise PreconditionError("cannot extract local factors with zero total sum")
    return LocalFactors((_over_pivot(rows, total), cols))


def equivalence_scalar(
    f1: LocalFactors, f2: LocalFactors, tol: Tolerances = DEFAULT_TOLERANCES
) -> Optional[complex]:
    """Scalar s with f2 = (s * a1, b1 / s), if the factor pairs match.

    Two factorizations of the same bipartite state differ exactly by such
    a reciprocal rescaling.  The scalar is computed from the first
    sufficiently nonzero coordinate of f1's first vector and verified on
    every coordinate of both vectors, each within eps_mag times the larger
    max modulus of the two vectors compared, so the check has no absolute
    floor and means the same at every scale.  Returns None when no scalar
    works, and for a non-finite scalar or one of modulus at most eps_mag.
    """
    if len(f1.vectors) != 2 or len(f2.vectors) != 2:
        raise ValueError("scalar equivalence applies to bipartite factor pairs")
    if f1.dims != f2.dims:
        raise ValueError(f"factor dimensions differ: {f1.dims} vs {f2.dims}")
    a1, b1 = f1.vectors
    a2, b2 = f2.vectors

    pivots = np.abs(a1) > tol.eps_mag * np.abs(a1).max()
    k = int(np.argmax(pivots))
    s = complex(a2[k] / a1[k])
    if abs(s) <= tol.eps_mag or not cmath.isfinite(s):
        return None

    def close(u, v):
        bound = tol.eps_mag * max(float(np.abs(u).max()), float(np.abs(v).max()))
        return bool(np.all(np.abs(u - v) <= bound))

    if close(a2, s * a1) and close(b2, b1 / s):
        return s
    return None


def sign_flip_recover(t: CoeffTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Retry the sum test after negating one row or one column.

    Negating a single basis vector of either subsystem leaves the state's
    factorization status unchanged but can move a degenerate matrix into
    the sum criterion's reach.  Negating row i turns the total S into
    S - 2 * rowsum_i, keeps every row-sum magnitude and turns colsum_b
    into colsum_b - 2 * c_ib (a column is the transpose); the largest
    sum-product magnitude is the product of the largest sum magnitudes.
    So the first row, then column, whose negation the sum test decides is
    found from the original sums, and the sum test runs once on it, with
    factors mapped back through the flip.  No such flip -> inconclusive,
    and the caller falls through to the magnitude/phase test.

    Per axis the total term is O(m + n).  The product term needs the
    per-line maxima of `_flipped_sum_max`, a pass over the matrix, and
    that pass runs only when it can move the choice: when the total term
    does not already settle the first line, and no O(m + n) bound rules
    the product term out on every line.  Every flipped column sum is at
    most max|colsum| + 2 max|c| in modulus, so no line passes when
    max|rowsum| * (max|colsum| + 2 max|c|) is certainly at most the cut
    (`_all_within`).  A product with a zero-sum row factor settles on row
    0 by its total; one with two zero-sum factors has near-zero sums on
    both axes, and neither pass runs.
    """
    _require_bipartite(t)
    c = t.array
    cmax = t.max_abs
    total, sums = t._sums
    cut = tol.eps_mag * cmax * cmax
    for axis in (0, 1):
        label = "row" if axis == 0 else "column"
        own, other = sums[axis], sums[1 - axis]
        conclusive = np.abs(total - 2 * own) > tol.eps_mag * cmax
        top = np.abs(own).max()
        if not conclusive[0] and not _all_within(
            float(top) * (float(np.abs(other).max()) + 2 * cmax), cut
        ):
            conclusive |= top * _flipped_sum_max(c, sums, axis) > cut
        if not conclusive.any():
            continue
        idx = int(conclusive.argmax())
        verdict = sum_test(t._line_negated(axis, idx), tol)
        reason = f"{label} {idx} negated"
        if verdict.is_factorized:
            vecs = [v.copy() for v in verdict.factors.vectors]
            vecs[axis][idx] = -vecs[axis][idx]
            return replace(verdict, factors=LocalFactors(vecs), reason=reason)
        if verdict.is_entangled:
            return replace(verdict, reason=reason)
        # within rounding of a cutoff the screen can pick a flip that the
        # test still finds degenerate; stay inconclusive rather than rescan
        break
    return Verdict(
        Outcome.INCONCLUSIVE,
        DEGENERATE,
        reason="every single row/column negation stays degenerate",
    )


def _flipped_sum_max(c: np.ndarray, sums, axis: int) -> np.ndarray:
    """Per row (axis 0) or column (axis 1) of `c`: the largest magnitude
    of the other axis's sums once that line is negated, max |other - 2 *
    line|.  Rows are finished slab by slab, columns are a running maximum
    over the slab walk; no full-size temporary is formed."""
    rows, cols = sums
    if axis == 0:
        return np.concatenate([np.abs(cols - 2 * block).max(axis=1) for _, block, _ in _slab_walk(c)])
    worst = np.zeros(c.shape[1])
    for offset, block, _ in _slab_walk(c):
        i = offset // c.shape[1]
        np.maximum(worst, np.abs(rows[i : i + len(block), None] - 2 * block).max(axis=0), out=worst)
    return worst
