"""Bipartite factorization tests based on coefficient sums.

The primary test compares each coefficient, scaled by the total sum,
against the product of its row and column sums.  When the total sum
vanishes the product-of-sums shortcut may still certify entanglement;
when that is silent too, the matrix is degenerate and either outcome is
possible, so the caller must escalate (sign-flip heuristic, then the
magnitude/phase test).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import reduce
from typing import Optional

import numpy as np

from .core import CoeffTensor, DEFAULT_TOLERANCES, Tolerances, _all_party_sums


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


@dataclass(frozen=True)
class LocalFactors:
    """Per-party coefficient vectors of a claimed factorization."""

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


def _select_sum_witness(entries, prods, viol, tol, cmax):
    """Pick the reported violation of the sum criterion.

    Violations where one side vanishes identically are exact
    contradictions immune to the tolerance choice, so they are preferred
    over plain numeric mismatches: first a nonzero coefficient whose
    row-sum * column-sum product vanishes, then a vanishing coefficient
    with a nonzero product, then the lexicographically first violation.
    """
    entry_zero = np.abs(entries) <= tol.eps_mag * cmax
    prod_zero = np.abs(prods) <= tol.eps_mag * cmax * cmax
    for tier in (viol & ~entry_zero & prod_zero, viol & entry_zero & ~prod_zero, viol):
        if tier.any():
            return _first_index(tier)
    raise AssertionError("witness requested without violations")


def _sum_violations(c, partials, power, floor, tol):
    """The sum criterion c * power == outer product of the partial sums.

    `power` is S^(r-1) for the total sum S of r parties and `partials`
    are the r per-party sum vectors.  Returns (rhs, resid, viol): the
    outer product, |lhs - rhs|, and the mask of indices where the
    residual exceeds eps_mag * max(floor, |lhs|, |rhs|).  A NaN residual
    (inf - inf after overflow) counts as a violation.
    """
    lhs = c * power
    rhs = reduce(np.multiply.outer, partials)
    resid = np.abs(lhs - rhs)
    bound = tol.eps_mag * np.maximum(floor, np.maximum(np.abs(lhs), np.abs(rhs)))
    return rhs, resid, ~(resid <= bound)


def sum_test(t: CoeffTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Decide factorization of a matrix from its coefficient sums.

    With a nonzero total sum the criterion is exact: the matrix is a
    product iff c_ij * total == rowsum_i * colsum_j everywhere, and the
    factors fall out of the sums.  With a vanishing total sum a nonzero
    rowsum * colsum product certifies entanglement; otherwise the matrix
    is degenerate and the verdict is inconclusive.
    """
    _require_bipartite(t)
    c = t.array
    cmax = t.max_abs
    total = c.sum()
    rows, cols = _all_party_sums(c)
    scale = cmax * cmax

    if abs(total) <= tol.eps_mag * cmax:
        prods = np.outer(rows, cols)
        viol = np.abs(prods) > tol.eps_mag * scale
        if viol.any():
            idx = _first_index(viol)
            return Verdict(
                Outcome.ENTANGLED,
                SUM_PRODUCT,
                witness=Witness(idx, float(abs(prods[idx]))),
                reason="total sum vanishes but a row-sum * column-sum product does not",
            )
        return Verdict(
            Outcome.INCONCLUSIVE,
            DEGENERATE,
            reason="total sum and every row-sum * column-sum product vanish",
        )

    prods, resid, viol = _sum_violations(c, (rows, cols), total, scale, tol)
    if viol.any():
        idx = _select_sum_witness(c, prods, viol, tol, cmax)
        return Verdict(Outcome.ENTANGLED, SUM, witness=Witness(idx, float(resid[idx])))
    return Verdict(Outcome.FACTORIZED, SUM, factors=extract_local_factors(t))


def vanishing_sum_test(t: CoeffTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Entanglement shortcut for matrices whose total sum vanishes.

    Precondition: |total sum| within tolerance of zero, relative to the
    largest coefficient magnitude.
    """
    _require_bipartite(t)
    if abs(t.array.sum()) > tol.eps_mag * t.max_abs:
        raise PreconditionError("vanishing_sum_test requires a vanishing total sum")
    return sum_test(t, tol)


def extract_local_factors(t: CoeffTensor) -> LocalFactors:
    """Factor vectors (a, b) with a_i = rowsum_i / total, b_j = colsum_j.

    Only valid once the sum criterion has been verified; requires a
    nonzero total sum.
    """
    _require_bipartite(t)
    c = t.array
    total = c.sum()
    if total == 0:
        raise PreconditionError("cannot extract local factors with zero total sum")
    return LocalFactors((c.sum(axis=1) / total, c.sum(axis=0)))


def equivalence_scalar(
    f1: LocalFactors, f2: LocalFactors, tol: Tolerances = DEFAULT_TOLERANCES
) -> Optional[complex]:
    """Scalar s with f2 = (s * a1, b1 / s), if the factor pairs match.

    Two factorizations of the same bipartite state differ exactly by such
    a reciprocal rescaling.  The scalar is computed from the first
    sufficiently nonzero coordinate of f1's first vector and verified on
    every coordinate of both vectors.  Returns None when no scalar works.
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
    if abs(s) <= tol.eps_mag:
        return None

    def close(u, v):
        bound = tol.eps_mag * max(1.0, float(np.abs(u).max()), float(np.abs(v).max()))
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
    found from the original sums in O(mn), and the sum test runs once on
    it, with factors mapped back through the flip.  No such flip ->
    inconclusive, and the caller falls through to the magnitude/phase test.
    """
    _require_bipartite(t)
    c = t.array
    cmax = t.max_abs
    total = c.sum()
    sums = _all_party_sums(c)
    for axis in (0, 1):
        label = "row" if axis == 0 else "column"
        own, other = sums[axis], sums[1 - axis]
        other_max = np.abs(other - 2 * (c if axis == 0 else c.T)).max(axis=1)
        conclusive = (np.abs(total - 2 * own) > tol.eps_mag * cmax) | (
            np.abs(own).max() * other_max > tol.eps_mag * cmax * cmax
        )
        if not conclusive.any():
            continue
        idx = int(conclusive.argmax())
        flipped = c.copy()
        lines = flipped if axis == 0 else flipped.T
        lines[idx] = -lines[idx]
        verdict = sum_test(CoeffTensor(flipped), tol)
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
