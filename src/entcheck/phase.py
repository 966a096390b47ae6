"""Fully general bipartite test: magnitude condition plus phase condition.

The sum criterion needs a nonzero total sum.  This module drops that
restriction by splitting the problem: the entry magnitudes must satisfy
the sum criterion (their total is strictly positive for any valid
state), and the entry arguments must admit a decomposition
arg(c_ij) = alpha_i + beta_j (mod 2*pi), which is verified through a
single shared constant.

Zero entries have no argument.  After the magnitude step passes, a zero
entry can only sit in an entirely zero row or column, so the phase step
works on the live support, the m' rows and n' columns with an entry
above the zero cutoff; an entry at or below it counts as argument 0 and
is not checked, so the matrix itself serves as the grid.  The identity
counts d = max(m', n') arguments per line, as if the support were
squared up with d - m' copies of the reference row (or d - n' of the
reference column).  The copies enter the column (row) sums as one
multiple of the reference line, and their identities repeat the
reference line's, which comes first in row-major order, so the square
grid is never formed.  The sums are arrays of their own, never views of
the argument grid, so adding the copies leaves the grid as it was.  The
identity is checked one slab at a time and the check stops at the first
violating slab.  Every entry's tolerance is at least eps_ang, so the
per-entry tolerances are formed only on a slab where some distance
exceeds eps_ang.

The support (|c|, the zero cutoff, the live lines and the largest
entry) is formed once per call: `solve_phases` hands the test's support
to the phase constant and takes d from there.

The identity fixes each argument only modulo 2*pi / d: the entangled
grid exp(2*pi*i/3 * [[1, 2, 0], [2, 1, 0], [0, 0, 0]]) satisfies it
exactly.  So the test ends by rebuilding the factors and checking
max|a (x) b - c| <= 10 * eps_mag * max|c|, and that check is what makes
the verdict right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .bipartite import (
    MAG_PHASE,
    LocalFactors,
    Outcome,
    Verdict,
    Witness,
    _first_sum_violation,
    _require_bipartite,
    _witness,
)
from .core import TWO_PI, CoeffTensor, DEFAULT_TOLERANCES, Tolerances
from .core import _outer_residual, _slab_walk

# Rounding slack of the phase identity.  Its terms are sums of arguments
# in [0, 2*pi), each within a relative error of its own size (Higham,
# Accuracy and Stability of Numerical Algorithms, ch. 4), u = 2**-53: an
# argument within 5u (np.angle at most 2 ulps, the fold into [0, 2*pi)
# u); a row sum within 51u (numpy's pairwise sum of n <= 2**26 terms is
# 25 + log2(n / 128) <= 44 additions deep, plus the copies' multiple); a
# column sum within 33u (`_column_sums`, ceil(log2 m) <= 26 deep); d *
# args[i, j] within 6u; every other step within u.  That is under 28 eps
# (eps = 2u) of row_arg[i] + col_arg[j] + d * args[i, j], plus the same
# at the reference entry, through the constant, and about eps * 2*pi for
# the folds mod 2*pi.  Hence 32 eps times that sum: about 1e-7 radians at
# the 2**26-entry cap, where a phase error delta at one entry moves its
# identity by about d * delta.
_PHASE_ROUNDING = 32 * float(np.finfo(float).eps)


def circular_distance(x: float, y: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    delta = (x - y) % TWO_PI
    return min(delta, TWO_PI - delta)


@dataclass(frozen=True)
class PhaseSolution:
    """Shared phase constant and per-index angles of a phase decomposition.

    alpha and beta are angles in [0, 2*pi), 0 for a zero coordinate.
    For every entry above the zero cutoff, alpha_i + beta_j matches the
    entry's argument modulo 2*pi, and mags_a[i] * mags_b[j] matches the
    entry's magnitude.  `d` is the squared-up working dimension,
    max(live rows, live columns), and `c` is `phase_constant` at the
    largest entry, within rounding of the constant the test checked, not
    bit for bit equal to it.
    """

    d: int
    c: float
    alpha: tuple
    beta: tuple
    mags_a: tuple
    mags_b: tuple


def _support(t: CoeffTensor, tol: Tolerances):
    """(|c|, zero cutoff, live-row mask, live-column mask, (row, column) of
    the first largest entry) for the matrix c of `t`.  A live line has an
    entry above the cutoff; the largest entry is always live."""
    c = t.array
    cmax, _, top = t._range
    mags = np.abs(c)
    cutoff = tol.eps_rank * cmax
    live_rows = mags.max(axis=1) > cutoff
    live_cols = mags.max(axis=0) > cutoff
    return mags, cutoff, live_rows, live_cols, divmod(top, c.shape[1])


def _arguments(z: np.ndarray, dead: np.ndarray) -> np.ndarray:
    """Arguments of `z` in [0, 2*pi), 0 where `dead` marks an entry at or
    below the zero cutoff."""
    args = np.angle(z)
    # np.mod(args, 2*pi) to the bit (up to the sign of zero) for angles in
    # [-pi, pi], about 10x faster
    np.add(args, TWO_PI, out=args, where=args < 0)
    args[dead | (args >= TWO_PI)] = 0.0
    return args


def _column_sums(x: np.ndarray) -> np.ndarray:
    """Column sums added as a balanced tree, row i onto row i + m // 2
    until one row is left: each is within ceil(log2 m) u of exact, where
    adding row after row, as numpy's axis-0 sum does, is within (m - 1) u.
    The result is an array of its own, never a view of `x`, so a caller
    may add to it in place."""
    if len(x) == 1:
        return x[0].copy()
    while len(x) > 1:
        half = len(x) // 2
        x = np.concatenate((x[:half] + x[half : 2 * half], x[2 * half :]))
    return x[0]


def _entangled(witness: Witness, reason: str) -> Verdict:
    return Verdict(Outcome.ENTANGLED, MAG_PHASE, witness=witness, reason=reason)


def phase_constant(
    t: CoeffTensor,
    tol: Tolerances = DEFAULT_TOLERANCES,
    ref: Optional[Tuple[int, int]] = None,
) -> float:
    """Shared phase constant solved from one reference entry.

    c = (arg-row-sum + arg-column-sum - d * arg(reference)) mod 2*pi on
    the squared-up nonzero support.  `ref` indexes the original matrix
    and must name an entry above the zero cutoff; default is the entry of
    largest magnitude.  On a factorizable phase grid the result does not
    depend on the reference choice.  It equals the constant
    `magnitude_phase_test` checks the identity against within rounding
    (`_PHASE_ROUNDING`), not bit for bit: the two add the sums in
    different orders.
    """
    _require_bipartite(t)
    return _phase_constant(t, _support(t, tol), ref)[0]


def _phase_constant(t: CoeffTensor, support, ref) -> Tuple[float, int]:
    """(`phase_constant`, squared-up dimension d) from `_support`'s tuple."""
    c = t.array
    mags, cutoff, live_rows, live_cols, (ti, tj) = support
    i, j = (ti, tj) if ref is None else ref
    if not (0 <= i < c.shape[0] and 0 <= j < c.shape[1] and mags[i, j] > cutoff):
        raise ValueError(f"reference entry {ref} is zero or outside the nonzero support")
    m2, n2 = int(live_rows.sum()), int(live_cols.sum())
    d = max(m2, n2)

    def arg(row, col):
        return _arguments(c[row, col : col + 1], mags[row, col : col + 1] <= cutoff)[0]

    row = _arguments(c[i, live_cols], mags[i, live_cols] <= cutoff)
    col = _arguments(c[live_rows, j], mags[live_rows, j] <= cutoff)
    # Only the reference row and column sums are needed, over the live
    # support squared up with d - m' copies of the largest entry's row
    # below the live rows (or d - n' copies of its column right of the
    # live columns): the row summed pairwise, the column row after row.
    # That is O(d) work, not a second grid.  The test adds its column
    # sums as a balanced tree (`_column_sums`) and the copies as one
    # multiple, so the two constants agree within `_PHASE_ROUNDING`
    # times the reference entry's sums, not to the bit.
    if m2 < n2:
        col = np.append(col, np.full(d - m2, arg(ti, j)))
    elif n2 < m2:
        row = np.append(row, np.full(d - n2, arg(i, tj)))
    return float((row.sum() + np.add.accumulate(col)[-1] - d * arg(i, j)) % TWO_PI), d


def magnitude_phase_test(t: CoeffTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Decide factorization of any matrix, no total-sum restriction.

    Step 1 runs the sum criterion on the magnitude matrix |c_ij| (its
    total is strictly positive, so there is no degenerate branch), slab
    by slab, and stops at the first violating slab.
    Step 2 verifies the shared-constant phase identity at every entry of
    the live support, slab by slab.  On success the factors are rebuilt
    from the magnitude sums and reference-anchored phases and checked by
    reconstruction, slab by slab: the identity fixes each argument only
    modulo 2*pi / d, so that check is what makes the test exact.
    """
    _require_bipartite(t)
    return _magnitude_phase_test(t, tol, _support(t, tol))


def _magnitude_phase_test(t: CoeffTensor, tol: Tolerances, support) -> Verdict:
    """`magnitude_phase_test` on `_support`'s tuple for `t`."""
    c = t.array
    n = c.shape[1]
    mags, cutoff, live_rows, live_cols, (ri, rj) = support
    cmax = mags[ri, rj]

    # Step 1: magnitude condition.
    s = mags.sum()
    row_mag = mags.sum(axis=1)
    col_mag = mags.sum(axis=0)
    witness = _first_sum_violation(mags, (row_mag, col_mag), s, cmax * cmax, tol)
    if witness is not None:
        return _entangled(witness, "magnitude condition violated")

    # Step 2: phase condition on the live support, with the copies of the
    # reference row or column that square it up folded into the sums.
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
        # circular distance of x from 0; np.mod is 10x slower than rint
        dist = np.abs(x - TWO_PI * np.rint(x / TWO_PI))
        # every entry's bound is at least eps_ang, so a slab with no
        # larger distance has no bad entry
        if dist.max() > tol.eps_ang:
            # angle noise blows up as 1/|entry|; relax near the zero cutoff
            bound = np.where(mags[rows] <= 10.0 * cutoff, 10.0 * tol.eps_ang, tol.eps_ang)
            bound += _PHASE_ROUNDING * (sums + d * block + ref_size)
            bad = (mags[rows] > cutoff) & (dist > bound)
            if bad.any():
                return _entangled(_witness(c, offset, bad, dist), "phase condition violated")
            del bound, bad
        del sums, x, dist  # before the next slab's are made
    del args  # nor does the reconstruction need it

    # Reconstruct factors: magnitudes from the sums, phases anchored at
    # the reference row and column.
    ref_arg = math.atan2(c[ri, rj].imag, c[ri, rj].real)
    alpha = np.where(live_rows, np.angle(c[:, rj]) - ref_arg, 0.0)
    beta = np.where(live_cols, np.angle(c[ri]), 0.0)
    a = row_mag / s * np.exp(1j * alpha)
    b = col_mag * np.exp(1j * beta)
    worst, where = _outer_residual(c, (a, b))
    if worst > 10.0 * tol.eps_mag * cmax:
        witness = Witness(tuple(int(v) for v in divmod(where, n)), worst)
        return _entangled(witness, "phase grid admits no consistent factor reconstruction")
    return Verdict(Outcome.FACTORIZED, MAG_PHASE, factors=LocalFactors((a, b)))


def solve_phases(t: CoeffTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> Optional[PhaseSolution]:
    """PhaseSolution for a factorizable matrix, or None when the test fails."""
    _require_bipartite(t)
    support = _support(t, tol)
    verdict = _magnitude_phase_test(t, tol, support)
    if not verdict.is_factorized:
        return None
    a, b = verdict.factors.vectors
    const, d = _phase_constant(t, support, None)
    return PhaseSolution(
        d=d,
        c=const,
        alpha=tuple(_arguments(a, a == 0).tolist()),
        beta=tuple(_arguments(b, b == 0).tolist()),
        mags_a=tuple(np.abs(a).tolist()),
        mags_b=tuple(np.abs(b).tolist()),
    )
