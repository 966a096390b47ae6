"""Fully general bipartite test: magnitude condition plus phase condition.

The sum criterion needs a nonzero total sum.  This module drops that
restriction by splitting the problem: the entry magnitudes must satisfy
the sum criterion (their total is strictly positive for any valid
state), and the entry arguments must admit a decomposition
arg(c_ij) = alpha_i + beta_j (mod 2*pi), which is verified through a
single shared constant.

Zero entries have no argument.  After the magnitude step passes, a zero
entry can only sit in an entirely zero row or column, so the phase step
works on the submatrix of nonzero rows and columns.  When that submatrix
is not square it is squared up by replicating the reference row or
column, which preserves factorizability in both directions and keeps the
argument-count bookkeeping of the shared-constant identity valid.
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
    _first_index,
    _require_bipartite,
    _sum_violations,
)
from .core import TWO_PI, CoeffTensor, DEFAULT_TOLERANCES, Tolerances


def circular_distance(x: float, y: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    delta = (x - y) % TWO_PI
    return min(delta, TWO_PI - delta)


@dataclass(frozen=True)
class PhaseSolution:
    """Shared phase constant and per-index angles of a phase decomposition.

    For every entry above the zero cutoff, alpha_i + beta_j matches the
    entry's argument modulo 2*pi, and mags_a[i] * mags_b[j] matches the
    entry's magnitude.  `d` is the squared-up working dimension.
    """

    d: int
    c: float
    alpha: tuple
    beta: tuple
    mags_a: tuple
    mags_b: tuple


def _nonzero_structure(c: np.ndarray, tol: Tolerances):
    mags = np.abs(c)
    cutoff = tol.eps_rank * mags.max()
    nz = mags > cutoff
    live_rows = np.flatnonzero(nz.any(axis=1))
    live_cols = np.flatnonzero(nz.any(axis=0))
    return mags, cutoff, live_rows, live_cols


def _squared_submatrix(c: np.ndarray, live_rows, live_cols):
    """Nonzero-support submatrix, squared up by replicating the max row/column.

    Returns (square matrix, row origin map, column origin map) where the
    origin maps send each working row/column back to an original index.
    """
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


def _phase_grid(c: np.ndarray, cutoff: float, live_rows, live_cols, ref=None):
    """Argument grid of the squared-up nonzero support and its constant.

    Returns (sq, row_map, col_map, args, nz, row_arg, col_arg, (i, j),
    const): `args` holds each entry's argument in [0, 2*pi), 0 where `nz`
    marks it at or below the zero cutoff; `row_arg` and `col_arg` are the
    argument row and column sums; (i, j) is the working index of the
    reference entry `ref` (an original index, default the largest entry)
    and `const` the shared phase constant solved from it.
    """
    sq, row_map, col_map = _squared_submatrix(c, live_rows, live_cols)
    nz = np.abs(sq) > cutoff
    args = np.where(nz, np.mod(np.angle(sq), TWO_PI), 0.0)
    args[args >= TWO_PI] = 0.0
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
    const = (row_arg[i] + col_arg[j] - d * args[i, j]) % TWO_PI
    return sq, row_map, col_map, args, nz, row_arg, col_arg, (i, j), const


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
    depend on the reference choice.
    """
    _require_bipartite(t)
    _, cutoff, live_rows, live_cols = _nonzero_structure(t.array, tol)
    return float(_phase_grid(t.array, cutoff, live_rows, live_cols, ref)[-1])


def magnitude_phase_test(t: CoeffTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Decide factorization of any matrix, no total-sum restriction.

    Step 1 runs the sum criterion on the magnitude matrix |c_ij| (its
    total is strictly positive, so there is no degenerate branch).
    Step 2 verifies the shared-constant phase identity at every entry of
    the nonzero support.  On success the factors are rebuilt from the
    magnitude sums and reference-anchored phases and checked by
    reconstruction.
    """
    _require_bipartite(t)
    c = t.array
    m, n = c.shape
    mags, cutoff, live_rows, live_cols = _nonzero_structure(c, tol)
    cmax = mags.max()

    # Step 1: magnitude condition.
    s = mags.sum()
    row_mag = mags.sum(axis=1)
    col_mag = mags.sum(axis=0)
    _, resid, viol = _sum_violations(mags, (row_mag, col_mag), s, cmax * cmax, tol)
    if viol.any():
        idx = _first_index(viol)
        return Verdict(
            Outcome.ENTANGLED,
            MAG_PHASE,
            witness=Witness(idx, float(resid[idx])),
            reason="magnitude condition violated",
        )

    # Step 2: phase condition on the squared-up nonzero support.
    grid = _phase_grid(c, cutoff, live_rows, live_cols)
    sq, row_map, col_map, args, nz, row_arg, col_arg, (ri, rj), const = grid
    lhs_ang = np.add.outer(row_arg, col_arg) % TWO_PI
    rhs_ang = (sq.shape[0] * args + const) % TWO_PI
    delta = (lhs_ang - rhs_ang) % TWO_PI
    dist = np.minimum(delta, TWO_PI - delta)
    # angle noise blows up as 1/|entry|; relax near the zero cutoff
    bound = np.where(np.abs(sq) <= 10.0 * cutoff, 10.0 * tol.eps_ang, tol.eps_ang)
    bad = nz & (dist > bound)
    if bad.any():
        wi, wj = _first_index(bad)
        idx = (int(row_map[wi]), int(col_map[wj]))
        return Verdict(
            Outcome.ENTANGLED,
            MAG_PHASE,
            witness=Witness(idx, float(dist[wi, wj])),
            reason="phase condition violated",
        )

    # Reconstruct factors: magnitudes from the sums, phases anchored at
    # the reference row/column of the nonzero support.
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
    recon_bound = 10.0 * tol.eps_mag * cmax
    if recon_resid.max() > recon_bound:
        idx = tuple(int(v) for v in np.unravel_index(int(recon_resid.argmax()), c.shape))
        return Verdict(
            Outcome.ENTANGLED,
            MAG_PHASE,
            witness=Witness(idx, float(recon_resid[idx])),
            reason="phase grid admits no consistent factor reconstruction",
        )
    return Verdict(Outcome.FACTORIZED, MAG_PHASE, factors=LocalFactors((a, b)))


def solve_phases(t: CoeffTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> Optional[PhaseSolution]:
    """PhaseSolution for a factorizable matrix, or None when the test fails."""
    verdict = magnitude_phase_test(t, tol)
    if not verdict.is_factorized:
        return None
    a, b = verdict.factors.vectors
    mags_a = np.abs(a)
    mags_b = np.abs(b)
    alpha = tuple(float(np.mod(np.angle(x), TWO_PI)) if abs(x) > 0 else 0.0 for x in a)
    beta = tuple(float(np.mod(np.angle(x), TWO_PI)) if abs(x) > 0 else 0.0 for x in b)
    _, _, live_rows, live_cols = _nonzero_structure(t.array, tol)
    d = max(len(live_rows), len(live_cols))
    return PhaseSolution(
        d=d,
        c=phase_constant(t, tol),
        alpha=alpha,
        beta=beta,
        mags_a=tuple(float(x) for x in mags_a),
        mags_b=tuple(float(x) for x in mags_b),
    )
