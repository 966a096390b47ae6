"""Independent ground truth: rank-based factorization decisions.

A tensor is a full product iff every mode unfolding has numeric rank 1.
The oracle only has to decide "rank 1 or not" per unfolding, and one
complete-pivot elimination step answers that in O(entries): take the
pivot p, the entry of largest |c|, subtract the rank-1 term it spans
(column through p divided by c[p], times row through p), and the
unfolding has rank 1 iff no entry of the residual outside the pivot row
and column exceeds eps_rank * |c[p]|.  That is the cutoff and the
arithmetic of the second step of `numeric_rank`, done by broadcasting on
the tensor, so no unfolding is copied.  The residual is only formed on
the slabs i_k < p_k and i_k > p_k (basic slices of the tensor), one slab
at a time in a reused buffer: the pivot row is never computed, which
halves the work for qubits.  The decision reports a rank of
1, an exact 2 when the unfolding has a side of length 2, and ">=2"
otherwise; `numeric_rank(unfold(t, k))` gives the exact rank.

The elimination and the Schmidt decomposition (SVD) share no logic with
the criterion modules, so agreement tests between the two routes are
genuinely independent.  Also hosts the deterministic random-state
generators the property tests are built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .core import CoeffTensor, DEFAULT_TOLERANCES, Tolerances


def unfold(t: CoeffTensor, party: int) -> np.ndarray:
    """Mode unfolding: party's index as rows, remaining indices flattened
    row-major as columns."""
    if not 1 <= party <= t.party_count:
        raise IndexError(f"party {party} out of range 1..{t.party_count}")
    return np.moveaxis(t.array, party - 1, 0).reshape(t.dims[party - 1], -1)


def numeric_rank(mat, tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Rank via complete-pivot Gaussian elimination.

    Counts pivots exceeding eps_rank times the largest pivot.  Raises on
    a zero matrix.
    """
    a = np.array(mat, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not a.any():
        raise ValueError("rank of the zero matrix is undefined here")
    m, n = a.shape
    rank = 0
    largest = None
    for k in range(min(m, n)):
        block = np.abs(a[k:, k:])
        pi, pj = np.unravel_index(int(block.argmax()), block.shape)
        pivot = block[pi, pj]
        if largest is None:
            largest = pivot
        if pivot <= tol.eps_rank * largest:
            break
        a[[k, k + pi], :] = a[[k + pi, k], :]
        a[:, [k, k + pj]] = a[:, [k + pj, k]]
        rank += 1
        if k + 1 < m:
            a[k + 1 :, k:] -= np.outer(a[k + 1 :, k] / a[k, k], a[k, k:])
    return rank


@dataclass(frozen=True)
class RankDecision:
    """Rank-1 decision for every mode unfolding of one tensor.

    ranks       -- per unfolding: 1, 2 when a side of the unfolding has
                   length 2 (so "at least 2" is exact), else ">=2".
    pivot_ratio -- largest second-pivot / first-pivot ratio over all
                   unfoldings; an unfolding has rank 1 iff its second
                   pivot is at most eps_rank times the first.
    """

    ranks: tuple
    pivot_ratio: float

    @property
    def factorized(self) -> bool:
        return all(r == 1 for r in self.ranks)


def unfolding_ranks(t: CoeffTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> RankDecision:
    """Decide rank 1 for every mode unfolding from one complete-pivot step.

    All unfoldings share the pivot p, the entry of largest |c|.  For
    unfolding k the residual c - (c[p_1..:..p_r] / c[p]) (x) c[.., p_k, ..]
    is formed only on the two off-pivot slabs i_k < p_k and i_k > p_k
    (the pivot row is left out, never computed), slab by slab in one
    reused flat buffer whose magnitudes go into the buffer that held |c|;
    the pivot column is zeroed in each slab.  For two parties the second
    unfolding is the transpose of the first and reuses its test.
    """
    c = t.array
    r = t.party_count
    magnitude = np.abs(c)
    p = np.unravel_index(int(magnitude.argmax()), c.shape)
    pivot = c[p]
    largest = magnitude[p]
    axes = range(1 if r == 2 else r)
    residual = np.empty(
        max(max(p[k], c.shape[k] - 1 - p[k]) * (c.size // c.shape[k]) for k in axes),
        dtype=c.dtype,
    )
    magnitude = magnitude.reshape(-1)
    seconds = []
    for axis in axes:
        fiber_at = p[:axis] + (slice(None),) + p[axis + 1 :]
        scaled_fiber = c[fiber_at] / pivot
        row = np.expand_dims(c[(slice(None),) * axis + (p[axis],)], axis)
        shape = [1] * r
        second = 0.0
        for lo, hi in ((0, p[axis]), (p[axis] + 1, c.shape[axis])):
            if lo == hi:
                continue
            slab = c[(slice(None),) * axis + (slice(lo, hi),)]
            shape[axis] = hi - lo
            out = residual[: slab.size].reshape(slab.shape)
            np.multiply(scaled_fiber[lo:hi].reshape(shape), row, out=out)
            np.subtract(slab, out, out=out)
            slab_magnitude = magnitude[: slab.size].reshape(slab.shape)
            np.abs(out, out=slab_magnitude)
            slab_magnitude[fiber_at] = 0.0
            second = max(second, slab_magnitude.max())
        seconds.append(second)
    if r == 2:
        seconds.append(seconds[0])
    ranks = []
    for axis, second in enumerate(seconds):
        if second <= tol.eps_rank * largest:
            ranks.append(1)
        elif min(c.shape[axis], c.size // c.shape[axis]) == 2:
            ranks.append(2)
        else:
            ranks.append(">=2")
    return RankDecision(tuple(ranks), float(max(seconds) / largest))


def oracle_factorized(t: CoeffTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True iff every mode unfolding has numeric rank 1."""
    return unfolding_ranks(t, tol).factorized


@dataclass(frozen=True)
class SchmidtForm:
    """Bipartite canonical form: positive weights and orthonormal vector
    families; the number of weights above the cutoff is the Schmidt rank."""

    values: np.ndarray
    left_vectors: np.ndarray   # row i = i-th left vector
    right_vectors: np.ndarray  # row i = i-th right vector

    @property
    def rank(self) -> int:
        return len(self.values)

    def matrix(self) -> np.ndarray:
        """Sum of weight * outer(left, right) over all retained terms."""
        return sum(
            lam * np.outer(u, v)
            for lam, u, v in zip(self.values, self.left_vectors, self.right_vectors)
        )


def schmidt(t: CoeffTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> SchmidtForm:
    """Schmidt decomposition of a bipartite tensor via SVD."""
    if t.party_count != 2:
        raise ValueError(f"Schmidt decomposition needs 2 parties, got {t.party_count}")
    u, s, vh = np.linalg.svd(t.array)
    keep = int(np.count_nonzero(s > tol.eps_rank * s[0]))
    keep = max(keep, 1)
    return SchmidtForm(
        values=s[:keep].copy(),
        left_vectors=u[:, :keep].T.copy(),
        right_vectors=vh[:keep].copy(),
    )


def _disk_samples(rng: np.random.Generator, size: int) -> np.ndarray:
    """Complex samples uniform on the unit disk."""
    radius = np.sqrt(rng.uniform(size=size))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=size)
    return radius * np.exp(1j * theta)


def gen_product_state(dims, rng_seed: int, zero_avoidance: bool = False) -> CoeffTensor:
    """Outer product of per-party random unit-disk vectors.

    With zero_avoidance, factor entries below magnitude 0.1 are resampled
    and whole draws are rejected until |total sum| >= 1e-6.  Deterministic
    for a given seed.
    """
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(rng_seed)
    while True:
        vectors = []
        for d in dims:
            v = _disk_samples(rng, d)
            if zero_avoidance:
                small = np.abs(v) < 0.1
                while small.any():
                    v[small] = _disk_samples(rng, int(small.sum()))
                    small = np.abs(v) < 0.1
            vectors.append(v)
        entries = reduce(np.multiply.outer, vectors)
        if zero_avoidance and abs(entries.sum()) < 1e-6:
            continue
        if entries.any():
            return CoeffTensor(entries)


def gen_random_state(dims, rng_seed: int) -> CoeffTensor:
    """I.i.d. unit-disk entries; almost surely entangled for dims >= (2, 2)."""
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(rng_seed)
    while True:
        entries = _disk_samples(rng, int(np.prod(dims))).reshape(dims)
        if entries.any():
            return CoeffTensor(entries)
