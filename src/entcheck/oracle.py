"""Independent ground truth: rank-based factorization decisions.

A tensor is a full product iff every mode unfolding has numeric rank 1.
The rank computation here (complete-pivot Gaussian elimination) and the
Schmidt decomposition (SVD) share no logic with the criterion modules,
so agreement tests between the two routes are genuinely independent.
Also hosts the deterministic random-state generators the property tests
are built on.
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


def unfolding_ranks(t: CoeffTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple:
    return tuple(numeric_rank(unfold(t, k), tol) for k in range(1, t.party_count + 1))


def oracle_factorized(t: CoeffTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True iff every mode unfolding has numeric rank 1."""
    return all(r == 1 for r in unfolding_ranks(t, tol))


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
