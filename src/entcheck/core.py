"""Coefficient tensors, tolerances, and tolerance-aware complex comparisons.

Everything downstream (the factorization criteria, the rank oracle, the
CLI pipeline) works on a dense complex coefficient array with one axis
per subsystem.  All values are immutable after construction and every
operation here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Tolerances:
    """Tolerances governing all approximate comparisons.

    eps_mag  -- relative magnitude tolerance (dimensionless).
    eps_ang  -- absolute angular tolerance in radians; must stay below pi.
    eps_rank -- singular-value / pivot cutoff relative to the largest one.
    """

    eps_mag: float = 1e-9
    eps_ang: float = 1e-9
    eps_rank: float = 1e-10

    def __post_init__(self):
        for name in ("eps_mag", "eps_ang", "eps_rank"):
            value = getattr(self, name)
            if not (value > 0.0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if not (self.eps_ang < math.pi):
            raise ValueError(f"eps_ang must be below pi, got {self.eps_ang!r}")


DEFAULT_TOLERANCES = Tolerances()


class CoeffTensor:
    """Dense complex coefficient array with one axis per subsystem.

    The entry at multi-index (j_1, ..., j_r) is the expansion coefficient
    of the state relative to fixed orthonormal bases of each subsystem.
    Indices are zero-based.  The bipartite case r=2 is an m x n matrix.

    The zero tensor does not describe a state and is rejected, and so is
    any NaN or infinite entry.
    """

    __slots__ = ("_array",)

    def __init__(self, entries, dims=None):
        array = np.array(entries, dtype=complex)
        if dims is not None:
            dims = tuple(int(d) for d in dims)
            array = array.reshape(dims)
        if array.ndim < 2:
            raise ValueError(f"need at least 2 parties, got shape {array.shape}")
        if any(d < 1 for d in array.shape):
            raise ValueError(f"every dimension must be >= 1, got {array.shape}")
        if not array.any():
            raise ValueError("the zero tensor does not describe a state")
        if not np.isfinite(array).all():
            raise ValueError("entries must be finite, got NaN or inf")
        array.setflags(write=False)
        self._array = array

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def dims(self) -> tuple:
        return self._array.shape

    @property
    def party_count(self) -> int:
        return self._array.ndim

    @property
    def entry_count(self) -> int:
        return self._array.size

    @property
    def max_abs(self) -> float:
        return float(np.abs(self._array).max())

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self._array))

    def __eq__(self, other):
        if not isinstance(other, CoeffTensor):
            return NotImplemented
        return self.dims == other.dims and bool(np.array_equal(self._array, other._array))

    def __repr__(self):
        return f"CoeffTensor(dims={self.dims})"


def total_sum(t: CoeffTensor) -> complex:
    """Sum of every coefficient."""
    return complex(t.array.sum())


def partial_sum(t: CoeffTensor, party: int, index: int) -> complex:
    """Sum of all coefficients whose party-th index equals `index`.

    `party` is one-based (1..r); `index` is zero-based.  For a matrix,
    party 1 gives row sums and party 2 gives column sums.
    """
    if not 1 <= party <= t.party_count:
        raise IndexError(f"party {party} out of range 1..{t.party_count}")
    if not 0 <= index < t.dims[party - 1]:
        raise IndexError(
            f"index {index} out of range for party {party} with dimension {t.dims[party - 1]}"
        )
    return complex(t.array.take(index, axis=party - 1).sum())


def _all_party_sums(c: np.ndarray) -> list:
    """Every party's partial-sum vector, in party order.

    The parties are split into two halves; viewing the array as a matrix
    (first half's indices as rows), its row sums are the first half's
    joint marginal and its column sums the second half's, and each
    marginal recurses.  The first split reads the array twice and every
    later one works on a marginal of about the square root of its size,
    so the cost is about two passes however many parties there are.
    """
    if c.ndim == 1:
        return [c]
    half = c.ndim // 2
    pairs = c.reshape(math.prod(c.shape[:half]), -1)
    return _all_party_sums(pairs.sum(axis=1).reshape(c.shape[:half])) + _all_party_sums(
        pairs.sum(axis=0).reshape(c.shape[half:])
    )


def approx_eq(x: complex, y: complex, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True iff |x - y| <= eps_mag * max(1, |x|, |y|)."""
    return abs(x - y) <= tol.eps_mag * max(1.0, abs(x), abs(y))


def arg_two_pi(z: complex) -> float:
    """Argument of a nonzero complex number, folded into [0, 2*pi)."""
    a = math.atan2(z.imag, z.real) % TWO_PI
    # atan2 of a negative-zero imaginary part can land exactly on 2*pi
    return 0.0 if a >= TWO_PI else a
