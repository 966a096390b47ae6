"""Coefficient tensors, tolerances, and tolerance-aware complex comparisons.

Everything downstream (the factorization criteria, the rank oracle, the
CLI pipeline) works on a dense complex coefficient array with one axis
per subsystem.  All values are immutable after construction and every
operation here is a pure function.  So the facts about a tensor that
every stage reads are computed once per tensor and kept on it; nothing
can make them stale.  Its largest and smallest |c|, with the first index
of the largest (the rank oracle's pivot), come from the one slab walk
that also checks the input at construction (`CoeffTensor._range`): the
zero tensor has max |c| = 0, and a NaN, an infinite entry or a modulus
that overflows makes max |c| non-finite.  Its total and per-party sums
(`CoeffTensor._sums`) and its norm are formed on first use.  A copy
with one line negated (`CoeffTensor._line_negated`, the sign-flip
stage's) takes its parent's `_range`, which negation keeps.

Full-size passes go through one slab walk, `_slab_walk`: the tensor in
row-major slabs of about `_SLAB` = 2**14 entries, each with the matching
slab of an outer product of per-party vectors.  The sum criteria and the
reconstruction residual build their temporaries one slab at a time, so
they stay a fraction of the input and a check can stop at the first
slab that fails it.  A walk with vectors yields its first leading index
(one row of a matrix) as a slab of its own: the criteria are per-entry
identities, so a generic entangled input is decided there, from a few
hundred entries rather than 2**14.  The walk forms the product of the
leading parties' vectors once and, per slab, multiplies the trailing
parties' vectors into its run of that lead product in long loops; each
entry is the chain of multiplications of reduce(np.multiply.outer,
vectors), wherever the slabs are cut, so the outer products are
bit-identical to the full-size one.  The reconstruction checks of the
pipeline and of the magnitude/phase test share one such walk,
`_outer_residual`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi

# Entries per slab of `_slab_walk`.  A slab's temporaries (a few arrays
# of 256 KiB at most) stay in cache, and a check that fails early reads
# little of the tensor.  On 256**2 matrices slabs of 2**12 to 2**14
# entries ran alike; at 2**16 such a matrix is one slab and the early
# exit is lost.
_SLAB = 1 << 14

# `_outer_rows` multiplies a party of dimension at most `_SHORT` into a
# run of at least `_LONG` entries with one long loop per index.  Per
# multiplication into 2**14 entries (2 shared x86-64 cores with
# AVX-512, numpy 2.4, one thread, best of 50), the long loops against
# np.multiply.outer took 15 against 77 us for d = 2, 22 against 171 for
# d = 3 and 29 against 54 for d = 4; walks of 5**7 and 8**5 products ran
# alike with a crossover of 4 or 8, and 16 was slower on small tensors.
# Below about 256 entries the d calls cost more than the short loops
# they replace.
_SHORT = 4
_LONG = 256


@dataclass(frozen=True)
class Tolerances:
    """Tolerances governing all approximate comparisons.

    eps_mag  -- relative magnitude tolerance (dimensionless).
    eps_ang  -- absolute angular tolerance in radians; must stay below pi.
    eps_rank -- singular-value / pivot cutoff relative to the largest one;
                must stay below 1, or a second pivot as large as the first
                would pass as noise.
    """

    eps_mag: float = 1e-9
    eps_ang: float = 1e-9
    eps_rank: float = 1e-10

    def __post_init__(self):
        for name in ("eps_mag", "eps_ang", "eps_rank"):
            value = getattr(self, name)
            if not (value > 0.0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (self.eps_ang < math.pi):
            raise ValueError(f"eps_ang must be below pi, got {self.eps_ang!r}")
        if not (self.eps_rank < 1.0):
            raise ValueError(f"eps_rank must be below 1, got {self.eps_rank!r}")


DEFAULT_TOLERANCES = Tolerances()


class CoeffTensor:
    """Dense complex coefficient array with one axis per subsystem.

    The entry at multi-index (j_1, ..., j_r) is the expansion coefficient
    of the state relative to fixed orthonormal bases of each subsystem.
    Indices are zero-based.  The bipartite case r=2 is an m x n matrix.

    The zero tensor does not describe a state and is rejected, and so is
    any NaN or infinite entry, or one whose modulus overflows.

    The array is read-only, so the facts every criterion and report
    read are computed once and kept: `_range` by the checks at
    construction, `_sums` and `norm` on first use.
    """

    def __init__(self, entries):
        self._array, self._range = _checked(np.array(entries, dtype=complex))

    @classmethod
    def _adopt(cls, array: np.ndarray) -> "CoeffTensor":
        """A tensor that takes over `array`, a complex128 array no one else
        holds, without the copy the constructor makes; same checks."""
        if array.dtype != np.complex128:
            raise TypeError(f"can only adopt a complex128 array, got {array.dtype}")
        t = cls.__new__(cls)
        t._array, t._range = _checked(array)
        return t

    def _line_negated(self, axis: int, index: int) -> "CoeffTensor":
        """This matrix with row (axis 0) or column (axis 1) `index`
        negated.  Negation keeps every |c|, so the copy takes this
        tensor's `_range` (the first largest |c| stays where it was), and
        it cannot make an entry NaN or infinite or the matrix zero, so the
        checks are not run again.  Its sums are its own reductions, not
        derived from this tensor's: numpy's axis-0 sum adds row after
        row, so `colsum - 2 * c[index]` would round differently."""
        flipped = self._array.copy()
        lines = flipped if axis == 0 else flipped.T
        lines[index] = -lines[index]
        flipped.setflags(write=False)
        t = CoeffTensor.__new__(CoeffTensor)
        t._array = flipped
        t._range = self._range
        return t

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
        return self._range[0]

    @cached_property
    def _sums(self) -> tuple:
        """(total sum, every party's partial-sum vector in party order),
        the vectors read-only: `array.sum()` and `_all_party_sums`."""
        partials = tuple(_all_party_sums(self._array))
        for v in partials:
            v.setflags(write=False)
        return self._array.sum(), partials

    @cached_property
    def norm(self) -> float:
        with np.errstate(over="ignore", under="ignore"):
            return float(np.ldexp(*_norm_and_exponent(self._array)))

    def __eq__(self, other):
        if not isinstance(other, CoeffTensor):
            return NotImplemented
        return self.dims == other.dims and bool(np.array_equal(self._array, other._array))

    def __repr__(self):
        return f"CoeffTensor(dims={self.dims})"


def _checked(array: np.ndarray) -> tuple:
    """(`array` made read-only, its `_abs_range`) once it passes the state
    checks.  The one range walk decides both value checks: max |c| is 0
    only for the zero tensor, and finite only when every entry and its
    modulus are."""
    if array.ndim < 2:
        raise ValueError(f"need at least 2 parties, got shape {array.shape}")
    if any(d < 1 for d in array.shape):
        raise ValueError(f"every dimension must be >= 1, got {array.shape}")
    extent = _abs_range(array)
    if extent[0] == 0.0:
        raise ValueError("the zero tensor does not describe a state")
    if not extent[0] < math.inf:
        raise ValueError("entries and their moduli must be finite, got NaN or inf")
    array.setflags(write=False)
    return array, extent


def _ldexp(a: np.ndarray, n: int) -> np.ndarray:
    """a * 2**n for a complex array, each part rounded once: exact
    unless it overflows or goes subnormal."""
    out = np.empty(a.shape, dtype=complex)
    np.ldexp(a.real, n, out=out.real)
    np.ldexp(a.imag, n, out=out.imag)
    return out


# Smallest |divisor| that `_over_pivot` divides by as it is.  numpy's
# complex division (Smith's formula) multiplies by the reciprocal of the
# divisor, which overflows for a subnormal one; below this floor the
# dividend and the divisor are first scaled up by the power of two that
# brings |divisor| into [0.5, 1), which is exact.
_PIVOT_FLOOR = 2.0**-960


def _over_pivot(x: np.ndarray, pivot) -> np.ndarray:
    """x / pivot, both scaled up exactly first when |pivot| is below
    `_PIVOT_FLOOR`; the plain quotient, bit for bit, above it.  Used for
    the oracle's fibres over c[p] and the sum test's row sums over the
    total."""
    if abs(pivot) >= _PIVOT_FLOOR:
        return x / pivot
    e = -math.frexp(abs(pivot))[1]
    return _ldexp(x, e) / _ldexp(np.asarray(pivot), e)


def _norm_and_exponent(a: np.ndarray) -> tuple:
    """(||a * 2**-e||, e) for a complex array.

    e is 0, and the norm np.linalg.norm(a), where the plain sum of
    squares neither overflows nor falls below 2**-960; above that floor
    the squares that underflow lose at most 2**-1074 each, a relative
    2**-114 of the sum per entry.  Elsewhere e is the binary exponent of
    max|a|.  Scaling by a power of two is exact, so the norm of a * 2**k
    is the norm of a times 2**k, bit for bit, at every scale.  The plain
    sum of squares may overflow, so call this with numpy's overflow and
    underflow errors ignored.
    """
    nrm = float(np.linalg.norm(a))
    if 2.0**-480 <= nrm < math.inf:
        return nrm, 0
    e = math.frexp(float(np.abs(a).max()))[1]
    return float(np.linalg.norm(_ldexp(a, -e))), e


def _outer_rows(x: np.ndarray, vectors, whole: bool = True) -> np.ndarray:
    """reduce(np.multiply.outer, vectors, x), flattened, for `x` the whole
    product of the parties before `vectors` or, not `whole`, a run of it.

    A party of dimension at most `_SHORT`, multiplied into at least
    `_LONG` entries, goes in with one ufunc call per index j,
    np.multiply(x, v[j]) into column j of the result: one loop over all
    of x, where np.multiply.outer runs one loop of length len(v) per
    entry of x.  Both form every x[i] * v[j] with the same operands in
    the same order, so each entry is bit-identical to the reduce.

    numpy's vector loops for complex products fuse a multiply and an add
    where the CPU can, but a 1 x 1 outer product takes its scalar loop,
    which does not.  So a one-entry run of a longer product meets a party
    of dimension 1 in the long-loop form, fused as the whole product's
    outer product would be.
    """
    for v in vectors:
        if (len(v) <= _SHORT and len(x) >= _LONG) or (len(x) == len(v) == 1 and not whole):
            out = np.empty((len(x), len(v)), dtype=np.result_type(x, v))
            for j in range(len(v)):
                np.multiply(x, v[j], out=out[:, j])
            x = out.reshape(-1)
        else:
            x = np.multiply.outer(x, v).reshape(-1)
    return x


def _slab_walk(c: np.ndarray, vectors=()):
    """Walk `c` in row-major slabs of about `_SLAB` entries.

    The tensor is cut along the joint index of its leading k parties; a
    slab is a run of consecutive leading indices, at least one.  k is
    the fewest parties (at most r - 1, so 1 for a matrix) that leave at
    most `_SLAB` trailing entries.  Then more parties join the lead
    while more than `_SLAB` // 64 trailing entries are left and at least
    64 would stay, so a slab becomes a run of 64 or more leading indices
    and the widening never takes the lead past a 64th of the tensor.
    Yields (offset, block, outer): `block` is the slab, shaped (rows,) +
    c.shape[k:], `offset` is the flat index of its first entry, and
    `outer` is the same slab of reduce(np.multiply.outer, vectors), or
    None without vectors.

    With vectors the first leading index is a slab of its own, and the
    runs of `_SLAB` // widths[k] indices start after it.  Every check
    that walks with vectors is a per-entry identity that stops at its
    first failing slab, so a generic entangled input is decided from
    its first widths[k] entries (one row of a matrix).  The walks
    without vectors (`_abs_range`, the per-line passes) read every slab,
    and keep the plain runs.

    The lead product, of the first k vectors, is formed once.  Each
    slab's outer product starts from the slab's run of it and multiplies
    in the trailing vectors one by one (`_outer_rows`), so every entry is
    the chain of products of the full reduce, ((v_1 v_2) v_3) ... v_r,
    with the same operands in the same order, and bit-identical to it.
    A wide lead leaves each slab a few long multiplications: a 2**22
    qubit slab starts from 64 lead values and multiplies in 8 qubits,
    where it would otherwise start from one value and multiply in 14.
    """
    widths = [math.prod(c.shape[k:]) for k in range(c.ndim)]
    k = 1
    while k < c.ndim - 1 and widths[k] > _SLAB // 64 and (widths[k] > _SLAB or widths[k + 1] >= 64):
        k += 1
    tail = c.shape[k:]
    blocks = c.reshape((-1,) + tail)
    step = max(1, _SLAB // widths[k])
    lead = _outer_rows(vectors[0], vectors[1:k]) if vectors else None
    rows = blocks.shape[0]
    cuts = [0, *range(1 if vectors else step, rows, step), rows]
    for i, j in zip(cuts, cuts[1:]):
        block = blocks[i:j]
        outer = None
        if lead is not None:
            run = lead[i:j]
            outer = _outer_rows(run, vectors[k:], len(run) == len(lead)).reshape(block.shape)
        yield i * widths[k], block, outer


def _abs_range(c: np.ndarray) -> tuple:
    """(max |c|, min |c|, flat index of the first max in row-major order)
    from one slab walk, without a full-size |c|.  It stops at the first
    slab whose largest |c| is NaN or infinite and returns that value as
    the max, so one non-finite entry anywhere makes the max non-finite.
    Each slab's |c| is freed before the next one is formed."""
    hi, lo, top = -1.0, math.inf, 0
    for offset, block, _ in _slab_walk(c):
        mags = np.abs(block)
        k = int(mags.argmax())  # the first NaN, if there is one
        if not mags.flat[k] <= hi:
            hi, top = float(mags.flat[k]), offset + k
        lo = min(lo, float(mags.min()))
        del mags
        if not hi < math.inf:
            break
    return hi, lo, top


def _outer_residual(c: np.ndarray, vectors, scale=None) -> tuple:
    """(max |scale * reduce(np.multiply.outer, vectors) - c|, flat index of
    its first occurrence), one slab at a time; no scale means 1.

    Each slab's outer product is the one of `_slab_walk`, and the scale is
    applied last, so every residual is bit-identical to the full-size
    formula.  A NaN residual is the maximum, as it is for `np.max`.
    """
    worst, where = -1.0, 0
    for offset, block, outer in _slab_walk(c, vectors):
        resid = np.abs((outer if scale is None else scale * outer) - block)
        k = int(resid.argmax())  # the first NaN, if there is one
        if not resid.flat[k] <= worst:
            worst, where = float(resid.flat[k]), offset + k
            if math.isnan(worst):
                break
    return worst, where


def total_sum(t: CoeffTensor) -> complex:
    """Sum of every coefficient."""
    return complex(t._sums[0])


def partial_sum(t: CoeffTensor, party: int, index: int) -> complex:
    """Sum of all coefficients whose party-th index equals `index`.

    `party` is one-based (1..r); `index` is zero-based.  For a matrix,
    party 1 gives row sums and party 2 gives column sums.  The value is
    the tensor's own partial sum (`CoeffTensor._sums`), the one the sum
    criteria read, bit for bit.
    """
    if not 1 <= party <= t.party_count:
        raise IndexError(f"party {party} out of range 1..{t.party_count}")
    if not 0 <= index < t.dims[party - 1]:
        raise IndexError(
            f"index {index} out of range for party {party} with dimension {t.dims[party - 1]}"
        )
    return complex(t._sums[1][party - 1][index])


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
