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
the slabs i_k < p_k and i_k > p_k (basic slices of the tensor): the
pivot row is never computed, which halves the work for qubits.  One
rule cuts every unfolding k (`_pieces`): it is the reshape view
(A, d_k, B) of the row-major tensor, A the joint index of the parties
before k and B of those after it, and each off-pivot slab (A, h, B) is
cut into runs of at most `_PIECE` = 2**16 entries along A, or, where
one index of A holds more, along h and then along B.  So each worker
needs one residual and one magnitude buffer of at most 2**16 entries,
whatever the tensor's size.  Above 2**16 entries, with a second CPU
usable, the caller and one helper thread take pieces from one shared
iterator until none are left (numpy releases the GIL inside the ufunc
loops); the helper is joined before the call returns.  Every residual entry is one quotient-product-
difference-modulus chain on the same operands whichever piece and
thread forms it, and a maximum does not depend on the order it is taken
in, so the decision is bit-identical to one pass over the whole tensor.
The decision reports a rank of 1, an exact 2 when the unfolding has a
side of length 2, and ">=2" otherwise; `numeric_rank(unfold(t, k))`
gives the exact rank.

For r >= 3 parties the pipeline may first try `_rank_one_screen`, which
needs one pass instead of r.  Let f_k be the fibre of party k through p
and G = f_1 (x) (f_2/c[p]) (x) ... (x) (f_r/c[p]), the product of the
pivot factors (`_pivot_factors`), and E = c - G.  G restricted to
i_k = p_k, spread along party k by f_k/c[p], is G again, so unfolding k's
elimination residual is E - (f_k/c[p]) (x)_k E|_{i_k = p_k}; since
|f_k| <= |c[p]| its largest entry is at most 2 max|E|.  The screen walks
max|E| in slabs and stops at the first slab over its budget.  When 2
max|E| plus a rounding term is at most eps_rank * |c[p]| / 4, every
unfolding has rank 1 and the screen reports that bound, divided by
|c[p]|, as the pivot ratio: an upper bound on the ratio
`unfolding_ranks` computes.  Otherwise `unfolding_ranks` decides,
unchanged.

The elimination, the screen and the Schmidt decomposition (SVD) share
no logic with the criterion modules, so agreement tests between the two
routes are genuinely independent.  Also hosts the deterministic
random-state generators the property tests are built on.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .core import CoeffTensor, DEFAULT_TOLERANCES, Tolerances, _abs_range, _ldexp, _over_pivot, _slab_walk

# Rounding allowance of `_rank_one_screen`, per party, in units of |c[p]|.
# With u = eps/2: a complex quotient is off by at most about 6u (Smith's
# formula, which numpy uses; 10u is allowed), a complex product by at
# most sqrt(5)u < 3u.  `unfolding_ranks` forms each residual entry with
# one quotient, one product, one difference and one modulus, so it sits
# at most 16u above the exact one.  The screen's G takes r - 1 quotients
# and r - 1 products, so the computed |E| may fall 13(r - 1)u short of
# the exact one, which the factor 2 doubles.  The difference, the
# modulus, both ratios to |c[p]| and the sums of the bound add about 10u
# relative on quantities of at most 2 (|E| <= |c| + |G| <= 2|c[p]|),
# and subnormal results, which the screen's floor keeps below u/4 per
# operation, a few u more.  That is at most (26r + 60)u, under 46ru for
# r >= 3; 64ru is allowed.
_SCREEN_ROUNDING = 32 * float(np.finfo(float).eps)

# Most entries `unfolding_ranks` forms in one piece of an off-pivot slab,
# and the tensor size above which a helper thread takes pieces too.
_PIECE = 1 << 16

# Smallest |c[p]| the screen takes.  Below it the absolute rounding of
# subnormal results (2**-1075) is no longer small against u * |c[p]|,
# and `unfolding_ranks` decides.
_SCREEN_FLOOR = 4 * float(np.finfo(float).tiny)


def unfold(t: CoeffTensor, party: int) -> np.ndarray:
    """Mode unfolding: party's index as rows, remaining indices flattened
    row-major as columns."""
    if not 1 <= party <= t.party_count:
        raise IndexError(f"party {party} out of range 1..{t.party_count}")
    return np.moveaxis(t.array, party - 1, 0).reshape(t.dims[party - 1], -1)


def numeric_rank(mat, tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Rank via complete-pivot Gaussian elimination.

    Counts pivots exceeding eps_rank times the largest pivot.  Raises on
    a zero matrix and on a NaN or infinite entry.  A matrix whose largest
    modulus lies outside [2**-960, 2**960] is first scaled by the power
    of two that brings it into [0.5, 1), as `core._over_pivot` scales its
    operands, so no quotient or product of the elimination overflows;
    inside that range the matrix is taken as it is.
    """
    a = np.array(mat, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    largest = np.abs(a).max(initial=0.0)
    if largest == 0:
        raise ValueError("rank of the zero matrix is undefined here")
    if not np.isfinite(largest):
        raise ValueError("entries and their moduli must be finite, got NaN or inf")
    if not 2.0**-960 <= largest <= 2.0**960:
        a = _ldexp(a, -math.frexp(largest)[1])
        largest = np.abs(a).max()
    m, n = a.shape
    rank = 0
    for k in range(min(m, n)):
        block = np.abs(a[k:, k:])
        pi, pj = np.unravel_index(int(block.argmax()), block.shape)
        pivot = block[pi, pj]
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
    (the pivot row is left out, never computed), in pieces of at most
    `_PIECE` entries (`_pieces`), each into a reused flat buffer whose
    magnitudes go into a second one; the pivot column is zeroed in each
    piece.  A tensor of more than `_PIECE` entries is worked by the
    caller and one helper thread when a second CPU is usable
    (`_two_workers`), otherwise by the caller alone; the caller
    allocates every buffer pair.  Each entry is formed by the same ufunc
    calls on the same operands in either case, and the largest magnitude
    per axis is the same whatever the order of the pieces, so the
    decision does not depend on the cut or the workers.  For two parties
    the second unfolding is the transpose of the first and reuses its
    test.
    """
    c = t.array
    r = t.party_count
    largest, _, top = t._range
    p = np.unravel_index(top, c.shape)
    axes = range(1 if r == 2 else r)
    size = min(_PIECE, max(max(p[k], c.shape[k] - 1 - p[k]) * (c.size // c.shape[k]) for k in axes))
    pieces = _pieces(c, p, axes)
    if c.size > _PIECE and _usable_cpus() > 1:
        seconds = _two_workers(pieces, size, c.dtype, len(axes))
    else:
        seconds = [0.0] * len(axes)
        _second_pivots(pieces, np.empty(size, dtype=c.dtype), np.empty(size), seconds)
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


def _pieces(c: np.ndarray, p: tuple, axes):
    """The off-pivot residual of every unfolding in `axes`, in pieces.

    Unfolding k is the view (A, d, B) of the row-major tensor, A the
    joint index of the parties before k and B of those after it, and its
    off-pivot slabs are the (A, h, B) views i_k < p_k and i_k > p_k.  A
    slab is cut into runs of at most `_PIECE` entries along A, or, where
    one index of A holds more, along h and then along B; the fibre
    through p divided by c[p], (1, h, 1), and the pivot row (A, 1, B) are
    sliced the same way, so they broadcast to each piece's residual as
    they do to the whole slab's.  Yields (axis, block, fibre, row,
    fibre_at): `fibre_at` is the pivot fibre (p_A - i, :, p_B - k) inside
    a piece that starts at (i, ., k), or None when it holds none of it.
    """
    pivot = c[p]
    flat = int(np.ravel_multi_index(p, c.shape))
    for axis in axes:
        d = c.shape[axis]
        b = math.prod(c.shape[axis + 1 :])
        view = c.reshape(-1, d, b)
        p_a, p_b = flat // (d * b), flat % b
        scaled = _over_pivot(view[p_a, :, p_b], pivot).reshape(1, d, 1)
        row = view[:, p[axis] : p[axis] + 1]
        for lo, hi in ((0, p[axis]), (p[axis] + 1, d)):
            if lo == hi:
                continue
            slab, fibre, h = view[:, lo:hi], scaled[:, lo:hi], hi - lo
            # run lengths along A, h and B: whole (h, B) planes while one
            # fits, else whole B rows, else runs of B
            sa, sh, sb = max(1, _PIECE // (h * b)), min(h, max(1, _PIECE // b)), min(b, _PIECE)
            for i in range(0, len(view), sa):
                for j in range(0, h, sh):
                    for k in range(0, b, sb):
                        at = (slice(i, i + sa), slice(j, j + sh), slice(k, k + sb))
                        on_fibre = i <= p_a < i + sa and k <= p_b < k + sb
                        fibre_at = (p_a - i, slice(None), p_b - k) if on_fibre else None
                        yield axis, slab[at], fibre[:, at[1]], row[at[0], :, at[2]], fibre_at


def _second_pivots(pieces, residual: np.ndarray, magnitude: np.ndarray, seconds: list) -> None:
    """Form the residual of every piece `pieces` yields in the buffers
    and raise seconds[axis] to its largest magnitude off the pivot fibre.
    The one per-piece routine of both the caller and the helper."""
    for axis, block, fibre, row, fibre_at in pieces:
        out = residual[: block.size].reshape(block.shape)
        np.multiply(fibre, row, out=out)
        np.subtract(block, out, out=out)
        block_magnitude = magnitude[: block.size].reshape(block.shape)
        np.abs(out, out=block_magnitude)
        if fibre_at is not None:
            block_magnitude[fibre_at] = 0.0
        seconds[axis] = max(seconds[axis], block_magnitude.max())


def _two_workers(pieces, size: int, dtype, count: int) -> list:
    """Largest off-fibre magnitude per axis, from the caller and one
    helper thread taking `pieces` from one shared iterator.

    A shared iterator, not a fixed split, so a helper starved of CPU
    costs about the serial time, not the caller's wait for it.  The
    helper runs in a copy of the caller's context, so numpy's errstate
    holds in it; it runs only numpy, `core._over_pivot` and this
    module's private functions, no public entry point that a caller may
    wrap.  A failure in either worker ends the iteration; the helper is
    always joined, and its exception is raised again here.  When no
    thread can be started the caller takes every piece.
    """
    lock = threading.Lock()

    def take():
        while True:
            with lock:
                piece = next(pieces, None)
            if piece is None:
                return
            yield piece

    def stop():
        with lock:
            pieces.close()

    # both pairs are allocated here, on the calling thread: a pair the
    # helper allocated would come from its thread's malloc arena, which
    # stays resident after the thread ends (a benchmark run's peak RSS
    # rose by about 1.5 MB when the helper allocated its own pair)
    buffers = [(np.empty(size, dtype=dtype), np.empty(size)) for _ in range(2)]
    seconds = [[0.0] * count for _ in range(2)]
    failed = []

    def helper():
        try:
            _second_pivots(take(), *buffers[1], seconds[1])
        except BaseException as exc:  # raised again in the caller after the join
            failed.append(exc)
            stop()

    thread = threading.Thread(target=contextvars.copy_context().run, args=(helper,))
    try:
        thread.start()
    except RuntimeError:  # no thread to be had
        thread = None
    try:
        _second_pivots(take(), *buffers[0], seconds[0])
    finally:
        stop()
        if thread is not None:
            thread.join()
    if failed:
        raise failed[0]
    return [max(a, b) for a, b in zip(*seconds)]


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _pivot_factors(c: np.ndarray) -> tuple:
    """(p, vectors): the pivot p, the first entry of largest |c| in
    row-major order, and the fibres of every party through it, each but
    party 1's divided by c[p].

    For c = a_1 (x) ... (x) a_r the fibre of party k through p is a_k
    times the product of the other a_j[p_j], so the outer product of all
    r fibres is c * c[p]^(r-1).  Dividing each fibre but party 1's by
    c[p] removes that power without ever forming it, and leaves the
    factors of a rank-1 tensor.
    """
    p = np.unravel_index(_abs_range(c)[2], c.shape)
    fibres = [c[p[:k] + (slice(None),) + p[k + 1 :]] for k in range(c.ndim)]
    return p, [fibres[0]] + [_over_pivot(f, c[p]) for f in fibres[1:]]


def _rank_one_screen(c: np.ndarray, p: tuple, vectors, tol: Tolerances) -> Optional[RankDecision]:
    """Ranks 1 for every unfolding, and a bound on the pivot ratio, when
    the outer product of the pivot factors `vectors` (`_pivot_factors`)
    is close enough to c; None when `unfolding_ranks` must decide.

    The bound is 2 max|E| / |c[p]| plus r * `_SCREEN_ROUNDING`, and it is
    accepted when at most eps_rank / 4.  The walk stops at the first
    slab over that budget.  It runs on c and G scaled by the power of two
    that brings |c[p]| into [0.5, 1): exact, so outcome and bound do not
    change under a power-of-two scaling of c, and the small entries of E
    never go subnormal.
    """
    rounding = c.ndim * _SCREEN_ROUNDING
    budget = tol.eps_rank / 4 - rounding  # what 2 max|E| / |c[p]| may use
    largest = abs(c[p])
    if not (budget > 0 and largest >= _SCREEN_FLOOR):
        return None
    scale = math.ldexp(1.0, -math.frexp(largest)[1])
    largest *= scale
    limit = budget / 2 * largest
    worst = 0.0
    for _, block, outer in _slab_walk(c, [vectors[0] * scale, *vectors[1:]]):
        diff = block * scale
        diff -= outer
        worst = max(worst, float(np.abs(diff).max()))
        if worst > limit:
            return None
    bound = 2 * (worst / largest) + rounding
    if bound > tol.eps_rank / 4:
        return None
    return RankDecision((1,) * c.ndim, float(bound))


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
    u, s, vh = np.linalg.svd(t.array, full_matrices=False)
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

    Without zero_avoidance one draw is taken.  With it, factor entries
    below magnitude 0.1 are resampled, and whole draws are retried until
    |total sum| >= 1e-6.  Deterministic for a given seed; the shape is
    checked by `CoeffTensor`, so a dimension of 0 raises.
    """
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(rng_seed)
    while True:
        vectors = []
        for d in dims:
            v = _disk_samples(rng, d)
            while zero_avoidance and len(small := np.flatnonzero(np.abs(v) < 0.1)):
                v[small] = _disk_samples(rng, len(small))
            vectors.append(v)
        t = CoeffTensor._adopt(reduce(np.multiply.outer, vectors))
        if not zero_avoidance or abs(t.array.sum()) >= 1e-6:
            return t


def gen_random_state(dims, rng_seed: int) -> CoeffTensor:
    """I.i.d. unit-disk entries; almost surely entangled for dims >= (2, 2)."""
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(rng_seed)
    return CoeffTensor._adopt(_disk_samples(rng, math.prod(dims)).reshape(dims))
