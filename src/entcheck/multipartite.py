"""The r-party generalization of the sum criterion.

With a nonzero total sum S, a tensor is a full product iff at every
multi-index the coefficient times S^(r-1) equals the product of the r
per-party partial sums.  The factor vectors fall out of the same sums.
The degenerate S = 0 case has no analogue of the magnitude/phase test
here; the pipeline escalates straight to the unfolding-rank oracle.

The check runs slab by slab on the core slab walk and stops at the
first violating slab, so a random tensor is decided from its first
slab, one index of its leading parties (256 entries of a 2**18 qubit
tensor), and no temporary is the size of the tensor.  Inside `analyze`,
where `bipartite._RECONSTRUCTION` holds the call's reconstruction, a
first slab whose residuals all sit at or under the walk's least bound
offers the factors, and a product stops there instead once their
reconstruction residual certifies the rest (`bipartite._offer`).
"""

from __future__ import annotations

import numpy as np

from .bipartite import (
    MULTI_SUM,
    LocalFactors,
    Outcome,
    Verdict,
    _first_sum_violation,
    _offer,
)
from .core import CoeffTensor, DEFAULT_TOLERANCES, Tolerances


def multiparty_sum_test(t: CoeffTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Sum criterion over r >= 2 parties.

    Inconclusive when the total sum vanishes (relative to the largest
    coefficient); otherwise every multi-index either certifies
    entanglement with a concrete witness or, collectively, yields the
    factor vectors.  Inconclusive too when S^(r-1) under- or overflows
    so that a factor is not finite or is the zero vector.  The factors
    are formed at most once: when a first slab at or under the least
    bound is offered to the reconstruction of the `analyze` call in
    progress, which may end the walk there with this same verdict
    (`bipartite._offer`), or else after the walk.
    """
    c = t.array
    r = t.party_count
    cmax = t.max_abs
    total, partials = t._sums
    if abs(total) <= tol.eps_mag * cmax:
        return Verdict(
            Outcome.INCONCLUSIVE,
            MULTI_SUM,
            reason="total sum vanishes; escalate to the rank oracle",
        )

    power = total ** (r - 1)
    scale = cmax * abs(total) ** (r - 1)
    certify, built = _offer(t, lambda: _sum_factors(partials, power), power)
    witness = _first_sum_violation(c, partials, power, scale, tol, certify)
    if witness is not None:
        return Verdict(Outcome.ENTANGLED, MULTI_SUM, witness=witness)
    factors = built()
    if factors is None:
        return Verdict(
            Outcome.INCONCLUSIVE,
            MULTI_SUM,
            reason=f"total sum ** {r - 1} is out of range ({complex(power)}); "
            "escalate to the rank oracle",
        )
    return Verdict(Outcome.FACTORIZED, MULTI_SUM, factors=factors)


def _sum_factors(partials, power):
    """The factors (P_1 / S^(r-1), P_2, ..., P_r), or None when one is not
    finite or is the zero vector."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vectors = (partials[0] / power, *partials[1:])
    if not all(np.isfinite(v).all() and v.any() for v in vectors):
        return None
    return LocalFactors(vectors)


def reconstruct(f: LocalFactors) -> CoeffTensor:
    """Dense tensor rebuilt as the outer product of the factor vectors."""
    return CoeffTensor._adopt(f.outer())
