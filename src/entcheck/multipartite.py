"""The r-party generalization of the sum criterion.

With a nonzero total sum S, a tensor is a full product iff at every
multi-index the coefficient times S^(r-1) equals the product of the r
per-party partial sums.  The factor vectors fall out of the same sums.
The degenerate S = 0 case has no analogue of the magnitude/phase test
here; the pipeline escalates straight to the unfolding-rank oracle.
"""

from __future__ import annotations

from .bipartite import (
    MULTI_SUM,
    LocalFactors,
    Outcome,
    Verdict,
    Witness,
    _first_index,
    _sum_violations,
)
from .core import CoeffTensor, DEFAULT_TOLERANCES, Tolerances, _all_party_sums


def multiparty_sum_test(t: CoeffTensor, tol: Tolerances = DEFAULT_TOLERANCES) -> Verdict:
    """Sum criterion over r >= 2 parties.

    Inconclusive when the total sum vanishes (relative to the largest
    coefficient); otherwise every multi-index either certifies
    entanglement with a concrete witness or, collectively, yields the
    factor vectors.
    """
    c = t.array
    r = t.party_count
    cmax = t.max_abs
    total = c.sum()
    if abs(total) <= tol.eps_mag * cmax:
        return Verdict(
            Outcome.INCONCLUSIVE,
            MULTI_SUM,
            reason="total sum vanishes; escalate to the rank oracle",
        )

    power = total ** (r - 1)
    partials = _all_party_sums(c)
    scale = cmax * abs(total) ** (r - 1)
    _, resid, viol = _sum_violations(c, partials, power, scale, tol)
    if viol.any():
        idx = _first_index(viol)
        return Verdict(Outcome.ENTANGLED, MULTI_SUM, witness=Witness(idx, float(resid[idx])))

    vectors = [partials[0] / power] + partials[1:]
    return Verdict(Outcome.FACTORIZED, MULTI_SUM, factors=LocalFactors(vectors))


def reconstruct(f: LocalFactors) -> CoeffTensor:
    """Dense tensor rebuilt as the outer product of the factor vectors."""
    return CoeffTensor(f.outer())
