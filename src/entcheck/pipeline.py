"""Auto-escalating analysis pipeline and verdict reports.

Bipartite inputs run the sum test, then the single-flip recovery, then
the magnitude/phase test; r >= 3 inputs run the multiparty sum test and
fall back to the rank oracle.  The oracle is also run as a cross-check
of every conclusive criterion verdict unless disabled, and the final
verdict is never inconclusive.

Where the oracle may answer rank 1 (it decides, or it checks a
factorized verdict), an input of r >= 3 parties first meets the oracle's
one-pass rank-1 screen; only what the screen cannot certify goes on to
`unfolding_ranks`.  The verdict only picks which of two sound routes
runs, and the screen never reads the criteria's numbers, so the
cross-check stays independent: a criterion that wrongly says
"entangled" on a product still meets the full oracle.  Entangled
verdicts and 2-party inputs go straight to `unfolding_ranks`, so their
`oracle_pivot_ratio` is always the exact one; a screened product reports
the screen's upper bound.

Each call holds one `_Reconstruction` of its tensor, which the sum
criteria reach through `bipartite._RECONSTRUCTION`, set here for the
length of the call.  A criterion whose head slab (first leading index)
has every residual at most its least bound offers it its factors; when
their reconstruction residual certifies the rest of the criterion's
walk (`_CERTIFICATE_ROUNDING`), the walk stops.  Every factorized route
takes its normalized factors and residual from `_Reconstruction.of`,
which forms them once per factors object, so the offered factors are
normalized and walked once, and a product decided by a criterion makes
one reconstruction walk and the oracle's.  The certificate never reads
the oracle's numbers, nor the oracle the criterion's.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import reduce
from typing import List, Optional

import numpy as np

from .bipartite import (
    ORACLE,
    _RECONSTRUCTION,
    LocalFactors,
    Outcome,
    Verdict,
    sign_flip_recover,
    sum_test,
)
from .core import (
    CoeffTensor,
    DEFAULT_TOLERANCES,
    Tolerances,
    _ldexp,
    _norm_and_exponent,
    _outer_residual,
)
# The slab size, read here by the residual's tests.
from .core import _SLAB  # noqa: F401
from .multipartite import multiparty_sum_test
from .oracle import _pivot_factors, _rank_one_screen, unfolding_ranks
# Not called here any more; the benchmark's tracer (perfbench/spans.py)
# still counts calls at `pipeline.unfold`, and
# tests/test_linear_kernels.py::test_oracle_factors_are_pivot_fibres
# patches it with raising=True, so the name stays importable.
from .oracle import unfold  # noqa: F401
from .phase import magnitude_phase_test

REPORT_VERSION = 2

# A factorized verdict whose factors rebuild c with a residual above
# max|c| * (_RECONSTRUCTION_K * max(eps_mag, eps_rank) + r *
# _RECONSTRUCTION_ROUNDING) is an error.  Each route to "factorized"
# rebuilds c closer than the first term:
# - the multi-sum passes an entry when |c S^(r-1) - prod_k P_k| is at most
#   eps_mag * max(max|c| |S|^(r-1), |lhs|, |rhs|); with |rhs| <= |lhs| +
#   that residual, its factors rebuild each entry within eps_mag / (1 -
#   eps_mag) * max|c|, under 2 eps_mag * max|c| for eps_mag <= 1/2, and
#   `sum_test`'s bound, eps_mag * max(max|c|**2, |lhs|, |rhs|), does the
#   same over |S| wherever |S| >= max|c|; where |S| is smaller its bound
#   and its rounding grow by max|c| / |S|, so a product whose sums nearly
#   cancel may fail closed here;
# - mag-phase checks its own factors within 10 * eps_mag * max|c|;
# - the oracle's pivot factors G = f_1 (x) (f_2/c[p]) (x) ... leave
#   c - G = R_1 + (f_1/c[p]) (x) R_2|_(i_1 = p_1) + ..., the elimination
#   residuals of r' - 1 unfoldings spread by fibres over c[p] of modulus
#   at most 1, each entry at most eps_rank * max|c| by the pivot cutoff,
#   where r' <= 26 counts the parties of dimension >= 2 (2**26 entries at
#   most); the rank-1 screen certifies eps_rank / 8.
# So 32 covers every route.  Normalizing each factor (a real and a
# complex quotient), the constant (two products) and the rebuilt entry
# (one product) round within about 8 eps per party, relative to entries
# of at most (1 + 32 max(eps_mag, eps_rank)) max|c|; 16 eps is allowed.
_RECONSTRUCTION_K = 32
_RECONSTRUCTION_ROUNDING = 16 * float(np.finfo(float).eps)

# Inside `analyze` a sum criterion stops after its head slab when the
# reconstruction residual d = max|scale * (x)_k w_k - c| of the factors
# a_k it would return (units w_k and scale from `normalize_factors`)
# proves every residual left to walk at most least = fl(eps_mag * floor),
# the value under which `bipartite._sum_slabs` skips its bounds.  None of
# them is a violation then, so the verdict and the factors are those of
# the full walk.  With u = 2**-53, P = |power| (|S| for `sum_test`,
# |S|^(r-1) for the multi-sum) and no result overflowing or subnormal:
# - the walk's residual at x is |fl(fl(c_x power) - fl(prod_k P_k[x_k]))|:
#   the lhs product is within sqrt(5)u < 3u of c_x power, the chain of
#   r - 1 products within 3(r - 1)u of prod_k P_k[x_k], and the
#   difference and the modulus add u each;
# - a_1 = P_1 / power within 10u (Smith's quotient, as for the oracle's
#   screen; `_over_pivot` scales by an exact power of two) and a_k = P_k
#   for k >= 2, so prod_k P_k = power * prod_k a_k within 10u.  Lhs and
#   a_1 use the same computed power, so its own rounding does not enter;
# - `normalize_factors` divides each a_k by a norm and a phase (u and
#   10u) and multiplies both into the scale (u and 3u), and the
#   reconstruction forms r - 1 products and the scale's (3u each).  The
#   norm and the phase cancel up to that rounding, however accurate the
#   norm is, so the rebuilt entry is prod_k a_k within 18ru, and it is
#   within d (1 + 3u) of c_x;
# - so |prod_k a_k| <= max|c| + d bounds the rhs, and the walk's residual
#   is at most P d (1 + 8u) + (21r + 12)u P (2 max|c| + d), under
#   P d (1 + 8u) + 32ru P (2 max|c| + d) for r >= 2.
# 64ru is allowed, and the factors (1 + 16u) and (1 - 16u) of the test
# take in its own rounding.  A subnormal result loses up to 2**-1074,
# and later products amplify the loss.  Let M = max(1, N max|c|) for N
# entries: every partial sum, |S| and so |power|**(1/(r-1)) are at most
# M, so every prefix of the walk's chain and |lhs| are at most G = M^r,
# and P |scale| is at most sqrt(N) G.  The losses of the walk and of the
# reconstruction then stay under 2**-1053 G, and a_1's under 2**-1074 P
# M^(r-1).  So the certificate also asks G <= 2**1000 (nothing
# overflows) and least >= 2**-990 (G + P M^(r-1)) (the losses stay under
# 2**-60 least).  It declines, and the walk goes on, outside max|c| in
# [2**-400, 2**400], for a zero or non-finite power, for a factor that
# is zero or not finite (its residual is NaN), for no factors at all and
# on any tensor but the call's own.
_CERTIFICATE_ROUNDING = 32 * float(np.finfo(float).eps)
_CERTIFICATE_SLACK = 8 * float(np.finfo(float).eps)

METHODS = ("auto", "sum", "phase", "multi", "oracle")


@dataclass(frozen=True)
class StageResult:
    name: str
    verdict: Verdict
    elapsed_ms: float


@dataclass(frozen=True)
class NormalizedFactors:
    """Unit-norm factors with argument-0 leading coordinates, plus the
    aggregate scalar that restores the original product."""

    vectors: tuple
    scale: complex

    def outer(self) -> np.ndarray:
        return self.scale * reduce(np.multiply.outer, self.vectors)


@dataclass
class AnalysisReport:
    dims: tuple
    entry_count: int
    norm: float
    tolerances: Tolerances
    method: str
    stages: List[StageResult] = field(default_factory=list)
    verdict: Optional[Outcome] = None
    decided_by: Optional[str] = None
    factors: Optional[NormalizedFactors] = None
    reconstruction_residual: Optional[float] = None
    witness: Optional[tuple] = None
    witness_residual: Optional[float] = None
    reason: Optional[str] = None
    oracle_checked: bool = False
    oracle_says_factorized: Optional[bool] = None
    oracle_ranks: Optional[tuple] = None
    oracle_pivot_ratio: Optional[float] = None
    oracle_agrees: Optional[bool] = None
    error: Optional[str] = None

    @property
    def exit_code(self) -> int:
        if self.error is not None:
            return 2
        return 0 if self.verdict is Outcome.FACTORIZED else 1


def normalize_factors(factors: LocalFactors) -> NormalizedFactors:
    """Rescale each factor to unit norm with a real-positive leading
    coordinate; the removed scalars are aggregated into one constant.

    A vector whose sum of squares would overflow or underflow is first
    divided by 2**e, e the binary exponent of its largest modulus
    (`core._norm_and_exponent`), and the powers of two go into the
    constant last.  Scaling by a power of two is exact and commutes with
    every rounding here, so a factor scaled by 2**k gives the same units,
    bit for bit, and a constant scaled by exactly 2**k.
    """
    units = []
    scale = complex(1.0)
    exponent = 0
    with np.errstate(over="ignore", under="ignore"):
        norms = [_norm_and_exponent(v) for v in factors.vectors]
    for v, (nrm, e) in zip(factors.vectors, norms):
        u = (v if e == 0 else _ldexp(v, -e)) / nrm
        lead = int(np.argmax(np.abs(u) > 1e-12))
        phase = u[lead] / abs(u[lead])
        units.append(u / phase)
        scale *= nrm * phase
        exponent += e
    if exponent:
        # still a numpy scalar, as the product is: numpy computes a Python
        # complex times a large temporary in place, as temporary * scale,
        # which rounds differently from scale * temporary where the CPU
        # fuses multiply-adds
        scale = _ldexp(np.asarray(scale), exponent)[()]
    return NormalizedFactors(tuple(units), scale)


class _Reconstruction:
    """Finalisation's reconstruction for the tensor of one `analyze` call.

    `of` normalizes factors and walks their reconstruction residual,
    and keeps both for the last factors it saw.  A sum criterion on
    `tensor` offers it the factors it would return (`bipartite._offer`),
    and returns those very factors, so `_finalize` finds them formed.
    """

    def __init__(self, t: CoeffTensor):
        self.tensor = t
        self.factors = self.formed = None

    def of(self, factors: LocalFactors) -> tuple:
        """(normalized factors, reconstruction residual) of `factors`,
        formed only when they are not the factors of the last call."""
        if factors is not self.factors:
            normalized = normalize_factors(factors)
            self.formed = normalized, _reconstruction_residual(normalized, self.tensor.array)
            self.factors = factors
        return self.formed

    def certifies(self, factors: Optional[LocalFactors], power, least) -> bool:
        """Whether the reconstruction residual of `factors` proves every
        residual of the sum criterion c * power == prod_k P_k at most
        `least` (`_CERTIFICATE_ROUNDING`)."""
        t = self.tensor
        cmax, r = t.max_abs, t.party_count
        p = abs(power)
        e = max(0, math.frexp(t.entry_count * cmax)[1])  # M <= 2**e
        if not (
            factors is not None
            and 2.0**-400 <= cmax <= 2.0**400
            and 0.0 < p < math.inf
            and r * e <= 1000
            and least >= math.ldexp(1.0, r * e - 990) + math.ldexp(p, (r - 1) * e - 990)
        ):
            return False
        d = self.of(factors)[1]
        rounding = r * _CERTIFICATE_ROUNDING * p * (2 * cmax + d)
        return p * d * (1 + _CERTIFICATE_SLACK) + rounding <= least * (1 - _CERTIFICATE_SLACK)


def _oracle_factor_extraction(t: CoeffTensor) -> LocalFactors:
    """Factors for a tensor the oracle certified rank-1: the fibres
    through the oracle's pivot (`oracle._pivot_factors`)."""
    return LocalFactors(_pivot_factors(t.array)[1])


def _run_stage(report, name, fn, t, tol):
    start = time.perf_counter()
    verdict = fn(t, tol)
    elapsed = (time.perf_counter() - start) * 1000.0
    report.stages.append(StageResult(name, verdict, elapsed))
    return verdict


def _oracle_stage(report, t, tol, screen):
    """Run the oracle.  With `screen` (the oracle decides, or checks a
    factorized verdict) a tensor of r >= 3 parties first meets the
    one-pass rank-1 screen, and its pivot factors ride on a factorized
    verdict for `_finalize`; an entangled verdict and every 2-party
    tensor go straight to `unfolding_ranks`."""
    start = time.perf_counter()
    decision = factors = None
    if screen and t.party_count >= 3:
        p, vectors = _pivot_factors(t.array)
        decision = _rank_one_screen(t.array, p, vectors, tol)
        factors = LocalFactors(vectors)
    if decision is None:
        decision = unfolding_ranks(t, tol)
    elapsed = (time.perf_counter() - start) * 1000.0
    verdict = Verdict(
        Outcome.FACTORIZED if decision.factorized else Outcome.ENTANGLED,
        ORACLE,
        factors=factors if decision.factorized else None,
        reason="unfolding ranks " + " ".join(str(r) for r in decision.ranks),
    )
    report.stages.append(StageResult("oracle", verdict, elapsed))
    report.oracle_checked = True
    report.oracle_says_factorized = decision.factorized
    report.oracle_ranks = decision.ranks
    report.oracle_pivot_ratio = decision.pivot_ratio
    return verdict


def _finalize(report, verdict, rec):
    """Copy the verdict into the report; for a factorized one, take the
    normalized factors and their reconstruction residual from `rec`, the
    call's `_Reconstruction`, and check the residual against the bound."""
    report.verdict = verdict.outcome
    report.decided_by = verdict.decided_by
    report.reason = verdict.reason
    if verdict.witness is not None:
        report.witness = verdict.witness.index
        report.witness_residual = verdict.witness.residual
    if verdict.is_factorized:
        t = rec.tensor
        factors = verdict.factors
        if factors is None:
            factors = _oracle_factor_extraction(t)
        report.factors, residual = rec.of(factors)
        report.reconstruction_residual = residual
        tol = report.tolerances
        eps = _RECONSTRUCTION_K * max(tol.eps_mag, tol.eps_rank)
        bound = t.max_abs * (eps + t.party_count * _RECONSTRUCTION_ROUNDING)
        if report.error is None and not residual <= bound:
            report.error = (
                f"factors from {verdict.decided_by!r} reconstruct with residual "
                f"{residual!r} > bound {bound!r}"
            )


def _reconstruction_residual(normalized, c) -> float:
    """max |normalized.outer() - c|, bit for bit, without the full-size
    outer product."""
    return _outer_residual(c, normalized.vectors, normalized.scale)[0]


def analyze(
    t: CoeffTensor,
    tol: Tolerances = DEFAULT_TOLERANCES,
    method: str = "auto",
    oracle_check: bool = True,
) -> AnalysisReport:
    """Run the analysis pipeline and assemble a full report.

    `method` forces a single criterion instead of auto-escalating; a
    forced criterion that is inconclusive is reported as an error rather
    than silently escalated.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    report = AnalysisReport(
        dims=t.dims,
        entry_count=t.entry_count,
        norm=t.norm,
        tolerances=tol,
        method=method,
    )
    r = t.party_count

    if method in ("sum", "phase") and r != 2:
        report.error = f"method {method!r} needs a bipartite input, got {r} parties"
        return report

    # Every stage turns a value that over- or underflows into an
    # inconclusive verdict, an error or a failed reconstruction bound,
    # so numpy's warnings for it are noise on the caller's stderr.  The
    # oracle's helper thread runs in a copy of this context and inherits
    # the setting.  The sum criteria reach this call's reconstruction
    # through `bipartite._RECONSTRUCTION`, set for the call only.
    rec = _Reconstruction(t)
    token = _RECONSTRUCTION.set(rec)
    try:
        with np.errstate(all="ignore"):
            verdict = None
            if method == "auto" and r == 2:
                verdict = _run_stage(report, "sum", sum_test, t, tol)
                if verdict.is_inconclusive:
                    verdict = _run_stage(report, "sign-flip", sign_flip_recover, t, tol)
                if verdict.is_inconclusive:
                    verdict = _run_stage(report, "mag-phase", magnitude_phase_test, t, tol)
            elif method in ("auto", "multi"):
                verdict = _run_stage(report, "multi-sum", multiparty_sum_test, t, tol)
            elif method == "sum":
                verdict = _run_stage(report, "sum", sum_test, t, tol)
            elif method == "phase":
                verdict = _run_stage(report, "mag-phase", magnitude_phase_test, t, tol)

            if verdict is not None and verdict.is_inconclusive and method != "auto":
                report.error = f"forced method {method!r} is inconclusive: {verdict.reason}"
            elif verdict is None or verdict.is_inconclusive:
                # forced oracle, or the terminal stage of auto: the oracle decides
                verdict = _oracle_stage(report, t, tol, screen=True)
                report.oracle_agrees = True
            elif oracle_check:
                oracle_verdict = _oracle_stage(report, t, tol, screen=verdict.is_factorized)
                report.oracle_agrees = oracle_verdict.outcome is verdict.outcome
                if not report.oracle_agrees:
                    report.error = (
                        f"criterion {verdict.decided_by!r} says {verdict.outcome.value} "
                        f"but the oracle found {oracle_verdict.reason}"
                    )
            _finalize(report, verdict, rec)
    finally:
        _RECONSTRUCTION.reset(token)
    return report


def _fmt_complex(z: complex) -> str:
    return f"{float(z.real)!r} {float(z.imag)!r}"


def _verdict_fields(v: Verdict) -> str:
    parts = [f"outcome={v.outcome.value}", f"decided_by={v.decided_by}"]
    if v.witness is not None:
        idx = ",".join(str(i) for i in v.witness.index)
        parts.append(f"witness=({idx})")
        parts.append(f"residual={v.witness.residual!r}")
    if v.reason:
        parts.append(f"reason={v.reason.replace(' ', '_')}")
    return " ".join(parts)


def render_report(report: AnalysisReport, pretty: bool = False) -> str:
    """Machine-readable key/value document; `pretty` appends a human table
    in comment lines, which keeps the document parseable."""
    lines = []
    emit = lines.append
    emit(f"report_version: {REPORT_VERSION}")
    emit("dims: " + " ".join(str(d) for d in report.dims))
    emit(f"entries: {report.entry_count}")
    emit(f"norm: {report.norm!r}")
    emit(f"tol_mag: {report.tolerances.eps_mag!r}")
    emit(f"tol_ang: {report.tolerances.eps_ang!r}")
    emit(f"tol_rank: {report.tolerances.eps_rank!r}")
    emit(f"method: {report.method}")
    for stage in report.stages:
        emit(
            f"stage: name={stage.name} {_verdict_fields(stage.verdict)} "
            f"time_ms={stage.elapsed_ms:.3f}"
        )
    if report.verdict is not None:
        emit(f"verdict: {report.verdict.value}")
    if report.decided_by is not None:
        emit(f"decided_by: {report.decided_by}")
    if report.witness is not None:
        emit("witness: " + " ".join(str(i) for i in report.witness))
        emit(f"witness_residual: {report.witness_residual!r}")
    if report.reason:
        emit(f"reason: {report.reason}")
    if report.factors is not None:
        for k, v in enumerate(report.factors.vectors):
            emit(f"factor_{k}: " + "  ".join(_fmt_complex(z) for z in v))
        emit(f"factor_scale: {_fmt_complex(report.factors.scale)}")
        emit(f"reconstruction_residual: {report.reconstruction_residual!r}")
    emit(f"oracle_checked: {str(report.oracle_checked).lower()}")
    if report.oracle_checked:
        emit(f"oracle_factorized: {str(report.oracle_says_factorized).lower()}")
        emit("oracle_ranks: " + " ".join(str(r) for r in report.oracle_ranks))
        emit(f"oracle_pivot_ratio: {report.oracle_pivot_ratio!r}")
        emit(f"oracle_agrees: {str(report.oracle_agrees).lower()}")
    if report.error is not None:
        emit(f"error: {report.error}")

    if pretty:
        emit("#")
        emit("# " + "-" * 58)
        emit(f"# {'stage':<12} {'outcome':<14} {'decided by':<14} details")
        emit("# " + "-" * 58)
        for stage in report.stages:
            v = stage.verdict
            detail = ""
            if v.witness is not None:
                detail = f"witness {v.witness.index} residual {v.witness.residual:.3g}"
            elif v.reason:
                detail = v.reason
            emit(f"# {stage.name:<12} {v.outcome.value:<14} {v.decided_by:<14} {detail}")
        emit("# " + "-" * 58)
        if report.verdict is not None:
            emit(f"# final verdict: {report.verdict.value} (by {report.decided_by})")
        if report.error is not None:
            emit(f"# error: {report.error}")
    return "\n".join(lines) + "\n"
