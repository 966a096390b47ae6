"""Auto-escalating analysis pipeline and verdict reports.

Bipartite inputs run the sum test, then the single-flip recovery, then
the magnitude/phase test; r >= 3 inputs run the multiparty sum test and
fall back to the rank oracle.  The oracle is also run as a cross-check
of every conclusive criterion verdict unless disabled, and the final
verdict is never inconclusive.
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
    LocalFactors,
    Outcome,
    Verdict,
    sign_flip_recover,
    sum_test,
)
from .core import CoeffTensor, DEFAULT_TOLERANCES, Tolerances
from .multipartite import multiparty_sum_test
from .oracle import unfolding_ranks
# Not called here any more; the benchmark's tracer (perfbench/spans.py)
# still counts calls at `pipeline.unfold`, so the name stays importable.
from .oracle import unfold  # noqa: F401
from .phase import magnitude_phase_test

REPORT_VERSION = 2

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
    coordinate; the removed scalars are aggregated into one constant."""
    units = []
    scale = complex(1.0)
    for v in factors.vectors:
        nrm = float(np.linalg.norm(v))
        u = v / nrm
        lead = int(np.argmax(np.abs(u) > 1e-12))
        phase = u[lead] / abs(u[lead])
        units.append(u / phase)
        scale *= nrm * phase
    return NormalizedFactors(tuple(units), scale)


def _oracle_factor_extraction(t: CoeffTensor) -> LocalFactors:
    """Factors for a tensor the oracle certified rank-1: the fibres
    through the oracle's pivot p = argmax |c|.

    For c = a_1 (x) ... (x) a_r the fibre of party k through p is a_k
    times the product of the other a_j[p_j], so the outer product of all
    r fibres is c * c[p]^(r-1).  Dividing each fibre but party 1's by
    c[p] removes that power without ever forming it.
    """
    c = t.array
    p = np.unravel_index(int(np.abs(c).argmax()), c.shape)
    fibres = [c[p[:k] + (slice(None),) + p[k + 1 :]] for k in range(t.party_count)]
    return LocalFactors([fibres[0]] + [f / c[p] for f in fibres[1:]])


def _run_stage(report, name, fn, t, tol):
    start = time.perf_counter()
    verdict = fn(t, tol)
    elapsed = (time.perf_counter() - start) * 1000.0
    report.stages.append(StageResult(name, verdict, elapsed))
    return verdict


def _oracle_stage(report, t, tol):
    start = time.perf_counter()
    decision = unfolding_ranks(t, tol)
    elapsed = (time.perf_counter() - start) * 1000.0
    verdict = Verdict(
        Outcome.FACTORIZED if decision.factorized else Outcome.ENTANGLED,
        ORACLE,
        reason="unfolding ranks " + " ".join(str(r) for r in decision.ranks),
    )
    report.stages.append(StageResult("oracle", verdict, elapsed))
    report.oracle_checked = True
    report.oracle_says_factorized = decision.factorized
    report.oracle_ranks = decision.ranks
    report.oracle_pivot_ratio = decision.pivot_ratio
    return verdict


def _finalize(report, verdict, t):
    report.verdict = verdict.outcome
    report.decided_by = verdict.decided_by
    report.reason = verdict.reason
    if verdict.witness is not None:
        report.witness = verdict.witness.index
        report.witness_residual = verdict.witness.residual
    if verdict.is_factorized:
        factors = verdict.factors
        if factors is None:
            factors = _oracle_factor_extraction(t)
        normalized = normalize_factors(factors)
        report.factors = normalized
        report.reconstruction_residual = _reconstruction_residual(normalized, t.array)


# Entries per slab of the reconstruction residual.
_SLAB = 1 << 16


def _reconstruction_residual(normalized, c) -> float:
    """max |normalized.outer() - c| without the full-size outer product.

    The tensor is cut into slabs along the joint index of its leading
    parties, each about `_SLAB` entries; a tensor of at most `_SLAB`
    entries is one slab, a single pass like `outer()`.  A slab's outer
    product starts from the same entries of the leading parties' product
    and multiplies in the trailing factors and then the scale in the same
    order as `outer()`, so every entry, and the maximum, is bit-identical.
    """
    vectors = normalized.vectors
    k = 1
    while k < c.ndim - 1 and math.prod(c.shape[k:]) > _SLAB:
        k += 1
    lead = reduce(np.multiply.outer, vectors[:k]).reshape(-1)
    rows = c.reshape(lead.size, -1)
    step = max(1, _SLAB // rows.shape[1])
    worst = [
        np.abs(
            normalized.scale * reduce(np.multiply.outer, vectors[k:], lead[i : i + step])
            - rows[i : i + step].reshape((-1,) + c.shape[k:])
        ).max()
        for i in range(0, lead.size, step)
    ]
    return float(np.max(worst))


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
        verdict = _oracle_stage(report, t, tol)
        report.oracle_agrees = True
    elif oracle_check:
        oracle_verdict = _oracle_stage(report, t, tol)
        report.oracle_agrees = oracle_verdict.outcome is verdict.outcome
        if not report.oracle_agrees:
            report.error = (
                f"criterion {verdict.decided_by!r} says {verdict.outcome.value} "
                f"but the oracle found {oracle_verdict.reason}"
            )
    _finalize(report, verdict, t)
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
