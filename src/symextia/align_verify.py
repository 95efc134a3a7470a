"""Alignment residuals, signal-space rank certification, and distinctness audits.

All checks are subspace-level: precoder columns carry arbitrary nonzero
per-column scales (they are normalized on construction), so equality is
measured after per-column least-squares scale matching and containment via
projection onto an orthonormal basis of the reference block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cj_precoder import CascadeSet, PrecoderSet
from .errors import ParameterError
from .extension_core import EffectiveChannel

RESIDUAL_TOL = 1e-8
DISTINCTNESS_TOL = 1e-9

_EPS = float(np.finfo(np.float64).eps)


class RankResult(NamedTuple):
    rank: int
    required: int
    margin: float  # sigma_min / sigma_max over the full square composite
    threshold: float  # absolute singular-value cutoff used for the rank


@dataclass(frozen=True)
class AlignmentReport:
    """Residuals and rank certificates for one (effective channel, precoder) pair."""

    users: int
    residuals: dict[str, float]
    rank_results: dict[int, RankResult]
    verdict: str
    tolerance_used: float


@dataclass(frozen=True)
class DistinctnessAudit:
    """Minimal pairwise relative gaps of cascade eigenvalues and kappa."""

    lambda_gaps: dict[tuple[int, int], float]
    kappa_gap: float
    threshold: float
    flagged: tuple[str, ...]


def numerical_rank(matrix: np.ndarray) -> tuple[int, float, float]:
    """Rank, sigma_min/sigma_max margin, and the cutoff max(shape)*eps*sigma_max."""
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0, 0.0, 0.0
    threshold = max(matrix.shape) * _EPS * float(s[0])
    rank = int(np.count_nonzero(s > threshold))
    margin = float(s[-1] / s[0])
    return rank, margin, threshold


def orthonormal_basis(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical column space (SVD with rank cutoff)."""
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return u[:, :0]
    threshold = max(matrix.shape) * _EPS * float(s[0])
    return u[:, s > threshold]


def _check_pair(eff: EffectiveChannel, pre: PrecoderSet) -> None:
    if eff.users != pre.users or eff.dim != pre.dim:
        raise ParameterError(
            f"effective channel ({eff.users} users, dim {eff.dim}) does not match "
            f"precoder set ({pre.users} users, dim {pre.dim})"
        )


def receiver_composite(eff: EffectiveChannel, pre: PrecoderSet, receiver: int) -> np.ndarray:
    """Desired block next to the aligned-interference basis seen at ``receiver``.

    At receiver 1 the interference from every other user sits on the user-2
    block, so the composite is [H_11 V_1 | H_12 V_2]; at receiver k != 1 all
    interference aligns inside the user-1 block, giving [H_kk V_k | H_k1 V_1].
    Either way the matrix is square D x D; ``PrecoderSet.basis_user`` names
    the interference block.
    """
    k = receiver
    return np.hstack([eff.diagonal(k, j)[:, None] * pre.precoders[j] for j in (k, pre.basis_user(k))])


def signal_space_rank(eff: EffectiveChannel, pre: PrecoderSet, receiver: int) -> RankResult:
    """Certify that desired plus interference span the full D dimensions."""
    _check_pair(eff, pre)
    composite = receiver_composite(eff, pre, receiver)
    rank, margin, threshold = numerical_rank(composite)
    return RankResult(rank=rank, required=eff.dim, margin=margin, threshold=threshold)


def check_alignment(
    eff: EffectiveChannel, pre: PrecoderSet, residual_tol: float = RESIDUAL_TOL
) -> AlignmentReport:
    """Verify every alignment condition and rank certificate at once.

    Equality conditions (H_1i V_i and H_13 V_3 span the same columns for
    i != 1, 3) are measured per column after least-squares scale matching;
    containment conditions (H_jk V_k inside the span of H_j1 V_1 for
    j, k != 1, j != k) as relative projection residuals. The verdict is
    ``pass`` only if every residual is at or below ``residual_tol`` and
    every receiver composite has full rank D.
    """
    _check_pair(eff, pre)
    if residual_tol <= 0:
        raise ParameterError(f"residual tolerance must be positive, got {residual_tol}")
    residuals: dict[str, float] = {}

    reference = eff.diagonal(1, 3)[:, None] * pre.precoders[3]
    for i in range(2, eff.users + 1):
        if i == 3:
            continue
        target = eff.diagonal(1, i)[:, None] * pre.precoders[i]
        coef = np.sum(reference.conj() * target, axis=0) / np.sum(np.abs(reference) ** 2, axis=0)
        residuals[f"equality_rx1_tx{i}"] = float(
            np.linalg.norm(target - reference * coef[None, :]) / np.linalg.norm(target)
        )

    for j in range(2, eff.users + 1):
        basis = orthonormal_basis(eff.diagonal(j, 1)[:, None] * pre.precoders[1])
        for k in range(2, eff.users + 1):
            if k == j:
                continue
            block = eff.diagonal(j, k)[:, None] * pre.precoders[k]
            rejected = block - basis @ (basis.conj().T @ block)
            residuals[f"contain_rx{j}_tx{k}"] = float(
                np.linalg.norm(rejected) / np.linalg.norm(block)
            )

    rank_results = {k: signal_space_rank(eff, pre, k) for k in range(1, eff.users + 1)}
    ok = all(r <= residual_tol for r in residuals.values()) and all(
        res.rank == res.required for res in rank_results.values()
    )
    return AlignmentReport(
        users=eff.users,
        residuals=residuals,
        rank_results=rank_results,
        verdict="pass" if ok else "fail",
        tolerance_used=residual_tol,
    )


def min_relative_gap(values: np.ndarray) -> float:
    """Smallest pairwise relative difference |a - b| / max(|a|, |b|)."""
    v = np.asarray(values).ravel()
    if v.size < 2:
        return float("inf")
    diff = np.abs(v[:, None] - v[None, :])
    mags = np.abs(v)
    scale = np.maximum(mags[:, None], mags[None, :])
    iu = np.triu_indices(v.size, k=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(scale[iu] > 0, diff[iu] / scale[iu], 0.0)
    return float(rel.min())


def distinctness_audit(cascades: CascadeSet, threshold: float = DISTINCTNESS_TOL) -> DistinctnessAudit:
    """Audit the generators for repeated eigenvalues.

    Repeated entries on a cascade diagonal (or on kappa) collapse the span
    the exponent products can generate, so any gap below ``threshold`` is
    flagged by name.
    """
    if threshold <= 0:
        raise ParameterError(f"threshold must be positive, got {threshold}")
    lambda_gaps = {pair: min_relative_gap(diag) for pair, diag in cascades.matrices.items()}
    kappa_gap = min_relative_gap(cascades.kappa)
    flagged = tuple(
        sorted(f"T_{k}_{l}" for (k, l), gap in lambda_gaps.items() if gap < threshold)
    )
    if kappa_gap < threshold:
        flagged = flagged + ("kappa",)
    return DistinctnessAudit(
        lambda_gaps=lambda_gaps, kappa_gap=kappa_gap, threshold=threshold, flagged=flagged
    )
