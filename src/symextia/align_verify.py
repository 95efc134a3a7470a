"""Alignment residuals, signal-space rank certification, and distinctness audits.

All checks are subspace-level: precoder columns carry arbitrary nonzero
per-column scales (they are normalized on construction), so equality is
measured after per-column least-squares scale matching and containment via
projection onto an orthonormal basis of the reference block.

The checks are noise-free and scale-free: residuals are relative to the
block they measure and the rank cutoff is relative to the largest singular
value, so the SNR (each user's transmit power per raw slot over the
unit-variance receiver noise, as in ``link_sim``) does not enter them.
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
    """Residuals and rank certificates for one (effective channel, precoder) pair.

    ``rank_results`` holds one certificate per receiver, keyed 1..users.
    """

    residuals: dict[str, float]
    rank_results: dict[int, RankResult]
    verdict: str


@dataclass(frozen=True)
class DistinctnessAudit:
    """Minimal pairwise relative gaps of cascade eigenvalues and kappa.

    ``flagged`` names every quantity whose gap is below ``DISTINCTNESS_TOL``.
    """

    lambda_gaps: dict[tuple[int, int], float]
    kappa_gap: float
    flagged: tuple[str, ...]


def _rank_cutoff(shape: tuple[int, ...], s: np.ndarray) -> float | None:
    """The one rank cutoff, max(shape) * eps * sigma_max, for descending singular values ``s``.

    None means no nonzero singular value, so rank 0.
    """
    if s.size == 0 or s[0] == 0.0:
        return None
    return max(shape) * _EPS * float(s[0])


def numerical_rank(matrix: np.ndarray) -> tuple[int, float, float]:
    """Rank, sigma_min/sigma_max margin, and the cutoff max(shape)*eps*sigma_max."""
    s = np.linalg.svd(matrix, compute_uv=False)
    threshold = _rank_cutoff(matrix.shape, s)
    if threshold is None:
        return 0, 0.0, 0.0
    rank = int(np.count_nonzero(s > threshold))
    margin = float(s[-1] / s[0])
    return rank, margin, threshold


def orthonormal_basis(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical column space (SVD with rank cutoff)."""
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    threshold = _rank_cutoff(matrix.shape, s)
    return u[:, :0] if threshold is None else u[:, s > threshold]


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


def check_alignment(eff: EffectiveChannel, pre: PrecoderSet) -> AlignmentReport:
    """Verify every alignment condition and rank certificate at once.

    Equality conditions (H_1i V_i and H_13 V_3 span the same columns for
    i != 1, 3) are measured per column after least-squares scale matching;
    containment conditions (H_jk V_k inside the span of H_j1 V_1 for
    j, k != 1, j != k) as relative projection residuals. The verdict is
    ``pass`` only if every residual is at or below ``RESIDUAL_TOL`` and
    every receiver composite has full rank D.
    """
    _check_pair(eff, pre)
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
    ok = all(r <= RESIDUAL_TOL for r in residuals.values()) and all(
        res.rank == res.required for res in rank_results.values()
    )
    return AlignmentReport(
        residuals=residuals, rank_results=rank_results, verdict="pass" if ok else "fail"
    )


def _pair_gaps(a: np.ndarray, b: np.ndarray, mag_a: np.ndarray, mag_b: np.ndarray) -> np.ndarray:
    """|a - b| / max(|a|, |b|) entrywise, 0 where both magnitudes are 0.

    A pair whose difference overflows is recomputed as
    |a/2 - b/2| / (scale/2): halving is exact at that magnitude, so the gap
    is the one an unbounded exponent range would give. Every other pair
    keeps the bits of the plain expression.
    """
    scale = np.maximum(mag_a, mag_b)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gaps = np.where(scale > 0, np.abs(a - b) / scale, 0.0)
    wide = np.flatnonzero(np.isinf(gaps))
    if wide.size:
        gaps[wide] = np.abs(a[wide] / 2 - b[wide] / 2) / (scale[wide] / 2)
    return gaps


def min_relative_gap(values: np.ndarray) -> float:
    """Smallest pairwise relative difference |a - b| / max(|a|, |b|).

    A pair of zeros has gap 0. The values are sorted by magnitude and swept
    one offset of that order at a time (the sort-and-sweep pruning of
    closest-pair search, Shamos & Hoey, FOCS 1975): from offset 2 on, a pair
    is skipped when its magnitude difference alone, a lower bound on
    |a - b|, already puts its gap above the running minimum, and the sweep
    stops at the first offset that keeps no pair (magnitude differences only
    grow with the offset) or once the minimum is 0. Typical inputs cost
    O(D log D) time; equal magnitudes, such as roots of unity, cost O(D^2).
    Memory stays O(D). Every pair that is computed uses the same
    floating-point expression as the full pair matrix, and the minimum is
    exact, so the result is the same bits as comparing all pairs; only a
    pair whose difference overflows gets its exact gap where the matrix
    reads inf.

    Raises
    ------
    ParameterError
        If any value or its magnitude is not finite.
    """
    v = np.asarray(values).ravel()
    with np.errstate(over="ignore"):
        mags = np.abs(v)
    # a complex value can have finite parts and an overflowing magnitude
    if not np.all(np.isfinite(mags)):
        raise ParameterError("relative gaps need finite values and magnitudes")
    if v.size < 2:
        return float("inf")
    order = np.argsort(mags)
    v, mags = v[order], mags[order]
    finfo = np.finfo(np.result_type(mags, 1.0))
    best = _pair_gaps(v[1:], v[:-1], mags[1:], mags[:-1]).min()
    for offset in range(2, v.size):
        if best == 0:
            break
        hi, lo = mags[offset:], mags[:-offset]
        # Skipping needs (hi - lo) / hi > best with room for the rounding of
        # the magnitudes, the difference and the quotient: the relative
        # 1e-6 and 8 eps cover it at every scale, the subnormal term below
        # the normal range. A slack of 1 already keeps every pair, since
        # hi - lo <= hi, and capping it there keeps slack * hi finite.
        slack = min(float(best) * (1 + 1e-6) + 8 * float(finfo.eps), 1.0)
        live = np.flatnonzero(hi - lo <= slack * hi + 8 * finfo.smallest_subnormal)
        if live.size == 0:
            break
        best = min(best, _pair_gaps(v[live + offset], v[live], hi[live], lo[live]).min())
    return float(best)


def distinctness_audit(cascades: CascadeSet) -> DistinctnessAudit:
    """Audit the generators for repeated eigenvalues.

    Repeated entries on a cascade diagonal (or on kappa) collapse the span
    the exponent products can generate, so any gap below
    ``DISTINCTNESS_TOL`` is flagged by name.
    """
    lambda_gaps = {pair: min_relative_gap(diag) for pair, diag in cascades.matrices.items()}
    kappa_gap = min_relative_gap(cascades.kappa)
    flagged = tuple(
        sorted(f"T_{k}_{l}" for (k, l), gap in lambda_gaps.items() if gap < DISTINCTNESS_TOL)
    )
    if kappa_gap < DISTINCTNESS_TOL:
        flagged = flagged + ("kappa",)
    return DistinctnessAudit(lambda_gaps=lambda_gaps, kappa_gap=kappa_gap, flagged=flagged)
