"""Alignment residuals, signal-space rank certification, and distinctness audits.

Each alignment question has one entry point. ``check_alignment`` gives a
pair's residuals and one rank certificate per receiver
(``report.rank_results[k]``); ``numerical_rank`` gives the rank of one
matrix; ``PrecoderSet.composite(eff.diagonals[k - 1], k)`` gives receiver
k's composite, the matrix that certificate is taken of.

All checks are subspace-level: precoder columns carry arbitrary nonzero
per-column scales (they are normalized on construction), so equality is
measured after per-column least-squares scale matching and containment via
projection onto an orthonormal basis of the reference block.

The checks are noise-free and scale-free: residuals are relative to the
block they measure and the rank cutoff is relative to the largest singular
value, so the SNR (each user's transmit power per raw slot over the
unit-variance receiver noise, as in ``link_sim``) does not enter them.

``check_alignment`` runs two kinds of dense SVD at each receiver j != 1: a
thin SVD with vectors for the containment basis of H_j1 V_1
(``_finite_basis``) and a values-only SVD for the rank certificate
(``numerical_rank``). Each receiver's two composite blocks are written
straight into its ``PrecoderSet.composite`` and read as its column blocks,
and only the other users' blocks are formed on their own; so through a
receiver's SVDs it holds the composite and those blocks, each block once,
and a serial pass frees the basis before the certificate. A K=4, n=3
``verify --trials 1`` (D = 1267) peaks at about 259 MiB RSS under double
coding on constant channels and 255 MiB under plain coding on i.i.d.
channels, against 284 and 280 MiB when each composite block was also held
on its own.

numpy's SVD with vectors releases the GIL. Its values-only SVD, looped on
one thread, held the GIL through each call at every D measured from 101 to
401 (the other thread's Python code ran at 0.10-0.52 of its own speed) and
as a (2, 151, 151) stack, but not at D = 501 or 1267 nor as a (2, 275, 275)
stack (2-vCPU x86 host, numpy 2.4.6, OpenBLAS on one thread). From
effective dimension ``_OVERLAP_MIN_DIM`` on, each certificate runs on one
helper thread while the calling thread runs the basis SVD. The caller
enters the basis SVD straight after handing the certificate over, with no
finiteness scan of its own (its input was checked with the receiver's
blocks): a scan in between releases the GIL for the certificate to take.
At D = 275, with such a scan 39-42 of 120 basis SVDs waited 1-25 ms to
start; without one, none waited 1 ms.
The helper runs the certificate, not the basis SVD, so that its malloc
arena grows to about one D x D copy, not to the basis SVD's vectors and
workspace (at D = 275, 1.9 MiB against 7.4 MiB). An arena keeps what it
grew to, and a helper that starts while the last call's helper is still
exiting gets an arena of its own, so this bounds what such a second arena
adds to the peak memory.
Below that dimension both run on the calling thread: there the two SVDs
take less time than starting the helper and handing each certificate back.
The helper comes from ``extension_core._helper_thread``, the factory that
``link_sim``'s split zero-forcing SVDs share, each with its own gate.
Both read the arrays a serial pass would, so every residual and certificate
keeps its bits either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .cj_precoder import CascadeSet, PrecoderSet, _check_pair
from .errors import ParameterError
from .extension_core import EffectiveChannel, _helper_thread

if TYPE_CHECKING:
    from concurrent.futures import Executor

RESIDUAL_TOL = 1e-8
DISTINCTNESS_TOL = 1e-9

_EPS = float(np.finfo(np.float64).eps)
_INF = float("inf")

# The smallest effective dimension at which check_alignment overlaps each
# basis SVD with its rank certificate. On a 2-vCPU x86 host (numpy 2.4.6,
# OpenBLAS on one thread) starting the helper and handing the certificates
# back cost about 1 ms per call: the overlap lost below D = 91, was within
# noise of the serial loop up to D = 141, and took 14-20% off each call
# from D = 151 on (30% at D = 275). At every D measured from 101 to 401 the
# certificate's values-only SVD held the GIL through the call, so there the
# basis SVD has to start first (module docstring).
_OVERLAP_MIN_DIM = 150


class RankResult(NamedTuple):
    rank: int  # full rank is the effective dimension D
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
    """Minimal pairwise relative gaps of cascade eigenvalues and kappa."""

    lambda_gaps: dict[tuple[int, int], float]
    kappa_gap: float

    @property
    def flagged(self) -> tuple[str, ...]:
        """Every quantity whose gap is below ``DISTINCTNESS_TOL``: the sorted ``T_k_l`` names, then ``kappa``."""
        low = sorted(f"T_{k}_{l}" for (k, l), gap in self.lambda_gaps.items() if gap < DISTINCTNESS_TOL)
        return (*low, "kappa") if self.kappa_gap < DISTINCTNESS_TOL else tuple(low)


def _rank_cutoff(shape: tuple[int, ...], s: np.ndarray) -> float | None:
    """The one rank cutoff, max(shape) * eps * sigma_max, for descending singular values ``s``.

    None means no nonzero singular value, so rank 0.
    """
    if s.size == 0 or s[0] == 0.0:
        return None
    return max(shape) * _EPS * float(s[0])


def numerical_rank(matrix: np.ndarray) -> RankResult:
    """Rank, sigma_min/sigma_max margin, and the cutoff max(shape)*eps*sigma_max of one matrix.

    ``ParameterError`` unless ``matrix`` is 2-D with finite entries: a
    stack has no one rank, and an SVD of inf or NaN returns NaN or fails to
    converge.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ParameterError(f"a rank certificate needs one 2-D matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ParameterError("a rank certificate needs a finite matrix")
    s = np.linalg.svd(matrix, compute_uv=False)
    threshold = _rank_cutoff(matrix.shape, s)
    if threshold is None:
        return RankResult(0, 0.0, 0.0)
    return RankResult(int(np.count_nonzero(s > threshold)), float(s[-1] / s[0]), threshold)


def _finite_basis(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical column space, by thin SVD and ``numerical_rank``'s cutoff.

    The entries must be known to be finite; ``check_alignment``'s
    containment residuals are the one caller.
    """
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    threshold = _rank_cutoff(matrix.shape, s)
    return u[:, :0] if threshold is None else u[:, s > threshold]


def _block_norms(blocks: dict[int, np.ndarray], receiver: int, denominators: tuple[int, ...]) -> dict[int, float]:
    """The Frobenius norm of every block at ``receiver``; the residuals divide by the ``denominators``' norms.

    ParameterError for a block with a non-finite entry or a norm of 0, and
    for a denominator whose norm overflows. A block that is no denominator
    only feeds an SVD, which scales its input, so an overflowing norm of
    finite entries is kept there. An inf or NaN entry makes the norm inf or
    NaN, so the entries are only scanned when the norm is inf.
    """
    with np.errstate(over="ignore"):
        norms = {user: float(np.linalg.norm(block)) for user, block in blocks.items()}
    for user, norm in norms.items():
        if not 0.0 < norm < _INF:
            name = f"block H_{receiver}{user} V_{user}"
            if norm == 0.0:
                raise ParameterError(f"{name} has norm 0")
            if math.isnan(norm) or not np.isfinite(blocks[user]).all():
                raise ParameterError(f"{name} has a non-finite entry")
            if user in denominators:
                raise ParameterError(f"{name} has norm inf, too large to divide a residual by")
    return norms


def check_alignment(eff: EffectiveChannel, pre: PrecoderSet) -> AlignmentReport:
    """Verify every alignment condition and rank certificate in one pass over receivers.

    At receiver 1, equality conditions (H_1i V_i and H_13 V_3 span the same
    columns for i != 1, 3) are measured per column after least-squares scale
    matching; at receiver j != 1, containment (H_jk V_k inside the span of
    H_j1 V_1 for k != 1, j) as relative projection residuals; each
    receiver's ``PrecoderSet.composite`` gets its ``numerical_rank``. The
    verdict is ``pass`` only if every residual is at or below
    ``RESIDUAL_TOL`` and every composite has full rank D.

    From effective dimension ``_OVERLAP_MIN_DIM`` on, the rank certificate
    at each receiver j != 1 runs on one helper thread while the calling
    thread runs the basis SVD of H_j1 V_1; the module docstring says why
    this way round. One helper serves every receiver and is joined before
    this returns or raises. Below that dimension both SVDs run on the
    calling thread, the basis and its residuals first. Each SVD reads the
    same array either way, so the report has the same bits on any number of
    CPUs, and if both SVDs at one receiver raise, the basis error
    propagates.

    A receiver holds each of its blocks once: the desired block and the
    basis user's block only as column blocks of its composite, which the
    basis SVD and the certificate both read, and the other users' blocks on
    their own. The module docstring gives what that saves.

    Every block is checked on the calling thread before any SVD of its
    receiver reads it: a block with a non-finite entry or a norm of 0, a
    residual's denominator block whose norm overflows, and a column of
    H_13 V_3 whose energy, the scale match's denominator, is 0 or overflows
    raise ``ParameterError``.
    """
    _check_pair(eff, pre)
    residuals: dict[str, float] = {}
    rank_results: dict[int, RankResult] = {}
    with _helper_thread(eff.dim >= _OVERLAP_MIN_DIM) as helper:
        for j in range(1, eff.users + 1):
            receiver_residuals, rank_results[j] = _receiver_checks(eff, pre, j, helper)
            residuals.update(receiver_residuals)
    ok = all(r <= RESIDUAL_TOL for r in residuals.values()) and all(
        res.rank == eff.dim for res in rank_results.values()
    )
    return AlignmentReport(
        residuals=residuals, rank_results=rank_results, verdict="pass" if ok else "fail"
    )


def _receiver_checks(
    eff: EffectiveChannel, pre: PrecoderSet, j: int, helper: Executor | None
) -> tuple[dict[str, float], RankResult]:
    """Receiver ``j``'s residuals, in key order, and its rank certificate, for ``check_alignment``.

    ``helper`` runs the rank certificate, or None to run it on the calling thread.
    A function of its own, so that the receiver's composite, blocks and
    products are freed before the next receiver's are formed.
    """
    row = eff.diagonals[j - 1]
    # the composite's two blocks are read as its column blocks, so neither is held twice
    composite = pre.composite(row, j)
    held = {user: composite[:, cols] for user, cols in pre._composite_columns(j).items()}
    blocks = {user: held[user] if user in held else pre._received_block(row, user) for user in pre.precoders}
    if j == 1:
        residuals: dict[str, float] = {}
        targets = (2, *range(4, eff.users + 1))
        norms = _block_norms(blocks, j, targets)
        reference = blocks[3]
        with np.errstate(over="ignore"):
            energy = np.sum(np.abs(reference) ** 2, axis=0)
        if not (energy.min() > 0.0 and energy.max() < _INF):
            raise ParameterError("block H_13 V_3 has a column whose energy, to scale-match against, is 0 or inf")
        for i in targets:
            target = blocks[i]
            coef = np.sum(reference.conj() * target, axis=0) / energy
            residuals[f"equality_rx1_tx{i}"] = float(
                np.linalg.norm(target - reference * coef[None, :]) / norms[i]
            )
        return residuals, numerical_rank(composite)
    contained = tuple(k for k in range(2, eff.users + 1) if k != j)
    norms = _block_norms(blocks, j, contained)
    pending = None if helper is None else helper.submit(numerical_rank, composite)
    try:
        residuals = _containment_residuals(blocks, norms, j, contained)
    finally:
        if pending is not None:
            pending.exception()  # waits without raising, so a basis error wins
    return residuals, numerical_rank(composite) if pending is None else pending.result()


def _containment_residuals(
    blocks: dict[int, np.ndarray], norms: dict[int, float], j: int, contained: tuple[int, ...]
) -> dict[str, float]:
    """Receiver ``j``'s containment residuals, from the basis SVD of H_j1 V_1.

    A function of its own, so that the basis is freed before a serial pass
    runs the receiver's rank certificate. ``_block_norms`` has already
    refused any block with a non-finite entry, so the basis SVD starts with
    no scan of its own (the module docstring says why that matters).
    """
    basis = _finite_basis(blocks[1])
    residuals = {}
    for k in contained:
        rejected = blocks[k] - basis @ (basis.conj().T @ blocks[k])
        residuals[f"contain_rx{j}_tx{k}"] = float(np.linalg.norm(rejected) / norms[k])
    return residuals


def _pair_gaps(a: np.ndarray, b: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """|a - b| / scale entrywise, where ``scale`` is max(|a|, |b|); 0 where it is 0.

    A pair whose difference overflows is recomputed as
    |a/2 - b/2| / (scale/2): halving is exact at that magnitude, so the gap
    is the one an unbounded exponent range would give. Every other pair
    keeps the bits of the plain expression.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.abs(a - b) / scale
    gaps[scale == 0] = 0.0  # both values are 0, and 0 / 0 is nan
    wide = np.isinf(gaps)
    if wide.any():
        gaps[wide] = np.abs(a[wide] / 2 - b[wide] / 2) / (scale[wide] / 2)
    return gaps


def min_relative_gap(values: np.ndarray) -> float:
    """Smallest pairwise relative difference |a - b| / max(|a|, |b|).

    A pair of zeros has gap 0; fewer than two values have gap inf. This is
    the batch of one of the stacked sweep ``_min_relative_gaps``, which
    says which pairs it computes and what that costs. Every pair that is
    computed uses the same floating-point expression as the full pair
    matrix, and the minimum is exact, so the result is the same bits as
    comparing all pairs; only a pair whose difference overflows gets its
    exact gap where the matrix reads inf.

    Bool and integer values are compared as float64, whose differences
    and magnitudes cannot wrap around; float and complex values are swept
    as they are.

    Raises
    ------
    ParameterError
        If the values are not numbers, or any value or its magnitude is not finite.
    """
    return float(_min_relative_gaps(np.asarray(values).ravel()[None])[0])


def _min_relative_gaps(values: np.ndarray) -> np.ndarray:
    """``min_relative_gap`` of each row of ``values``, (rows, size), in one sweep over every row.

    Each row is sorted by magnitude and swept one offset of that order at a
    time, every row at once (the sort-and-sweep pruning of closest-pair
    search, Shamos & Hoey, FOCS 1975): from offset 2 on, a pair is skipped
    when its magnitude difference alone, a lower bound on |a - b|, already
    puts its gap above its row's running minimum, each row's kept pairs are
    reduced by ``np.minimum.reduceat``, and a row whose minimum is 0 keeps
    none. The sweep stops at the first offset where no row keeps a pair
    (magnitude differences only grow with the offset), so rows that stop
    sooner cost nothing after. An offset computes at most one pair per
    value. Typical inputs cost O(D log D) time per row of D values; equal
    magnitudes, such as roots of unity, cost O(D^2). Memory stays O(D) per
    row. The dtype rule and the errors are ``min_relative_gap``'s.
    """
    if values.dtype.kind in "biu":
        values = values.astype(np.float64)
    elif values.dtype.kind not in "fc":
        raise ParameterError(f"relative gaps need numeric values, got dtype {values.dtype}")
    rows, size = values.shape
    with np.errstate(over="ignore"):
        mags = np.abs(values)
    # a complex value can have finite parts and an overflowing magnitude
    if not np.isfinite(mags).all():
        raise ParameterError("relative gaps need finite values and magnitudes")
    if size < 2:
        return np.full(rows, _INF)
    # every row in magnitude order; flat index r * size + i is row r's i-th value
    order = mags.argsort(axis=-1)
    order += np.arange(0, rows * size, size)[:, None]
    v, mags = values.ravel()[order], mags.ravel()[order]
    del order
    # in magnitude order the later value of a pair has the larger magnitude
    best = _pair_gaps(v[:, 1:], v[:, :-1], mags[:, 1:]).min(axis=-1)
    v, flat = v.ravel(), mags.ravel()
    finfo = np.finfo(np.result_type(mags, 1.0))
    for offset in range(2, size):
        # Skipping needs (hi - lo) / hi > best with room for the rounding of
        # the magnitudes, the difference and the quotient: the relative 1e-6
        # and 8 eps cover it at every scale, the subnormal term below the
        # normal range. A slack of 1 already keeps every pair, since
        # hi - lo <= hi, and capping it there keeps slack * hi finite; a
        # slack of nan keeps none.
        slack = np.minimum(best * (1 + 1e-6) + 8 * float(finfo.eps), 1.0)
        slack[best == 0] = np.nan
        hi, lo = mags[:, offset:], mags[:, :-offset]
        keep = hi - lo <= slack[:, None] * hi + 8 * finfo.smallest_subnormal
        live = np.flatnonzero(keep)
        if live.size == 0:
            break
        low = live + live // (size - offset) * offset  # flat index of each kept pair's smaller value
        gaps = _pair_gaps(v[low + offset], v[low], flat[low + offset])
        kept = np.count_nonzero(keep, axis=1)
        rows_kept = np.flatnonzero(kept)
        starts = (kept.cumsum() - kept)[rows_kept]  # each of those rows' first kept pair
        best[rows_kept] = np.minimum(best[rows_kept], np.minimum.reduceat(gaps, starts))
    return best


def distinctness_audit(cascades: CascadeSet) -> DistinctnessAudit:
    """Audit the generators for repeated eigenvalues.

    Repeated entries on a cascade diagonal (or on kappa) collapse the span
    the exponent products can generate, so any gap below
    ``DISTINCTNESS_TOL`` is flagged by name. Every generator's gap and
    kappa's come from one stacked ``_min_relative_gaps`` sweep, each the
    bits of ``min_relative_gap`` of that diagonal.

    Raises ``ParameterError`` for a non-finite entry and unless every
    generator diagonal has kappa's shape.
    """
    quantities = [*cascades.matrices.values(), cascades.kappa]
    if any(np.shape(q) != np.shape(cascades.kappa) for q in quantities):
        raise ParameterError("every cascade diagonal must have kappa's shape")
    *gaps, kappa_gap = _min_relative_gaps(np.stack(quantities).reshape(len(quantities), -1)).tolist()
    return DistinctnessAudit(lambda_gaps=dict(zip(cascades.matrices, gaps)), kappa_gap=kappa_gap)
