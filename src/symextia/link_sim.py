"""Monte Carlo link-level simulation over the alignment constructions.

The transmit chain is repetition-with-gains: each user beamforms its unit
power symbol streams through its precoder, places every beamformed entry on
each raw slot that folds onto it times that slot's transmit gain, and scales
the block so the expected transmit power per raw slot equals the configured
power. Receivers apply their receive gains, fold the slots back down,
pre-whiten the colored combined noise, and zero-force on their composite
with the rows of its pseudoinverse that recover the desired streams. How
slots fold is read from ``EffectiveChannel`` (``fold``, ``tx_gains``,
``rx_gains``), so nothing here branches on coding.
The channels and the coding fix the construction: ``build_precoders`` reads
the user count and the exponent cap off each effective channel, so a slot
count that no construction has is a ``ParameterError`` from the first draw.

One receiver front end, ``_zero_forcer``, serves both receivers: the
analytic rates of ``simulate_link`` and the sampled ``run_symbol_chain``
read the same noise standard deviations off the ``EffectiveChannel`` and
zero-force on the same composite, the receiver's two
``PrecoderSet.received_blocks`` in the column layout of
``PrecoderSet.composite``, which ``align_verify`` reads too. It whitens
those two blocks straight into a fresh composite and factors it first; only
then are the blocks the rate terms read formed, the two from the factored
composite and the other users' afresh, so no whitened block is held through
the SVD. That front end, like the precoder build and the scale factors,
takes an ``EffectiveChannel`` and a ``PrecoderSet`` that hold one trial or a
stack of trials. ``simulate_link`` runs its trials in chunks (``ZF_STACK_BYTES`` of
composites). One redraw loop, ``_draw``, draws every realization, a chunk's
or the single trial of ``draw_realization``, as one ``EffectiveChannel``
stack, and a chunk's precoders are one stacked build. A chunk then makes one
call for its scale factors and one stacked SVD per receiver, from which only
the receiver's rows of ``pinv`` are multiplied out (``_pinv_rows``); no
``GainPlan`` or ``EffectiveChannel`` is made per trial. ``run_symbol_chain``
calls the same functions on one trial. Every stacked step is entrywise along
the trial axis, or a reduction or factorisation of one trial's slice, and
each trial's (SNR, user) rates are added to array accumulators in trial
order, a receiver column at a time into the sum rate, so rates, redraw
counts and give-ups are those of a trial-at-a-time loop. Rates are analytic
from per-stream SINR, so the Monte Carlo averaging is over gain realizations
only and a fixed seed gives bit-for-bit reproducible results.

SNR is defined against unit-variance receiver noise: at a sweep point of
``snr_db`` each user's expected transmit power per raw slot is
``snr_power(snr_db) = 10**(snr_db / 10)``, which must be a positive finite
float with a finite reciprocal.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from .cj_precoder import PrecoderSet, _check_pair, _stacked_precoders, build_precoders
from .errors import DegenerateRealizationError, ParameterError, SimulationError
from .extension_core import (
    PLAIN,
    ChannelSet,
    EffectiveChannel,
    GainPlan,
    _STREAMS,
    _check_int,
    _complex_normal,
    _draw_gains,
    _fold_diagonals,
    slot_fold,
    subseed,
)

# Consecutive degenerate gain redraws tolerated per trial before giving up.
MAX_RESAMPLES = 20

# Byte cap on one stack of (D, D) complex composites, 16·D² bytes per trial.
# ``simulate_link`` runs its trials in chunks this cap allows (at least one
# trial), so memory does not grow with the trial count. A chunk's numpy
# arrays peak at about 7.5 times its composite stack at D = 21 and 33, and
# 6.2 times at D = 275 (realizations, precoders, SVD factors, as tracemalloc
# counts them; LAPACK's own workspace comes on top). 128 KiB stacks 18
# trials at D = 21, which is most of the gain of stacking all 50 of a run at
# a quarter of the memory, and runs one trial at a time from D = 65 on.
ZF_STACK_BYTES = 1 << 17

# numpy's default ``pinv`` cutoff: the zero-forcer zeroes every singular value
# at or below this times the largest. ``align_verify._rank_cutoff`` cuts at
# D·eps instead; the two answer one question two ways (ROADMAP item 7).
_PINV_RCOND = 1e-15

Built = TypeVar("Built")


def _usable_power(power: object) -> bool:
    """The one power rule: a real number, positive and finite with a finite reciprocal (so noise / power is)."""
    try:
        real = not isinstance(power, bool) and isinstance(power, numbers.Real)
        return real and 0.0 < float(power) < math.inf and 1.0 / float(power) < math.inf
    except OverflowError:  # an int too large for a float
        return False


def _check_power(power: object) -> None:
    if not _usable_power(power):
        raise ParameterError(f"power {power!r} must be a real number, positive and finite with a finite reciprocal")


def snr_power(snr_db: float) -> float:
    """Transmit power per raw slot ``10**(snr_db / 10)``; ParameterError unless usable.

    A usable point is a real number, and its power must pass the one power
    rule, ``_usable_power``. That rejects a point that is not finite or lies
    outside about -3082.5 .. 3082.5 dB.
    """
    if isinstance(snr_db, bool) or not isinstance(snr_db, numbers.Real):
        raise ParameterError(f"SNR point {snr_db!r} is not a real number")
    try:
        power = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        power = math.inf
    if not _usable_power(power):
        raise ParameterError(
            f"SNR point {snr_db} dB has no positive finite transmit power with a finite reciprocal"
        )
    return power


def _sweep_powers(points: Sequence[float]) -> list[float]:
    """``snr_power`` of each sweep point; ParameterError unless all are usable and increase strictly."""
    powers = [snr_power(snr) for snr in points]
    if any(b <= a for a, b in zip(points, points[1:])):
        raise ParameterError("SNR points must be strictly increasing")
    return powers


@dataclass(frozen=True)
class LinkConfig:
    """Sweep and averaging parameters for one link simulation; ParameterError unless usable.

    The points, at least one, are a sequence that is not a string, stored
    as a tuple (so a config is hashable), and must pass ``_sweep_powers``;
    ``trials`` is an integer >= 1 and ``seed`` one >= 0 (a bool is neither).
    """

    snr_points_db: tuple[float, ...]
    trials: int
    seed: int = 0

    def __post_init__(self) -> None:
        points = self.snr_points_db
        if isinstance(points, (str, bytes)) or not isinstance(points, Sequence):
            raise ParameterError(f"snr_points_db {points!r} is not a real number sequence, such as a tuple")
        object.__setattr__(self, "snr_points_db", tuple(points))
        if len(self.snr_points_db) == 0:
            raise ParameterError("need at least one SNR point")
        _sweep_powers(self.snr_points_db)
        _check_int("trials", self.trials, 1)
        _check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class LinkResult:
    """Averaged rates per SNR point plus the high-SNR slope estimate.

    Rates are bits per raw channel use, and ``failures`` counts degenerate
    gain redraws across all trials.
    """

    sum_rate: dict[float, float]
    per_user_rate: dict[float, tuple[float, ...]]
    failures: int

    @property
    def dof_estimate(self) -> float:
        """``estimate_dof`` of the sum rates, the slope between the two largest SNR points; NaN for one point."""
        return estimate_dof(self.sum_rate) if len(self.sum_rate) >= 2 else math.nan


@dataclass(frozen=True)
class ChainSample:
    """One explicit pass through the symbol-level transmit/receive chain.

    The channels and gains it ran on are ``effective.channels`` and
    ``effective.gains``.
    """

    effective: EffectiveChannel
    precoders: PrecoderSet
    symbols: dict[int, np.ndarray]
    tx_blocks: dict[int, np.ndarray]
    received: dict[int, np.ndarray]
    decoded: dict[int, np.ndarray]
    redraws: int


def _draw(
    channels: ChannelSet,
    coding: str,
    base_seed: int,
    trials: Sequence[int],
    build: Callable[[EffectiveChannel], tuple[Built, list[str | None]]],
) -> tuple[EffectiveChannel, Built, int]:
    """The one redraw loop: the realizations of ``trials`` as one ``EffectiveChannel`` stack, degenerate ones redrawn.

    Attempt n of trial t draws its gains on ``subseed(base_seed,
    _STREAMS["gains"], t, n)``. Each pass draws every trial at its own
    attempt, checked as one ``GainPlan`` stack, folded in one call and
    built in one call. ``build`` takes the ``EffectiveChannel`` stack of
    the drawn trials (with no gains under ``plain``, which has nothing to
    draw) and returns what it built and, per trial, None or the message of
    a degenerate build. A trial moves on to its next attempt if its pairs
    cancelled or its build degenerated. Returns the last pass's stack, its
    build and the redraw count, the sum of the accepted attempt numbers.

    Raises what the ``GainPlan``, the fold or ``build`` raises at the first
    attempt that raises, ``DegenerateRealizationError`` with the message of
    a degenerate ``plain`` build, and ``SimulationError`` naming the first
    trial still degenerate after ``MAX_RESAMPLES`` redraws.
    """
    users, slots, count = channels.users, channels.slots, len(trials)
    if coding == PLAIN:
        diagonals, _ = _fold_diagonals(channels.entries, None, None, PLAIN)
        eff = EffectiveChannel._folded(channels, None, PLAIN, np.repeat(diagonals[None], count, axis=0))
        built, degenerate = build(eff)
        if degenerate[0]:
            raise DegenerateRealizationError(degenerate[0])
        return eff, built, 0
    attempts = np.zeros(count, dtype=int)
    while True:
        draws = [_draw_gains(users, slots, subseed(base_seed, _STREAMS["gains"], t, n))
                 for t, n in zip(trials, attempts)]
        # one trial's gains are used as drawn: copying a long plan costs more than folding it
        gains = GainPlan(*(np.array(g) if len(g) > 1 else g[0][None] for g in zip(*draws)))
        diagonals, cancelled = _fold_diagonals(channels.entries, gains.alpha, gains.beta, coding)
        eff = EffectiveChannel._folded(channels, gains, coding, diagonals)
        built, degenerate = build(eff)
        again = cancelled.any(axis=(-2, -1)) | [message is not None for message in degenerate]
        if not again.any():
            return eff, built, int(attempts.sum())
        stuck = np.flatnonzero(again & (attempts == MAX_RESAMPLES))
        if stuck.size:
            raise SimulationError(
                f"trial {trials[stuck[0]]}: gave up after {MAX_RESAMPLES} consecutive degenerate gain redraws"
            )
        attempts += again


def draw_until_built(
    channels: ChannelSet,
    coding: str,
    base_seed: int,
    build: Callable[[EffectiveChannel], Built],
    trial: int = 0,
) -> tuple[GainPlan | None, EffectiveChannel, Built, int]:
    """Draw gains (when needed) until ``build(effective)`` succeeds, counting redraws.

    A draw is redrawn when its paired sums cancel or ``build`` raises
    ``DegenerateRealizationError``, so the caller decides what a usable
    realization must yield: ``draw_realization`` builds precoders, the
    distinctness audit builds cascades only. Returns ``(gains, effective,
    built, redraws)``; ``gains`` is None for plain coding, which has nothing
    to redraw. The draws are the one-trial case of the redraw loop of
    ``simulate_link``'s chunks, on seeds derived from ``(base_seed, trial,
    attempt)``, so trials are independent and resampling is reproducible.

    Raises
    ------
    ParameterError
        Unless ``base_seed`` and ``trial`` are integers >= 0, under ``plain`` too.
    DegenerateRealizationError
        If ``build`` degenerates under ``plain`` coding.
    SimulationError
        If the draw stays degenerate after ``MAX_RESAMPLES`` redraws.
    """
    _check_int("base_seed", base_seed, 0)
    _check_int("trial", trial, 0)

    def build_one(stack: EffectiveChannel) -> tuple[Built | None, list[str | None]]:
        try:
            return build(stack._trial(0)), [None]
        except DegenerateRealizationError as exc:
            return None, [str(exc)]

    stack, built, redraws = _draw(channels, coding, base_seed, (trial,), build_one)
    eff = stack._trial(0)
    return eff.gains, eff, built, redraws


def draw_realization(
    channels: ChannelSet, coding: str, base_seed: int, trial: int = 0
) -> tuple[GainPlan | None, EffectiveChannel, PrecoderSet, int]:
    """Draw gains (when needed) until the precoders build, counting redraws.

    Returns ``(gains, effective, precoders, redraws)``; see ``draw_until_built``.
    """
    return draw_until_built(channels, coding, base_seed, build_precoders, trial)


def _folded_power(gains: np.ndarray) -> np.ndarray:
    """Squared gain magnitudes summed over the raw slots folded onto each effective entry.

    ``gains`` is laid out like ``EffectiveChannel.tx_gains``, with any
    leading axes, (..., fold, dim); the result is (..., dim).
    """
    return np.sum(np.abs(gains) ** 2, axis=-2)


def effective_noise_std(eff: EffectiveChannel, receiver: int) -> np.ndarray:
    """Standard deviation of the combined unit-variance noise per effective slot, (..., D) for a stack."""
    # with one tap this is |b| exactly: binary64 sqrt of a rounded square
    # returns the value unless the square under- or overflows
    return np.sqrt(_folded_power(eff.rx_gains(receiver)))


def combine_received(y: np.ndarray, eff: EffectiveChannel, receiver: int) -> np.ndarray:
    """Apply receive gains and fold a raw T-slot block down to D effective slots.

    ParameterError unless ``y`` has T slots along its first axis.
    """
    eff._single()
    gains = eff.rx_gains(receiver)
    if y.shape[:1] != (eff.channels.slots,):
        raise ParameterError(f"block of shape {y.shape} does not have {eff.channels.slots} slots on its first axis")
    folded = y.reshape(gains.shape + y.shape[1:])
    return (gains.reshape(gains.shape + (1,) * (y.ndim - 1)) * folded).sum(axis=0)


def _scale_hats(pre: PrecoderSet, eff: EffectiveChannel) -> np.ndarray:
    """Power-free part of each user's block scale, sqrt(T / expected energy).

    The expected energy of one unscaled T-slot block with unit-power streams
    weights each precoder row's power by ``_folded_power`` of that user's
    transmit gains. A stack of trials, precoders (trials, D, d_k) and
    ``eff`` a stack of as many trials, gives one (trials, users) array in
    one pass; one trial gives (users,).
    """
    tx_power = _folded_power(eff.tx_gain_table)
    energy = np.stack(
        [
            np.sum(tx_power[..., user - 1, :] * np.sum(np.abs(mat) ** 2, axis=-1), axis=-1)
            for user, mat in pre.precoders.items()
        ],
        axis=-1,
    )
    return np.sqrt(eff.channels.slots / energy)


def transmit_blocks(
    pre: PrecoderSet, eff: EffectiveChannel, power: float, symbols: dict[int, np.ndarray]
) -> dict[int, np.ndarray]:
    """Beamform, gain-expand, and power-scale symbol blocks for every user.

    ``symbols[k]`` has shape (streams_k, blocks); the returned raw blocks have
    shape (T, blocks) and expected per-slot power ``power``. Each beamformed
    entry q rides every raw slot folded onto it, times that slot's gain.

    Raises
    ------
    ParameterError
        If ``power`` fails the power rule of ``_usable_power``, or ``symbols`` does not
        hold one 2-D block per user, all with the same block count and each
        with that user's stream count, or if ``eff`` and ``pre`` are not
        one trial of the same size (``_check_pair``).
    """
    _check_pair(eff, pre)
    _check_power(power)
    if set(symbols) != set(pre.precoders):
        raise ParameterError(
            f"symbols must hold exactly users {sorted(pre.precoders)}, got keys {list(symbols)}"
        )
    if any(np.ndim(s) != 2 for s in symbols.values()):
        raise ParameterError("each symbol block must be 2-D, (streams, blocks)")
    block_counts = {user: s.shape[1] for user, s in symbols.items()}
    if len(set(block_counts.values())) != 1:
        raise ParameterError(f"every user must send the same number of blocks, got {block_counts}")
    hats = _scale_hats(pre, eff)
    out: dict[int, np.ndarray] = {}
    for user, mat in pre.precoders.items():
        s = symbols[user]
        if s.shape[0] != mat.shape[1]:
            raise ParameterError(
                f"user {user} symbols carry {s.shape[0]} streams, expected {mat.shape[1]}"
            )
        beamformed = mat @ s
        block = (eff.tx_gains(user)[:, :, None] * beamformed).reshape(-1, s.shape[1])
        out[user] = np.sqrt(power) * hats[user - 1] * block
    return out


def _pinv_rows(composite: np.ndarray, rows: int) -> np.ndarray:
    """The first ``rows`` rows of ``np.linalg.pinv(composite)``, bit for bit, without the others.

    ``composite`` is a (..., D, D) stack the caller owns; it is conjugated in
    place and left conjugated. The steps are ``pinv``'s own: one SVD of the
    conjugate (stacked, each slice factored on its own), singular values at
    or below ``_PINV_RCOND`` times the largest zeroed, the rest inverted,
    and V·diag(1/σ)·Uᴴ multiplied out, but only for the rows asked for. At
    least two rows are multiplied: numpy sends a one-row product to ``gemv``,
    which sums in another order than the ``gemm`` of ``pinv``.
    """
    u, s, vh = np.linalg.svd(np.conjugate(composite, out=composite), full_matrices=False)
    large = s > _PINV_RCOND * np.amax(s, axis=-1, keepdims=True)
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    v_rows = np.swapaxes(vh, -1, -2)[..., : max(rows, 2), :]
    return np.matmul(v_rows, np.multiply(s[..., None], np.swapaxes(u, -1, -2)))[..., :rows, :]


def _zero_forcer(
    pre: PrecoderSet, eff: EffectiveChannel, k: int, scales: np.ndarray
) -> tuple[np.ndarray, dict[int, np.ndarray], np.ndarray]:
    """Receiver ``k``'s front end, shared by the analytic rates and the sampled chain.

    ``scales[..., j - 1]`` is user j's amplitude. Returns the receiver's
    ``effective_noise_std``, (D,); its whitened blocks, block j being
    ``scales[j - 1]`` times ``pre.received_blocks`` of its row of effective
    diagonals, (D, d_j), each row divided by the noise standard deviation
    of its effective slot; and the rows of the pseudoinverse of the
    composite of those blocks that recover user ``k``'s streams.
    ``eff``, ``pre`` and ``scales`` may hold the same stack of trials, and
    then so does every result. One stacked SVD covers every trial
    (``_pinv_rows``): it factors each (D, D) slice on its own, and only the
    d_k rows are multiplied out, so the rows are the same bits as one
    ``pinv`` call per trial.

    The desired and basis blocks are formed straight into a fresh
    ``pre.composite`` and whitened there, and it is factored before any
    other block exists. The two blocks are then copied out of the
    factored composite, conjugated back, and the other users' blocks are
    formed and whitened only after the SVD, so through it the receiver holds
    the composite and no block; every entry has the bits of a block whitened
    on its own. The returned blocks are contiguous, since a product on a
    column view of the composite can round differently.
    """
    noise_std = effective_noise_std(eff, k)
    row = eff.diagonals[..., k - 1, :, :]

    def whitened(j: int, block: np.ndarray) -> np.ndarray:
        block *= scales[..., j - 1, None, None]
        block /= noise_std[..., :, None]
        return block

    columns = pre._composite_columns(k)
    composite = pre.composite(row, k)
    for j, cols in columns.items():
        whitened(j, composite[..., cols])
    rows = _pinv_rows(composite, pre.stream_counts[k])
    # _pinv_rows left the conjugate; the products need contiguous blocks, not column views
    copied = {j: np.conjugate(composite[..., cols], order="C") for j, cols in columns.items()}
    del composite
    blocks = {j: copied[j] if j in copied else whitened(j, pre._received_block(row, j)) for j in pre.precoders}
    return noise_std, blocks, rows


def _receiver_terms(
    pre: PrecoderSet, eff: EffectiveChannel, k: int, hats: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Power-independent SINR pieces at receiver ``k``, stacked over trials.

    ``pre`` holds (trials, D, d_k) precoder stacks, ``eff`` the stack of
    the same trials and ``hats`` their scales, (trials, users). Returns
    (trials, d_k) arrays of signal power, total cross-stream leakage power
    and whitened-noise amplification per desired stream; with transmit
    power P the stream SINR is signal / (cross + noise / P).
    """
    _, blocks, gains_zf = _zero_forcer(pre, eff, k, hats)

    own = gains_zf @ blocks[k]
    signal = np.abs(np.diagonal(own, axis1=-2, axis2=-1)) ** 2
    cross = np.sum(np.abs(own) ** 2, axis=-1) - signal
    for j in pre.precoders:
        if j != k:
            cross = cross + np.sum(np.abs(gains_zf @ blocks[j]) ** 2, axis=-1)
    noise = np.sum(np.abs(gains_zf) ** 2, axis=-1)
    return signal, cross, noise


def simulate_link(channels: ChannelSet, coding: str, link: LinkConfig) -> LinkResult:
    """Average per-user and sum rates over seeded gain realizations.

    For each trial one set of gains is drawn (redrawing on degenerate paired
    cancellations or precoders, up to ``MAX_RESAMPLES`` consecutive
    redraws), precoders are built, and analytic zero-forcing SINRs give the
    rates at every SNR point of the sweep. ``plain`` coding has no gain
    randomness, so its trials are identical by construction. Trials run in
    stacked chunks through the one redraw loop, as the module docstring
    describes, with the bits of a trial-at-a-time loop; ``failures`` sums
    the accepted attempt numbers.

    Receivers are factored one at a time on the calling thread. Four ways
    to put a second CPU on this path were measured on a 2-vCPU host, in
    prototypes not kept, and all four failed the benchmark. Two D = 275
    receivers in flight cut ``link_k4`` wall time by about a quarter but
    raised peak RSS from 52.5 to 65.5-70.9 MiB, since each SVD with vectors
    holds about 10.6 MiB. A helper thread that factored each ``sweep_k3``
    chunk read ``ops_per_s`` 9-21% higher in 4 of 4 benchmark pairs while
    the op's own wall time rose 12-27% and the calibration kernel's 26-42%,
    so the calibrated metric credited a slowdown. A helper that ran each
    ``link_k4`` receiver's SVD while the caller formed the previous
    receiver's products raised the op's wall-time median from 409, 402 and
    425 ms to 514, 469 and 447 ms over three process pairs, and peak RSS
    from 51.3 to 66.7 MiB, while its ``ref_ms`` metrics read 12-14% faster.
    Running figure1's two codings on two threads read ``sweep_k3``
    ``ops_per_s`` 16.1-17.2 -> 18.9-20.2 in 4 of 4 pairs (0.91-0.95 of the
    serial op time, alternating both in one process), and ``link_k4``'s
    wall p50 267-377 -> 176-188 ms but peak RSS 51.8 -> 67.4 MiB. A thread
    on this path needs a wall-time check, not only the calibrated metrics.

    Returns
    -------
    LinkResult

    Raises
    ------
    ParameterError
        If the coding mode is unknown, cannot fold the channel's slots, or
        leaves an effective dimension that no construction has, or a fold
        overflows. A chunk raises the first such error it meets, at its
        earliest attempt, where a trial-at-a-time loop would raise its
        lowest trial's; the two differ only when trials of one chunk would
        raise different errors, which takes channel or gain magnitudes near
        the ends of the float range.
    DegenerateRealizationError
        If the precoders of ``plain`` coding degenerate.
    SimulationError
        If some trial stays degenerate after ``MAX_RESAMPLES`` redraws.
    """
    slots = channels.slots
    points = link.snr_points_db
    powers = np.array(_sweep_powers(points))
    user_acc = np.zeros((powers.size, channels.users))
    sum_acc = np.zeros(powers.size)
    failures = 0
    chunk = max(1, ZF_STACK_BYTES // (16 * (slots // slot_fold(coding)) ** 2))

    for start in range(0, link.trials, chunk):
        eff, pre, redraws = _draw(
            channels, coding, link.seed, range(start, min(start + chunk, link.trials)),
            lambda stack: _stacked_precoders(stack.diagonals),
        )
        failures += redraws
        hats = _scale_hats(pre, eff)
        rates = np.empty((len(eff.diagonals), powers.size, channels.users))
        for k in range(1, channels.users + 1):
            signal, cross, noise = _receiver_terms(pre, eff, k, hats)
            # noise / P overflows only where the SINR is far below 2^-53 (signal is
            # at most about 1), so log2(1 + SINR) is 0 anyway; inf noise gives SINR 0
            with np.errstate(over="ignore"):
                sinr = signal[:, None] / (cross[:, None] + noise[:, None] / powers[:, None])
            rates[:, :, k - 1] = np.sum(np.log2(1.0 + sinr), axis=-1) / slots
        for trial_rates in rates:
            user_acc += trial_rates
            for column in trial_rates.T:
                sum_acc += column

    sum_rate = dict(zip(points, (sum_acc / link.trials).tolist()))
    per_user = dict(zip(points, map(tuple, (user_acc / link.trials).tolist())))
    return LinkResult(sum_rate=sum_rate, per_user_rate=per_user, failures=failures)


def estimate_dof(sum_rate: dict[float, float]) -> float:
    """High-SNR degrees-of-freedom estimate from sum rates keyed by SNR in dB.

    This is the sum-rate slope against log2(linear SNR) between the two
    largest SNR points.
    """
    top = sorted(sum_rate)[-2:]
    if len(top) < 2:
        raise ParameterError("need at least two SNR points to estimate a slope")
    lo, hi = top
    return (sum_rate[hi] - sum_rate[lo]) / ((hi - lo) / 10.0 * np.log2(10.0))


def run_symbol_chain(
    channels: ChannelSet,
    coding: str,
    power: float,
    seed: int,
    blocks: int = 1,
    inject_noise: bool = True,
) -> ChainSample:
    """Push explicit symbols through the full transmit/receive chain once.

    This is the sampled counterpart of the analytic path in
    ``simulate_link``: actual unit-power symbols are beamformed,
    gain-expanded, power-scaled, propagated through the raw per-slot
    channels, optionally hit with unit-variance noise, then gain-combined,
    whitened, and zero-forced back to symbol estimates with the same
    pseudoinverse rows the analytic SINRs use (blocks scaled by the transmit
    amplitude, so noise-free estimates equal the symbols up to the
    composite's conditioning). Useful for testing power accounting,
    combining statistics, and noise-free decodability.

    Raises
    ------
    ParameterError
        Unless ``blocks`` is an integer >= 1 and ``seed`` one >= 0, or if
        ``power`` fails the power rule (checked before the draw), or the
        channels and coding have no construction (as in ``simulate_link``).
    SimulationError
        If the draw stays degenerate after ``MAX_RESAMPLES`` redraws.
    """
    _check_int("blocks", blocks, 1)
    rng = np.random.default_rng(subseed(seed, _STREAMS["chain"]))  # first: it names a bad seed "seed"
    _check_power(power)
    _, eff, pre, redraws = draw_realization(channels, coding, seed)

    symbols = {user: _complex_normal(rng, (d, blocks)) for user, d in pre.stream_counts.items()}
    tx = transmit_blocks(pre, eff, power, symbols)

    scales = np.sqrt(power) * _scale_hats(pre, eff)
    received: dict[int, np.ndarray] = {}
    decoded: dict[int, np.ndarray] = {}
    for k in range(1, channels.users + 1):
        y = sum(channels.entries[k - 1, j - 1][:, None] * tx[j] for j in tx)
        if inject_noise:
            y = y + _complex_normal(rng, (channels.slots, blocks))
        received[k] = y
        noise_std, _, gains_zf = _zero_forcer(pre, eff, k, scales)
        decoded[k] = gains_zf @ (combine_received(y, eff, k) / noise_std[:, None])
    return ChainSample(effective=eff, precoders=pre, symbols=symbols, tx_blocks=tx,
                       received=received, decoded=decoded, redraws=redraws)
