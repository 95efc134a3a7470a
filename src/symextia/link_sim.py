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
those two blocks straight into a fresh composite, factors it and returns
only the noise deviations and the zero-forcing rows. The one block former,
``_whitened``, forms the blocks the rate terms read after that SVD, one at a
time, just before each one's product with the rows, so no whitened block is
held through the SVD. That front end, like the precoder build and the scale
factors, takes an ``EffectiveChannel`` and a ``PrecoderSet`` that hold one
trial or a stack of trials. ``simulate_link`` runs its trials in chunks (``ZF_STACK_BYTES`` of
composites). One redraw loop, ``_draw``, draws every realization, a chunk's
or the single trial of ``draw_realization``, as one ``EffectiveChannel``
stack, and a chunk's precoders are one stacked build. A chunk then makes one
call for its scale factors and one stacked SVD per receiver, from which only
the receiver's rows of ``pinv`` are multiplied out (``_pinv_rows``); no
``GainPlan`` or ``EffectiveChannel`` is made per trial. ``run_symbol_chain``
calls the same functions on one trial. Everything runs on the calling
thread. Every stacked step is entrywise along the trial axis, or a
reduction or factorisation of one trial's slice, and a chunk's (user,
SNR) rates are folded into running sums in trial order, a receiver's row
at a time into the sum rate, so rates, redraw counts and give-ups are those
of a trial-at-a-time loop. Rates are analytic
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

from .cj_precoder import PrecoderSet, _stacked_precoders, build_precoders
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
    _unchecked,
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
# counts them; LAPACK's own workspace comes on top), so under this cap at
# most about 3.8 MiB. Each chunk also pays a fixed cost, about 0.85 ms at
# D = 21 (its redraw pass, one stacked precoder build, the scale factors and
# one pass per receiver). 512 KiB stacks 74 trials at D = 21 and 30 at
# D = 33, so the CLI's default 50 trials at D = 21 are one chunk per coding,
# and runs one trial at a time from D = 129 on.
ZF_STACK_BYTES = 1 << 19

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
    attempt into one ``GainPlan`` stack, folded in one call and built in
    one call. ``build`` takes the ``EffectiveChannel`` stack of
    the drawn trials (with no gains under ``plain``, which has nothing to
    draw) and returns what it built and, per trial, None or the message of
    a degenerate build. A trial moves on to its next attempt if its pairs
    cancelled or its build degenerated. Returns the last pass's stack, its
    build and the redraw count, the sum of the accepted attempt numbers.

    Raises what the fold or ``build`` raises at the first attempt that
    raises, ``DegenerateRealizationError`` with the message of a degenerate
    ``plain`` build, and ``SimulationError`` naming the first trial still
    degenerate after ``MAX_RESAMPLES`` redraws.
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
        # one trial's gains are used as drawn: copying a long plan costs more than folding it;
        # drawn gains are finite and at least MIN_DRAW_MAGNITUDE, so GainPlan's checks are skipped
        alpha, beta = (np.array(g) if len(g) > 1 else g[0][None] for g in zip(*draws))
        gains = _unchecked(GainPlan, alpha=alpha, beta=beta)
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


def _combine_received(y: np.ndarray, eff: EffectiveChannel, receiver: int) -> np.ndarray:
    """The chain's receive step: one trial's raw block, T slots on its first axis, gain-combined down to D."""
    gains = eff.rx_gains(receiver)
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
    tx_power = _folded_power(eff._gain_table("alpha"))
    energy = np.stack(
        [
            np.sum(tx_power[..., user - 1, :] * np.sum(np.abs(mat) ** 2, axis=-1), axis=-1)
            for user, mat in pre.precoders.items()
        ],
        axis=-1,
    )
    return np.sqrt(eff.channels.slots / energy)


def _transmit_blocks(
    pre: PrecoderSet, eff: EffectiveChannel, amplitudes: np.ndarray, symbols: dict[int, np.ndarray]
) -> dict[int, np.ndarray]:
    """The chain's transmit step: each user's (streams, blocks) symbols beamformed, gain-expanded and scaled.

    Each beamformed entry q rides every raw slot folded onto it, times that
    slot's gain, and user j's (T, blocks) block is scaled by
    ``amplitudes[j - 1]``, sqrt(power) times its ``_scale_hats``, so its
    expected power per raw slot is the power.
    """
    out: dict[int, np.ndarray] = {}
    for user, mat in pre.precoders.items():
        block = eff.tx_gains(user)[:, :, None] * (mat @ symbols[user])
        out[user] = amplitudes[user - 1] * block.reshape(-1, block.shape[-1])
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


def _whitened(block: np.ndarray, scale: np.ndarray, noise_std: np.ndarray) -> np.ndarray:
    """The block former: ``block`` times ``scale``, each row divided by its slot's ``noise_std``, in place.

    ``block`` is a user's (..., D, d_j) received block, or its columns of a
    composite; ``scale`` is that user's amplitude, (...,), and ``noise_std``
    the receiver's ``effective_noise_std``, (..., D). Every entry has the
    bits of the same block whitened on its own.
    """
    block *= scale[..., None, None]
    block /= noise_std[..., :, None]
    return block


def _zero_forcer(
    pre: PrecoderSet, eff: EffectiveChannel, k: int, scales: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Receiver ``k``'s front end, shared by the analytic rates and the sampled chain.

    ``scales[..., j - 1]`` is user j's amplitude. Returns the receiver's
    ``effective_noise_std``, (D,), and the rows of the pseudoinverse that
    recover user ``k``'s streams from the composite of its ``_whitened``
    desired and basis blocks, block j being ``scales[j - 1]`` times
    ``pre.received_blocks`` of its row of effective diagonals. ``eff``,
    ``pre`` and ``scales`` may hold the same stack of trials, and then so
    does every result. One stacked SVD covers every trial (``_pinv_rows``):
    it factors each (D, D) slice on its own, and only the d_k rows are
    multiplied out, so the rows are the same bits as one ``pinv`` call per
    trial.

    The two blocks are formed and whitened straight into a fresh
    ``pre.composite``, which is factored before any other block exists, so
    through the SVD the receiver holds the composite and no block.
    """
    noise_std = effective_noise_std(eff, k)
    composite = pre.composite(eff.diagonals[..., k - 1, :, :], k)
    for j, cols in pre._composite_columns(k).items():
        _whitened(composite[..., cols], scales[..., j - 1], noise_std)
    return noise_std, _pinv_rows(composite, pre.stream_counts[k])


def _receiver_terms(
    pre: PrecoderSet, eff: EffectiveChannel, k: int, hats: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Power-independent SINR pieces at receiver ``k``, stacked over trials.

    ``pre`` holds (trials, D, d_k) precoder stacks, ``eff`` the stack of
    the same trials and ``hats`` their scales, (trials, users). Returns
    (trials, d_k) arrays of signal power, total cross-stream leakage power
    and whitened-noise amplification per desired stream; with transmit
    power P the stream SINR is signal / (cross + noise / P). Each user's
    block is formed by ``_whitened`` after the receiver's SVD, just before
    its product with the zero-forcing rows, so one block is live at a time.
    """
    noise_std, gains_zf = _zero_forcer(pre, eff, k, hats)
    row = eff.diagonals[..., k - 1, :, :]

    def product(j: int) -> np.ndarray:
        return gains_zf @ _whitened(pre._received_block(row, j), hats[..., j - 1], noise_std)

    own = product(k)
    signal = np.abs(np.diagonal(own, axis1=-2, axis2=-1)) ** 2
    cross = np.sum(np.abs(own) ** 2, axis=-1) - signal
    for j in pre.precoders:
        if j != k:
            cross = cross + np.sum(np.abs(product(j)) ** 2, axis=-1)
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

    Receivers are factored one at a time, each chunk's whole stack in one
    call on the calling thread, and no thread is started. Each D = 275 SVD
    with vectors holds about 10.6 MiB, so two receivers in flight would
    raise ``link_k4``'s peak memory. ``ZF_STACK_BYTES`` holds 74 trials at
    D = 21, so the 50 trials of a default ``figure1`` run are one chunk per
    coding: its receiver stacks factor in about 6 ms each, its arrays peak
    near 2.6 MB, and it pays a chunk's fixed cost of about 0.85 ms once.

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
    user_acc = np.zeros((channels.users, powers.size))
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
        rates = np.empty((len(eff.diagonals), channels.users, powers.size))
        for k in range(1, channels.users + 1):
            signal, cross, noise = _receiver_terms(pre, eff, k, hats)
            # noise / P overflows only where the SINR is far below 2^-53 (signal is
            # at most about 1), so log2(1 + SINR) is 0 anyway; inf noise gives SINR 0
            with np.errstate(over="ignore"):
                sinr = signal[:, None] / (cross[:, None] + noise[:, None] / powers[:, None])
            rates[:, k - 1] = np.sum(np.log2(1.0 + sinr), axis=-1) / slots
        # running sums add one row after another, trial by trial and, into the
        # sum rate, receiver by receiver within a trial: a trial-at-a-time loop's order
        user_acc = np.add.accumulate(np.concatenate([user_acc[None], rates]))[-1]
        sum_acc = np.add.accumulate(np.concatenate([sum_acc[None], rates.reshape(-1, powers.size)]))[-1]

    sum_rate = dict(zip(points, (sum_acc / link.trials).tolist()))
    per_user = dict(zip(points, map(tuple, (user_acc / link.trials).T.tolist())))
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

    It is the one way into its two steps, ``_transmit_blocks`` and
    ``_combine_received``, which take what it built and check nothing: the
    one drawn trial, its precoders, one symbol block per user and the
    users' amplitudes, computed once and shared with the zero-forcer. Every
    sampled quantity is a field of the returned ``ChainSample``.

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
    if not _usable_power(power):
        raise ParameterError(f"power {power!r} must be a real number, positive and finite with a finite reciprocal")
    _, eff, pre, redraws = draw_realization(channels, coding, seed)

    symbols = {user: _complex_normal(rng, (d, blocks)) for user, d in pre.stream_counts.items()}
    scales = np.sqrt(power) * _scale_hats(pre, eff)
    tx = _transmit_blocks(pre, eff, scales, symbols)
    received: dict[int, np.ndarray] = {}
    decoded: dict[int, np.ndarray] = {}
    for k in range(1, channels.users + 1):
        y = sum(channels.entries[k - 1, j - 1][:, None] * tx[j] for j in tx)
        if inject_noise:
            y = y + _complex_normal(rng, (channels.slots, blocks))
        received[k] = y
        noise_std, gains_zf = _zero_forcer(pre, eff, k, scales)
        decoded[k] = gains_zf @ (_combine_received(y, eff, k) / noise_std[:, None])
    return ChainSample(effective=eff, precoders=pre, symbols=symbols, tx_blocks=tx,
                       received=received, decoded=decoded, redraws=redraws)
