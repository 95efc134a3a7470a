"""Monte Carlo link-level simulation over the alignment constructions.

The transmit chain is repetition-with-gains: each user beamforms its unit
power symbol streams through its precoder, places every beamformed entry on
each raw slot that folds onto it times that slot's transmit gain, and scales
the block so the expected transmit power per raw slot equals the configured
power. Receivers apply their receive gains, fold the slots back down,
pre-whiten the colored combined noise, and zero-force on the aligned
composite (desired block next to the aligned-interference basis) via a
pseudoinverse. How slots fold is read from ``EffectiveChannel`` (``fold``,
``tx_gains``, ``rx_gains``), so nothing here branches on the coding mode.
The channels and the coding fix the construction: ``build_precoders`` reads
the user count and the exponent cap off each effective channel, so a slot
count that no construction has is a ``ParameterError`` from the first draw.

One zero-forcer serves both receivers: the analytic rates of
``simulate_link`` and the sampled ``run_symbol_chain`` build the same
whitened blocks and apply the same pseudoinverse rows. That core takes a
leading trial axis. ``simulate_link`` draws its realizations one trial at a
time, then stacks a chunk of trials (``ZF_STACK_BYTES`` of composites) and
makes one stacked ``pinv`` call per receiver; ``run_symbol_chain`` passes a
batch of one. A stacked ``pinv`` factors each slice on its own, and each
trial's (SNR, user) rates are added to array accumulators in trial order, a
receiver column at a time into the sum rate, so the bits are those of a
trial-at-a-time loop. Rates are analytic from per-stream SINR, so the Monte
Carlo averaging is over gain realizations only and a fixed seed gives
bit-for-bit reproducible results.

SNR is defined against unit-variance receiver noise: at a sweep point of
``snr_db`` each user's expected transmit power per raw slot is
``snr_power(snr_db) = 10**(snr_db / 10)``, which must be a positive finite
float.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from .cj_precoder import PrecoderSet, build_precoders
from .errors import DegenerateRealizationError, ParameterError, SimulationError
from .extension_core import (
    PLAIN,
    ChannelSet,
    EffectiveChannel,
    GainPlan,
    build_effective,
    generate_gains,
    slot_fold,
    subseed,
)

# Consecutive degenerate gain redraws tolerated per trial before giving up.
MAX_RESAMPLES = 20

# Byte cap on one stack of (D, D) complex composites, 16·D² bytes per trial.
# ``simulate_link`` runs its trials in chunks this cap allows (at least one
# trial), so memory does not grow with the trial count. A chunk peaks at
# about ten times its composite stack (realizations, whitened blocks, pinv
# work arrays). 128 KiB stacks 18 trials at D = 21, which is most of the
# gain of stacking all 50 of a run at a quarter of the memory, and runs
# one trial at a time from D = 65 on.
ZF_STACK_BYTES = 1 << 17

Built = TypeVar("Built")

# Seed namespaces keeping gain draws and symbol/noise draws on disjoint streams.
_NS_GAINS = 0
_NS_CHAIN = 1


def snr_power(snr_db: float) -> float:
    """Transmit power per raw slot ``10**(snr_db / 10)``; ParameterError unless positive and finite.

    That rejects a point that is not finite, above about 3082.5 dB, or low enough to give 0.
    """
    try:
        power = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        power = math.inf
    if not 0.0 < power < math.inf:
        raise ParameterError(f"SNR point {snr_db} dB has no positive finite transmit power")
    return power


@dataclass(frozen=True)
class LinkConfig:
    """Sweep and averaging parameters for one link simulation; each SNR point must pass ``snr_power``."""

    snr_points_db: tuple[float, ...]
    trials: int
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.snr_points_db) == 0:
            raise ParameterError("need at least one SNR point")
        for snr in self.snr_points_db:
            snr_power(snr)
        if any(b <= a for a, b in zip(self.snr_points_db, self.snr_points_db[1:])):
            raise ParameterError("SNR points must be strictly increasing")
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class LinkResult:
    """Averaged rates per SNR point plus the high-SNR slope estimate.

    Rates are bits per raw channel use; ``dof_estimate`` is the sum-rate
    slope between the two largest SNR points against log2 of linear SNR, and
    ``failures`` counts degenerate gain redraws across all trials.
    """

    sum_rate: dict[float, float]
    per_user_rate: dict[float, tuple[float, ...]]
    dof_estimate: float
    failures: int


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


def draw_until_built(
    channels: ChannelSet,
    coding: str,
    base_seed: int,
    build: Callable[[EffectiveChannel], Built],
    trial: int = 0,
) -> tuple[GainPlan | None, EffectiveChannel, Built, int]:
    """Draw gains (when needed) until ``build(effective)`` succeeds, counting redraws.

    A draw is redrawn when ``build_effective`` or ``build`` raises
    ``DegenerateRealizationError``, so the caller decides what a usable
    realization must yield: ``draw_realization`` builds precoders, the
    distinctness audit builds cascades only. Returns ``(gains, effective,
    built, redraws)``; ``gains`` is None for plain coding, which has nothing
    to redraw. Gain seeds are derived from ``(base_seed, trial, attempt)``
    so trials are independent and resampling is reproducible.

    Raises
    ------
    SimulationError
        If the draw stays degenerate after ``MAX_RESAMPLES`` redraws.
    """
    if coding == PLAIN:
        eff = build_effective(channels, None, PLAIN)
        return None, eff, build(eff), 0
    for attempt in range(MAX_RESAMPLES + 1):
        gains = generate_gains(
            channels.users, channels.slots, subseed(base_seed, _NS_GAINS, trial, attempt)
        )
        try:
            eff = build_effective(channels, gains, coding)
            return gains, eff, build(eff), attempt
        except DegenerateRealizationError:
            continue
    raise SimulationError(
        f"trial {trial}: gave up after {MAX_RESAMPLES} consecutive degenerate gain redraws"
    )


def draw_realization(
    channels: ChannelSet, coding: str, base_seed: int, trial: int = 0
) -> tuple[GainPlan | None, EffectiveChannel, PrecoderSet, int]:
    """Draw gains (when needed) until the precoders build, counting redraws.

    Returns ``(gains, effective, precoders, redraws)``; see ``draw_until_built``.
    """
    return draw_until_built(channels, coding, base_seed, build_precoders, trial)


def effective_noise_std(eff: EffectiveChannel, receiver: int) -> np.ndarray:
    """Standard deviation of the combined unit-variance noise per effective slot."""
    # with one tap this is |b| exactly: binary64 sqrt of a rounded square
    # returns the value unless the square under- or overflows
    return np.sqrt(np.sum(np.abs(eff.rx_gains(receiver)) ** 2, axis=0))


def combine_received(y: np.ndarray, eff: EffectiveChannel, receiver: int) -> np.ndarray:
    """Apply receive gains and fold a raw T-slot block down to D effective slots."""
    gains = eff.rx_gains(receiver)
    if y.shape[0] != eff.channels.slots:
        raise ParameterError(f"block has {y.shape[0]} slots, expected {eff.channels.slots}")
    folded = y.reshape(gains.shape + y.shape[1:])
    return (gains.reshape(gains.shape + (1,) * (y.ndim - 1)) * folded).sum(axis=0)


def _scale_hats(pre: PrecoderSet, eff: EffectiveChannel) -> np.ndarray:
    """Power-free part of each user's block scale, sqrt(T / expected energy), as a (users,) array.

    The expected energy of one unscaled T-slot block with unit-power streams
    weights each precoder row's power by the squared transmit gains folded
    onto that row.
    """
    energy = np.array([
        np.sum(np.sum(np.abs(eff.tx_gains(user)) ** 2, axis=0) * np.sum(np.abs(mat) ** 2, axis=1))
        for user, mat in pre.precoders.items()
    ])
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
        If ``power`` is not positive, or ``symbols`` does not hold one 2-D
        block per user, all with the same block count and each with that
        user's stream count.
    """
    if not power > 0:
        raise ParameterError(f"power must be positive, got {power}")
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


def _whitened_blocks(
    effs: Sequence[EffectiveChannel], pres: Sequence[PrecoderSet], k: int, scales: np.ndarray
) -> dict[int, np.ndarray]:
    """Per-transmitter blocks seen at receiver ``k`` after noise whitening.

    ``effs`` and ``pres`` hold one realization per trial and ``scales[t, j - 1]``
    is trial t's amplitude for user j. Block j, of shape (trials, D, d_j), is
    ``scales[:, j - 1] * H_kj V_j`` with each row divided by the combined
    noise standard deviation of its effective slot.
    """
    wstd = np.stack([effective_noise_std(eff, k) for eff in effs])[:, :, None]
    diagonals = np.stack([eff.diagonals[k - 1] for eff in effs])[:, :, :, None]
    return {
        j: scales[:, j - 1, None, None]
        * (diagonals[:, j - 1] * np.stack([pre.precoders[j] for pre in pres]))
        / wstd
        for j in pres[0].precoders
    }


def _zero_forcer(pre: PrecoderSet, blocks: dict[int, np.ndarray], k: int) -> np.ndarray:
    """Rows of each trial's composite pseudoinverse that recover user ``k``'s streams.

    The composite is the desired block next to the aligned-interference
    basis block; both the analytic rates and the sampled chain use it. One
    stacked ``pinv`` call covers every trial: it factors each (D, D) slice
    on its own, so the rows are the same bits as one call per trial.
    """
    composite = np.concatenate([blocks[k], blocks[pre.basis_user(k)]], axis=-1)
    return np.linalg.pinv(composite)[:, : pre.stream_counts[k]]


def _receiver_terms(
    effs: Sequence[EffectiveChannel], pres: Sequence[PrecoderSet], receiver: int, hats: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Power-independent SINR pieces at one receiver, stacked over trials.

    Returns (trials, d_k) arrays of signal power, total cross-stream leakage
    power and whitened-noise amplification per desired stream; with transmit
    power P the stream SINR is signal / (cross + noise / P).
    """
    k = receiver
    pre = pres[0]
    blocks = _whitened_blocks(effs, pres, k, hats)
    gains_zf = _zero_forcer(pre, blocks, k)

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

    For each trial one gain plan is drawn (redrawing on degenerate paired
    cancellations, up to ``MAX_RESAMPLES`` consecutive redraws), precoders are
    rebuilt, and analytic zero-forcing SINRs give the rates at every SNR
    point of the sweep. ``plain`` coding has no gain randomness, so its
    trials are identical by construction. Trials are stacked in chunks as
    the module docstring describes, with the bits of a trial-at-a-time loop.

    Returns
    -------
    LinkResult

    Raises
    ------
    ParameterError
        If the coding mode is unknown, cannot fold the channel's slots, or
        leaves an effective dimension that no construction has.
    SimulationError
        If some trial stays degenerate after ``MAX_RESAMPLES`` redraws.
    """
    slots = channels.slots
    points = link.snr_points_db
    powers = np.array([snr_power(snr) for snr in points])
    user_acc = np.zeros((powers.size, channels.users))
    sum_acc = np.zeros(powers.size)
    failures = 0
    chunk = max(1, ZF_STACK_BYTES // (16 * (slots // slot_fold(coding)) ** 2))

    for start in range(0, link.trials, chunk):
        _, effs, pres, redraws = zip(
            *(
                draw_realization(channels, coding, link.seed, trial)
                for trial in range(start, min(start + chunk, link.trials))
            )
        )
        failures += sum(redraws)
        hats = np.stack([_scale_hats(pre, eff) for eff, pre in zip(effs, pres)])
        rates = np.empty((len(effs), powers.size, channels.users))
        for k in range(1, channels.users + 1):
            signal, cross, noise = _receiver_terms(effs, pres, k, hats)
            sinr = signal[:, None] / (cross[:, None] + noise[:, None] / powers[:, None])
            rates[:, :, k - 1] = np.sum(np.log2(1.0 + sinr), axis=-1) / slots
        for trial_rates in rates:
            user_acc += trial_rates
            for column in trial_rates.T:
                sum_acc += column

    sum_rate = dict(zip(points, (sum_acc / link.trials).tolist()))
    per_user = dict(zip(points, map(tuple, (user_acc / link.trials).tolist())))
    dof = estimate_dof(sum_rate) if len(points) >= 2 else float("nan")
    return LinkResult(sum_rate=sum_rate, per_user_rate=per_user, dof_estimate=dof, failures=failures)


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
        If ``blocks`` < 1, ``power`` is not positive (``transmit_blocks``
        checks it), or the channels and coding have no construction (as in
        ``simulate_link``).
    SimulationError
        If the draw stays degenerate after ``MAX_RESAMPLES`` redraws.
    """
    if blocks < 1:
        raise ParameterError(f"blocks must be >= 1, got {blocks}")
    _, eff, pre, redraws = draw_realization(channels, coding, seed)
    rng = np.random.default_rng(subseed(seed, _NS_CHAIN))
    slots = channels.slots

    symbols = {
        user: (rng.standard_normal((d, blocks)) + 1j * rng.standard_normal((d, blocks)))
        / np.sqrt(2.0)
        for user, d in pre.stream_counts.items()
    }
    tx = transmit_blocks(pre, eff, power, symbols)

    scales = np.sqrt(power) * _scale_hats(pre, eff)[None, :]
    received: dict[int, np.ndarray] = {}
    decoded: dict[int, np.ndarray] = {}
    for k in range(1, channels.users + 1):
        y = sum(channels.entries[k - 1, j - 1][:, None] * tx[j] for j in tx)
        if inject_noise:
            y = y + (rng.standard_normal((slots, blocks)) + 1j * rng.standard_normal((slots, blocks))) / np.sqrt(2.0)
        received[k] = y
        z = combine_received(y, eff, k) / effective_noise_std(eff, k)[:, None]
        decoded[k] = _zero_forcer(pre, _whitened_blocks((eff,), (pre,), k, scales), k)[0] @ z
    return ChainSample(
        effective=eff,
        precoders=pre,
        symbols=symbols,
        tx_blocks=tx,
        received=received,
        decoded=decoded,
        redraws=redraws,
    )
