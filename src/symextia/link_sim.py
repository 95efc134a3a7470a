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

One zero-forcer serves both receivers: the analytic rates of
``simulate_link`` and the sampled ``run_symbol_chain`` build the same
whitened blocks and apply the same pseudoinverse rows. Rates are analytic
from per-stream SINR, so the Monte Carlo averaging is over gain realizations
only and a fixed seed gives bit-for-bit reproducible results.

SNR is defined against unit-variance receiver noise, so the per-slot
transmit power at a sweep point is ``power_per_user * 10**(snr_db / 10)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cj_precoder import DOUBLE_LAYER, PrecoderConfig, PrecoderSet, build_precoders
from .errors import DegenerateRealizationError, ParameterError, SimulationError
from .extension_core import (
    DOUBLE,
    PLAIN,
    CODING_MODES,
    ChannelSet,
    EffectiveChannel,
    GainPlan,
    build_effective,
    generate_gains,
    subseed,
)

# Consecutive degenerate gain redraws tolerated per trial before giving up.
MAX_RESAMPLES = 20

# Seed namespaces keeping gain draws and symbol/noise draws on disjoint streams.
_NS_GAINS = 0
_NS_CHAIN = 1


@dataclass(frozen=True)
class LinkConfig:
    """Sweep and averaging parameters for one link simulation."""

    snr_points_db: tuple[float, ...]
    trials: int
    power_per_user: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.snr_points_db) == 0:
            raise ParameterError("need at least one SNR point")
        if any(b <= a for a, b in zip(self.snr_points_db, self.snr_points_db[1:])):
            raise ParameterError("SNR points must be strictly increasing")
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if not self.power_per_user > 0:
            raise ParameterError(f"power per user must be positive, got {self.power_per_user}")


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
    """One explicit pass through the symbol-level transmit/receive chain."""

    channels: ChannelSet
    gains: GainPlan | None
    effective: EffectiveChannel
    precoders: PrecoderSet
    symbols: dict[int, np.ndarray]
    tx_blocks: dict[int, np.ndarray]
    received: dict[int, np.ndarray]
    decoded: dict[int, np.ndarray]
    redraws: int


def _check_setup(channels: ChannelSet, coding: str, config: PrecoderConfig) -> None:
    if coding not in CODING_MODES:
        raise ParameterError(f"unknown coding mode {coding!r}")
    if channels.users != config.users:
        raise ParameterError(f"channel users {channels.users} != configured {config.users}")
    if channels.slots != config.extension_length:
        raise ParameterError(
            f"channel slots {channels.slots} != configured extension length {config.extension_length}"
        )
    if (coding == DOUBLE) != (config.layer == DOUBLE_LAYER):
        raise ParameterError(f"coding {coding!r} does not match layer {config.layer!r}")


def draw_realization(
    channels: ChannelSet, coding: str, config: PrecoderConfig, base_seed: int, trial: int = 0
) -> tuple[GainPlan | None, EffectiveChannel, PrecoderSet, int]:
    """Draw gains (when needed) until the realization builds, counting redraws.

    Returns ``(gains, effective, precoders, redraws)``; ``gains`` is None for
    plain coding. Gain seeds are derived from ``(base_seed, trial, attempt)``
    so trials are independent and resampling is reproducible.
    """
    if coding == PLAIN:
        eff = build_effective(channels, None, PLAIN)
        return None, eff, build_precoders(eff, config), 0
    for attempt in range(MAX_RESAMPLES + 1):
        gains = generate_gains(
            channels.users, channels.slots, subseed(base_seed, _NS_GAINS, trial, attempt)
        )
        try:
            eff = build_effective(channels, gains, coding)
            return gains, eff, build_precoders(eff, config), attempt
        except DegenerateRealizationError:
            continue
    raise SimulationError(
        f"trial {trial}: gave up after {MAX_RESAMPLES} consecutive degenerate gain redraws"
    )


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


def _scale_hats(pre: PrecoderSet, eff: EffectiveChannel) -> dict[int, float]:
    """Power-free part of the per-user block scale, sqrt(T / expected energy).

    The expected energy of one unscaled T-slot block with unit-power streams
    weights each precoder row's power by the squared transmit gains folded
    onto that row.
    """
    hats = {}
    for user, mat in pre.precoders.items():
        weights = np.sum(np.abs(eff.tx_gains(user)) ** 2, axis=0)
        energy = float(np.sum(weights * np.sum(np.abs(mat) ** 2, axis=1)))
        hats[user] = float(np.sqrt(eff.channels.slots / energy))
    return hats


def transmit_blocks(
    pre: PrecoderSet, eff: EffectiveChannel, power: float, symbols: dict[int, np.ndarray]
) -> dict[int, np.ndarray]:
    """Beamform, gain-expand, and power-scale symbol blocks for every user.

    ``symbols[k]`` has shape (streams_k, blocks); the returned raw blocks have
    shape (T, blocks) and expected per-slot power ``power``. Each beamformed
    entry q rides every raw slot folded onto it, times that slot's gain.
    """
    if not power > 0:
        raise ParameterError(f"power must be positive, got {power}")
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
        out[user] = np.sqrt(power) * hats[user] * block
    return out


def _whitened_blocks(
    eff: EffectiveChannel, pre: PrecoderSet, k: int, scales: dict[int, float]
) -> dict[int, np.ndarray]:
    """Per-transmitter blocks seen at receiver ``k`` after noise whitening.

    Block j is ``scales[j] * H_kj V_j`` with each row divided by the combined
    noise standard deviation of its effective slot.
    """
    wstd = effective_noise_std(eff, k)
    return {
        j: scales[j] * (eff.diagonal(k, j)[:, None] * pre.precoders[j]) / wstd[:, None]
        for j in pre.precoders
    }


def _zero_forcer(pre: PrecoderSet, blocks: dict[int, np.ndarray], k: int) -> np.ndarray:
    """Rows of the composite pseudoinverse that recover user ``k``'s streams.

    The composite is the desired block next to the aligned-interference
    basis block; both the analytic rates and the sampled chain use it.
    """
    composite = np.hstack([blocks[k], blocks[pre.basis_user(k)]])
    return np.linalg.pinv(composite)[: pre.stream_counts[k]]


def _receiver_terms(
    eff: EffectiveChannel, pre: PrecoderSet, receiver: int, hats: dict[int, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Power-independent SINR pieces at one receiver.

    Returns per-desired-stream arrays (signal power, total cross-stream
    leakage power, whitened-noise amplification); with transmit power P the
    stream SINR is signal / (cross + noise / P).
    """
    k = receiver
    blocks = _whitened_blocks(eff, pre, k, hats)
    gains_zf = _zero_forcer(pre, blocks, k)

    own = gains_zf @ blocks[k]
    signal = np.abs(np.diagonal(own)) ** 2
    cross = np.sum(np.abs(own) ** 2, axis=1) - signal
    for j in pre.precoders:
        if j != k:
            cross = cross + np.sum(np.abs(gains_zf @ blocks[j]) ** 2, axis=1)
    noise = np.sum(np.abs(gains_zf) ** 2, axis=1)
    return signal, cross, noise


def simulate_link(
    channels: ChannelSet, coding: str, config: PrecoderConfig, link: LinkConfig
) -> LinkResult:
    """Average per-user and sum rates over seeded gain realizations.

    For each trial one gain plan is drawn (redrawing on degenerate paired
    cancellations, up to ``MAX_RESAMPLES`` consecutive redraws), precoders are
    rebuilt, and analytic zero-forcing SINRs give the rates at every SNR
    point of the sweep. ``plain`` coding has no gain randomness, so its
    trials are identical by construction.

    Returns
    -------
    LinkResult

    Raises
    ------
    ParameterError
        If the channel set, coding mode, and precoder configuration disagree.
    SimulationError
        If some trial stays degenerate after ``MAX_RESAMPLES`` redraws.
    """
    _check_setup(channels, coding, config)
    slots = channels.slots
    users = channels.users
    sum_acc = {snr: 0.0 for snr in link.snr_points_db}
    user_acc = {snr: np.zeros(users) for snr in link.snr_points_db}
    failures = 0

    for trial in range(link.trials):
        _, eff, pre, redraws = draw_realization(channels, coding, config, link.seed, trial)
        failures += redraws
        hats = _scale_hats(pre, eff)
        terms = {k: _receiver_terms(eff, pre, k, hats) for k in range(1, users + 1)}
        for snr in link.snr_points_db:
            power = link.power_per_user * 10.0 ** (snr / 10.0)
            for k, (signal, cross, noise) in terms.items():
                sinr = signal / (cross + noise / power)
                rate = float(np.sum(np.log2(1.0 + sinr)) / slots)
                user_acc[snr][k - 1] += rate
                sum_acc[snr] += rate

    sum_rate = {snr: sum_acc[snr] / link.trials for snr in link.snr_points_db}
    per_user = {
        snr: tuple((user_acc[snr] / link.trials).tolist()) for snr in link.snr_points_db
    }
    dof = estimate_dof(sum_rate) if len(link.snr_points_db) >= 2 else float("nan")
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
    config: PrecoderConfig,
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
    """
    _check_setup(channels, coding, config)
    if blocks < 1:
        raise ParameterError(f"blocks must be >= 1, got {blocks}")
    if not power > 0:
        raise ParameterError(f"power must be positive, got {power}")
    gains, eff, pre, redraws = draw_realization(channels, coding, config, seed, trial=0)
    rng = np.random.default_rng(subseed(seed, _NS_CHAIN))
    slots = channels.slots

    symbols = {
        user: (rng.standard_normal((d, blocks)) + 1j * rng.standard_normal((d, blocks)))
        / np.sqrt(2.0)
        for user, d in pre.stream_counts.items()
    }
    tx = transmit_blocks(pre, eff, power, symbols)

    scales = {user: np.sqrt(power) * hat for user, hat in _scale_hats(pre, eff).items()}
    received: dict[int, np.ndarray] = {}
    decoded: dict[int, np.ndarray] = {}
    for k in range(1, channels.users + 1):
        y = sum(channels.entries[k - 1, j - 1][:, None] * tx[j] for j in tx)
        if inject_noise:
            y = y + (rng.standard_normal((slots, blocks)) + 1j * rng.standard_normal((slots, blocks))) / np.sqrt(2.0)
        received[k] = y
        z = combine_received(y, eff, k) / effective_noise_std(eff, k)[:, None]
        decoded[k] = _zero_forcer(pre, _whitened_blocks(eff, pre, k, scales), k) @ z
    return ChainSample(
        channels=channels,
        gains=gains,
        effective=eff,
        precoders=pre,
        symbols=symbols,
        tx_blocks=tx,
        received=received,
        decoded=decoded,
        redraws=redraws,
    )
