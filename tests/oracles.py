"""Independent oracles used by the test suite.

These recompute expected values with pure-Python scalar loops, deliberately
avoiding the package's numpy pipelines, so agreement is meaningful. The
``per_mode_*`` references spell out each coding mode's slot rule in its own
branch; the link layer's folded code must match them bit for bit.
``dense_min_relative_gap`` is the all-pairs matrix form of the gap the
distinctness audit reports; the pruned sweep must match it bit for bit.
``per_trial_simulate_link`` is the link simulation one trial and one
pseudoinverse at a time; the stacked receiver terms must match it bit for
bit.
"""

from __future__ import annotations

import itertools

import numpy as np

from symextia.link_sim import LinkResult, draw_realization, effective_noise_std, estimate_dof

# factor list for the user-(3,2) cascade: (receiver, transmitter, exponent)
T32_FACTORS = (
    (2, 1, +1),
    (2, 3, -1),
    (1, 3, +1),
    (3, 1, -1),
    (3, 2, +1),
    (1, 2, -1),
)


def paired_effective_entry(channels, gains, receiver: int, transmitter: int, q: int) -> complex:
    """Scalar double-layer effective entry for slot pair (q, D + q)."""
    half = channels.slots // 2
    k, j = receiver - 1, transmitter - 1
    first = gains.beta[k, q] * channels.entries[k, j, q] * gains.alpha[j, q]
    second = (
        gains.beta[k, half + q]
        * channels.entries[k, j, half + q]
        * gains.alpha[j, half + q]
    )
    return complex(first + second)


def scalar_lambda_32(channels, gains) -> np.ndarray:
    """Entrywise eigenvalues of the (3, 2) cascade under double-layer coding."""
    half = channels.slots // 2
    values = np.empty(half, dtype=complex)
    for q in range(half):
        acc = complex(1.0)
        for receiver, transmitter, sign in T32_FACTORS:
            entry = paired_effective_entry(channels, gains, receiver, transmitter, q)
            acc = acc * entry if sign > 0 else acc / entry
        values[q] = acc
    return values


def scalar_kappa(channels, gains) -> np.ndarray:
    """Entrywise direct-to-cross ratio kappa under double-layer coding."""
    half = channels.slots // 2
    values = np.empty(half, dtype=complex)
    for q in range(half):
        cross = paired_effective_entry(channels, gains, 1, 2, q)
        direct = paired_effective_entry(channels, gains, 1, 1, q)
        values[q] = cross / direct
    return values


def brute_exponent_tuples(pairs: list[tuple[int, int]], cap: int) -> list[dict]:
    """All exponent tuples with entries 0..cap by explicit recursion."""
    if not pairs:
        return [{}]
    rest = brute_exponent_tuples(pairs[1:], cap)
    out = []
    for e in range(cap + 1):
        for tail in rest:
            combo = {pairs[0]: e}
            combo.update(tail)
            out.append(combo)
    return out


def loop_precoders(eff, cascades, n: int) -> dict[int, np.ndarray]:
    """Unit-norm precoders from an explicit loop over exponent tuples.

    Each column starts as ones and is multiplied by the tabulated power
    T_kl^e for every nonzero exponent e, in cascade pair order; user 3 adds
    the H_21 H_23^-1 prefix, every other user i != 1 rescales user 3 by
    H_1i^-1 H_13, and each column is divided by sqrt(sum |x|^2). Results are
    keyed in ascending user order.
    """
    pairs = list(cascades.matrices)
    tables = {}
    for pair in pairs:
        table = [np.ones(cascades.kappa.size, dtype=complex)]
        for _ in range(n):
            table.append(table[-1] * cascades.matrices[pair])
        tables[pair] = table

    def columns(cap: int) -> np.ndarray:
        combos = list(itertools.product(range(cap + 1), repeat=len(pairs)))
        cols = np.ones((cascades.kappa.size, len(combos)), dtype=complex)
        for idx, combo in enumerate(combos):
            for pair, e in zip(pairs, combo):
                if e:
                    cols[:, idx] *= tables[pair][e]
        return cols

    raw = {1: columns(n), 3: (eff.diagonal(2, 1) / eff.diagonal(2, 3))[:, None] * columns(n - 1)}
    for i in range(2, eff.users + 1):
        if i != 3:
            raw[i] = (eff.diagonal(1, 3) / eff.diagonal(1, i))[:, None] * raw[3]
    return {
        user: mat / np.sqrt(np.sum(np.abs(mat) ** 2, axis=0))[None, :]
        for user, mat in sorted(raw.items())
    }


def dense_min_relative_gap(values: np.ndarray) -> float:
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


def slope_between(rates: dict[float, float], lo: float, hi: float) -> float:
    """Sum-rate slope against log2 of linear SNR between two dB points."""
    return (rates[hi] - rates[lo]) / ((hi - lo) / 10.0 * np.log2(10.0))


def per_mode_noise_std(eff, receiver: int) -> np.ndarray:
    """Combined noise standard deviation, one branch per coding mode."""
    if eff.coding_tag == "plain":
        return np.ones(eff.dim)
    beta = eff.gains.beta[receiver - 1]
    if eff.coding_tag == "naive":
        return np.abs(beta)
    half = eff.dim
    return np.sqrt(np.abs(beta[:half]) ** 2 + np.abs(beta[half:]) ** 2)


def per_mode_combine(y: np.ndarray, eff, receiver: int) -> np.ndarray:
    """Receive gains and pair combining, one branch per coding mode."""
    if eff.coding_tag == "plain":
        return y.copy()
    beta = eff.gains.beta[receiver - 1]
    scaled = beta[:, None] * y if y.ndim == 2 else beta * y
    if eff.coding_tag == "naive":
        return scaled
    half = eff.dim
    return scaled[:half] + scaled[half:]


def per_mode_block_energy(pre, eff, user: int) -> float:
    """Expected energy of one unscaled transmit block, one branch per coding mode."""
    row_power = np.sum(np.abs(pre.precoders[user]) ** 2, axis=1)
    if eff.coding_tag == "plain":
        return float(row_power.sum())
    alpha = eff.gains.alpha[user - 1]
    if eff.coding_tag == "naive":
        return float(np.sum(np.abs(alpha) ** 2 * row_power))
    half = eff.dim
    weights = np.abs(alpha[:half]) ** 2 + np.abs(alpha[half:]) ** 2
    return float(np.sum(weights * row_power))


def per_mode_transmit(pre, eff, power: float, symbols: dict) -> dict:
    """Beamformed, gain-expanded, power-scaled blocks, one branch per coding mode."""
    out = {}
    half = eff.dim
    for user, mat in pre.precoders.items():
        beamformed = mat @ symbols[user]
        if eff.coding_tag == "plain":
            block = beamformed
        else:
            alpha = eff.gains.alpha[user - 1]
            if eff.coding_tag == "naive":
                block = alpha[:, None] * beamformed
            else:
                block = np.concatenate(
                    [alpha[:half, None] * beamformed, alpha[half:, None] * beamformed]
                )
        hat = float(np.sqrt(eff.channels.slots / per_mode_block_energy(pre, eff, user)))
        out[user] = np.sqrt(power) * hat * block
    return out


def _per_trial_scale_hats(pre, eff) -> dict[int, float]:
    hats = {}
    for user, mat in pre.precoders.items():
        weights = np.sum(np.abs(eff.tx_gains(user)) ** 2, axis=0)
        energy = float(np.sum(weights * np.sum(np.abs(mat) ** 2, axis=1)))
        hats[user] = float(np.sqrt(eff.channels.slots / energy))
    return hats


def _per_trial_whitened_blocks(eff, pre, k: int, scales: dict) -> dict:
    wstd = effective_noise_std(eff, k)
    return {
        j: scales[j] * (eff.diagonal(k, j)[:, None] * pre.precoders[j]) / wstd[:, None]
        for j in pre.precoders
    }


def _per_trial_zero_forcer(pre, blocks: dict, k: int) -> np.ndarray:
    composite = np.hstack([blocks[k], blocks[pre.basis_user(k)]])
    return np.linalg.pinv(composite)[: pre.stream_counts[k]]


def _per_trial_receiver_terms(eff, pre, receiver: int, hats: dict):
    k = receiver
    blocks = _per_trial_whitened_blocks(eff, pre, k, hats)
    gains_zf = _per_trial_zero_forcer(pre, blocks, k)

    own = gains_zf @ blocks[k]
    signal = np.abs(np.diagonal(own)) ** 2
    cross = np.sum(np.abs(own) ** 2, axis=1) - signal
    for j in pre.precoders:
        if j != k:
            cross = cross + np.sum(np.abs(gains_zf @ blocks[j]) ** 2, axis=1)
    noise = np.sum(np.abs(gains_zf) ** 2, axis=1)
    return signal, cross, noise


def per_trial_simulate_link(channels, coding: str, link) -> LinkResult:
    """``simulate_link`` as one pseudoinverse per trial and receiver.

    The trial-at-a-time loop the stacked receiver terms replaced, with its
    helpers; the stacked form must give the same bits.
    """
    slots = channels.slots
    users = channels.users
    sum_acc = {snr: 0.0 for snr in link.snr_points_db}
    user_acc = {snr: np.zeros(users) for snr in link.snr_points_db}
    failures = 0

    for trial in range(link.trials):
        _, eff, pre, redraws = draw_realization(channels, coding, link.seed, trial)
        failures += redraws
        hats = _per_trial_scale_hats(pre, eff)
        terms = {k: _per_trial_receiver_terms(eff, pre, k, hats) for k in range(1, users + 1)}
        for snr in link.snr_points_db:
            power = 10.0 ** (snr / 10.0)
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
