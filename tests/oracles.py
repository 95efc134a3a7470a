"""Independent oracles used by the test suite.

These recompute expected values with pure-Python scalar loops, deliberately
avoiding the package's numpy pipelines, so agreement is meaningful. The
``per_mode_*`` references spell out each coding mode's slot rule in its own
branch; the link layer's folded code must match them bit for bit.
``dense_min_relative_gap`` is the all-pairs matrix form of the gap the
distinctness audit reports; the pruned sweep must match it bit for bit.
``parent_flagged`` and ``parent_dof_estimate`` are the flags and the DoF
slope as ``distinctness_audit`` and ``simulate_link`` computed and stored
them before the results derived them; ``DistinctnessAudit.flagged`` and
``LinkResult.dof_estimate`` must equal them.
``per_trial_simulate_link`` is the link simulation one trial and one
pseudoinverse at a time, drawing each trial through
``parent_draw_realization``, the per-trial redraw loop as it read before
one loop drew every realization; the stacked receiver terms and the chunk
draws must match it bit for bit. ``parent_build_effective`` is the slot
fold as ``build_effective`` spelled it before ``EffectiveChannel`` computed
its own diagonals; the class must match it bit for bit.
``parent_generate_channels`` is the channel draw as it read before one
table of slot blocks named every channel model, one branch per model and
the constant channel repeated over its slots, drawn through
``parent_complex_normal``, the complex normal as one expression;
``generate_channels`` and ``_complex_normal`` must match them bit for bit.
``parent_fold_diagonals`` is the slot fold as one gain-scaled product over
every raw slot, summed over the fold axis; the layer-at-a-time fold must
match it bit for bit.
``parent_check_alignment``, with its ``parent_signal_space_rank`` and
``parent_receiver_composite``, is the alignment check as it read before
``PrecoderSet`` owned the receiver blocks and the composite layout, one
product per block and condition, with its own SVDs and rank cutoff; the
one-pass check, its per-receiver certificates and ``PrecoderSet.composite``
must match them bit for bit. ``partner_columns`` proves
alignment without a basis: each interfering column at receiver j != 1 is a
known column of user 1's block there, up to scale. ``modp_columns`` and
``modp_received_blocks`` are the construction over the residues mod a prime
in Python ints, every power by ``pow`` and every inverse by ``pow(x, -1,
p)``; the exact build must equal them entry by entry. ``exponent_columns``
is every column as its exponent vector over the K^2 links, each a sum of
signed unit vectors weighted by its row of ``enumerate_tuples``; the build
over exponent vectors must equal it entry by entry.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from symextia.align_verify import DISTINCTNESS_TOL, RESIDUAL_TOL, AlignmentReport, RankResult
from symextia.cj_precoder import _check_pair, build_precoders, cascade_pairs, enumerate_tuples
from symextia.errors import DegenerateRealizationError, SimulationError
from symextia.extension_core import (
    CONSTANT,
    DEGENERATE_REL_TOL,
    MIN_DRAW_MAGNITUDE,
    PLAIN,
    SLOT_FOLD,
    SLOW_CHANGING,
    _STREAMS,
    build_effective,
    generate_gains,
    subseed,
)
from symextia.link_sim import MAX_RESAMPLES, LinkResult, effective_noise_std, estimate_dof

_NS_GAINS = _STREAMS["gains"]

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


def partner_columns(users: int, n: int, receiver: int, transmitter: int) -> np.ndarray:
    """The column of H_j1 V_1 that each column of H_jk V_k equals up to scale, j = receiver, k = transmitter.

    For j != 1 and k != 1, j the construction makes H_jk V_k = H_j1 T_jk
    M_{n-1}, where M_c holds the products with every exponent at most c. So
    column e of H_jk V_k, row e of ``enumerate_tuples(users, n - 1)``, is
    the user-1 column e + u_(j,k): u_(j,k) is the unit vector of (j, k) in
    ``cascade_pairs``, and (2, 3), whose ratio is 1, has no shift.
    """
    pairs = cascade_pairs(users)
    rows = enumerate_tuples(users, n - 1)
    if (receiver, transmitter) != (2, 3):
        rows = rows + np.eye(len(pairs), dtype=rows.dtype)[pairs.index((receiver, transmitter))]
    return np.ravel_multi_index(tuple(rows.T), (n + 1,) * len(pairs))


def scale_matched_residual(target: np.ndarray, reference: np.ndarray) -> float:
    """Relative residual of ``target`` after least-squares scaling of each ``reference`` column onto it.

    This is the per-column scale match of ``check_alignment``'s receiver-1 equality conditions.
    """
    coef = np.sum(reference.conj() * target, axis=0) / np.sum(np.abs(reference) ** 2, axis=0)
    return float(np.linalg.norm(target - reference * coef[None, :]) / np.linalg.norm(target))


def partner_residuals(eff, pre, n: int) -> dict[str, float]:
    """``scale_matched_residual`` of every H_jk V_k against its ``partner_columns`` of H_j1 V_1.

    Keyed like ``check_alignment``'s containment residuals, ``contain_rx{j}_tx{k}``.
    """
    residuals = {}
    for j in range(2, eff.users + 1):
        blocks = pre.received_blocks(eff.diagonals[j - 1])
        for k in (k for k in range(2, eff.users + 1) if k != j):
            partners = blocks[1][:, partner_columns(eff.users, n, j, k)]
            residuals[f"contain_rx{j}_tx{k}"] = scale_matched_residual(blocks[k], partners)
    return residuals


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


def parent_flagged(lambda_gaps: dict[tuple[int, int], float], kappa_gap: float) -> tuple[str, ...]:
    """The names ``distinctness_audit`` stored as ``flagged`` for these gaps."""
    flagged = tuple(
        sorted(f"T_{k}_{l}" for (k, l), gap in lambda_gaps.items() if gap < DISTINCTNESS_TOL)
    )
    if kappa_gap < DISTINCTNESS_TOL:
        flagged = flagged + ("kappa",)
    return flagged


def parent_dof_estimate(sum_rate: dict[float, float], points: tuple[float, ...]) -> float:
    """The slope ``simulate_link`` stored as ``dof_estimate`` for the sum rates of ``points``."""
    return estimate_dof(sum_rate) if len(points) >= 2 else float("nan")


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


def parent_draw_realization(channels, coding: str, base_seed: int, trial: int = 0):
    """``draw_realization`` as a loop of its own over one trial's attempts.

    Each attempt draws a ``GainPlan`` on the trial's seed for that attempt,
    builds the ``EffectiveChannel`` and the precoders, and is redrawn when
    either raises ``DegenerateRealizationError``. Returns ``(gains,
    effective, precoders, redraws)``.
    """
    if coding == PLAIN:
        eff = build_effective(channels, None, PLAIN)
        return None, eff, build_precoders(eff), 0
    for attempt in range(MAX_RESAMPLES + 1):
        gains = generate_gains(channels.users, channels.slots, subseed(base_seed, _NS_GAINS, trial, attempt))
        try:
            eff = build_effective(channels, gains, coding)
            return gains, eff, build_precoders(eff), attempt
        except DegenerateRealizationError:
            pass
    raise SimulationError(
        f"trial {trial}: gave up after {MAX_RESAMPLES} consecutive degenerate gain redraws"
    )


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
        _, eff, pre, redraws = parent_draw_realization(channels, coding, link.seed, trial)
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
    return LinkResult(sum_rate=sum_rate, per_user_rate=per_user, failures=failures)


def parent_build_effective(channels, gains, coding: str) -> np.ndarray:
    """The effective diagonals as ``build_effective`` folded them before
    ``EffectiveChannel`` built its own.

    A verbatim copy of that function's arithmetic and cancellation check;
    its argument checks are left to the package, and it returns the
    diagonals it used to hand to ``EffectiveChannel``.
    """
    if coding == PLAIN:
        gains = None
    fold = SLOT_FOLD[coding]
    scaled = channels.entries
    if gains is not None:
        scaled = gains.beta[:, None, :] * scaled
        scaled *= gains.alpha[None, :, :]  # in place: one K x K x T temporary, same bits
    diagonals = scaled.reshape(*scaled.shape[:2], fold, -1).sum(axis=2)
    # only a paired sum can cancel; checked before EffectiveChannel, which
    # rejects zero entries as a ParameterError
    if fold > 1:
        mags = np.abs(diagonals)
        mean_mag = mags.mean(axis=2, keepdims=True)
        # <= so an all-zero link (mean 0) also counts as cancelled
        cancelled = mags <= DEGENERATE_REL_TOL * mean_mag
        if cancelled.any():
            k, j, _ = np.unravel_index(int(np.argmax(cancelled)), cancelled.shape)
            raise DegenerateRealizationError(
                f"paired gains cancelled on link ({k + 1}, {j + 1}); redraw the gain plan"
            )
    return diagonals


def parent_complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance complex normals as one expression, ``re`` drawn first."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _parent_sample_unit_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """``extension_core._sample_unit_complex`` drawing through ``parent_complex_normal``."""
    out = parent_complex_normal(rng, shape)
    while True:
        small = np.abs(out) < MIN_DRAW_MAGNITUDE
        if not small.any():
            return out
        out[small] = parent_complex_normal(rng, int(small.sum()))


def parent_generate_channels(users: int, slots: int, model: str, seed: int) -> np.ndarray:
    """The channel tensor as ``generate_channels`` drew it with one branch per model.

    A verbatim copy of that function's drawing ladder, each draw through
    ``parent_complex_normal``; its argument checks are left to the package,
    and it returns the entries it used to hand to ``ChannelSet``, a
    constant channel repeated over every slot.
    """
    rng = np.random.default_rng(seed)
    if model == CONSTANT:
        base = _parent_sample_unit_complex(rng, (users, users))
        entries = np.repeat(base[:, :, None], slots, axis=2)
    elif model == SLOW_CHANGING:
        halves = [_parent_sample_unit_complex(rng, (users, users)) for _ in range(2)]
        entries = np.repeat(np.stack(halves, axis=2), [slots // 2, slots - slots // 2], axis=2)
    else:
        entries = _parent_sample_unit_complex(rng, (users, users, slots))
    return entries


def parent_fold_diagonals(entries: np.ndarray, alpha, beta, coding: str) -> np.ndarray:
    """The diagonals of ``extension_core._fold_diagonals`` as one product over every raw slot.

    A verbatim copy of that fold's arithmetic before it formed one slot
    layer at a time: the gain-scaled (..., users, users, slots) product,
    summed over the fold axis. Its checks are left to the package.
    """
    scaled = entries
    if alpha is not None:
        scaled = beta[..., :, None, :] * entries
        scaled *= alpha[..., None, :, :]
    return scaled.reshape(*scaled.shape[:-1], SLOT_FOLD[coding], -1).sum(axis=-2)


def parent_receiver_composite(eff, pre, receiver: int) -> np.ndarray:
    k = receiver
    return np.hstack([eff.diagonal(k, j)[:, None] * pre.precoders[j] for j in (k, pre.basis_user(k))])


def _parent_cutoff(shape: tuple[int, ...], s: np.ndarray) -> float | None:
    """The rank cutoff max(shape) * eps * sigma_max of descending ``s``; None for rank 0."""
    if s.size == 0 or s[0] == 0.0:
        return None
    return max(shape) * float(np.finfo(np.float64).eps) * float(s[0])


def _parent_basis(matrix: np.ndarray) -> np.ndarray:
    """The left singular vectors of a thin SVD above ``_parent_cutoff``."""
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    threshold = _parent_cutoff(matrix.shape, s)
    return u[:, :0] if threshold is None else u[:, s > threshold]


def parent_signal_space_rank(eff, pre, receiver: int) -> RankResult:
    _check_pair(eff, pre)
    composite = parent_receiver_composite(eff, pre, receiver)
    s = np.linalg.svd(composite, compute_uv=False)
    threshold = _parent_cutoff(composite.shape, s)
    if threshold is None:
        return RankResult(0, 0.0, 0.0)
    return RankResult(int(np.count_nonzero(s > threshold)), float(s[-1] / s[0]), threshold)


def parent_check_alignment(eff, pre) -> AlignmentReport:
    """``check_alignment`` as it read before the one pass over receivers.

    A verbatim copy, with its ``signal_space_rank``/``receiver_composite``
    path and its own copy of the basis SVD and rank cutoff: every block
    product is formed where a condition reads it, and the rank certificates
    come after all residuals.
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
        basis = _parent_basis(eff.diagonal(j, 1)[:, None] * pre.precoders[1])
        for k in range(2, eff.users + 1):
            if k == j:
                continue
            block = eff.diagonal(j, k)[:, None] * pre.precoders[k]
            rejected = block - basis @ (basis.conj().T @ block)
            residuals[f"contain_rx{j}_tx{k}"] = float(
                np.linalg.norm(rejected) / np.linalg.norm(block)
            )

    rank_results = {k: parent_signal_space_rank(eff, pre, k) for k in range(1, eff.users + 1)}
    ok = all(r <= RESIDUAL_TOL for r in residuals.values()) and all(
        res.rank == eff.dim for res in rank_results.values()
    )
    return AlignmentReport(
        residuals=residuals, rank_results=rank_results, verdict="pass" if ok else "fail"
    )


def modp_columns(diagonals: np.ndarray, n: int, p: int) -> dict[int, np.ndarray]:
    """Every user's unnormalised precoder columns mod ``p``, one Python int entry at a time.

    ``diagonals`` is a (trials, K, K, D) stack of residues with no zero
    denominator. Returns one (trials, D, d_k) int64 array per user, in
    ascending user order.
    """
    trials, users, _, dim = diagonals.shape
    pairs = cascade_pairs(users)

    def row(t: int, q: int) -> dict[int, list[int]]:
        h = {(k + 1, j + 1): int(x) for (k, j), x in np.ndenumerate(diagonals[t, :, :, q])}
        cascade = {
            (k, l): h[2, 1] * pow(h[2, 3], -1, p) * h[1, 3] * pow(h[k, 1], -1, p) * h[k, l] * pow(h[1, l], -1, p) % p
            for k, l in pairs
        }

        def products(cap: int) -> list[int]:
            return [
                math.prod(pow(cascade[pair], e, p) for pair, e in zip(pairs, combo)) % p
                for combo in itertools.product(range(cap + 1), repeat=len(pairs))
            ]

        out = {1: products(n), 3: [h[2, 1] * pow(h[2, 3], -1, p) * v % p for v in products(n - 1)]}
        for i in (2, *range(4, users + 1)):
            out[i] = [h[1, 3] * pow(h[1, i], -1, p) * v % p for v in out[3]]
        return out

    rows = [[row(t, q) for q in range(dim)] for t in range(trials)]
    return {
        user: np.array([[r[user] for r in trial] for trial in rows], dtype=np.int64)
        for user in range(1, users + 1)
    }


def exponent_columns(users: int, n: int) -> dict[int, np.ndarray]:
    """Every user's columns as exponent vectors over the K^2 links, one column at a time.

    Link (a, b) is variable (a - 1) K + (b - 1). The cascade T_kl =
    H_21 H_23^-1 H_13 H_k1^-1 H_kl H_1l^-1 is the signed sum of its six unit
    vectors, and a column is the sum of the cascades weighted by its row of
    ``enumerate_tuples``, behind the user-3 prefix H_21 H_23^-1 and the
    user-i rescaling H_1i^-1 H_13. Returns one (K^2, d_k) int64 array per
    user, in ascending user order.
    """

    def link(a: int, b: int) -> np.ndarray:
        unit = np.zeros(users * users, dtype=np.int64)
        unit[(a - 1) * users + b - 1] = 1
        return unit

    cascades = [
        link(2, 1) - link(2, 3) + link(1, 3) - link(k, 1) + link(k, l) - link(1, l) for k, l in cascade_pairs(users)
    ]

    def products(cap: int) -> np.ndarray:
        columns = []
        for exponents in enumerate_tuples(users, cap):
            column = np.zeros(users * users, dtype=np.int64)
            for e, cascade in zip(exponents, cascades):
                column += e * cascade
            columns.append(column)
        return np.array(columns).T

    out = {1: products(n), 3: (link(2, 1) - link(2, 3))[:, None] + products(n - 1)}
    for i in (2, *range(4, users + 1)):
        out[i] = (link(1, 3) - link(1, i))[:, None] + out[3]
    return dict(sorted(out.items()))


def modp_received_blocks(row: np.ndarray, columns: dict[int, np.ndarray], p: int) -> dict[int, np.ndarray]:
    """Blocks H_kj V_j mod ``p`` from receiver k's (trials, K, D) ``row`` of residues, one Python int at a time."""
    return {
        j: np.array(
            [[[int(row[t, j - 1, q]) * int(v) % p for v in mat[t, q]] for q in range(mat.shape[1])]
             for t in range(mat.shape[0])],
            dtype=np.int64,
        )
        for j, mat in columns.items()
    }
