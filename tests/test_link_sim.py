import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import slope_between
from symextia import (
    GainPlan,
    LinkConfig,
    ParameterError,
    SimulationError,
    build_effective,
    combine_received,
    draw_realization,
    effective_dim,
    effective_noise_std,
    estimate_dof,
    generate_channels,
    generate_gains,
    run_symbol_chain,
    simulate_link,
    slot_fold,
    transmit_blocks,
)
import symextia.link_sim as link_sim


def _double_channels(seed=7, users=3, n=2):
    return generate_channels(users, 2 * effective_dim(users, n), "constant", seed)


class TestLinkConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(snr_points_db=(), trials=1),
            dict(snr_points_db=(10.0, 10.0), trials=1),
            dict(snr_points_db=(20.0, 10.0), trials=1),
            dict(snr_points_db=(10.0,), trials=0),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            LinkConfig(**kwargs)


class TestSimulateLink:
    def test_double_layer_slope_near_seven_tenths(self):
        ch = _double_channels()
        link = LinkConfig(snr_points_db=(50.0, 60.0), trials=50, seed=7)
        result = simulate_link(ch, "double", link)
        assert abs(result.dof_estimate - 0.7) <= 0.05
        assert result.failures >= 0

    def test_full_sweep_monotone_with_expected_slope(self):
        ch = _double_channels(seed=3)
        link = LinkConfig(snr_points_db=tuple(float(s) for s in range(10, 61, 10)), trials=50, seed=1)
        result = simulate_link(ch, "double", link)
        rates = [result.sum_rate[s] for s in link.snr_points_db]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert 0.65 <= result.dof_estimate <= 0.75

    def test_per_user_rates_sum_to_sum_rate(self):
        ch = _double_channels(seed=5)
        link = LinkConfig(snr_points_db=(30.0, 40.0), trials=10, seed=2)
        result = simulate_link(ch, "double", link)
        for snr, rates in result.per_user_rate.items():
            assert len(rates) == 3
            assert sum(rates) == pytest.approx(result.sum_rate[snr], rel=1e-12)

    def test_deterministic_for_fixed_seed(self):
        ch = _double_channels(seed=9)
        link = LinkConfig(snr_points_db=(40.0, 50.0), trials=8, seed=4)
        a = simulate_link(ch, "double", link)
        b = simulate_link(ch, "double", link)
        assert a == b

    def test_naive_saturates_on_constant_channels(self):
        ch = generate_channels(3, 5, "constant", 7)
        link = LinkConfig(snr_points_db=(50.0, 60.0), trials=50, seed=7)
        result = simulate_link(ch, "naive", link)
        assert result.dof_estimate < 0.1

    def test_plain_iid_ensemble_slope_near_seven_fifths(self):
        link = LinkConfig(snr_points_db=(50.0, 60.0), trials=1, seed=0)
        lo = hi = 0.0
        seeds = 40
        for seed in range(seeds):
            ch = generate_channels(3, 5, "iid", 20_000 + seed)
            result = simulate_link(ch, "plain", link)
            lo += result.sum_rate[50.0] / seeds
            hi += result.sum_rate[60.0] / seeds
        assert abs(slope_between({50.0: lo, 60.0: hi}, 50.0, 60.0) - 1.4) <= 0.1

    def test_rejects_mismatched_setup(self):
        ch = _double_channels()
        link = LinkConfig(snr_points_db=(10.0, 20.0), trials=1)
        # double-length channels on one layer leave an even D, which no n gives
        for coding in ("naive", "plain"):
            with pytest.raises(ParameterError, match="no exponent cap"):
                simulate_link(ch, coding, link)
            with pytest.raises(ParameterError, match="no exponent cap"):
                run_symbol_chain(ch, coding, power=1.0, seed=0)
        # K=4 single-length channels between the sizes 33 (n=1) and 275 (n=2)
        wrong_n = generate_channels(4, 35, "iid", 0)
        with pytest.raises(ParameterError, match="no exponent cap"):
            simulate_link(wrong_n, "plain", link)
        with pytest.raises(ParameterError, match="no exponent cap"):
            run_symbol_chain(wrong_n, "plain", power=1.0, seed=0)
        # single-length channels under double coding: an odd slot count
        with pytest.raises(ParameterError, match="divisible"):
            simulate_link(generate_channels(3, 5, "constant", 0), "double", link)
        with pytest.raises(ParameterError):
            simulate_link(ch, "viterbi", link)

    def test_single_snr_point_gives_nan_dof(self):
        ch = _double_channels()
        result = simulate_link(ch, "double", LinkConfig(snr_points_db=(30.0,), trials=2))
        assert np.isnan(result.dof_estimate)
        with pytest.raises(ParameterError):
            estimate_dof(result.sum_rate)


class TestEstimateDof:
    def test_recovers_synthetic_slope(self):
        delta = 0.7 * np.log2(10.0)  # one decade at slope 0.7
        assert estimate_dof({50.0: 4.0, 60.0: 4.0 + delta}) == pytest.approx(0.7)

    def test_uses_two_largest_points(self):
        delta = 0.5 * np.log2(10.0)
        assert estimate_dof({10.0: 0.0, 50.0: 4.0, 60.0: 4.0 + delta}) == pytest.approx(0.5)

    def test_flat_rates_give_zero(self):
        assert estimate_dof({40.0: 3.25, 50.0: 3.25, 60.0: 3.25}) == 0.0


class TestResampling:
    @staticmethod
    def _cancelling_plan(users, slots):
        ones = np.ones((users, slots), dtype=complex)
        beta = ones.copy()
        beta[:, slots // 2 :] = -1.0
        return GainPlan(alpha=ones.copy(), beta=beta)

    def test_persistent_degeneracy_raises(self, monkeypatch):
        ch = _double_channels()
        monkeypatch.setattr(
            link_sim, "generate_gains", lambda u, s, seed: self._cancelling_plan(u, s)
        )
        with pytest.raises(SimulationError):
            draw_realization(ch, "double", 0)

    def test_redraw_count_reported(self, monkeypatch):
        ch = _double_channels()
        calls = {"n": 0}
        real = generate_gains

        def flaky(users, slots, seed):
            calls["n"] += 1
            if calls["n"] == 1:
                return self._cancelling_plan(users, slots)
            return real(users, slots, seed)

        monkeypatch.setattr(link_sim, "generate_gains", flaky)
        _, _, _, redraws = draw_realization(ch, "double", 0)
        assert redraws == 1


class TestSymbolChain:
    def test_noise_free_decode_is_exact(self):
        ch = _double_channels(seed=11)
        sample = run_symbol_chain(ch, "double", power=4.0, seed=3, blocks=8, inject_noise=False)
        for user, sym in sample.symbols.items():
            err = np.linalg.norm(sample.decoded[user] - sym) / np.linalg.norm(sym)
            assert err <= 1e-8

    def test_noise_free_decode_plain(self):
        ch = generate_channels(3, 5, "iid", 17)
        sample = run_symbol_chain(ch, "plain", power=1.0, seed=5, blocks=4, inject_noise=False)
        for user, sym in sample.symbols.items():
            err = np.linalg.norm(sample.decoded[user] - sym) / np.linalg.norm(sym)
            assert err <= 1e-8

    def test_transmit_power_accounting(self):
        ch = _double_channels(seed=11)
        target = 2.5
        sample = run_symbol_chain(ch, "double", power=target, seed=3, blocks=100_000, inject_noise=False
        )
        slots = 0
        for blocks in sample.tx_blocks.values():
            measured = float(np.mean(np.abs(blocks) ** 2))
            slots = blocks.size
            assert abs(measured - target) / target <= 0.01
        assert slots >= 10_000

    def test_combined_noise_variance(self):
        ch = _double_channels(seed=11)
        sample = run_symbol_chain(ch, "double", power=1.0, seed=3, blocks=1)
        eff = sample.effective
        rng = np.random.default_rng(99)
        draws = 20_000
        noise = (
            rng.standard_normal((ch.slots, draws)) + 1j * rng.standard_normal((ch.slots, draws))
        ) / np.sqrt(2.0)
        for receiver in (1, 2, 3):
            combined = combine_received(noise, eff, receiver)
            empirical = np.var(combined, axis=1)
            want = effective_noise_std(eff, receiver) ** 2
            assert np.max(np.abs(empirical - want) / want) <= 0.05

    def test_combine_shapes_and_plain_passthrough(self):
        ch = generate_channels(3, 5, "iid", 1)
        eff = build_effective(ch, None, "plain")
        y = np.arange(10).reshape(5, 2).astype(complex)
        assert np.array_equal(combine_received(y, eff, 1), y)
        assert np.all(effective_noise_std(eff, 2) == 1.0)
        with pytest.raises(ParameterError):
            combine_received(y[:4], eff, 1)

    def test_transmit_blocks_validates_streams(self):
        ch = _double_channels()
        _, eff, pre, _ = draw_realization(ch, "double", 0)
        bad = {u: np.ones((d + 1, 2), dtype=complex) for u, d in pre.stream_counts.items()}
        with pytest.raises(ParameterError):
            transmit_blocks(pre, eff, 1.0, bad)
        good = {u: np.ones((d, 2), dtype=complex) for u, d in pre.stream_counts.items()}
        with pytest.raises(ParameterError):
            transmit_blocks(pre, eff, 0.0, good)

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda s: {u: b for u, b in s.items() if u != 2},  # a user is missing
            lambda s: {**s, 4: s[1]},  # a user the precoders do not have
            lambda s: {**s, 2: s[2][:, 0]},  # a 1-D block
            lambda s: {**s, 3: s[3][:, :1]},  # fewer blocks than the other users
        ],
        ids=["missing_user", "extra_user", "one_dimensional", "unequal_blocks"],
    )
    def test_transmit_blocks_validates_the_symbol_dict(self, spoil):
        ch = _double_channels()
        _, eff, pre, _ = draw_realization(ch, "double", 0)
        good = {u: np.ones((d, 2), dtype=complex) for u, d in pre.stream_counts.items()}
        transmit_blocks(pre, eff, 1.0, good)
        with pytest.raises(ParameterError):
            transmit_blocks(pre, eff, 1.0, spoil(good))

    def test_chain_rejects_bad_blocks(self):
        ch = _double_channels()
        with pytest.raises(ParameterError):
            run_symbol_chain(ch, "double", power=1.0, seed=0, blocks=0)


FOLD_CASES = [
    (users, n, coding)
    for users, ns in ((3, (1, 2, 5)), (4, (1, 2)))
    for n in ns
    for coding in ("plain", "naive", "double")
]


class TestFoldMatchesPerModeReference:
    @pytest.mark.parametrize("users,n,coding", FOLD_CASES)
    def test_fold_is_bit_identical(self, users, n, coding):
        slots = slot_fold(coding) * effective_dim(users, n)
        model = "iid" if coding == "plain" else "constant"
        ch = generate_channels(users, slots, model, 31 * n + users)
        _, eff, pre, _ = draw_realization(ch, coding, 4)
        rng = np.random.default_rng(n)
        shape = (ch.slots, 3)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for k in range(1, users + 1):
            assert np.array_equal(effective_noise_std(eff, k), oracles.per_mode_noise_std(eff, k))
            assert np.array_equal(combine_received(y, eff, k), oracles.per_mode_combine(y, eff, k))
            assert np.array_equal(
                combine_received(y[:, 0], eff, k), oracles.per_mode_combine(y[:, 0], eff, k)
            )
        hats = link_sim._scale_hats(pre, eff)
        for user in pre.precoders:
            energy = oracles.per_mode_block_energy(pre, eff, user)
            assert hats[user] == float(np.sqrt(ch.slots / energy))
        symbols = {
            u: rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
            for u, d in pre.stream_counts.items()
        }
        got = transmit_blocks(pre, eff, 3.5, symbols)
        want = oracles.per_mode_transmit(pre, eff, 3.5, symbols)
        assert all(np.array_equal(got[u], want[u]) for u in want)

    @pytest.mark.parametrize("coding", ["plain", "naive", "double"])
    def test_noise_free_chain_uses_the_shared_zero_forcer(self, coding):
        ch = generate_channels(3, slot_fold(coding) * 5, "iid", 8)
        power = 2.0
        sample = run_symbol_chain(ch, coding, power=power, seed=6, blocks=4, inject_noise=False)
        eff, pre = sample.effective, sample.precoders
        scales = np.sqrt(power) * link_sim._hat_rows((eff,), (pre,))
        for k in range(1, 4):
            z = combine_received(sample.received[k], eff, k) / effective_noise_std(eff, k)[:, None]
            blocks = link_sim._whitened_blocks((eff,), (pre,), k, scales)
            assert np.array_equal(sample.decoded[k], link_sim._zero_forcer(pre, blocks, k)[0] @ z)


def _link_case(users, n, coding, model, seed, trials):
    slots = slot_fold(coding) * effective_dim(users, n)
    ch = generate_channels(users, slots, model, 100 * seed + n)
    link = LinkConfig(snr_points_db=(0.0, 20.0, 40.0), trials=trials, seed=seed)
    return ch, coding, link


CODING_CHANNELS = [
    (coding, model)
    for coding in ("plain", "naive", "double")
    for model in ("constant", "iid", "slow_changing")
    if model != "slow_changing" or coding == "double"
]
# K=4, n=2 (D=275) takes ~0.8 s a case, so it runs one seed
STACK_CASES = [
    (users, n, coding, model, seed)
    for users, ns in ((3, (1, 2, 5, 10)), (4, (1, 2)))
    for n in ns
    for coding, model in CODING_CHANNELS
    for seed in ((0,) if (users, n) == (4, 2) else (0, 1, 2))
]


class TestStackedMatchesPerTrial:
    @pytest.mark.parametrize("users,n,coding,model,seed", STACK_CASES)
    def test_same_bits_as_per_trial_loop(self, users, n, coding, model, seed):
        case = _link_case(users, n, coding, model, seed, trials=2 if users == 4 else 3)
        # LinkResult equality: sum_rate, per_user_rate, dof_estimate and failures
        assert simulate_link(*case) == oracles.per_trial_simulate_link(*case)

    @pytest.mark.parametrize("composites", [1, 3])
    def test_same_bits_over_several_chunks(self, monkeypatch, composites):
        ch, coding, link = _link_case(3, 10, "double", "iid", 1, trials=7)
        monkeypatch.setattr(link_sim, "ZF_STACK_BYTES", composites * 16 * effective_dim(3, 10) ** 2)
        calls = []
        real_pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda a: calls.append(len(a)) or real_pinv(a))
        got = simulate_link(ch, coding, link)
        monkeypatch.undo()
        # receivers run inside each chunk: chunks of 1 trial, or 3 + 3 + 1 trials
        assert calls == ([1] * 21 if composites == 1 else [3] * 6 + [1] * 3)
        assert got == oracles.per_trial_simulate_link(ch, coding, link)

    def test_one_trial_peaks_within_one_composite_of_per_trial_loop(self):
        case = _link_case(4, 2, "double", "constant", 0, trials=1)
        composite = 16 * effective_dim(4, 2) ** 2

        def peak(run):
            tracemalloc.start()
            try:
                run(*case)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(simulate_link) <= peak(oracles.per_trial_simulate_link) + composite
