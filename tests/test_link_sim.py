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
    effective_noise_std,
    estimate_dof,
    generate_channels,
    generate_gains,
    make_config,
    run_symbol_chain,
    simulate_link,
    transmit_blocks,
)
import symextia.link_sim as link_sim


def _double_channels(seed=7, users=3, n=2):
    cfg = make_config(users, n, "double")
    return cfg, generate_channels(users, cfg.extension_length, "constant", seed)


class TestLinkConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(snr_points_db=(), trials=1),
            dict(snr_points_db=(10.0, 10.0), trials=1),
            dict(snr_points_db=(20.0, 10.0), trials=1),
            dict(snr_points_db=(10.0,), trials=0),
            dict(snr_points_db=(10.0,), trials=1, power_per_user=0.0),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            LinkConfig(**kwargs)


class TestSimulateLink:
    def test_double_layer_slope_near_seven_tenths(self):
        cfg, ch = _double_channels()
        link = LinkConfig(snr_points_db=(50.0, 60.0), trials=50, seed=7)
        result = simulate_link(ch, "double", cfg, link)
        assert abs(result.dof_estimate - 0.7) <= 0.05
        assert result.failures >= 0

    def test_full_sweep_monotone_with_expected_slope(self):
        cfg, ch = _double_channels(seed=3)
        link = LinkConfig(snr_points_db=tuple(float(s) for s in range(10, 61, 10)), trials=50, seed=1)
        result = simulate_link(ch, "double", cfg, link)
        rates = [result.sum_rate[s] for s in link.snr_points_db]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert 0.65 <= result.dof_estimate <= 0.75

    def test_per_user_rates_sum_to_sum_rate(self):
        cfg, ch = _double_channels(seed=5)
        link = LinkConfig(snr_points_db=(30.0, 40.0), trials=10, seed=2)
        result = simulate_link(ch, "double", cfg, link)
        for snr, rates in result.per_user_rate.items():
            assert len(rates) == 3
            assert sum(rates) == pytest.approx(result.sum_rate[snr], rel=1e-12)

    def test_deterministic_for_fixed_seed(self):
        cfg, ch = _double_channels(seed=9)
        link = LinkConfig(snr_points_db=(40.0, 50.0), trials=8, seed=4)
        a = simulate_link(ch, "double", cfg, link)
        b = simulate_link(ch, "double", cfg, link)
        assert a == b

    def test_naive_saturates_on_constant_channels(self):
        cfg = make_config(3, 2, "single")
        ch = generate_channels(3, cfg.extension_length, "constant", 7)
        link = LinkConfig(snr_points_db=(50.0, 60.0), trials=50, seed=7)
        result = simulate_link(ch, "naive", cfg, link)
        assert result.dof_estimate < 0.1

    def test_plain_iid_ensemble_slope_near_seven_fifths(self):
        cfg = make_config(3, 2, "single")
        link = LinkConfig(snr_points_db=(50.0, 60.0), trials=1, seed=0)
        lo = hi = 0.0
        seeds = 40
        for seed in range(seeds):
            ch = generate_channels(3, cfg.extension_length, "iid", 20_000 + seed)
            result = simulate_link(ch, "plain", cfg, link)
            lo += result.sum_rate[50.0] / seeds
            hi += result.sum_rate[60.0] / seeds
        assert abs(slope_between({50.0: lo, 60.0: hi}, 50.0, 60.0) - 1.4) <= 0.1

    def test_rejects_mismatched_setup(self):
        cfg, ch = _double_channels()
        link = LinkConfig(snr_points_db=(10.0, 20.0), trials=1)
        with pytest.raises(ParameterError):
            simulate_link(ch, "naive", cfg, link)  # single-layer coding, double config
        single = make_config(3, 2, "single")
        with pytest.raises(ParameterError):
            simulate_link(ch, "plain", single, link)  # slot count mismatch
        with pytest.raises(ParameterError):
            simulate_link(ch, "viterbi", cfg, link)

    def test_single_snr_point_gives_nan_dof(self):
        cfg, ch = _double_channels()
        result = simulate_link(ch, "double", cfg, LinkConfig(snr_points_db=(30.0,), trials=2))
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
        cfg, ch = _double_channels()
        monkeypatch.setattr(
            link_sim, "generate_gains", lambda u, s, seed: self._cancelling_plan(u, s)
        )
        with pytest.raises(SimulationError):
            draw_realization(ch, "double", cfg, 0)

    def test_redraw_count_reported(self, monkeypatch):
        cfg, ch = _double_channels()
        calls = {"n": 0}
        real = generate_gains

        def flaky(users, slots, seed):
            calls["n"] += 1
            if calls["n"] == 1:
                return self._cancelling_plan(users, slots)
            return real(users, slots, seed)

        monkeypatch.setattr(link_sim, "generate_gains", flaky)
        _, _, _, redraws = draw_realization(ch, "double", cfg, 0)
        assert redraws == 1


class TestSymbolChain:
    def test_noise_free_decode_is_exact(self):
        cfg, ch = _double_channels(seed=11)
        sample = run_symbol_chain(ch, "double", cfg, power=4.0, seed=3, blocks=8, inject_noise=False)
        for user, sym in sample.symbols.items():
            err = np.linalg.norm(sample.decoded[user] - sym) / np.linalg.norm(sym)
            assert err <= 1e-8

    def test_noise_free_decode_plain(self):
        cfg = make_config(3, 2, "single")
        ch = generate_channels(3, cfg.extension_length, "iid", 17)
        sample = run_symbol_chain(ch, "plain", cfg, power=1.0, seed=5, blocks=4, inject_noise=False)
        for user, sym in sample.symbols.items():
            err = np.linalg.norm(sample.decoded[user] - sym) / np.linalg.norm(sym)
            assert err <= 1e-8

    def test_transmit_power_accounting(self):
        cfg, ch = _double_channels(seed=11)
        target = 2.5
        sample = run_symbol_chain(
            ch, "double", cfg, power=target, seed=3, blocks=100_000, inject_noise=False
        )
        slots = 0
        for blocks in sample.tx_blocks.values():
            measured = float(np.mean(np.abs(blocks) ** 2))
            slots = blocks.size
            assert abs(measured - target) / target <= 0.01
        assert slots >= 10_000

    def test_combined_noise_variance(self):
        cfg, ch = _double_channels(seed=11)
        sample = run_symbol_chain(ch, "double", cfg, power=1.0, seed=3, blocks=1)
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
        cfg = make_config(3, 2, "single")
        ch = generate_channels(3, cfg.extension_length, "iid", 1)
        eff = build_effective(ch, None, "plain")
        y = np.arange(10).reshape(5, 2).astype(complex)
        assert np.array_equal(combine_received(y, eff, 1), y)
        assert np.all(effective_noise_std(eff, 2) == 1.0)
        with pytest.raises(ParameterError):
            combine_received(y[:4], eff, 1)

    def test_transmit_blocks_validates_streams(self):
        cfg, ch = _double_channels()
        _, eff, pre, _ = draw_realization(ch, "double", cfg, 0)
        bad = {u: np.ones((d + 1, 2), dtype=complex) for u, d in pre.stream_counts.items()}
        with pytest.raises(ParameterError):
            transmit_blocks(pre, eff, 1.0, bad)
        good = {u: np.ones((d, 2), dtype=complex) for u, d in pre.stream_counts.items()}
        with pytest.raises(ParameterError):
            transmit_blocks(pre, eff, 0.0, good)

    def test_chain_rejects_bad_blocks(self):
        cfg, ch = _double_channels()
        with pytest.raises(ParameterError):
            run_symbol_chain(ch, "double", cfg, power=1.0, seed=0, blocks=0)


FOLD_CASES = [
    (users, n, coding)
    for users, ns in ((3, (1, 2, 5)), (4, (1, 2)))
    for n in ns
    for coding in ("plain", "naive", "double")
]


class TestFoldMatchesPerModeReference:
    @pytest.mark.parametrize("users,n,coding", FOLD_CASES)
    def test_fold_is_bit_identical(self, users, n, coding):
        cfg = make_config(users, n, "double" if coding == "double" else "single")
        model = "iid" if coding == "plain" else "constant"
        ch = generate_channels(users, cfg.extension_length, model, 31 * n + users)
        _, eff, pre, _ = draw_realization(ch, coding, cfg, 4)
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
        cfg = make_config(3, 2, "double" if coding == "double" else "single")
        ch = generate_channels(3, cfg.extension_length, "iid", 8)
        power = 2.0
        sample = run_symbol_chain(ch, coding, cfg, power=power, seed=6, blocks=4, inject_noise=False)
        eff, pre = sample.effective, sample.precoders
        scales = {u: np.sqrt(power) * h for u, h in link_sim._scale_hats(pre, eff).items()}
        for k in range(1, 4):
            z = combine_received(sample.received[k], eff, k) / effective_noise_std(eff, k)[:, None]
            blocks = link_sim._whitened_blocks(eff, pre, k, scales)
            assert np.array_equal(sample.decoded[k], link_sim._zero_forcer(pre, blocks, k) @ z)
