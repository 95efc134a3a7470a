import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import slope_between
from symextia import (
    DegenerateRealizationError,
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
    subseed,
    transmit_blocks,
)
import symextia.cj_precoder as cj_precoder
import symextia.cli as cli
import symextia.extension_core as extension_core
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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # each would otherwise fail later, inside the first draw, untyped or late
            (dict(trials=2.5), "trials must be an integer"),
            (dict(trials=3, seed=1.5), "seed must be an integer"),
            (dict(trials=3, seed=-1), "seed must be an integer >= 0"),
        ],
    )
    def test_rejects_a_trial_count_or_seed_that_is_not_a_count(self, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            LinkConfig(snr_points_db=(10.0,), **kwargs)

    @pytest.mark.parametrize("points", ["12", (10.0, "20"), (10.0, 20j), (True, 2.0)])
    def test_rejects_points_that_are_not_real_numbers(self, points):
        # each would otherwise fail late and untyped, or read True as 1 dB
        with pytest.raises(ParameterError, match="is not a real number"):
            LinkConfig(snr_points_db=points, trials=2)

    @pytest.mark.parametrize("points", [10.0, None, "12", b"\x0a\x14"])
    def test_rejects_points_that_are_not_a_sequence(self, points):
        # 10.0 and None would fail untyped, and "12" would be read a character at a time
        with pytest.raises(ParameterError, match="is not a real number sequence"):
            LinkConfig(snr_points_db=points, trials=2)

    def test_stores_the_points_as_a_tuple(self):
        link = LinkConfig(snr_points_db=[10.0, 20.0], trials=2)
        assert link.snr_points_db == (10.0, 20.0)
        assert hash(link) == hash(LinkConfig(snr_points_db=(10.0, 20.0), trials=2))

    def test_takes_python_ints_and_numpy_floats(self):
        points = (10, np.float64(20.0), np.float32(30.0))
        assert LinkConfig(snr_points_db=points, trials=1).snr_points_db == points
        assert link_sim.snr_power(np.float64(20.0)) == link_sim.snr_power(20) == 100.0

    @pytest.mark.parametrize(
        "points",
        [(10.0, float("inf")), (float("nan"), 10.0), (3000.0, 3100.0), (-4000.0, 0.0), (-3200.0, 0.0)],
    )
    def test_rejects_points_without_a_transmit_power(self, points):
        # 10**(3100/10) overflows a float, 10**(-4000/10) is 0, and the
        # reciprocal of the subnormal 10**(-3200/10) overflows
        with pytest.raises(ParameterError, match="no positive finite transmit power"):
            LinkConfig(snr_points_db=points, trials=1)
        assert link_sim.snr_power(3082.0) == 10.0 ** 308.2
        assert link_sim.snr_power(-3082.0) == 10.0 ** -308.2
        with pytest.raises(ParameterError, match="finite reciprocal"):
            link_sim.snr_power(-3083.0)


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

    def test_rates_at_the_lowest_powers_are_zero_without_a_warning(self):
        # noise / P overflows at -3082 dB, where the SINR is far below 2^-53:
        # the rate is 0, as it already is at -200 dB
        ch = generate_channels(3, 2 * effective_dim(3, 1), "constant", 0)
        result = simulate_link(ch, "double", LinkConfig(snr_points_db=(-3082.0, -3072.0), trials=1))
        assert result.sum_rate == {-3082.0: 0.0, -3072.0: 0.0}
        assert result.per_user_rate == {-3082.0: (0.0, 0.0, 0.0), -3072.0: (0.0, 0.0, 0.0)}
        assert result.dof_estimate == 0.0
        low = simulate_link(ch, "double", LinkConfig(snr_points_db=(-200.0, -190.0), trials=1))
        assert low.sum_rate[-200.0] == 0.0

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
        plan = self._cancelling_plan(ch.users, ch.slots)
        monkeypatch.setattr(link_sim, "_draw_gains", lambda u, s, seed: (plan.alpha.copy(), plan.beta.copy()))
        with pytest.raises(SimulationError):
            draw_realization(ch, "double", 0)

    def test_redraw_count_reported(self, monkeypatch):
        ch = _double_channels()
        calls = {"n": 0}
        real = extension_core._draw_gains

        def flaky(users, slots, seed):
            calls["n"] += 1
            if calls["n"] == 1:
                plan = self._cancelling_plan(users, slots)
                return plan.alpha, plan.beta
            return real(users, slots, seed)

        monkeypatch.setattr(link_sim, "_draw_gains", flaky)
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
        for power in (0.0, float("inf"), float("nan")):
            with pytest.raises(ParameterError):
                transmit_blocks(pre, eff, power, good)

    def test_transmit_blocks_rejects_a_mismatched_pair(self):
        # precoders for K=3 n=2 (D=5), an effective channel for K=3 n=1 (D=3)
        _, _, pre, _ = draw_realization(generate_channels(3, 5, "iid", 0), "plain", 0)
        _, eff, _, _ = draw_realization(generate_channels(3, 3, "iid", 0), "plain", 0)
        symbols = {u: np.ones((d, 1), dtype=complex) for u, d in pre.stream_counts.items()}
        with pytest.raises(ParameterError, match="does not match"):
            transmit_blocks(pre, eff, 1.0, symbols)

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

    def test_chain_rejects_a_block_count_that_is_not_an_integer(self):
        with pytest.raises(ParameterError, match="blocks must be an integer >= 1"):
            run_symbol_chain(_double_channels(), "double", power=1.0, seed=0, blocks=1.5)

    @pytest.mark.parametrize("power", [0.0, -1.0, float("inf"), float("nan")])
    def test_chain_rejects_a_power_that_is_not_positive_and_finite(self, power):
        with pytest.raises(ParameterError, match="positive and finite"):
            run_symbol_chain(_double_channels(), "double", power=power, seed=0)


    def test_chain_checks_its_power_before_the_draw(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew a realization for an unusable power")

        monkeypatch.setattr(link_sim, "draw_realization", refuse)
        with pytest.raises(ParameterError, match="positive and finite"):
            run_symbol_chain(_double_channels(), "double", power=0.0, seed=0)
        # a bad seed is still the error named first
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            run_symbol_chain(_double_channels(), "double", power=0.0, seed=-1)

    @pytest.mark.parametrize("power", ["1", True, 1e-309, 10**400])
    def test_chain_rejects_a_power_that_fails_the_power_rule(self, power):
        # neither a string nor a bool is a power; the reciprocal of 1e-309
        # overflows, as that of an SNR point below about -3082.5 dB does
        with pytest.raises(ParameterError, match="a real number, positive and finite with a finite reciprocal"):
            run_symbol_chain(_double_channels(), "double", power=power, seed=0)

    def test_chain_draws_its_symbols_then_its_noise_from_the_chain_stream(self):
        seed, blocks = 3, 4
        ch = _double_channels(seed=11)
        sample = run_symbol_chain(ch, "double", power=2.0, seed=seed, blocks=blocks)
        rng = np.random.default_rng(subseed(seed, extension_core._STREAMS["chain"]))

        def normals(shape):
            real = rng.standard_normal(shape)
            return (real + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

        for user, streams in sample.precoders.stream_counts.items():
            assert np.array_equal(sample.symbols[user], normals((streams, blocks)))
        tx = sample.tx_blocks
        for k in range(1, ch.users + 1):
            noiseless = sum(ch.entries[k - 1, j - 1][:, None] * tx[j] for j in tx)
            assert np.array_equal(sample.received[k], noiseless + normals((ch.slots, blocks)))


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
            assert hats[user - 1] == float(np.sqrt(ch.slots / energy))
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
        scales = np.sqrt(power) * link_sim._scale_hats(pre, eff)
        for k in range(1, 4):
            noise_std, blocks, gains_zf = link_sim._zero_forcer(pre, eff, k, scales)
            want = oracles._per_trial_whitened_blocks(eff, pre, k, dict(enumerate(scales, 1)))
            assert np.array_equal(noise_std, effective_noise_std(eff, k))
            assert all(np.array_equal(blocks[j], want[j]) for j in want)
            assert np.array_equal(gains_zf, oracles._per_trial_zero_forcer(pre, want, k))
            z = combine_received(sample.received[k], eff, k) / noise_std[:, None]
            assert np.array_equal(sample.decoded[k], gains_zf @ z)


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

    @pytest.mark.parametrize("composites", [1, 2])
    @pytest.mark.parametrize(
        "users,n,coding,model", sorted({case[:4] for case in STACK_CASES if case[0] == 3})
    )
    def test_same_bits_at_every_chunk_cap(self, monkeypatch, users, n, coding, model, composites):
        # chunks of one trial, and of two then one
        case = _link_case(users, n, coding, model, 0, trials=3)
        monkeypatch.setattr(link_sim, "ZF_STACK_BYTES", composites * 16 * effective_dim(users, n) ** 2)
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


def _assert_same_realization(got, want):
    (gains, eff, pre, redraws), (want_gains, want_eff, want_pre, want_redraws) = got, want
    assert redraws == want_redraws
    assert (gains is None) == (want_gains is None)
    if gains is not None:
        assert np.array_equal(gains.alpha, want_gains.alpha) and np.array_equal(gains.beta, want_gains.beta)
    assert np.array_equal(eff.diagonals, want_eff.diagonals)
    assert list(pre.precoders) == list(want_pre.precoders)
    for user, mat in want_pre.precoders.items():
        assert np.array_equal(pre.precoders[user], mat)


class TestDrawRealization:
    @pytest.mark.parametrize("users,n,coding,model,seed", STACK_CASES)
    def test_same_draws_as_the_per_trial_loop(self, users, n, coding, model, seed):
        ch, coding, link = _link_case(users, n, coding, model, seed, trials=2 if users == 4 else 3)
        for trial in range(link.trials):
            _assert_same_realization(
                draw_realization(ch, coding, link.seed, trial),
                oracles.parent_draw_realization(ch, coding, link.seed, trial),
            )

    def test_same_natural_redraws_as_the_per_trial_loop(self):
        # the double-coding draw of figure1 --n 60 --channel iid --trials 4
        # --seed 0 (D = 121), whose precoder norms overflow on some draws
        spec = cli.parse_args(["--experiment", "figure1", "--n", "60", "--channel", "iid",
                               "--trials", "4", "--seed", "0"])
        ch = cli._channels(spec, "double")
        seed = subseed(spec.seed, extension_core._STREAMS["link"], cli.FIGURE1_CODINGS.index("double"))
        redrawn = 0
        for trial in range(spec.trials):
            got = draw_realization(ch, "double", seed, trial)
            _assert_same_realization(got, oracles.parent_draw_realization(ch, "double", seed, trial))
            redrawn += got[3] > 0
        assert redrawn == 2
        link = LinkConfig(snr_points_db=spec.snr_db, trials=spec.trials, seed=seed)
        assert simulate_link(ch, "double", link) == oracles.per_trial_simulate_link(ch, "double", link)


def _poison_precoders(monkeypatch, case, trial, attempts):
    """Make the precoder build degenerate on the given gain draws of ``trial``.

    The stacked cascade step flags any trial of a stack that holds one of
    those draws' effective diagonals, on the stacked path and on the
    per-trial path alike, so the oracle redraws (or gives up on) exactly
    those draws. Returns the size of every stack the step is called on.
    """
    ch, coding, link = case
    seeds = [subseed(link.seed, extension_core._STREAMS["gains"], trial, attempt) for attempt in attempts]
    poisoned = {
        build_effective(ch, generate_gains(ch.users, ch.slots, seed), coding).diagonals.tobytes()
        for seed in seeds
    }
    real = cj_precoder._stacked_cascades
    stacks = []

    def cascades(diagonals):
        stacks.append(len(diagonals))
        matrices, kappa, degenerate = real(diagonals)
        forced = ["forced" if d.tobytes() in poisoned else m for d, m in zip(diagonals, degenerate)]
        return matrices, kappa, forced

    monkeypatch.setattr(cj_precoder, "_stacked_cascades", cascades)
    return stacks


def _cancel_first_draw(monkeypatch, case, trial):
    """Make the first gain draw of ``trial`` a plan whose pairs all cancel.

    The plan is ``TestResampling._cancelling_plan``, on a constant channel.
    It replaces that seed's draw in the redraw loop and in
    ``generate_gains`` alike, so the oracle redraws exactly that draw.
    """
    ch, coding, link = case
    first = subseed(link.seed, extension_core._STREAMS["gains"], trial, 0)
    plan = TestResampling._cancelling_plan(ch.users, ch.slots)
    real = extension_core._draw_gains

    def draw(users, slots, seed):
        return (plan.alpha.copy(), plan.beta.copy()) if seed == first else real(users, slots, seed)

    for module in (extension_core, link_sim):
        monkeypatch.setattr(module, "_draw_gains", draw)


def _count_draw_realization(monkeypatch):
    """Record the arguments of every ``draw_realization`` call made through ``link_sim``."""
    calls = []
    real = link_sim.draw_realization
    monkeypatch.setattr(link_sim, "draw_realization", lambda *a: calls.append(a) or real(*a))
    return calls


class TestDegenerateTrialInAStack:
    @pytest.mark.parametrize("composites, trial", [(18, 3), (3, 4)])
    def test_cancelled_pair_redrawn_within_the_stack(self, monkeypatch, composites, trial):
        case = _link_case(3, 10, "double", "constant", 1, trials=7)
        clean = simulate_link(*case)
        monkeypatch.setattr(link_sim, "ZF_STACK_BYTES", composites * 16 * effective_dim(3, 10) ** 2)
        _cancel_first_draw(monkeypatch, case, trial)
        draws = _count_draw_realization(monkeypatch)
        got = simulate_link(*case)
        # only the flagged trial is drawn again, inside its chunk
        assert draws == []
        assert got == oracles.per_trial_simulate_link(*case)
        assert got.failures == clean.failures + 1
        assert got != clean

    @pytest.mark.parametrize(
        "composites, trial, built",
        [
            # one chunk: all 7 trials, then all 7 again with trial 3 at attempt 1
            (18, 3, [7, 7]),
            # chunks of 3, 3 and 1: the second is drawn twice, trial 4 at attempt 1
            (3, 4, [3, 3, 3, 1]),
            # chunks of one: trial 4's chunk is drawn twice
            (1, 4, [1] * 8),
        ],
        ids=["18-3", "3-4", "1-4"],
    )
    def test_redrawn_as_the_per_trial_loop_redraws(self, monkeypatch, composites, trial, built):
        case = _link_case(3, 10, "double", "iid", 1, trials=7)
        clean = simulate_link(*case)
        assert clean.failures == 0
        monkeypatch.setattr(link_sim, "ZF_STACK_BYTES", composites * 16 * effective_dim(3, 10) ** 2)
        stacks = _poison_precoders(monkeypatch, case, trial, attempts=(0,))
        draws = _count_draw_realization(monkeypatch)
        got = simulate_link(*case)
        # the degenerate trial is redrawn inside its chunk, never trial by trial
        assert stacks == built
        assert draws == []
        assert got == oracles.per_trial_simulate_link(*case)
        assert got.failures == clean.failures + 1
        assert got != clean

    def test_each_trial_is_drawn_at_its_own_attempt(self, monkeypatch):
        # trial 1 degenerates at attempts 0 and 1, trial 4 at attempt 0: the
        # third pass draws trial 1 at attempt 2, trial 4 at 1 and the rest at 0
        ch, coding, link = case = _link_case(3, 10, "double", "iid", 1, trials=7)
        _poison_precoders(monkeypatch, case, 1, attempts=(0, 1))
        stacks = _poison_precoders(monkeypatch, case, 4, attempts=(0,))
        eff, pre, redraws = link_sim._draw(
            ch, coding, link.seed, range(7), lambda s: cj_precoder._stacked_precoders(s.diagonals)
        )
        assert redraws == 3
        assert stacks == [7, 7, 7]
        wants = [oracles.parent_draw_realization(ch, coding, link.seed, t) for t in range(7)]
        assert [want[3] for want in wants] == [0, 2, 0, 0, 1, 0, 0]
        for t, (want_gains, want_eff, want_pre, _) in enumerate(wants):
            assert np.array_equal(eff.gains.alpha[t], want_gains.alpha)
            assert np.array_equal(eff.gains.beta[t], want_gains.beta)
            assert np.array_equal(eff.diagonals[t], want_eff.diagonals)
            for user, mat in want_pre.precoders.items():
                assert np.array_equal(pre.precoders[user][t], mat)

    def test_gives_up_as_the_per_trial_loop_gives_up(self, monkeypatch):
        # trial 2's precoders and trial 5's effective channels degenerate on
        # every draw: a trial-at-a-time run gives up on trial 2 first, and so
        # does the chunk, in which both stay pending to the last attempt
        ch, coding, link = case = _link_case(3, 10, "double", "iid", 1, trials=7)
        attempts = range(link_sim.MAX_RESAMPLES + 1)
        _poison_precoders(monkeypatch, case, 2, attempts)
        poisoned = {
            generate_gains(ch.users, ch.slots, subseed(link.seed, extension_core._STREAMS["gains"], 5, a)).alpha.tobytes()
            for a in attempts
        }
        real_fold = extension_core._fold_diagonals

        def fold_or_cancel(entries, alpha, beta, coding):
            diagonals, cancelled = real_fold(entries, alpha, beta, coding)
            flat = alpha.reshape(-1, *alpha.shape[-2:])
            forced = np.array([a.tobytes() in poisoned for a in flat]).reshape(alpha.shape[:-2])
            return diagonals, cancelled | forced[..., None, None]

        for module in (extension_core, link_sim):
            monkeypatch.setattr(module, "_fold_diagonals", fold_or_cancel)
        with pytest.raises(SimulationError) as want:
            oracles.per_trial_simulate_link(*case)
        draws = _count_draw_realization(monkeypatch)
        with pytest.raises(SimulationError) as got:
            simulate_link(*case)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("trial 2: gave up after")
        assert draws == []

    def test_plain_precoders_that_degenerate_raise(self):
        # plain coding has nothing to redraw: K=3, n=60 on this channel
        # overflows the column norms (test_norm_overflow_raises)
        ch = generate_channels(3, 121, "iid", 2)
        with pytest.raises(DegenerateRealizationError, match="norms for user 1 overflowed"):
            simulate_link(ch, "plain", LinkConfig(snr_points_db=(10.0,), trials=2))

    def test_raises_the_parameter_error_of_the_earliest_attempt(self, monkeypatch):
        # trial 0 cancels at attempt 0 and its attempt 1 has a zero alpha;
        # trial 2's attempt 0 has a zero beta. A trial-at-a-time loop raises
        # trial 0's error, the chunk the error of its first attempt.
        ch, coding, link = case = _link_case(3, 10, "double", "constant", 1, trials=3)
        seeds = {subseed(link.seed, extension_core._STREAMS["gains"], t, a): (t, a) for t in (0, 2) for a in (0, 1)}
        plan = TestResampling._cancelling_plan(ch.users, ch.slots)
        real = extension_core._draw_gains

        def draw(users, slots, seed):
            alpha, beta = real(users, slots, seed)
            spoil = seeds.get(seed)
            if spoil == (0, 0):
                return plan.alpha.copy(), plan.beta.copy()
            if spoil == (0, 1):
                alpha[0, 0] = 0
            if spoil == (2, 0):
                beta[0, 0] = 0
            return alpha, beta

        for module in (extension_core, link_sim):
            monkeypatch.setattr(module, "_draw_gains", draw)
        with pytest.raises(ParameterError, match="alpha must be nonzero"):
            oracles.per_trial_simulate_link(*case)
        with pytest.raises(ParameterError, match="beta must be nonzero"):
            simulate_link(*case)


class TestChunkDraw:
    def test_folds_once_per_chunk_without_an_effective_channel(self, monkeypatch):
        # the sweep_k3 benchmark op: D = 21, so 50 trials are 3 chunks per coding
        folds, built = [], []
        real_fold = extension_core._fold_diagonals
        real_init = extension_core.EffectiveChannel.__post_init__

        def fold(entries, alpha, beta, coding):
            folds.append(len(alpha))
            return real_fold(entries, alpha, beta, coding)

        for module in (extension_core, link_sim):
            monkeypatch.setattr(module, "_fold_diagonals", fold)
        monkeypatch.setattr(
            extension_core.EffectiveChannel, "__post_init__", lambda eff: built.append(eff) or real_init(eff)
        )
        link = LinkConfig(snr_points_db=(10.0, 20.0, 30.0, 40.0, 50.0, 60.0), trials=50, seed=7)
        for coding in ("naive", "double"):
            ch = generate_channels(3, slot_fold(coding) * effective_dim(3, 10), "constant", 1)
            assert simulate_link(ch, coding, link).failures == 0
        assert built == []
        assert folds == [18, 18, 14] * 2
