import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symextia.extension_core as extension_core
from symextia import (
    CapacityError,
    ChannelSet,
    DegenerateRealizationError,
    GainPlan,
    ParameterError,
    build_effective,
    generate_channels,
    generate_gains,
    subseed,
)
from symextia.extension_core import MIN_DRAW_MAGNITUDE


class TestGenerateChannels:
    def test_shapes_and_tag(self):
        ch = generate_channels(3, 10, "iid", 0)
        assert ch.entries.shape == (3, 3, 10)
        assert ch.users == 3 and ch.slots == 10 and ch.model_tag == "iid"
        assert ch.entries.dtype == np.complex128

    def test_constant_repeats_one_draw(self):
        ch = generate_channels(4, 6, "constant", 3)
        assert np.all(ch.entries == ch.entries[:, :, :1])

    def test_constant_base_independent_of_slot_count(self):
        a = generate_channels(3, 4, "constant", 9)
        b = generate_channels(3, 12, "constant", 9)
        assert np.array_equal(a.entries[:, :, 0], b.entries[:, :, 0])

    def test_slow_changing_two_constant_halves(self):
        ch = generate_channels(3, 8, "slow_changing", 5)
        first, second = ch.entries[:, :, :4], ch.entries[:, :, 4:]
        assert np.all(first == first[:, :, :1])
        assert np.all(second == second[:, :, :1])
        assert not np.array_equal(first[:, :, 0], second[:, :, 0])

    def test_iid_slots_differ(self):
        ch = generate_channels(3, 6, "iid", 1)
        assert not np.all(ch.entries == ch.entries[:, :, :1])

    def test_deterministic(self):
        a = generate_channels(3, 5, "iid", 123)
        b = generate_channels(3, 5, "iid", 123)
        assert np.array_equal(a.entries, b.entries)
        c = generate_channels(3, 5, "iid", 124)
        assert not np.array_equal(a.entries, c.entries)

    def test_magnitude_floor(self):
        for seed in range(30):
            ch = generate_channels(3, 40, "iid", seed)
            assert np.abs(ch.entries).min() >= MIN_DRAW_MAGNITUDE

    def test_byte_budget_is_checked_exactly(self, monkeypatch):
        needed = 16 * 3**2 * 5
        monkeypatch.setattr(extension_core, "BYTE_BUDGET", needed - 1)
        with pytest.raises(CapacityError, match="channels"):
            generate_channels(3, 5, "iid", 0)
        monkeypatch.setattr(extension_core, "BYTE_BUDGET", needed)
        assert generate_channels(3, 5, "iid", 0).slots == 5

    @pytest.mark.parametrize(
        "users,slots", [(5, 2 * (83**11 + 82**11)), (4, 2 * (41**5 + 40**5))], ids=["k5_n82", "k4_n40"]
    )
    def test_refuses_tensors_over_budget_before_allocating(self, users, slots):
        # verify --users 5 --n 82 and audit --users 4 --n 40: 10^24 and 1.1e11 bytes
        with pytest.raises(CapacityError):
            generate_channels(users, slots, "constant", 0)

    @pytest.mark.parametrize(
        "users,slots,model",
        [(2, 5, "iid"), (3, 1, "iid"), (3, 5, "rayleigh"), (3, 7, "slow_changing")],
    )
    def test_rejects_bad_parameters(self, users, slots, model):
        with pytest.raises(ParameterError):
            generate_channels(users, slots, model, 0)


class TestGenerateGains:
    def test_shapes_and_determinism(self):
        g = generate_gains(3, 10, 7)
        assert g.alpha.shape == (3, 10) and g.beta.shape == (3, 10)
        h = generate_gains(3, 10, 7)
        assert np.array_equal(g.alpha, h.alpha) and np.array_equal(g.beta, h.beta)

    def test_alpha_beta_distinct_streams(self):
        g = generate_gains(3, 10, 7)
        assert not np.array_equal(g.alpha, g.beta)

    def test_magnitude_floor(self):
        for seed in range(30):
            g = generate_gains(4, 25, seed)
            assert np.abs(g.alpha).min() >= MIN_DRAW_MAGNITUDE
            assert np.abs(g.beta).min() >= MIN_DRAW_MAGNITUDE

    def test_roughly_unit_variance(self):
        g = generate_gains(5, 4000, 11)
        assert np.mean(np.abs(g.alpha) ** 2) == pytest.approx(1.0, abs=0.05)
        assert np.mean(np.abs(g.beta) ** 2) == pytest.approx(1.0, abs=0.05)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            generate_gains(0, 5, 0)
        with pytest.raises(ParameterError):
            generate_gains(3, 0, 0)


class TestSubseed:
    def test_deterministic_and_key_sensitive(self):
        assert subseed(5, 1, 2) == subseed(5, 1, 2)
        distinct = {subseed(5), subseed(5, 0), subseed(5, 1), subseed(5, 0, 0), subseed(6)}
        assert len(distinct) == 5

    @pytest.mark.parametrize("args", [(-1,), (5, -1), (5, 0, -2)])
    def test_rejects_negative_seed_or_key(self, args):
        with pytest.raises(ParameterError, match="non-negative"):
            subseed(*args)


class TestBuildEffective:
    def test_plain_copies_entries(self):
        ch = generate_channels(3, 5, "iid", 2)
        eff = build_effective(ch, None, "plain")
        assert eff.dim == 5 and eff.coding_tag == "plain" and eff.gains is None
        assert np.array_equal(eff.diagonals, ch.entries)
        eff.diagonals[0, 0, 0] = 99.0  # copy, not a view
        assert ch.entries[0, 0, 0] != 99.0

    def test_naive_scales_every_slot(self):
        ch = generate_channels(3, 6, "iid", 3)
        g = generate_gains(3, 6, 4)
        eff = build_effective(ch, g, "naive")
        assert eff.dim == 6
        want = g.beta[1, 4] * ch.entries[1, 2, 4] * g.alpha[2, 4]
        assert eff.diagonal(2, 3)[4] == pytest.approx(want)

    def test_double_sums_paired_slots(self):
        ch = generate_channels(3, 10, "iid", 5)
        g = generate_gains(3, 10, 6)
        eff = build_effective(ch, g, "double")
        assert eff.dim == 5
        q = 2
        want = (
            g.beta[0, q] * ch.entries[0, 1, q] * g.alpha[1, q]
            + g.beta[0, 5 + q] * ch.entries[0, 1, 5 + q] * g.alpha[1, 5 + q]
        )
        assert eff.diagonal(1, 2)[q] == pytest.approx(want)

    @settings(max_examples=25, deadline=None)
    @given(
        users=st.integers(min_value=3, max_value=5),
        half=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_double_decomposes_into_naive_halves(self, users, half, seed):
        slots = 2 * half
        ch = generate_channels(users, slots, "iid", seed)
        g = generate_gains(users, slots, subseed(seed, 1))
        naive = build_effective(ch, g, "naive").diagonals
        double = build_effective(ch, g, "double").diagonals
        recombined = naive[:, :, :half] + naive[:, :, half:]
        assert np.max(np.abs(double - recombined)) <= 1e-14 * np.max(np.abs(double))

    def test_requires_gains_for_gain_modes(self):
        ch = generate_channels(3, 6, "iid", 0)
        for coding in ("naive", "double"):
            with pytest.raises(ParameterError):
                build_effective(ch, None, coding)

    def test_rejects_shape_mismatch_and_odd_double(self):
        ch = generate_channels(3, 6, "iid", 0)
        with pytest.raises(ParameterError):
            build_effective(ch, generate_gains(3, 5, 0), "naive")
        ch5 = generate_channels(3, 5, "iid", 0)
        with pytest.raises(ParameterError):
            build_effective(ch5, generate_gains(3, 5, 0), "double")
        with pytest.raises(ParameterError):
            build_effective(ch, generate_gains(3, 6, 0), "hamming")

    def test_detects_paired_cancellation(self):
        ch = generate_channels(3, 6, "constant", 1)
        ones = np.ones((3, 6), dtype=complex)
        beta = np.concatenate([ones[:, :3], -ones[:, :3]], axis=1)
        cancelling = GainPlan(alpha=ones.copy(), beta=beta)
        with pytest.raises(DegenerateRealizationError):
            build_effective(ch, cancelling, "double")

    def test_unit_gains_double_constant_channel(self):
        # with all-ones gains each paired sum is just h + h
        ch = generate_channels(3, 8, "constant", 4)
        ones = np.ones((3, 8), dtype=complex)
        g = GainPlan(alpha=ones.copy(), beta=ones.copy())
        eff = build_effective(ch, g, "double")
        assert np.allclose(eff.diagonals, 2.0 * ch.entries[:, :, :4])

    def test_naive_constant_channel_factorizes(self):
        ch = generate_channels(3, 6, "constant", 7)
        g = generate_gains(3, 6, 8)
        eff = build_effective(ch, g, "naive")
        # every effective entry is h_kj times the slot gain product, so the
        # ratio against beta*alpha recovers the same constant per link
        for k in range(3):
            for j in range(3):
                ratios = eff.diagonals[k, j] / (g.beta[k] * g.alpha[j])
                assert np.max(np.abs(ratios - ratios[0])) <= 1e-12 * abs(ratios[0])

    def test_paired_entries_ignore_other_slots(self):
        ch = generate_channels(3, 10, "iid", 12)
        g = generate_gains(3, 10, 13)
        eff = build_effective(ch, g, "double")
        perturbed_alpha = g.alpha.copy()
        perturbed_beta = g.beta.copy()
        # entry q=1 pairs slots 1 and 6; touching the others must not move it
        for slot in (0, 2, 3, 4, 5, 7, 8, 9):
            perturbed_alpha[:, slot] *= 3.7
            perturbed_beta[:, slot] += 1.5j
        other = GainPlan(alpha=perturbed_alpha, beta=perturbed_beta)
        eff_other = build_effective(ch, other, "double")
        assert np.array_equal(eff.diagonals[:, :, 1], eff_other.diagonals[:, :, 1])


class TestTypeValidation:
    def test_channel_set_rejects_zero_entry(self):
        ch = generate_channels(3, 4, "iid", 0)
        bad = ch.entries.copy()
        bad[0, 0, 0] = 0.0
        with pytest.raises(ParameterError):
            ChannelSet(entries=bad, model_tag="iid")

    def test_channel_set_rejects_mislabeled_model(self):
        ch = generate_channels(3, 4, "iid", 0)
        with pytest.raises(ParameterError):
            ChannelSet(entries=ch.entries, model_tag="constant")

    @pytest.mark.parametrize("shape", [(3, 3), (3, 4, 5), (3, 3, 4, 1)])
    def test_channel_set_rejects_non_square_tensor(self, shape):
        with pytest.raises(ParameterError):
            ChannelSet(entries=np.ones(shape, dtype=complex), model_tag="iid")

    def test_sizes_are_read_off_the_arrays(self):
        ch = ChannelSet(entries=np.ones((4, 4, 6), dtype=complex), model_tag="constant")
        assert (ch.users, ch.slots) == (4, 6)
        g = generate_gains(4, 6, 0)
        eff = build_effective(ch, g, "double")
        assert (eff.users, eff.fold, eff.dim) == (4, 2, 3)
        with pytest.raises(ParameterError):
            GainPlan(alpha=g.alpha, beta=g.beta[:, :5])

    def test_gain_plan_rejects_zero(self):
        g = generate_gains(3, 4, 0)
        bad = g.alpha.copy()
        bad[1, 1] = 0.0
        with pytest.raises(ParameterError):
            GainPlan(alpha=bad, beta=g.beta)

    def test_diagonal_label_bounds(self):
        eff = build_effective(generate_channels(3, 4, "iid", 0), None, "plain")
        with pytest.raises(ParameterError):
            eff.diagonal(0, 1)
        with pytest.raises(ParameterError):
            eff.diagonal(1, 4)
        for method in (eff.tx_gains, eff.rx_gains):
            with pytest.raises(ParameterError):
                method(4)


class TestSlotGains:
    @pytest.mark.parametrize("coding,fold", [("naive", 1), ("double", 2)])
    def test_raw_slot_p_dim_plus_q_feeds_entry_q(self, coding, fold):
        ch = generate_channels(3, 8, "iid", 1)
        g = generate_gains(3, 8, 2)
        eff = build_effective(ch, g, coding)
        dim = 8 // fold
        assert eff.fold == fold and eff.dim == dim
        for user in (1, 2, 3):
            tx, rx = eff.tx_gains(user), eff.rx_gains(user)
            assert tx.shape == rx.shape == (fold, dim)
            for p in range(fold):
                for q in range(dim):
                    assert tx[p, q] == g.alpha[user - 1, p * dim + q]
                    assert rx[p, q] == g.beta[user - 1, p * dim + q]

    def test_plain_gains_are_float_ones(self):
        eff = build_effective(generate_channels(3, 5, "iid", 0), None, "plain")
        for gains in (eff.tx_gains(2), eff.rx_gains(3)):
            assert gains.dtype == np.float64
            assert np.array_equal(gains, np.ones((1, 5)))
