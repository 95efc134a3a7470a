import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symextia.extension_core as extension_core
import symextia.link_sim as link_sim
from oracles import parent_build_effective, parent_complex_normal, parent_fold_diagonals, parent_generate_channels
from symextia import (
    CapacityError,
    ChannelSet,
    DegenerateRealizationError,
    EffectiveChannel,
    GainPlan,
    LinkConfig,
    ParameterError,
    PrecoderSet,
    build_cascades,
    build_effective,
    build_precoders,
    cascade_order,
    check_alignment,
    closed_form_dof,
    distinctness_audit,
    draw_realization,
    effective_dim,
    enumerate_tuples,
    exponent_cap,
    generate_channels,
    generate_gains,
    run_symbol_chain,
    subseed,
)
from symextia.extension_core import CHANNEL_MODELS, CODING_MODES, MIN_DRAW_MAGNITUDE, slot_fold
from symextia.link_sim import draw_until_built


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

    def test_refuses_an_unknown_model_before_the_draw(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew channels for an unknown model")

        monkeypatch.setattr(extension_core, "_sample_unit_complex", refuse)
        with pytest.raises(ParameterError, match="unknown channel model 'bogus'"):
            generate_channels(3, 2 * 10**6, "bogus", 0)
        with pytest.raises(ParameterError, match=r"unknown channel model \['iid'\]"):
            generate_channels(3, 4, ["iid"], 0)
        # the size, seed and budget checks still come first
        with pytest.raises(ParameterError, match="seed"):
            generate_channels(3, 10, "bogus", -1)
        with pytest.raises(CapacityError):
            generate_channels(5, 2 * (83**11 + 82**11), "bogus", 0)


class TestModelTable:
    def test_models_keep_their_names_and_order(self):
        assert CHANNEL_MODELS == ("constant", "slow_changing", "iid")
        assert CHANNEL_MODELS == tuple(extension_core._MODEL_BLOCKS)

    @pytest.mark.parametrize("model", CHANNEL_MODELS)
    @pytest.mark.parametrize("users", [3, 4, 5])
    @pytest.mark.parametrize("slots", [2, 4, 10, 42, 550])
    def test_draws_match_the_parent_ladder(self, model, users, slots):
        for seed in (0, 1, 7, 2**63 + 5):
            want = parent_generate_channels(users, slots, model, seed).tobytes()
            assert generate_channels(users, slots, model, seed).entries.tobytes() == want
        got = generate_channels(np.int64(users), np.int16(slots), model, np.uint64(2**63 + 5))
        assert got.entries.tobytes() == want

    def test_odd_slow_changing_slot_count_refused_before_the_draw(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew channels for a slot count the model cannot hold")

        monkeypatch.setattr(extension_core, "_sample_unit_complex", refuse)
        for slots in (3, 7, 2_000_001):
            with pytest.raises(ParameterError, match="slow_changing model requires a slot count divisible by 2"):
                generate_channels(3, slots, "slow_changing", 0)

    def test_odd_slow_changing_refusal_allocates_nothing(self):
        generate_channels(3, 4, "slow_changing", 0)  # warm up lazy imports before tracing
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError):
                generate_channels(3, 2_000_001, "slow_changing", 0)  # 288 MB once drawn
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestAllocationLeanDraw:
    """The draw and fold hold fewer arrays than the single expressions in ``oracles``, with their bits."""

    @pytest.mark.parametrize("users,slots", [(3, 2), (3, 42), (4, 550), (4, 2534)])
    def test_constant_channel_is_a_read_only_view_of_one_draw(self, users, slots):
        ch = generate_channels(users, slots, "constant", 7)
        assert ch.entries.tobytes() == parent_generate_channels(users, slots, "constant", 7).tobytes()
        assert ch.entries.strides[2] == 0 and not ch.entries.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ch.entries[0, 0, 0] = 1.0

    @pytest.mark.parametrize("shape", [1, 5, (3,), (4, 7), (2, 3, 5), (0,), (4, 4, 2534)])
    def test_complex_normal_matches_the_one_expression(self, shape):
        for seed in (0, 3, 2**40 + 1):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = extension_core._complex_normal(got_rng, shape)
            want = parent_complex_normal(want_rng, shape)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            # both consumed the same draws
            assert got_rng.standard_normal() == want_rng.standard_normal()

    # one trial and a stack of three; slow_changing needs the even slot count of double
    @pytest.mark.parametrize("model,coding,trials", [
        (model, coding, trials)
        for model in CHANNEL_MODELS
        for coding, trials in (("plain", None), ("naive", None), ("naive", 3), ("double", None), ("double", 3))
        if model != "slow_changing" or coding == "double"
    ])
    def test_fold_matches_the_single_product(self, model, coding, trials):
        users, dim = 4, effective_dim(4, 2)
        slots = slot_fold(coding) * dim
        ch = generate_channels(users, slots, model, 11)
        repeated = parent_generate_channels(users, slots, model, 11)
        alpha = beta = None
        if coding != "plain":
            plans = [generate_gains(users, slots, seed) for seed in range(trials or 1)]
            alpha, beta = (np.stack([getattr(g, name) for g in plans]) for name in ("alpha", "beta"))
            if trials is None:
                alpha, beta = alpha[0], beta[0]
        diagonals, _ = extension_core._fold_diagonals(ch.entries, alpha, beta, coding)
        want = parent_fold_diagonals(repeated, alpha, beta, coding)
        assert diagonals.shape == want.shape and diagonals.flags.c_contiguous and diagonals.flags.writeable
        assert np.array_equal(diagonals.view(np.uint64), want.view(np.uint64))


class TestChannelSetModels:
    """``ChannelSet`` built by hand, so every model's slot rule is checked on its own."""

    @staticmethod
    def _blocks(*values):
        """A 3-user tensor whose slot t is one fixed channel matrix times ``values[t]``."""
        base = generate_channels(3, 2, "constant", 4).entries[:, :, :1]
        return base * np.asarray(values, dtype=complex)

    def test_constant_with_one_changed_slot_refused(self):
        assert ChannelSet(self._blocks(1, 1, 1, 1), "constant").slots == 4
        with pytest.raises(ParameterError, match="constant model requires constant blocks of 4 slots"):
            ChannelSet(self._blocks(1, 1, 2, 1), "constant")

    def test_slow_changing_half_whose_slots_differ_refused(self):
        assert ChannelSet(self._blocks(1, 1, 2, 2), "slow_changing").slots == 4
        with pytest.raises(ParameterError, match="slow_changing model requires constant blocks of 2 slots"):
            ChannelSet(self._blocks(1, 1, 2, 3), "slow_changing")
        with pytest.raises(ParameterError, match="constant blocks"):
            ChannelSet(self._blocks(1, 2, 2, 2), "slow_changing")

    def test_odd_slow_changing_slot_count_refused(self):
        with pytest.raises(ParameterError, match="divisible by 2, got 5"):
            ChannelSet(self._blocks(1, 1, 1, 1, 1), "slow_changing")

    def test_any_finite_nonzero_iid_tensor_accepted(self):
        rng = np.random.default_rng(3)
        entries = rng.standard_normal((4, 4, 7)) + 1j * rng.uniform(1, 2, (4, 4, 7))
        assert ChannelSet(entries, "iid").slots == 7
        assert ChannelSet(self._blocks(1, 1, 1), "iid").slots == 3

    def test_unknown_model_refused(self):
        with pytest.raises(ParameterError, match="unknown channel model 'rayleigh'"):
            ChannelSet(self._blocks(1, 1), "rayleigh")
        with pytest.raises(ParameterError, match=r"unknown channel model \['iid'\]"):
            ChannelSet(self._blocks(1, 1), ["iid"])


def _refusal(entries, model):
    """The ``ParameterError`` message ``ChannelSet(entries, model)`` raises, or None if it accepts."""
    try:
        ChannelSet(entries, model)
    except ParameterError as err:
        return str(err)
    return None


class TestSlotBroadcastCheck:
    """A channel whose slot axis has stride 0 is checked through its one stored slot."""

    @staticmethod
    def _view(slots, spoiled=()):
        """A read-only 3-user view of one draw over ``slots`` slots, with ``((k, j), value)`` links replaced."""
        base = generate_channels(3, 2, "constant", 4).entries[:, :, 0].copy()
        for (k, j), value in spoiled:
            base[k - 1, j - 1] = value
        return np.broadcast_to(base[:, :, None], (3, 3, slots))

    @pytest.mark.parametrize("model", CHANNEL_MODELS)
    @pytest.mark.parametrize(
        "spoiled,message",
        [
            ((), None),
            ((((1, 2), np.nan),), "channel entries must be finite"),
            ((((3, 3), complex(1, np.inf)),), "channel entries must be finite"),
            ((((2, 1), -np.inf),), "channel entries must be finite"),
            ((((1, 1), 0),), "channel entries must be nonzero"),
            ((((3, 2), complex(-0.0, -0.0)),), "channel entries must be nonzero"),
            ((((1, 1), 0), ((2, 3), np.nan)), "channel entries must be finite"),
        ],
        ids=["clean", "nan", "inf_imag", "neg_inf", "zero", "signed_zero", "zero_and_nan"],
    )
    def test_refuses_what_the_dense_copy_refuses(self, model, spoiled, message):
        view = self._view(6, spoiled)
        assert view.strides[2] == 0
        assert _refusal(view, model) == _refusal(np.array(view), model) == message

    def test_the_model_and_sizes_are_still_checked_first(self):
        with pytest.raises(ParameterError, match="divisible by 2, got 5"):
            ChannelSet(self._view(5, [((1, 1), np.nan)]), "slow_changing")
        with pytest.raises(ParameterError, match="unknown channel model"):
            ChannelSet(self._view(4, [((1, 1), 0)]), "rayleigh")
        with pytest.raises(ParameterError, match="slots"):
            ChannelSet(self._view(1, [((1, 1), np.nan)]), "iid")

    def test_the_other_models_are_dense(self):
        # a constant draw's stride-0 view is pinned in TestAllocationLeanDraw
        for model in ("slow_changing", "iid"):
            entries = generate_channels(3, 8, model, 0).entries
            assert entries.flags.c_contiguous and entries.strides[2] == entries.itemsize

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(CHANNEL_MODELS),
        users=st.integers(3, 5),
        half=st.integers(1, 60),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_every_drawn_channel_passes_the_dense_check(self, model, users, half, seed):
        ch = generate_channels(users, 2 * half, model, seed)
        dense = np.array(ch.entries)
        assert dense.strides[2] != 0
        assert ChannelSet(dense, ch.model_tag).slots == ch.slots

    def test_the_check_of_a_long_view_holds_no_mask_over_its_slots(self):
        # K=3, T=10^6: masks over every slot would be 9 * 10^6 bytes each
        view = generate_channels(3, 10**6, "constant", 0).entries
        ChannelSet(view, "constant")  # warm up before tracing
        tracemalloc.start()
        try:
            ChannelSet(view, "constant")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10


class TestFiniteNonzeroRule:
    """``_check_finite_nonzero``: finiteness first, then no entry whose both parts are zero."""

    @pytest.mark.parametrize(
        "zero", [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), -0.0], ids=["-0+0j", "0-0j", "-0-0j", "-0"]
    )
    def test_signed_zeros_are_zero(self, zero):
        arr = np.array([1 + 1j, zero, 2j])
        with pytest.raises(ParameterError, match="^x must be nonzero$"):
            extension_core._check_finite_nonzero("x", arr)

    def test_a_nan_is_reported_before_a_zero(self):
        for arr in (np.array([0, np.nan]), np.array([complex(np.nan, 0), 0j]), np.array([[0j], [complex(0, np.inf)]])):
            with pytest.raises(ParameterError, match="^x must be finite$"):
                extension_core._check_finite_nonzero("x", arr)

    @settings(max_examples=200, deadline=None)
    @given(
        parts=st.lists(
            st.tuples(*[st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-320, np.nan, np.inf, -np.inf])] * 2),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_the_rule_through_masks(self, parts):
        arr = np.array([complex(re, im) for re, im in parts])
        want = (
            "x must be finite" if not np.all(np.isfinite(arr))
            else "x must be nonzero" if np.any(arr == 0)
            else None
        )
        try:
            extension_core._check_finite_nonzero("x", arr)
            got = None
        except ParameterError as err:
            got = str(err)
        assert got == want

    def test_dense_channels_and_gain_plans_keep_their_messages(self):
        entries = generate_channels(3, 4, "iid", 0).entries.copy()
        entries[2, 1, 3] = complex(0.0, -0.0)
        assert _refusal(entries, "iid") == "channel entries must be nonzero"
        entries[0, 0, 1] = np.nan
        assert _refusal(entries, "iid") == "channel entries must be finite"
        g = generate_gains(3, 4, 0)
        for name in ("alpha", "beta"):
            for value, message in ((complex(-0.0, 0.0), "nonzero"), (np.inf, "finite")):
                spoiled = getattr(g, name).copy()
                spoiled[1, 2] = value
                with pytest.raises(ParameterError, match=f"^{name} must be {message}$"):
                    GainPlan(**{"alpha": g.alpha, "beta": g.beta, name: spoiled})


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
        with pytest.raises(ParameterError, match="^(seed|key) must be an integer >= 0, got -"):
            subseed(*args)


def _double_channels():
    return generate_channels(3, 10, "constant", 1)  # K=3, n=2 under double coding


def _plain_channels():
    return generate_channels(3, 5, "iid", 1)  # K=3, n=2 under plain coding


def _double_effective():
    return build_effective(_double_channels(), generate_gains(3, 10, 1), "double")


# (argument named in the message, its minimum, a call passing the value there)
INTEGER_ENTRIES = {
    "subseed seed": ("seed", 0, lambda v: subseed(v, 1)),
    "subseed key": ("key", 0, lambda v: subseed(1, 0, v)),
    "generate_channels users": ("users", 3, lambda v: generate_channels(v, 10, "constant", 1)),
    "generate_channels slots": ("slots", 2, lambda v: generate_channels(3, v, "constant", 1)),
    "generate_channels seed": ("seed", 0, lambda v: generate_channels(3, 10, "constant", v)),
    "generate_gains users": ("users", 1, lambda v: generate_gains(v, 10, 1)),
    "generate_gains slots": ("slots", 1, lambda v: generate_gains(3, v, 1)),
    "generate_gains seed": ("seed", 0, lambda v: generate_gains(3, 10, v)),
    # a float trial once drew the trial it truncated to, bit for bit
    "draw_realization base_seed": ("base_seed", 0, lambda v: draw_realization(_double_channels(), "double", v)),
    "draw_realization trial": ("trial", 0, lambda v: draw_realization(_double_channels(), "double", 1, v)),
    "draw_realization plain base_seed": ("base_seed", 0, lambda v: draw_realization(_plain_channels(), "plain", v)),
    "draw_realization plain trial": ("trial", 0, lambda v: draw_realization(_plain_channels(), "plain", 1, v)),
    "draw_until_built base_seed": (
        "base_seed", 0, lambda v: draw_until_built(_double_channels(), "double", v, build_cascades)
    ),
    "draw_until_built trial": (
        "trial", 0, lambda v: draw_until_built(_double_channels(), "double", 1, build_cascades, v)
    ),
    "draw_until_built plain base_seed": (
        "base_seed", 0, lambda v: draw_until_built(_plain_channels(), "plain", v, build_cascades)
    ),
    "draw_until_built plain trial": (
        "trial", 0, lambda v: draw_until_built(_plain_channels(), "plain", 1, build_cascades, v)
    ),
    "run_symbol_chain seed": ("seed", 0, lambda v: run_symbol_chain(_double_channels(), "double", 1.0, v)),
    "run_symbol_chain blocks": ("blocks", 1, lambda v: run_symbol_chain(_double_channels(), "double", 1.0, 1, v)),
    "LinkConfig trials": ("trials", 1, lambda v: LinkConfig((10.0,), v)),
    "LinkConfig seed": ("seed", 0, lambda v: LinkConfig((10.0,), 1, v)),
    "cascade_order users": ("users", 3, cascade_order),
    "effective_dim users": ("users", 3, lambda v: effective_dim(v, 2)),
    "effective_dim n": ("n", 1, lambda v: effective_dim(3, v)),
    "enumerate_tuples users": ("users", 3, lambda v: enumerate_tuples(v, 1)),
    "enumerate_tuples cap": ("cap", 0, lambda v: enumerate_tuples(3, v)),
    "closed_form_dof users": ("users", 3, lambda v: closed_form_dof(v, 2, "single")),
    "closed_form_dof n": ("n", 1, lambda v: closed_form_dof(3, v, "single")),
    "EffectiveChannel.tx_gains user": ("user label", 1, lambda v: _double_effective().tx_gains(v)),
    "EffectiveChannel.rx_gains user": ("user label", 1, lambda v: _double_effective().rx_gains(v)),
    "EffectiveChannel.diagonal receiver": ("user label", 1, lambda v: _double_effective().diagonal(v, 1)),
    "EffectiveChannel.diagonal transmitter": ("user label", 1, lambda v: _double_effective().diagonal(1, v)),
    "PrecoderSet.composite receiver": (
        "user label", 1, lambda v: build_precoders(_double_effective()).composite(_double_effective().diagonals[0], v)
    ),
}


class TestIntegerRule:
    """Every seed, key and count is a non-bool integer at or above its minimum, checked by one rule."""

    @pytest.mark.parametrize("entry", INTEGER_ENTRIES)
    @pytest.mark.parametrize("value", ["1.5", "True", "minimum - 1"])
    def test_every_entry_refuses_a_value_that_is_not_a_count(self, entry, value):
        name, minimum, call = INTEGER_ENTRIES[entry]
        bad = {"1.5": 1.5, "True": True, "minimum - 1": minimum - 1}[value]
        with pytest.raises(ParameterError, match=f"^{name} must be an integer >= {minimum}, got "):
            call(bad)

    def test_numpy_integers_are_counts(self):
        assert subseed(np.int64(5), np.int32(1)) == subseed(5, 1)
        assert LinkConfig((10.0,), np.int64(2), np.uint8(3)).trials == 2
        eff = _double_effective()
        assert np.array_equal(eff.tx_gains(np.int64(2)), eff.tx_gains(2))
        with pytest.raises(ParameterError, match="^user label 4 outside 1..3$"):
            eff.rx_gains(np.int64(4))

    def test_numpy_integer_sizes_are_exact(self):
        # numpy arithmetic on these would wrap around or lack int methods
        assert effective_dim(5, np.int64(82)) == effective_dim(5, 82) > 2**64
        assert type(effective_dim(5, np.int64(82))) is int
        assert closed_form_dof(5, np.int64(82), "double") == closed_form_dof(5, 82, "double") > 0
        assert closed_form_dof(np.int32(5), 82, "single") == closed_form_dof(5, 82, "single")
        assert cascade_order(np.int8(4)) == cascade_order(4) == 5
        assert exponent_cap(3, np.int64(5)) == exponent_cap(3, 5) == 2
        assert exponent_cap(np.int64(4), 1267) == exponent_cap(4, 1267) == 3
        assert np.array_equal(enumerate_tuples(np.int64(4), np.uint8(2)), enumerate_tuples(4, 2))
        got = generate_channels(np.int64(3), np.int16(10), "slow_changing", np.uint8(1))
        assert np.array_equal(got.entries, generate_channels(3, 10, "slow_changing", 1).entries)

    @pytest.mark.parametrize("dim", [5.0, 5.5, True])
    def test_exponent_cap_refuses_a_dim_that_is_not_an_integer(self, dim):
        with pytest.raises(ParameterError, match="^dim must be an integer, got "):
            exponent_cap(3, dim)

    def test_stream_ids_are_pinned(self):
        # every CSV byte depends on these values
        assert extension_core._STREAMS == {"gains": 0, "chain": 1, "channels": 2, "link": 3}


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
        # a tag that is not a string is unknown, not unhashable
        for call in (lambda: slot_fold(["double"]), lambda: build_effective(ch, generate_gains(3, 6, 0), ["double"])):
            with pytest.raises(ParameterError, match=r"^unknown coding mode \['double'\]$"):
                call()

    def test_plain_with_a_gain_plan_is_rejected(self):
        ch = generate_channels(3, 6, "iid", 0)
        g = generate_gains(3, 6, 1)
        with pytest.raises(ParameterError, match="plain coding takes no gain plan"):
            EffectiveChannel(ch, g, "plain")
        # build_effective drops the plan instead
        assert build_effective(ch, g, "plain").gains is None

    def test_coding_is_checked_once_per_build(self, monkeypatch):
        calls = []
        original = extension_core.slot_fold

        def counted(coding):
            calls.append(coding)
            return original(coding)

        monkeypatch.setattr(extension_core, "slot_fold", counted)
        ch = generate_channels(3, 10, "iid", 5)
        build_effective(ch, generate_gains(3, 10, 6), "double")
        assert calls == ["double"]

    def test_detects_paired_cancellation(self):
        ch = generate_channels(3, 6, "constant", 1)
        ones = np.ones((3, 6), dtype=complex)
        beta = np.concatenate([ones[:, :3], -ones[:, :3]], axis=1)
        cancelling = GainPlan(alpha=ones.copy(), beta=beta)
        with pytest.raises(DegenerateRealizationError):
            build_effective(ch, cancelling, "double")

    @pytest.mark.parametrize("coding", ["naive", "double"])
    def test_an_overflowed_product_is_not_finite_rather_than_cancelled(self, coding):
        ch = generate_channels(3, 6, "iid", 1)
        g = generate_gains(3, 6, 2)
        alpha, beta = g.alpha.copy(), g.beta.copy()
        alpha[0, 0], beta[0, 0] = 1e300, 1e10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="effective diagonals must be finite"):
                build_effective(ch, GainPlan(alpha=alpha, beta=beta), coding)

    def test_an_overflowed_mean_magnitude_is_not_a_cancellation(self):
        # each paired sum is 1.2e308, finite, but three of them overflow the mean
        ch = ChannelSet(entries=np.full((3, 3, 6), 6e307, dtype=complex), model_tag="constant")
        ones = np.ones((3, 6), dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="finite mean"):
                build_effective(ch, GainPlan(alpha=ones, beta=ones.copy()), "double")

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


class TestStackedTypes:
    """``GainPlan`` and ``EffectiveChannel`` hold a stack of trials as ``PrecoderSet`` does."""

    @staticmethod
    def _stacked_plan(plans):
        return GainPlan(np.stack([g.alpha for g in plans]), np.stack([g.beta for g in plans]))

    @staticmethod
    def _assert_each_trial_is_its_own(stack, ch, coding):
        for t in range(len(stack.diagonals)):
            plan = None if stack.gains is None else GainPlan(stack.gains.alpha[t], stack.gains.beta[t])
            own = build_effective(ch, plan, coding)
            pairs = [(stack.diagonals[t], own.diagonals)]
            for u in (1, 2, 3):
                pairs += [(stack.tx_gains(u)[t], own.tx_gains(u)), (stack.rx_gains(u)[t], own.rx_gains(u))]
                pairs += [(stack.diagonal(u, j)[t], own.diagonal(u, j)) for j in (1, 2, 3)]
            for got, want in pairs:
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("coding", CODING_MODES)
    def test_the_redraw_loops_stack_is_each_trials_own_channel(self, coding):
        ch = generate_channels(3, slot_fold(coding) * effective_dim(3, 2), "iid", 4)
        stack, built, redraws = link_sim._draw(
            ch, coding, 9, range(4), lambda eff: (len(eff.diagonals), [None] * len(eff.diagonals))
        )
        assert (built, redraws) == (4, 0)
        assert stack.diagonals.shape == (4, 3, 3, effective_dim(3, 2))
        self._assert_each_trial_is_its_own(stack, ch, coding)

    @pytest.mark.parametrize("coding", ["naive", "double"])
    def test_a_stacked_gain_plan_gives_each_trials_own_channel(self, coding):
        ch = generate_channels(3, slot_fold(coding) * effective_dim(3, 2), "iid", 4)
        plan = self._stacked_plan([generate_gains(3, ch.slots, seed) for seed in (1, 2, 3)])
        stack = EffectiveChannel(ch, plan, coding)
        for u in (1, 2, 3):
            assert stack.tx_gains(u).shape == stack.rx_gains(u).shape == (3, slot_fold(coding), effective_dim(3, 2))
        self._assert_each_trial_is_its_own(stack, ch, coding)

    def test_a_zero_in_one_trial_of_a_stacked_plan_is_rejected(self):
        plan = self._stacked_plan([generate_gains(3, 10, seed) for seed in (1, 2, 3)])
        for name in ("alpha", "beta"):
            spoiled = getattr(plan, name).copy()
            spoiled[1, 2, 3] = 0
            with pytest.raises(ParameterError, match=f"^{name} must be nonzero$"):
                GainPlan(**{"alpha": plan.alpha, "beta": plan.beta, name: spoiled})

    @pytest.mark.parametrize("trials", [1, 2])
    def test_code_that_takes_one_trial_refuses_a_stack(self, trials):
        ch = _double_channels()
        stack = EffectiveChannel(ch, self._stacked_plan([generate_gains(3, 10, s) for s in range(trials)]), "double")
        _, _, pre, _ = draw_realization(ch, "double", 0)
        symbols = {u: np.ones((d, 1)) for u, d in pre.stream_counts.items()}
        calls = (
            lambda: build_cascades(stack),
            lambda: build_precoders(stack),
            lambda: check_alignment(stack, pre),
            lambda: link_sim.transmit_blocks(pre, stack, 1.0, symbols),
            lambda: link_sim.combine_received(np.ones((10, 1)), stack, 1),
        )
        refusal = rf"^expected one trial's effective channel, got a stack of \({trials},\)$"
        for call in calls:
            with pytest.raises(ParameterError, match=refusal):
                call()
        one = stack._trial(0)
        pre_stack = PrecoderSet({u: np.stack([m] * trials) for u, m in pre.precoders.items()})
        calls = (
            lambda: check_alignment(one, pre_stack),
            lambda: link_sim.transmit_blocks(pre_stack, one, 1.0, symbols),
        )
        refusal = rf"^expected one trial's precoder set, got a stack of \({trials},\)$"
        for call in calls:
            with pytest.raises(ParameterError, match=refusal):
                call()

    def test_a_cancelled_pair_in_one_trial_of_a_stack_names_its_link(self):
        ch = _double_channels()
        g = generate_gains(3, 10, 1)
        ones = np.ones((3, 10), dtype=complex)
        cancelling = np.concatenate([ones[:, :5], -ones[:, 5:]], axis=1)
        plan = self._stacked_plan([g, GainPlan(ones, cancelling)])
        with pytest.raises(DegenerateRealizationError, match=r"cancelled on link \(1, 1\)"):
            EffectiveChannel(ch, plan, "double")


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
        for user in (1, 2, 3):
            for gains in (eff.tx_gains(user), eff.rx_gains(user)):
                assert gains.dtype == np.float64
                assert np.array_equal(gains, np.ones((1, 5)))


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestOneComplexEntry:
    """``ChannelSet`` and ``GainPlan`` store complex128, so every tap dtype takes the one complex path."""

    @staticmethod
    def _built(taps, gains, coding):
        ch = ChannelSet(taps, "iid")
        plan = None if coding == "plain" else GainPlan(gains, gains[::-1].copy())
        eff = build_effective(ch, plan, coding)
        cascades = build_cascades(eff)
        return eff, cascades, build_precoders(eff), distinctness_audit(cascades)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        coding=st.sampled_from(CODING_MODES),
        taps_dtype=st.sampled_from([np.int64, np.float64, np.complex64]),
        gains_dtype=st.sampled_from([np.int64, np.float64, np.complex64]),
    )
    def test_every_dtype_builds_the_bits_of_its_complex128_copy(self, seed, coding, taps_dtype, gains_dtype):
        # K=3, n=2: small integer taps and gains, which every dtype holds exactly
        rng = np.random.default_rng(seed)
        slots = slot_fold(coding) * effective_dim(3, 2)
        taps, gains = rng.integers(1, 9, size=(3, 3, slots)), rng.integers(1, 9, size=(3, slots))
        got = self._built(taps.astype(taps_dtype), gains.astype(gains_dtype), coding)
        want = self._built(taps.astype(np.complex128), gains.astype(np.complex128), coding)
        (eff, cascades, pre, audit), (want_eff, want_cascades, want_pre, want_audit) = got, want
        assert eff.channels.entries.dtype == np.complex128
        assert _same_bits(eff.diagonals, want_eff.diagonals)
        assert list(cascades.matrices) == list(want_cascades.matrices)
        for pair, mat in want_cascades.matrices.items():
            assert _same_bits(cascades.matrices[pair], mat)
        assert _same_bits(cascades.kappa, want_cascades.kappa)
        assert list(pre.precoders) == list(want_pre.precoders)
        for user, mat in want_pre.precoders.items():
            assert _same_bits(pre.precoders[user], mat)
        assert audit == want_audit

    def test_integer_taps_give_the_complex_cascades(self):
        # integer taps are stored as complex128, and the build names its
        # arithmetic, so they give the complex cascades; the residues mod
        # cj_precoder._PRIME, which only private code names, would read 349543
        taps = np.random.default_rng(1).integers(1, 9, size=(3, 3, effective_dim(3, 2)))
        eff = build_effective(ChannelSet(taps, "iid"), None, "plain")
        cascades = build_cascades(eff)
        assert cascades.matrices[(3, 2)].dtype == np.complex128
        assert cascades.matrices[(3, 2)][0] == pytest.approx(56 / 3)
        assert distinctness_audit(cascades).kappa_gap == pytest.approx(9 / 49)
        assert build_precoders(eff).precoders[1].dtype == np.complex128

    def test_naive_coding_of_integer_channels_and_gains_is_complex(self):
        ch = ChannelSet(np.arange(1, 9 * 5 + 1).reshape(3, 3, 5), "iid")
        plan = GainPlan(np.full((3, 5), 2), np.full((3, 5), 3))
        eff = build_effective(ch, plan, "naive")
        assert eff.diagonals.dtype == np.complex128
        assert np.array_equal(eff.diagonals, 6 * np.arange(1, 9 * 5 + 1).reshape(3, 3, 5))
        for user in (1, 2, 3):
            assert eff.tx_gains(user).dtype == eff.rx_gains(user).dtype == np.complex128

    def test_a_complex128_array_is_stored_as_itself(self):
        entries = generate_channels(3, 4, "iid", 0).entries
        assert ChannelSet(entries, "iid").entries is entries
        g = generate_gains(3, 4, 0)
        plan = GainPlan(g.alpha, g.beta)
        assert plan.alpha is g.alpha and plan.beta is g.beta

    def test_a_constant_channel_stays_a_read_only_slot_view(self):
        ch = generate_channels(3, 10, "constant", 0)
        assert ch.entries.dtype == np.complex128
        assert ch.entries.strides[2] == 0 and not ch.entries.flags.writeable
        assert ChannelSet(ch.entries, "constant").entries is ch.entries


def _fold_cases():
    for users, caps in ((3, (1, 2, 5)), (4, (1, 2))):
        for n in caps:
            for coding in ("plain", "naive", "double"):
                models = ("constant", "iid") + (("slow_changing",) if coding == "double" else ())
                for model in models:
                    yield users, n, coding, model


class TestFoldMatchesParent:
    @pytest.mark.parametrize("users,n,coding,model", list(_fold_cases()))
    def test_diagonals_are_bit_identical(self, users, n, coding, model):
        dim = effective_dim(users, n)
        slots = (2 if coding == "double" else 1) * dim
        ch = generate_channels(users, slots, model, 17 * n + users)
        g = generate_gains(users, slots, subseed(n, users))
        eff = build_effective(ch, g, coding)
        assert eff.diagonals.shape == (users, users, dim)
        assert np.array_equal(eff.diagonals, parent_build_effective(ch, g, coding))

    @pytest.mark.parametrize("coding", ["naive", "double"])
    def test_a_stack_folds_each_trial_as_alone(self, coding):
        # the middle plan cancels every pair of the constant channel
        dim = effective_dim(3, 2)
        slots = (2 if coding == "double" else 1) * dim
        ch = generate_channels(3, slots, "constant", 5)
        plans = [generate_gains(3, slots, seed) for seed in (1, 2)]
        ones = np.ones((3, slots), dtype=complex)
        plans.insert(1, GainPlan(alpha=ones, beta=np.concatenate([ones[:, :dim], -ones[:, dim:]], axis=1)))
        diagonals, cancelled = extension_core._fold_diagonals(
            ch.entries, np.stack([g.alpha for g in plans]), np.stack([g.beta for g in plans]), coding
        )
        assert diagonals.shape == (3, 3, 3, dim) and cancelled.shape == (3, 3, 3)
        assert cancelled.any(axis=(1, 2)).tolist() == [False, coding == "double", False]
        for trial in (0, 2):
            assert np.array_equal(diagonals[trial], build_effective(ch, plans[trial], coding).diagonals)
