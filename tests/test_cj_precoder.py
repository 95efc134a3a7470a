import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_exponent_tuples, loop_precoders, scalar_kappa, scalar_lambda_32
from symextia import (
    CapacityError,
    ChannelSet,
    DegenerateRealizationError,
    ParameterError,
    build_cascades,
    build_effective,
    build_precoders,
    cascade_pairs,
    closed_form_dof,
    draw_realization,
    enumerate_tuples,
    generate_channels,
    generate_gains,
    make_config,
    subseed,
)
import symextia.cj_precoder as cj_precoder


def _effective_from_scalars(values: dict[tuple[int, int], complex], dim: int = 4):
    """Plain effective channel whose (k, j) diagonal is a given constant."""
    entries = np.ones((3, 3, dim), dtype=complex)
    for (k, j), v in values.items():
        entries[k - 1, j - 1, :] = v
    ch = ChannelSet(entries=entries, model_tag="iid")
    return build_effective(ch, None, "plain")


class TestCascadePairs:
    def test_three_users(self):
        assert cascade_pairs(3) == [(3, 2)]

    def test_four_users_sorted_and_complete(self):
        pairs = cascade_pairs(4)
        assert pairs == [(2, 4), (3, 2), (3, 4), (4, 2), (4, 3)]
        assert len(pairs) == (4 - 1) * (4 - 2) - 1

    def test_counts_match_order_formula(self):
        for users in range(3, 8):
            assert len(cascade_pairs(users)) == (users - 1) * (users - 2) - 1

    def test_rejects_small_user_count(self):
        with pytest.raises(ParameterError):
            cascade_pairs(2)


class TestMakeConfig:
    def test_three_user_sizes(self):
        single = make_config(3, 2, "single")
        assert (single.cascade_order, single.effective_dim, single.extension_length) == (1, 5, 5)
        double = make_config(3, 2, "double")
        assert (double.effective_dim, double.extension_length) == (5, 10)

    def test_four_user_sizes(self):
        cfg = make_config(4, 1, "double")
        assert cfg.cascade_order == 5
        assert cfg.effective_dim == 2**5 + 1
        assert cfg.extension_length == 66

    def test_asymptotic_sizes_are_exact_integers(self):
        cfg = make_config(5, 82, "double")
        assert cfg.effective_dim == 83**11 + 82**11
        # magnitude sanity on the two addends and their sum
        assert abs(83**11 / 1.2878e21 - 1) < 1e-4
        assert abs(82**11 / 1.1271e21 - 1) < 1e-4
        assert abs(cfg.effective_dim / 2.4149e21 - 1) < 1e-4

    @pytest.mark.parametrize("users,n,layer", [(2, 1, "single"), (3, 0, "single"), (3, 1, "triple")])
    def test_rejects_bad_parameters(self, users, n, layer):
        with pytest.raises(ParameterError):
            make_config(users, n, layer)


class TestEnumerateTuples:
    def test_three_user_lexicographic(self):
        cfg = make_config(3, 2, "single")
        assert np.array_equal(enumerate_tuples(cfg, 2), [[0], [1], [2]])
        assert np.array_equal(enumerate_tuples(cfg, 1), [[0], [1]])

    def test_matches_brute_force_enumeration(self):
        cfg = make_config(4, 1, "double")
        pairs = cascade_pairs(4)
        got = enumerate_tuples(cfg, 1)
        want = [[t[p] for p in pairs] for t in brute_exponent_tuples(pairs, 1)]
        assert got.shape == (2**5, 5)
        # lexicographic over the sorted pair order
        assert want == sorted(want)
        assert np.array_equal(got, want)

    def test_rejects_foreign_cap(self):
        cfg = make_config(3, 2, "single")
        with pytest.raises(ParameterError):
            enumerate_tuples(cfg, 3)

    def test_guard_refuses_astronomical_enumerations(self):
        with pytest.raises(CapacityError):
            enumerate_tuples(make_config(5, 82, "double"), 82)
        # K=5, n=2: 3^11 = 177,147 tuples, but the precoders need about 531 GB
        cfg = make_config(5, 2, "single")
        assert 16 * cfg.effective_dim * (3**11 + 4 * 2**11) > 5e11
        with pytest.raises(CapacityError):
            enumerate_tuples(cfg, 2)
        # K=4, n=3: 1267 x 1753 precoder entries, about 34 MiB, stays buildable
        cfg = make_config(4, 3, "single")
        assert 16 * cfg.effective_dim * (4**5 + 3 * 3**5) < 35 * 2**20
        assert enumerate_tuples(cfg, 3).shape == (4**5, 5)


class TestBuildCascades:
    def test_worked_scalar_example(self):
        eff = _effective_from_scalars(
            {(2, 1): 2, (2, 3): 1, (1, 3): 3, (3, 1): 1, (3, 2): 2, (1, 2): 3, (1, 1): 1}
        )
        cascades = build_cascades(eff)
        assert np.allclose(cascades.matrices[(3, 2)], 4.0)
        assert np.allclose(cascades.kappa, 3.0)

    def test_naive_constant_collapses_to_scaled_identity(self):
        cfg = make_config(3, 2, "single")
        for seed in range(20):
            ch = generate_channels(3, cfg.extension_length, "constant", seed)
            g = generate_gains(3, cfg.extension_length, subseed(seed, 1))
            lam = build_cascades(build_effective(ch, g, "naive")).matrices[(3, 2)]
            spread = np.max(np.abs(lam - lam.mean())) / np.abs(lam.mean())
            assert spread <= 1e-12

    def test_double_matches_scalar_oracle(self):
        cfg = make_config(3, 2, "double")
        for seed in range(10):
            ch = generate_channels(3, cfg.extension_length, "constant", seed)
            g = generate_gains(3, cfg.extension_length, subseed(seed, 1))
            cascades = build_cascades(build_effective(ch, g, "double"))
            lam_oracle = scalar_lambda_32(ch, g)
            kap_oracle = scalar_kappa(ch, g)
            assert np.max(np.abs(cascades.matrices[(3, 2)] - lam_oracle) / np.abs(lam_oracle)) <= 1e-13
            assert np.max(np.abs(cascades.kappa - kap_oracle) / np.abs(kap_oracle)) <= 1e-13


class TestBuildPrecoders:
    def test_stream_counts_and_unit_columns(self):
        cfg = make_config(3, 2, "single")
        eff = build_effective(generate_channels(3, 5, "iid", 0), None, "plain")
        pre = build_precoders(eff, cfg)
        assert pre.stream_counts == {1: 3, 2: 2, 3: 2}
        assert sum(pre.stream_counts.values()) == cfg.effective_dim + 2
        for mat in pre.precoders.values():
            assert np.allclose(np.linalg.norm(mat, axis=0), 1.0)

    def test_columns_biject_with_exponent_tuples(self):
        for users, n in ((3, 2), (4, 1)):
            cfg = make_config(users, n, "single")
            eff = build_effective(
                generate_channels(users, cfg.extension_length, "iid", 1), None, "plain"
            )
            pre = build_precoders(eff, cfg)
            full = enumerate_tuples(cfg, n)
            short = enumerate_tuples(cfg, n - 1)
            assert pre.stream_counts[1] == len(full) == pre.precoders[1].shape[1]
            assert np.array_equal(pre.column_order[1], full)
            for user in range(2, users + 1):
                assert pre.stream_counts[user] == len(short)
                assert np.array_equal(pre.column_order[user], short)

    def test_user1_columns_are_cascade_powers(self):
        cfg = make_config(3, 2, "single")
        eff = build_effective(generate_channels(3, 5, "iid", 1), None, "plain")
        pre = build_precoders(eff, cfg)
        lam = build_cascades(eff).matrices[(3, 2)]
        for col, exponents in zip(pre.precoders[1].T, pre.column_order[1]):
            want = lam ** exponents[0]
            want = want / np.linalg.norm(want)
            assert np.allclose(col, want)

    def test_user3_prefix_and_cross_user_rescale(self):
        cfg = make_config(3, 2, "single")
        eff = build_effective(generate_channels(3, 5, "iid", 2), None, "plain")
        pre = build_precoders(eff, cfg)
        lam = build_cascades(eff).matrices[(3, 2)]
        prefix = eff.diagonal(2, 1) / eff.diagonal(2, 3)
        for col, exponents in zip(pre.precoders[3].T, pre.column_order[3]):
            want = prefix * lam ** exponents[0]
            want = want / np.linalg.norm(want)
            assert np.allclose(col, want)
        # H_12 V_2 spans the same columns as H_13 V_3
        left = eff.diagonal(1, 2)[:, None] * pre.precoders[2]
        right = eff.diagonal(1, 3)[:, None] * pre.precoders[3]
        coef = np.sum(right.conj() * left, axis=0) / np.sum(np.abs(right) ** 2, axis=0)
        assert np.linalg.norm(left - right * coef) <= 1e-12 * np.linalg.norm(left)

    def test_four_user_shapes(self):
        cfg = make_config(4, 1, "double")
        ch = generate_channels(4, cfg.extension_length, "constant", 0)
        g = generate_gains(4, cfg.extension_length, 1)
        pre = build_precoders(build_effective(ch, g, "double"), cfg)
        assert pre.stream_counts == {1: 32, 2: 1, 3: 1, 4: 1}
        assert all(mat.shape[0] == 33 for mat in pre.precoders.values())

    def test_rejects_mismatched_dimensions(self):
        cfg = make_config(3, 2, "single")
        eff = build_effective(generate_channels(3, 7, "iid", 0), None, "plain")
        with pytest.raises(ParameterError):
            build_precoders(eff, cfg)

    def test_peak_memory_stays_within_twice_the_output(self):
        # temporaries stay linear in D times the column count
        for n in (2, 3):
            cfg = make_config(4, n, "single")
            eff = build_effective(generate_channels(4, cfg.extension_length, "iid", 0), None, "plain")
            tracemalloc.start()
            try:
                pre = build_precoders(eff, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 16 * cfg.effective_dim * sum(pre.stream_counts.values())

    def test_byte_budget_is_checked_exactly(self, monkeypatch):
        cfg = make_config(3, 2, "single")
        eff = build_effective(generate_channels(3, 5, "iid", 0), None, "plain")
        needed = 16 * 5 * (3 + 2 * 2)
        monkeypatch.setattr(cj_precoder, "PRECODER_BYTE_BUDGET", needed - 1)
        with pytest.raises(CapacityError):
            build_precoders(eff, cfg)
        monkeypatch.setattr(cj_precoder, "PRECODER_BYTE_BUDGET", needed)
        assert sum(build_precoders(eff, cfg).stream_counts.values()) == 7

    def test_norm_overflow_raises(self):
        # at n=60 some squared column norms overflow to inf
        cfg = make_config(3, 60, "single")
        eff = build_effective(generate_channels(3, 121, "iid", 2), None, "plain")
        with pytest.raises(DegenerateRealizationError):
            build_precoders(eff, cfg)

    def test_matches_per_tuple_reference_bit_for_bit(self):
        for users, n in ((3, 1), (3, 2), (3, 5), (4, 1), (4, 2)):
            for coding, model in (("plain", "iid"), ("naive", "iid"), ("double", "constant")):
                cfg = make_config(users, n, "double" if coding == "double" else "single")
                ch = generate_channels(users, cfg.extension_length, model, subseed(n, 2))
                _, eff, pre, _ = draw_realization(ch, coding, cfg, subseed(n, 3))
                want = loop_precoders(eff, build_cascades(eff), n)
                assert list(pre.precoders) == list(want)
                for user, mat in want.items():
                    assert np.array_equal(pre.precoders[user], mat), (users, n, coding, user)


class TestClosedFormDof:
    def test_reference_values(self):
        assert closed_form_dof(3, 2, "single").fraction == Fraction(7, 5)
        assert closed_form_dof(3, 2, "double").fraction == Fraction(7, 10)
        assert round(closed_form_dof(5, 81, "double").value, 4) == 1.1995
        assert round(closed_form_dof(5, 82, "double").value, 4) == 1.2001

    def test_crossing_six_fifths_exactly(self):
        assert closed_form_dof(5, 81, "double").fraction < Fraction(6, 5)
        assert closed_form_dof(5, 82, "double").fraction > Fraction(6, 5)

    def test_double_is_half_of_single(self):
        for users in (3, 4, 5):
            for n in (1, 2, 7):
                single = closed_form_dof(users, n, "single").fraction
                double = closed_form_dof(users, n, "double").fraction
                assert double == single / 2

    def test_monotone_in_cap_and_bounded_by_limit(self):
        for users in (3, 4, 5):
            values = [closed_form_dof(users, n, "single").fraction for n in range(1, 31)]
            assert all(b > a for a, b in zip(values, values[1:]))
            assert all(v < Fraction(users, 2) for v in values)
            assert abs(closed_form_dof(users, 500, "single").value - users / 2) < 0.02 * users / 2

    def test_double_layer_approaches_quarter_limit(self):
        for users in (3, 4, 5):
            values = [closed_form_dof(users, n, "double").fraction for n in range(1, 101)]
            assert all(b > a for a, b in zip(values, values[1:]))
            assert all(v < Fraction(users, 4) for v in values)
        assert closed_form_dof(3, 100, "double").value == pytest.approx(0.75, abs=0.01)

    @settings(max_examples=40, deadline=None)
    @given(users=st.integers(min_value=3, max_value=6), n=st.integers(min_value=1, max_value=40))
    def test_matches_direct_fraction_formula(self, users, n):
        order = (users - 1) * (users - 2) - 1
        hi, lo = (n + 1) ** order, n**order
        want = Fraction(hi + (users - 1) * lo, hi + lo)
        assert closed_form_dof(users, n, "single").fraction == want
        assert closed_form_dof(users, n, "double").fraction == want / 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            closed_form_dof(3, 2, "quad")
        with pytest.raises(ParameterError):
            closed_form_dof(3, 0, "single")
