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
    cascade_order,
    cascade_pairs,
    closed_form_dof,
    draw_realization,
    effective_dim,
    enumerate_tuples,
    exponent_cap,
    generate_channels,
    generate_gains,
    slot_fold,
    subseed,
)
import symextia.extension_core as extension_core


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


class TestSizes:
    def test_three_user_sizes(self):
        assert (cascade_order(3), effective_dim(3, 2)) == (1, 5)

    def test_four_user_sizes(self):
        assert cascade_order(4) == 5
        assert effective_dim(4, 1) == 2**5 + 1

    def test_asymptotic_sizes_are_exact_integers(self):
        dim = effective_dim(5, 82)
        assert dim == 83**11 + 82**11
        # magnitude sanity on the two addends and their sum
        assert abs(83**11 / 1.2878e21 - 1) < 1e-4
        assert abs(82**11 / 1.1271e21 - 1) < 1e-4
        assert abs(dim / 2.4149e21 - 1) < 1e-4
        assert exponent_cap(5, dim) == 82

    @pytest.mark.parametrize("users,n", [(2, 1), (3, 0)])
    def test_rejects_bad_parameters(self, users, n):
        with pytest.raises(ParameterError):
            effective_dim(users, n)

    @pytest.mark.parametrize("users", [3, 4, 5, 6])
    def test_exponent_cap_inverts_effective_dim(self, users):
        for n in range(1, 61):
            assert exponent_cap(users, effective_dim(users, n)) == n

    @pytest.mark.parametrize("users", [3, 4, 5, 6])
    def test_exponent_cap_rejects_every_other_dim(self, users):
        sizes = {effective_dim(users, n) for n in range(1, 2000)}  # every size up to 4001
        # every size is odd, so a single/double layer mix-up never lands on one
        assert all(dim % 2 for dim in sizes)
        near = {effective_dim(users, n) + step for n in range(1, 61) for step in (-2, -1, 1, 2)}
        for dim in sorted((set(range(-3, 3000)) | near) - sizes):
            with pytest.raises(ParameterError, match="no exponent cap"):
                exponent_cap(users, dim)


class TestEnumerateTuples:
    def test_three_user_lexicographic(self):
        assert np.array_equal(enumerate_tuples(3, 2), [[0], [1], [2]])
        assert np.array_equal(enumerate_tuples(3, 1), [[0], [1]])
        assert np.array_equal(enumerate_tuples(3, 0), [[0]])

    def test_matches_brute_force_enumeration(self):
        pairs = cascade_pairs(4)
        got = enumerate_tuples(4, 1)
        want = [[t[p] for p in pairs] for t in brute_exponent_tuples(pairs, 1)]
        assert got.shape == (2**5, 5)
        # lexicographic over the sorted pair order
        assert want == sorted(want)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("users,cap", [(2, 1), (3, -1)])
    def test_rejects_bad_parameters(self, users, cap):
        with pytest.raises(ParameterError):
            enumerate_tuples(users, cap)

    def test_guard_refuses_astronomical_enumerations(self):
        with pytest.raises(CapacityError):
            enumerate_tuples(5, 82)
        # K=4, cap 3: 4^5 tuples of 5 int64 entries
        assert enumerate_tuples(4, 3).shape == (4**5, 5)

    def test_guard_counts_its_own_bytes_exactly(self, monkeypatch):
        needed = 8 * 5 * 2**5  # K=4, cap 1
        monkeypatch.setattr(extension_core, "BYTE_BUDGET", needed - 1)
        with pytest.raises(CapacityError):
            enumerate_tuples(4, 1)
        monkeypatch.setattr(extension_core, "BYTE_BUDGET", needed)
        assert enumerate_tuples(4, 1).nbytes == needed


class TestBuildCascades:
    def test_worked_scalar_example(self):
        eff = _effective_from_scalars(
            {(2, 1): 2, (2, 3): 1, (1, 3): 3, (3, 1): 1, (3, 2): 2, (1, 2): 3, (1, 1): 1}
        )
        cascades = build_cascades(eff)
        assert np.allclose(cascades.matrices[(3, 2)], 4.0)
        assert np.allclose(cascades.kappa, 3.0)

    def test_naive_constant_collapses_to_scaled_identity(self):
        for seed in range(20):
            ch = generate_channels(3, 5, "constant", seed)
            g = generate_gains(3, 5, subseed(seed, 1))
            lam = build_cascades(build_effective(ch, g, "naive")).matrices[(3, 2)]
            spread = np.max(np.abs(lam - lam.mean())) / np.abs(lam.mean())
            assert spread <= 1e-12

    def test_double_matches_scalar_oracle(self):
        for seed in range(10):
            ch = generate_channels(3, 10, "constant", seed)
            g = generate_gains(3, 10, subseed(seed, 1))
            cascades = build_cascades(build_effective(ch, g, "double"))
            lam_oracle = scalar_lambda_32(ch, g)
            kap_oracle = scalar_kappa(ch, g)
            assert np.max(np.abs(cascades.matrices[(3, 2)] - lam_oracle) / np.abs(lam_oracle)) <= 1e-13
            assert np.max(np.abs(cascades.kappa - kap_oracle) / np.abs(kap_oracle)) <= 1e-13


class TestBuildPrecoders:
    def test_stream_counts_and_unit_columns(self):
        eff = build_effective(generate_channels(3, 5, "iid", 0), None, "plain")
        pre = build_precoders(eff)
        assert pre.stream_counts == {1: 3, 2: 2, 3: 2}
        assert sum(pre.stream_counts.values()) == effective_dim(3, 2) + 2
        for mat in pre.precoders.values():
            assert np.allclose(np.linalg.norm(mat, axis=0), 1.0)

    def test_columns_biject_with_exponent_tuples(self):
        for users, n in ((3, 2), (4, 1)):
            eff = build_effective(
                generate_channels(users, effective_dim(users, n), "iid", 1), None, "plain"
            )
            pre = build_precoders(eff)
            full = enumerate_tuples(users, n)
            short = enumerate_tuples(users, n - 1)
            assert pre.stream_counts[1] == len(full) == pre.precoders[1].shape[1]
            for user in range(2, users + 1):
                assert pre.stream_counts[user] == len(short) == pre.precoders[user].shape[1]

    def test_user1_columns_are_cascade_powers(self):
        eff = build_effective(generate_channels(3, 5, "iid", 1), None, "plain")
        pre = build_precoders(eff)
        lam = build_cascades(eff).matrices[(3, 2)]
        for col, exponents in zip(pre.precoders[1].T, enumerate_tuples(3, 2), strict=True):
            want = lam ** exponents[0]
            want = want / np.linalg.norm(want)
            assert np.allclose(col, want)

    def test_user3_prefix_and_cross_user_rescale(self):
        eff = build_effective(generate_channels(3, 5, "iid", 2), None, "plain")
        pre = build_precoders(eff)
        lam = build_cascades(eff).matrices[(3, 2)]
        prefix = eff.diagonal(2, 1) / eff.diagonal(2, 3)
        for col, exponents in zip(pre.precoders[3].T, enumerate_tuples(3, 1), strict=True):
            want = prefix * lam ** exponents[0]
            want = want / np.linalg.norm(want)
            assert np.allclose(col, want)
        # H_12 V_2 spans the same columns as H_13 V_3
        left = eff.diagonal(1, 2)[:, None] * pre.precoders[2]
        right = eff.diagonal(1, 3)[:, None] * pre.precoders[3]
        coef = np.sum(right.conj() * left, axis=0) / np.sum(np.abs(right) ** 2, axis=0)
        assert np.linalg.norm(left - right * coef) <= 1e-12 * np.linalg.norm(left)

    def test_four_user_shapes(self):
        ch = generate_channels(4, 66, "constant", 0)
        g = generate_gains(4, 66, 1)
        pre = build_precoders(build_effective(ch, g, "double"))
        assert pre.stream_counts == {1: 32, 2: 1, 3: 1, 4: 1}
        assert all(mat.shape[0] == 33 for mat in pre.precoders.values())

    @pytest.mark.parametrize(
        "users,slots,coding",
        [
            (3, 10, "plain"),  # double-length channels on one layer: D is even
            (3, 10, "naive"),
            (4, 66, "naive"),
            (4, 35, "plain"),  # odd, but between the sizes 33 and 275
        ],
    )
    def test_rejects_mismatched_dimensions(self, users, slots, coding):
        ch = generate_channels(users, slots, "iid", 0)
        gains = None if coding == "plain" else generate_gains(users, slots, 1)
        with pytest.raises(ParameterError, match="no exponent cap"):
            build_precoders(build_effective(ch, gains, coding))

    def test_peak_memory_stays_within_twice_the_output(self):
        # temporaries stay linear in D times the column count
        for n in (2, 3):
            dim = effective_dim(4, n)
            eff = build_effective(generate_channels(4, dim, "iid", 0), None, "plain")
            tracemalloc.start()
            try:
                pre = build_precoders(eff)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 16 * dim * sum(pre.stream_counts.values())

    @pytest.mark.parametrize(
        "users, n, columns",
        [
            (3, 2, 3 + 2 * 2),  # (n+1)^N + (K-1) n^N at N=1
            (4, 1, 2**5 + 3 * 1),  # N=5: the smallest size with more than one rescaled user
        ],
    )
    def test_byte_budget_is_checked_exactly(self, monkeypatch, users, n, columns):
        dim = effective_dim(users, n)
        eff = build_effective(generate_channels(users, dim, "iid", 0), None, "plain")
        needed = 16 * dim * columns
        monkeypatch.setattr(extension_core, "BYTE_BUDGET", needed - 1)
        with pytest.raises(CapacityError):
            build_precoders(eff)
        monkeypatch.setattr(extension_core, "BYTE_BUDGET", needed)
        assert sum(build_precoders(eff).stream_counts.values()) == columns

    def test_norm_overflow_raises(self):
        # at n=60 some squared column norms overflow to inf
        eff = build_effective(generate_channels(3, 121, "iid", 2), None, "plain")
        with pytest.raises(DegenerateRealizationError):
            build_precoders(eff)

    def test_matches_per_tuple_reference_bit_for_bit(self):
        for users, n in ((3, 1), (3, 2), (3, 5), (4, 1), (4, 2)):
            for coding, model in (("plain", "iid"), ("naive", "iid"), ("double", "constant")):
                slots = slot_fold(coding) * effective_dim(users, n)
                ch = generate_channels(users, slots, model, subseed(n, 2))
                _, eff, pre, _ = draw_realization(ch, coding, subseed(n, 3))
                want = loop_precoders(eff, build_cascades(eff), n)
                assert list(pre.precoders) == list(want)
                for user, mat in want.items():
                    assert np.array_equal(pre.precoders[user], mat), (users, n, coding, user)


class TestClosedFormDof:
    def test_reference_values(self):
        assert closed_form_dof(3, 2, "single") == Fraction(7, 5)
        assert closed_form_dof(3, 2, "double") == Fraction(7, 10)
        assert round(float(closed_form_dof(5, 81, "double")), 4) == 1.1995
        assert round(float(closed_form_dof(5, 82, "double")), 4) == 1.2001

    def test_crossing_six_fifths_exactly(self):
        assert closed_form_dof(5, 81, "double") < Fraction(6, 5)
        assert closed_form_dof(5, 82, "double") > Fraction(6, 5)

    def test_double_is_half_of_single(self):
        for users in (3, 4, 5):
            for n in (1, 2, 7):
                single = closed_form_dof(users, n, "single")
                double = closed_form_dof(users, n, "double")
                assert double == single / 2

    def test_monotone_in_cap_and_bounded_by_limit(self):
        for users in (3, 4, 5):
            values = [closed_form_dof(users, n, "single") for n in range(1, 31)]
            assert all(b > a for a, b in zip(values, values[1:]))
            assert all(v < Fraction(users, 2) for v in values)
            assert abs(float(closed_form_dof(users, 500, "single")) - users / 2) < 0.02 * users / 2

    def test_double_layer_approaches_quarter_limit(self):
        for users in (3, 4, 5):
            values = [closed_form_dof(users, n, "double") for n in range(1, 101)]
            assert all(b > a for a, b in zip(values, values[1:]))
            assert all(v < Fraction(users, 4) for v in values)
        assert float(closed_form_dof(3, 100, "double")) == pytest.approx(0.75, abs=0.01)

    @settings(max_examples=40, deadline=None)
    @given(users=st.integers(min_value=3, max_value=6), n=st.integers(min_value=1, max_value=40))
    def test_matches_direct_fraction_formula(self, users, n):
        order = (users - 1) * (users - 2) - 1
        hi, lo = (n + 1) ** order, n**order
        want = Fraction(hi + (users - 1) * lo, hi + lo)
        assert closed_form_dof(users, n, "single") == want
        assert closed_form_dof(users, n, "double") == want / 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            closed_form_dof(3, 2, "quad")
        with pytest.raises(ParameterError):
            closed_form_dof(3, 0, "single")
