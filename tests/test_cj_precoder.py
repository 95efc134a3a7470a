import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_exponent_tuples,
    exponent_columns,
    loop_precoders,
    modp_columns,
    modp_received_blocks,
    scalar_kappa,
    scalar_lambda_32,
)
from symextia import (
    CapacityError,
    ChannelSet,
    DegenerateRealizationError,
    ParameterError,
    PrecoderSet,
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
import symextia.cj_precoder as cj_precoder
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

    def test_exponent_cap_names_an_unprintable_dim_by_its_bit_length(self, int_digit_limit):
        with pytest.raises(ParameterError, match="<15252-bit number>"):
            exponent_cap(125, effective_dim(125, 1) + 1)


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

    def test_guard_names_an_unprintable_count_by_its_bit_length(self, int_digit_limit):
        # 2^15251 tuples: more digits than the interpreter converts to text
        with pytest.raises(CapacityError, match="<15252-bit number> exponent tuples"):
            enumerate_tuples(125, 1)

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

    def test_stack_flags_each_degenerate_trial_with_its_own_message(self):
        # K=3, n=60 plain iid (D=121): seed 0 builds, seed 2's column norms
        # overflow (test_norm_overflow_raises); two copies of seed 0 spoil a
        # cascade quotient and kappa. Tier-1 turns any RuntimeWarning the
        # spoiled trials would raise into an error.
        entries = generate_channels(3, 121, "iid", 0).entries
        cascade, kappa = entries.copy(), entries.copy()
        cascade[1, 0] *= 1e200  # H_21 H_13 overflows
        cascade[0, 2] *= 1e200
        kappa[0, 0] = 1e-320  # H_11^-1 H_12 overflows
        stack = (entries, cascade, generate_channels(3, 121, "iid", 2).entries, kappa)
        effs = [build_effective(ChannelSet(e, "iid"), None, "plain") for e in stack]
        diagonals = np.stack([eff.diagonals for eff in effs])
        pre, degenerate = cj_precoder._stacked_precoders(diagonals)
        *_, cascades_degenerate = cj_precoder._stacked_cascades(diagonals, cj_precoder._COMPLEX)
        assert degenerate == [
            None,
            "cascade (3, 2) left the representable range",
            "precoder column norms for user 1 overflowed",
            "kappa left the representable range",
        ]
        assert cascades_degenerate == [None, degenerate[1], None, degenerate[3]]
        for user, mat in build_precoders(effs[0]).precoders.items():
            assert np.array_equal(pre.precoders[user][0], mat)
        for eff, message, cascade_message in zip(effs, degenerate, cascades_degenerate):
            for build, want in ((build_precoders, message), (build_cascades, cascade_message)):
                if want is None:
                    build(eff)
                    continue
                with pytest.raises(DegenerateRealizationError) as alone:
                    build(eff)
                assert str(alone.value) == want

    def test_matches_per_tuple_reference_bit_for_bit(self):
        every = (("plain", "iid"), ("naive", "iid"), ("double", "constant"))
        # the cap n - 1 columns are a sub-grid of the cap n ones: a long
        # exponent axis (4, 3) and many short ones (5, 1) cover its slicing
        cases = [(users, n, every) for users, n in ((3, 1), (3, 2), (3, 5), (4, 1), (4, 2))]
        cases += [(4, 3, every[2:]), (5, 1, every[2:])]
        for users, n, codings in cases:
            for coding, model in codings:
                slots = slot_fold(coding) * effective_dim(users, n)
                ch = generate_channels(users, slots, model, subseed(n, 2))
                _, eff, pre, _ = draw_realization(ch, coding, subseed(n, 3))
                want = loop_precoders(eff, build_cascades(eff), n)
                assert list(pre.precoders) == list(want)
                for user, mat in want.items():
                    assert np.array_equal(pre.precoders[user], mat), (users, n, coding, user)

    def test_stacked_slices_match_per_tuple_reference(self):
        # every slice of a stacked build has the bits of its trial built alone
        for users, n in ((3, 2), (3, 10), (4, 1)):
            for coding, model in (("naive", "iid"), ("double", "constant")):
                slots = slot_fold(coding) * effective_dim(users, n)
                ch = generate_channels(users, slots, model, subseed(n, 4))
                effs = [draw_realization(ch, coding, subseed(n, 5), trial)[1] for trial in range(4)]
                stack, degenerate = cj_precoder._stacked_precoders(np.stack([eff.diagonals for eff in effs]))
                assert degenerate == [None] * 4
                for trial, eff in enumerate(effs):
                    want = loop_precoders(eff, build_cascades(eff), n)
                    assert list(stack.precoders) == list(want)
                    for user, mat in want.items():
                        assert np.array_equal(stack.precoders[user][trial], mat), (users, n, coding, trial)


class TestModPrimeBuild:
    """The construction over residues mod ``_PRIME``, from the same code as the float build."""

    @pytest.mark.parametrize("users, n", [(3, 1), (3, 2), (4, 1)])
    def test_columns_and_blocks_equal_a_python_int_reference(self, users, n):
        p = cj_precoder._PRIME
        rng = np.random.default_rng(subseed(users, n))
        diagonals = rng.integers(1, p, size=(2, users, users, effective_dim(users, n)))
        columns, degenerate = cj_precoder._stacked_columns(diagonals, n, cj_precoder._RESIDUES)
        want = modp_columns(diagonals, n, p)
        # nonzero residues have nonzero products mod a prime: nothing degenerates
        assert degenerate == [None, None]
        assert list(columns) == list(want)
        for user, mat in want.items():
            assert columns[user].dtype == np.int64
            assert np.array_equal(columns[user], mat), (users, n, user)
        # a residue set is private: the public constructor stores complex128
        pre = extension_core._unchecked(cj_precoder.PrecoderSet, precoders=columns, arithmetic=cj_precoder._RESIDUES)
        for k in range(1, users + 1):
            blocks = pre.received_blocks(diagonals[:, k - 1])
            want_blocks = modp_received_blocks(diagonals[:, k - 1], want, p)
            assert list(blocks) == list(want_blocks)
            for j, block in want_blocks.items():
                assert np.array_equal(blocks[j], block), (users, n, k, j)
            # the stacked composite holds the desired block, then the basis user's
            composite = pre.composite(diagonals[:, k - 1], k)
            assert composite.dtype == np.int64
            want_composite = np.concatenate([want_blocks[k], want_blocks[pre.basis_user(k)]], axis=-1)
            assert np.array_equal(composite, want_composite), (users, n, k)

    def test_a_zero_denominator_flags_its_trial_with_the_float_message(self):
        # the inverse of 0 mod p is 0, so a zero denominator makes a zero
        # quotient, which the float build's check already flags
        diagonals = np.random.default_rng(0).integers(1, cj_precoder._PRIME, size=(3, 3, 3, 5))
        diagonals[1, 1, 2, 3] = 0  # H_23, a denominator of every cascade
        diagonals[2, 0, 0, 0] = 0  # H_11, the denominator of kappa
        _, exact = cj_precoder._stacked_columns(diagonals, exponent_cap(3, 5), cj_precoder._RESIDUES)
        _, floats = cj_precoder._stacked_precoders(diagonals.astype(complex))
        assert exact == floats == [
            None,
            "cascade (3, 2) left the representable range",
            "kappa left the representable range",
        ]


class TestExponentBuild:
    """The construction over exponent vectors: unit diagonals over the K^2 links give each column's monomial."""

    @pytest.mark.parametrize("users, n", [(3, 1), (3, 2), (3, 5), (4, 1), (4, 2)])
    def test_columns_equal_a_brute_force_derivation(self, users, n):
        unit = np.eye(users * users, dtype=np.int64).reshape(1, users, users, users * users)
        # the degenerate flags mean nothing over exponents, so they are not read
        columns, _ = cj_precoder._stacked_columns(unit, n, cj_precoder._EXPONENTS)
        want = exponent_columns(users, n)
        assert list(columns) == list(want)
        for user, mat in want.items():
            assert columns[user].dtype == np.int64
            assert np.array_equal(columns[user][0], mat), (users, n, user)
        # on i.i.d. channels every link is a free variable, so distinct exponent
        # vectors are independent monomials: each receiver's D columns are distinct
        pre = extension_core._unchecked(PrecoderSet, precoders=columns, arithmetic=cj_precoder._EXPONENTS)
        for k in range(1, users + 1):
            blocks = pre.received_blocks(unit[:, k - 1])
            composite = np.concatenate([blocks[k][0], blocks[pre.basis_user(k)][0]], axis=-1)
            assert composite.shape[1] == np.unique(composite, axis=1).shape[1] == effective_dim(users, n)


class TestNamedArithmetic:
    """A public ``PrecoderSet`` computes in complex128 whatever its inputs' dtype."""

    def test_integer_columns_and_rows_give_the_complex_products(self):
        # 2**21 * 2**21 is exact in complex128; residues mod p would read 36
        precoders = {1: np.full((5, 3), 2**21), 2: np.full((5, 2), 2**21), 3: np.full((5, 2), 2**21)}
        pre = PrecoderSet(precoders)
        row = np.full((3, 5), 2**21)
        assert all(mat.dtype == np.complex128 for mat in pre.precoders.values())
        for receiver in (1, 2, 3):
            composite = pre.composite(row, receiver)
            assert composite.dtype == np.complex128
            assert np.all(composite == 2**42)
        assert all(np.all(block == 2**42) for block in pre.received_blocks(row).values())

    def test_a_complex128_column_stack_is_stored_as_itself(self):
        built = build_precoders(build_effective(generate_channels(3, 5, "iid", 0), None, "plain"))
        pre = PrecoderSet(built.precoders)
        assert all(pre.precoders[user] is mat for user, mat in built.precoders.items())


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
