import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symextia.align_verify as align_verify
from oracles import (
    dense_min_relative_gap,
    parent_check_alignment,
    parent_receiver_composite,
    parent_signal_space_rank,
    partner_columns,
    partner_residuals,
)
from symextia import (
    ParameterError,
    PrecoderSet,
    build_cascades,
    build_effective,
    build_precoders,
    check_alignment,
    distinctness_audit,
    draw_realization,
    effective_dim,
    enumerate_tuples,
    generate_channels,
    min_relative_gap,
    numerical_rank,
    orthonormal_basis,
    receiver_composite,
    signal_space_rank,
    slot_fold,
    subseed,
)


_FINITE_COMPLEX = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _with_duplicate(draw):
    """Random complex values with one entry set to another's value or 1 ulp off it."""
    size = draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
    step = draw(st.sampled_from([0.0, np.inf, -np.inf]))
    re = v[j].real if step == 0.0 else np.nextafter(v[j].real, step)
    v[i] = complex(re, v[j].imag)
    return v


_GAP_FAMILIES = st.one_of(
    # random complex, including hypothesis' own zeros, repeats and tiny values
    st.lists(_FINITE_COMPLEX, min_size=2, max_size=60).map(np.array),
    # equal magnitudes: roots of unity and random points on the unit circle
    st.integers(2, 300).map(lambda n: np.exp(2j * np.pi * np.arange(n) / n)),
    st.lists(st.floats(0.0, 2 * np.pi), min_size=2, max_size=60).map(lambda a: np.exp(1j * np.array(a))),
    _with_duplicate(),
    # leading zeros
    st.tuples(st.integers(1, 3), st.lists(_FINITE_COMPLEX, min_size=1, max_size=40)).map(
        lambda t: np.concatenate([np.zeros(t[0], dtype=complex), t[1]])
    ),
    # real-valued
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60).map(np.array),
)


def _double_setup(seed, model="constant", users=3, n=2):
    ch = generate_channels(users, 2 * effective_dim(users, n), model, subseed(seed, 2))
    gains, eff, pre, _ = draw_realization(ch, "double", subseed(seed, 3))
    return eff, pre


def _misaligned_twin(pre, seed=11):
    """Random unit-norm precoders with the sizes of ``pre``, aligned nowhere."""
    rng = np.random.default_rng(seed)
    random_cols = {
        user: rng.standard_normal((pre.dim, mat.shape[1]))
        + 1j * rng.standard_normal((pre.dim, mat.shape[1]))
        for user, mat in pre.precoders.items()
    }
    return PrecoderSet(
        precoders={
            u: m / np.linalg.norm(m, axis=0, keepdims=True)
            for u, m in random_cols.items()
        },
    )


class TestNumericalRank:
    def test_full_rank_identity(self):
        rank, margin, threshold = numerical_rank(np.eye(4))
        assert rank == 4 and margin == 1.0 and threshold > 0

    def test_detects_numerical_deficiency(self):
        m = np.diag([1.0, 1e-20])
        rank, margin, _ = numerical_rank(m)
        assert rank == 1
        assert margin == pytest.approx(1e-20)

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 2)))[0] == 0

    def test_basis_spans_column_space_only(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])  # rank 1
        q = orthonormal_basis(m)
        assert q.shape == (3, 1)
        proj = q @ q.conj().T
        assert np.allclose(proj @ m, m)


class TestMinRelativeGap:
    def test_close_pair(self):
        assert min_relative_gap(np.array([1.0, 1.0 + 1e-12, 2.0])) == pytest.approx(1e-12, rel=0.1)

    def test_single_value_is_infinite(self):
        assert min_relative_gap(np.array([3.0])) == float("inf")

    def test_identical_values_gap_zero(self):
        assert min_relative_gap(np.array([2.0, 2.0])) == 0.0

    @settings(max_examples=400, deadline=None)
    @given(values=_GAP_FAMILIES, exponent=st.integers(-320, 150))
    def test_matches_dense_reference_bit_for_bit(self, values, exponent):
        # exponents reach the subnormal range; 1e150 keeps |a - b| finite
        scaled = values * 10.0**exponent
        assert min_relative_gap(scaled) == dense_min_relative_gap(scaled)

    def test_matches_dense_reference_on_cascades(self):
        # generic double cascades, the naive collapse (gaps near 0) and plain i.i.d.
        for users, n, coding, model in ((4, 2, "double", "constant"), (3, 5, "naive", "constant"),
                                        (3, 10, "plain", "iid")):
            slots = slot_fold(coding) * effective_dim(users, n)
            ch = generate_channels(users, slots, model, 4)
            _, eff, _, _ = draw_realization(ch, coding, 5)
            cascades = build_cascades(eff)
            for diag in [*cascades.matrices.values(), cascades.kappa]:
                assert min_relative_gap(diag) == dense_min_relative_gap(diag)

    def test_opposite_values_near_overflow(self):
        # a - b overflows to inf; the halved recomputation gives the exact gap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert min_relative_gap(np.array([1e308, -1e308])) == 2.0
            assert min_relative_gap(np.array([1e308, -1e308, 5.0])) == 1.0
            # best = 2 at offset 1, so an uncapped prune bound overflows at offset 2
            assert min_relative_gap(np.array([1.7e308, -1.7e308, 1.7e308])) == 0.0

    @pytest.mark.parametrize(
        "values",
        [
            [np.nan, 1.0],
            [1.0, np.inf, 2.0],
            [1.0, complex(0.0, -np.inf)],
            [np.nan],
            [complex(1.5e308, 1.5e308), 1.0],  # finite parts, magnitude overflows
        ],
    )
    def test_non_finite_input_raises(self, values):
        with pytest.raises(ParameterError, match="finite"):
            min_relative_gap(np.array(values))


class TestDoubleLayerAlignment:
    def test_constant_channel_passes(self):
        worst_residual = 0.0
        worst_margin = float("inf")
        for seed in range(100):
            eff, pre = _double_setup(seed)
            report = check_alignment(eff, pre)
            assert report.verdict == "pass"
            worst_residual = max(worst_residual, max(report.residuals.values()))
            for result in report.rank_results.values():
                assert result.rank == eff.dim == effective_dim(3, 2)
                assert result.margin > result.threshold
                worst_margin = min(worst_margin, result.margin)
        assert worst_residual <= 1e-10
        # empirical floor for the rank certificate, far above the threshold
        assert worst_margin > 1e-9

    def test_slow_changing_passes(self):
        for seed in range(100):
            eff, pre = _double_setup(seed, model="slow_changing")
            report = check_alignment(eff, pre)
            assert report.verdict == "pass"
            assert max(report.residuals.values()) <= 1e-10

    def test_four_users_pass(self):
        eff, pre = _double_setup(0, users=4, n=1)
        report = check_alignment(eff, pre)
        assert report.verdict == "pass"
        assert all(r.rank == 33 for r in report.rank_results.values())
        # containment keys cover all interfering pairs at receivers 2..4
        assert sum(key.startswith("contain") for key in report.residuals) == 6
        assert sum(key.startswith("equality") for key in report.residuals) == 2

    def test_receiver1_composite_is_square_full_rank(self):
        for seed in range(100):
            eff, pre = _double_setup(seed)
            composite = receiver_composite(eff, pre, 1)
            assert composite.shape == (5, 5)
            assert numerical_rank(composite)[0] == 5

    def test_misaligned_precoders_leave_large_residuals(self):
        eff, pre = _double_setup(5)
        report = check_alignment(eff, _misaligned_twin(pre))
        assert report.verdict == "fail"
        containment = [v for k, v in report.residuals.items() if k.startswith("contain")]
        assert max(containment) > 0.1

    def test_scale_invariance_of_checks(self):
        eff, pre = _double_setup(6)
        rng = np.random.default_rng(0)
        scaled = {}
        for user, mat in pre.precoders.items():
            scales = rng.uniform(0.2, 5.0, mat.shape[1]) * np.exp(
                2j * np.pi * rng.uniform(size=mat.shape[1])
            )
            scaled[user] = mat * scales[None, :]
        twin = PrecoderSet(precoders=scaled)
        base = check_alignment(eff, pre)
        rescaled = check_alignment(eff, twin)
        assert rescaled.verdict == base.verdict == "pass"
        for key, value in base.residuals.items():
            assert abs(rescaled.residuals[key] - value) <= 1e-12
        for k in base.rank_results:
            assert rescaled.rank_results[k].rank == base.rank_results[k].rank

    def test_tolerance_is_honored(self, monkeypatch):
        eff, pre = _double_setup(1)
        assert check_alignment(eff, pre).verdict == "pass"
        monkeypatch.setattr(align_verify, "RESIDUAL_TOL", 1e-18)
        assert check_alignment(eff, pre).verdict == "fail"


class TestNaiveCollapse:
    def test_constant_channel_fails_by_rank(self):
        for seed in range(10):
            ch = generate_channels(3, 5, "constant", subseed(seed, 2))
            _, eff, pre, _ = draw_realization(ch, "naive", subseed(seed, 3))
            report = check_alignment(eff, pre)
            assert report.verdict == "fail"
            assert numerical_rank(pre.precoders[1])[0] == 1
            # the alignment identities still hold; the collapse is a rank event
            assert max(report.residuals.values()) <= 1e-8
            assert report.rank_results[1].rank < eff.dim
            assert report.rank_results[1].rank <= 3

    def test_audit_flags_cascades_but_not_kappa(self):
        for seed in range(100):
            ch = generate_channels(3, 5, "constant", subseed(seed, 2))
            _, eff, _, _ = draw_realization(ch, "naive", subseed(seed, 3))
            audit = distinctness_audit(build_cascades(eff))
            assert audit.flagged == ("T_3_2",)
            assert audit.kappa_gap > align_verify.DISTINCTNESS_TOL


class TestPlainCoding:
    def test_iid_channels_pass(self):
        for seed in range(10):
            eff = build_effective(generate_channels(3, 5, "iid", seed), None, "plain")
            pre = build_precoders(eff)
            report = check_alignment(eff, pre)
            assert report.verdict == "pass"
            assert numerical_rank(pre.precoders[1])[0] == pre.stream_counts[1]

    def test_three_dim_extension_stays_well_conditioned(self):
        # K=3, n=1 fits in three slots; the direct precoder keeps a healthy
        # smallest singular value and the composite never loses rank
        smallest = float("inf")
        for seed in range(100):
            eff = build_effective(generate_channels(3, 3, "iid", seed), None, "plain")
            pre = build_precoders(eff)
            sigma = np.linalg.svd(pre.precoders[1], compute_uv=False)
            smallest = min(smallest, sigma[-1])
            assert signal_space_rank(eff, pre, 1).rank == 3
        assert smallest > 0.01

    def test_direct_precoder_columns_are_cascade_powers(self):
        eff = build_effective(generate_channels(3, 5, "iid", 9), None, "plain")
        pre = build_precoders(eff)
        lam = build_cascades(eff).matrices[(3, 2)]
        for idx, exponents in enumerate(enumerate_tuples(3, 2)):
            column = pre.precoders[1][:, idx]
            target = lam ** exponents[0]
            cosine = abs(np.vdot(column, target)) / (
                np.linalg.norm(column) * np.linalg.norm(target)
            )
            assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_iid_cascade_entries_distinct(self):
        for seed in range(100):
            eff = build_effective(generate_channels(3, 5, "iid", seed), None, "plain")
            audit = distinctness_audit(build_cascades(eff))
            assert audit.flagged == ()

    def test_double_audit_clean_on_constant(self):
        for seed in range(100):
            eff, _ = _double_setup(seed)
            audit = distinctness_audit(build_cascades(eff))
            assert audit.flagged == ()
            assert min(audit.lambda_gaps.values()) > align_verify.DISTINCTNESS_TOL


# (coding, channel model) pairs the coding can run; slow_changing needs the
# even slot count of the double layer
CODING_MODELS = (("plain", ("constant", "iid")), ("naive", ("constant", "iid")),
                 ("double", ("constant", "slow_changing", "iid")))


def _cases(sizes):
    return [
        (users, n, coding, model)
        for users, ns in sizes
        for n in ns
        for coding, models in CODING_MODELS
        for model in models
    ]


PARENT_CASES = _cases(((3, (1, 2, 5)), (4, (1, 2))))
PARTNER_CASES = _cases(((3, (1, 2, 5, 10)), (4, (1, 2))))


def _drawn(users, n, coding, model):
    ch = generate_channels(users, slot_fold(coding) * effective_dim(users, n), model, subseed(users, n, 2))
    _, eff, pre, _ = draw_realization(ch, coding, subseed(users, n, 3))
    return eff, pre


def _assert_same_report(report, parent):
    assert list(report.residuals.items()) == list(parent.residuals.items())  # key order too
    assert report.rank_results == parent.rank_results
    assert report.verdict == parent.verdict


class TestMatchesParentCheck:
    @pytest.mark.parametrize("users, n, coding, model", PARENT_CASES)
    def test_same_report_as_parent(self, users, n, coding, model):
        eff, pre = _drawn(users, n, coding, model)
        _assert_same_report(check_alignment(eff, pre), parent_check_alignment(eff, pre))

    def test_same_failing_report_as_parent(self):
        eff, pre = _double_setup(5)
        fake = _misaligned_twin(pre)
        report = check_alignment(eff, fake)
        assert report.verdict == "fail"
        _assert_same_report(report, parent_check_alignment(eff, fake))

    def test_one_receiver_matches_parent(self):
        eff, pre = _double_setup(4, users=4, n=1)
        for k in range(1, 5):
            assert np.array_equal(receiver_composite(eff, pre, k), parent_receiver_composite(eff, pre, k))
            assert signal_space_rank(eff, pre, k) == parent_signal_space_rank(eff, pre, k)


class TestPartnerColumns:
    @pytest.mark.parametrize("users, n, coding, model", PARTNER_CASES)
    def test_partner_and_basis_residuals_within_tolerance(self, users, n, coding, model):
        eff, pre = _drawn(users, n, coding, model)
        partner = partner_residuals(eff, pre, n)
        contain = {key: r for key, r in check_alignment(eff, pre).residuals.items() if key.startswith("contain")}
        assert list(partner) == list(contain)
        assert max(partner.values()) <= align_verify.RESIDUAL_TOL
        assert max(contain.values()) <= align_verify.RESIDUAL_TOL
        # random precoders of the same shapes have no partner columns
        rng = np.random.default_rng(n)
        random = PrecoderSet(
            precoders={u: rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
                       for u, m in pre.precoders.items()}
        )
        assert min(partner_residuals(eff, random, n).values()) > 0.1

    @pytest.mark.parametrize("users, n", [(3, 2), (4, 1)])
    def test_map_matches_brute_force_column_search(self, users, n):
        eff, pre = _drawn(users, n, "double", "constant")
        for j in range(2, users + 1):
            blocks = {u: b / np.linalg.norm(b, axis=0) for u, b in pre.received_blocks(eff.diagonals[j - 1]).items()}
            for k in (k for k in range(2, users + 1) if k != j):
                # the user-1 column each column of H_jk V_k is closest to in angle
                found = np.argmax(np.abs(blocks[1].conj().T @ blocks[k]), axis=0)
                assert np.array_equal(found, partner_columns(users, n, j, k)), (j, k)


class TestValidation:
    def test_mismatched_pair_rejected(self):
        _, pre = _double_setup(0)
        other = build_effective(generate_channels(3, 3, "iid", 0), None, "plain")
        with pytest.raises(ParameterError):
            check_alignment(other, pre)
        # K=4 at n=1 and K=3 at n=16 share D=33: the user count alone differs
        four_users = build_effective(generate_channels(4, 33, "iid", 0), None, "plain")
        three_users = build_precoders(build_effective(generate_channels(3, 33, "iid", 0), None, "plain"))
        with pytest.raises(ParameterError, match="does not match"):
            check_alignment(four_users, three_users)
        for eff, pre, receivers in ((other, pre, (1, 2, 3)), (four_users, three_users, (1, 4))):
            for receiver in receivers:
                with pytest.raises(ParameterError, match="does not match"):
                    receiver_composite(eff, pre, receiver)
                with pytest.raises(ParameterError, match="does not match"):
                    signal_space_rank(eff, pre, receiver)

    def test_receiver_label_bounds(self):
        eff, pre = _double_setup(0)
        with pytest.raises(ParameterError):
            signal_space_rank(eff, pre, 0)
        with pytest.raises(ParameterError):
            receiver_composite(eff, pre, 5)
