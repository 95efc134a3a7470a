import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symextia.align_verify as align_verify
import symextia.cj_precoder as cj_precoder
from oracles import (
    dense_min_relative_gap,
    parent_check_alignment,
    parent_flagged,
    parent_receiver_composite,
    parent_signal_space_rank,
    partner_columns,
    partner_residuals,
)
from symextia import (
    CascadeSet,
    ChannelSet,
    DistinctnessAudit,
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
    slot_fold,
    subseed,
)
from symextia.cli import parse_args, run_experiment
from symextia.link_sim import draw_until_built


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

    def test_nested_lists_are_a_matrix(self):
        # the cutoff once read .shape off the list after the SVD: an untyped AttributeError
        assert numerical_rank([[1.0, 2.0], [2.0, 4.0]]) == numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_detects_numerical_deficiency(self):
        m = np.diag([1.0, 1e-20])
        rank, margin, _ = numerical_rank(m)
        assert rank == 1
        assert margin == pytest.approx(1e-20)

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 2)))[0] == 0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_non_finite_matrix_raises(self, bad):
        # an inf entry used to give rank 0 with NaN margin; a NaN entry an untyped LinAlgError
        m = np.eye(4, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ParameterError, match="finite"):
            numerical_rank(m)

    @pytest.mark.parametrize("shape", [(2, 3, 3), (3,), ()])
    def test_refuses_what_is_not_one_matrix(self, shape):
        # a stack once raised an ambiguous truth value, a vector an untyped LinAlgError
        with pytest.raises(ParameterError, match=r"one 2-D matrix, got shape \("):
            numerical_rank(np.ones(shape))

    def test_basis_spans_column_space_only(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])  # rank 1
        q = align_verify._finite_basis(m)
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

    @pytest.mark.parametrize(
        "values",
        [
            [9 * 10**18, -9 * 10**18],  # a - b wraps around in int64; the float64 gap is 2
            [-(2**63), 1],  # abs of the int64 minimum is negative
            [2**64 - 1, 2**63, 5],
            [3, 3, 7],
            [True, False, True],
        ],
    )
    def test_integers_and_bools_are_compared_as_float64(self, values):
        as_float = [float(v) for v in values]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = min_relative_gap(np.array(values))
        assert got == min_relative_gap(np.array(as_float))
        want = min(abs(a - b) / max(abs(a), abs(b)) if a or b else 0.0
                   for i, a in enumerate(as_float) for b in as_float[i + 1:])
        assert got == want

    @pytest.mark.parametrize(
        "values", [np.array(["a", "b"]), np.array([1, 2], dtype=object), np.array([1, 2], dtype="datetime64[s]")]
    )
    def test_values_that_are_not_numbers_raise(self, values):
        with pytest.raises(ParameterError, match="^relative gaps need numeric values, got dtype "):
            min_relative_gap(values)


def _sweep_pairs(monkeypatch) -> list[int]:
    """The pair count of every ``_pair_gaps`` call the sweep makes, one per offset it runs."""
    calls = []
    real = align_verify._pair_gaps
    monkeypatch.setattr(align_verify, "_pair_gaps", lambda a, b, scale: calls.append(a.size) or real(a, b, scale))
    return calls


class TestStackedSweep:
    """``_min_relative_gaps`` sweeps every row at once; each row gets its own ``min_relative_gap``."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(_GAP_FAMILIES, st.integers(-320, 150)), min_size=1, max_size=4))
    def test_every_row_matches_the_dense_reference(self, rows):
        size = min(values.size for values, _ in rows)
        stack = np.stack([values[:size] * 10.0**exponent for values, exponent in rows]).astype(complex)
        got = align_verify._min_relative_gaps(stack)
        assert got.tolist() == [dense_min_relative_gap(row) for row in stack]

    def test_rows_stop_at_different_offsets(self, monkeypatch):
        rng = np.random.default_rng(5)
        phases = np.exp(2j * np.pi * rng.random(40))
        rows = np.stack([
            2.0 ** np.arange(40) * phases,  # magnitudes that double: stops at offset 2
            (1 + 1e-3 * np.arange(40)) * np.where(np.arange(40) % 2, 1, -1),  # same sign two apart: offset 3
            (1 + 1e-9 * rng.random(40)) * phases,  # one magnitude: every offset
        ])
        calls = _sweep_pairs(monkeypatch)
        alone = []
        for row in rows:
            calls.clear()
            assert min_relative_gap(row) == dense_min_relative_gap(row)
            alone.append(list(calls))
        assert [len(c) for c in alone] == [1, 2, 39]
        calls.clear()
        got = align_verify._min_relative_gaps(rows)
        assert got.tolist() == [dense_min_relative_gap(row) for row in rows]
        # one pass per offset for every row, each row keeping the pairs it keeps alone
        assert len(calls) == 39
        assert sum(calls) == sum(map(sum, alone))

    def test_a_zero_gap_row_computes_no_more_pairs(self, monkeypatch):
        rng = np.random.default_rng(8)
        values = rng.standard_normal((2, 300)) + 1j * rng.standard_normal((2, 300))
        values[0, 17] = values[0, 250]
        calls = _sweep_pairs(monkeypatch)
        min_relative_gap(values[1])
        other = sum(calls)
        calls.clear()
        assert align_verify._min_relative_gaps(values).tolist() == [0.0, dense_min_relative_gap(values[1])]
        assert sum(calls) == other + values.shape[1] - 1  # the zero row's neighbours only

    def test_pairs_whose_difference_overflows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = align_verify._min_relative_gaps(np.array([
                [1e308, -1e308, 5.0],
                [1.7e308, -1.7e308, 1.7e308],
                [1.0, 2.0, 3.0],
                [3.0, -3.0, 1.5e308],
            ]))
        assert got.tolist() == [1.0, 0.0, dense_min_relative_gap(np.array([1.0, 2.0, 3.0])), 1.0]

    def test_equal_magnitudes_cost_linear_memory(self):
        # roots of unity keep every pair at every offset: O(D^2) time, O(D) memory
        size = 2000
        roots = np.exp(2j * np.pi * np.arange(size) / size)
        stack = np.stack([roots, np.random.default_rng(1).standard_normal(size) + 0j, roots * 1e-200])
        want = [min_relative_gap(row) for row in stack]
        tracemalloc.start()
        try:
            got = align_verify._min_relative_gaps(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == want
        small = np.exp(2j * np.pi * np.arange(300) / 300)
        assert min_relative_gap(small) == dense_min_relative_gap(small)
        # a few arrays of one entry per value; one row's pair matrix would be 16 * size bytes per value
        assert peak <= 160 * stack.size

    def test_the_audit_is_the_stacked_sweep_of_its_quantities(self):
        ch = generate_channels(4, 2 * effective_dim(4, 2), "constant", 4)
        _, eff, _, _ = draw_realization(ch, "double", 5)
        cascades = build_cascades(eff)
        audit = distinctness_audit(cascades)
        assert list(audit.lambda_gaps) == list(cascades.matrices)
        for pair, diag in cascades.matrices.items():
            assert audit.lambda_gaps[pair] == min_relative_gap(diag) == dense_min_relative_gap(diag)
        assert audit.kappa_gap == min_relative_gap(cascades.kappa) == dense_min_relative_gap(cascades.kappa)

    def test_the_audit_refuses_diagonals_of_other_lengths(self):
        ch = generate_channels(3, 2 * effective_dim(3, 2), "constant", 4)
        _, eff, _, _ = draw_realization(ch, "double", 5)
        cascades = build_cascades(eff)
        short = CascadeSet(matrices={**cascades.matrices, (3, 2): cascades.kappa[:-1]}, kappa=cascades.kappa)
        with pytest.raises(ParameterError, match="kappa's shape"):
            distinctness_audit(short)


_TOL = align_verify.DISTINCTNESS_TOL
# gaps at and around the tolerance, at 0 and at inf, and anything in between
_GAP = st.one_of(
    st.sampled_from([0.0, _TOL, np.nextafter(_TOL, 0.0), np.nextafter(_TOL, 1.0), np.inf]),
    st.floats(0.0, 1e-8),
    st.floats(0.0, allow_nan=False),
)


class TestFlaggedIsDerived:
    @settings(max_examples=300, deadline=None)
    @given(
        lambda_gaps=st.dictionaries(st.tuples(st.integers(1, 12), st.integers(1, 12)), _GAP, max_size=8),
        kappa_gap=_GAP,
    )
    def test_flagged_is_the_stored_expression(self, lambda_gaps, kappa_gap):
        # two-digit users sort as strings: T_10_1 comes before T_2_1
        audit = DistinctnessAudit(lambda_gaps=lambda_gaps, kappa_gap=kappa_gap)
        assert audit.flagged == parent_flagged(lambda_gaps, kappa_gap)

    def test_flagged_is_no_constructor_field(self):
        with pytest.raises(TypeError):
            DistinctnessAudit(lambda_gaps={}, kappa_gap=1.0, flagged=())
        audit = DistinctnessAudit(lambda_gaps={(3, 2): 0.0}, kappa_gap=1.0)
        with pytest.raises(AttributeError):
            audit.flagged = ()
        assert audit.flagged == ("T_3_2",)

    def test_every_csv_flag_is_its_gap_below_the_tolerance(self, tmp_path):
        out = tmp_path / "audit.csv"
        run_experiment(parse_args(
            ["--experiment", "audit", "--coding", "double", "--trials", "100", "--seed", "3", "--out", str(out)]
        ))
        rows = out.read_text().splitlines()
        assert rows[0] == "row,seed,quantity,min_relative_gap,flagged"
        assert len(rows) == 1 + 2 * 100
        for line in rows[1:]:
            *_, gap, flagged = line.split(",")
            assert flagged == str(float(gap) < _TOL).lower()


class TestAuditDrawMemory:
    def test_one_audit_draw_holds_one_slot_layer(self):
        # K=4 n=3 double on constant channels, the audit_k4 benchmark op
        users, dim = 4, effective_dim(4, 3)
        slots = 2 * dim

        def traced_peak(run):
            run()  # warm up lazy imports before tracing
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def audit_draw():
            channels = generate_channels(users, slots, "constant", 3)
            _, _, cascades, _ = draw_until_built(channels, "double", 5, build_cascades)
            return distinctness_audit(cascades)

        # a (K, K, D) slot layer as numpy forms it, the broadcasting
        # multiply's iterator buffers included (159 KiB here on numpy 2.4)
        beta = np.ones((1, users, slots), dtype=complex)
        channel = np.ones((users, users, slots), dtype=complex)
        layer = traced_peak(lambda: beta[..., :, None, :dim] * channel[..., :dim])
        assert layer >= 16 * users**2 * dim
        gains, diagonals = 2 * 16 * users * slots, 16 * users**2 * dim
        # the gains, the diagonals and one slot layer; a repeated channel or
        # a product over all the slots is two more (K, K, D) arrays each
        assert traced_peak(audit_draw) <= gains + diagonals + layer + 64 * 1024


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
                # margin is unitless, sigma_min / sigma_max; sigma_min clears the
                # cutoff dim * eps * sigma_max exactly when it exceeds dim * eps
                assert result.margin > eff.dim * np.finfo(np.float64).eps
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
            composite = pre.composite(eff.diagonals[0], 1)
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
            assert check_alignment(eff, pre).rank_results[1].rank == 3
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
    assert list(report.rank_results.items()) == list(parent.rank_results.items())  # receiver order too
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
        report = check_alignment(eff, pre)
        for k in range(1, 5):
            assert np.array_equal(pre.composite(eff.diagonals[k - 1], k), parent_receiver_composite(eff, pre, k))
            assert report.rank_results[k] == parent_signal_space_rank(eff, pre, k)


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
                    pre.composite(eff.diagonals[receiver - 1], receiver)


class TestCompositeRefusals:
    """``PrecoderSet.composite`` checks its receiver label and the shape of its row."""

    @pytest.mark.parametrize(
        "receiver, message",
        [
            (0, "must be an integer >= 1, got 0"),
            (4, r"4 outside 1\.\.3"),
            (5, r"5 outside 1\.\.3"),
            (True, "must be an integer >= 1, got True"),
            (1.5, "must be an integer >= 1, got 1.5"),
        ],
        ids=["0", "users + 1", "users + 2", "True", "1.5"],
    )
    def test_refuses_a_receiver_that_is_no_user_label(self, receiver, message):
        eff, pre = _double_setup(0)  # 3 users
        with pytest.raises(ParameterError, match=f"^user label {message}$"):
            pre.composite(eff.diagonals[0], receiver)

    def test_refuses_a_row_of_another_size(self):
        eff, pre = _double_setup(0)  # 3 users, D = 5
        # another user count, another D, one diagonal rather than a row
        refusal = r"^receiver row \(.*\) does not match precoder set \(3 users, dim 5\)$"
        for row in (eff.diagonals[0, :2], eff.diagonals[0, :, :4], eff.diagonals[0, 0]):
            with pytest.raises(ParameterError, match=refusal):
                pre.composite(row, 1)

    def test_a_stack_of_rows_and_a_residue_row_still_build(self):
        eff, pre = _double_setup(0)
        rows = np.stack([eff.diagonals[1]] * 2)  # (trials, users, D)
        stacked = pre.composite(rows, 2)
        assert stacked.shape == (2, eff.dim, eff.dim)
        assert np.array_equal(stacked[1], pre.composite(eff.diagonals[1], 2))
        # residues mod p: a stack of two trials' int64 columns and rows
        diagonals = np.random.default_rng(0).integers(1, cj_precoder._PRIME, size=(2, 3, 3, 5))
        columns, _ = cj_precoder._stacked_columns(diagonals)
        residue_pre = PrecoderSet(precoders=columns)
        composite = residue_pre.composite(diagonals[:, 1], 2)
        blocks = residue_pre.received_blocks(diagonals[:, 1])
        assert composite.dtype == np.int64
        assert np.array_equal(composite, np.concatenate([blocks[2], blocks[1]], axis=-1))

    @pytest.mark.parametrize("shape", [(3, 1), (4, 5), (3, 4)])
    def test_received_blocks_refuses_what_composite_refuses(self, shape):
        # neither view may broadcast a (3, 1) row over D or read the first
        # three users of a (4, 5) one
        _, pre = _double_setup(0)  # 3 users, D = 5
        row = np.ones(shape, dtype=complex)
        refusal = rf"^receiver row \({shape[0]}, {shape[1]}\) does not match precoder set \(3 users, dim 5\)$"
        for call in (lambda: pre.received_blocks(row), lambda: pre.composite(row, 1)):
            with pytest.raises(ParameterError, match=refusal):
                call()

    @settings(max_examples=100, deadline=None)
    @given(
        lead=st.lists(st.integers(1, 2), max_size=2),
        tail=st.one_of(st.just([3, 5]), st.lists(st.integers(1, 7), min_size=1, max_size=2)),
        receiver=st.integers(1, 3),
    )
    def test_both_views_share_one_row_rule(self, lead, tail, receiver):
        _, pre = _double_setup(0)  # 3 users, D = 5
        row = np.full((*lead, *tail), 0.5 + 0.25j)
        if tail == [3, 5]:
            blocks = pre.received_blocks(row)
            want = np.concatenate([blocks[receiver], blocks[pre.basis_user(receiver)]], axis=-1)
            assert np.array_equal(pre.composite(row, receiver), want)
            return
        refusals = []
        for call in (lambda: pre.received_blocks(row), lambda: pre.composite(row, receiver)):
            with pytest.raises(ParameterError, match="^receiver row .* does not match precoder set") as err:
                call()
            refusals.append(str(err.value))
        assert refusals[0] == refusals[1]


class _RankFailed(Exception):
    pass


class _BasisFailed(Exception):
    pass


def _fail_at_receiver3(monkeypatch, eff, pre, rank=False, basis=False):
    """Make ``numerical_rank`` and/or ``_finite_basis`` raise on receiver 3's input only."""
    composite3 = pre.composite(eff.diagonals[2], 3)
    block3 = pre.received_blocks(eff.diagonals[2])[1]
    real_rank, real_basis = align_verify.numerical_rank, align_verify._finite_basis

    def rank_or_fail(matrix):
        if rank and np.array_equal(matrix, composite3):
            raise _RankFailed
        return real_rank(matrix)

    def basis_or_fail(matrix):
        if basis and np.array_equal(matrix, block3):
            raise _BasisFailed
        return real_basis(matrix)

    monkeypatch.setattr(align_verify, "numerical_rank", rank_or_fail)
    monkeypatch.setattr(align_verify, "_finite_basis", basis_or_fail)


def _record_svd_calls(monkeypatch):
    """Wrap ``numerical_rank`` and ``_finite_basis``; each call appends (name, thread id, input finite)."""
    calls = []
    for name in ("numerical_rank", "_finite_basis"):
        def wrapped(matrix, name=name, real=getattr(align_verify, name)):
            calls.append((name, threading.get_ident(), bool(np.all(np.isfinite(matrix)))))
            return real(matrix)
        monkeypatch.setattr(align_verify, name, wrapped)
    return calls


# K=3 n=75 (D = 151) is the smallest drawn size at or above _OVERLAP_MIN_DIM;
# K=3 n=74 (D = 149) and K=4 n=1 (D = 33) run both SVDs on the calling thread
OVERLAPPED = {"users": 3, "n": 75}
SERIAL = ({"users": 3, "n": 74}, {"users": 4, "n": 1})


class TestBasisHelper:
    def test_threshold_between_the_drawn_sizes(self):
        assert effective_dim(**SERIAL[0]) < align_verify._OVERLAP_MIN_DIM <= effective_dim(**OVERLAPPED)

    def test_certificates_on_one_helper_bases_on_caller(self, monkeypatch):
        eff, pre = _double_setup(2, **OVERLAPPED)
        calls = _record_svd_calls(monkeypatch)
        check_alignment(eff, pre)
        caller = threading.get_ident()
        assert [t for name, t, _ in calls if name == "_finite_basis"] == [caller] * 2
        # receiver 1's certificate runs on the caller, the other K - 1 on one other thread
        certificates = [t for name, t, _ in calls if name == "numerical_rank"]
        assert len(certificates) == 3 and certificates[0] == caller
        assert len(set(certificates[1:])) == 1 and certificates[1] != caller

    @pytest.mark.parametrize("size", SERIAL)
    def test_serial_below_the_threshold(self, monkeypatch, size):
        # no helper is started: every SVD runs on the caller, with no other thread alive
        eff, pre = _double_setup(2, **size)
        before = threading.active_count()
        threads = []
        for name in ("numerical_rank", "_finite_basis"):
            def wrapped(matrix, real=getattr(align_verify, name)):
                threads.append((threading.get_ident(), threading.active_count()))
                return real(matrix)
            monkeypatch.setattr(align_verify, name, wrapped)
        check_alignment(eff, pre)
        assert threads == [(threading.get_ident(), before)] * (2 * size["users"] - 1)

    @pytest.mark.parametrize("size", [OVERLAPPED, *SERIAL])
    def test_same_report_as_parent_on_each_side(self, size):
        eff, pre = _double_setup(2, **size)
        _assert_same_report(check_alignment(eff, pre), parent_check_alignment(eff, pre))

    def test_same_report_under_frequent_thread_switches(self):
        # the helper only reads the composite and returns a RankResult; a 1 us switch
        # interval interleaves the two threads as finely as the interpreter allows
        eff, pre = _double_setup(3, **OVERLAPPED)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = [check_alignment(eff, pre) for _ in range(20)]
        finally:
            sys.setswitchinterval(interval)
        parent = parent_check_alignment(eff, pre)
        for report in reports:
            _assert_same_report(report, parent)

    def test_no_thread_outlives_the_call(self, monkeypatch):
        eff, pre = _double_setup(2, **OVERLAPPED)
        before = threading.active_count()
        check_alignment(eff, pre)
        assert threading.active_count() == before
        for failing in ({"rank": True}, {"basis": True}, {"rank": True, "basis": True}):
            with monkeypatch.context() as m:
                _fail_at_receiver3(m, eff, pre, **failing)
                with pytest.raises((_RankFailed, _BasisFailed)):
                    check_alignment(eff, pre)
            assert threading.active_count() == before

    @pytest.mark.parametrize("size", [OVERLAPPED, SERIAL[1]])
    @pytest.mark.parametrize("rank, basis, raised", [(True, False, _RankFailed), (False, True, _BasisFailed)])
    def test_error_at_receiver3_propagates_with_its_type(self, monkeypatch, size, rank, basis, raised):
        eff, pre = _double_setup(2, **size)
        _fail_at_receiver3(monkeypatch, eff, pre, rank=rank, basis=basis)
        with pytest.raises(raised):
            check_alignment(eff, pre)

    @pytest.mark.parametrize("size", [OVERLAPPED, SERIAL[1]])
    def test_basis_error_wins_when_both_fail(self, monkeypatch, size):
        # serially the basis SVD runs first, so its error is the one raised;
        # overlapped, the certificate's error is waited for and dropped
        eff, pre = _double_setup(2, **size)
        _fail_at_receiver3(monkeypatch, eff, pre, rank=True, basis=True)
        with pytest.raises(_BasisFailed):
            check_alignment(eff, pre)


class TestHeldBlocks:
    @pytest.mark.parametrize("size", [OVERLAPPED, SERIAL[1]])
    def test_no_block_is_held_twice_through_the_svds(self, monkeypatch, size):
        # numpy's own tracemalloc domain counts array data alone, not Python objects
        def array_bytes():
            traces = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            ).traces
            return sum(trace.size for trace in traces)

        users = size["users"]
        dim = effective_dim(users, size["n"])
        channels = generate_channels(users, 2 * dim, "constant", subseed(2, 2))
        caller, overlapped = threading.get_ident(), dim >= align_verify._OVERLAP_MIN_DIM
        # an overlapped basis SVD waits until its receiver's certificate has taken its
        # reading, so that reading never counts the basis formed after the SVD
        certified = threading.Semaphore(0)
        seen = []
        real_svd = np.linalg.svd

        def svd(a, full_matrices=True, compute_uv=True, **kw):
            if compute_uv and overlapped:
                assert certified.acquire(timeout=60)
            seen.append((compute_uv, array_bytes()))
            if not compute_uv and threading.get_ident() != caller:
                certified.release()
            return real_svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kw)

        tracemalloc.start()
        try:
            baseline = array_bytes()
            _, eff, pre, _ = draw_realization(channels, "double", subseed(2, 3))
            monkeypatch.setattr(np.linalg, "svd", svd)
            check_alignment(eff, pre)
        finally:
            monkeypatch.undo()
            tracemalloc.stop()
        # receiver 1's certificate, then a basis and a certificate at each receiver j >= 2
        assert len(seen) == 2 * users - 1 and sum(basis for basis, _ in seen) == users - 1 and not seen[0][0]
        precoders = sum(mat.nbytes for mat in pre.precoders.values())
        # each receiver's users - 2 other blocks; every user but user 1 has d_2 columns
        others = 16 * dim * (users - 2) * pre.stream_counts[2]
        # the realization, and 4 KiB for a certificate's singular values; a receiver's two
        # composite blocks, 16 * D * D bytes, are held once, in the composite
        slack = eff.diagonals.nbytes + eff.gains.alpha.nbytes + eff.gains.beta.nbytes + 4096
        assert max(held for _, held in seen) - baseline <= precoders + 16 * dim**2 + others + slack


def _replaced(pre, user, fn):
    return PrecoderSet(precoders={u: fn(m.copy()) if u == user else m for u, m in pre.precoders.items()})


def _set_entry(value):
    def set_entry(m):
        m[0, 0] = value
        return m
    return set_entry


def _zero_column(m):
    m[:, 0] = 0
    return m


class TestUnusableBlocks:
    @pytest.mark.parametrize("user", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "fn, message",
        [(_set_entry(np.inf), "non-finite entry"), (_set_entry(np.nan), "non-finite entry"),
         (_set_entry(complex(np.nan, 1.0)), "non-finite entry"), (lambda m: m * 0, "norm 0"),
         (lambda m: m * 1e-300, "norm 0")],
        ids=["inf", "nan", "nan_real", "zero", "underflow"],
    )
    def test_refused_before_any_svd(self, monkeypatch, user, fn, message):
        eff, pre = _double_setup(2, users=4, n=1)
        calls = _record_svd_calls(monkeypatch)
        with pytest.raises(ParameterError, match=message):
            check_alignment(eff, _replaced(pre, user, fn))
        # every user's block is checked at receiver 1, before its first SVD
        assert calls == []

    @pytest.mark.parametrize("user, message", [(2, "H_12 V_2 has norm inf"), (3, "energy"), (4, "H_14 V_4 has norm inf")])
    def test_overflowing_denominator_refused_before_any_svd(self, monkeypatch, user, message):
        # receiver 1 divides by the norms of H_12 V_2 and H_14 V_4 and by the column energies of H_13 V_3
        eff, pre = _double_setup(2, users=4, n=1)
        calls = _record_svd_calls(monkeypatch)
        with pytest.raises(ParameterError, match=message):
            check_alignment(eff, _replaced(pre, user, lambda m: m * 1e300))
        assert calls == []

    def test_overflow_that_only_feeds_svds_keeps_the_parent_report(self):
        # V_1 is no residual's denominator: its blocks only feed SVDs, which scale
        # their input, so the report is the parent's finite, rank-deficient one
        eff, pre = _double_setup(2, users=4, n=1)
        scaled = _replaced(pre, 1, lambda m: m * 1e300)
        with np.errstate(over="ignore"):
            assert np.linalg.norm(scaled.precoders[1]) == np.inf
        report = check_alignment(eff, scaled)
        _assert_same_report(report, parent_check_alignment(eff, scaled))
        assert report.verdict == "fail" and all(np.isfinite(r) for r in report.residuals.values())

    def test_overflow_at_receiver3_refused_before_its_svds(self, monkeypatch):
        # finite channels whose receiver-3 blocks overflow in norm: receivers 1 and
        # 2 are certified, and no SVD sees a receiver-3 block, refused at its
        # first denominator, H_32 V_2
        channels = generate_channels(3, 5, "iid", 4)
        pre = build_precoders(build_effective(channels, None, "plain"))
        entries = channels.entries.copy()
        entries[2] *= 1e160
        eff = build_effective(ChannelSet(entries, "iid"), None, "plain")
        calls = _record_svd_calls(monkeypatch)
        with pytest.raises(ParameterError, match="H_32 V_2 has norm inf"):
            check_alignment(eff, pre)
        assert sorted((name, finite) for name, _, finite in calls) == (
            [("_finite_basis", True)] + [("numerical_rank", True)] * 2
        )

    def test_zero_reference_column_refused(self):
        # H_13 V_3 is receiver 1's scale-match reference; a zero column was a 0/0 NaN residual
        eff, pre = _double_setup(2)
        with pytest.raises(ParameterError, match="energy"):
            check_alignment(eff, _replaced(pre, 3, _zero_column))

    @pytest.mark.parametrize("user", [1, 2])
    def test_zero_column_elsewhere_still_checks(self, user):
        # a zero column outside the reference divides by nothing: a finite report
        eff, pre = _double_setup(2)
        report = check_alignment(eff, _replaced(pre, user, _zero_column))
        assert all(np.isfinite(r) for r in report.residuals.values())
