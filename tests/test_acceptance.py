"""Acceptance suite: every shipped claim checked at its stated tolerance.

Each test prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``
or in captured output) and asserts the same condition.
"""

import csv
from fractions import Fraction

import numpy as np

from oracles import scalar_kappa, scalar_lambda_32, slope_between
from symextia import (
    LinkConfig,
    build_cascades,
    check_alignment,
    closed_form_dof,
    draw_realization,
    effective_dim,
    generate_channels,
    numerical_rank,
    simulate_link,
    slot_fold,
)
from symextia.cli import main


def _report(name: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    detail = f" :: {'; '.join(failures)}" if failures else ""
    print(f"[{status}] {name}{detail}")
    assert not failures, f"{name}{detail}"


def _alignment_sweep(users, n, coding, model, seeds):
    """Alignment reports for `seeds` independent channel and gain draws."""
    slots = slot_fold(coding) * effective_dim(users, n)
    reports = []
    for seed in range(seeds):
        channels = generate_channels(users, slots, model, seed)
        _, eff, pre, _ = draw_realization(channels, coding, seed)
        reports.append((eff, pre, check_alignment(eff, pre)))
    return reports


def test_criterion_1_closed_form_dof():
    failures = []
    if closed_form_dof(3, 2, "single") != Fraction(7, 5):
        failures.append("K=3 n=2 single is not exactly 7/5")
    if closed_form_dof(3, 2, "double") != Fraction(7, 10):
        failures.append("K=3 n=2 double is not exactly 7/10")
    if round(float(closed_form_dof(5, 81, "double")), 4) != 1.1995:
        failures.append(f"K=5 n=81 double rounds to {round(float(closed_form_dof(5, 81, 'double')), 4)}")
    if round(float(closed_form_dof(5, 82, "double")), 4) != 1.2001:
        failures.append(f"K=5 n=82 double rounds to {round(float(closed_form_dof(5, 82, 'double')), 4)}")
    if not closed_form_dof(5, 82, "double") > Fraction(6, 5):
        failures.append("K=5 n=82 double does not exceed 6/5 exactly")
    _report("criterion 1: closed-form dof values (7/5, 7/10, 1.1995, 1.2001, >6/5)", failures)


def test_criterion_2_naive_collapse_on_constant_channels():
    failures = []
    reports = _alignment_sweep(3, 2, "naive", "constant", seeds=100)
    for seed, (eff, pre, report) in enumerate(reports):
        for pair, diag in build_cascades(eff).matrices.items():
            spread = float(np.max(np.abs(diag - diag.mean())) / np.abs(diag.mean()))
            if spread > 1e-10:
                failures.append(f"seed {seed}: cascade {pair} spread {spread:.2e}")
        if numerical_rank(pre.precoders[1])[0] != 1:
            failures.append(f"seed {seed}: V1 rank {numerical_rank(pre.precoders[1])[0]} != 1")
        if report.verdict != "fail":
            failures.append(f"seed {seed}: verdict {report.verdict}")
    _report("criterion 2: naive coding collapses on constant channels (100 seeds)", failures[:5])


def test_criterion_3_double_layer_succeeds_on_constant_channels():
    failures = []
    reports = _alignment_sweep(3, 2, "double", "constant", seeds=100)
    for seed, (eff, pre, report) in enumerate(reports):
        worst = max(report.residuals.values())
        if worst > 1e-8:
            failures.append(f"seed {seed}: residual {worst:.2e}")
        if any(r.rank != effective_dim(3, 2) for r in report.rank_results.values()):
            failures.append(f"seed {seed}: rank below {effective_dim(3, 2)}")
        if report.verdict != "pass":
            failures.append(f"seed {seed}: verdict {report.verdict}")
    channels = generate_channels(3, 10, "constant", 7)
    link = LinkConfig(snr_points_db=(50.0, 60.0), trials=100, seed=7)
    dof = simulate_link(channels, "double", link).dof_estimate
    if abs(dof - 0.7) > 0.05:
        failures.append(f"simulated dof {dof:.4f} outside 0.7 +/- 0.05")
    _report(
        "criterion 3: double layer aligns, fills rank, and reaches dof 0.7 on constant channels",
        failures[:5],
    )


def test_criterion_4_double_layer_succeeds_on_slow_changing_channels():
    failures = []
    reports = _alignment_sweep(3, 2, "double", "slow_changing", seeds=100)
    for seed, (eff, pre, report) in enumerate(reports):
        worst = max(report.residuals.values())
        if worst > 1e-8:
            failures.append(f"seed {seed}: residual {worst:.2e}")
        if any(r.rank != effective_dim(3, 2) for r in report.rank_results.values()):
            failures.append(f"seed {seed}: rank below {effective_dim(3, 2)}")
        if report.verdict != "pass":
            failures.append(f"seed {seed}: verdict {report.verdict}")
    _report("criterion 4: double layer passes identically on slow-changing channels", failures[:5])


def test_criterion_5_plain_coding_keeps_full_dof_on_iid_channels():
    failures = []
    reports = _alignment_sweep(3, 2, "plain", "iid", seeds=100)
    for seed, (eff, pre, report) in enumerate(reports):
        if report.verdict != "pass":
            failures.append(f"seed {seed}: verdict {report.verdict}")
        if any(r.rank != effective_dim(3, 2) for r in report.rank_results.values()):
            failures.append(f"seed {seed}: rank below {effective_dim(3, 2)}")
    link = LinkConfig(snr_points_db=(50.0, 60.0), trials=1, seed=0)
    mean_rates = {50.0: 0.0, 60.0: 0.0}
    for seed in range(100):
        channels = generate_channels(3, 5, "iid", seed)
        result = simulate_link(channels, "plain", link)
        for snr in mean_rates:
            mean_rates[snr] += result.sum_rate[snr] / 100.0
    dof = slope_between(mean_rates, 50.0, 60.0)
    if abs(dof - 1.4) > 0.07:
        failures.append(f"ensemble dof {dof:.4f} outside 1.4 +/- 0.07")
    _report("criterion 5: plain coding on iid channels stays full rank at dof 1.4", failures[:5])


def test_criterion_6_four_user_double_layer():
    failures = []
    reports = _alignment_sweep(4, 1, "double", "constant", seeds=20)
    if effective_dim(4, 1) != 33:
        failures.append(f"effective dim {effective_dim(4, 1)} != 33")
    for seed, (eff, pre, report) in enumerate(reports):
        worst = max(report.residuals.values())
        if worst > 1e-8:
            failures.append(f"seed {seed}: residual {worst:.2e}")
        if any(r.rank != 33 for r in report.rank_results.values()):
            failures.append(f"seed {seed}: composite rank below 33")
    _report("criterion 6: four-user double layer aligns at dimension 33 (20 seeds)", failures[:5])


def test_criterion_7_cascade_eigenvalues_match_scalar_oracle():
    failures = []
    for seed in range(20):
        channels = generate_channels(3, 10, "constant", seed)
        gains, eff, _, _ = draw_realization(channels, "double", seed)
        cascades = build_cascades(eff)
        lam_oracle = scalar_lambda_32(channels, gains)
        kap_oracle = scalar_kappa(channels, gains)
        lam_err = float(np.max(np.abs(cascades.matrices[(3, 2)] - lam_oracle) / np.abs(lam_oracle)))
        kap_err = float(np.max(np.abs(cascades.kappa - kap_oracle) / np.abs(kap_oracle)))
        if lam_err > 1e-13:
            failures.append(f"seed {seed}: lambda mismatch {lam_err:.2e}")
        if kap_err > 1e-13:
            failures.append(f"seed {seed}: kappa mismatch {kap_err:.2e}")
    _report("criterion 7: cascade eigenvalues and kappa match the scalar oracle (20 seeds)", failures[:5])


def _figure1(tmp_path, name):
    out = tmp_path / name
    rc = main(["--experiment", "figure1", "--users", "3", "--n", "2", "--channel", "constant",
               "--snr", "40:60:10", "--trials", "30", "--seed", "7", "--out", str(out)])
    assert rc == 0
    return out


def test_criterion_8_figure1_contrasts_naive_and_double(tmp_path):
    failures = []
    out = _figure1(tmp_path, "figure1.csv")
    with open(out, encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    rates = {"naive": {}, "double": {}}
    for row in rows:
        rates[row["coding"]][float(row["snr_db"])] = float(row["sum_rate_bits_per_use"])
    naive = slope_between(rates["naive"], 50.0, 60.0)
    double = slope_between(rates["double"], 50.0, 60.0)
    if not naive < 0.1:
        failures.append(f"naive slope {naive:.4f} not below 0.1")
    if abs(double - 0.7) > 0.05:
        failures.append(f"double slope {double:.4f} outside 0.7 +/- 0.05")
    _report("criterion 8: figure1 shows naive slope < 0.1 against double slope near 0.7", failures)


def test_criterion_9_reruns_are_byte_identical(tmp_path):
    failures = []
    first = _figure1(tmp_path, "first.csv").read_bytes()
    second = _figure1(tmp_path, "second.csv").read_bytes()
    if first != second:
        failures.append("figure1 reruns differ")
    args = ["--experiment", "dof_table", "--users", "3", "--n-range", "1:8", "--layer", "single"]
    a, b = tmp_path / "dof_a.csv", tmp_path / "dof_b.csv"
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    if a.read_bytes() != b.read_bytes():
        failures.append("dof_table reruns differ")
    _report("criterion 9: fixed-seed reruns produce byte-identical CSV files", failures)
