import csv
import subprocess
import sys
from pathlib import Path

import pytest

import symextia
from symextia import ParameterError
from symextia.cli import ExperimentSpec, main, parse_args, run_experiment
from symextia.extension_core import CONSTANT, DOUBLE, IID, NAIVE, PLAIN

from oracles import slope_between


def read_csv(path):
    with open(path, encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestParseArgs:
    def test_defaults(self):
        spec = parse_args(["--experiment", "verify"])
        assert spec == ExperimentSpec(
            experiment="verify",
            users=3,
            n=2,
            n_range=(2, 2),
            layer="double",
            channel_model="constant",
            coding="double",
            snr_db=(10.0, 20.0, 30.0, 40.0, 50.0, 60.0),
            trials=50,
            seed=0,
            output_path="verify.csv",
        )

    def test_layer_derived_from_coding(self):
        spec = parse_args(["--experiment", "verify", "--coding", "naive"])
        assert spec.layer == "single"
        assert spec.coding == "naive"

    def test_layer_coding_conflict_rejected(self):
        with pytest.raises(ParameterError, match="inconsistent"):
            parse_args(["--experiment", "verify", "--coding", "naive", "--layer", "double"])

    def test_dof_table_layer_defaults_single(self):
        spec = parse_args(["--experiment", "dof_table"])
        assert spec.layer == "single"

    def test_figure1_rejects_coding_flag(self):
        with pytest.raises(ParameterError, match="figure1"):
            parse_args(["--experiment", "figure1", "--coding", "double"])

    def test_figure1_rejects_single_layer(self):
        with pytest.raises(ParameterError, match="figure1"):
            parse_args(["--experiment", "figure1", "--layer", "single"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--experiment", "figure1"],
            ["--experiment", "verify", "--coding", "plain"],
            ["--experiment", "audit", "--coding", "naive"],
        ],
    )
    def test_slow_changing_rejected_on_single_layer(self, flags):
        with pytest.raises(ParameterError, match="always odd"):
            parse_args(flags + ["--channel", "slow_changing"])
        assert main(flags + ["--channel", "slow_changing"]) == 2

    def test_slow_changing_accepted_on_double_layer(self):
        for experiment in ("verify", "audit"):
            spec = parse_args(["--experiment", experiment, "--channel", "slow_changing"])
            assert spec.layer == "double"

    def test_figure1_coding_is_both(self):
        spec = parse_args(["--experiment", "figure1"])
        assert spec.coding == "both"
        assert spec.layer == "double"

    def test_n_range_parsing(self):
        spec = parse_args(["--experiment", "dof_table", "--n-range", "1:9"])
        assert spec.n_range == (1, 9)

    @pytest.mark.parametrize("text", ["5", "3:1", "a:b", "1:2:3"])
    def test_bad_n_range_rejected(self, text):
        with pytest.raises(ParameterError):
            parse_args(["--experiment", "dof_table", "--n-range", text])

    def test_snr_parsing(self):
        spec = parse_args(["--experiment", "figure1", "--snr", "0:20:5"])
        assert spec.snr_db == (0.0, 5.0, 10.0, 15.0, 20.0)

    @pytest.mark.parametrize("text", ["10:60", "60:10:10", "10:60:0", "x:y:z"])
    def test_bad_snr_rejected(self, text):
        with pytest.raises(ParameterError):
            parse_args(["--experiment", "figure1", "--snr", text])

    def test_bad_trials_rejected(self):
        with pytest.raises(ParameterError, match="trials"):
            parse_args(["--experiment", "verify", "--trials", "0"])

    def test_unknown_experiment_exits(self):
        with pytest.raises(SystemExit):
            parse_args(["--experiment", "nonsense"])


class TestDofTable:
    def test_exact_rows(self, tmp_path):
        out = tmp_path / "dof.csv"
        spec = parse_args(
            ["--experiment", "dof_table", "--n-range", "1:3", "--out", str(out)]
        )
        run_experiment(spec)
        rows = read_csv(out)
        assert rows[0] == ["users", "n", "layer", "dof_exact_num", "dof_exact_den", "dof_float"]
        assert rows[1] == ["3", "1", "single", "4", "3", "1.333333"]
        assert rows[2] == ["3", "2", "single", "7", "5", "1.400000"]
        assert rows[3] == ["3", "3", "single", "10", "7", "1.428571"]

    def test_asymptotic_rows(self, tmp_path):
        out = tmp_path / "dof.csv"
        spec = parse_args(
            ["--experiment", "dof_table", "--users", "5", "--layer", "double",
             "--n-range", "81:82", "--out", str(out)]
        )
        run_experiment(spec)
        rows = read_csv(out)
        by_n = {row[1]: row for row in rows[1:]}
        assert by_n["81"][5] == "1.199463"
        assert by_n["82"][5] == "1.200073"
        assert round(float(by_n["81"][5]), 4) == 1.1995
        assert round(float(by_n["82"][5]), 4) == 1.2001


class TestVerifyAndAudit:
    def test_verify_naive_constant_all_fail(self, tmp_path):
        out = tmp_path / "verify.csv"
        spec = parse_args(
            ["--experiment", "verify", "--coding", "naive", "--trials", "5",
             "--out", str(out)]
        )
        run_experiment(spec)
        rows = read_csv(out)
        assert rows[0] == [
            "row", "seed", "users", "n", "layer", "channel", "coding",
            "max_residual", "min_rank", "required_rank", "min_margin", "verdict",
        ]
        assert len(rows) == 6
        for idx, row in enumerate(rows[1:]):
            assert row[0] == str(idx)
            assert row[1] == "0"
            assert row[6] == "naive"
            assert row[8] == "1"
            assert row[9] == "5"
            assert row[11] == "fail"

    def test_verify_double_constant_all_pass(self, tmp_path):
        out = tmp_path / "verify.csv"
        spec = parse_args(
            ["--experiment", "verify", "--trials", "5", "--seed", "3", "--out", str(out)]
        )
        run_experiment(spec)
        rows = read_csv(out)
        for row in rows[1:]:
            assert row[1] == "3"
            assert float(row[7]) <= 1e-8
            assert row[8] == row[9] == "5"
            assert row[11] == "pass"

    def test_audit_flags_naive_constant(self, tmp_path):
        out = tmp_path / "audit.csv"
        spec = parse_args(
            ["--experiment", "audit", "--coding", "naive", "--trials", "3",
             "--out", str(out)]
        )
        run_experiment(spec)
        rows = read_csv(out)
        assert rows[0] == ["row", "seed", "quantity", "min_relative_gap", "flagged"]
        # K=3 has one cascade plus kappa per realization
        assert len(rows) == 1 + 2 * 3
        for row in rows[1:]:
            if row[2] == "T_3_2":
                assert row[4] == "true"
            else:
                assert row[2] == "kappa"
                assert row[4] == "false"

    def test_audit_clean_for_double_constant(self, tmp_path):
        out = tmp_path / "audit.csv"
        spec = parse_args(["--experiment", "audit", "--trials", "3", "--out", str(out)])
        run_experiment(spec)
        rows = read_csv(out)
        for row in rows[1:]:
            assert float(row[3]) > 1e-9
            assert row[4] == "false"


@pytest.fixture(scope="module")
def figure_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig") / "figure1.csv"
    spec = parse_args(
        ["--experiment", "figure1", "--trials", "30", "--snr", "40:60:10",
         "--seed", "7", "--out", str(out)]
    )
    run_experiment(spec)
    return read_csv(out)


class TestFigure1:
    def test_header_and_slopes(self, figure_rows):
        assert figure_rows[0] == [
            "snr_db", "coding", "sum_rate_bits_per_use", "dof_estimate", "trials", "seed",
        ]
        rates = {
            (row[1], float(row[0])): float(row[2]) for row in figure_rows[1:]
        }
        naive_slope = slope_between(
            {snr: rates[(NAIVE, snr)] for snr in (40.0, 50.0, 60.0)}, 50.0, 60.0
        )
        double_slope = slope_between(
            {snr: rates[(DOUBLE, snr)] for snr in (40.0, 50.0, 60.0)}, 50.0, 60.0
        )
        assert naive_slope < 0.1
        assert double_slope == pytest.approx(0.7, abs=0.05)

    def test_reported_dof_matches_rates(self, figure_rows):
        rates = {}
        dofs = {}
        for row in figure_rows[1:]:
            rates.setdefault(row[1], {})[float(row[0])] = float(row[2])
            dofs.setdefault(row[1], set()).add(float(row[3]))
        # one dof estimate per coding, repeated on every sweep row
        assert all(len(values) == 1 for values in dofs.values())
        assert next(iter(dofs[NAIVE])) < 0.1
        # rates are printed to 6 significant digits, hence the loose match
        assert next(iter(dofs[DOUBLE])) == pytest.approx(
            slope_between(rates[DOUBLE], 50.0, 60.0), abs=1e-4
        )

    def test_rerun_byte_identical(self, tmp_path):
        args = ["--experiment", "figure1", "--trials", "5", "--snr", "10:30:10"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_experiment(parse_args(args + ["--out", str(first)]))
        run_experiment(parse_args(args + ["--out", str(second)]))
        assert first.read_bytes() == second.read_bytes()

    def test_line_endings_are_lf(self, tmp_path):
        out = tmp_path / "fig.csv"
        spec = parse_args(
            ["--experiment", "figure1", "--trials", "2", "--snr", "10:20:10",
             "--out", str(out)]
        )
        run_experiment(spec)
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestMain:
    def test_success_exit_code(self, tmp_path, capsys):
        out = tmp_path / "dof.csv"
        rc = main(["--experiment", "dof_table", "--n-range", "1:2", "--out", str(out)])
        assert rc == 0
        assert str(out) in capsys.readouterr().out

    def test_module_error_exit_code(self, tmp_path, capsys):
        out = tmp_path / "dof.csv"
        rc = main(["--experiment", "dof_table", "--users", "2", "--out", str(out)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_precoder_overflow_exit_code(self, tmp_path, capsys):
        # at n=100 the squared column norms overflow instead of writing nan rows
        out = tmp_path / "verify_overflow.csv"
        rc = main(
            ["--experiment", "verify", "--users", "3", "--n", "100", "--coding", PLAIN,
             "--channel", IID, "--trials", "2", "--out", str(out)]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_failed_run_leaves_earlier_output_untouched(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        out.write_bytes(b"earlier,good\n1,2\n")
        rc = main(
            ["--experiment", "verify", "--users", "3", "--n", "100", "--coding", PLAIN,
             "--channel", IID, "--out", str(out)]
        )
        assert rc == 1
        assert out.read_bytes() == b"earlier,good\n1,2\n"

    def test_parse_error_exit_code(self, capsys):
        rc = main(["--experiment", "figure1", "--coding", "naive"])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    def test_help_via_subprocess(self):
        # run from the directory holding the imported package, so the child
        # imports the same copy without relying on PYTHONPATH
        proc = subprocess.run(
            [sys.executable, "-m", "symextia.cli", "--help"],
            capture_output=True,
            text=True,
            cwd=Path(symextia.__file__).parents[1],
        )
        assert proc.returncode == 0
        assert "--experiment" in proc.stdout

    def test_plain_verify_smoke(self, tmp_path):
        out = tmp_path / "verify_plain.csv"
        rc = main(
            ["--experiment", "verify", "--coding", PLAIN, "--channel", IID,
             "--trials", "2", "--n", "1", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out)
        assert all(row[11] == "pass" for row in rows[1:])

    def test_constant_is_default_channel(self):
        assert parse_args(["--experiment", "verify"]).channel_model == CONSTANT
