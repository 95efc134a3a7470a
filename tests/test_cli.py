import csv
import io
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import symextia
import symextia.cj_precoder as cj_precoder
import symextia.cli as cli
import symextia.link_sim as link_sim
from symextia import ParameterError, effective_dim
from symextia.cli import ExperimentSpec, main, parse_args, run_experiment
from symextia.extension_core import CONSTANT, DOUBLE, IID, NAIVE, PLAIN

from oracles import chunk_sizes, slope_between


# The ExperimentSpec field each flag sets.
SPEC_FIELD = {flag: field for flag, (field, *_) in cli._FLAGS.items()}


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
            n_range=None,
            layer=None,
            channel_model="constant",
            coding="double",
            snr_db=None,
            trials=50,
            seed=0,
            output_path="verify.csv",
        )

    def test_coding_read_without_a_layer(self):
        spec = parse_args(["--experiment", "verify", "--coding", "naive"])
        assert spec.layer is None
        assert spec.coding == "naive"

    def test_layer_coding_conflict_rejected(self):
        # verify reads no --layer at all: the coding sets it
        with pytest.raises(ParameterError, match="verify does not use --layer"):
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
            assert spec.channel_model == "slow_changing"
            assert spec.coding == "double"

    def test_figure1_stores_no_coding_or_layer(self):
        spec = parse_args(["--experiment", "figure1"])
        assert spec.coding is None
        assert spec.layer is None
        assert cli.FIGURE1_CODINGS == (NAIVE, DOUBLE)

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

    @pytest.mark.parametrize("text", ["10:10:5", "10:14:5"])
    def test_figure1_needs_two_snr_points(self, text, tmp_path):
        # one point has no slope; the dof_estimate column would read nan
        with pytest.raises(ParameterError, match="two SNR points"):
            parse_args(["--experiment", "figure1", "--snr", text])
        assert main(["--experiment", "figure1", "--snr", text, "--out", str(tmp_path / "f.csv")]) == 2
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--experiment", "verify", "--snr", "10:60:10"],
            ["--experiment", "audit", "--snr", "10:10:5"],
            ["--experiment", "dof_table", "--snr", "0:20:5"],
            ["--experiment", "dof_table", "--trials", "7"],
            ["--experiment", "verify", "--n-range", "1:2"],
            ["--experiment", "audit", "--n-range", "1:2"],
            ["--experiment", "figure1", "--n-range", "1:2"],
            ["--experiment", "dof_table", "--coding", "naive"],
            ["--experiment", "dof_table", "--channel", "iid"],
            ["--experiment", "dof_table", "--seed", "5"],
            ["--experiment", "figure1", "--layer", "double"],
            ["--experiment", "verify", "--layer", "double"],
            ["--experiment", "audit", "--layer", "single", "--coding", "naive"],
            ["--experiment", "dof_table", "--n", "5", "--n-range", "1:2"],
        ],
    )
    def test_ignored_flags_rejected(self, flags, tmp_path):
        flag = next(f for f in flags if f.startswith("--") and f != "--experiment")
        with pytest.raises(ParameterError, match=flag):
            parse_args(flags)
        assert main(flags + ["--out", str(tmp_path / "x.csv")]) == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "experiment, flag",
        [(experiment, flag) for experiment in cli.EXPERIMENTS for flag in cli.FLAGS_READ[experiment]],
    )
    def test_every_flag_in_the_table_is_read(self, experiment, flag, tmp_path):
        # small sizes for speed; each flag of the table is accepted and changes the output
        base = {"dof_table": {}, "figure1": {"--n": "1", "--trials": "1", "--snr": "10:20:10"}}
        other = {"--users": "4", "--n": "3", "--n-range": "1:2", "--layer": "double",
                 "--channel": "iid", "--coding": "plain", "--snr": "10:30:10",
                 "--trials": "2", "--seed": "1", "--out": str(tmp_path / "other.csv")}

        def run(flags):
            flags = {"--out": str(tmp_path / "base.csv"), **flags}
            assert main(["--experiment", experiment, *(x for kv in flags.items() for x in kv)]) == 0
            return flags["--out"], Path(flags["--out"]).read_bytes()

        flags = base.get(experiment, {"--n": "1", "--trials": "1"})
        assert run({**flags, flag: other[flag]}) != run(flags)

    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_unread_fields_are_none(self, experiment):
        spec = parse_args(["--experiment", experiment])
        read = {SPEC_FIELD[flag] for flag in cli.FLAGS_READ[experiment]}
        if experiment == "dof_table":
            read.discard("n")  # its caps live in n_range alone
        for name in SPEC_FIELD.values():
            assert (getattr(spec, name) is None) == (name not in read), name

    @pytest.mark.parametrize(
        "experiment, flag",
        [(experiment, flag) for experiment in cli.EXPERIMENTS
         for flag in cli.FLAGS_READ[experiment] if flag in cli.DEFAULTS],
    )
    def test_table_default_is_the_value_of_a_left_out_flag(self, experiment, flag, tmp_path):
        # small sizes for speed, except for the flag under test
        small = {} if experiment == "dof_table" else {"--n": "1", "--trials": "1"}
        flags = [x for kv in small.items() if kv[0] != flag for x in kv]

        def run(extra, name):
            out = tmp_path / name
            assert main(["--experiment", experiment, *flags, *extra, "--out", str(out)]) == 0
            return out.read_bytes()

        assert run([], "without.csv") == run([flag, str(cli.DEFAULTS[flag])], "with.csv")

    @pytest.mark.parametrize("text", ["10:inf:10", "-inf:10:10", "10:20:inf", "nan:10:5"])
    def test_non_finite_snr_rejected(self, text, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert main(["--experiment", "figure1", f"--snr={text}", "--out", str(out)]) == 2
        assert "usage error: --snr expects finite numbers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["3000:3100:100", "-4000:-3990:10", "-3200:-3190:10"])
    def test_snr_without_a_transmit_power_rejected(self, text, tmp_path, capsys):
        # 10**(3100/10) overflows a float; 10**(-3990/10) is 0; 10**(-3200/10)
        # is subnormal, and its reciprocal overflows
        out = tmp_path / "f.csv"
        flags = ["--experiment", "figure1", "--n", "1", "--trials", "1", f"--snr={text}"]
        assert main([*flags, "--out", str(out)]) == 2
        assert "usage error:" in capsys.readouterr().err
        assert not out.exists()

    def test_snr_sweep_whose_rounded_points_repeat_rejected(self, tmp_path, capsys):
        # points are rounded to 9 decimals, so 1e-10 steps repeat 0.0 and 1e-9
        out = tmp_path / "f.csv"
        flags = ["--experiment", "figure1", "--n", "1", "--trials", "1", "--snr", "0:1e-9:1e-10"]
        assert main([*flags, "--out", str(out)]) == 2
        assert "usage error: SNR points must be strictly increasing" in capsys.readouterr().err
        assert not out.exists()

    def test_snr_just_inside_the_power_bound_runs_silently(self, tmp_path):
        # noise / P overflows at -3082 dB; the rates are 0 and nothing is printed
        out = tmp_path / "f.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "symextia.cli", "--experiment", "figure1", "--n", "1",
             "--trials", "1", "--snr=-3082:-3072:10", "--out", str(out)],
            capture_output=True,
            text=True,
            cwd=Path(symextia.__file__).parents[1],
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        rows = read_csv(out)[1:]
        assert len(rows) == 4 and all(float(row[2]) == 0.0 for row in rows)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0:10:1e-300", "budget"),  # about 1e301 points
            ("-3000:3000:5e-324", "budget"),  # the count overflows to inf
            ("0:256:9.5367431640625e-07", "budget"),  # 2**28 + 1 points, 8 bytes each
            ("3000:3000.000000001:1e-13", "float spacing"),  # value += step never moves
        ],
    )
    def test_snr_sweep_that_would_not_end_rejected_at_once(self, text, message, tmp_path):
        # in a child process with a timeout, so a regression fails instead of hanging
        out = tmp_path / "f.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "symextia.cli", "--experiment", "figure1", f"--snr={text}",
             "--out", str(out)],
            capture_output=True,
            text=True,
            cwd=Path(symextia.__file__).parents[1],
            timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage error: --snr") and message in proc.stderr
        assert not out.exists()
        start = time.perf_counter()
        with pytest.raises(ParameterError, match=message):
            cli._parse_snr(text)
        assert time.perf_counter() - start < 0.5

    def test_bad_trials_rejected(self):
        with pytest.raises(ParameterError, match="trials"):
            parse_args(["--experiment", "verify", "--trials", "0"])

    def test_unknown_experiment_exits(self):
        with pytest.raises(SystemExit):
            parse_args(["--experiment", "nonsense"])

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="--seed must be an integer >= 0"):
            parse_args(["--experiment", "verify", "--seed", "-1"])


class TestFlagTable:
    def test_computed_tables_keep_their_values(self):
        # the values the hand-written tables held; the README documents them
        assert cli.EXPERIMENTS == ("dof_table", "verify", "audit", "figure1")
        assert cli.FLAGS_READ == {
            "dof_table": ("--users", "--n", "--n-range", "--layer", "--out"),
            "verify": ("--users", "--n", "--channel", "--coding", "--trials", "--seed", "--out"),
            "audit": ("--users", "--n", "--channel", "--coding", "--trials", "--seed", "--out"),
            "figure1": ("--users", "--n", "--channel", "--snr", "--trials", "--seed", "--out"),
        }
        assert list(cli.DEFAULTS.items()) == [
            ("--users", 3), ("--n", 2), ("--layer", "single"), ("--channel", "constant"),
            ("--coding", "double"), ("--snr", "10:60:10"), ("--trials", 50), ("--seed", 0),
        ]

    def test_help_names_each_default(self, capsys):
        assert main(["--help"]) == 0
        entries, flag = {}, None
        for line in capsys.readouterr().out.split("options:")[1].splitlines():
            if line.startswith("  -"):
                flag = line.split()[0]
                entries[flag] = ""
            if flag:
                entries[flag] += " " + line
        entries = {flag: " ".join(entry.split()) for flag, entry in entries.items()}
        assert set(entries) == {"-h,", "--experiment", *SPEC_FIELD}
        for flag, default in cli.DEFAULTS.items():
            assert entries[flag].endswith(f"(default {default})"), entries[flag]

    def test_parser_is_built_once(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parse_args built a parser")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", refuse)
        assert parse_args(["--experiment", "verify"]).trials == 50


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


def _count_calls(monkeypatch, names):
    """Count calls of each named function through every module that binds it."""
    calls = Counter()
    for name in names:
        original = getattr(cj_precoder, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (cj_precoder, link_sim, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestAuditPath:
    def test_audit_builds_cascades_once_per_row_and_no_precoders(self, tmp_path, monkeypatch):
        calls = _count_calls(monkeypatch, ("build_precoders", "build_cascades"))
        rc = main(["--experiment", "audit", "--users", "3", "--n", "2", "--trials", "4",
                   "--out", str(tmp_path / "audit.csv")])
        assert rc == 0
        assert calls == Counter({"build_cascades": 4})
        calls.clear()
        rc = main(["--experiment", "verify", "--users", "3", "--n", "2", "--trials", "2",
                   "--out", str(tmp_path / "verify.csv")])
        assert rc == 0
        assert calls["build_precoders"] == 2

    def test_audit_runs_where_the_precoders_overflow(self, tmp_path, capsys):
        flags = ["--users", "3", "--n", "100", "--coding", PLAIN, "--channel", IID, "--trials", "2"]
        assert main(["--experiment", "verify", *flags, "--out", str(tmp_path / "v.csv")]) == 1
        assert "overflowed" in capsys.readouterr().err
        out = tmp_path / "a.csv"
        assert main(["--experiment", "audit", *flags, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1 + 2 * 2
        assert all(float(row[3]) > 0 for row in rows[1:])

    def test_audit_runs_beyond_the_precoder_budget(self, tmp_path):
        # K=4, n=5 precoders need about 3 GB; the cascades need D = 10901 entries each
        out = tmp_path / "audit.csv"
        assert main(["--experiment", "audit", "--users", "4", "--n", "5", "--trials", "1",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [row[2] for row in rows[1:]] == [
            "T_2_4", "T_3_2", "T_3_4", "T_4_2", "T_4_3", "kappa",
        ]

    def test_audit_row_memory_scales_with_the_channel_tensor(self, tmp_path):
        args = ["--experiment", "audit", "--users", "4", "--n", "3", "--trials", "1",
                "--out", str(tmp_path / "audit.csv")]
        run_experiment(parse_args(args))  # warm up lazy imports before tracing
        channel_bytes = 16 * 4**2 * 2 * effective_dim(4, 3)
        tracemalloc.start()
        try:
            run_experiment(parse_args(args))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the gains, the effective diagonals and one slot layer, each at most
        # the size of a dense channel tensor (a constant channel is a view of
        # one draw); a D x D pair matrix or the precoders would each be 40x or more
        assert peak <= 5 * channel_bytes


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

    def test_builds_precoders_once_per_chunk(self, tmp_path, monkeypatch):
        # the sweep_k3 benchmark op: D = 21 and 50 trials, in the chunks the module's
        # cap allows, then under a cap of 18 composites (3 chunks per coding)
        dim = effective_dim(3, 10)
        calls = _count_calls(monkeypatch, ("build_precoders", "_stacked_precoders"))
        for cap in (link_sim.ZF_STACK_BYTES, 18 * 16 * dim**2):
            monkeypatch.setattr(link_sim, "ZF_STACK_BYTES", cap)
            calls.clear()
            rc = main(["--experiment", "figure1", "--users", "3", "--n", "10", "--channel", "constant",
                       "--snr", "10:60:10", "--trials", "50", "--out", str(tmp_path / "f.csv")])
            assert rc == 0
            assert calls == Counter({"_stacked_precoders": 2 * len(chunk_sizes(50, dim))})

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

    @pytest.mark.parametrize(
        "flags",
        [["--experiment", "verify", "--users", "5", "--n", "82"],
         ["--experiment", "audit", "--users", "4", "--n", "40"]],
    )
    def test_channel_budget_exit_code(self, flags, tmp_path, capsys):
        # the channel tensor alone would need 1e24 and 1.1e11 bytes
        assert main(flags + ["--out", str(tmp_path / "x.csv")]) == 1
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--experiment", "verify", "--users", "125", "--n", "1"], "-bit number> slots"),
         (["--experiment", "dof_table", "--users", "125", "--n-range", "1:1"],
          "15250-bit numerator, too many digits to print")],
        ids=["verify_channels", "dof_table_fraction"],
    )
    def test_exact_sizes_past_the_digit_limit_exit_one(self, flags, message, tmp_path, capsys,
                                                        int_digit_limit):
        out = tmp_path / "x.csv"
        assert main(flags + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_failed_run_leaves_earlier_output_untouched(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        out.write_bytes(b"earlier,good\n1,2\n")
        rc = main(
            ["--experiment", "verify", "--users", "3", "--n", "100", "--coding", PLAIN,
             "--channel", IID, "--out", str(out)]
        )
        assert rc == 1
        assert out.read_bytes() == b"earlier,good\n1,2\n"

    @pytest.mark.parametrize("where", ["missing_parent", "directory"])
    def test_unwritable_out_exits_one_before_any_row(self, where, tmp_path, capsys, monkeypatch):
        def refuse(spec):
            raise AssertionError("computed a row for an output path that cannot be written")

        monkeypatch.setitem(cli._RUNNERS, "dof_table", refuse)
        out = tmp_path / "no" / "such" / "x.csv" if where == "missing_parent" else tmp_path
        assert main(["--experiment", "dof_table", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: output ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["empty", "long_name", "symlink_into_missing_directory"])
    def test_out_that_open_would_refuse_exits_one_before_the_runner(self, where, tmp_path, capsys, monkeypatch):
        entered = []

        def record(spec):
            entered.append(spec.experiment)
            return iter([["header"]])

        monkeypatch.setitem(cli._RUNNERS, "figure1", record)
        monkeypatch.chdir(tmp_path)
        if where == "symlink_into_missing_directory":
            (tmp_path / "link.csv").symlink_to(tmp_path / "missing" / "x.csv")
        out = {"empty": "", "long_name": "x" * 300 + ".csv", "symlink_into_missing_directory": "link.csv"}[where]
        before = sorted(tmp_path.iterdir())
        assert main(["--experiment", "figure1", "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: output ") and err.count("\n") == 1
        assert entered == []
        assert sorted(tmp_path.iterdir()) == before
        assert not (tmp_path / "missing").exists()

    def test_a_name_as_long_as_its_directory_allows_is_written(self, tmp_path):
        # the name check refuses only names longer than PC_NAME_MAX, not one at it
        try:
            limit = os.pathconf(tmp_path, "PC_NAME_MAX")
        except (AttributeError, OSError):
            pytest.skip("the system reports no longest file name for this directory")
        out = tmp_path / ("x" * (limit - len(".csv")) + ".csv")
        assert len(os.fsencode(out.name)) == limit
        assert main(["--experiment", "dof_table", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("users,n,layer")

    def test_symlink_into_an_existing_directory_writes_where_it_points(self, tmp_path):
        (tmp_path / "link.csv").symlink_to(tmp_path / "x.csv")
        assert main(["--experiment", "dof_table", "--out", str(tmp_path / "link.csv")]) == 0
        assert (tmp_path / "x.csv").read_text(encoding="utf-8").startswith("users,n,layer")

    def test_os_error_at_open_is_a_typed_error(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        out = tmp_path / "dof.csv"
        out.write_bytes(b"earlier,good\n")
        monkeypatch.setattr(cli, "open", fail, raising=False)
        with pytest.raises(ParameterError, match="cannot write output path .*Permission denied"):
            run_experiment(parse_args(["--experiment", "dof_table", "--out", str(out)]))
        assert main(["--experiment", "dof_table", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output path")
        assert out.read_bytes() == b"earlier,good\n"

    def test_os_error_on_the_spool_is_a_typed_error(self, tmp_path, capsys, monkeypatch):
        # a spool that cannot be made, or fills up as the rows are written, is blamed
        # on the temporary file and its directory, not on --out
        class FullSpool(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        def no_spool(*args, **kwargs):
            raise OSError(28, "No space left on device")

        out = tmp_path / "dof.csv"
        out.write_bytes(b"earlier,good\n")
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(cli.tempfile, "tempdir", None)  # read TMPDIR again
        for make in (no_spool, lambda *args, **kwargs: FullSpool()):
            monkeypatch.setattr(cli.tempfile, "TemporaryFile", make)
            assert main(["--experiment", "dof_table", "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write the temporary file of rows in {str(tmp_path)!r}")
            assert err.count("\n") == 1 and "No space left on device" in err and "dof.csv" not in err
            assert out.read_bytes() == b"earlier,good\n"

    def test_no_usable_temporary_directory_is_a_typed_error(self, tmp_path, capsys, monkeypatch):
        def no_directory():
            raise FileNotFoundError(2, "No usable temporary directory found in ['/missing']")

        out = tmp_path / "dof.csv"
        monkeypatch.setattr(cli.tempfile, "gettempdir", no_directory)
        assert main(["--experiment", "dof_table", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the temporary file of rows: No usable temporary directory")
        assert err.count("\n") == 1 and not out.exists()

    def test_a_run_that_raises_after_its_first_rows_leaves_earlier_output_untouched(self, tmp_path, monkeypatch):
        def header_then_fail(spec):
            yield ["users", "n"]
            yield [3, 1]
            raise ParameterError("failed after two rows")

        out = tmp_path / "dof.csv"
        out.write_bytes(b"earlier,good\n")
        monkeypatch.setitem(cli._RUNNERS, "dof_table", header_then_fail)
        assert main(["--experiment", "dof_table", "--out", str(out)]) == 1
        assert out.read_bytes() == b"earlier,good\n"

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the peak RSS from /proc")
    def test_rows_stream_in_bounded_memory(self, tmp_path):
        # 200,000 rows, a 7.6 MB CSV: held as a list they peaked at about 98 MiB,
        # streamed through the spool at about 30 MiB. The child reads its own
        # VmHWM: its ru_maxrss would count the forking test process's pages too
        out = tmp_path / "dof.csv"
        script = (
            "import sys\n"
            "from symextia.cli import main\n"
            "rc = main(['--experiment', 'dof_table', '--users', '3', '--n-range', '1:200000', '--out', sys.argv[1]])\n"
            "with open('/proc/self/status') as status:\n"
            "    print(rc, *[line.split()[1] for line in status if line.startswith('VmHWM:')])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(out)],
            capture_output=True,
            text=True,
            check=True,
            cwd=Path(symextia.__file__).parents[1],
            timeout=120,
        )
        rc, peak_kib = proc.stdout.split()[-2:]
        assert rc == "0"
        assert int(peak_kib) < 60 * 1024
        with out.open(newline="") as handle:
            assert sum(1 for _ in handle) == 200_001

    def test_parse_error_exit_code(self, capsys):
        rc = main(["--experiment", "figure1", "--coding", "naive"])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["--experiment", "nonsense"], ["--experiment", "verify", "--users", "x"]],
        ids=["unknown_choice", "non_integer"],
    )
    def test_argparse_error_returns_two(self, argv, capsys):
        assert main(argv) == 2
        assert "invalid" in capsys.readouterr().err

    def test_help_returns_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "--experiment" in capsys.readouterr().out

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        assert main(["--experiment", "verify", "--seed", "-1", "--out", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

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

    @staticmethod
    def _openblas_or_skip():
        threads = cli._openblas_threads()
        if threads is None:
            pytest.skip("no OpenBLAS loaded")
        return threads

    def test_same_bytes_at_any_openblas_thread_count(self, tmp_path, capsys):
        # at D = 275 two OpenBLAS threads write other last digits than one
        get, put = self._openblas_or_skip()
        flags = ["--experiment", "verify", "--users", "4", "--n", "2", "--trials", "1",
                 "--coding", DOUBLE, "--channel", CONSTANT]
        before = get()
        try:
            put(1)
            assert main([*flags, "--out", str(tmp_path / "one.csv")]) == 0
            put(2)
            two = get()
            assert main([*flags, "--out", str(tmp_path / "two.csv")]) == 0
            assert get() == two
        finally:
            put(before)
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    def test_failed_run_restores_the_openblas_thread_count(self, tmp_path, capsys, monkeypatch):
        get, put = self._openblas_or_skip()
        seen = []

        def fail(spec):
            seen.append(get())
            raise ParameterError("refused")

        monkeypatch.setitem(cli._RUNNERS, "dof_table", fail)
        before = get()
        try:
            put(2)
            two = get()
            assert main(["--experiment", "dof_table", "--out", str(tmp_path / "dof.csv")]) == 1
            assert (seen, get()) == ([1], two)
        finally:
            put(before)

    def test_constant_is_default_channel(self):
        assert parse_args(["--experiment", "verify"]).channel_model == CONSTANT
