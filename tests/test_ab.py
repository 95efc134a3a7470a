"""tools/ab.py, the in-process base/head tool: its matrix, its CSV diff, and both modes end to end."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _in_git_work_tree() -> bool:
    try:
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                               capture_output=True, timeout=30)
    except OSError:
        return False
    return probe.returncode == 0


needs_git = pytest.mark.skipif(not _in_git_work_tree(), reason="the tool reads the base from git")


def test_matrix_reads_the_readme_the_ci_smoke_step_and_the_bench_ops(ab):
    readme = ab.readme_commands()
    assert readme[0] == ["--experiment", "dof_table", "--users", "3", "--n-range", "1:10"]
    assert len(readme) == 4
    ci = ab.ci_commands()
    # both-lines, plain, taskset and env runs and expect_exit 0, without --out or redirections
    assert ["--experiment", "audit", "--coding", "plain", "--channel", "constant", "--trials", "2"] in ci
    assert ["--experiment", "figure1", "--n", "1", "--trials", "1", "--snr=-3082:-3072:10"] in ci
    # runs that exit 1 or 2 write no CSV
    assert ["--experiment", "dof_table", "--seed", "3"] not in ci
    assert not any("--out" in args or "2>" in args for args in ci)
    assert len(ci) == len({tuple(args) for args in ci})
    bench = ab.bench_commands()
    assert len(bench) == 4 * len(ab._bench_workloads().WORKLOADS)
    assert all(args.count("--seed") == 1 for args in bench)


def test_a_workflow_without_the_smoke_step_names_the_missing_step(ab, tmp_path, monkeypatch):
    workflow = tmp_path / ".github" / "workflows" / "tests.yml"
    workflow.parent.mkdir(parents=True)
    workflow.write_text("jobs:\n  tests:\n    steps:\n      - name: Tier-1 tests\n        run: pytest\n",
                        encoding="utf-8")
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    with pytest.raises(SystemExit, match="has no '- name: CLI smoke test' step"):
        ab.ci_commands()


def test_compare_csv_names_each_moved_column(ab):
    base = b"snr_db,coding,rate\n10,naive,2\n20,naive,4\n"
    head = b"snr_db,coding,rate\n10,double,2\n20,naive,5\n"
    assert ab.compare_csv(base, head) == {
        "columns": {
            "coding": {"rows": 1, "max_abs": None, "max_rel": None},
            "rate": {"rows": 1, "max_abs": 1.0, "max_rel": 0.25},
        }
    }
    assert "shape" in ab.compare_csv(base, base + b"30,naive,6\n")


@needs_git
def test_diff_against_head_reads_same_for_the_readme_commands(tmp_path):
    # the working tree against its own HEAD: an uncommitted change that moves a
    # README CSV fails this test, as it should
    report = tmp_path / "diff.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--diff", "HEAD", "--matrix", "readme", "--json", str(report)],
        capture_output=True, text=True, timeout=600, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    entries = json.loads(report.read_text())
    assert len(entries) == 4 and all(entry["same"] for entry in entries)
    assert proc.stdout.count("same ") == 4


@needs_git
def test_time_writes_equal_csvs_in_every_pair(tmp_path):
    report = tmp_path / "time.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--time", "sweep_k3", "HEAD", "--pairs", "3", "--json", str(report)],
        capture_output=True, text=True, timeout=600, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(report.read_text())
    assert result["pairs"] == 3 and result["pairs_differing"] == []
    assert "CSVs equal in every pair" in proc.stdout
