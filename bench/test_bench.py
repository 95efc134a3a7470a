"""Self-tests of the benchmark: tracer arithmetic and hygiene, checks, metric names.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import symextia
import symextia.cli as cli
from checks import check_csv, load_reference
from layers import OP_SPAN, TARGETS, layer_metrics, pinv_flops, svd_flops
from run import CAL_REF_MS, TRACE_METRICS, UNITS, metric_unit, op_costs
from tracer import Tracer
from worker import OpLoop, run_op
from workloads import DEFAULT_SEED, WORKLOADS, op_argv

ROOT = Path(__file__).resolve().parents[1]


def test_self_time_is_span_minus_direct_children():
    # clock readings in call order: outer, a, /a, b, c, /c, /b, /outer
    ticks = iter([0.0, 0.5, 2.0, 3.0, 3.2, 3.7, 4.0, 5.0])
    tracer = Tracer(clock=lambda: next(ticks))
    c = tracer.wrap("c", lambda: None)
    b = tracer.wrap("b", lambda: c())
    a = tracer.wrap("a", lambda: None)
    outer = tracer.wrap("outer", lambda: (a(), b()))
    outer()
    summary = tracer.summary()
    assert summary["outer"]["total_s"] == 5.0
    assert summary["outer"]["self_s"] == pytest.approx(5.0 - 1.5 - 1.0)
    assert summary["a"]["self_s"] == pytest.approx(1.5)
    assert summary["b"]["self_s"] == pytest.approx(1.0 - 0.5)
    assert summary["c"]["self_s"] == pytest.approx(0.5)
    assert sum(e["self_s"] for e in summary.values()) == pytest.approx(summary["outer"]["total_s"])
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["c"].parent_id == by_name["b"].span_id
    assert by_name["outer"].parent_id is None


def test_failed_call_is_recorded_with_its_error():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.summary()["boom"]["errors"] == Counter({"ValueError": 1})


def _bindings():
    """Every (module, name) -> object binding of a traced function."""
    originals = {id(getattr(__import__(t.module, fromlist=[t.attr]), t.attr)) for t in TARGETS}
    modules = [m for k, m in sys.modules.items() if k == "symextia" or k.startswith("symextia.")]
    modules.append(np.linalg)
    return {
        (m.__name__, key): value
        for m in modules
        for key, value in vars(m).items()
        if id(value) in originals
    }


def test_tracer_restores_every_wrapped_name():
    before = _bindings()
    assert ("symextia.cli", "check_alignment") in before
    assert ("symextia.link_sim", "build_precoders") in before
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(TARGETS, package="symextia"):
            for (module, key), original in before.items():
                assert getattr(sys.modules[module], key) is not original, (module, key)
            raise RuntimeError("leave the block early")
    assert _bindings() == before
    assert all(getattr(sys.modules[m], k) is v for (m, k), v in before.items())


@pytest.mark.parametrize("workload", ["sweep_k3", "verify_k4"])
def test_traced_op_writes_the_same_csv(tmp_path, workload):
    out = tmp_path / "op.csv"
    argv = op_argv(workload, 7, 1, str(out))
    run_op(argv)
    plain = out.read_bytes()
    tracer = Tracer()
    op = tracer.wrap(OP_SPAN, run_op)
    with tracer.installed(TARGETS, package="symextia"):
        op(argv)
    assert out.read_bytes() == plain
    summary = tracer.summary()
    root = summary[OP_SPAN]
    assert root["calls"] == 1
    assert sum(e["self_s"] for e in summary.values()) == pytest.approx(root["total_s"])
    metrics = layer_metrics(summary, tracer.counts)
    if workload == "sweep_k3":
        assert metrics["linalg.pinv.calls"] == 2 * 50 * 3  # codings x trials x receivers
        assert metrics["linalg.svd.calls"] == 0
    else:
        assert metrics["linalg.svd.calls"] == 7  # 3 bases + 4 rank certificates at K=4
        assert metrics["linalg.pinv.calls"] == 0


def test_flop_formulas():
    real = np.zeros((4, 3))
    assert svd_flops(real, compute_uv=False) == 4 * 4 * 9 - 4 * 27 / 3
    assert svd_flops(real, full_matrices=False) == 6 * 4 * 9 + 20 * 27
    assert svd_flops(real.astype(complex), full_matrices=True) == 4 * (4 * 16 * 3 + 22 * 27)
    assert pinv_flops(np.zeros((2, 4, 3), complex)) == 2 * 4 * (6 * 4 * 9 + 20 * 27 + 2 * 4 * 9)


def _reference_spec(workload: str, index: int):
    return cli.parse_args(op_argv(workload, DEFAULT_SEED, index, "unused.csv"))


def test_reference_csvs_pass_the_checks():
    _, reference = load_reference()
    assert set(reference) == set(WORKLOADS)
    for workload, texts in reference.items():
        for index, text in enumerate(texts):
            assert check_csv(_reference_spec(workload, index), text) == [], (workload, index)


def _replace_row(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.mark.parametrize(
    "workload, index, row, column, value",
    [
        ("sweep_k3", 0, 10, "sum_rate_bits_per_use", "0.001"),  # double rate decreases
        ("sweep_k3", 0, 3, "sum_rate_bits_per_use", "nan"),
        ("sweep_k3", 0, 5, "dof_estimate", "0.5"),  # naive slope not collapsed
        ("link_k4", 0, 0, "sum_rate_bits_per_use", "-1"),
        ("verify_k4", 0, 0, "verdict", "pass"),  # pass with short rank
        ("verify_k4", 1, 0, "max_residual", "1e-3"),
        ("verify_k4", 1, 0, "min_rank", "275"),  # full rank but verdict fail
        ("audit_k4", 0, 2, "flagged", "true"),
        ("audit_k4", 0, 5, "quantity", "T_2_3"),
    ],
)
def test_checks_reject_corrupted_csv(workload, index, row, column, value):
    text = load_reference()[1][workload][index]
    corrupted = _replace_row(text, row, column, value)
    assert corrupted != text
    assert check_csv(_reference_spec(workload, index), corrupted)


def test_checks_reject_missing_rows_and_columns():
    text = load_reference()[1]["audit_k4"][0]
    spec = _reference_spec("audit_k4", 0)
    assert check_csv(spec, "".join(text.splitlines(keepends=True)[:-1]))
    assert check_csv(spec, text.replace("flagged", "flag"))


def test_reference_mismatch_fails_the_op(tmp_path):
    out = tmp_path / "op.csv"
    run_op(op_argv("verify_k4", DEFAULT_SEED, 0, str(out)))
    loop = OpLoop("verify_k4", DEFAULT_SEED, out)
    loop.reference = [out.read_text(encoding="utf-8")]
    loop.run(0)
    assert loop.report()["failed"] == 0
    loop.reference = ["tampered"]
    loop.run(0)
    report = loop.report()
    assert (report["attempted"], report["failed"]) == (2, 1)
    assert "reference" in report["problems"][0]


def test_op_inputs_come_from_the_seed():
    assert op_argv("link_k4", 3, 5, "x") == op_argv("link_k4", 3, 5, "x")
    assert op_argv("link_k4", 3, 5, "x") != op_argv("link_k4", 4, 5, "x")
    kinds = {tuple(op_argv("verify_k4", 0, i, "x")[:-4]) for i in range(4)}
    assert len(kinds) == 2


def test_op_cost_divides_by_the_calibration_around_it():
    report = {"walls": [0.2, 0.3], "cals": [0.004, 0.006, 0.01]}
    assert op_costs(report) == pytest.approx([CAL_REF_MS * 0.2 / 0.005, CAL_REF_MS * 0.3 / 0.008])


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == UNITS
    per_layer = set(layer_metrics({}, Counter())) | set(TRACE_METRICS)
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert all(m["unit"] == metric_unit(m["name"]) for m in spec["per_layer"])


def test_package_comes_from_this_checkout():
    assert Path(symextia.__file__).resolve().is_relative_to(ROOT / "src")
