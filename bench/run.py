"""Symextia benchmark: end-to-end metrics per workload, or a per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. ``--workload all`` runs every workload in turn.
Measurements run in fresh worker processes (``worker.py``) that import the
package from ``src``, with BLAS pinned to one thread. With ``--trace 0`` five
processes in turn each set up and run a fifth of the timed ops, and the run
reports the end-to-end metrics; with ``--trace 1`` a traced and an untraced
process run the same fixed ops and the run reports per-layer metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS, layer_unit
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Worker processes per end-to-end run. Each is one set-up sample and runs a
# share of the timed ops, so set-ups spread over the run and per-process
# effects such as memory layout average out.
PROCESSES = 5
# The timed ops of process k start at op k * OP_STRIDE + 1.
OP_STRIDE = 100_000
# A run must end within 180 s; leave room for reporting.
RUN_DEADLINE_S = 170.0

# Reference host speed: the one at which the calibration kernel (worker.py)
# takes this long. Op times are reported at that speed ("ref_ms").
CAL_REF_MS = 5.0

# The end-to-end metrics of BENCHMARK.json, each with a regression bound.
UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/ref_s",
    "op_ms_p50": "ref_ms",
    "op_ms_p75": "ref_ms",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}
# Printed beside them but not bounded: raw wall times move with the host's
# speed by more than any usable bound (README.md).
UNBOUNDED_UNITS = {
    "wall_ops_per_s": "op/s",
    "wall_op_ms_p50": "ms",
    "wall_op_ms_p75": "ms",
    "wall_op_ms_min": "ms",
    "calibration_ms_p50": "ms",
    "error_rate": "ratio",
    "verdict_pass_share": "ratio",
}

TRACE_METRICS = ("trace.ops", "trace.op_wall_s", "trace.overhead_ratio", "trace.coverage")


def metric_unit(name: str) -> str:
    return UNITS.get(name) or layer_unit(name)


class BenchError(Exception):
    pass


def spawn(mode: str, workload: str, seed: int, amount: float, first: int, deadline: float) -> dict:
    """Run one worker process to completion and return its report.

    ``setup_s`` is added: from just before the interpreter starts to the end
    of the warm-up op.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(amount), str(first)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{mode} worker for {workload} printed no report") from exc
    report["setup_s"] = report["ready"] - started
    return report


def op_costs(report: dict) -> list[float]:
    """Each op's wall time at the reference host speed, in ms.

    An op's wall time is divided by the mean of the two calibration runs
    around it and scaled to a calibration time of ``CAL_REF_MS``.
    """
    walls, cals = report["walls"], report["cals"]
    return [CAL_REF_MS * wall / ((cals[i] + cals[i + 1]) / 2) for i, wall in enumerate(walls)]


def _p75(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def _tally(reports: list[dict]) -> tuple[int, int, list[str]]:
    return (
        sum(r["attempted"] for r in reports),
        sum(r["failed"] for r in reports),
        [p for r in reports for p in r["problems"]],
    )


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, list[dict]]:
    reports = [
        spawn("timed", workload, seed, seconds / PROCESSES, k * OP_STRIDE + 1, deadline)
        for k in range(PROCESSES)
    ]
    attempted, failed, _ = _tally(reports)
    walls = [wall for r in reports for wall in r["walls"]]
    cals = [cal for r in reports for cal in r["cals"]]
    costs = [cost for r in reports for cost in op_costs(r)]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "ops_per_s": 1e3 / statistics.fmean(costs),
        "op_ms_p50": statistics.median(costs),
        "op_ms_p75": _p75(costs),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "success_rate": 1.0 - failed / attempted,
    }
    unbounded = {
        "wall_ops_per_s": len(walls) / sum(walls),
        "wall_op_ms_p50": statistics.median(walls) * 1e3,
        "wall_op_ms_p75": _p75(walls) * 1e3,
        "wall_op_ms_min": min(walls) * 1e3,
        "calibration_ms_p50": statistics.median(cals) * 1e3,
        "error_rate": failed / attempted,
    }
    rows = sum(r["verify_rows"] for r in reports)
    if rows:
        unbounded["verdict_pass_share"] = sum(r["verify_pass"] for r in reports) / rows
    samples = {
        "setup_s": f"median of {len(reports)} set-ups",
        "op_ms_p50": f"n={len(walls)}",
        "op_ms_p75": f"n={len(walls)}",
        "wall_op_ms_p50": f"n={len(walls)}",
        "wall_op_ms_p75": f"n={len(walls)}",
        "wall_op_ms_min": f"best of n={len(walls)}",
        "calibration_ms_p50": f"n={len(cals)}",
        "error_rate": f"{failed}/{attempted} ops, warm-ups included",
        "verdict_pass_share": f"{rows} verify rows",
    }
    print(f"environment: {json.dumps(reports[0]['environment'])}")
    print(f"{workload}: {len(walls)} timed ops in {PROCESSES} processes, "
          f"{sum(r['elapsed'] for r in reports):.3f} s with calibration")
    for title, values, units in (("bounded", metrics, UNITS), ("unbounded", unbounded, UNBOUNDED_UNITS)):
        print(f" {title}:")
        for name, value in values.items():
            note = f"  ({samples[name]})" if name in samples else ""
            print(f"  {name:<20} {value:.6g} {units[name]}{note}")
    return metrics, reports


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, list[dict]]:
    ops = WORKLOADS[workload].trace_ops
    untraced = spawn("untraced", workload, seed, ops, 1, deadline)
    traced = spawn("traced", workload, seed, ops, 1, deadline)
    metrics = dict(traced["layers"])
    op_wall = sum(traced["walls"])
    metrics["trace.ops"] = len(traced["walls"])
    metrics["trace.op_wall_s"] = op_wall
    metrics["trace.overhead_ratio"] = statistics.fmean(op_costs(traced)) / statistics.fmean(op_costs(untraced))
    metrics["trace.coverage"] = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) / op_wall
    print(f"{workload}: traced {ops} ops in {op_wall:.3f} s; self time by layer:")
    for layer in sorted(LAYERS, key=lambda l: -metrics[f"{l}.self_s"]):
        share = metrics[f"{layer}.self_s"] / op_wall
        print(f"  {layer:<16} {metrics[f'{layer}.self_s']:.4f} s  {share:6.1%}")
    for name, value in metrics.items():
        print(f"  {name:<50} {value:.6g} {metric_unit(name)}")
    return metrics, [untraced, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the symextia benchmark.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        if not (ROOT / "src" / "symextia" / "__init__.py").is_file():
            raise BenchError(f"no symextia package under {ROOT / 'src'}")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        metrics: dict[str, dict] = {}
        reports: list[dict] = []
        for name in names:
            deadline = time.monotonic() + RUN_DEADLINE_S
            if args.trace:
                found, made = per_layer(name, args.seed, deadline)
            else:
                found, made = end_to_end(name, args.seed, args.seconds, deadline)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update(
                {prefix + key: {"value": value, "unit": metric_unit(key)} for key, value in found.items()}
            )
            reports += made
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = _tally(reports)
    for note in sorted({note for r in reports for note in r["notes"]}):
        print(f"note: {note}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
