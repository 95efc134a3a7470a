"""One benchmark process: set up, run a workload's ops, check them, report JSON.

Run by ``run.py`` in a fresh interpreter per measurement, with BLAS pinned to
one thread and ``src`` on ``PYTHONPATH`` through the environment. Each mode
first runs the untimed warm-up op (op 0), then ops FIRST, FIRST + 1, ...:

timed
    closed loop for AMOUNT seconds;
untraced, traced
    exactly AMOUNT ops, without or with the span tracer.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import symextia
import symextia.cli as cli
from checks import check_csv, load_reference, verdict_counts
from layers import OP_SPAN, TARGETS, layer_metrics
from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, op_argv, op_seed

ROOT = Path(__file__).resolve().parents[1]

# Bound at import, so the tracer never wraps the calibration kernel's calls.
_pinv = np.linalg.pinv


class Calibration:
    """A fixed kernel timed between ops to track the host's speed.

    On a shared host the whole CPU runs fast or slow for stretches of a
    fraction of a second to minutes, which moves every op's wall time by up
    to 1.7x. The kernel mixes what the ops spend time on: interpreter work,
    small LAPACK calls and strided elementwise passes. Dividing an op's wall
    time by the kernel's time around it cancels most of the host's drift.
    The inputs are fixed and the kernel uses numpy only, so no change to the
    package alters it. Its working set stays near 1 MiB to keep it out of
    the peak RSS.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.matrix = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        self.vector = rng.standard_normal(600) + 1j * rng.standard_normal(600)

    def run(self) -> float:
        """Run the kernel once; return its wall time in seconds."""
        start = time.perf_counter()
        for _ in range(4):
            _pinv(self.matrix)
        acc = 0
        for i in range(10_000):
            acc += i * i
        v = self.vector
        for lo in range(0, v.size, 75):
            np.abs(v[lo:lo + 75, None] - v[None, :]).min()
        return time.perf_counter() - start


def run_op(argv: list[str]) -> str:
    """One op: the CLI path a user runs, returning the path of its CSV."""
    return cli.run_experiment(cli.parse_args(argv))


class OpLoop:
    """Runs and checks the ops of one workload and seed."""

    def __init__(self, workload: str, seed: int, out: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.out = out
        self.reference: list[str] = []
        self.notes: list[str] = []
        if seed == DEFAULT_SEED:
            recorded, csvs = load_reference()
            if recorded == numeric_environment():
                self.reference = csvs[workload]
            else:
                self.notes.append(f"reference CSVs not compared: recorded under {recorded}")
        self.attempted = 0
        self.problems: list[str] = []
        self.verify_rows = 0
        self.verify_pass = 0
        self._failed_ops: set[int] = set()

    def run(self, index: int, op=run_op) -> float:
        """Run op ``index`` and check its CSV; return its wall time in seconds."""
        argv = op_argv(self.workload, self.seed, index, str(self.out))
        self.attempted += 1
        start = time.perf_counter()
        try:
            op(argv)
        except Exception as exc:  # an op that raises is counted, not fatal
            wall = time.perf_counter() - start
            self.out.unlink(missing_ok=True)
            self._fail(index, f"raised {type(exc).__name__}: {exc}")
            return wall
        wall = time.perf_counter() - start
        text = self.out.read_text(encoding="utf-8")
        self.out.unlink()
        spec = cli.parse_args(argv)
        for problem in check_csv(spec, text):
            self._fail(index, problem)
        if index < len(self.reference) and text != self.reference[index]:
            self._fail(index, "CSV differs from the recorded reference")
        if spec.experiment == "verify" and index:  # the warm-up op repeats per process
            rows, passed = verdict_counts(text)
            self.verify_rows += rows
            self.verify_pass += passed
        return wall

    def _fail(self, index: int, problem: str) -> None:
        self._failed_ops.add(index)
        self.problems.append(f"{self.workload} op {index} (seed {op_seed(self.workload, self.seed, index)}): {problem}")

    def report(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self._failed_ops),
            "problems": self.problems,
            "notes": self.notes,
            "verify_rows": self.verify_rows,
            "verify_pass": self.verify_pass,
        }


def _openblas_query(name: str, restype):
    """Call OpenBLAS's ``get_<name>`` in the loaded library, or return None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.split()[-1]})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_{name}{suffix}", None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = restype
                    return fn()
    return None


def numeric_environment() -> dict:
    """What the last digits of an op's floats depend on: numpy and its BLAS build, kernel and threads."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = _openblas_query("corename", ctypes.c_char_p)
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": core.decode() if core is not None else None,
        "blas_threads": _openblas_query("num_threads", ctypes.c_int),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        **numeric_environment(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload_seed": seed,
        "first_op_seeds": [op_seed(workload, seed, i) for i in range(3)],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("timed", "untraced", "traced"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("amount", type=float, help="seconds (timed) or ops (untraced, traced)")
    parser.add_argument("first", type=int, help="index of the first op after the warm-up")
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if not Path(symextia.__file__).resolve().is_relative_to(src):
        print(f"symextia imported from {symextia.__file__}, not from {src}", file=sys.stderr)
        return 1

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    loop = OpLoop(args.workload, args.seed, work / f"op_{os.getpid()}.csv")
    loop.run(0)
    result: dict = {"ready": time.monotonic()}

    # Ops alternate with the calibration kernel: cals[i] and cals[i + 1]
    # bracket walls[i].
    walls: list[float] = []
    calibration = Calibration()
    calibration.run()  # first call pays one-off costs
    cals = [calibration.run()]
    if args.mode == "timed":
        start = time.perf_counter()
        deadline = start + args.amount
        index = args.first
        while True:
            walls.append(loop.run(index))
            cals.append(calibration.run())
            index += 1
            if time.perf_counter() >= deadline:
                break
        result["elapsed"] = time.perf_counter() - start
        result["environment"] = environment(args.workload, args.seed)
    else:
        tracer = Tracer()
        op = tracer.wrap(OP_SPAN, run_op) if args.mode == "traced" else run_op
        targets = TARGETS if args.mode == "traced" else ()
        with tracer.installed(targets, package="symextia"):
            for index in range(args.first, args.first + int(args.amount)):
                tracer.op = index
                walls.append(loop.run(index, op))
                cals.append(calibration.run())
        if args.mode == "traced":
            result["layers"] = layer_metrics(tracer.summary(), tracer.counts)

    try:
        work.rmdir()
    except OSError:
        pass  # another worker's file is still there
    result.update(loop.report())
    result["walls"] = walls
    result["cals"] = cals
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
