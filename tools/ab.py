"""Compare a git revision of symextia with the working tree, in one process.

    python3 tools/ab.py --diff REV [--matrix readme,ci,bench] [--json PATH]
    python3 tools/ab.py --time WORKLOAD REV [--pairs N] [--seed S] [--json PATH]

The head is the working tree's ``src/symextia``. The base is REV's
``src/symextia``, extracted with ``git archive`` into a temporary directory
and imported as the package ``symextia_base`` (every import inside the
package is relative). Both run on one numpy, whose OpenBLAS is held at one
thread for the whole run, as ``symextia.cli.main`` holds it, so neither
side's CSV bytes depend on the BLAS thread count.

``--diff`` runs one fixed matrix of commands through both packages'
``run_experiment``: the README's commands (``readme``), every CSV command of
the CI smoke step (``ci``) and the first four ops of each benchmark workload
at workload seed 0 (``bench``). Per command it prints ``same``, or each
column that moved with the rows it moved in and its largest absolute and
relative change. It writes the same to ``--json`` and exits 1 when anything
moved.

``--time`` alternates the two ``run_experiment`` calls of one benchmark
workload's op in pairs, in a shuffled order per pair and with the op seed
of the pair's index, after one warm-up op each. It byte-compares the two
CSVs of every pair and reports the median of the per-pair head/base time
ratios with a bootstrap interval. It exits 1 when any pair's CSVs differ.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import importlib.util
import io
import json
import math
import random
import shlex
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BASE_PACKAGE = "symextia_base"
SMOKE_STEP = "- name: CLI smoke test"
BENCH_OPS = 4  # ops 0..3 of each workload in the diff matrix
BOOTSTRAP = 2000


class Build:
    """One revision's ``symextia`` package: its CLI module and its error base class."""

    def __init__(self, package: str) -> None:
        self.cli = importlib.import_module(f"{package}.cli")
        self.error = importlib.import_module(f"{package}.errors").SymextiaError

    def run(self, args: list[str], out: Path) -> tuple[bytes | None, str | None]:
        """The CSV bytes ``args`` write through ``run_experiment``, or the error the run raised."""
        try:
            self.cli.run_experiment(self.cli.parse_args([*args, "--out", str(out)]))
        except self.error as exc:
            return None, f"{type(exc).__name__}: {exc}"
        except SystemExit as exc:  # argparse refused a flag this revision lacks
            return None, f"usage error (exit {exc.code})"
        return out.read_bytes(), None


def load_head() -> Build:
    sys.path.insert(0, str(ROOT / "src"))
    head = Build("symextia")
    if Path(head.cli.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"symextia imported from {head.cli.__file__}, not from {ROOT / 'src'}")
    return head


def load_base(rev: str, into: Path) -> Build:
    """REV's ``src/symextia``, extracted under ``into`` and imported as ``symextia_base``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/symextia"],
        capture_output=True, check=False,
    )
    if archive.returncode:
        raise SystemExit(f"git archive {rev}: {archive.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        # the "data" filter where this Python has it (3.10.12 on); the archive is the repository's own
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    package = into / "src" / "symextia"
    spec = importlib.util.spec_from_file_location(
        BASE_PACKAGE, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[BASE_PACKAGE] = module
    spec.loader.exec_module(module)
    return Build(BASE_PACKAGE)


def _bench_workloads():
    """``bench/workloads.py``, the benchmark's op flags and op seeds, imported as ``bench_workloads``."""
    if "bench_workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
        sys.modules["bench_workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["bench_workloads"])
    return sys.modules["bench_workloads"]


def _without_out(words: list[str]) -> list[str]:
    """CLI flags with ``--out`` and its value, and any shell redirection, left out."""
    kept, skip = [], False
    for word in words:
        if skip:
            skip = False
        elif word == "--out":
            skip = True
        elif word.lstrip("0123456789").startswith(">"):
            break
        else:
            kept.append(word)
    return kept


def readme_commands() -> list[list[str]]:
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    return [_without_out(shlex.split(line)[1:]) for line in lines if line.startswith("symextia --experiment")]


def ci_commands() -> list[list[str]]:
    """The flags of each CSV the CI smoke step writes, once each, in order.

    A command is a ``both OUT ...`` line, a ``symextia ...`` run (also
    behind ``taskset``, ``env`` or ``expect_exit 0``); the runs expected to
    fail write no CSV and are left out.
    """
    path = ROOT / ".github" / "workflows" / "tests.yml"
    parts = path.read_text(encoding="utf-8").split(SMOKE_STEP, 1)
    if len(parts) == 1:
        raise SystemExit(f"{path} has no {SMOKE_STEP!r} step to read the CI commands from")
    step = parts[1].split("- name:", 1)[0]
    commands: list[list[str]] = []
    for line in step.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["both"]:
            args = words[2:]
        elif "symextia" in words and (words[0] != "expect_exit" or words[1] == "0"):
            args = words[words.index("symextia") + 1:]
        else:
            continue
        args = _without_out(args)
        if args[:1] == ["--experiment"] and args not in commands:
            commands.append(args)
    return commands


def bench_commands() -> list[list[str]]:
    workloads = _bench_workloads()
    return [
        _without_out(workloads.op_argv(name, workloads.DEFAULT_SEED, index, ""))
        for name in workloads.WORKLOADS
        for index in range(BENCH_OPS)
    ]


MATRIX = {"readme": readme_commands, "ci": ci_commands, "bench": bench_commands}


def _change(base: str, head: str) -> tuple[float, float] | None:
    """Absolute and relative change of one cell, or None when either side is not a number."""
    try:
        b, h = float(base), float(head)
    except ValueError:
        return None
    delta = abs(h - b)
    if math.isnan(delta):
        delta = math.inf
    return delta, (delta / abs(b) if b else math.inf)


def compare_csv(base: bytes, head: bytes) -> dict:
    """Each column that moved: its rows moved and its largest absolute and relative change."""
    base_rows = list(csv.reader(io.StringIO(base.decode("utf-8"))))
    head_rows = list(csv.reader(io.StringIO(head.decode("utf-8"))))
    if base_rows[:1] != head_rows[:1] or len(base_rows) != len(head_rows):
        return {"shape": f"base {len(base_rows)} rows of {base_rows[:1]}, head {len(head_rows)} of {head_rows[:1]}"}
    columns = {}
    for col, name in enumerate(base_rows[0]):
        cells = [(b[col], h[col]) for b, h in zip(base_rows[1:], head_rows[1:]) if b[col] != h[col]]
        if not cells:
            continue
        changes = [_change(b, h) for b, h in cells]
        numeric = None not in changes
        columns[name] = {
            "rows": len(cells),
            "max_abs": max(c[0] for c in changes) if numeric else None,
            "max_rel": max(c[1] for c in changes) if numeric else None,
        }
    return {"columns": columns}


def diff(base: Build, head: Build, sources: list[str], scratch: Path) -> list[dict]:
    results = []
    for source in sources:
        for args in MATRIX[source]():
            got = {side: build.run(args, scratch / f"{side}.csv") for side, build in (("base", base), ("head", head))}
            (base_csv, base_error), (head_csv, head_error) = got["base"], got["head"]
            entry = {"source": source, "command": shlex.join(args), "same": got["base"] == got["head"]}
            if base_error or head_error:
                entry.update(base_error=base_error, head_error=head_error)
            elif not entry["same"]:
                entry.update(compare_csv(base_csv, head_csv))
            results.append(entry)
            print(_describe(entry), flush=True)
    return results


def _describe(entry: dict) -> str:
    lines = [f"{'same' if entry['same'] else 'moved':5}  {entry['source']:6} {entry['command']}"]
    if not entry["same"]:
        if "base_error" in entry:
            lines.append(f"         base: {entry['base_error'] or 'wrote a CSV'}")
            lines.append(f"         head: {entry['head_error'] or 'wrote a CSV'}")
        elif "shape" in entry:
            lines.append(f"         {entry['shape']}")
        for name, moved in entry.get("columns", {}).items():
            size = ("not numeric" if moved["max_abs"] is None
                    else f"largest abs {moved['max_abs']:.6g}, rel {moved['max_rel']:.6g}")
            lines.append(f"         {name}: {moved['rows']} rows, {size}")
    return "\n".join(lines)


def time_pairs(base: Build, head: Build, workload: str, pairs: int, seed: int, scratch: Path) -> dict:
    workloads = _bench_workloads()
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    order = random.Random(seed)
    sides = {"base": base, "head": head}
    times: dict[str, list[float]] = {"base": [], "head": []}
    differ = []
    for index in range(pairs + 1):  # op 0 warms both sides up and is not counted
        args = _without_out(workloads.op_argv(workload, seed, index, ""))
        written = {}
        for side in order.sample(sorted(sides), 2):
            start = time.perf_counter()
            written[side] = sides[side].run(args, scratch / f"{side}.csv")
            elapsed = time.perf_counter() - start
            if index:
                times[side].append(elapsed)
        if written["base"] != written["head"] or written["head"][0] is None:
            differ.append(index)
    ratios = np.array(times["head"]) / np.array(times["base"])
    resampled = np.median(np.random.default_rng(seed).choice(ratios, (BOOTSTRAP, ratios.size)), axis=1)
    low, high = np.percentile(resampled, [2.5, 97.5])
    return {
        "workload": workload,
        "seed": seed,
        "pairs": pairs,
        "pairs_differing": differ,
        "ratio_median": float(np.median(ratios)),
        "ratio_interval_95": [float(low), float(high)],
        "ratio_quartiles": [float(q) for q in np.percentile(ratios, [25, 75])],
        "head_faster": int(np.sum(ratios < 1)),
        "base_ms_median": 1e3 * float(np.median(times["base"])),
        "head_ms_median": 1e3 * float(np.median(times["head"])),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--diff", metavar="REV", help="compare the CSVs of the command matrix with REV's")
    mode.add_argument("--time", nargs=2, metavar=("WORKLOAD", "REV"), help="time WORKLOAD's op against REV's")
    parser.add_argument("--matrix", default=",".join(MATRIX),
                        help=f"comma-separated parts of the diff matrix (default {','.join(MATRIX)})")
    parser.add_argument("--pairs", type=int, default=40, help="timed pairs (default 40)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed of the timed ops (default 0)")
    parser.add_argument("--json", metavar="PATH", help="also write the report as JSON to PATH")
    args = parser.parse_args(argv)
    sources = args.matrix.split(",")
    if not set(sources) <= set(MATRIX) or args.pairs < 1:
        parser.error(f"--matrix takes parts of {','.join(MATRIX)} and --pairs at least 1")

    head = load_head()
    threads = head.cli._openblas_threads()
    if threads:  # one thread for both sides, for the whole process
        threads[1](1)
    with tempfile.TemporaryDirectory(prefix="symextia-ab-") as scratch:
        base = load_base(args.diff or args.time[1], Path(scratch))
        if args.diff:
            report = diff(base, head, sources, Path(scratch))
            status = 0 if all(entry["same"] for entry in report) else 1
        else:
            report = time_pairs(base, head, args.time[0], args.pairs, args.seed, Path(scratch))
            print(
                f"{report['workload']}: head/base {report['ratio_median']:.3f} "
                f"(95% bootstrap {report['ratio_interval_95'][0]:.3f}-{report['ratio_interval_95'][1]:.3f}, "
                f"quartiles {report['ratio_quartiles'][0]:.3f}-{report['ratio_quartiles'][1]:.3f}), "
                f"head faster in {report['head_faster']}/{report['pairs']} pairs; "
                f"median {report['base_ms_median']:.2f} -> {report['head_ms_median']:.2f} ms; "
                f"CSVs {'equal in every pair' if not report['pairs_differing'] else 'DIFFER'}"
            )
            status = 1 if report["pairs_differing"] else 0
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
