"""Record the reference CSVs that the benchmark compares ops against.

    python3 bench/record_reference.py

Runs the first ``REFERENCE_OPS`` ops of every workload at the default seed
and writes their CSVs to ``reference.json``, with the numeric environment
(numpy, BLAS build, kernel and threads) they were made under. At the default
seed, under that environment, every run of the benchmark then requires those
ops to reproduce the CSVs byte for byte.
Re-record only when a change is meant to alter the CSVs.
"""

from __future__ import annotations

import os

# Same BLAS pinning as the benchmark workers, before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import REFERENCE_PATH  # noqa: E402
from worker import numeric_environment, run_op  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, op_argv  # noqa: E402

REFERENCE_OPS = 4


def main() -> int:
    reference: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        out = Path(tmp) / "op.csv"
        for name in WORKLOADS:
            reference[name] = []
            for index in range(REFERENCE_OPS):
                run_op(op_argv(name, DEFAULT_SEED, index, str(out)))
                reference[name].append(out.read_text(encoding="utf-8"))
    recorded = {"environment": numeric_environment(), "csvs": reference}
    REFERENCE_PATH.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
