"""Benchmark workloads: the CLI flags of each op and the seed it runs with.

Every op is one ``symextia.cli.run_experiment(parse_args([...]))`` call.
Ops run closed loop with one client: each starts when the previous ends.
Op seeds derive from the workload seed only, so a workload seed fixes
every input of a run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # One flag list per op kind; op i uses kinds[i % len(kinds)].
    kinds: tuple[tuple[str, ...], ...]
    # Ops per process of the traced run (fixed, so that its counts repeat).
    trace_ops: int


def _flags(text: str) -> tuple[str, ...]:
    return tuple(text.split())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_k3",
            "K=3 n=10 figure1 (D=21): many tiny trials; pinv calls, gain draws, "
            "precoders and per-trial Python overhead share the time",
            (_flags("--experiment figure1 --users 3 --n 10 --channel constant "
                    "--snr 10:60:10 --trials 50"),),
            trace_ops=40,
        ),
        Workload(
            "link_k4",
            "K=4 n=2 figure1 (D=275), one trial per coding: the ZF pseudoinverse "
            "dominates; never calls the alignment check",
            (_flags("--experiment figure1 --users 4 --n 2 --channel constant "
                    "--snr 10:60:10 --trials 1"),),
            trace_ops=20,
        ),
        Workload(
            "verify_k4",
            "K=4 n=2 verify (D=275), double/constant and plain/iid alternating: "
            "SVD rank certificates dominate; never calls the ZF path",
            (
                _flags("--experiment verify --users 4 --n 2 --trials 1 "
                       "--coding double --channel constant"),
                _flags("--experiment verify --users 4 --n 2 --trials 1 "
                       "--coding plain --channel iid"),
            ),
            trace_ops=40,
        ),
        Workload(
            "audit_k4",
            "K=4 n=3 audit (D=1267, 1105 precoder columns): pairwise eigenvalue "
            "gaps and large-tuple precoders, no dense factorisation",
            (_flags("--experiment audit --users 4 --n 3 --coding double "
                    "--channel constant --trials 1"),),
            trace_ops=16,
        ),
    )
}


def op_seed(workload: str, seed: int, index: int) -> int:
    """Seed of op ``index`` (0 is the warm-up op) of a run with workload seed ``seed``."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def op_argv(workload: str, seed: int, index: int, out: str) -> list[str]:
    """CLI flags of op ``index``, writing its CSV to ``out``."""
    kinds = WORKLOADS[workload].kinds
    return [*kinds[index % len(kinds)], "--seed", str(op_seed(workload, seed, index)), "--out", out]
