"""Correctness checks on the CSV of one benchmark op.

CSVs are read by column name, so an added column does not break a check.
Each check returns a list of problems; an empty list means the CSV passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from symextia.align_verify import DISTINCTNESS_TOL, RESIDUAL_TOL

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# A constant channel saturates naive coding: its DoF slope must stay below this.
NAIVE_SLOPE_LIMIT = 1e-3


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_figure1(spec, rows) -> list[str]:
    problems = []
    expected = {"naive", "double"}
    if {r["coding"] for r in rows} != expected or len(rows) != 2 * len(spec.snr_db):
        return [f"figure1: expected {len(spec.snr_db)} rows for each of {sorted(expected)}"]
    slopes = {}
    for coding in sorted(expected):
        mine = sorted((float(r["snr_db"]), float(r["sum_rate_bits_per_use"]), float(r["dof_estimate"]))
                      for r in rows if r["coding"] == coding)
        rates = [rate for _, rate, _ in mine]
        if not all(math.isfinite(x) and x >= 0 for x in rates):
            problems.append(f"figure1 {coding}: rate not finite or negative: {rates}")
        if any(b < a for a, b in zip(rates, rates[1:])):
            problems.append(f"figure1 {coding}: rate decreases with SNR: {rates}")
        slopes[coding] = mine[-1][2]
    if not slopes["naive"] < NAIVE_SLOPE_LIMIT:
        problems.append(f"figure1: naive slope {slopes['naive']} not below {NAIVE_SLOPE_LIMIT}")
    if not slopes["double"] > slopes["naive"]:
        problems.append(f"figure1: double slope {slopes['double']} not above naive {slopes['naive']}")
    return problems


def _check_verify(spec, rows) -> list[str]:
    problems = []
    if len(rows) != spec.trials:
        problems.append(f"verify: {len(rows)} rows, expected {spec.trials}")
    for r in rows:
        residual = float(r["max_residual"])
        if not residual <= RESIDUAL_TOL:
            problems.append(f"verify row {r['row']}: max_residual {residual} above {RESIDUAL_TOL}")
        full = int(r["min_rank"]) == int(r["required_rank"])
        if (r["verdict"] == "pass") != full:
            problems.append(
                f"verify row {r['row']}: verdict {r['verdict']} with rank "
                f"{r['min_rank']}/{r['required_rank']}"
            )
    return problems


def _cascade_names(users: int) -> set[str]:
    return {
        f"T_{k}_{l}"
        for k in range(2, users + 1)
        for l in range(2, users + 1)
        if k != l and (k, l) != (2, 3)
    }


def _check_audit(spec, rows) -> list[str]:
    problems = []
    expected = _cascade_names(spec.users) | {"kappa"}
    for row in range(spec.trials):
        names = [r["quantity"] for r in rows if r["row"] == str(row)]
        if len(names) != len(expected) or set(names) != expected:
            problems.append(f"audit row {row}: quantities {sorted(names)}, expected {sorted(expected)}")
    if len(rows) != spec.trials * len(expected):
        problems.append(f"audit: {len(rows)} rows, expected {spec.trials * len(expected)}")
    for r in rows:
        flagged = float(r["min_relative_gap"]) < DISTINCTNESS_TOL
        if r["flagged"] != str(flagged).lower():
            problems.append(
                f"audit row {r['row']} {r['quantity']}: flagged={r['flagged']} "
                f"with gap {r['min_relative_gap']}"
            )
    return problems


_CHECKS = {"figure1": _check_figure1, "verify": _check_verify, "audit": _check_audit}


def check_csv(spec, text: str) -> list[str]:
    """Problems with the CSV ``text`` written by the op ``spec`` (an ExperimentSpec)."""
    try:
        return _CHECKS[spec.experiment](spec, _rows(text))
    except (KeyError, ValueError) as exc:
        return [f"{spec.experiment}: malformed CSV ({type(exc).__name__}: {exc})"]


def verdict_counts(text: str) -> tuple[int, int]:
    """(rows, rows with verdict pass) of a verify CSV."""
    rows = _rows(text)
    return len(rows), sum(r["verdict"] == "pass" for r in rows)


def load_reference() -> tuple[dict, dict[str, list[str]]]:
    """(numeric environment, CSVs per workload) of the first ops at the default seed.

    Floats near roundoff, such as residuals of 1e-15, change in their last
    printed digit with the BLAS kernel and thread count, so the CSVs are
    compared only under the numeric environment they were recorded in.
    """
    recorded = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    return recorded["environment"], recorded["csvs"]
