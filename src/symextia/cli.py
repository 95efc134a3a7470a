"""Command-line front end writing the standard experiment tables as CSV.

Experiments
-----------
dof_table
    Closed-form degrees of freedom over a range of exponent caps.
verify
    Per-seed alignment residuals and rank certificates.
audit
    Per-seed cascade and kappa distinctness gaps.
figure1
    Naive versus double-layered sum rate over an SNR sweep on one channel
    model, with the high-SNR slope per coding.

Each experiment reads the flags ``FLAGS_READ`` lists for it; a flag it reads
but the command line leaves out takes its value from ``DEFAULTS``, and the
``ExperimentSpec`` holds None for every flag it does not read. Both are
computed from one table with one row per flag, and so is the argparse
parser, built once at import.

All output is deterministic for the recorded seed: CSV files are UTF-8 with
LF line endings, floats printed to 6 significant digits (exact-dof floats to
6 decimal places), so reruns are byte-identical; ``main`` holds a loaded
OpenBLAS at one thread for the run, so they are at any BLAS thread count.
Exit status is 0 on success, 2 on a flag parsing problem (including any
flag the experiment does not read, ``--n`` together with ``--n-range``, a
negative ``--seed``, an ``--snr`` bound that is not finite or has no
usable transmit power, an ``--snr`` sweep with more float64 points than
``BYTE_BUDGET`` holds, a step too small to move it or points that repeat
once rounded, and flags that could never run), and 1 when a module rejects the run (an exact dof
with more digits than the interpreter prints included) or the output path
cannot be written. An output path that is a directory, lies in no existing
directory or is not writable is refused before any row is computed, and
the CSV is opened only after every row is computed, so a run that fails
before then leaves the output path as it was.

SNR is defined against unit-variance receiver noise: at ``--snr`` point
``s`` dB each user's expected transmit power per raw slot is ``10**(s/10)``.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .align_verify import check_alignment, distinctness_audit
from .cj_precoder import LAYERS, SINGLE_LAYER, build_cascades, closed_form_dof, effective_dim
from .errors import CapacityError, ParameterError, SymextiaError
from .extension_core import (
    BYTE_BUDGET,
    CHANNEL_MODELS,
    CODING_MODES,
    CONSTANT,
    DOUBLE,
    NAIVE,
    SLOW_CHANGING,
    ChannelSet,
    _STREAMS,
    _check_int,
    generate_channels,
    slot_fold,
    subseed,
)
from .link_sim import LinkConfig, _sweep_powers, draw_realization, draw_until_built, simulate_link, snr_power

# figure1 contrasts naive coding on one layer with double coding on two,
# on the same channel draw.
FIGURE1_CODINGS = (NAIVE, DOUBLE)


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved parameters of one experiment, ready to run.

    Every field the experiment does not read (see ``FLAGS_READ``) is None,
    and so is dof_table's ``n``, since it keeps its caps in ``n_range`` alone.
    """

    experiment: str
    users: int
    n: int | None
    n_range: tuple[int, int] | None
    layer: str | None
    channel_model: str | None
    coding: str | None
    snr_db: tuple[float, ...] | None
    trials: int | None
    seed: int | None
    output_path: str


def _fmt(value: float) -> str:
    return format(float(value), ".6g")


def _parse_colon_ints(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ParameterError(f"{flag} expects lo:hi, got {text!r}")
    try:
        lo, hi = (int(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(f"{flag} expects integers, got {text!r}") from exc
    if lo > hi:
        raise ParameterError(f"{flag} expects lo <= hi, got {text!r}")
    return lo, hi


def _parse_snr(text: str) -> tuple[float, ...]:
    """figure1's sweep points; at least two, each with a usable transmit power.

    Points are ``lo, lo + step, ...`` accumulated up to ``hi`` and rounded
    to 9 decimals. Their count is worked out first, and a sweep whose
    float64 points would exceed ``BYTE_BUDGET``, or whose step cannot move
    a point, is refused before any point is made; so, like ``LinkConfig``,
    is one whose rounded points repeat.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"--snr expects lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(f"--snr expects numbers, got {text!r}") from exc
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ParameterError(f"--snr expects finite numbers, got {text!r}")
    if step <= 0 or hi < lo:
        raise ParameterError(f"--snr expects lo <= hi and step > 0, got {text!r}")
    # the power grows with the point, so the two ends bound the whole sweep
    snr_power(lo)
    snr_power(hi)
    # counted before the loop below, which a tiny step would keep going
    # for ever or past the memory budget
    count = (hi + 1e-9 - lo) / step + 1
    if 8 * count > BYTE_BUDGET:
        raise ParameterError(
            f"--snr {text!r} has about {count:.3g} points, more than the "
            f"{BYTE_BUDGET}-byte budget holds as float64"
        )
    # a step of one float spacing at the largest magnitude moves every point
    edge = max(abs(lo), abs(hi) + 1e-9)
    if step < math.ulp(edge):
        raise ParameterError(f"--snr step {step!r} is below the float spacing at {edge:g} dB")
    points = []
    value = lo
    while value <= hi + 1e-9:
        points.append(round(value, 9))
        value += step
    if len(points) < 2:
        raise ParameterError(f"figure1 needs at least two SNR points for its DoF slope, got {text!r}")
    _sweep_powers(points)  # rounding can repeat a point
    return tuple(points)


def _run_dof_table(spec: ExperimentSpec) -> Iterator[list]:
    yield ["users", "n", "layer", "dof_exact_num", "dof_exact_den", "dof_float"]
    for n in range(spec.n_range[0], spec.n_range[1] + 1):
        dof = closed_form_dof(spec.users, n, spec.layer)
        try:
            exact = [str(dof.numerator), str(dof.denominator)]
        except ValueError as exc:  # past the interpreter's int -> str digit limit
            raise CapacityError(
                f"the exact dof at users={spec.users}, n={n} has a "
                f"{dof.numerator.bit_length()}-bit numerator, too many digits to print"
            ) from exc
        yield [spec.users, n, spec.layer, *exact, f"{float(dof):.6f}"]


def _channels(spec: ExperimentSpec, coding: str, *key: int) -> ChannelSet:
    """Channels sized for ``coding``'s layers at (users, n), drawn from ``key``."""
    return generate_channels(
        spec.users, slot_fold(coding) * effective_dim(spec.users, spec.n), spec.channel_model,
        subseed(spec.seed, _STREAMS["channels"], *key),
    )


def _run_verify(spec: ExperimentSpec) -> Iterator[list]:
    yield ["row", "seed", "users", "n", "layer", "channel", "coding",
           "max_residual", "min_rank", "required_rank", "min_margin", "verdict"]
    layer = LAYERS[slot_fold(spec.coding) - 1]  # one layer per folded raw slot
    for row in range(spec.trials):
        channels = _channels(spec, spec.coding, row)
        _, eff, pre, _ = draw_realization(channels, spec.coding, subseed(spec.seed, _STREAMS["link"], row))
        report = check_alignment(eff, pre)
        ranks = report.rank_results.values()
        yield [row, spec.seed, spec.users, spec.n, layer, spec.channel_model, spec.coding,
               _fmt(max(report.residuals.values())),
               min(r.rank for r in ranks), eff.dim,
               _fmt(min(r.margin for r in ranks)), report.verdict]


def _run_audit(spec: ExperimentSpec) -> Iterator[list]:
    yield ["row", "seed", "quantity", "min_relative_gap", "flagged"]
    for row in range(spec.trials):
        # the audit reads the cascades only, so a draw is usable once they build
        _, _, cascades, _ = draw_until_built(
            _channels(spec, spec.coding, row), spec.coding, subseed(spec.seed, _STREAMS["link"], row),
            build_cascades,
        )
        audit = distinctness_audit(cascades)
        flagged = audit.flagged
        gaps = [(f"T_{k}_{l}", gap) for (k, l), gap in sorted(audit.lambda_gaps.items())]
        for name, gap in [*gaps, ("kappa", audit.kappa_gap)]:
            yield [row, spec.seed, name, _fmt(gap), str(name in flagged).lower()]


def _run_figure1(spec: ExperimentSpec) -> Iterator[list]:
    yield ["snr_db", "coding", "sum_rate_bits_per_use", "dof_estimate", "trials", "seed"]
    for idx, coding in enumerate(FIGURE1_CODINGS):
        # constant-model draws share the same base matrix across both
        # extension lengths, so the two codings see one physical channel
        channels = _channels(spec, coding)
        link = LinkConfig(spec.snr_db, spec.trials, seed=subseed(spec.seed, _STREAMS["link"], idx))
        result = simulate_link(channels, coding, link)
        dof = _fmt(result.dof_estimate)
        for snr in spec.snr_db:
            yield [_fmt(snr), coding, _fmt(result.sum_rate[snr]), dof, spec.trials, spec.seed]


# Each experiment and the runner that yields its CSV rows, header first.
_RUNNERS = {"dof_table": _run_dof_table, "verify": _run_verify, "audit": _run_audit, "figure1": _run_figure1}
EXPERIMENTS = tuple(_RUNNERS)
_DRAWS = ("verify", "audit", "figure1")  # the experiments that draw channels

# One row per flag but --experiment: the ExperimentSpec field it sets, its
# argparse keywords and help text, the experiments that read it, and the
# value it takes when one of them runs without it (None for --n-range, which
# falls back to the cap --n, and --out, to <experiment>.csv). A flag given to
# an experiment that does not read it exits 2, since the run would ignore it.
# The layer is a flag of dof_table only: verify and audit draw one layer per
# raw slot their --coding folds, and figure1 always runs FIGURE1_CODINGS.
_FLAGS = {
    "--users": ("users", {"type": int}, "number of user pairs K", EXPERIMENTS, 3),
    "--n": ("n", {"type": int}, "exponent cap n", EXPERIMENTS, 2),
    "--n-range": ("n_range", {"metavar": "LO:HI"}, "inclusive cap range for dof_table, not with --n",
                  ("dof_table",), None),
    "--layer": ("layer", {"choices": LAYERS}, "symbol-extension layering for dof_table",
                ("dof_table",), SINGLE_LAYER),
    "--channel": ("channel_model", {"choices": CHANNEL_MODELS}, "channel model", _DRAWS, CONSTANT),
    "--coding": ("coding", {"choices": CODING_MODES}, "coding mode for verify/audit; sets the layer",
                 ("verify", "audit"), DOUBLE),
    "--snr": ("snr_db", {"metavar": "LO:HI:STEP"},
              "SNR sweep in dB for figure1; write a negative sweep as --snr=-10:0:5", ("figure1",), "10:60:10"),
    "--trials": ("trials", {"type": int}, "Monte Carlo trials, or seeds per table row", _DRAWS, 50),
    "--seed": ("seed", {"type": int}, "experiment seed", _DRAWS, 0),
    "--out": ("output_path", {"metavar": "OUT"}, "output CSV path (default <experiment>.csv)",
              EXPERIMENTS, None),
}
FLAGS_READ = {e: tuple(flag for flag, (*_, readers, _) in _FLAGS.items() if e in readers) for e in EXPERIMENTS}
DEFAULTS = {flag: default for flag, (*_, default) in _FLAGS.items() if default is not None}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symextia",
                                     description="Symbol-extension interference alignment experiments.")
    parser.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    for flag, (field, keywords, text, _, default) in _FLAGS.items():
        shown = "" if default is None else f" (default {default})"
        parser.add_argument(flag, dest=field, **keywords, help=text + shown)
    return parser


_PARSER = _parser()  # built once, at import; parse_args only parses and resolves


def parse_args(argv: list[str] | None = None) -> ExperimentSpec:
    """Parse CLI flags into a validated ExperimentSpec.

    Every flag defaults to None, so a flag given explicitly that the
    experiment does not read (see ``FLAGS_READ``) is rejected by name; a
    flag it reads but the command line leaves out takes its ``DEFAULTS``
    value.
    """
    fields = vars(_PARSER.parse_args(argv))
    experiment = fields.pop("experiment")
    given = [flag for flag, (field, *_) in _FLAGS.items() if fields[field] is not None]
    ignored = [flag for flag in given if flag not in FLAGS_READ[experiment]]
    if ignored:
        raise ParameterError(f"{experiment} does not use {', '.join(ignored)}")
    if "--n" in given and "--n-range" in given:
        raise ParameterError("--n and --n-range are mutually exclusive")
    for field, _, _, readers, default in _FLAGS.values():
        if fields[field] is None and experiment in readers:
            fields[field] = default

    if experiment == "dof_table":  # its caps live in n_range alone
        n, text = fields["n"], fields["n_range"]
        fields.update(n=None, n_range=(n, n) if text is None else _parse_colon_ints(text, "--n-range"))
    codings = FIGURE1_CODINGS if experiment == "figure1" else (fields["coding"],)
    if fields["channel_model"] == SLOW_CHANGING and any(slot_fold(c) == 1 for c in codings):
        raise ParameterError(
            "--channel slow_changing needs an even slot count, but a single layer has "
            "D = (n+1)^N + n^N slots, which is always odd"
        )
    for field, minimum in (("trials", 1), ("seed", 0)):
        if fields[field] is not None:
            _check_int(f"--{field}", fields[field], minimum)
    if fields["snr_db"] is not None:
        fields["snr_db"] = _parse_snr(fields["snr_db"])
    if fields["output_path"] is None:
        fields["output_path"] = f"{experiment}.csv"
    return ExperimentSpec(experiment=experiment, **fields)


def _check_output(path: str) -> None:
    """ParameterError unless ``path`` can name a writable file in an existing directory."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ParameterError(f"output path {path!r} is a directory")
    if not os.path.isdir(folder):
        raise ParameterError(f"output directory {folder!r} does not exist")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise ParameterError(f"output path {path!r} is not writable")


def run_experiment(spec: ExperimentSpec) -> str:
    """Run one experiment and return the path of the CSV it wrote.

    An output path that cannot be written is refused with ``ParameterError``
    before any row is computed, and an ``OSError`` at open or write raises
    the same. The file is opened only once every row is computed, so a run
    that raises before then leaves any earlier file at the path untouched.

    The BLAS thread count is left as it is, and OpenBLAS's threaded kernels
    sum in another order, so from about D = 101 on the last digits, and the
    CSV bytes, are the same only at a fixed count; ``main`` holds OpenBLAS
    at one thread.
    """
    _check_output(spec.output_path)
    rows = list(_RUNNERS[spec.experiment](spec))  # every row before the file is opened
    try:
        with open(spec.output_path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
    except OSError as exc:
        raise ParameterError(f"cannot write output path {spec.output_path!r}: {exc.strerror or exc}") from exc
    return spec.output_path


def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the loaded OpenBLAS, or None when none is found.

    The library is found by its path in ``/proc/self/maps`` and its
    ``get_num_threads``/``set_num_threads`` pair, as OpenBLAS
    (``openblas_``) or numpy's wheel build (``scipy_openblas_``, with or
    without the ``64_`` suffix of its 64-bit integer interface) names it.
    """
    import ctypes  # only a CLI run pays for it

    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as handle:
            fields = [line.split(maxsplit=5) for line in handle]
    except OSError:
        return None
    paths = {f[5].rstrip("\n") for f in fields if len(f) == 6}
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


def main(argv: list[str] | None = None) -> int:
    """Run the experiment the flags name and return the exit status.

    The run holds the loaded OpenBLAS at one thread and restores its count
    afterwards: a threaded kernel sums in another order, so the last digits,
    and the CSV bytes, would depend on the thread count. With no OpenBLAS
    found the run goes unpinned.
    """
    try:
        spec = parse_args(argv)
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        return exc.code
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    threads = _openblas_threads()
    if threads:
        before = threads[0]()
        threads[1](1)
    try:
        path = run_experiment(spec)
    except SymextiaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if threads:
            threads[1](before)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
