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

All output is deterministic for the recorded seed: CSV files are UTF-8 with
LF line endings, floats printed to 6 significant digits (exact-dof floats to
6 decimal places), so reruns are byte-identical. Exit status is 0 on
success, 2 on a flag parsing problem (including flags that would be ignored
or could never run: ``--snr`` outside figure1, ``--trials`` on dof_table,
``--n-range`` outside dof_table), and 1 when a module rejects the run. The
CSV is written only after every row is computed, so a failed run leaves the
output path as it was.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections.abc import Iterator
from dataclasses import dataclass

from .align_verify import check_alignment, distinctness_audit
from .cj_precoder import (
    DOUBLE_LAYER,
    LAYERS,
    SINGLE_LAYER,
    PrecoderConfig,
    build_cascades,
    closed_form_dof,
    make_config,
)
from .errors import ParameterError, SymextiaError
from .extension_core import (
    CHANNEL_MODELS,
    CODING_MODES,
    CONSTANT,
    DOUBLE,
    NAIVE,
    SLOW_CHANGING,
    ChannelSet,
    generate_channels,
    subseed,
)
from .link_sim import LinkConfig, draw_realization, draw_until_built, simulate_link

EXPERIMENTS = ("dof_table", "verify", "audit", "figure1")

DEFAULT_SNR = "10:60:10"
DEFAULT_TRIALS = 50

# Seed namespaces for per-row channel draws and per-run link seeds; gain
# draws are namespaced further inside the link layer.
_NS_CHANNELS = 2
_NS_LINK = 3


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved experiment parameters, ready to run.

    ``coding`` is ``both`` for figure1, which always contrasts naive and
    double coding on the same channel draw.
    """

    experiment: str
    users: int
    n: int
    n_range: tuple[int, int]
    layer: str
    channel_model: str
    coding: str
    snr_db: tuple[float, ...]
    trials: int
    seed: int
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
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"--snr expects lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(f"--snr expects numbers, got {text!r}") from exc
    if step <= 0 or hi < lo:
        raise ParameterError(f"--snr expects lo <= hi and step > 0, got {text!r}")
    points = []
    value = lo
    while value <= hi + 1e-9:
        points.append(round(value, 9))
        value += step
    return tuple(points)


def parse_args(argv: list[str] | None = None) -> ExperimentSpec:
    """Parse CLI flags into a validated ExperimentSpec."""
    parser = argparse.ArgumentParser(
        prog="symextia",
        description="Symbol-extension interference alignment experiments.",
    )
    parser.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    parser.add_argument("--users", type=int, default=3, help="number of user pairs K (default 3)")
    parser.add_argument("--n", type=int, default=2, help="exponent cap n (default 2)")
    parser.add_argument("--n-range", default=None, metavar="LO:HI",
                        help="inclusive cap range for dof_table (overrides --n)")
    parser.add_argument("--layer", choices=LAYERS, default=None,
                        help="symbol-extension layering (derived from --coding when omitted)")
    parser.add_argument("--channel", choices=CHANNEL_MODELS, default=CONSTANT,
                        help="channel model (default constant)")
    parser.add_argument("--coding", choices=CODING_MODES, default=None,
                        help="coding mode for verify/audit (default double)")
    parser.add_argument("--snr", default=None, metavar="LO:HI:STEP",
                        help=f"SNR sweep in dB for figure1 (default {DEFAULT_SNR})")
    parser.add_argument("--trials", type=int, default=None,
                        help="Monte Carlo trials, or seeds per table row; not for dof_table "
                             f"(default {DEFAULT_TRIALS})")
    parser.add_argument("--seed", type=int, default=0, help="experiment seed (default 0)")
    parser.add_argument("--out", default=None, help="output CSV path (default <experiment>.csv)")
    args = parser.parse_args(argv)
    # flags default to None so that an explicit one the experiment would ignore is caught
    ignored = [
        flag
        for flag, value, used in (
            ("--snr", args.snr, args.experiment == "figure1"),
            ("--trials", args.trials, args.experiment != "dof_table"),
            ("--n-range", args.n_range, args.experiment == "dof_table"),
        )
        if value is not None and not used
    ]
    if ignored:
        raise ParameterError(f"{args.experiment} does not use {', '.join(ignored)}")
    trials = args.trials if args.trials is not None else DEFAULT_TRIALS
    snr_text = args.snr if args.snr is not None else DEFAULT_SNR

    if args.experiment == "figure1":
        if args.coding is not None:
            raise ParameterError("figure1 always compares naive and double; drop --coding")
        if args.layer == SINGLE_LAYER:
            raise ParameterError("figure1 always runs double coding on the double layer; drop --layer")
        coding = "both"
        layer = DOUBLE_LAYER
    else:
        coding = args.coding if args.coding is not None else DOUBLE
        derived_layer = DOUBLE_LAYER if coding == DOUBLE else SINGLE_LAYER
        layer = args.layer if args.layer is not None else (
            SINGLE_LAYER if args.experiment == "dof_table" else derived_layer
        )
        if args.experiment in ("verify", "audit") and layer != derived_layer:
            raise ParameterError(f"--layer {layer} is inconsistent with --coding {coding}")
    # figure1's naive leg always draws a single layer
    single_layer_draw = args.experiment == "figure1" or (
        args.experiment != "dof_table" and layer == SINGLE_LAYER
    )
    if args.channel == SLOW_CHANGING and single_layer_draw:
        raise ParameterError(
            "--channel slow_changing needs an even slot count, but a single layer has "
            "D = (n+1)^N + n^N slots, which is always odd"
        )
    if trials < 1:
        raise ParameterError(f"--trials must be >= 1, got {trials}")
    snr_db = _parse_snr(snr_text)
    if args.experiment == "figure1" and len(snr_db) < 2:
        raise ParameterError(
            f"figure1 needs at least two SNR points for its DoF slope, got {snr_text!r}"
        )
    n_range = (
        _parse_colon_ints(args.n_range, "--n-range") if args.n_range is not None else (args.n, args.n)
    )
    return ExperimentSpec(
        experiment=args.experiment,
        users=args.users,
        n=args.n,
        n_range=n_range,
        layer=layer,
        channel_model=args.channel,
        coding=coding,
        snr_db=snr_db,
        trials=trials,
        seed=args.seed,
        output_path=args.out if args.out is not None else f"{args.experiment}.csv",
    )


def _run_dof_table(spec: ExperimentSpec) -> Iterator[list]:
    yield ["users", "n", "layer", "dof_exact_num", "dof_exact_den", "dof_float"]
    for n in range(spec.n_range[0], spec.n_range[1] + 1):
        dof = closed_form_dof(spec.users, n, spec.layer)
        yield [spec.users, n, spec.layer, dof.numerator, dof.denominator, f"{dof.value:.6f}"]


def _row_channels(spec: ExperimentSpec, row: int) -> tuple[PrecoderConfig, ChannelSet]:
    config = make_config(spec.users, spec.n, spec.layer)
    channels = generate_channels(
        spec.users, config.extension_length, spec.channel_model,
        subseed(spec.seed, _NS_CHANNELS, row),
    )
    return config, channels


def _run_verify(spec: ExperimentSpec) -> Iterator[list]:
    yield ["row", "seed", "users", "n", "layer", "channel", "coding",
           "max_residual", "min_rank", "required_rank", "min_margin", "verdict"]
    for row in range(spec.trials):
        config, channels = _row_channels(spec, row)
        _, eff, pre, _ = draw_realization(
            channels, spec.coding, config, subseed(spec.seed, _NS_LINK, row)
        )
        report = check_alignment(eff, pre)
        ranks = report.rank_results.values()
        yield [row, spec.seed, spec.users, spec.n, spec.layer, spec.channel_model, spec.coding,
               _fmt(max(report.residuals.values())),
               min(r.rank for r in ranks), eff.dim,
               _fmt(min(r.margin for r in ranks)), report.verdict]


def _run_audit(spec: ExperimentSpec) -> Iterator[list]:
    yield ["row", "seed", "quantity", "min_relative_gap", "flagged"]
    for row in range(spec.trials):
        # the audit reads the cascades only, so a draw is usable once they build
        _, channels = _row_channels(spec, row)
        _, _, cascades, _ = draw_until_built(
            channels, spec.coding, subseed(spec.seed, _NS_LINK, row), build_cascades
        )
        audit = distinctness_audit(cascades)
        for (k, l), gap in sorted(audit.lambda_gaps.items()):
            name = f"T_{k}_{l}"
            yield [row, spec.seed, name, _fmt(gap), str(name in audit.flagged).lower()]
        yield [row, spec.seed, "kappa", _fmt(audit.kappa_gap), str("kappa" in audit.flagged).lower()]


def _run_figure1(spec: ExperimentSpec) -> Iterator[list]:
    yield ["snr_db", "coding", "sum_rate_bits_per_use", "dof_estimate", "trials", "seed"]
    for idx, coding in enumerate((NAIVE, DOUBLE)):
        layer = DOUBLE_LAYER if coding == DOUBLE else SINGLE_LAYER
        config = make_config(spec.users, spec.n, layer)
        # constant-model draws share the same base matrix across both
        # extension lengths, so the two codings see one physical channel
        channels = generate_channels(
            spec.users, config.extension_length, spec.channel_model,
            subseed(spec.seed, _NS_CHANNELS),
        )
        link = LinkConfig(
            snr_points_db=spec.snr_db,
            trials=spec.trials,
            seed=subseed(spec.seed, _NS_LINK, idx),
        )
        result = simulate_link(channels, coding, config, link)
        for snr in spec.snr_db:
            yield [_fmt(snr), coding, _fmt(result.sum_rate[snr]), _fmt(result.dof_estimate),
                   spec.trials, spec.seed]


def run_experiment(spec: ExperimentSpec) -> str:
    """Run one experiment and return the path of the CSV it wrote.

    The file is written only once every row is computed, so a run that
    raises leaves any earlier file at the path untouched.
    """
    runner = {
        "dof_table": _run_dof_table,
        "verify": _run_verify,
        "audit": _run_audit,
        "figure1": _run_figure1,
    }[spec.experiment]
    rows = list(runner(spec))  # every row before the file is opened
    with open(spec.output_path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    return spec.output_path


def main(argv: list[str] | None = None) -> int:
    try:
        spec = parse_args(argv)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        path = run_experiment(spec)
    except SymextiaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
