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
success, 2 on a flag parsing problem (including any flag the experiment does
not read, ``--n`` together with ``--n-range``, and flags that could never
run), and 1 when a module rejects the run. The CSV is written only after
every row is computed, so a failed run leaves the output path as it was.

SNR is defined against unit-variance receiver noise: at ``--snr`` point
``s`` dB each user's expected transmit power per raw slot is ``10**(s/10)``.
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

# The flags each experiment reads besides --experiment. Any other flag given
# explicitly exits 2, since the run would ignore it. The layer is a flag of
# dof_table only: verify and audit derive it from --coding, and figure1
# always runs naive coding on one layer and double coding on two.
FLAGS_READ = {
    "dof_table": ("--users", "--n", "--n-range", "--layer", "--out"),
    "verify": ("--users", "--n", "--channel", "--coding", "--trials", "--seed", "--out"),
    "audit": ("--users", "--n", "--channel", "--coding", "--trials", "--seed", "--out"),
    "figure1": ("--users", "--n", "--channel", "--snr", "--trials", "--seed", "--out"),
}

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
    """Parse CLI flags into a validated ExperimentSpec.

    Every flag defaults to None, so a flag given explicitly that the
    experiment does not read (see ``FLAGS_READ``) is rejected by name.
    """
    parser = argparse.ArgumentParser(
        prog="symextia",
        description="Symbol-extension interference alignment experiments.",
    )
    parser.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    parser.add_argument("--users", type=int, help="number of user pairs K (default 3)")
    parser.add_argument("--n", type=int, help="exponent cap n (default 2)")
    parser.add_argument("--n-range", metavar="LO:HI",
                        help="inclusive cap range for dof_table (instead of --n)")
    parser.add_argument("--layer", choices=LAYERS,
                        help="symbol-extension layering for dof_table (default single)")
    parser.add_argument("--channel", choices=CHANNEL_MODELS, help="channel model (default constant)")
    parser.add_argument("--coding", choices=CODING_MODES,
                        help="coding mode for verify/audit (default double); sets the layer")
    parser.add_argument("--snr", metavar="LO:HI:STEP",
                        help=f"SNR sweep in dB for figure1 (default {DEFAULT_SNR})")
    parser.add_argument("--trials", type=int,
                        help=f"Monte Carlo trials, or seeds per table row (default {DEFAULT_TRIALS})")
    parser.add_argument("--seed", type=int, help="experiment seed (default 0)")
    parser.add_argument("--out", help="output CSV path (default <experiment>.csv)")
    args = parser.parse_args(argv)
    given = [
        "--" + dest.replace("_", "-")
        for dest, value in vars(args).items()
        if value is not None and dest != "experiment"
    ]
    ignored = [flag for flag in given if flag not in FLAGS_READ[args.experiment]]
    if ignored:
        raise ParameterError(f"{args.experiment} does not use {', '.join(ignored)}")
    if args.n is not None and args.n_range is not None:
        raise ParameterError("--n and --n-range are mutually exclusive")
    n = args.n if args.n is not None else 2
    channel = args.channel if args.channel is not None else CONSTANT
    trials = args.trials if args.trials is not None else DEFAULT_TRIALS
    snr_text = args.snr if args.snr is not None else DEFAULT_SNR

    if args.experiment == "dof_table":
        coding = DOUBLE
        layer = args.layer if args.layer is not None else SINGLE_LAYER
    elif args.experiment == "figure1":
        coding = "both"
        layer = DOUBLE_LAYER
    else:
        coding = args.coding if args.coding is not None else DOUBLE
        layer = DOUBLE_LAYER if coding == DOUBLE else SINGLE_LAYER
    # figure1's naive leg always draws a single layer
    single_layer_draw = args.experiment == "figure1" or (
        args.experiment != "dof_table" and layer == SINGLE_LAYER
    )
    if channel == SLOW_CHANGING and single_layer_draw:
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
    n_range = _parse_colon_ints(args.n_range, "--n-range") if args.n_range is not None else (n, n)
    return ExperimentSpec(
        experiment=args.experiment,
        users=args.users if args.users is not None else 3,
        n=n,
        n_range=n_range,
        layer=layer,
        channel_model=channel,
        coding=coding,
        snr_db=snr_db,
        trials=trials,
        seed=args.seed if args.seed is not None else 0,
        output_path=args.out if args.out is not None else f"{args.experiment}.csv",
    )


def _run_dof_table(spec: ExperimentSpec) -> Iterator[list]:
    yield ["users", "n", "layer", "dof_exact_num", "dof_exact_den", "dof_float"]
    for n in range(spec.n_range[0], spec.n_range[1] + 1):
        dof = closed_form_dof(spec.users, n, spec.layer)
        yield [spec.users, n, spec.layer, dof.numerator, dof.denominator, f"{float(dof):.6f}"]


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
