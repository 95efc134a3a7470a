"""The traced layers of symextia and the per-layer metrics of a traced run.

Layers are the package modules plus ``linalg``, the ``numpy.linalg`` calls
the package makes. Each target is a public name one module looks up in
another; the op itself is the ``cli.run_experiment`` span, which the worker
records around ``run_experiment(parse_args(argv))``.

Computed counts come from argument and result shapes at the span boundary,
never from counters inside the package. Flop counts follow Golub & Van Loan,
Matrix Computations (4th ed.), section 8.6: singular values only
``4 M k^2 - 4 k^3 / 3``; thin U with V ``6 M k^2 + 20 k^3``; full U with V
``4 M^2 k + 22 k^3``, where ``M = max(m, n)`` and ``k = min(m, n)``.
``pinv`` adds ``2 m n k`` for the product ``V diag(1/s) U^H``. Complex
inputs count 4 real flops per complex one.
"""

from __future__ import annotations

import math
from collections import Counter

from tracer import Target

OP_SPAN = "cli.run_experiment"
LAYERS = ("extension_core", "cj_precoder", "align_verify", "link_sim", "cli", "linalg")


def _array_arg(args, kwargs):
    return args[0] if args else kwargs["a"]


def _flop_shape(a) -> tuple[int, int, int, int]:
    """(batch, M, k, complex factor) of a (..., m, n) array."""
    *batch, m, n = a.shape
    return math.prod(batch), max(m, n), min(m, n), 4 if a.dtype.kind == "c" else 1


def svd_flops(a, full_matrices: bool = True, compute_uv: bool = True) -> float:
    batch, big, k, factor = _flop_shape(a)
    if not compute_uv:
        flops = 4 * big * k * k - 4 * k**3 / 3
    elif full_matrices:
        flops = 4 * big * big * k + 22 * k**3
    else:
        flops = 6 * big * k * k + 20 * k**3
    return batch * factor * flops


def pinv_flops(a) -> float:
    batch, big, k, factor = _flop_shape(a)
    return batch * factor * (6 * big * k * k + 20 * k**3 + 2 * big * k * k)


def _svd_probe(counts: Counter, args, kwargs, result) -> None:
    full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
    uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
    counts["linalg.svd.flops_computed"] += svd_flops(_array_arg(args, kwargs), full, uv)


def _pinv_probe(counts: Counter, args, kwargs, result) -> None:
    counts["linalg.pinv.flops_computed"] += pinv_flops(_array_arg(args, kwargs))


def _precoder_probe(counts: Counter, args, kwargs, result) -> None:
    columns = sum(result.stream_counts.values())
    counts["cj_precoder.build_precoders.columns"] += columns
    counts["cj_precoder.build_precoders.bytes_computed"] += result.dim * columns * 16


def _audit_probe(counts: Counter, args, kwargs, result) -> None:
    cascades = args[0] if args else kwargs["cascades"]
    vectors = [*cascades.matrices.values(), cascades.kappa]
    counts["align_verify.distinctness_audit.pairs_computed"] += sum(
        v.size * (v.size - 1) // 2 for v in vectors
    )


def _realization_probe(counts: Counter, args, kwargs, result) -> None:
    if result[0] is not None:
        counts["gain_realizations"] += 1


def _alignment_probe(counts: Counter, args, kwargs, result) -> None:
    counts["alignment_passes"] += result.verdict == "pass"


TARGETS = (
    Target("extension_core.generate_channels", "symextia.extension_core", "generate_channels"),
    Target("extension_core.generate_gains", "symextia.extension_core", "generate_gains"),
    Target("extension_core.build_effective", "symextia.extension_core", "build_effective"),
    Target("cj_precoder.build_cascades", "symextia.cj_precoder", "build_cascades"),
    Target("cj_precoder.build_precoders", "symextia.cj_precoder", "build_precoders", _precoder_probe),
    Target("link_sim.draw_realization", "symextia.link_sim", "draw_realization", _realization_probe),
    Target("link_sim.simulate_link", "symextia.link_sim", "simulate_link"),
    Target("align_verify.check_alignment", "symextia.align_verify", "check_alignment", _alignment_probe),
    Target("align_verify.distinctness_audit", "symextia.align_verify", "distinctness_audit", _audit_probe),
    Target("linalg.svd", "numpy.linalg", "svd", _svd_probe),
    Target("linalg.pinv", "numpy.linalg", "pinv", _pinv_probe),
)
SPANS = tuple(t.name for t in TARGETS) + (OP_SPAN,)

COMPUTED = (
    "cj_precoder.build_precoders.columns",
    "cj_precoder.build_precoders.bytes_computed",
    "align_verify.distinctness_audit.pairs_computed",
    "linalg.svd.flops_computed",
    "linalg.pinv.flops_computed",
)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith(("_yield", "_share", "_ratio", "coverage")):
        return "ratio"
    return "count"


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict[str, dict], counts: Counter) -> dict[str, float]:
    """Per-span calls and self seconds, per-layer self seconds, and the computed counts.

    Ratios whose base is zero (no calls) read 0.
    """
    empty = {"calls": 0, "self_s": 0.0, "errors": Counter()}
    spans = {name: summary.get(name, empty) for name in SPANS}
    out: dict[str, float] = {}
    for name, entry in spans.items():
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(e["self_s"] for n, e in spans.items() if n.startswith(layer + "."))
    out["extension_core.build_effective.degenerate"] = (
        spans["extension_core.build_effective"]["errors"]["DegenerateRealizationError"]
    )
    out["link_sim.gain_draw_yield"] = _share(
        counts["gain_realizations"], spans["extension_core.generate_gains"]["calls"]
    )
    out["align_verify.check_alignment.pass_share"] = _share(
        counts["alignment_passes"], spans["align_verify.check_alignment"]["calls"]
    )
    for name in COMPUTED:
        out[name] = counts[name]
    return out
