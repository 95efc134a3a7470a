"""Symbol-extension interference alignment toolkit.

Simulation and verification for K-user single-antenna interference channels:
diagonal effective channels over symbol extensions, cascade-product
alignment precoders, closed-form degrees of freedom, alignment and rank
certification, and Monte Carlo link simulation of plain, naive-fluctuation,
and double-layered coding.
"""

from .align_verify import (
    AlignmentReport,
    DistinctnessAudit,
    RankResult,
    check_alignment,
    distinctness_audit,
    min_relative_gap,
    numerical_rank,
)
from .cj_precoder import (
    CascadeSet,
    PrecoderSet,
    build_cascades,
    build_precoders,
    cascade_order,
    cascade_pairs,
    closed_form_dof,
    effective_dim,
    enumerate_tuples,
    exponent_cap,
)
from .errors import (
    CapacityError,
    DegenerateRealizationError,
    ParameterError,
    SimulationError,
    SymextiaError,
)
from .extension_core import (
    ChannelSet,
    EffectiveChannel,
    GainPlan,
    build_effective,
    generate_channels,
    generate_gains,
    slot_fold,
    subseed,
)
from .link_sim import (
    ChainSample,
    LinkConfig,
    LinkResult,
    draw_realization,
    effective_noise_std,
    estimate_dof,
    run_symbol_chain,
    simulate_link,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentReport",
    "CapacityError",
    "CascadeSet",
    "ChainSample",
    "ChannelSet",
    "DegenerateRealizationError",
    "DistinctnessAudit",
    "EffectiveChannel",
    "GainPlan",
    "LinkConfig",
    "LinkResult",
    "ParameterError",
    "PrecoderSet",
    "RankResult",
    "SimulationError",
    "SymextiaError",
    "build_cascades",
    "build_effective",
    "build_precoders",
    "cascade_order",
    "cascade_pairs",
    "check_alignment",
    "closed_form_dof",
    "distinctness_audit",
    "draw_realization",
    "effective_dim",
    "effective_noise_std",
    "enumerate_tuples",
    "estimate_dof",
    "exponent_cap",
    "generate_channels",
    "generate_gains",
    "min_relative_gap",
    "numerical_rank",
    "run_symbol_chain",
    "simulate_link",
    "slot_fold",
    "subseed",
]
