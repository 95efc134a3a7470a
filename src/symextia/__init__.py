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
    orthonormal_basis,
    receiver_composite,
    signal_space_rank,
)
from .cj_precoder import (
    CascadeSet,
    PrecoderConfig,
    PrecoderSet,
    build_cascades,
    build_precoders,
    cascade_pairs,
    closed_form_dof,
    enumerate_tuples,
    make_config,
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
    subseed,
)
from .link_sim import (
    ChainSample,
    LinkConfig,
    LinkResult,
    combine_received,
    draw_realization,
    effective_noise_std,
    estimate_dof,
    run_symbol_chain,
    simulate_link,
    transmit_blocks,
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
    "PrecoderConfig",
    "PrecoderSet",
    "RankResult",
    "SimulationError",
    "SymextiaError",
    "build_cascades",
    "build_effective",
    "build_precoders",
    "cascade_pairs",
    "check_alignment",
    "closed_form_dof",
    "combine_received",
    "distinctness_audit",
    "draw_realization",
    "effective_noise_std",
    "enumerate_tuples",
    "estimate_dof",
    "generate_channels",
    "generate_gains",
    "make_config",
    "min_relative_gap",
    "numerical_rank",
    "orthonormal_basis",
    "receiver_composite",
    "run_symbol_chain",
    "signal_space_rank",
    "simulate_link",
    "subseed",
    "transmit_blocks",
]
