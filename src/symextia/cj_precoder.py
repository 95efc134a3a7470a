"""Cascade-product precoder construction and closed-form degrees of freedom.

The construction follows the asymptotic alignment recipe for K >= 3 users on
a symbol extension of length T: user 1 transmits on all entrywise products
``prod T_kl^{n_kl}`` of N = (K-1)(K-2) - 1 cascade diagonals applied to the
all-ones vector (exponents up to n), user 3 on the same products with
exponents up to n - 1 behind a fixed prefix, and every other user on a fixed
diagonal rescaling of user 3's block. Per layer this yields
D = (n+1)^N + n^N total streams across one signal space of dimension D.

Every size follows from (K, n, layer) alone. The product columns are built
as one row-wise Kronecker (face-splitting) product of per-generator power
tables, and construction is refused up front when the complex128 precoders
would exceed ``PRECODER_BYTE_BUDGET``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, DegenerateRealizationError, ParameterError
from .extension_core import EffectiveChannel

SINGLE_LAYER = "single"
DOUBLE_LAYER = "double"
LAYERS = (SINGLE_LAYER, DOUBLE_LAYER)

# Refuse constructions whose complex128 precoders, D x ((n+1)^N + (K-1) n^N)
# entries, would exceed this many bytes; the closed-form accounting covers
# the asymptotic regime without them.
PRECODER_BYTE_BUDGET = 2 * 1024**3


@dataclass(frozen=True)
class PrecoderConfig:
    """Sizing for one alignment construction.

    ``exponent_cap`` is the symmetric exponent bound n. The derived sizes are
    exact integer properties: ``cascade_order`` is the count N of cascade
    generators, ``effective_dim`` the per-layer dimension
    D = (n+1)^N + n^N, and ``extension_length`` the raw slot count T (equal
    to D for a single layer, 2D for the double layer).
    """

    users: int
    exponent_cap: int
    layer: str

    def __post_init__(self) -> None:
        if self.users < 3:
            raise ParameterError(f"need at least 3 users, got {self.users}")
        if self.exponent_cap < 1:
            raise ParameterError(f"exponent cap must be >= 1, got {self.exponent_cap}")
        if self.layer not in LAYERS:
            raise ParameterError(f"unknown layer tag {self.layer!r}")

    @property
    def cascade_order(self) -> int:
        return (self.users - 1) * (self.users - 2) - 1

    @property
    def effective_dim(self) -> int:
        return (self.exponent_cap + 1) ** self.cascade_order + self.exponent_cap**self.cascade_order

    @property
    def extension_length(self) -> int:
        return self.effective_dim if self.layer == SINGLE_LAYER else 2 * self.effective_dim


def cascade_pairs(users: int) -> list[tuple[int, int]]:
    """Key pairs (k, l) indexing the cascade generators, in sorted order.

    Both labels run over 2..users with k != l, and the reserved pair (2, 3)
    is excluded, leaving N = (users-1)(users-2) - 1 pairs.
    """
    if users < 3:
        raise ParameterError(f"need at least 3 users, got {users}")
    return [
        (k, l)
        for k in range(2, users + 1)
        for l in range(2, users + 1)
        if k != l and (k, l) != (2, 3)
    ]


def make_config(users: int, n: int, layer: str) -> PrecoderConfig:
    """Size an alignment construction for ``users`` pairs and exponent cap ``n``.

    All arithmetic is exact integer arithmetic, so the huge dimensions of the
    asymptotic regime (for example users=5, n=82) are represented without
    rounding; only explicit construction is capped, by the byte budget.
    """
    return PrecoderConfig(users=users, exponent_cap=n, layer=layer)


def _check_byte_budget(config: PrecoderConfig) -> None:
    """Refuse a construction whose precoders would exceed ``PRECODER_BYTE_BUDGET``."""
    n, order = config.exponent_cap, config.cascade_order
    columns = (n + 1) ** order + (config.users - 1) * n**order
    needed = 16 * config.effective_dim * columns
    if needed > PRECODER_BYTE_BUDGET:
        raise CapacityError(
            f"precoders for {config.users} users at n={n} need {needed} bytes, over the "
            f"{PRECODER_BYTE_BUDGET}-byte budget; use closed_form_dof for accounting at this size"
        )


def enumerate_tuples(config: PrecoderConfig, cap: int) -> np.ndarray:
    """Every exponent vector with entries in 0..cap, one per row, lexicographically.

    Columns follow ``cascade_pairs(config.users)``. ``cap`` must be the
    configured exponent cap n (user 1's family) or n - 1 (user 3's family).

    Raises
    ------
    ParameterError
        If ``cap`` is neither n nor n - 1.
    CapacityError
        If the configured precoders exceed ``PRECODER_BYTE_BUDGET``.
    """
    if cap not in (config.exponent_cap, config.exponent_cap - 1):
        raise ParameterError(
            f"cap {cap} is neither the exponent cap {config.exponent_cap} nor one below it"
        )
    _check_byte_budget(config)
    order = config.cascade_order
    return np.indices((cap + 1,) * order).reshape(order, -1).T


@dataclass(frozen=True)
class CascadeSet:
    """Cascade generator diagonals plus the direct-to-cross ratio kappa.

    ``matrices[(k, l)]`` is the length-D diagonal of
    ``T_kl = H_21 H_23^-1 H_13 H_k1^-1 H_kl H_1l^-1`` (entrywise on effective
    diagonals); ``kappa`` is the diagonal of ``H_11^-1 H_12``.
    """

    users: int
    dim: int
    matrices: dict[tuple[int, int], np.ndarray]
    kappa: np.ndarray


def build_cascades(eff: EffectiveChannel) -> CascadeSet:
    """Form every cascade generator T_kl and kappa from effective diagonals.

    Raises
    ------
    DegenerateRealizationError
        If any entrywise quotient overflows or underflows to an unusable
        value; the effective diagonals themselves are nonzero by construction,
        so this only fires on extreme magnitude spread.
    """
    d = eff.diagonal
    common = d(2, 1) / d(2, 3) * d(1, 3)
    matrices: dict[tuple[int, int], np.ndarray] = {}
    for k, l in cascade_pairs(eff.users):
        mat = common / d(k, 1) * d(k, l) / d(1, l)
        if not np.all(np.isfinite(mat)) or np.any(mat == 0):
            raise DegenerateRealizationError(f"cascade ({k}, {l}) left the representable range")
        matrices[(k, l)] = mat
    kappa = d(1, 2) / d(1, 1)
    if not np.all(np.isfinite(kappa)) or np.any(kappa == 0):
        raise DegenerateRealizationError("kappa left the representable range")
    return CascadeSet(users=eff.users, dim=eff.dim, matrices=matrices, kappa=kappa)


@dataclass(frozen=True)
class PrecoderSet:
    """Per-user precoder matrices over one effective signal space.

    ``precoders[k]`` is the D x d_k complex matrix for 1-based user k with
    unit-norm columns, keyed in ascending user order; ``column_order[k]`` is
    the d_k x N int array of exponent vectors behind those columns, one row
    per column, with columns aligned to ``pairs``. Sizes are read off the
    matrices.
    """

    precoders: dict[int, np.ndarray]
    column_order: dict[int, np.ndarray]

    @property
    def users(self) -> int:
        return len(self.precoders)

    @property
    def dim(self) -> int:
        return self.precoders[1].shape[0]

    @property
    def stream_counts(self) -> dict[int, int]:
        return {user: mat.shape[1] for user, mat in self.precoders.items()}

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(cascade_pairs(self.users))

    def basis_user(self, receiver: int) -> int:
        """User whose block spans the aligned interference at ``receiver``.

        That is user 2 at receiver 1 and user 1 at every other receiver.
        """
        return 2 if receiver == 1 else 1


def build_precoders(eff: EffectiveChannel, config: PrecoderConfig) -> PrecoderSet:
    """Build the cascade-product precoders for every user.

    User 1's columns are ``prod T_kl^{e_kl} @ ones`` over all exponent tuples
    with entries up to n; user 3's are the cap n - 1 tuples behind the prefix
    ``H_21 H_23^-1``; user i (i != 1, 3) rescales user 3's block by
    ``H_1i^-1 H_13``. Columns are normalized in place to unit Euclidean norm.
    The powers T_kl^e are tabulated once, and each family of product columns
    is one row-wise Kronecker product of those tables, so the work stays
    linear in D times the column count for fixed (users, n).

    Parameters
    ----------
    eff : EffectiveChannel
        Must satisfy ``eff.dim == config.effective_dim``.
    config : PrecoderConfig

    Returns
    -------
    PrecoderSet

    Raises
    ------
    ParameterError
        On any dimension mismatch between ``eff`` and ``config``.
    CapacityError
        If the precoders would exceed ``PRECODER_BYTE_BUDGET``; checked before
        anything is allocated.
    DegenerateRealizationError
        If a cascade degenerates numerically, or a column norm overflows or
        vanishes.
    """
    if eff.users != config.users:
        raise ParameterError(f"user count {eff.users} != configured {config.users}")
    if eff.dim != config.effective_dim:
        raise ParameterError(f"effective dim {eff.dim} != configured {config.effective_dim}")
    cap = config.exponent_cap
    order_full = enumerate_tuples(config, cap)
    order_reduced = enumerate_tuples(config, cap - 1)

    dim = eff.dim
    cascades = build_cascades(eff)
    # T_kl^e for e = 0..cap, multiplied up one power at a time (a cumulative
    # product rounds differently).
    tables = []
    for mat in cascades.matrices.values():
        table = np.empty((cap + 1, dim), dtype=complex)
        table[0] = 1.0
        for e in range(1, cap + 1):
            table[e] = table[e - 1] * mat
        tables.append(table)

    def power_products(top: int) -> np.ndarray:
        # One column per row of enumerate_tuples(config, top). The output is
        # forced to C order: the column norms below round differently when
        # each column is contiguous.
        out = np.ones((dim, 1), dtype=complex)
        for table in tables:
            out = np.multiply(out[:, :, None], table[: top + 1].T[:, None, :], order="C")
            out = out.reshape(dim, -1)
        return out

    # the user-3 prefix H_21 H_23^-1 is not one of the cascades
    prefix = eff.diagonal(2, 1) / eff.diagonal(2, 3)
    raw = {1: power_products(cap), 3: prefix[:, None] * power_products(cap - 1)}
    for i in range(2, config.users + 1):
        if i != 3:
            raw[i] = (eff.diagonal(1, 3) / eff.diagonal(1, i))[:, None] * raw[3]

    precoders = dict(sorted(raw.items()))
    with np.errstate(over="ignore"):  # an overflowed norm is caught just below
        for user, mat in precoders.items():
            norms = np.sqrt(np.sum(np.abs(mat) ** 2, axis=0))
            if not np.all(np.isfinite(norms)):
                raise DegenerateRealizationError(f"precoder column norms for user {user} overflowed")
            if np.any(norms == 0):
                raise DegenerateRealizationError(f"precoder column for user {user} vanished")
            mat /= norms
    column_order = {u: (order_full if u == 1 else order_reduced) for u in precoders}
    return PrecoderSet(precoders=precoders, column_order=column_order)


@dataclass(frozen=True)
class DofValue:
    """Exact degrees of freedom as a reduced fraction plus a float rendering."""

    numerator: int
    denominator: int
    value: float

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def closed_form_dof(users: int, n: int, layer: str) -> DofValue:
    """Exact total degrees of freedom of the construction.

    Per layer the signal space has dimension (n+1)^N + n^N carrying
    (n+1)^N + (users-1) n^N streams, so

        dof_single = ((n+1)^N + (users-1) n^N) / ((n+1)^N + n^N)

    and the double layer halves it (same streams over twice the slots). The
    arithmetic is exact, so users=5 layers at n in the tens of thousands are
    still cheap.
    """
    config = make_config(users, n, layer)
    order = config.cascade_order
    hi = (n + 1) ** order
    lo = n**order
    dof = Fraction(hi + (users - 1) * lo, hi + lo)
    if layer == DOUBLE_LAYER:
        dof = dof / 2
    return DofValue(numerator=dof.numerator, denominator=dof.denominator, value=float(dof))
