"""Cascade-product precoder construction and closed-form degrees of freedom.

The construction follows the asymptotic alignment recipe for K >= 3 users on
a symbol extension of length T: user 1 transmits on all entrywise products
``prod T_kl^{n_kl}`` of N = (K-1)(K-2) - 1 cascade diagonals applied to the
all-ones vector (exponents up to n), user 3 on the same products with
exponents up to n - 1 behind a fixed prefix, and every other user on a fixed
diagonal rescaling of user 3's block. Per layer this yields
D = (n+1)^N + n^N total streams across one signal space of dimension D.

D is strictly increasing in n, so an effective channel fixes the whole
construction: K is ``eff.users`` and n is ``exponent_cap(K, eff.dim)``. The
sizes are exact integers (``cascade_order``, ``effective_dim``,
``exponent_cap``), so asymptotic sizes cost nothing. The product columns are
built as one row-wise Kronecker (face-splitting) product of per-generator
power tables, and construction is refused up front when the complex128
precoders would exceed ``extension_core.BYTE_BUDGET``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateRealizationError, ParameterError
from .extension_core import EffectiveChannel, check_byte_budget

SINGLE_LAYER = "single"
DOUBLE_LAYER = "double"
LAYERS = (SINGLE_LAYER, DOUBLE_LAYER)


def cascade_order(users: int) -> int:
    """Count N = (users-1)(users-2) - 1 of cascade generators."""
    if users < 3:
        raise ParameterError(f"need at least 3 users, got {users}")
    return (users - 1) * (users - 2) - 1


def effective_dim(users: int, n: int) -> int:
    """Per-layer signal-space dimension D = (n+1)^N + n^N, as an exact integer.

    Every D is odd, since one of n and n + 1 is even.
    """
    order = cascade_order(users)
    if n < 1:
        raise ParameterError(f"exponent cap must be >= 1, got {n}")
    return (n + 1) ** order + n**order


def exponent_cap(users: int, dim: int) -> int:
    """The exponent cap n >= 1 with ``effective_dim(users, n) == dim``.

    D grows strictly with n and n^N < D, so a bisection over
    1 <= n < 2^(bits(D) // N + 1) finds it in exact integers.

    Raises
    ------
    ParameterError
        If no n >= 1 gives a signal space of dimension ``dim``.
    """
    lo, hi = 1, 1 << (dim.bit_length() // cascade_order(users) + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if effective_dim(users, mid) < dim:
            lo = mid + 1
        else:
            hi = mid
    if effective_dim(users, lo) != dim:
        raise ParameterError(f"no exponent cap n >= 1 gives {users} users a dimension of {dim}")
    return lo


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


def enumerate_tuples(users: int, cap: int) -> np.ndarray:
    """Every exponent vector with entries in 0..cap, one per row, lexicographically.

    Columns follow ``cascade_pairs(users)``. User 1's precoder columns follow
    the rows for cap n, every other user's the rows for cap n - 1.

    Raises
    ------
    ParameterError
        If ``users`` < 3 or ``cap`` < 0.
    CapacityError
        If the int64 array would exceed ``extension_core.BYTE_BUDGET``.
    """
    order = cascade_order(users)
    if cap < 0:
        raise ParameterError(f"cap must be >= 0, got {cap}")
    rows = (cap + 1) ** order
    check_byte_budget(8 * order * rows, f"{rows} exponent tuples of length {order}")
    return np.indices((cap + 1,) * order).reshape(order, -1).T


@dataclass(frozen=True)
class CascadeSet:
    """Cascade generator diagonals plus the direct-to-cross ratio kappa.

    ``matrices[(k, l)]`` is the length-D diagonal of
    ``T_kl = H_21 H_23^-1 H_13 H_k1^-1 H_kl H_1l^-1`` (entrywise on effective
    diagonals); ``kappa`` is the diagonal of ``H_11^-1 H_12``.
    """

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
    return CascadeSet(matrices=matrices, kappa=kappa)


@dataclass(frozen=True)
class PrecoderSet:
    """Per-user precoder matrices over one effective signal space.

    ``precoders[k]`` is the D x d_k complex matrix for 1-based user k with
    unit-norm columns, keyed in ascending user order. User 1's columns
    follow the rows of ``enumerate_tuples(users, n)`` and every other user's
    the rows of ``enumerate_tuples(users, n - 1)``. Sizes are read off the
    matrices.
    """

    precoders: dict[int, np.ndarray]

    @property
    def users(self) -> int:
        return len(self.precoders)

    @property
    def dim(self) -> int:
        return self.precoders[1].shape[0]

    @property
    def stream_counts(self) -> dict[int, int]:
        return {user: mat.shape[1] for user, mat in self.precoders.items()}

    def basis_user(self, receiver: int) -> int:
        """User whose block spans the aligned interference at ``receiver``.

        That is user 2 at receiver 1 and user 1 at every other receiver.
        """
        return 2 if receiver == 1 else 1


def build_precoders(eff: EffectiveChannel) -> PrecoderSet:
    """Build the cascade-product precoders for every user of ``eff``.

    The exponent cap is read off the channel, ``n = exponent_cap(eff.users,
    eff.dim)``.

    User 1's columns are ``prod T_kl^{e_kl} @ ones`` over all exponent tuples
    with entries up to n; user 3's are the cap n - 1 tuples behind the prefix
    ``H_21 H_23^-1``; user i (i != 1, 3) rescales user 3's block by
    ``H_1i^-1 H_13``. Columns are normalized in place to unit Euclidean norm.
    The powers T_kl^e are tabulated once, and each family of product columns
    is one row-wise Kronecker product of those tables, so the work stays
    linear in D times the column count for fixed (users, n).

    Raises
    ------
    ParameterError
        If ``eff.dim`` is no construction's dimension, for example a
        double-length channel under single-layer coding (every D is odd).
    CapacityError
        If the precoders would exceed ``extension_core.BYTE_BUDGET``; checked before
        anything is allocated.
    DegenerateRealizationError
        If a cascade degenerates numerically, or a column norm overflows or
        vanishes.
    """
    users, dim = eff.users, eff.dim
    cap = exponent_cap(users, dim)
    # D x ((n+1)^N + (K-1) n^N) entries, that is D + (K-2) n^N columns
    columns = dim + (users - 2) * cap ** cascade_order(users)
    check_byte_budget(16 * dim * columns, f"precoders for {users} users at n={cap}")
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
        # One column per row of enumerate_tuples(users, top). The output is
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
    for i in range(2, users + 1):
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
    return PrecoderSet(precoders=precoders)


def closed_form_dof(users: int, n: int, layer: str) -> Fraction:
    """Exact total degrees of freedom of the construction, as a reduced fraction.

    Per layer the signal space has dimension (n+1)^N + n^N carrying
    (n+1)^N + (users-1) n^N streams, so

        dof_single = ((n+1)^N + (users-1) n^N) / ((n+1)^N + n^N)

    and the double layer halves it (same streams over twice the slots). The
    arithmetic is exact, so users=5 layers at n in the tens of thousands are
    still cheap.
    """
    if layer not in LAYERS:
        raise ParameterError(f"unknown layer tag {layer!r}")
    dim = effective_dim(users, n)
    dof = Fraction(dim + (users - 2) * n ** cascade_order(users), dim)
    if layer == DOUBLE_LAYER:
        dof = dof / 2
    return dof
