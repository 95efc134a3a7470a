"""Cascade-product precoder construction and closed-form degrees of freedom.

The construction follows the asymptotic alignment recipe for K >= 3 users on
a symbol extension of length T: user 1 transmits on all entrywise products
``prod T_kl^{n_kl}`` of N = (K-1)(K-2) - 1 cascade diagonals applied to the
all-ones vector (exponents up to n), user 3 on the same products with
exponents up to n - 1 behind a fixed prefix, and every other user on a fixed
diagonal rescaling of user 3's block. Per layer this yields
(n+1)^N + (K-1) n^N streams over one signal space of dimension
D = (n+1)^N + n^N.

D is strictly increasing in n, so an effective channel fixes the whole
construction: K is ``eff.users`` and n is ``exponent_cap(K, eff.dim)``. The
sizes are exact integers (``cascade_order``, ``effective_dim``,
``exponent_cap``), so asymptotic sizes cost nothing. The product columns are
built as one row-wise Kronecker (face-splitting) product of per-generator
power tables, and construction is refused up front when the precoders would
exceed ``extension_core.BYTE_BUDGET``. One private build takes a stack of
effective channels on a leading trial axis and flags its degenerate trials,
which the link simulation uses for a chunk of trials at once;
``build_cascades`` and ``build_precoders`` are its batches of one. Up to
the unnormalised columns, it and ``PrecoderSet.received_blocks`` compute in
the ``_Arithmetic`` their caller names, never one read off a dtype:
``_COMPLEX``, the float build; ``_RESIDUES``, exact int64 residues mod
``_PRIME``; or ``_EXPONENTS``, which fed unit diagonals over the K^2 links
gives each column's exponent vector. Normalisation and its overflow and
vanish checks are complex-only. Every public path is complex128:
``ChannelSet``, ``GainPlan`` and ``PrecoderSet`` store complex128 whatever
the input's dtype, and only private code builds a set in another
arithmetic.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import DegenerateRealizationError, ParameterError
from .extension_core import EffectiveChannel, _check_int, _check_users, check_byte_budget, count_text

SINGLE_LAYER = "single"
DOUBLE_LAYER = "double"
LAYERS = (SINGLE_LAYER, DOUBLE_LAYER)

# The prime of the exact arithmetic: _PRIME**2 < 2**63, so a product of two residues is exact in int64.
_PRIME = 1048573


def _mod_mul(a: np.ndarray, b: np.ndarray, order: str = "K", out: np.ndarray | None = None) -> np.ndarray:
    product = np.multiply(a, b, out=out, order=order, dtype=np.int64)
    return np.remainder(product, _PRIME, out=product)


def _mod_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a`` times ``b**(p - 2)`` by repeated squaring: Fermat's inverse of ``b``, or 0 where ``b`` is 0."""
    inverse, exponent = np.ones_like(b), _PRIME - 2
    while exponent:
        if exponent & 1:
            inverse = _mod_mul(inverse, b)
        b = _mod_mul(b, b)
        exponent >>= 1
    return _mod_mul(a, inverse)


@dataclass(frozen=True)
class _Arithmetic:
    """What the one construction computes in: its dtype, the identity ``one`` of ``mul``, and ``mul`` and ``div``."""

    dtype: np.dtype
    one: int
    mul: Callable[..., np.ndarray]
    div: Callable[..., np.ndarray]


_COMPLEX = _Arithmetic(np.dtype(np.complex128), 1, np.multiply, np.divide)
_RESIDUES = _Arithmetic(np.dtype(np.int64), 1, _mod_mul, _mod_div)
# a monomial in the K^2 link variables is its exponent vector: a product adds, a quotient subtracts
_EXPONENTS = _Arithmetic(np.dtype(np.int64), 0, np.add, np.subtract)


def cascade_order(users: int) -> int:
    """Count N = (users-1)(users-2) - 1 of cascade generators; ParameterError unless ``users`` >= 3."""
    users = _check_int("users", users, 3)
    return (users - 1) * (users - 2) - 1


def effective_dim(users: int, n: int) -> int:
    """Per-layer signal-space dimension D = (n+1)^N + n^N, as an exact integer.

    Every D is odd, since one of n and n + 1 is even. ParameterError
    unless ``n`` is an integer >= 1 (and ``users`` one >= 3).
    """
    order = cascade_order(users)
    n = _check_int("n", n, 1)
    return (n + 1) ** order + n**order


def exponent_cap(users: int, dim: int) -> int:
    """The exponent cap n >= 1 with ``effective_dim(users, n) == dim``.

    D grows strictly with n and n^N < D, so a bisection over
    1 <= n < 2^(bits(D) // N + 1) finds it in exact integers.

    Raises
    ------
    ParameterError
        If ``dim`` is not an integer, or no n >= 1 gives a signal space of
        dimension ``dim``.
    """
    dim = _check_int("dim", dim, -np.inf)
    lo, hi = 1, 1 << (dim.bit_length() // cascade_order(users) + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if effective_dim(users, mid) < dim:
            lo = mid + 1
        else:
            hi = mid
    if effective_dim(users, lo) != dim:
        raise ParameterError(
            f"no exponent cap n >= 1 gives {users} users a dimension of {count_text(dim)}"
        )
    return lo


def _stream_count(users: int, n: int) -> int:
    """Total streams of one layer, D + (users-2) n^N: user 1's (n+1)^N plus n^N for each other user."""
    return effective_dim(users, n) + (users - 2) * n ** cascade_order(users)


def cascade_pairs(users: int) -> list[tuple[int, int]]:
    """Key pairs (k, l) indexing the cascade generators, in sorted order.

    Both labels run over 2..users with k != l, and the reserved pair (2, 3)
    is excluded, leaving N = (users-1)(users-2) - 1 pairs.
    """
    cascade_order(users)  # rejects fewer than 3 users
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
        Unless ``users`` is an integer >= 3 and ``cap`` one >= 0.
    CapacityError
        If the int64 array would exceed ``extension_core.BYTE_BUDGET``.
    """
    order = cascade_order(users)
    cap = _check_int("cap", cap, 0)
    rows = (cap + 1) ** order
    check_byte_budget(8 * order * rows, "{} exponent tuples of length {}", rows, order)
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


def _link(diagonals: np.ndarray, receiver: int, transmitter: int) -> np.ndarray:
    """Each trial's (trials, D) diagonal from ``transmitter`` to ``receiver`` in a (trials, K, K, D) stack."""
    return diagonals[:, receiver - 1, transmitter - 1]


def _flag(degenerate: list[str | None], bad: np.ndarray, message: str) -> None:
    """Give ``message`` to each trial with a ``bad`` entry, (trials, ...), that has none yet."""
    for trial in np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1)):
        degenerate[trial] = degenerate[trial] or message


# a degenerate trial's quotients are flagged, not warned about
@np.errstate(all="ignore")
def _stacked_cascades(
    diagonals: np.ndarray, arithmetic: _Arithmetic
) -> tuple[dict[tuple[int, int], np.ndarray], np.ndarray, list[str | None]]:
    """Cascade generators and kappa of a stack of effective channels, and the degenerate trials.

    ``diagonals`` is (trials, K, K, D) in ``arithmetic``: one
    ``EffectiveChannel.diagonals`` per trial under ``_COMPLEX``. So are the
    (trials, D) generators and kappa. Every quotient is entrywise, so each
    trial's slice has the bits of that trial computed alone. The third
    value holds one entry per trial: None, or the message
    ``build_cascades`` raises on that trial alone, naming its first quotient
    that is not finite or is 0.
    """
    mul, div, d = arithmetic.mul, arithmetic.div, partial(_link, diagonals)
    degenerate: list[str | None] = [None] * len(diagonals)
    common = mul(div(d(2, 1), d(2, 3)), d(1, 3))  # mod p, 1/0 is 0: a zero denominator flags as a zero quotient
    matrices: dict[tuple[int, int], np.ndarray] = {}
    for k, l in cascade_pairs(diagonals.shape[1]):
        mat = div(mul(div(common, d(k, 1)), d(k, l)), d(1, l))
        _flag(degenerate, ~np.isfinite(mat) | (mat == 0), f"cascade ({k}, {l}) left the representable range")
        matrices[(k, l)] = mat
    kappa = div(d(1, 2), d(1, 1))
    _flag(degenerate, ~np.isfinite(kappa) | (kappa == 0), "kappa left the representable range")
    return matrices, kappa, degenerate


def build_cascades(eff: EffectiveChannel) -> CascadeSet:
    """Form every cascade generator T_kl and kappa from effective diagonals.

    This is the batch of one of the stacked cascade build.

    Raises
    ------
    DegenerateRealizationError
        If any entrywise quotient overflows or underflows to an unusable
        value; the effective diagonals themselves are nonzero by construction,
        so this only fires on extreme magnitude spread.
    """
    matrices, kappa, degenerate = _stacked_cascades(eff._single()[None], _COMPLEX)
    if degenerate[0]:
        raise DegenerateRealizationError(degenerate[0])
    return CascadeSet(matrices={pair: mat[0] for pair, mat in matrices.items()}, kappa=kappa[0])


@dataclass(frozen=True)
class PrecoderSet:
    """Per-user precoder matrices over one effective signal space.

    ``precoders[k]`` is the D x d_k complex matrix for 1-based user k with
    unit-norm columns, keyed in ascending user order. Each is stored as
    complex128, through ``np.asarray(mat, dtype=complex)``, as
    ``ChannelSet`` stores its entries: a complex128 matrix is kept as the
    same object, and any other dtype is converted once, so an integer
    matrix gives complex products, never residues. ``arithmetic`` is not a
    constructor argument: it is ``_COMPLEX``, and only private code
    (``_unchecked``) builds a set of ``_RESIDUES`` or ``_EXPONENTS``
    columns, whose blocks are then in that arithmetic. User 1's columns
    follow the rows of ``enumerate_tuples(users, n)`` and every other
    user's the rows of ``enumerate_tuples(users, n - 1)``. Sizes are read
    off the trailing two axes of the matrices, so a set may also hold a stack of
    trials, (trials, D, d_k) per user, as the link simulation does. The set
    owns what a receiver sees: its blocks and its composite layout.
    ``received_blocks`` and ``composite`` share one row rule: a receiver's
    row of effective diagonals is (..., users, dim), checked before
    anything is allocated.
    """

    precoders: dict[int, np.ndarray]
    arithmetic: _Arithmetic = field(default=_COMPLEX, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "precoders", {u: np.asarray(m, dtype=complex) for u, m in self.precoders.items()})

    @property
    def users(self) -> int:
        return len(self.precoders)

    @property
    def dim(self) -> int:
        return self.precoders[1].shape[-2]

    @property
    def stream_counts(self) -> dict[int, int]:
        return {user: mat.shape[-1] for user, mat in self.precoders.items()}

    def _single(self) -> dict[int, np.ndarray]:
        """``precoders``; ParameterError if this holds a stack of trials, for code that takes one trial."""
        stack = self.precoders[1].shape[:-2]
        if stack:
            raise ParameterError(f"expected one trial's precoder set, got a stack of {stack}")
        return self.precoders

    def basis_user(self, receiver: int) -> int:
        """User whose block spans the aligned interference at ``receiver``.

        That is user 2 at receiver 1 and user 1 at every other receiver.
        """
        return 2 if receiver == 1 else 1

    def _check_row(self, row: np.ndarray) -> None:
        """The one receiver-row rule: ParameterError unless the last two axes of ``row`` are (users, dim)."""
        if row.shape[-2:] != (self.users, self.dim):
            raise ParameterError(
                f"receiver row {row.shape[-2:]} does not match precoder set ({self.users} users, dim {self.dim})"
            )

    def received_blocks(self, row: np.ndarray) -> dict[int, np.ndarray]:
        """Blocks H_kj V_j keyed by j, from receiver k's effective diagonals ``row``, (..., users, D).

        ParameterError unless ``row`` passes ``composite``'s row rule.
        """
        self._check_row(row)
        return {j: self._received_block(row, j) for j in self.precoders}

    def _received_block(self, row: np.ndarray, j: int, out: np.ndarray | None = None) -> np.ndarray:
        """Block H_kj V_j of ``received_blocks``, written into ``out`` when given."""
        return self.arithmetic.mul(row[..., j - 1, :, None], self.precoders[j], out=out)

    def _composite_columns(self, receiver: int) -> dict[int, slice]:
        """The composite's layout at ``receiver``: each user's column slice, desired block then the basis user's."""
        first, second = receiver, self.basis_user(receiver)
        width = self.precoders[first].shape[-1]
        return {first: slice(0, width), second: slice(width, width + self.precoders[second].shape[-1])}

    def composite(self, row: np.ndarray, receiver: int) -> np.ndarray:
        """The square composite [H_kk V_k | H_kb V_b] of receiver k's ``row``, b the ``basis_user``.

        Its two blocks are written straight into one fresh array, C order,
        and no other block is formed; each entry has the bits of its block
        in ``received_blocks``. A stack of rows gives a stack of composites.
        ParameterError unless ``receiver`` is a user label and the last two
        axes of ``row`` are (users, dim). The layout is D x D, so it holds
        for ``_COMPLEX`` and ``_RESIDUES`` sets only: an ``_EXPONENTS`` set's
        rows are the K^2 links, and its exponents are read from
        ``received_blocks``.
        """
        self._check_row(row)
        _check_users(self.users, receiver)
        composite = np.empty(row.shape[:-2] + (self.dim, self.dim), dtype=self.arithmetic.dtype)
        for j, cols in self._composite_columns(receiver).items():
            self._received_block(row, j, composite[..., cols])
        return composite


def _check_pair(eff: EffectiveChannel, pre: PrecoderSet) -> None:
    """The one pair rule: ParameterError unless ``eff`` and ``pre`` are one trial of the same size."""
    eff._single()
    pre._single()
    if eff.users != pre.users or eff.dim != pre.dim:
        raise ParameterError(
            f"effective channel ({eff.users} users, dim {eff.dim}) does not match "
            f"precoder set ({pre.users} users, dim {pre.dim})"
        )


# a degenerate trial's powers and quotients are flagged, not warned about
@np.errstate(all="ignore")
def _stacked_columns(
    diagonals: np.ndarray, cap: int, arithmetic: _Arithmetic
) -> tuple[dict[int, np.ndarray], list[str | None]]:
    """Every user's unnormalised columns at exponent cap ``cap``, (trials, D, d_k) in user order.

    ``diagonals`` is a stack ``_stacked_cascades`` takes, in ``arithmetic``,
    and the columns are in the same one; the second value is its degenerate
    trials. D is read off the last axis and need not match ``cap``: under
    ``_EXPONENTS``, unit diagonals of shape (1, K, K, K^2) give each column's
    exponent vector over the K^2 links, and the degenerate flags mean
    nothing there, so that caller ignores them. A stack over the byte
    budget raises.
    """
    dtype, mul, div = arithmetic.dtype, arithmetic.mul, arithmetic.div
    trials, users, _, dim = diagonals.shape
    nbytes = dtype.itemsize * trials * dim * _stream_count(users, cap)
    check_byte_budget(nbytes, "precoders for {} users at n={}", users, cap)
    matrices, _, degenerate = _stacked_cascades(diagonals, arithmetic)  # kappa is checked, not used
    # One column per row of enumerate_tuples(users, cap): each cascade's
    # powers T_kl^e, e = 0..cap, multiplied up one at a time (a cumulative
    # product rounds differently), times every column so far, in C order
    # (float column norms round differently when columns are contiguous).
    products = np.full((trials, dim, 1), arithmetic.one, dtype=dtype)
    for mat in matrices.values():
        table = np.full((trials, cap + 1, dim), arithmetic.one, dtype=dtype)
        for e in range(1, cap + 1):
            table[:, e] = mul(table[:, e - 1], mat)
        products = mul(products[:, :, :, None], table.transpose(0, 2, 1)[:, :, None, :], order="C")
        products = products.reshape(trials, dim, -1)
    # the cap n - 1 columns are the same chains of multiplies, the sub-grid
    # below cap on every exponent axis; the user-3 prefix H_21 H_23^-1 is not a cascade
    grid = products.reshape(trials, dim, *(cap + 1,) * len(matrices))
    lower = grid[(..., *(slice(cap),) * len(matrices))].reshape(trials, dim, -1)
    d = partial(_link, diagonals)
    raw = {1: products, 3: mul(div(d(2, 1), d(2, 3))[:, :, None], lower)}
    raw.update({i: mul(div(d(1, 3), d(1, i))[:, :, None], raw[3]) for i in range(2, users + 1) if i != 3})
    return dict(sorted(raw.items())), degenerate


# a degenerate trial's norms and quotients are flagged, not warned about
@np.errstate(all="ignore")
def _stacked_precoders(diagonals: np.ndarray) -> tuple[PrecoderSet, list[str | None]]:
    """The precoders of a stack of effective channels, built in one pass, and the degenerate trials.

    The ``_COMPLEX`` ``_stacked_columns`` of ``diagonals``, one
    ``EffectiveChannel.diagonals`` per trial, at the cap ``exponent_cap``
    reads off its shape, each column normalised over one trial's rows, so
    each slice has the bits of that trial built alone. ``build_precoders``
    documents the construction and its errors; the second value holds, per
    trial, None or the message it raises on that trial alone, and such a
    trial's slice is not usable.
    """
    precoders, degenerate = _stacked_columns(diagonals, exponent_cap(diagonals.shape[1], diagonals.shape[3]), _COMPLEX)
    for user, mat in precoders.items():
        norms = np.sqrt(np.sum(np.abs(mat) ** 2, axis=1, keepdims=True))
        _flag(degenerate, ~np.isfinite(norms), f"precoder column norms for user {user} overflowed")
        _flag(degenerate, norms == 0, f"precoder column for user {user} vanished")
        mat /= norms
    return PrecoderSet(precoders=precoders), degenerate


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

    This is the batch of one of the stacked build that ``simulate_link``
    runs over a chunk of trials at once; there is no other construction.

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
    stack, degenerate = _stacked_precoders(eff._single()[None])
    if degenerate[0]:
        raise DegenerateRealizationError(degenerate[0])
    return PrecoderSet(precoders={user: mat[0] for user, mat in stack.precoders.items()})


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
    users, n = _check_int("users", users, 3), _check_int("n", n, 1)
    dof = Fraction(_stream_count(users, n), effective_dim(users, n))
    if layer == DOUBLE_LAYER:
        dof = dof / 2
    return dof
