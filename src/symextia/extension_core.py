"""Channel generation, gain planning, and effective-channel construction.

Raw per-slot channels for a K-user single-antenna interference channel are
held as a dense complex tensor indexed ``[receiver, transmitter, slot]``.
Artificial transmit/receive gain sequences turn those raw slots into the
diagonal effective channels consumed by the precoder and verification
layers. The three coding modes differ only in how raw slots fold into
effective entries:

``plain``
    No artificial gains; the effective diagonals are the raw slots.
``naive``
    One gain pair per slot, ``beta[k, t] * h[k, j, t] * alpha[j, t]``.
``double``
    Paired slots collapse two gain-scaled taps into one effective entry,
    halving the dimension:
    ``beta[k, q] h[k, j, q] alpha[j, q] + beta[k, D+q] h[k, j, D+q] alpha[j, D+q]``.

``EffectiveChannel`` owns that rule: its ``fold`` is the number of raw
slots summed per entry, and ``tx_gains``/``rx_gains`` give the per-slot gains
in folded layout.

User labels are 1-based everywhere in the public API; array axes are the
corresponding 0-based indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateRealizationError, ParameterError

CONSTANT = "constant"
SLOW_CHANGING = "slow_changing"
IID = "iid"
CHANNEL_MODELS = (CONSTANT, SLOW_CHANGING, IID)

PLAIN = "plain"
NAIVE = "naive"
DOUBLE = "double"
# Raw slots summed into each effective entry, per coding mode.
SLOT_FOLD = {PLAIN: 1, NAIVE: 1, DOUBLE: 2}
CODING_MODES = tuple(SLOT_FOLD)

# Raw draws below this magnitude are redrawn so downstream entrywise
# inverses stay bounded.
MIN_DRAW_MAGNITUDE = 1e-6

# A paired-sum effective entry whose magnitude falls below this fraction of
# its matrix mean counts as a cancellation and the realization is rejected.
DEGENERATE_REL_TOL = 1e-9

# Largest array, in bytes, that a run may ask for: the K x K x T channel
# tensor and the precoders are each checked against it, in exact integers,
# before numpy allocates them.
BYTE_BUDGET = 2 * 1024**3


def subseed(seed: int, *key: int) -> int:
    """Derive a child seed from ``seed`` and an integer key path.

    Distinct key paths give statistically independent substreams, which keeps
    channel draws, gain draws, and per-trial noise decoupled even when they
    share one experiment seed.

    Raises
    ------
    ParameterError
        If ``seed`` or any key is negative.
    """
    if min((seed, *key)) < 0:
        raise ParameterError(f"seed and key must be non-negative, got {seed} and {key}")
    seq = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, np.uint64)[0])


def _sample_unit_complex(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Circularly symmetric unit-variance complex normals, small draws redrawn."""
    out = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    while True:
        small = np.abs(out) < MIN_DRAW_MAGNITUDE
        if not small.any():
            return out
        redraw = (rng.standard_normal(int(small.sum())) + 1j * rng.standard_normal(int(small.sum()))) / np.sqrt(2.0)
        out[small] = redraw


def _check_sizes(users: int, slots: int, min_users: int, min_slots: int) -> None:
    if users < min_users:
        raise ParameterError(f"need at least {min_users} users, got {users}")
    if slots < min_slots:
        raise ParameterError(f"need at least {min_slots} slots, got {slots}")


def check_byte_budget(needed: int, what: str) -> None:
    """Refuse ``what`` when its ``needed`` bytes exceed ``BYTE_BUDGET``.

    Raises
    ------
    CapacityError
        Naming ``what``, its size and the budget.
    """
    if needed > BYTE_BUDGET:
        raise CapacityError(
            f"{what} need {needed} bytes, over the {BYTE_BUDGET}-byte budget; "
            "use closed_form_dof for accounting at this size"
        )


def _check_users(users: int, *labels: int) -> None:
    for label in labels:
        if not 1 <= label <= users:
            raise ParameterError(f"user label {label} outside 1..{users}")


@dataclass(frozen=True)
class ChannelSet:
    """Raw channel tensor for one realization of a K-user network.

    Attributes
    ----------
    entries : numpy.ndarray
        Complex tensor of shape ``(users, users, slots)``;
        ``entries[k-1, j-1, t]`` is the tap from transmitter j to receiver k
        in slot t. Treated as immutable once constructed. ``users`` (K, at
        least 3) and ``slots`` (T, at least 2) are read off its shape.
    model_tag : str
        One of ``constant``, ``slow_changing``, ``iid``.
    """

    entries: np.ndarray
    model_tag: str

    def __post_init__(self) -> None:
        shape = self.entries.shape
        if self.entries.ndim != 3 or shape[0] != shape[1]:
            raise ParameterError(f"entries shape {shape} is not (users, users, slots)")
        _check_sizes(self.users, self.slots, 3, 2)
        if self.model_tag not in CHANNEL_MODELS:
            raise ParameterError(f"unknown channel model {self.model_tag!r}")
        if not np.all(np.isfinite(self.entries)):
            raise ParameterError("channel entries must be finite")
        if np.any(self.entries == 0):
            raise ParameterError("channel entries must be nonzero")
        if self.model_tag == CONSTANT:
            if np.any(self.entries != self.entries[:, :, :1]):
                raise ParameterError("constant model requires identical slots")
        elif self.model_tag == SLOW_CHANGING:
            if self.slots % 2:
                raise ParameterError("slow_changing model requires an even slot count")
            halves = self.entries.reshape(self.users, self.users, 2, -1)
            if np.any(halves != halves[..., :1]):
                raise ParameterError("slow_changing model requires two constant halves")

    @property
    def users(self) -> int:
        return self.entries.shape[0]

    @property
    def slots(self) -> int:
        return self.entries.shape[2]


@dataclass(frozen=True)
class GainPlan:
    """Artificial transmit (alpha) and receive (beta) gain sequences.

    Both arrays have shape ``(users, slots)``; ``alpha[j-1, t]`` scales
    transmitter j in slot t and ``beta[k-1, t]`` scales receiver k.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        if self.alpha.ndim != 2:
            raise ParameterError(f"alpha shape {self.alpha.shape} is not (users, slots)")
        _check_sizes(*self.alpha.shape, 1, 1)
        for name, arr in (("alpha", self.alpha), ("beta", self.beta)):
            if arr.shape != self.alpha.shape:
                raise ParameterError(f"{name} shape {arr.shape} != {self.alpha.shape}")
            if not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} must be finite")
            if np.any(arr == 0):
                raise ParameterError(f"{name} must be nonzero")


def slot_fold(coding: str) -> int:
    """Raw slots summed into each effective entry; ParameterError for an unknown ``coding``."""
    if coding not in SLOT_FOLD:
        raise ParameterError(f"unknown coding mode {coding!r}")
    return SLOT_FOLD[coding]


def _check_coding(coding: str, channels: ChannelSet, gains: GainPlan | None) -> int:
    """Check that ``coding`` can fold ``channels`` with ``gains``; return its fold."""
    fold = slot_fold(coding)
    if coding == PLAIN:
        if gains is not None:
            raise ParameterError("plain coding takes no gain plan")
    elif gains is None:
        raise ParameterError(f"{coding} coding requires a gain plan")
    elif gains.alpha.shape != (channels.users, channels.slots):
        raise ParameterError(
            f"gain plan shape {gains.alpha.shape} != channel shape ({channels.users}, {channels.slots})"
        )
    if channels.slots % fold:
        raise ParameterError(f"{coding} coding requires a slot count divisible by {fold}")
    return fold


@dataclass(frozen=True)
class EffectiveChannel:
    """Diagonal effective channels produced by one coding mode.

    ``diagonals[k-1, j-1]`` holds the length-``dim`` diagonal of the
    effective channel from transmitter j to receiver k. Each effective entry
    q sums ``fold`` gain-weighted raw slots ``p*dim + q`` (p = 0..fold-1):
    ``fold`` is 2 for ``double`` coding and 1 otherwise, and
    ``dim = channels.slots // fold``. ``tx_gains`` and ``rx_gains`` hand
    those per-slot gains to the transmit and receive chains, so this class
    is the one place that knows how slots fold.
    """

    diagonals: np.ndarray
    coding_tag: str
    channels: ChannelSet
    gains: GainPlan | None

    def __post_init__(self) -> None:
        _check_coding(self.coding_tag, self.channels, self.gains)
        shape = (self.users, self.users, self.dim)
        if self.diagonals.shape != shape:
            raise ParameterError(f"diagonals shape {self.diagonals.shape} != {shape}")
        if not np.all(np.isfinite(self.diagonals)):
            raise ParameterError("effective diagonals must be finite")
        if np.any(self.diagonals == 0):
            raise ParameterError("effective diagonals must be nonzero")

    @property
    def users(self) -> int:
        return self.channels.users

    @property
    def fold(self) -> int:
        return slot_fold(self.coding_tag)

    @property
    def dim(self) -> int:
        return self.channels.slots // self.fold

    def diagonal(self, receiver: int, transmitter: int) -> np.ndarray:
        """Effective diagonal from 1-based ``transmitter`` to ``receiver``."""
        _check_users(self.users, receiver, transmitter)
        return self.diagonals[receiver - 1, transmitter - 1]

    def tx_gains(self, user: int) -> np.ndarray:
        """Transmit gains of 1-based ``user`` as a ``(fold, dim)`` array.

        Entry ``[p, q]`` scales raw slot ``p*dim + q``, which feeds effective
        entry q. Plain coding has unit gains.
        """
        return self._slot_gains("alpha", user)

    def rx_gains(self, user: int) -> np.ndarray:
        """Receive gains of 1-based ``user``, laid out like ``tx_gains``."""
        return self._slot_gains("beta", user)

    def _slot_gains(self, name: str, user: int) -> np.ndarray:
        _check_users(self.users, user)
        if self.gains is None:
            return np.ones((self.fold, self.dim))
        return getattr(self.gains, name)[user - 1].reshape(self.fold, self.dim)


def generate_channels(users: int, slots: int, model: str, seed: int) -> ChannelSet:
    """Draw one seeded channel realization.

    Parameters
    ----------
    users : int
        Number of user pairs K >= 3.
    slots : int
        Extension length T >= 2 (even for ``slow_changing``).
    model : str
        ``constant`` repeats one draw across all slots, ``slow_changing``
        holds two draws over the two halves of the extension, ``iid``
        draws every slot independently.
    seed : int
        Seed for the local random stream; equal seeds reproduce the
        realization exactly.

    Returns
    -------
    ChannelSet

    Raises
    ------
    ParameterError
        For out-of-range sizes or an unknown model tag.
    CapacityError
        If the complex128 tensor, 16 * users^2 * slots bytes, would exceed
        ``BYTE_BUDGET``; checked before anything is allocated.
    """
    _check_sizes(users, slots, 3, 2)
    check_byte_budget(
        16 * int(users) ** 2 * int(slots), f"channels for {users} users over {slots} slots"
    )
    rng = np.random.default_rng(seed)
    if model == CONSTANT:
        base = _sample_unit_complex(rng, (users, users))
        entries = np.repeat(base[:, :, None], slots, axis=2)
    elif model == SLOW_CHANGING:
        half = slots // 2
        first = _sample_unit_complex(rng, (users, users))
        second = _sample_unit_complex(rng, (users, users))
        entries = np.concatenate(
            [np.repeat(first[:, :, None], half, axis=2), np.repeat(second[:, :, None], slots - half, axis=2)],
            axis=2,
        )
    else:
        entries = _sample_unit_complex(rng, (users, users, slots))
    return ChannelSet(entries=entries, model_tag=model)


def generate_gains(users: int, slots: int, seed: int) -> GainPlan:
    """Draw seeded artificial gain sequences.

    Alpha (transmit) gains are drawn before beta (receive) gains from a
    single stream, so one seed pins the whole plan. Entries are circularly
    symmetric unit-variance complex normals with magnitudes kept above
    ``MIN_DRAW_MAGNITUDE``.
    """
    _check_sizes(users, slots, 1, 1)
    rng = np.random.default_rng(seed)
    alpha = _sample_unit_complex(rng, (users, slots))
    beta = _sample_unit_complex(rng, (users, slots))
    return GainPlan(alpha=alpha, beta=beta)


def build_effective(channels: ChannelSet, gains: GainPlan | None, coding: str) -> EffectiveChannel:
    """Combine raw channels and gains into diagonal effective channels.

    Parameters
    ----------
    channels : ChannelSet
    gains : GainPlan or None
        Required for ``naive`` and ``double`` coding, where it must match
        ``channels`` in shape. ``plain`` ignores any supplied plan.
    coding : str
        One of ``plain``, ``naive``, ``double``.

    Returns
    -------
    EffectiveChannel

    Raises
    ------
    ParameterError
        Unknown coding tag, missing gains, shape mismatch, or odd slot
        count under ``double``.
    DegenerateRealizationError
        A paired sum under ``double`` coding cancelled to below
        ``DEGENERATE_REL_TOL`` of its matrix mean magnitude.
    """
    if coding == PLAIN:
        gains = None
    fold = _check_coding(coding, channels, gains)
    scaled = channels.entries
    if gains is not None:
        scaled = gains.beta[:, None, :] * scaled
        scaled *= gains.alpha[None, :, :]  # in place: one K x K x T temporary, same bits
    diagonals = scaled.reshape(*scaled.shape[:2], fold, -1).sum(axis=2)
    # only a paired sum can cancel; checked before EffectiveChannel, which
    # rejects zero entries as a ParameterError
    if fold > 1:
        mags = np.abs(diagonals)
        mean_mag = mags.mean(axis=2, keepdims=True)
        # <= so an all-zero link (mean 0) also counts as cancelled
        cancelled = mags <= DEGENERATE_REL_TOL * mean_mag
        if cancelled.any():
            k, j, _ = np.unravel_index(int(np.argmax(cancelled)), cancelled.shape)
            raise DegenerateRealizationError(
                f"paired gains cancelled on link ({k + 1}, {j + 1}); redraw the gain plan"
            )
    return EffectiveChannel(diagonals=diagonals, coding_tag=coding, channels=channels, gains=gains)
