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

One private fold owns that rule and the cancellation rule, over optional
leading trial axes. ``GainPlan`` and ``EffectiveChannel``, like
``cj_precoder.PrecoderSet``, may hold such a stack of trials and read their
sizes off the trailing axes: ``EffectiveChannel(channels, gains, coding_tag)``
folds and checks its own diagonals, and the link simulation's redraw loop
wraps its own fold of each attempt's gain stack as one.

User labels are 1-based everywhere in the public API; array axes are the
corresponding 0-based indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


# The first key of every subseed path, one stream per kind of draw; every CSV byte depends on them.
_STREAMS = {"gains": 0, "chain": 1, "channels": 2, "link": 3}


def _check_int(name: str, value: object, minimum: float) -> int:
    """``value`` as a Python int; ParameterError naming ``name`` unless it is a non-bool integer >= ``minimum``.

    This is the one rule of every seed, key, count and user label; a
    ``minimum`` of ``-np.inf`` asks for an integer alone. Sizes computed
    from the returned int stay exact under numpy integer arguments.
    """
    if type(value) is bool or not isinstance(value, (int, np.integer)) or value < minimum:
        bound = f" >= {minimum}" if minimum > -np.inf else ""
        raise ParameterError(f"{name} must be an integer{bound}, got {count_text(value)}")
    return int(value)


def subseed(seed: int, *key: int) -> int:
    """Derive a child seed from ``seed`` and an integer key path.

    Distinct key paths give statistically independent substreams, which keeps
    channel draws, gain draws, and per-trial noise decoupled even when they
    share one experiment seed.

    Raises
    ------
    ParameterError
        If ``seed`` or any key is not an integer >= 0 (a bool is not one).
    """
    _check_int("seed", seed, 0)
    for k in key:
        _check_int("key", k, 0)
    seq = np.random.SeedSequence(seed, spawn_key=key)
    return int(seq.generate_state(1, np.uint64)[0])


def _complex_normal(rng: np.random.Generator, shape: int | tuple[int, ...]) -> np.ndarray:
    """Circularly symmetric unit-variance complex normals ``(re + 1j im) / sqrt(2)``, ``re`` drawn first."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _sample_unit_complex(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """``_complex_normal`` draws with every one below ``MIN_DRAW_MAGNITUDE`` redrawn."""
    out = _complex_normal(rng, shape)
    while True:
        small = np.abs(out) < MIN_DRAW_MAGNITUDE
        if not small.any():
            return out
        out[small] = _complex_normal(rng, int(small.sum()))


def _check_sizes(users: int, slots: int, min_users: int, min_slots: int) -> tuple[int, int]:
    return _check_int("users", users, min_users), _check_int("slots", slots, min_slots)


def count_text(count: int) -> str:
    """``count`` in decimal, or by its bit length past the interpreter's int -> str digit limit."""
    try:
        return str(count)
    except ValueError:
        return f"<{count.bit_length()}-bit number>"


def check_byte_budget(needed: int, what: str, *counts: int) -> None:
    """CapacityError when an array of ``needed`` bytes would exceed ``BYTE_BUDGET``.

    ``what`` names the array with one ``{}`` per count. The message is built
    only on refusal, its counts through ``count_text``.
    """
    if needed > BYTE_BUDGET:
        raise CapacityError(
            f"{what.format(*map(count_text, counts))} need {count_text(needed)} bytes, "
            f"over the {BYTE_BUDGET}-byte budget; use closed_form_dof for accounting at this size"
        )


def _check_finite_nonzero(what: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{what} must be finite")
    if np.any(arr == 0):
        raise ParameterError(f"{what} must be nonzero")


def _check_model(model: str) -> None:
    if model not in CHANNEL_MODELS:
        raise ParameterError(f"unknown channel model {model!r}")


def _check_users(users: int, *labels: int) -> None:
    for label in labels:
        if _check_int("user label", label, 1) > users:
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
        _check_model(self.model_tag)
        _check_finite_nonzero("channel entries", self.entries)
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

    Both arrays have shape ``(..., users, slots)``, any leading axes a stack
    of trials; ``alpha[j-1, t]`` scales transmitter j in slot t and
    ``beta[k-1, t]`` scales receiver k. Every entry is finite and nonzero.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        if self.alpha.ndim < 2:
            raise ParameterError(f"alpha shape {self.alpha.shape} is not (..., users, slots)")
        _check_sizes(*self.alpha.shape[-2:], 1, 1)
        for name, arr in (("alpha", self.alpha), ("beta", self.beta)):
            if arr.shape != self.alpha.shape:
                raise ParameterError(f"{name} shape {arr.shape} != {self.alpha.shape}")
            _check_finite_nonzero(name, arr)


def slot_fold(coding: str) -> int:
    """Raw slots summed into each effective entry; ParameterError for an unknown ``coding``."""
    if coding not in SLOT_FOLD:
        raise ParameterError(f"unknown coding mode {coding!r}")
    return SLOT_FOLD[coding]


def _fold_diagonals(
    entries: np.ndarray, alpha: np.ndarray | None, beta: np.ndarray | None, coding: str
) -> tuple[np.ndarray, np.ndarray]:
    """Effective diagonals of raw channel ``entries`` under ``coding``, and where paired sums cancel.

    ``entries`` is a ``ChannelSet.entries`` tensor, (users, users, slots).
    ``alpha`` and ``beta`` are a ``GainPlan``'s transmit and receive gains,
    (..., users, slots) with any leading trial axes, or both None under
    ``plain``.
    Returns the diagonals, (..., users, users, dim), and a (..., users,
    users) mask, True on a link where some paired sum's magnitude is at
    most ``DEGENERATE_REL_TOL`` of the link's mean magnitude; a pair that
    sums to exactly 0, and so an all-zero link, counts. Every step is
    entrywise or a reduction over one link's slots, so each trial's slice
    has the bits of that trial folded alone.

    Raises ``ParameterError`` for an unknown coding, gains under ``plain``
    or none under the other codings, gains shaped unlike the channels, a
    slot count the fold does not divide, a diagonal that is not finite or
    a link whose mean magnitude is not, or a zero diagonal where no slots
    pair. Finiteness is checked before the cancellation test, so a product
    that overflows is a ``ParameterError`` and not a cancelled pair.
    """
    fold = slot_fold(coding)
    users, _, slots = entries.shape
    if (alpha is None) != (coding == PLAIN):
        raise ParameterError(f"{coding} coding takes {'no' if coding == PLAIN else 'a'} gain plan")
    if alpha is not None and alpha.shape[-2:] != (users, slots):
        raise ParameterError(f"gain plan shape {alpha.shape[-2:]} != channel shape ({users}, {slots})")
    if slots % fold:
        raise ParameterError(f"{coding} coding requires a slot count divisible by {fold}")
    # products of caller-supplied arrays can overflow; that is reported as a
    # non-finite diagonal below rather than as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = entries
        if alpha is not None:
            scaled = beta[..., :, None, :] * entries
            scaled *= alpha[..., None, :, :]  # in place: one temporary, same bits
        diagonals = scaled.reshape(*scaled.shape[:-1], fold, -1).sum(axis=-2)
    if not np.all(np.isfinite(diagonals)):
        raise ParameterError("effective diagonals must be finite")
    if fold == 1:
        # nothing pairs, so nothing cancels; a zero is an underflow
        if np.any(diagonals == 0):
            raise ParameterError("effective diagonals must be nonzero")
        return diagonals, np.zeros(diagonals.shape[:-1], dtype=bool)
    with np.errstate(over="ignore"):
        mags = np.abs(diagonals)
        mean_mag = mags.mean(axis=-1, keepdims=True)
    # an overflowed mean would make every finite entry look cancelled
    if not np.all(np.isfinite(mean_mag)):
        raise ParameterError("effective diagonal magnitudes must have a finite mean")
    return diagonals, (mags <= DEGENERATE_REL_TOL * mean_mag).any(axis=-1)


@dataclass(frozen=True)
class EffectiveChannel:
    """Diagonal effective channels of ``channels`` under one coding mode.

    ``diagonals[k-1, j-1]`` holds the length-``dim`` diagonal of the
    effective channel from transmitter j to receiver k, computed on
    construction. Each effective entry q sums ``fold`` gain-weighted raw
    slots ``p*dim + q`` (p = 0..fold-1): ``fold`` is 2 for ``double`` coding
    and 1 otherwise, and ``dim = channels.slots // fold``. ``tx_gains`` and
    ``rx_gains`` (or every user's at once, ``tx_gain_table`` and
    ``rx_gain_table``) hand those per-slot gains to the transmit and receive
    chains. The diagonals come from the module's one fold. A stack of gains
    gives a stack, every array above with the same leading axes and each
    trial's slice that trial's own bits; code that takes one trial refuses it.

    Raises ``ParameterError`` for an unknown coding tag, a gain plan under
    ``plain`` or none under the other codings, a gain plan shaped unlike the
    channels, a slot count ``fold`` does not divide, a non-finite or zero
    entry (an overflowed product included) or paired sums too large to
    average, and
    ``DegenerateRealizationError`` when a paired sum under ``double``
    cancels to below ``DEGENERATE_REL_TOL`` of its matrix mean magnitude.
    """

    channels: ChannelSet
    gains: GainPlan | None
    coding_tag: str
    diagonals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        gains = self.gains
        diagonals, cancelled = _fold_diagonals(
            self.channels.entries,
            None if gains is None else gains.alpha,
            None if gains is None else gains.beta,
            self.coding_tag,
        )
        if cancelled.any():
            *_, k, j = np.unravel_index(int(np.argmax(cancelled)), cancelled.shape)
            raise DegenerateRealizationError(
                f"paired gains cancelled on link ({k + 1}, {j + 1}); redraw the gain plan"
            )
        object.__setattr__(self, "diagonals", diagonals)

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
        return self.diagonals[..., receiver - 1, transmitter - 1, :]

    def tx_gains(self, user: int) -> np.ndarray:
        """Transmit gains of 1-based ``user`` as a ``(fold, dim)`` array.

        Entry ``[p, q]`` scales raw slot ``p*dim + q``, which feeds effective
        entry q. Plain coding has unit gains.
        """
        _check_users(self.users, user)
        return self.tx_gain_table[..., user - 1, :, :]

    def rx_gains(self, user: int) -> np.ndarray:
        """Receive gains of 1-based ``user``, laid out like ``tx_gains``."""
        _check_users(self.users, user)
        return self.rx_gain_table[..., user - 1, :, :]

    @property
    def tx_gain_table(self) -> np.ndarray:
        """Every user's ``tx_gains`` as one ``(users, fold, dim)`` array."""
        return self._gain_table("alpha")

    @property
    def rx_gain_table(self) -> np.ndarray:
        """Every user's ``rx_gains`` as one ``(users, fold, dim)`` array."""
        return self._gain_table("beta")

    def _gain_table(self, name: str) -> np.ndarray:
        if self.gains is None:  # unit gains for each (..., users) row of the diagonals
            return np.ones((*self.diagonals.shape[:-2], self.fold, self.dim))
        gains = getattr(self.gains, name)
        return gains.reshape(*gains.shape[:-1], self.fold, self.dim)

    @classmethod
    def _folded(cls, channels: ChannelSet, gains: GainPlan | None, coding: str, diagonals: np.ndarray):
        """The channel, stacked or not, of checked ``gains`` and of ``diagonals`` the caller folded."""
        return _unchecked(cls, channels=channels, gains=gains, coding_tag=coding, diagonals=diagonals)

    def _trial(self, index: int) -> EffectiveChannel:
        """Trial ``index`` of this stack; its gains and diagonals are views of the stack's."""
        plan = self.gains
        gains = None if plan is None else _unchecked(GainPlan, alpha=plan.alpha[index], beta=plan.beta[index])
        return self._folded(self.channels, gains, self.coding_tag, self.diagonals[index])

    def _single(self) -> np.ndarray:
        """``diagonals``; ParameterError if this holds a stack of trials, for code that takes one trial."""
        if self.diagonals.ndim > 3:
            raise ParameterError(f"expected one trial's effective channel, got a stack of {self.diagonals.shape[:-3]}")
        return self.diagonals


def _unchecked(cls: type, **fields: object):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, built without its checks or derivations."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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
        For out-of-range sizes, a ``seed`` that is not an integer >= 0, or an
        unknown model tag.
    CapacityError
        If the complex128 tensor, 16 * users^2 * slots bytes, would exceed
        ``BYTE_BUDGET``; checked before anything is allocated.
    """
    users, slots = _check_sizes(users, slots, 3, 2)
    _check_int("seed", seed, 0)
    check_byte_budget(16 * users**2 * slots, "channels for {} users over {} slots", users, slots)
    _check_model(model)  # before the draw, which for iid is the whole tensor
    rng = np.random.default_rng(seed)
    if model == CONSTANT:
        base = _sample_unit_complex(rng, (users, users))
        entries = np.repeat(base[:, :, None], slots, axis=2)
    elif model == SLOW_CHANGING:
        halves = [_sample_unit_complex(rng, (users, users)) for _ in range(2)]
        entries = np.repeat(np.stack(halves, axis=2), [slots // 2, slots - slots // 2], axis=2)
    else:
        entries = _sample_unit_complex(rng, (users, users, slots))
    return ChannelSet(entries=entries, model_tag=model)


def generate_gains(users: int, slots: int, seed: int) -> GainPlan:
    """Draw seeded artificial gain sequences.

    Alpha (transmit) gains are drawn before beta (receive) gains from a
    single stream, so one seed pins the whole plan. Entries are circularly
    symmetric unit-variance complex normals with magnitudes kept above
    ``MIN_DRAW_MAGNITUDE``. Raises ``ParameterError`` unless ``users`` and
    ``slots`` are integers >= 1 and ``seed`` one >= 0.
    """
    users, slots = _check_sizes(users, slots, 1, 1)
    _check_int("seed", seed, 0)
    alpha, beta = _draw_gains(users, slots, seed)
    return GainPlan(alpha=alpha, beta=beta)


def _draw_gains(users: int, slots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(alpha, beta)`` arrays of ``generate_gains(users, slots, seed)``, without the ``GainPlan``."""
    rng = np.random.default_rng(seed)
    return _sample_unit_complex(rng, (users, slots)), _sample_unit_complex(rng, (users, slots))


def build_effective(channels: ChannelSet, gains: GainPlan | None, coding: str) -> EffectiveChannel:
    """``EffectiveChannel(channels, gains, coding)``, with any gain plan dropped under ``plain``.

    Raises what ``EffectiveChannel`` raises.
    """
    return EffectiveChannel(channels, None if coding == PLAIN else gains, coding)
