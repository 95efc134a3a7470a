"""Channel generation, gain planning, and effective-channel construction.

Raw per-slot channels for a K-user single-antenna interference channel are
held as a complex tensor indexed ``[receiver, transmitter, slot]``: dense
for the ``slow_changing`` and ``iid`` models, and for a generated
``constant`` channel a read-only broadcast view of its one K x K draw.
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
# The one rule of every channel model: how many constant slot blocks it
# draws, one (users, users) matrix each, held over slots // blocks slots in
# order; None draws every slot on its own.
_MODEL_BLOCKS = {CONSTANT: 1, SLOW_CHANGING: 2, IID: None}
CHANNEL_MODELS = tuple(_MODEL_BLOCKS)

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
    """Circularly symmetric unit-variance complex normals ``(re + 1j im) / sqrt(2)``, ``re`` drawn first.

    Built in place in its one complex array, with the ufuncs of that
    expression, so the bits are the same.
    """
    re = rng.standard_normal(shape)
    out = np.multiply(1j, rng.standard_normal(shape))
    out += re
    out /= np.sqrt(2.0)
    return out


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
    # a complex entry is zero when both parts are, signed zeros included
    if not np.isfinite(arr).all():
        raise ParameterError(f"{what} must be finite")
    if not arr.all():
        raise ParameterError(f"{what} must be nonzero")


def _check_model(model: str, slots: int) -> int | None:
    """``model``'s block count in ``_MODEL_BLOCKS``.

    ParameterError for an unknown model or a slot count its blocks do not divide.
    """
    if not isinstance(model, str) or model not in _MODEL_BLOCKS:
        raise ParameterError(f"unknown channel model {model!r}")
    blocks = _MODEL_BLOCKS[model]
    if blocks is not None and slots % blocks:
        raise ParameterError(f"{model} model requires a slot count divisible by {blocks}, got {slots}")
    return blocks


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
        Complex128 tensor of shape ``(users, users, slots)``;
        ``entries[k-1, j-1, t]`` is the tap from transmitter j to receiver k
        in slot t. Stored through ``np.asarray(entries, dtype=np.complex128)``:
        a complex128 array is kept as the same object, and integer, float
        or complex64 taps are converted once, so every channel takes the
        one complex computation. Treated as immutable once constructed;
        ``generate_channels`` gives a ``constant`` channel a read-only
        ``np.broadcast_to`` view of its one draw. A view whose slot axis has
        stride 0 is checked through its one stored slot, ``entries[..., :1]``,
        with the messages a dense copy gets; its blocks are constant by
        construction. ``users`` (K, at least 3) and ``slots`` (T, at least 2)
        are read off its shape.
    model_tag : str
        One of ``CHANNEL_MODELS``. A model is the number of constant slot
        blocks it holds, from ``_MODEL_BLOCKS``: ``constant`` 1,
        ``slow_changing`` 2 (the two halves), ``iid`` None (no rule on the
        slots). ``ParameterError`` refuses an unknown model, a slot count
        the blocks do not divide, and a block whose slots differ.
    """

    entries: np.ndarray
    model_tag: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=np.complex128))
        shape = self.entries.shape
        if self.entries.ndim != 3 or shape[0] != shape[1]:
            raise ParameterError(f"entries shape {shape} is not (users, users, slots)")
        _check_sizes(self.users, self.slots, 3, 2)
        blocks = _check_model(self.model_tag, self.slots)
        if self.entries.strides[2] == 0:
            # every slot reads the one stored slot, so every block is constant
            _check_finite_nonzero("channel entries", self.entries[..., :1])
            return
        _check_finite_nonzero("channel entries", self.entries)
        if blocks is not None:
            held = self.entries.reshape(self.users, self.users, blocks, -1)
            if np.any(held != held[..., :1]):
                raise ParameterError(f"{self.model_tag} model requires constant blocks of {self.slots // blocks} slots")

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
    ``beta[k-1, t]`` scales receiver k. Both are stored as complex128, as
    ``ChannelSet`` stores its taps, and every entry is finite and nonzero.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.complex128))
        if self.alpha.ndim < 2:
            raise ParameterError(f"alpha shape {self.alpha.shape} is not (..., users, slots)")
        _check_sizes(*self.alpha.shape[-2:], 1, 1)
        for name, arr in (("alpha", self.alpha), ("beta", self.beta)):
            if arr.shape != self.alpha.shape:
                raise ParameterError(f"{name} shape {arr.shape} != {self.alpha.shape}")
            _check_finite_nonzero(name, arr)


def slot_fold(coding: str) -> int:
    """Raw slots summed into each effective entry; ParameterError for an unknown ``coding``."""
    if not isinstance(coding, str) or coding not in SLOT_FOLD:
        raise ParameterError(f"unknown coding mode {coding!r}")
    return SLOT_FOLD[coding]


def _slot_layer(entries: np.ndarray, alpha: np.ndarray, beta: np.ndarray, slots: slice) -> np.ndarray:
    """``beta * h * alpha`` over the raw ``slots``, (..., users, users, len(slots)), in one array."""
    layer = beta[..., :, None, slots] * entries[..., slots]
    layer *= alpha[..., None, :, slots]
    return layer


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
    has the bits of that trial folded alone. Each fold layer's gain-scaled
    slots are formed on their own and added in layer order, the additions
    a sum over the fold axis makes, so no product over all the slots is
    held.

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
    dim = slots // fold
    with np.errstate(over="ignore", invalid="ignore"):
        if alpha is None:
            diagonals = np.array(entries)  # owned and writable: the channel's entries may be a read-only view
        else:
            # the layers added in order, as the sum over a fold axis adds them
            diagonals = _slot_layer(entries, alpha, beta, slice(0, dim))
            for p in range(1, fold):
                diagonals += _slot_layer(entries, alpha, beta, slice(p * dim, (p + 1) * dim))
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
    ``rx_gains``, one 1-based user at a time, are the one public way to read
    those per-slot gains; they hand them to the transmit and receive chains.
    The diagonals come from the module's one fold, complex128 as the
    channels and gains are. A stack of gains
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
        return self._gain_table("alpha")[..., user - 1, :, :]

    def rx_gains(self, user: int) -> np.ndarray:
        """Receive gains of 1-based ``user``, laid out like ``tx_gains``."""
        _check_users(self.users, user)
        return self._gain_table("beta")[..., user - 1, :, :]

    def _gain_table(self, name: str) -> np.ndarray:
        """Every user's ``tx_gains`` (``name`` "alpha") or ``rx_gains`` ("beta"), (..., users, fold, dim)."""
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
        Extension length T >= 2, divisible by the model's block count.
    model : str
        One of ``CHANNEL_MODELS``, drawn as its number of constant slot
        blocks in ``_MODEL_BLOCKS``: ``constant`` 1, ``slow_changing`` 2,
        ``iid`` None. Each block's (users, users) matrix is drawn in turn
        and held over its T / blocks slots: ``constant``'s one matrix as a
        read-only broadcast view over every slot (a write raises
        ``ValueError``), ``slow_changing``'s two repeated into a dense
        tensor. ``iid`` draws the whole (users, users, T) tensor at once.
    seed : int
        Seed for the local random stream; equal seeds reproduce the
        realization exactly.

    Returns
    -------
    ChannelSet

    Raises
    ------
    ParameterError
        For out-of-range sizes, a ``seed`` that is not an integer >= 0, an
        unknown model tag, or a slot count the model's blocks do not divide
        (an odd one under ``slow_changing``). The model is checked after the
        sizes, seed and budget and before anything is drawn.
    CapacityError
        If the complex128 tensor, 16 * users^2 * slots bytes, would exceed
        ``BYTE_BUDGET``; checked before anything is allocated, for every
        model: a ``constant`` view holds only its draw, but the gains and
        the fold of every coding still scale with the slots.
    """
    users, slots = _check_sizes(users, slots, 3, 2)
    _check_int("seed", seed, 0)
    check_byte_budget(16 * users**2 * slots, "channels for {} users over {} slots", users, slots)
    blocks = _check_model(model, slots)  # before the draw, which can be the whole tensor
    rng = np.random.default_rng(seed)
    if blocks is None:
        entries = _sample_unit_complex(rng, (users, users, slots))
    else:
        draws = [_sample_unit_complex(rng, (users, users)) for _ in range(blocks)]
        if blocks == 1:  # one block is one matrix, viewed over every slot
            entries = np.broadcast_to(draws[0][:, :, None], (users, users, slots))
        else:
            entries = np.repeat(np.stack(draws, axis=2), slots // blocks, axis=2)
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
