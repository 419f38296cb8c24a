"""Channel decomposition of degenerate spectra.

A null sequence (distinct nonzero reals whose magnitudes, after rescaling,
sit in (0, 1]) is split into subsequences with at most one element per
"bucket", where bucket k collects the magnitudes in (1/(k+1), 1/k].  Each
extraction round walks the nonempty buckets in increasing k and takes the
element of lowest original index from each; the chosen elements form one
channel.  Because a channel holds at most one element per bucket, its
p-th power magnitude sum is dominated by the partial zeta sum over the
occupied levels, which is the finite-truncation summability certificate.

Spectra with multiplicities are first resolved into columns: copy c of an
eigenvalue belongs to column c (zero-based), so column c holds exactly the
eigenvalues with multiplicity greater than c.  Each column is a simple
value set and is partitioned by the bucket procedure; for spectra that
accumulate at infinity the procedure runs on reciprocals.  One rescaling,
by the largest magnitude over the whole spectrum, is shared by every
column so that channel structure is a property of the spectrum rather
than of any single column.  The rounds are not run one by one: a slot's
round is its rank in its (column, level) bucket, so two sorts of the slots
give every channel at once, held as flat integer arrays.

The same two sorts partition many simple value sets in one pass
(``channel_partition_sets``): the set takes the place of the column, and
each set is rescaled by its own largest magnitude, so every set gets the
channels that ``channel_partition`` gives it alone and no channel spans
two sets.

The untruncated theory needs extra bookkeeping to keep infinitely many
infinite channels alive; none of that survives truncation, so the column
construction above is the entire algorithm here.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .spectra import Accumulation, DiscreteSpectrum

__all__ = [
    "ChannelDecomposition",
    "DecompositionReport",
    "channel_partition",
    "channel_partition_sets",
    "decompose_spectrum",
    "verify_decomposition",
]

#: Exponent used when no explicit summability exponent is requested.
DEFAULT_EXPONENT = 2.0

#: Bucket levels at or above 2**53 are not distinct floats: 1/k and
#: 1/(k + 1) round alike, so no magnitude can be placed between them.
BUCKET_LEVEL_LIMIT = 2.0 ** 53


def _bucket_levels(mag: np.ndarray) -> np.ndarray:
    """Bucket level of each magnitude in (0, 1].

    Returns, per magnitude a, the unique k >= 1 with 1/(k+1) < a <= 1/k,
    where 1/k is the float quotient.  The boundary a = 1/k belongs to
    bucket k (right-closed).  Raises ValueError when some 1/a reaches
    2**53: beyond that, neighbouring levels k and k + 1 round to the same
    float 1/k and cannot be told apart.
    """
    lowest = float(np.minimum.reduce(mag))   # it has the largest 1/a
    inverse = 1.0 / lowest if lowest else math.inf
    if not inverse < BUCKET_LEVEL_LIMIT:
        raise ValueError(f"scaled magnitude {lowest!r} is too small to bucket: the dynamic range {inverse:.3e} "
                         "of the bucketed magnitudes reaches 2**53, beyond which float bucket levels cannot be "
                         "told apart")
    k = (1.0 / mag).astype(np.int64)
    # Float division can land on either side of an integer boundary; nudge
    # k until the defining inequality holds for the actual float value.
    while np.count_nonzero(up := mag <= 1.0 / (k + 1)):
        k[up] += 1
    while np.count_nonzero(down := mag > 1.0 / k):
        k[down] -= 1
    return k


def _ragged(flat, offsets: list) -> list:
    """``flat`` (a list or an array) cut at ``offsets``: one piece per channel."""
    return list(map(flat.__getitem__, map(slice, offsets[:-1], offsets[1:])))


@dataclass(frozen=True, eq=False)
class ChannelDecomposition:
    """Assignment of the multiplicity slots of a value multiset to simple channels.

    Slots are value-major: copy c of value n is slot
    ``sum(multiplicities[:n]) + c``.  Channel i is positions
    ``offsets[i]:offsets[i + 1]`` of the read-only int arrays ``flat_slots``
    (its slots) and ``flat_levels`` (their bucket levels: its certificate,
    which certifies the p-power summability bound).  ``prescale`` is the
    reciprocal of the largest bucketed magnitude (of the values, or of
    their reciprocals for spectra accumulating at infinity).

    Any assignment of known slots is accepted, so ``verify_decomposition``
    can inspect a broken one.  Int64 array arguments are taken over and
    made read-only, not copied.
    """

    values: tuple[float, ...]
    multiplicities: tuple[int, ...]
    flat_slots: np.ndarray = field(repr=False)
    flat_levels: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    p: float
    prescale: float

    def __post_init__(self) -> None:
        slots = np.asarray(self.flat_slots, dtype=np.int64)
        levels = np.asarray(self.flat_levels, dtype=np.int64)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        if levels.shape != slots.shape or slots.ndim != 1:
            raise ValueError("need one certificate level per channel slot")
        bounds = offsets.tolist()
        if offsets.ndim != 1 or bounds[:1] + bounds[-1:] != [0, slots.size] or bounds != sorted(bounds):
            raise ValueError("channel offsets must rise from 0 to the slot count")
        # as unsigned, a negative slot is out of range too
        if np.count_nonzero(slots.view(np.uint64) >= sum(self.multiplicities)):
            raise ValueError("channel references an unknown slot")
        for a in (slots, levels, offsets):
            a.setflags(write=False)
        vars(self).update(values=tuple(self.values), multiplicities=tuple(self.multiplicities),
                          flat_slots=slots, flat_levels=levels, offsets=offsets)

    @property
    def channel_count(self) -> int:
        return self.offsets.size - 1

    @property
    def channels(self) -> tuple[np.ndarray, ...]:
        """Slots of each channel, in extraction order, as read-only views of ``flat_slots``.

        The benchmark counts channels and slots through this view.
        """
        return tuple(_ragged(self.flat_slots, self.offsets.tolist()))

    def channel_of_slot(self) -> np.ndarray:
        """Channel index of each position of ``flat_slots``."""
        sizes = self.offsets[1:] - self.offsets[:-1]
        return np.arange(sizes.size).repeat(sizes)

    def value_indices(self) -> np.ndarray:
        """Value index of each position of ``flat_slots``."""
        return np.arange(len(self.values)).repeat(self.multiplicities)[self.flat_slots]

    def to_json(self) -> dict:
        bounds = self.offsets.tolist()
        return {
            "prescale": self.prescale,
            "p": self.p,
            "channels": _ragged(self.flat_slots.tolist(), bounds),
            "certificates": _ragged(self.flat_levels.tolist(), bounds),
        }


def _check_exponent(p) -> float:
    p = float(p)
    if not 1.0 < p < np.inf:   # written so that NaN fails
        raise ValueError("summability exponent must be finite and exceed 1")
    return p


def _check_counts(counts: tuple, what: str) -> None:
    if not all(issubclass(t, numbers.Integral) and t is not bool for t in set(map(type, counts))):
        raise ValueError(f"{what} must be integers")


def _repeating_segments(values: np.ndarray, segment: np.ndarray) -> np.ndarray:
    """The segments in which some value occurs more than once, ascending, once per repeat."""
    order = np.lexsort((values, segment))
    later, earlier = order[1:], order[:-1]
    return segment[later[(values[later] == values[earlier]) & (segment[later] == segment[earlier])]]


def _channels(slot_levels: np.ndarray, segment: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(flat_slots, flat_levels, offsets)`` of the bucket partition of the slots.

    Slot s has bucket level ``slot_levels[s]`` and lies in segment
    ``segment[s]`` (a multiplicity column or a value set); each segment is
    partitioned on its own.  Sorting the slots by (segment, level) lines up
    each bucket's members in slot order; a member's rank in its bucket is
    its extraction round, and a channel is the slots of one (segment,
    round), in level order.  Each per-slot temporary is dropped once used,
    so the peak stays a few arrays above the two that are returned.
    """
    by_bucket = np.lexsort((slot_levels, segment))
    # first[i]: sorted position i opens a bucket, later a channel; first[-1] closes the last
    first = np.empty(by_bucket.size + 1, dtype=bool)
    first[0] = first[-1] = True
    key = segment[by_bucket]
    np.not_equal(key[1:], key[:-1], out=first[1:-1])
    level = slot_levels[by_bucket]
    first[1:-1] |= level[1:] != level[:-1]
    del level
    rank = np.arange(by_bucket.size)
    opened = rank * first[:-1]
    np.maximum.accumulate(opened, out=opened)
    rank -= opened
    del opened
    # the segment key becomes the channel key (segment, round) in place
    key *= int(np.maximum.reduce(rank)) + 1
    key += rank
    del rank
    # the stable sort keeps each channel's slots in level order
    by_channel = key.argsort(kind="stable")
    key = key[by_channel]
    np.not_equal(key[1:], key[:-1], out=first[1:-1])
    del key
    flat_slots = by_bucket[by_channel]
    del by_bucket, by_channel
    return flat_slots, slot_levels[flat_slots], first.nonzero()[0]


def channel_partition(
    values,
    multiplicities,
    p: float = DEFAULT_EXPONENT,
    *,
    reciprocals: bool = False,
) -> ChannelDecomposition:
    """Partition a multiset of distinct nonzero values into simple channels.

    This is the core shared by :func:`decompose_spectrum` and by
    transformed-spectrum pipelines whose value sets need not obey any sign
    convention.  With every multiplicity 1, slot i is input position i.

    Parameters
    ----------
    values : array-like of float
        Distinct, finite, nonzero values.
    multiplicities : sequence of int
        Copy count per value, all >= 1.
    p : float
        Summability exponent, > 1.
    reciprocals : bool
        Bucket the reciprocals 1/value instead of the values themselves
        (used for spectra accumulating at infinity).
    """
    vals, mults = np.asarray(values, dtype=float), tuple(multiplicities)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("values must be a nonempty 1-d array")
    if len(mults) != vals.size:
        raise ValueError("need one multiplicity per value")
    _check_counts(mults, "multiplicities")
    if min(mults) < 1:
        raise ValueError("multiplicities must be >= 1")
    p = _check_exponent(p)
    mags = np.abs(vals)
    divisor = float(np.maximum.reduce(mags))
    if not 0.0 < np.minimum.reduce(mags) <= divisor < np.inf:   # written so that NaN fails
        raise ValueError("values must be finite and nonzero")
    ordered = np.sort(vals)
    if np.count_nonzero(ordered[1:] == ordered[:-1]):
        raise ValueError("values must be pairwise distinct")

    if reciprocals:
        with np.errstate(over="ignore"):
            mags = 1.0 / mags
        overflowed = np.flatnonzero(np.isinf(mags))
        if overflowed.size:
            raise ValueError(f"the reciprocal of value {float(vals[overflowed[0]])!r} overflows; "
                             "its bucket level cannot be computed")
        divisor = float(np.maximum.reduce(mags))

    # Dividing by the largest magnitude (rather than multiplying by its
    # reciprocal) makes the extremal ratio exactly 1.0, so every scaled
    # magnitude is a valid bucket argument.
    levels = _bucket_levels(mags / divisor)
    # slot s is copy column[s] of its value: slots are value-major
    counts = np.array(mults, dtype=np.int64)
    column = np.arange(counts.sum())
    column -= (counts.cumsum() - counts).repeat(counts)
    flat_slots, flat_levels, offsets = _channels(levels.repeat(counts), column)
    return ChannelDecomposition(
        values=vals.tolist(),
        multiplicities=list(map(int, mults)),
        flat_slots=flat_slots,
        flat_levels=flat_levels,
        offsets=offsets,
        p=p,
        prescale=1.0 / divisor,
    )


def channel_partition_sets(values, sizes, p: float = DEFAULT_EXPONENT) -> ChannelDecomposition:
    """Partition many sets of distinct nonzero values at once, each set on its own.

    ``values`` holds the sets one after another, ``sizes[i]`` values for
    set i.  Every set is divided by its own largest magnitude, as
    :func:`channel_partition` divides it, and then partitioned by the same
    two sorts with the set in place of the column.  The result is one
    decomposition of the disjoint union: every multiplicity is 1, slot i
    is position i of ``values``, and the channels of set i, less the set's
    first slot, are those of ``channel_partition(set_i, [1] * sizes[i], p)``
    in the same order.  The union stores each set's values already
    divided, so its largest magnitude, and so its ``prescale``, is 1.0.
    Inputs are refused with ``channel_partition``'s messages, naming the
    set; a value may repeat in two sets, not in one.
    """
    vals, counts = np.asarray(values, dtype=float), tuple(sizes)
    _check_counts(counts, "set sizes")
    if not counts:
        raise ValueError("need at least one value set")
    for i, n in enumerate(counts):
        if n < 1:
            raise ValueError(f"set {i}: values must be a nonempty 1-d array")
    if vals.ndim != 1 or sum(counts) != vals.size:
        raise ValueError("values must be a 1-d array of the sets' values, one set after another")
    p = _check_exponent(p)
    segment = np.arange(len(counts)).repeat(counts)
    mags = np.abs(vals)
    bad = np.flatnonzero(~((0.0 < mags) & (mags < np.inf)))   # written so that NaN is bad
    if bad.size:
        raise ValueError(f"set {segment[bad[0]]}: values must be finite and nonzero")
    repeating = _repeating_segments(vals, segment)
    if repeating.size:
        raise ValueError(f"set {repeating[0]}: values must be pairwise distinct")

    # each set divided by its own largest magnitude, as channel_partition divides it
    divisors = np.maximum.reduceat(mags, np.cumsum(counts) - counts).repeat(counts)
    flat_slots, flat_levels, offsets = _channels(_bucket_levels(mags / divisors), segment)
    return ChannelDecomposition(
        values=(vals / divisors).tolist(),
        multiplicities=[1] * vals.size,
        flat_slots=flat_slots,
        flat_levels=flat_levels,
        offsets=offsets,
        p=p,
        prescale=1.0,
    )


def decompose_spectrum(s: DiscreteSpectrum, p: float = DEFAULT_EXPONENT) -> ChannelDecomposition:
    """Resolve multiplicities into columns and partition each column.

    Copy c of eigenvalue n occupies column c; the columns share one
    rescaling factor computed from the whole spectrum.  For spectra
    accumulating at infinity the bucket procedure runs on reciprocals,
    which is where the summability certificate lives in that regime.
    """
    reciprocals = s.accumulation is Accumulation.TO_INFINITY
    if reciprocals and any(v == 0.0 for v, _ in s.entries):
        raise ValueError("cannot take reciprocals of a spectrum containing zero")
    return channel_partition(s.values, s.multiplicities, p, reciprocals=reciprocals)


@dataclass(frozen=True)
class DecompositionReport:
    """Outcome of the structural checks on a decomposition."""

    disjoint_cover: bool
    simple_channels: bool
    increasing_certificates: bool
    certificate_sums: tuple[float, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.disjoint_cover and self.simple_channels and self.increasing_certificates

    def to_json(self) -> dict:
        return {
            "disjoint_cover": self.disjoint_cover,
            "simple_channels": self.simple_channels,
            "increasing_certificates": self.increasing_certificates,
            "certificate_sums": list(self.certificate_sums),
            "violations": list(self.violations),
            "ok": self.ok,
        }


def verify_decomposition(c: ChannelDecomposition) -> DecompositionReport:
    """Check the structural invariants of a decomposition.

    Violations are reported, never raised, so adversarial inputs can be
    inspected.  The certificate sums sum(1/k^p) are the finite-truncation
    witnesses of per-channel p-power summability.
    """
    violations: list[str] = []
    size, total, levels = len(c.values), sum(c.multiplicities), c.flat_levels
    disjoint_cover = not np.count_nonzero(np.bincount(c.flat_slots, minlength=total) != 1)
    if not disjoint_cover:
        violations.append("channels do not partition the slot set")

    chan = c.channel_of_slot()
    pairs = np.sort(chan * size + c.value_indices())
    repeats = pairs[1:] == pairs[:-1]
    simple = not np.count_nonzero(repeats)
    if not simple:
        violations += [f"channel {i} repeats an eigenvalue" for i in np.unique(pairs[1:][repeats] // size)]
    reversals = (chan[1:] == chan[:-1]) & (levels[1:] <= levels[:-1])
    increasing = not np.count_nonzero(reversals)
    if not increasing:
        violations += [f"channel {i} certificate is not strictly increasing" for i in np.unique(chan[1:][reversals])]

    # 1/k^p once per distinct level, with Python's float pow; when k^p
    # overflows, k^-p, which underflows gracefully instead
    levels, terms = levels.tolist(), {}
    for k in set(levels):
        try:
            terms[k] = 1.0 / float(k) ** c.p
        except OverflowError:
            terms[k] = float(k) ** -c.p
    # the running Python's sum, channel by channel, in level order
    sums = map(sum, _ragged(list(map(terms.__getitem__, levels)), c.offsets.tolist()))
    return DecompositionReport(
        disjoint_cover=disjoint_cover,
        simple_channels=simple,
        increasing_certificates=increasing,
        certificate_sums=tuple(map(float, sums)),
        violations=tuple(violations),
    )
