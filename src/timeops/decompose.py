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
    if not all(issubclass(t, numbers.Integral) and t is not bool for t in set(map(type, mults))):
        raise ValueError("multiplicities must be integers")
    if min(mults) < 1:
        raise ValueError("multiplicities must be >= 1")
    if not 1.0 < float(p) < np.inf:   # written so that NaN fails
        raise ValueError("summability exponent must be finite and exceed 1")
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

    # Slot s is copy column[s] of value owner[s].  Sorting the slots by
    # (column, level) lines up each bucket's members in input order; a
    # member's rank in its bucket is its extraction round, and a channel is
    # the slots of one (column, round), in level order.  first[s]: sorted
    # slot s opens a bucket, later a channel; first[-1] closes the last.
    total = sum(mults)
    steps = np.arange(total + 1)
    first = np.empty(total + 1, dtype=bool)
    first[0] = first[-1] = True
    if total == vals.size:   # one column and slot n is value n: a plain sort, cheaper on small inputs
        by_bucket = levels.argsort(kind="stable")
        level = levels[by_bucket]
        np.not_equal(level[1:], level[:-1], out=first[1:-1])
        channel = steps[:-1] - np.maximum.accumulate(steps[:-1] * first[:-1])
    else:
        counts = np.array(mults, dtype=np.int64)
        owner = np.arange(vals.size).repeat(counts)
        column = steps[:-1] - (counts.cumsum() - counts).repeat(counts)
        by_bucket = np.lexsort((levels[owner], column))
        column, level = column[by_bucket], levels[owner[by_bucket]]
        np.not_equal(column[1:], column[:-1], out=first[1:-1])
        first[1:-1] |= level[1:] != level[:-1]
        rank = steps[:-1] - np.maximum.accumulate(steps[:-1] * first[:-1])
        channel = column * (int(np.maximum.reduce(rank)) + 1) + rank
    # the stable sort keeps each channel's slots in level order
    by_channel = channel.argsort(kind="stable")
    channel = channel[by_channel]
    np.not_equal(channel[1:], channel[:-1], out=first[1:-1])
    return ChannelDecomposition(
        values=vals.tolist(),
        multiplicities=list(map(int, mults)),
        flat_slots=by_bucket[by_channel],
        flat_levels=level[by_channel],
        offsets=first.nonzero()[0],
        p=float(p),
        prescale=1.0 / divisor,
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
    simple = disjoint_cover and total == size   # slot n is value n, and a cover repeats no slot
    if not simple:
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
