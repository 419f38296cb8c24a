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
than of any single column.

The untruncated theory needs extra bookkeeping to keep infinitely many
infinite channels alive; none of that survives truncation, so the column
construction above is the entire algorithm here.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .spectra import Accumulation, DiscreteSpectrum

__all__ = [
    "ChannelDecomposition",
    "DecompositionReport",
    "bucket_index",
    "channel_partition",
    "decompose_spectrum",
    "verify_decomposition",
]

#: Exponent used when no explicit summability exponent is requested.
DEFAULT_EXPONENT = 2.0

#: Bucket levels at or above 2**53 are not distinct floats: 1/k and
#: 1/(k + 1) round alike, so no magnitude can be placed between them.
BUCKET_LEVEL_LIMIT = 2.0 ** 53


def bucket_index(a: float) -> int:
    """Bucket level of a magnitude in (0, 1].

    Returns the unique k >= 1 with 1/(k+1) < |a| <= 1/k.  The boundary
    |a| = 1/k belongs to bucket k (right-closed).

    Raises
    ------
    ValueError
        If |a| is zero, exceeds 1, or is so small that 1/|a| >= 2**53:
        beyond that, neighbouring levels k and k + 1 round to the same
        float 1/k and cannot be told apart.
    """
    mag = abs(float(a))
    if not 0.0 < mag <= 1.0:
        raise ValueError(f"bucket_index needs 0 < |a| <= 1, got {a!r}")
    inverse = 1.0 / mag
    # written so that an infinite reciprocal fails too
    if not inverse < BUCKET_LEVEL_LIMIT:
        raise ValueError(
            f"scaled magnitude {mag!r} is too small to bucket: the dynamic range "
            f"{inverse:.3e} of the bucketed magnitudes reaches 2**53, beyond which "
            "float bucket levels cannot be told apart"
        )
    k = int(inverse)
    # Float division can land on either side of an integer boundary; nudge
    # k until the defining inequality holds for the actual float value.
    while mag <= 1.0 / (k + 1):
        k += 1
    while mag > 1.0 / k:
        k -= 1
    return k


@dataclass(frozen=True)
class ChannelDecomposition:
    """Assignment of the multiplicity slots of a value multiset to simple channels.

    ``values`` and ``multiplicities`` describe the multiset; ``slots``,
    derived from them, enumerates its (value index, copy index) pairs
    value-major.  ``channels`` lists slot indices per channel.
    ``certificates`` records, channel by channel, the strictly increasing
    bucket levels occupied (certifying the p-power summability bound), and
    ``prescale`` is the reciprocal of the largest bucketed magnitude (of the
    values themselves, or of their reciprocals for spectra accumulating at
    infinity).
    """

    values: tuple[float, ...]
    multiplicities: tuple[int, ...]
    channels: tuple[tuple[int, ...], ...]
    certificates: tuple[tuple[int, ...], ...]
    p: float
    prescale: float
    slots: tuple[tuple[int, int], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        slots = tuple(
            (n, copy) for n, m in enumerate(self.multiplicities) for copy in range(m)
        )
        object.__setattr__(self, "slots", slots)
        for chan in self.channels:
            for slot in chan:
                if not 0 <= slot < len(slots):
                    raise ValueError("channel references an unknown slot")
        if len(self.certificates) != len(self.channels):
            raise ValueError("need one certificate per channel")

    @property
    def channel_count(self) -> int:
        return len(self.channels)

    def slot_value(self, slot: int) -> float:
        eig, _ = self.slots[slot]
        return self.values[eig]

    def channel_values(self, index: int) -> np.ndarray:
        """Values of one channel, in extraction order."""
        return np.array([self.slot_value(s) for s in self.channels[index]])

    def channel_eigenvalue_indices(self, index: int) -> tuple[int, ...]:
        return tuple(self.slots[s][0] for s in self.channels[index])

    def to_json(self) -> dict:
        return {
            "prescale": self.prescale,
            "p": self.p,
            "channels": [list(c) for c in self.channels],
            "certificates": [list(c) for c in self.certificates],
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
        Distinct nonzero values.
    multiplicities : sequence of int
        Copy count per value, all >= 1.
    p : float
        Summability exponent, > 1.
    reciprocals : bool
        Bucket the reciprocals 1/value instead of the values themselves
        (used for spectra accumulating at infinity).
    """
    vals = np.asarray(values, dtype=float)
    mults = [int(m) for m in multiplicities]
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("values must be a nonempty 1-d array")
    if len(mults) != vals.size:
        raise ValueError("need one multiplicity per value")
    if any(m < 1 for m in mults):
        raise ValueError("multiplicities must be >= 1")
    if not 1.0 < float(p) < np.inf:   # written so that NaN fails
        raise ValueError("summability exponent must be finite and exceed 1")
    if np.any(vals == 0.0):
        raise ValueError("values must be nonzero")
    if np.unique(vals).size != vals.size:
        raise ValueError("values must be pairwise distinct")

    seq = vals
    if reciprocals:
        with np.errstate(over="ignore"):
            seq = 1.0 / vals
        overflowed = np.flatnonzero(np.isinf(seq))
        if overflowed.size:
            raise ValueError(f"the reciprocal of value {float(vals[overflowed[0]])!r} overflows; "
                             "its bucket level cannot be computed")

    # Dividing by the largest magnitude (rather than multiplying by its
    # reciprocal) makes the extremal ratio exactly 1.0, so every scaled
    # magnitude is a valid bucket argument.
    divisor = float(np.max(np.abs(seq)))
    scaled = np.abs(seq) / divisor

    # Slots are value-major, so copy c of value n is slot first_slot[n] + c.
    first_slot = [0, *accumulate(mults[:-1])]
    levels = [bucket_index(a) for a in scaled]
    channels: list[tuple[int, ...]] = []
    certificates: list[tuple[int, ...]] = []
    for column in range(max(mults)):
        # the column's members per bucket level, in input order
        buckets: dict[int, list[int]] = {}
        for n, m in enumerate(mults):
            if m > column:
                buckets.setdefault(levels[n], []).append(n)
        # round r takes the r-th member of every bucket that still has one
        occupied = sorted(buckets)
        rank = 0
        while occupied:
            channels.append(tuple(first_slot[buckets[k][rank]] + column for k in occupied))
            certificates.append(tuple(occupied))
            rank += 1
            occupied = [k for k in occupied if len(buckets[k]) > rank]
    return ChannelDecomposition(
        values=tuple(vals.tolist()),
        multiplicities=tuple(mults),
        channels=tuple(channels),
        certificates=tuple(certificates),
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


def _certificate_term(k: int, p: float) -> float:
    """1/k^p; when k^p overflows, k^-p, which underflows gracefully instead."""
    try:
        return 1.0 / float(k) ** p
    except OverflowError:
        return float(k) ** -p


def verify_decomposition(c: ChannelDecomposition) -> DecompositionReport:
    """Check the structural invariants of a decomposition.

    Violations are reported, never raised, so adversarial inputs can be
    inspected.  The certificate sums sum(1/k^p) are the finite-truncation
    witnesses of per-channel p-power summability.
    """
    violations: list[str] = []

    seen: list[int] = []
    for chan in c.channels:
        seen.extend(chan)
    disjoint_cover = sorted(seen) == list(range(len(c.slots)))
    if not disjoint_cover:
        violations.append("channels do not partition the slot set")

    simple = True
    for i, chan in enumerate(c.channels):
        eigs = c.channel_eigenvalue_indices(i)
        if len(set(eigs)) != len(eigs):
            simple = False
            violations.append(f"channel {i} repeats an eigenvalue")

    increasing = True
    for i, cert in enumerate(c.certificates):
        if any(b <= a for a, b in zip(cert, cert[1:])):
            increasing = False
            violations.append(f"channel {i} certificate is not strictly increasing")

    sums = tuple(float(sum(_certificate_term(k, c.p) for k in cert)) for cert in c.certificates)
    return DecompositionReport(
        disjoint_cover=disjoint_cover,
        simple_channels=simple,
        increasing_certificates=increasing,
        certificate_sums=sums,
        violations=tuple(violations),
    )
