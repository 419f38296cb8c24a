"""Time operators and ultra-weak form evaluators of simple channels, stacked by dimension.

In the eigenbasis of a simple (multiplicity-free) channel the canonical
time-operator candidate is the Hermitian matrix with zero diagonal and
off-diagonal entries i/(E_n - E_m).  Against H = diag(E) it satisfies
[H, T] = i(J - I) with J the all-ones matrix, so the commutator defect
([H,T]v + iv) collapses to i*(sum of coefficients)*ones: it vanishes
identically on the span of eigenvector differences.  That cancellation is
algebraic, not asymptotic, which is why the check here demands machine
precision rather than convergence.

Every entry is purely imaginary, so a matrix is built as T = iA with A
real and antisymmetric.  What is left of the cancellation in floating
point is the matrix Delta = (h_n - h_m) A_nm - (1 - delta_nm), and
``ccr_certificates`` bounds the defect of every unit vector of the span by
its norm, computed error-free, one row band at a time.

Two entry conventions are provided.  ``DIRECT`` pairs with diag(E) itself
and suits spectra growing to infinity.  ``INVERSE_CONJUGATE`` has entries
i E_n E_m / (E_m - E_n) = i/(1/E_n - 1/E_m): it is the direct matrix of
the reciprocal eigenvalues, pairs with diag(1/E), and suits spectra
accumulating at zero, whose reciprocals are the ones marching off to
infinity.  The ultra-weak form of ``uwform`` is built from the
inverse-conjugate generator A: its evaluator is iR with
R = -(A D + D A)/2 and D = diag(1/E^2), again real and antisymmetric.

A direct sum of simple channels is one ``ChannelStack`` of one of these
three kinds.  It groups the channels of each dimension d >= 2 and keeps
only their eigenvalues.  No matrix outlives the kernel that reads it:
``_entries`` builds any row band of any channels' matrices, and each
consumer builds the part it reads, uses it and drops it.  The exact-CCR
certificate here builds row bands of the upper triangle, CCR_CHUNK entries
at a time, and the form's certificate in ``uwform`` whole matrices,
SWEEP_CHUNK entries at a time.  Every matrix is antisymmetric
by construction (see ``_entries``); only the eigenvalues are checked, where
they enter.  A channel of dimension 1 has a trivial difference span and
no matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .decompose import ChannelDecomposition, decompose_spectrum
from .spectra import CHANNEL_DIMENSION_LIMIT, Accumulation, DiscreteSpectrum

__all__ = [
    "MatrixKind",
    "ChannelStack",
    "ccr_certificates",
    "ccr_allowed",
    "assemble_time_operator",
    "OscillatorExtremes",
    "osc_timeop_extremes",
]

#: Entries a kernel builds or handles at once (rows x width).  Longer work
#: runs in chunks of rows, in the same order, so its memory grows with the
#: chunk, not with the channels.
SWEEP_CHUNK = 2 ** 18

#: Entries of each buffer of ``ccr_certificates``: its error-free
#: arithmetic makes some thirty passes over every band, which stay in cache
#: at this size, 96 KiB a buffer.  That is below glibc's 128 KiB mmap
#: threshold, so no buffer is a fresh mapping whose pages fault in on first
#: touch: at 2^15 entries the oscillator's 1501-dimensional channel took
#: 39 ms of CPU instead of 22 ms in a new process.
CCR_CHUNK = 12 * 1024


class MatrixKind(str, Enum):
    """What the matrix of a channel is.

    ``DIRECT`` and ``INVERSE_CONJUGATE``: the real generator A of the
    time-operator matrix T = iA of that kind.  ``FORM``: the real R of the
    ultra-weak form evaluator iR, R = -(A D + D A)/2 with A the
    inverse-conjugate generator and D = diag(1/E^2).
    """

    DIRECT = "direct"
    INVERSE_CONJUGATE = "inverse_conjugate"
    FORM = "form"


def _chunks(width: int, count: int, budget: int | None = None):
    """Consecutive (start, stop) ranges of ``count`` rows of ``width`` entries each.

    A range holds as many rows as fit in ``budget`` entries, SWEEP_CHUNK
    unless given, and at least one.
    """
    rows = max(1, (SWEEP_CHUNK if budget is None else budget) // width)
    for start in range(0, count, rows):
        yield start, min(start + rows, count)


@dataclass(frozen=True, eq=False)
class _Group:
    """The c channels of dimension d >= 2 of a ``ChannelStack``: their positions and eigenvalues, nothing more.

    Their matrices are not kept: each consumer builds the band it reads
    with ``_entries``, uses it and drops it.
    """

    blocks: np.ndarray        # (c,) channel positions in the stack
    eigenvalues: np.ndarray   # (c, d)


@dataclass(frozen=True, eq=False)
class ChannelStack:
    """A direct sum of simple channels of one ``MatrixKind``, grouped by dimension.

    Built from one eigenvalue array per channel, each strictly increasing;
    ``eigenvalues`` keeps them, read-only.  For every dimension d >= 2, in
    the order the dimensions first appear, ``groups`` holds a ``_Group``
    of the channels of that dimension, in channel order.  The eigenvalues
    of every channel, dimension 1 included, pass ``_require_rows`` here;
    the entries, which only the kernels build, are checked for overflow
    where they are built.  No kernel takes a whole vector, so the stack
    keeps no coordinates of its channels in one.

    Frozen, and compared by identity: a field-wise ``__eq__`` over arrays
    is unusable.
    """

    kind: MatrixKind
    eigenvalues: tuple = field(init=False, repr=False)
    groups: tuple = field(init=False, repr=False)

    def __init__(self, channels, kind: MatrixKind) -> None:
        kind = MatrixKind(kind)
        channels = [np.asarray(ev, dtype=float) for ev in channels]
        if not channels:
            raise ValueError("a channel stack needs at least one channel")
        if any(ev.ndim != 1 or ev.size == 0 for ev in channels):
            raise ValueError("eigenvalues must be a nonempty 1-d array")
        dims = np.array([ev.size for ev in channels])
        eigenvalues = [None] * len(channels)
        groups = []
        for d in dict.fromkeys(dims.tolist()):   # dimensions in order of first appearance
            blocks = np.flatnonzero(dims == d)
            e = np.array([channels[i] for i in blocks])
            _require_rows(e, kind)
            e.flags.writeable = False
            for i, row in zip(blocks, e):
                eigenvalues[i] = row
            if d >= 2:
                groups.append(_Group(blocks, e))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "eigenvalues", tuple(eigenvalues))
        object.__setattr__(self, "groups", tuple(groups))

    @classmethod
    def of_decomposition(cls, deco: ChannelDecomposition, kind: MatrixKind) -> "ChannelStack":
        """One channel per decomposition channel, eigenvalues ascending."""
        ev = np.asarray(deco.values)[deco.value_indices()]
        ev = ev[np.lexsort((ev, deco.channel_of_slot()))]
        return cls(np.split(ev, deco.offsets[1:-1]), kind)


def _require_rows(ev: np.ndarray, kind: MatrixKind) -> None:
    """Refuse eigenvalue rows (c, d) that no matrix of ``kind`` can be built from.

    Eigenvalues must be finite and strictly increasing, and nonzero for
    the inverse-conjugate and form kinds, whose H is diag(1/E).  A
    refusal names the first row that fails it.
    """
    finite = np.isfinite(ev)
    if not np.all(finite):
        raise ValueError(f"eigenvalues must be finite (got {float(ev[~finite][0])!r})")
    d = ev.shape[1]
    if d > CHANNEL_DIMENSION_LIMIT:
        raise ValueError(
            f"channel dimension {d} exceeds the dense-solver limit "
            f"{CHANNEL_DIMENSION_LIMIT}"
        )
    if np.any(np.diff(ev, axis=1) <= 0.0):
        raise ValueError("eigenvalues must be strictly increasing")
    if kind is MatrixKind.DIRECT:
        return
    if np.any(ev == 0.0):
        raise ValueError("inverse-conjugate and form channels require nonzero eigenvalues")
    if d < 2:
        return
    # An overflowing product E_n*E_m is refused here, by the eigenvalue it
    # comes from; the largest off-diagonal product is that of the two
    # largest magnitudes.
    top = np.sort(np.abs(ev), axis=1)[:, -2:]
    with np.errstate(over="ignore"):
        overflow = ~np.isfinite(top[:, 0] * top[:, -1])
    if np.any(overflow):
        largest = float(top[np.argmax(overflow), -1])
        raise ValueError(f"the products E_n*E_m overflow to a non-finite value (largest |eigenvalue| {largest!r})")


def _entries(ev: np.ndarray, start: int, stop: int, kind: MatrixKind, first: int = 0, *,
             out: np.ndarray | None = None, gaps: np.ndarray | None = None) -> np.ndarray:
    """Rows start:stop, from column first <= start on, of the real matrix of ``kind`` of each channel in ev (c, d).

    The one entry kernel: a (c, stop - start, d - first) band, for the
    channels whose eigenvalues are the rows of ev, of the generator
    A = -iT, with entries 1/(E_n - E_m) for the direct kind and
    E_n E_m/(E_m - E_n) for the inverse-conjugate one, or for the form
    kind of R = -(A D + D A)/2, A inverse-conjugate and D = diag(1/E^2);
    the diagonal is zero.  The rows must have passed ``_require_rows``;
    an entry that overflows is refused, naming the first row that fails.
    The band is written into ``out`` when given, a C-contiguous array of
    its shape, and the overflow check is then the caller's: on any entry
    that is not finite it must build the band again without ``out``,
    which refuses an overflow.  ``gaps``, when given, holds the band's
    gaps E_n - E_m, formed by the caller; it is read, not written, and
    its diagonal is not read.

    A = -A^T holds bit for bit for finite eigenvalues, so nothing checks
    it at run time: the (m, n) entry repeats the float operations of the
    (n, m) one with the gap's sign flipped, round-to-nearest is symmetric
    about zero, and products and sums commute.
    """
    c, d = ev.shape
    n, m = ev[:, start:stop, None], ev[:, None, first:]
    checked = out is None
    if gaps is None:
        gaps = out = np.subtract(n, m, out=out)   # turned into the entries in place
    # a zero gap (the diagonal, zeroed below) or a subnormal one overflows the quotient;
    # finite eigenvalues must give finite entries off the diagonal
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = np.reciprocal(gaps, out=out)
        if kind is not MatrixKind.DIRECT:
            # E_n*E_m * (-1/gap): the bits of the complex quotient i E_n E_m / (-gap)
            np.negative(a, out=a)
            a *= n * m
    a.reshape(c, -1)[:, start - first::d - first + 1] = 0.0
    if checked:
        overflow = ~np.all(np.isfinite(a), axis=(1, 2))
        if np.any(overflow):
            entry = "1/(E_n - E_m)" if kind is MatrixKind.DIRECT else "E_n*E_m/(E_m - E_n)"
            raise ValueError(f"the time-operator entries {entry} overflow to a non-finite value "
                             f"(smallest gap {float(np.min(np.diff(ev[np.argmax(overflow)])))!r})")
    if kind is MatrixKind.FORM:
        # column and row scaling by 1/E^2: the (n, m) and (m, n) entries are built from the same float products
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ad = a * (1.0 / (m * m))
            a *= 1.0 / (n * n)
            np.add(ad, a, out=a)
            np.multiply(-0.5, a, out=a)
        if not np.all(np.isfinite(a)):
            raise ValueError("form evaluator is not finite: 1/E^2 overflows for these eigenvalues")
    return a


#: Veltkamp's splitting factor 2^27 + 1: x * SPLIT splits a double into
#: two halves of at most 26 significant bits each.
_SPLIT = 134217729.0


def _defect(a: np.ndarray, gap: np.ndarray, hn: np.ndarray, hm: np.ndarray, fast: bool, split_in_range: bool,
            work: tuple) -> np.ndarray:
    """(h_n - h_m) a - 1 entrywise, error-free up to its last rounding, written into a and returned.

    gap holds s = fl(h_n - h_m), and hn and hm hold h_n and h_m, at every
    entry of a; work is three more float arrays of a's shape and a flat
    int array at least as long.  All of them but a are overwritten.  The
    caller ignores overflow and invalid operations, so that a NaN gives
    NaN.

    The rounding error t of s, with h_n - h_m = s + t, comes from Fast2Sum
    when ``fast``, which needs |h_m| >= |h_n| at every entry kept, and
    from TwoSum otherwise (Dekker, Numer. Math. 18, 1971; Knuth).
    Dekker's TwoProduct gives s a as p + q exactly, on Veltkamp halves
    (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 2005).  Then
    (h_n - h_m) a - 1 = (p - 1) + (q + t a), where p - 1 is exact
    (Sterbenz) unless the defect is itself of order one, and only t a and
    the two sums round, each far below the defect.

    The halves are those of s and a themselves when ``split_in_range``,
    which needs |s| and |a| below 2^500, so that no half and no partial
    product overflows.  Otherwise s is first written m 2^k with m in
    [1/2, 1) and a scaled by 2^k, both exact: a is near 1/s, so neither
    half overflows, whatever the magnitudes.  The rounding error of a sum,
    and of a product, is one number, so Fast2Sum and TwoSum give the same
    t, and both splits the same p and q, bit for bit, wherever their
    conditions hold.
    """
    z, u, v, exponents = work
    if fast:
        np.add(gap, hm, out=z)
        np.subtract(hn, z, out=z)          # the gap's rounding error t, as |-h_m| >= |h_n|
    else:
        np.subtract(gap, hn, out=z)
        np.subtract(gap, z, out=u)
        np.subtract(hn, u, out=u)
        z += hm
        np.subtract(u, z, out=z)           # the gap's rounding error t
    z *= a                                 # t a
    if not split_in_range:
        k = exponents[:gap.size].reshape(gap.shape)
        np.frexp(gap, out=(gap, k))
        np.ldexp(a, k, out=a)              # s a = m (a 2^k)
    p, x, y, xh, yh, q = hn, gap, a, hm, u, v   # hn and hm are read no more: their buffers take p and xh
    np.multiply(x, y, out=p)
    np.multiply(x, _SPLIT, out=xh)
    np.subtract(xh, x, out=yh)
    xh -= yh                               # high half of x
    x -= xh                                # low half of x
    np.multiply(y, _SPLIT, out=yh)
    np.subtract(yh, y, out=q)
    yh -= q                                # high half of y
    y -= yh                                # low half of y
    np.multiply(xh, yh, out=q)
    q -= p
    xh *= y
    q += xh
    yh *= x
    q += yh
    x *= y
    q += x                                 # q = x y - p, exactly
    q += z
    p -= 1.0
    return np.add(p, q, out=a)


def ccr_certificates(op: ChannelStack) -> tuple:
    """(certificate, scale) of each channel of a time-operator stack: ||Delta||_F and its largest |A|, both 0 in dimension 1.

    With H = diag(h), h = E for the direct kind and 1/E for the
    inverse-conjugate one, and T = iA, the commutator is
    [H, T]_nm = i (h_n - h_m) A_nm.  On the difference span, where
    J v = 0 for the all-ones matrix J,

        ([H, T] + i) v = i Delta v,   Delta_nm = (h_n - h_m) A_nm - (1 - delta_nm),

    so ||([H, T] + i) v|| <= ||Delta||_F for every unit vector of the
    span at once.  Delta is entrywise, and ``_defect`` computes it from
    the stored h and A to a few roundings of each entry's own size.  A is
    antisymmetric bit for bit (see ``_entries``) and so Delta is symmetric
    with a zero diagonal: one pass over the pairs n < m gives the norm.

    The pass runs over row bands of each group.  A band holds the rows
    start:stop, from column ``start`` on, for as many channels as keep
    it within CCR_CHUNK entries.  All bands share one workspace of seven
    float buffers and one int buffer, each allocated on its own; h_n and
    h_m are copied out into two of them, so that every pass over the band
    is a plain one, not a slower broadcast.  The gap s = h_n - h_m is
    formed once: the direct kind's A is built from it, by ``_entries``,
    and both feed ``_defect``, which turns A into Delta in place.  Its
    gap error takes Fast2Sum in a group whose |h| is nondecreasing along
    every row, as it is for every nonnegative direct row and every
    negative inverse-conjugate one, and TwoSum otherwise; its product
    takes the unscaled split when the group's largest |h| is below 2^499
    and the band's largest |A| below 2^500, so that |s| is below 2^500
    too.  A band's rows are at most a quarter of its width, so the lower
    triangle it builds and drops is at most an eighth of it.  A NaN entry
    gives a NaN certificate and scale, which fail any gate.
    """
    if op.kind is MatrixKind.FORM:
        raise ValueError("a form's stack is not a time-operator generator")
    direct = op.kind is MatrixKind.DIRECT
    certificate, scale = np.zeros(len(op.eigenvalues)), np.zeros(len(op.eigenvalues))
    # a band holds at least one row of one channel, however small CCR_CHUNK
    size = max([CCR_CHUNK, *(g.eigenvalues.shape[1] for g in op.groups)])
    buffers = [np.empty(size) for _ in range(7)]
    exponents = np.empty(size, dtype=np.intc)
    # a subnormal E gives an infinite 1/E, and a NaN certificate; a NaN runs through _defect to the certificate
    with np.errstate(over="ignore", invalid="ignore"):
        for g in op.groups:
            ev = g.eigenvalues
            c, d = ev.shape
            h = ev if direct else 1.0 / ev
            fast = bool(np.all(np.diff(np.abs(h), axis=1) >= 0.0))
            small = bool(np.max(np.abs(h)) < 2.0 ** 499)
            squares, largest = np.zeros(c), np.zeros(c)
            start = 0
            while start < d - 1:
                width = d - start
                stop = start + max(1, min(width // 4, CCR_CHUNK // width))
                rows = stop - start
                lower = np.arange(rows)[:, None] >= np.arange(rows)   # the band's own lower triangle and diagonal
                for first, last in _chunks(rows * width, c, CCR_CHUNK):
                    shape = (last - first, rows, width)
                    entries = shape[0] * rows * width
                    hn, hm, gap, a, *work = [b[:entries].reshape(shape) for b in buffers]
                    np.copyto(hn, h[first:last, start:stop, None])
                    np.copyto(hm, h[first:last, None, start:])
                    np.subtract(hn, hm, out=gap)
                    a = _entries(ev[first:last], start, stop, op.kind, start, out=a, gaps=gap if direct else None)
                    # max|A| = |max(max A, -min A)|, +0 for an all-zero band; np.maximum carries a NaN forward
                    flat = a.reshape(shape[0], -1)
                    band = np.maximum.reduce(flat, axis=1)
                    np.maximum(band, -np.minimum.reduce(flat, axis=1), out=band)
                    np.abs(band, out=band)
                    top = band.max()
                    if not top < np.inf:
                        # the checked build refuses an overflow; any other NaN or infinity goes into the certificate
                        _entries(ev[first:last], start, stop, op.kind, start)
                    np.maximum(largest[first:last], band, out=largest[first:last])
                    delta = _defect(a, gap, hn, hm, fast, small and top < 2.0 ** 500, (*work, exponents))
                    np.copyto(delta[:, :, :rows], 0.0, where=lower)
                    squares[first:last] += np.einsum("crw,crw->c", delta, delta)
                start = stop
            certificate[g.blocks] = np.sqrt(2.0 * squares)
            scale[g.blocks] = largest
    return certificate, scale


def ccr_allowed(op: ChannelStack, scale: np.ndarray, tol: dict) -> np.ndarray:
    """The exact-CCR gate of each channel: ``ccr_relative`` times its largest |h| times ``scale``, its largest |A|.

    Each entry of Delta carries a few roundings of (h_n - h_m) A_nm, so
    the gate moves with max|h| max|A| and not with the eigenvalues'
    unit: E -> cE leaves it where it is.  It is 0 in dimension 1.  A
    channel whose max|h| max|A| overflows is refused, naming it: an
    infinite gate would pass any certificate.  A NaN scale gives a NaN
    gate, which fails.
    """
    largest = np.zeros(len(op.eigenvalues))
    for g in op.groups:
        e = np.abs(g.eigenvalues)
        with np.errstate(over="ignore"):   # a subnormal E: its 1/E is infinite, and refused below
            largest[g.blocks] = np.max(e, axis=1) if op.kind is MatrixKind.DIRECT else 1.0 / np.min(e, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        overflow = np.isinf(largest * scale)
    if np.any(overflow):
        channel = int(np.argmax(overflow))
        raise ValueError(f"the exact-CCR gate of channel {channel} overflows: its largest |h| "
                         f"{float(largest[channel])!r} times its largest |A| {float(scale[channel])!r}")
    return tol["ccr_relative"] * largest * scale


def assemble_time_operator(s: DiscreteSpectrum, p: float = 2.0):
    """Decompose a spectrum and build its block time operator.

    Returns (decomposition, ChannelStack) with one channel per
    decomposition channel, eigenvalues ascending.  Spectra accumulating
    at zero get the inverse-conjugate kind, whose conjugate Hamiltonian is
    the reciprocal diagonal; spectra growing to infinity get the direct one.
    """
    deco = decompose_spectrum(s, p)
    if s.accumulation is Accumulation.TO_ZERO:
        return deco, ChannelStack.of_decomposition(deco, MatrixKind.INVERSE_CONJUGATE)
    return deco, ChannelStack.of_decomposition(deco, MatrixKind.DIRECT)


class OscillatorExtremes(NamedTuple):
    """The certified extremes of an oscillator time-operator truncation.

    ``low`` = -``high``, and the largest eigenvalue lies within ``radius``
    of ``high`` (so the smallest within ``radius`` of ``low``).  ``high``
    came from a subspace of ``subspace_dimension`` columns: r smooth
    columns and one Krylov block of r more, or the whole space.  When
    ``failed_size`` is not None it is the matrix size, and the Schur pass
    failed to prove the upper end even on the whole space: nothing is
    claimed.
    """

    low: float
    high: float
    radius: float
    subspace_dimension: int
    failed_size: int | None


#: Smooth columns r of the first Ritz step of ``osc_timeop_extremes``,
#: which reads them and their Krylov block, 2r columns.  r doubles until
#: the Ritz pair has converged and is certified; once 2r >= floor(n/2)
#: the step reads the whole space.
RITZ_START_COLUMNS = 8

#: Rounding slack of the Schur pass, in units of eps n^2 s for the
#: n x n matrix M = s I - iA.  A step of the mixed form maps the
#: generator rows (x, y) to (x', y') with [x + dx; y' - dy] = Q [x'; y],
#: Q = [[c, conj(rho)], [-rho, c]] from the computed rho and c, where
#: ||Q^H Q - I|| <= 8u and each entry of dx and dy is within 8u of
#: |x| + |y| and |y| + |x'| (u = eps/2; the dropped pivot entry of y'
#: included).  So the step's displacement x'^H x' - y'^H y' misses
#: x^H x - y^H y by at most u (48 |x|^2 + 32 |x'|^2), to first order,
#: since y is never longer than x.  Its n - k shifted copies reach the
#: computed factor R, so R^H R = M + E with ||E|| at most 80u n times the
#: sum of the squared rows of R, which is trace(M + E) = n s + tr E:
#: ||E|| <= 40 eps n^2 s.  The rest covers rounding the entries i/k, the
#: first generator and the shift, and the lower end (see
#: ``osc_timeop_extremes``).  The analysis follows Bojanczyk, Brent,
#: de Hoog & Sweet, SIAM J. Matrix Anal. Appl. 16 (1995), who show this
#: form stable; the Levinson recursion's inner products are only weakly
#: stable (Cybenko, SIAM J. Sci. Stat. Comput. 1, 1980).
SCHUR_SLACK_ULPS = 48.0


def _half_block(n: int) -> np.ndarray:
    """The real half-size block B of the even/odd split, ceil(n/2) x floor(n/2) (see ``osc_timeop_extremes``)."""
    lags = np.arange(1, n, dtype=float)
    a = np.concatenate([-1.0 / lags[::-1], [0.0], 1.0 / lags])   # a[n - 1 + k] = a(k)
    # win[j, q] = a[2n - 2 - j - q], so B[p, q] = win[n - 1 - p, q] + win[p, q]
    win = np.lib.stride_tricks.sliding_window_view(a[::-1], n // 2)
    b = win[n - 1:n - 1 - (n + 1) // 2:-1] + win[:(n + 1) // 2]
    if n % 2:
        b[-1] /= math.sqrt(2.0)
    return b


def _chebyshev_columns(n: int, r: int) -> np.ndarray:
    """r smooth J-odd vectors of length n, in the o coordinates (floor(n/2) x r), not orthonormal.

    A Chebyshev-Vandermonde: column j samples the odd Chebyshev
    polynomial T_{2j+1} at the first floor(n/2) of the grid points
    t_q = (2q + 1 - n)/n, whose odd extension is the J-odd vector; the
    columns come from T_{k+2} = 2 T_2 T_k - T_{k-2}, T_{-1} = T_1.  For
    r = floor(n/2) they span the whole space, though the high columns are
    nearly dependent on the grid.
    """
    t = (2.0 * np.arange(n // 2) + 1.0 - n) / n
    twice_t2 = 4.0 * t * t - 2.0
    v = np.empty((r, t.size))   # one row per polynomial, transposed for the QR
    v[0] = t
    if r > 1:
        v[1] = (twice_t2 - 1.0) * t
    for j in range(2, r):
        np.multiply(twice_t2, v[j - 1], out=v[j])
        v[j] -= v[j - 2]
    return v.T


def _ritz_basis(b: np.ndarray, n: int, r: int) -> np.ndarray:
    """An orthonormal basis of the subspace ``_ritz`` reads at step r, in the o coordinates.

    For 2r < floor(n/2) it spans the r smooth columns V_r of
    ``_chebyshev_columns`` and one Krylov block B^T B V_r, 2r columns;
    otherwise it spans all floor(n/2) smooth columns, the whole space.
    One Householder QR gives it: its Q is orthonormal whatever the
    columns, nearly dependent ones included.
    """
    m = n // 2
    if 2 * r >= m:
        return np.linalg.qr(_chebyshev_columns(n, m))[0]
    v = _chebyshev_columns(n, r)
    return np.linalg.qr(np.hstack([v, b.T @ (b @ v)]))[0]


def _ritz(b: np.ndarray, v: np.ndarray) -> tuple:
    """(high, theta, theta_2, residual) of B^T B on the subspace of the orthonormal columns v.

    theta and theta_2 are its two largest Ritz values (theta_2 = 0 for
    one column) and residual = ||B^T B x - theta x|| for the unit Ritz
    vector x of theta.  high = ||B x||/||x||, computed from x itself: a
    Rayleigh quotient, so it is at most sigma_max(B) up to the rounding
    of one product with B, whatever basis produced x and whether or not
    it is exactly orthonormal.  A NaN gives NaN for all four, which no
    certificate passes; ``eigh`` could raise on it instead.
    """
    w = b @ v
    gram = w.T @ w
    if not np.all(np.isfinite(gram)):
        return math.nan, math.nan, math.nan, math.nan
    theta, y = np.linalg.eigh(gram)
    x = v @ y[:, -1]
    z = b @ x
    high = float(np.linalg.norm(z) / np.linalg.norm(x))
    residual = float(np.linalg.norm(b.T @ z - theta[-1] * x))
    return high, float(theta[-1]), float(theta[-2]) if v.shape[1] > 1 else 0.0, residual


def _schur_pivots(first_row: np.ndarray) -> np.ndarray:
    """The pivots of the LDL^H factorization of the Hermitian Toeplitz matrix with this first row.

    One O(n^2) pass of the Schur algorithm with its hyperbolic rotations
    in the mixed form: from the generator rows (x, y), whose first
    entries give rho = y_k/x_k and c = sqrt(1 - |rho|^2), it forms
    x' = (x - conj(rho) y)/c and then y' = c y - rho x' from x', not
    from x.  x' is a row of the Cholesky factor; shifted one place it is
    the next x.  Both rows are held unscaled, with their scales alpha and
    beta kept apart, so each rotation is two in-place updates: the x row
    by a multiple of the y row, then the y row by a multiple of the new
    x row.  Pivot k is the previous one times (1 - |rho|)(1 + |rho|),
    and pivot 0 the diagonal entry first_row[0], which must be real.

    In exact arithmetic the matrix is positive definite exactly when
    every pivot is positive.  The pass stops at the first pivot that is
    not (a NaN included) and leaves NaN after it.
    """
    n = first_row.size
    pivots = np.full(n, math.nan)
    pivot = pivots[0] = first_row[0].real
    if not pivot > 0.0:
        return pivots
    x = first_row.astype(complex)   # x_k[j] = alpha * x[j - k]
    y = x.copy()                     # y_k[j] = beta * y[j]
    y[0] = 0.0
    alpha = beta = 1.0 / math.sqrt(pivot)
    work = np.empty(n, dtype=complex)
    multiply, subtract = np.multiply, np.subtract
    for k in range(1, n):
        rho = beta * y.item(k) / (alpha * x.item(0).real)
        size = abs(rho)
        shrink = (1.0 - size) * (1.0 + size)
        pivot = pivots[k] = pivot * shrink
        if not size < 1.0:
            return pivots
        c = math.sqrt(shrink)
        xs, ys, tmp = x[:n - k], y[k:], work[:n - k]
        subtract(xs, multiply(ys, rho.conjugate() * beta / alpha, out=tmp), out=xs)
        alpha /= c
        subtract(ys, multiply(xs, rho * alpha / (c * beta), out=tmp), out=ys)
        beta *= c
    return pivots


def osc_timeop_extremes(omega: float, n: int) -> OscillatorExtremes:
    """The smallest and largest eigenvalue of the oscillator time-operator truncation, certified.

    The matrix is Toeplitz with entries (i/omega)/(n - m); its symbol has
    range (-pi/omega, pi/omega), so the truncation eigenvalues fill that
    interval from the inside as the size grows.

    The even/odd split of Cantoni & Butler (Linear Algebra Appl. 13,
    1976) halves the problem.  Write T = iA/omega with A[n, m] = a(n - m),
    a(k) = 1/k, a(0) = 0: A is real antisymmetric Toeplitz, so J A J = -A
    for the exchange matrix J and A maps J-even vectors to J-odd ones.
    Take the orthonormal bases e_p = (d_p + d_{n-1-p})/sqrt(2) for
    p < ceil(n/2), with the middle e_p = d_p alone when n is odd, and
    o_q = (d_q - d_{n-1-q})/sqrt(2) for q < floor(n/2).  In the basis
    (e, o),

        A = [[0, B], [-B^T, 0]],   B[p, q] = e_p . A o_q = a(p - q) + a(n-1-p-q),

    with the middle row of B scaled by 1/sqrt(2) when n is odd.  The
    Hermitian matrix [[0, iB], [-iB^T, 0]] has eigenvalues +-sigma(B) and
    one 0 when n is odd, so the extremes of spec(T) are
    +-sigma_max(B)/omega.  No n x n matrix is formed.

    The lower end: ``_ritz`` takes the largest Ritz value theta of B^T B
    on span{V_r, B^T B V_r} (``_ritz_basis``), r smooth Chebyshev columns
    and one block Krylov step from them (Golub & Underwood, 1977; Saad,
    Numerical Methods for Large Eigenvalue Problems, ch. 6), or on the
    whole space once 2r >= floor(n/2).  r starts at RITZ_START_COLUMNS
    and doubles until the residual rho has rho^2 <= eps theta
    (theta - theta_2).  ``_ritz`` returns high, the Rayleigh quotient
    ||Bx||/||x|| of its Ritz vector x: sigma_max(B) >= high, up
    to one product's rounding, far below the slack d below.  The upper
    end: with d = SCHUR_SLACK_ULPS * eps * n^2 * high, one Schur pass
    (``_schur_pivots``) over the n x n matrix M = (high + d) I - iA, first
    row (high + d, i/1, i/2, ...).  When every pivot is positive the pass
    ran to the end, and its factor R has R^H R = M + E with ||E|| <= d;
    a Gram matrix is semidefinite, so lambda_min(M) >= -d and
    sigma_max(B) <= high + 2d.  The radius 2d is derived, not measured; a
    pass that fails enlarges the subspace, and one that fails on the
    whole space is reported in ``failed_size``, not raised.

    Returns ``OscillatorExtremes`` with low = -high/omega,
    high/omega and radius 2d/omega.
    """
    omega = float(omega)
    n = int(n)
    # written so that NaN fails; pi/omega is the symbol bound the spectrum is checked against
    if not (omega > 0.0 and math.isfinite(omega) and math.isfinite(math.pi / omega)):
        raise ValueError("omega must be finite and positive, with pi/omega finite")
    if n < 2:
        raise ValueError("need a matrix of size at least 2")
    if n > CHANNEL_DIMENSION_LIMIT:
        raise ValueError(
            f"matrix size {n} exceeds the dense-solver limit {CHANNEL_DIMENSION_LIMIT}"
        )
    b = _half_block(n)
    r = RITZ_START_COLUMNS
    eps = float(np.finfo(float).eps)
    row = np.empty(n, dtype=complex)
    row[1:] = 1j / np.arange(1, n)
    while True:
        v = _ritz_basis(b, n, r)
        high, theta, theta_2, residual = _ritz(b, v)
        whole = 2 * r >= n // 2
        r *= 2
        if not whole and not residual * residual <= eps * theta * (theta - theta_2):
            continue
        slack = SCHUR_SLACK_ULPS * eps * n * n * high
        row[0] = high + slack
        certified = bool(np.all(_schur_pivots(row) > 0.0))
        if certified or whole:
            return OscillatorExtremes(-high / omega, high / omega, 2.0 * slack / omega, v.shape[1],
                                      None if certified else n)
