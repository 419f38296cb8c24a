"""Time operators and ultra-weak form evaluators of simple channels, stacked by dimension.

In the eigenbasis of a simple (multiplicity-free) channel the canonical
time-operator candidate is the Hermitian matrix with zero diagonal and
off-diagonal entries i/(E_n - E_m).  Against H = diag(E) it satisfies
[H, T] = i(J - I) with J the all-ones matrix, so the commutator defect
([H,T]v + iv) collapses to i*(sum of coefficients)*ones: it vanishes
identically on the span of eigenvector differences.  That cancellation is
algebraic, not asymptotic, which is why the residual checks here demand
machine precision rather than convergence.

Every entry is purely imaginary, so a matrix is stored as T = iA with A
real and antisymmetric.  The residual kernel streams the commutator
[H, T] = i(hA - Ah) in row bands and never holds it whole.

Two entry conventions are provided.  ``DIRECT`` pairs with diag(E) itself
and suits spectra growing to infinity.  ``INVERSE_CONJUGATE`` has entries
i E_n E_m / (E_m - E_n) = i/(1/E_n - 1/E_m): it is the direct matrix of
the reciprocal eigenvalues, pairs with diag(1/E), and suits spectra
accumulating at zero, whose reciprocals are the ones marching off to
infinity.  The ultra-weak form of ``uwform`` is built from the
inverse-conjugate generator A: its evaluator is iR with
R = -(A D + D A)/2 and D = diag(1/E^2), again real and antisymmetric.

A direct sum of simple channels is one ``ChannelStack`` of one of these
three kinds.  It stacks the channels of each dimension d >= 2 into one
group, whose real (c, d, d) stack is built in one vectorized pass and
read in place: by the exact-CCR sweep here, by the form's certificate
in ``uwform``.  A channel of dimension 1 has a trivial
difference span and no stack row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .decompose import ChannelDecomposition, decompose_spectrum
from .spectra import CHANNEL_DIMENSION_LIMIT, Accumulation, DiscreteSpectrum, _require_hermitian

__all__ = [
    "MatrixKind",
    "ChannelStack",
    "ccr_residuals",
    "ccr_allowed",
    "ccr_check",
    "random_difference_stack",
    "assemble_time_operator",
    "osc_timeop_extremes",
]

#: A vector belongs to the difference span when its coefficient sum is
#: this small relative to its norm (the span is exactly the kernel of the
#: summation functional).
DIFFERENCE_SPAN_RTOL = 1e-10

#: Rows per band of the commutator that ``ccr_residuals`` streams, and of the
#: products E_n*E_m that ``_generator_stack`` forms.
CCR_BAND_ROWS = 128

#: Entries a stack build or a kernel handles at once (rows x width).  Longer
#: work runs in chunks of rows, in the same order, so its memory grows with
#: the chunk, not with the stack or the number of vectors.
SWEEP_CHUNK = 2 ** 18


class MatrixKind(str, Enum):
    """What the stack row of a channel holds.

    ``DIRECT`` and ``INVERSE_CONJUGATE``: the real generator A of the
    time-operator matrix T = iA of that kind.  ``FORM``: the real R of the
    ultra-weak form evaluator iR, R = -(A D + D A)/2 with A the
    inverse-conjugate generator and D = diag(1/E^2).
    """

    DIRECT = "direct"
    INVERSE_CONJUGATE = "inverse_conjugate"
    FORM = "form"


def _chunks(width: int, count: int):
    """Consecutive (start, stop) ranges of ``count`` rows of ``width`` entries each.

    A range holds as many rows as fit in SWEEP_CHUNK entries, and at
    least one.
    """
    rows = max(1, SWEEP_CHUNK // width)
    for start in range(0, count, rows):
        yield start, min(start + rows, count)


@dataclass(frozen=True, eq=False)
class _Group:
    """The c channels of dimension d >= 2 of a ``ChannelStack``, stacked.

    ``scale`` and ``defect`` are each row's largest |entry| and largest
    |A + A^T| entry, from the one antisymmetry pass of the build.
    """

    blocks: np.ndarray        # (c,) channel positions in the stack
    index: np.ndarray         # (c, d) coordinates of each channel in a whole vector
    eigenvalues: np.ndarray   # (c, d)
    stack: np.ndarray         # (c, d, d) real, antisymmetric, read-only
    scale: np.ndarray         # (c,)
    defect: np.ndarray        # (c,)

    def __getitem__(self, rows: slice) -> "_Group":
        """The channels ``rows`` of this group, as views."""
        return _Group(*(getattr(self, f.name)[rows] for f in fields(self)))

    def hermiticity_defect(self) -> np.ndarray:
        """Each row's max entrywise deviation from antisymmetry, relative to its scale."""
        return np.divide(self.defect, self.scale, out=np.zeros_like(self.defect), where=self.scale != 0.0)


@dataclass(frozen=True, eq=False)
class ChannelStack:
    """A direct sum of simple channels of one ``MatrixKind``, stacked by dimension.

    Built from one eigenvalue array per channel, each strictly increasing;
    ``eigenvalues`` keeps them, read-only.  For every dimension d >= 2, in
    the order the dimensions first appear, ``groups`` holds a ``_Group``
    of the channels of that dimension, in channel order, with their rows
    in one read-only real (c, d, d) stack.  A form's channels must have
    finite, nonzero eigenvalues, dimension 1 included.

    Frozen, and compared by identity: a field-wise ``__eq__`` over arrays
    is unusable.
    """

    kind: MatrixKind
    eigenvalues: tuple = field(init=False, repr=False)
    groups: tuple = field(init=False, repr=False)
    total_dimension: int = field(init=False)

    def __init__(self, channels, kind: MatrixKind) -> None:
        kind = MatrixKind(kind)
        channels = [np.asarray(ev, dtype=float) for ev in channels]
        if not channels:
            raise ValueError("a channel stack needs at least one channel")
        if any(ev.ndim != 1 or ev.size == 0 for ev in channels):
            raise ValueError("eigenvalues must be a nonempty 1-d array")
        dims = np.array([ev.size for ev in channels])
        eigenvalues = [None] * len(channels)
        rows = {}
        for d in dict.fromkeys(dims.tolist()):   # dimensions in order of first appearance
            blocks = np.flatnonzero(dims == d)
            e = np.stack([channels[i] for i in blocks])
            # written so that NaN fails
            if kind is MatrixKind.FORM and not np.all(np.isfinite(e) & (e != 0.0)):
                raise ValueError("form channels require finite, nonzero eigenvalues")
            e.flags.writeable = False
            for i, row in zip(blocks, e):
                eigenvalues[i] = row
            rows[d] = blocks, e
        del channels   # an iterable's arrays are released before the stacks are built
        starts = np.cumsum(dims) - dims
        groups = tuple(_Group(blocks, starts[blocks, None] + np.arange(d), e, *_build_stack(e, kind))
                       for d, (blocks, e) in rows.items() if d >= 2)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "eigenvalues", tuple(eigenvalues))
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "total_dimension", int(dims.sum()))

    @classmethod
    def of_decomposition(cls, deco: ChannelDecomposition, kind: MatrixKind) -> "ChannelStack":
        """One channel per decomposition channel, eigenvalues ascending."""
        ev = np.asarray(deco.values)[deco.value_indices()]
        ev = ev[np.lexsort((ev, deco.channel_of_slot()))]
        # a list iterator drops its list once exhausted, so the channels are released before the stacks are built
        channels, ev = iter(np.split(ev, deco.offsets[1:-1])), None
        return cls(channels, kind)


def _build_stack(e: np.ndarray, kind: MatrixKind):
    """(stack, scale, defect) of the channels whose eigenvalues are the rows of e (c, d).

    The rows are built SWEEP_CHUNK entries at a time, and a stack built in
    one chunk is that chunk's array, not a copy.  The one antisymmetry
    pass of each chunk gives the scale and defect of its rows.
    """
    c, d = e.shape
    stack = None
    scale, defect = np.empty(c), np.empty(c)
    for start, stop in _chunks(d * d, c):
        rows = slice(start, stop)
        a = _generator_stack(e[rows], MatrixKind.INVERSE_CONJUGATE if kind is MatrixKind.FORM else kind)
        if kind is MatrixKind.FORM:
            _form_stack(e[rows], a)
        scale[rows], defect[rows] = _require_hermitian(a, skew=True)
        if stop - start == c:
            stack = a
        else:
            if stack is None:   # only once the kernel has accepted the dimension
                stack = np.empty((c, d, d))
            stack[rows] = a
    stack.flags.writeable = False
    return stack, scale, defect


def _form_stack(e: np.ndarray, a: np.ndarray) -> None:
    """Turn the generator stack a into R = -(A D + D A)/2, D = diag(1/E^2), in place.

    The two D-products are applied by column and row scaling, which keeps
    each R antisymmetric to the last bit: the (n, m) and (m, n) entries
    are built from the same float products.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / (e * e)
        ad = a * inv[:, None, :]
        np.multiply(inv[:, :, None], a, out=a)
        np.add(ad, a, out=a)
        np.multiply(-0.5, a, out=a)
    del ad
    if not np.all(np.isfinite(a)):
        raise ValueError("form evaluator is not finite: 1/E^2 overflows for these eigenvalues")


def _generator_stack(ev: np.ndarray, kind: MatrixKind) -> np.ndarray:
    """Real generators A = -iT of the channels whose eigenvalues are the rows of a (c, d) float array.

    Returns a (c, d, d) stack: A[r] has entries 1/(E_n - E_m) for the
    direct kind and E_n E_m/(E_m - E_n) for the inverse-conjugate kind,
    with a zero diagonal.  Each generator is built in the buffer of the
    gap array E_n - E_m, so the build holds the stack and one band of
    products.  A refusal names the first row that fails it.
    """
    c, d = ev.shape
    if d > CHANNEL_DIMENSION_LIMIT:
        raise ValueError(
            f"channel dimension {d} exceeds the dense-solver limit "
            f"{CHANNEL_DIMENSION_LIMIT}"
        )
    if np.any(np.diff(ev, axis=1) <= 0.0):
        raise ValueError("eigenvalues must be strictly increasing")
    if kind is MatrixKind.INVERSE_CONJUGATE and np.any(ev == 0.0):
        raise ValueError("inverse-conjugate kind requires nonzero eigenvalues")
    # An overflowing product E_n*E_m and an infinite eigenvalue are refused
    # here; the entry gate below sees neither, since non-finite eigenvalues
    # pass to the antisymmetry check.  The largest off-diagonal product is
    # that of the two largest magnitudes; diagonal ones are overwritten.
    if kind is MatrixKind.INVERSE_CONJUGATE:
        top = np.sort(np.abs(ev), axis=1)[:, -2:]   # one magnitude, squared, for a single eigenvalue
        with np.errstate(over="ignore", invalid="ignore"):
            overflow = ~np.isfinite(top[:, 0] * top[:, -1])
        if np.any(overflow):
            largest = float(top[np.argmax(overflow), -1])
            raise ValueError(f"the products E_n*E_m overflow to a non-finite value (largest |eigenvalue| {largest!r})")

    a = ev[:, :, None] - ev[:, None, :]       # gaps[r, n, m] = E_n - E_m, turned into A in place
    diagonal = a.reshape(c, d * d)[:, ::d + 1]
    diagonal[...] = 1.0                       # placeholder, zeroed below
    # a subnormal gap overflows the quotient; finite eigenvalues must give finite entries
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.reciprocal(a, out=a)
        if kind is MatrixKind.INVERSE_CONJUGATE:
            # E_n*E_m * (-1/gap): the bits of the complex quotient i E_n E_m / (-gap)
            np.negative(a, out=a)
            for start in range(0, d, CCR_BAND_ROWS):
                band = slice(start, start + CCR_BAND_ROWS)
                a[:, band] *= ev[:, band, None] * ev[:, None, :]
    diagonal[...] = 0.0
    overflow = np.all(np.isfinite(ev), axis=1) & ~np.all(np.isfinite(a), axis=(1, 2))
    if np.any(overflow):
        entry = "1/(E_n - E_m)" if kind is MatrixKind.DIRECT else "E_n*E_m/(E_m - E_n)"
        raise ValueError(f"the time-operator entries {entry} overflow to a non-finite value "
                         f"(smallest gap {float(np.min(np.diff(ev[np.argmax(overflow)])))!r})")
    return a


def random_difference_stack(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """``count`` seeded random unit vectors with zero coefficient sum, one per row.

    All coefficients come from one draw of shape (count, 2, dim), uniform
    in [-1, 1]: row by row, the real parts, then the imaginary parts.
    Each row has its mean removed and is normalized; a row whose
    projection is near zero is redrawn after the batch, one at a time.
    """
    if dim < 2:
        raise ValueError("the difference span is trivial below dimension 2")
    draws = rng.uniform(-1.0, 1.0, (count, 2, dim))
    stack = draws[:, 0] + 1j * draws[:, 1]
    stack -= stack.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(stack, axis=1)
    for row in np.flatnonzero(norms <= 1e-8):
        while norms[row] <= 1e-8:
            v = rng.uniform(-1.0, 1.0, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
            stack[row] = v - v.mean()
            norms[row] = np.linalg.norm(stack[row])
    return stack / norms[:, None]


def _require_difference_span(vecs: np.ndarray) -> None:
    """Refuse any vector of a (..., n) stack whose coefficient sum is off the difference span."""
    defects = np.abs(vecs.sum(axis=-1))
    bounds = DIFFERENCE_SPAN_RTOL * np.maximum(np.linalg.norm(vecs, axis=-1), 1e-300)
    # written so that NaN fails
    outside = ~(defects <= bounds)
    if outside.any():
        raise ValueError(
            "vector lies outside the difference span "
            f"(coefficient sum {defects.flat[np.argmax(outside)]:.3e})"
        )


def ccr_residuals(g: _Group, kind: MatrixKind, vecs) -> np.ndarray:
    """Worst norm of ([H,T] + i)v of each channel of g over its k rows of a (c, k, d) stack.

    H is diag(E) for the direct kind and diag(1/E) for the
    inverse-conjugate kind.  The residual is zero in exact arithmetic for
    any v with zero coefficient sum, because the commutator equals
    i(J - I); vectors off that span are rejected rather than measured.

    The commutator is streamed in bands of at most ``CCR_BAND_ROWS`` rows,
    for SWEEP_CHUNK entries of channels at a time.  A band c = h_n A - A h_m
    is built entrywise and gives its columns as ``v @ (1j*c).T``, one
    matrix product per channel, so a stack of 0 and +-1 entries gets the
    bits of one matrix-vector product per row.  NaN propagates.
    """
    kind = MatrixKind(kind)
    if kind is MatrixKind.FORM:
        raise ValueError("a form's stack is not a time-operator generator")
    vecs = np.asarray(vecs, dtype=complex)
    c, d = g.eigenvalues.shape
    if vecs.ndim != 3 or vecs.shape[0] != c or vecs.shape[2] != d:
        raise ValueError(f"a ({c}, k, {d}) vector stack is needed for this group, not {vecs.shape}")
    if vecs.shape[1] == 0:
        raise ValueError("need at least one vector")
    _require_difference_span(vecs)
    h = g.eigenvalues if kind is MatrixKind.DIRECT else 1.0 / g.eigenvalues
    out = np.empty(vecs.shape, dtype=complex)
    # near-equal bands: a one-row band would go to a dot product, which sums in another order
    bands = -(-d // CCR_BAND_ROWS)
    edges = [d * i // bands for i in range(bands + 1)]
    for first, last in _chunks(edges[1] * d, c):
        ch = slice(first, last)
        for start, stop in zip(edges, edges[1:]):
            rows = slice(start, stop)
            band = h[ch, rows, None] * g.stack[ch, rows]
            band -= g.stack[ch, rows] * h[ch, None, :]
            out[ch, :, rows] = vecs[ch] @ (1j * band).transpose(0, 2, 1)
    out += 1j * vecs
    return np.max(np.linalg.norm(out, axis=2), axis=1)


def ccr_allowed(g: _Group, tol: dict) -> np.ndarray:
    """The exact-CCR gate of each channel of g: ``ccr_relative`` times its largest |entry|."""
    return tol["ccr_relative"] * g.scale


def ccr_check(op: ChannelStack, seed: int, count: int) -> np.ndarray:
    """The exact-CCR sweep of the ``timeop`` pipeline: the worst residual of each channel.

    ``count`` vectors per channel of dimension 2 or more, channel i drawing
    them with ``random_difference_stack`` from a generator seeded
    ``seed + 10_000 + i``, checked by group, SWEEP_CHUNK coordinates at a
    time; 0 for channels of dimension 1.
    """
    if count < 1:
        raise ValueError("need at least one vector; a sweep over none checks nothing")
    worst = np.zeros(len(op.eigenvalues))
    for g in op.groups:
        c, d = g.eigenvalues.shape
        for start, stop in _chunks(count * d, c):
            part = g[start:stop]
            vecs = np.stack([random_difference_stack(np.random.default_rng(seed + 10_000 + i), d, count)
                             for i in part.blocks])
            worst[part.blocks] = ccr_residuals(part, op.kind, vecs)
    return worst


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


def osc_timeop_extremes(omega: float, n: int) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the oscillator time-operator truncation.

    The matrix is Toeplitz with entries (i/omega)/(n - m); its symbol has
    range (-pi/omega, pi/omega), so the truncation eigenvalues fill that
    interval from the inside as the size grows.

    The extremes come from a real matrix of half the size (the even/odd
    split of Cantoni & Butler, Linear Algebra Appl. 13, 1976).  Write
    T = iA/omega with A[n, m] = a(n - m), a(k) = 1/k, a(0) = 0: A is real
    antisymmetric Toeplitz, so J A J = -A for the exchange matrix J and A
    maps J-even vectors to J-odd ones.  Take the orthonormal bases
    e_p = (d_p + d_{n-1-p})/sqrt(2) for p < ceil(n/2), with the middle
    e_p = d_p alone when n is odd, and o_q = (d_q - d_{n-1-q})/sqrt(2) for
    q < floor(n/2).  In the basis (e, o),

        A = [[0, B], [-B^T, 0]],   B[p, q] = e_p . A o_q = a(p - q) + a(n-1-p-q),

    with the middle row of B scaled by 1/sqrt(2) when n is odd.  The
    Hermitian matrix [[0, iB], [-iB^T, 0]] has eigenvalues +-sigma(B) and
    one 0 when n is odd, so the extremes of spec(T) are +-sigma_max(B)/omega,
    and sigma_max(B)^2 is the largest eigenvalue of the floor(n/2)-square
    Gram matrix B^T B.  No n x n matrix is formed.

    Returns (lambda_min, lambda_max) = (-sigma_max/omega, sigma_max/omega).
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
    lags = np.arange(1, n, dtype=float)
    a = np.concatenate([-1.0 / lags[::-1], [0.0], 1.0 / lags])   # a[n - 1 + k] = a(k)
    p = np.arange((n + 1) // 2)[:, None]
    q = np.arange(n // 2)[None, :]
    b = a[n - 1 + p - q] + a[2 * n - 2 - p - q]
    if n % 2:
        b[-1] /= math.sqrt(2.0)
    high = math.sqrt(np.linalg.eigvalsh(b.T @ b)[-1]) / omega
    return -high, high
