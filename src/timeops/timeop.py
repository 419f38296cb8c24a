"""Time-operator matrices on simple channels.

In the eigenbasis of a simple (multiplicity-free) channel the canonical
time-operator candidate is the Hermitian matrix with zero diagonal and
off-diagonal entries i/(E_n - E_m).  Against H = diag(E) it satisfies
[H, T] = i(J - I) with J the all-ones matrix, so the commutator defect
([H,T]v + iv) collapses to i*(sum of coefficients)*ones: it vanishes
identically on the span of eigenvector differences.  That cancellation is
algebraic, not asymptotic, which is why the residual checks here demand
machine precision rather than convergence.  The time operator of a whole
spectrum is the tuple of its channel matrices, in decomposition order.

Every entry is purely imaginary, so a matrix is stored as T = iA with A
real and antisymmetric: one real n x n array per channel.  The residual
kernel streams the commutator [H, T] = i(hA - Ah) in row bands and never
holds it whole.

Two entry conventions are provided.  ``DIRECT`` pairs with diag(E) itself
and suits spectra growing to infinity.  ``INVERSE_CONJUGATE`` has entries
i E_n E_m / (E_m - E_n) = i/(1/E_n - 1/E_m): it is the direct matrix of
the reciprocal eigenvalues, pairs with diag(1/E), and suits spectra
accumulating at zero, whose reciprocals are the ones marching off to
infinity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .decompose import decompose_spectrum
from .spectra import CHANNEL_DIMENSION_LIMIT, Accumulation, DiscreteSpectrum, _require_hermitian

__all__ = [
    "MatrixKind",
    "TimeOperatorMatrix",
    "galapon_matrix",
    "ccr_residual",
    "random_difference_stack",
    "channel_time_operator",
    "assemble_time_operator",
    "osc_timeop_extremes",
    "oscillator_bound_rows",
]

#: A vector belongs to the difference span when its coefficient sum is
#: this small relative to its norm (the span is exactly the kernel of the
#: summation functional).
DIFFERENCE_SPAN_RTOL = 1e-10


class MatrixKind(str, Enum):
    DIRECT = "direct"
    INVERSE_CONJUGATE = "inverse_conjugate"


#: Rows per band of the commutator that ``ccr_residual`` streams, and of the
#: products E_n*E_m that ``galapon_matrix`` forms.
CCR_BAND_ROWS = 128


@dataclass(frozen=True)
class TimeOperatorMatrix:
    """Hermitian time-operator matrix T = iA over one simple channel.

    ``generator`` is the real antisymmetric A.  The constructor takes
    ownership of a float64 array, without copying it, and makes it read-only.
    """

    dimension: int
    generator: np.ndarray
    eigenvalues: tuple[float, ...]
    kind: MatrixKind
    #: Largest |entry| and largest |T - T^H| = |A + A^T| entry, from the one antisymmetry pass.
    scale: float = field(init=False, repr=False, compare=False)
    _defect: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.generator):
            raise ValueError("the generator A of T = iA must be real")
        generator = np.asarray(self.generator, dtype=float)
        if generator.shape != (self.dimension, self.dimension):
            raise ValueError("generator shape does not match dimension")
        if len(self.eigenvalues) != self.dimension:
            raise ValueError("need one eigenvalue per basis vector")
        if np.any(np.diagonal(generator) != 0.0):
            raise ValueError("time-operator matrix must have zero diagonal")
        scale, defect = map(float, _require_hermitian(generator, skew=True))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_defect", defect)
        generator.flags.writeable = False
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "eigenvalues", tuple(float(e) for e in self.eigenvalues))
        object.__setattr__(self, "kind", MatrixKind(self.kind))

    @property
    def pairing_eigenvalues(self) -> tuple[float, ...]:
        """Diagonal of the Hamiltonian this matrix is conjugate to.

        The commutation relation holds against diag(E) for the direct kind
        and against diag(1/E) for the inverse-conjugate kind.
        """
        if self.kind is MatrixKind.DIRECT:
            return self.eigenvalues
        return tuple(1.0 / e for e in self.eigenvalues)

    def hermiticity_defect(self) -> float:
        """Max entrywise deviation from the conjugate transpose, relative."""
        return self._defect / self.scale if self.scale else 0.0


def galapon_matrix(eigenvalues, kind: MatrixKind = MatrixKind.DIRECT) -> TimeOperatorMatrix:
    """Build the time-operator matrix of a simple channel.

    Parameters
    ----------
    eigenvalues : array-like of float
        Strictly increasing channel eigenvalues.  Must be nonzero for the
        inverse-conjugate kind.
    kind : MatrixKind
        ``DIRECT`` gives entries i/(E_n - E_m); ``INVERSE_CONJUGATE``
        gives i E_n E_m/(E_m - E_n), the direct matrix of the reciprocal
        spectrum in the original basis order.

    The generator A = -iT is the one-row case of ``_generator_stack``.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    kind = MatrixKind(kind)
    if ev.ndim != 1 or ev.size == 0:
        raise ValueError("eigenvalues must be a nonempty 1-d array")
    return TimeOperatorMatrix(ev.size, _generator_stack(ev[None], kind)[0], tuple(ev), kind)


def _generator_stack(ev: np.ndarray, kind: MatrixKind) -> np.ndarray:
    """Real generators A = -iT of the channels whose eigenvalues are the rows of a (c, d) float array.

    Returns a (c, d, d) stack, A[r] built from row r as ``galapon_matrix``
    documents.  Each generator is built in the buffer of the gap array
    E_n - E_m, so the build holds the stack and one band of products.  A
    refusal names the first row that fails it.
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
    """Refuse any row of a (k, n) stack whose coefficient sum is off the difference span."""
    defects = np.abs(vecs.sum(axis=1))
    bounds = DIFFERENCE_SPAN_RTOL * np.maximum(np.linalg.norm(vecs, axis=1), 1e-300)
    # written so that NaN fails
    outside = ~(defects <= bounds)
    if outside.any():
        raise ValueError(
            "vector lies outside the difference span "
            f"(coefficient sum {defects[np.argmax(outside)]:.3e})"
        )


def ccr_residual(t: TimeOperatorMatrix, v) -> float:
    """Worst norm of ([H,T] + i)v over one vector v or the rows of a (k, n) stack.

    H is diag(t.pairing_eigenvalues).  The residual is zero in exact
    arithmetic for any v with zero coefficient sum, because the commutator
    equals i(J - I) and the all-ones contribution is annihilated on that span.
    Vectors whose coefficient sum exceeds the membership tolerance are
    rejected rather than silently measured.

    The commutator is streamed in bands of at most ``CCR_BAND_ROWS`` rows.
    A band is c = h_n A - A h_m, built entrywise with no summation, and it
    gives its columns of the product as ``vecs @ (1j*c).T``; no n x n
    temporary exists.  A stack of 0 and +-1 entries (differences of basis vectors)
    gets the same bits as one matrix-vector product per row: each entry
    of the product is one subtraction of two commutator entries.
    """
    vecs = np.asarray(v, dtype=complex)
    if vecs.ndim == 1:
        vecs = vecs[None, :]
    if vecs.ndim != 2 or vecs.shape[1] != t.dimension:
        raise ValueError("vector length does not match matrix dimension")
    if vecs.shape[0] == 0:
        raise ValueError("need at least one vector")
    _require_difference_span(vecs)
    h = np.asarray(t.pairing_eigenvalues, dtype=float)
    a = t.generator
    out = np.empty(vecs.shape, dtype=complex)
    # near-equal bands: a one-row band would go to a dot product, which sums in another order
    bands = -(-t.dimension // CCR_BAND_ROWS)
    edges = [t.dimension * i // bands for i in range(bands + 1)]
    for start, stop in zip(edges, edges[1:]):
        rows = slice(start, stop)
        c = h[rows, None] * a[rows]
        c -= a[rows] * h[None, :]
        out[:, rows] = vecs @ (1j * c).T
    out += 1j * vecs
    return float(np.max(np.linalg.norm(out, axis=1)))


def channel_time_operator(values, accumulation: Accumulation) -> TimeOperatorMatrix:
    """Time-operator matrix for one simple channel of a spectrum.

    Spectra accumulating at zero get the inverse-conjugate matrix, whose
    conjugate Hamiltonian is the reciprocal diagonal (its
    ``pairing_eigenvalues``); spectra growing to infinity get the direct one.
    """
    ev = np.sort(np.asarray(values, dtype=float))
    if Accumulation(accumulation) is Accumulation.TO_ZERO:
        return galapon_matrix(ev, MatrixKind.INVERSE_CONJUGATE)
    return galapon_matrix(ev, MatrixKind.DIRECT)


def assemble_time_operator(s: DiscreteSpectrum, p: float = 2.0):
    """Decompose a spectrum and build the block time operator.

    Returns (decomposition, matrices): one ``TimeOperatorMatrix`` per
    channel, in decomposition order.
    """
    deco = decompose_spectrum(s, p)
    return deco, tuple(
        channel_time_operator(deco.channel_values(i), s.accumulation)
        for i in range(deco.channel_count)
    )


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


def oscillator_bound_rows(sizes, extremes, omega: float, slack: float) -> tuple[list[dict], bool]:
    """Check oscillator truncation extremes against the symbol bound pi/omega.

    ``extremes`` holds one ``osc_timeop_extremes(omega, n)`` pair per size,
    sizes ascending.  Returns one row per size (size, lambda_min, lambda_max
    and whether both lie within pi/omega + slack) and whether lambda_max is
    nondecreasing in the size.
    """
    bound = math.pi / omega
    rows = [
        {
            "size": n,
            "lambda_min": low,
            "lambda_max": high,
            "within_bound": bool(high <= bound + slack and low >= -bound - slack),
        }
        for n, (low, high) in zip(sizes, extremes)
    ]
    maxima = [row["lambda_max"] for row in rows]
    return rows, all(b >= a for a, b in zip(maxima, maxima[1:]))
