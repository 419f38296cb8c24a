"""Model spectra and truncated Hamiltonians.

Discrete spectra are the common currency of the toolkit: a sorted list of
distinct eigenvalues with multiplicities, tagged with where the untruncated
sequence accumulates (at zero from below, or at infinity).  This module
generates the standard model spectra (harmonic oscillator in d dimensions,
hydrogen-like point spectra) and the truncated Rabi Hamiltonian, the one
model here that needs an eigensolver: its two parity chains are
tridiagonal, and their lowest eigenvalues are certified from leading
blocks by Sturm counts over the whole chains.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "Accumulation",
    "DiscreteSpectrum",
    "CertifiedEigenvalues",
    "HermitianMatrix",
    "harmonic_spectrum",
    "hydrogen_point_spectrum",
    "rabi_hamiltonian",
    "rabi_bound_check",
    "rabi_check",
]

#: Hard cap on the dimension of any dense block (a time-operator channel,
#: an oscillator truncation, a Rabi parity chain, whose leading block may
#: grow to the whole chain); dense eigensolves and matrix products beyond
#: this are not worth their O(N^3) cost here.
CHANNEL_DIMENSION_LIMIT = 4096

#: Hard cap on the states of a spectrum, counted with multiplicity (hydrogen
#: n_max = 143, say).  Generators check it before they enumerate a level.
STATE_COUNT_LIMIT = 10 ** 6

#: Values of a d-dimensional harmonic spectrum closer than this (relative to
#: the largest frequency) are merged into one degenerate level.  Floating
#: summation of incommensurate frequencies never collides beyond round-off,
#: so this only fires for genuine degeneracies.
DEGENERACY_MERGE_RTOL = 1e-10


def _is_integer(x) -> bool:
    """An integer in the JSON sense: not a float, not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A number in the JSON sense: not a string, not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class Accumulation(str, Enum):
    """Where the untruncated eigenvalue sequence accumulates."""

    TO_ZERO = "to_zero"
    TO_INFINITY = "to_infinity"


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Sorted eigenvalues with multiplicities and an accumulation tag.

    Parameters
    ----------
    entries : tuple of (value, multiplicity) pairs
        Strictly increasing by value; every multiplicity is a positive
        integer.
    accumulation : Accumulation
        ``TO_ZERO`` spectra follow the convention E_1 < E_2 < ... < 0, so
        every value must be negative.  ``TO_INFINITY`` spectra are only
        required to increase (unboundedness cannot be checked at a finite
        truncation).
    label : str
        Free-form provenance text; generators record their truncation
        parameters here so reports are reproducible.
    """

    entries: tuple[tuple[float, int], ...]
    accumulation: Accumulation
    label: str = ""

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("spectrum must contain at least one entry")
        for v, m in self.entries:
            # type() first: the ABC check of _is_integer is slow, and a plain int passes it
            if type(m) is not int and not _is_integer(m):
                raise ValueError(f"multiplicity {m!r} of the value {v!r} is not an integer")
        raw_values, raw_counts = zip(*self.entries)
        states = sum(raw_counts)
        if states > STATE_COUNT_LIMIT:
            raise ValueError(f"spectrum has {states} states, beyond the limit {STATE_COUNT_LIMIT}")
        floats, counts = list(map(float, raw_values)), list(map(int, raw_counts))
        object.__setattr__(self, "entries", tuple(zip(floats, counts)))
        accumulation = Accumulation(self.accumulation)
        object.__setattr__(self, "accumulation", accumulation)
        values = np.array(floats)
        if not np.all(np.isfinite(values)):
            raise ValueError("spectrum values must be finite")
        if min(counts) < 1:
            raise ValueError("multiplicities must be >= 1")
        if np.any(values[1:] <= values[:-1]):
            raise ValueError("values must be strictly increasing")
        if accumulation is Accumulation.TO_ZERO:
            if np.any(values >= 0.0):
                raise ValueError(
                    "a spectrum accumulating at zero must consist of "
                    "negative values"
                )
        elif values.size >= 2 and values[-1] <= values[0]:
            raise ValueError("spectrum must increase toward its accumulation point")

    @property
    def values(self) -> np.ndarray:
        """Distinct eigenvalues, ascending."""
        return np.array([v for v, _ in self.entries], dtype=float)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.entries)

    @property
    def total_states(self) -> int:
        """Number of eigenstates counted with multiplicity."""
        return sum(self.multiplicities)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "accumulation": self.accumulation.value,
            "entries": [[v, m] for v, m in self.entries],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "DiscreteSpectrum":
        """Read ``{"entries": [[finite number, integer], ...], "accumulation": ...}``.

        A document of any other shape raises ValueError; values are never
        coerced, so ``"-1"`` is rejected rather than read as -1.0.
        """
        if not isinstance(doc, dict):
            raise ValueError("a spectrum document must be a JSON object")
        entries = doc.get("entries")
        if not isinstance(entries, list) or not all(
            isinstance(e, list) and len(e) == 2 and _is_number(e[0])
            and abs(e[0]) <= sys.float_info.max   # written so that NaN fails
            for e in entries
        ):
            raise ValueError("spectrum entries must be a list of [finite number, integer] pairs")
        return cls(
            entries=tuple((float(v), m) for v, m in entries),
            accumulation=Accumulation(doc.get("accumulation")),
            label=str(doc.get("label", "")),
        )


#: Rows a chain's first leading block holds beyond the k eigenvalues it
#: must certify: the block starts at min(n, k + LEADING_BLOCK_PAD) rows.
LEADING_BLOCK_PAD = 64

#: Rounding slack of a certified eigenvalue, in units of eps times the
#: size of the arithmetic behind it.  The chains are first scaled by a
#: power of two sigma (exactly) so that no entry reaches 2; in those units
#: a Ritz pair (theta, y) of a chain's leading block T_b gets
#: s = CERTIFICATE_SLACK_ULPS * eps * (|| |T_b| |y| || + |theta| + e_max)
#: + 6 PIVMIN, with e_max the largest coupling of all the chains.  Half of
#: s is the margin by which the Sturm shifts theta -+ (rho + s/2) clear the
#: computed residual rho, whose three-term sums round by at most gamma_4
#: (|| |T_b| |y| || + |theta|) (Higham, *Accuracy and Stability of
#: Numerical Algorithms*, sec. 3.5), so that the counts can pass.  The
#: other half covers what the counts prove: each is exact for chains whose
#: couplings moved by 2.5 eps relative (Kahan's analysis; Demmel, *Applied
#: Numerical Linear Algebra*, sec. 5.3), 5 eps e_max in norm, plus three
#: PIVMIN for a guarded pivot and underflow, and each shift is rounded by
#: eps |theta| at most.  So the radius rho + s holds; eigh's own error is
#: not assumed, it is measured in rho.
CERTIFICATE_SLACK_ULPS = 16.0

#: The pivot guard of the Sturm counts, in units of the chains' scale
#: sigma: a pivot at most PIVMIN counts as negative and becomes
#: min(d, -PIVMIN), as in LAPACK's dstebz.  It sits 1/eps above dstebz's
#: safe minimum, so that an underflowed e^2 moves e^2/d by eps^2 at most,
#: and every e^2/d < 4/PIVMIN stays finite: no 0/0 on a zero coupling.
PIVMIN = np.finfo(float).tiny / np.finfo(float).eps

#: Rows per chunk of the Sturm pass, whose shifted diagonals are formed a
#: chunk at a time.
STURM_CHUNK_ROWS = 64


class CertifiedEigenvalues(NamedTuple):
    """The lowest eigenvalues of a ``HermitianMatrix``, each with a certified radius.

    ``values`` ascend, counted with multiplicity; the j-th eigenvalue of
    the whole matrix lies within ``radii[j]`` of ``values[j]``.  The Ritz
    values came from ``leading_block`` rows of each chain.  When
    ``failed_index`` is not None the Sturm counts failed to prove the
    radius at that index (the first such) even at full size, and nothing
    is claimed.
    """

    values: np.ndarray
    radii: np.ndarray
    leading_block: int
    failed_index: int | None


def _leading_ritz(diagonal: np.ndarray, coupling: np.ndarray, b: int, k: int) -> tuple:
    """The lowest k Ritz values of a chain's leading b x b block, with residuals and scales.

    Returns (theta, inner, tail, scale).  y_j extended by zeros leaves the
    residual r = T_b y - theta y inside the block and e_{b-1} y[b-1] in row
    b, so inner = |r| and tail = |e_{b-1} y[b-1]| (zero at b = n) sum to its
    residual in the whole chain; scale = || |T_b| |y| || + |theta| sizes the
    rounding of r.
    """
    block = np.zeros((b, b))
    block.flat[::b + 1] = diagonal[:b]
    block.flat[b::b + 1] = coupling[:b - 1]   # the lower triangle, which eigh reads
    theta, y = np.linalg.eigh(block)
    theta, y = theta[:k], y[:, :k]
    tail = np.abs(coupling[b - 1] * y[-1]) if b < diagonal.size else np.zeros(k)
    a, e = diagonal[:b, None], coupling[:b - 1, None]
    r = (a - theta) * y
    r[1:] += e * y[:-1]
    r[:-1] += e * y[1:]
    y = np.abs(y)
    s = np.abs(a) * y
    s[1:] += np.abs(e) * y[:-1]
    s[:-1] += np.abs(e) * y[1:]
    return theta, np.linalg.norm(r, axis=0), tail, np.linalg.norm(s, axis=0) + np.abs(theta)


def _sturm_counts(diagonals: np.ndarray, squared_couplings: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Eigenvalues below each shift, summed over the chains, from the LDL^T pivots of T - x.

    The pivots are d_0 = a_0 - x and d_i = (a_i - x) - e_{i-1}^2 / d_{i-1};
    T - x has as many negative eigenvalues as negative pivots (Sylvester),
    and the pivots of every chain and shift advance together, one row at a
    time.  A pivot at most PIVMIN counts as negative and becomes
    min(d, -PIVMIN).  The caller scales the chains so that no entry
    reaches 2, which keeps every e^2/d below 4/PIVMIN.
    """
    c, n = diagonals.shape
    counts = np.zeros(shifts.size, dtype=np.intp)
    chunk = np.empty((min(n, STURM_CHUNK_ROWS), c, shifts.size))
    q = np.empty((c, shifts.size))
    negative = np.empty((c, shifts.size), dtype=bool)
    d = q   # never read: row 0 has no coupling before it
    for start in range(0, n, STURM_CHUNK_ROWS):
        rows = chunk[:min(n - start, STURM_CHUNK_ROWS)]
        np.subtract(diagonals.T[start:start + len(rows), :, None], shifts, out=rows)
        for i, pivot in enumerate(rows, start):
            if i:
                np.divide(squared_couplings[:, i - 1, None], d, out=q)
                pivot -= q
            np.less_equal(pivot, PIVMIN, out=negative)
            np.minimum(pivot, -PIVMIN, out=pivot, where=negative)
            d = pivot
        counts += np.count_nonzero(rows < 0.0, axis=(0, 1))   # guarded: every pivot is > PIVMIN or <= -PIVMIN
        d = d.copy()   # the next chunk overwrites the row d views
    return counts


@dataclass(frozen=True)
class HermitianMatrix:
    """Direct sum of real symmetric tridiagonal chains of one length n.

    Chain c has the diagonal ``diagonals[c]``, and ``couplings[c, i]``
    couples its states i and i + 1.  Entries must be finite; the arrays
    are copied and made read-only.  Only the lowest eigenvalues are ever
    read, and ``eigenvalues`` certifies them from leading blocks.
    """

    diagonals: np.ndarray
    couplings: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.diagonals) or np.iscomplexobj(self.couplings):
            raise ValueError("chain entries must be real")
        diagonals = np.array(self.diagonals, dtype=float)
        couplings = np.array(self.couplings, dtype=float)
        if diagonals.ndim != 2 or diagonals.shape[1] < 1 or couplings.shape != (len(diagonals), diagonals.shape[1] - 1):
            raise ValueError("chains need a (c, n) diagonal array and a (c, n - 1) coupling array")
        if not (np.all(np.isfinite(diagonals)) and np.all(np.isfinite(couplings))):
            raise ValueError("chain entries must be finite")
        for name, array in (("diagonals", diagonals), ("couplings", couplings)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def dimension(self) -> int:
        return self.diagonals.size

    def eigenvalues(self, count: int) -> CertifiedEigenvalues:
        """The lowest ``count`` eigenvalues, ascending with multiplicity, each certified.

        Each chain's leading b x b block gives Ritz pairs by a dense
        ``eigh`` (``_leading_ritz``); the lowest ``count`` over all chains
        are kept.  The block starts at min(n, count + LEADING_BLOCK_PAD)
        rows and doubles until every kept pair's tail residual is within
        its rounding slack (``CERTIFICATE_SLACK_ULPS``).  Then one Sturm
        pass over the whole chains counts the eigenvalues below
        theta_j -+ (rho_j + s_j/2); at most j below the lower shift and
        at least j + 1 below the upper one put the j-th eigenvalue within
        rho_j + s_j of theta_j.  Counts that fail double the block again;
        at full size their first failing index is returned, not raised.
        """
        c, n = self.diagonals.shape
        if not 1 <= count <= c * n:
            raise ValueError(f"cannot certify {count} eigenvalues of a {c * n}-dimensional matrix")
        # scaled by a power of two, exactly, so that no entry reaches 2 and no norm overflows
        largest = max(float(np.max(np.abs(self.diagonals))), float(np.max(np.abs(self.couplings), initial=0.0)))
        sigma = math.ldexp(1.0, math.frexp(largest)[1] - 1)
        diagonals, couplings = self.diagonals / sigma, self.couplings / sigma
        e_max = float(np.max(np.abs(couplings), initial=0.0))
        b = min(n, count + LEADING_BLOCK_PAD)
        while True:
            k = min(count, b)
            theta, inner, tail, scale = (np.concatenate(parts) for parts in zip(*(
                _leading_ritz(diagonals[i], couplings[i], b, k) for i in range(c))))
            keep = np.argsort(theta, kind="stable")[:count]
            theta, inner, tail, scale = theta[keep], inner[keep], tail[keep], scale[keep]
            slack = CERTIFICATE_SLACK_ULPS * np.finfo(float).eps * (scale + e_max) + 6.0 * PIVMIN
            if b < n and not np.all(tail <= slack):
                b = min(n, 2 * b)
                continue
            rho = inner + tail
            shift = rho + slack / 2.0
            counts = _sturm_counts(diagonals, np.square(couplings), np.concatenate([theta - shift, theta + shift]))
            index = np.arange(count)
            failed = np.flatnonzero(~((counts[:count] <= index) & (counts[count:] >= index + 1)))
            if failed.size == 0 or b == n:
                return CertifiedEigenvalues(sigma * theta, sigma * (rho + slack), b,
                                            int(failed[0]) if failed.size else None)
            b = min(n, 2 * b)


def _lattice_points(dims: int, total: int):
    """Yield all occupation tuples (n_1..n_d) with sum <= total."""
    if dims == 1:
        for n in range(total + 1):
            yield (n,)
        return
    for n in range(total + 1):
        for rest in _lattice_points(dims - 1, total - n):
            yield (n, *rest)


def _lattice_point_count(dims: int, total: int) -> int:
    """The size of ``_lattice_points(dims, total)``, math.comb(total + dims, dims).

    Exact up to STATE_COUNT_LIMIT; beyond it, some value above the limit.
    Built as C(r, j) = C(r - 1, j - 1) r / j for j up to min(dims, total).
    Each factor at least doubles the count, so the loop passes the limit
    within ~20 factors however large the arguments, where math.comb on a
    large min(dims, total) takes seconds.
    """
    k = min(dims, total)
    count = 1
    for j in range(1, k + 1):
        count = count * (dims + total - k + j) // j
        if count > STATE_COUNT_LIMIT:
            break
    return count


def harmonic_spectrum(omega: "list[float]", n_max: int) -> DiscreteSpectrum:
    """Truncated spectrum of a d-dimensional harmonic oscillator.

    Enumerates every occupation tuple (n_1, .., n_d) with n_j >= 0 and
    sum n_j <= n_max, sums the level values sum_j omega_j (n_j + 1/2), and
    merges values that coincide up to ``DEGENERACY_MERGE_RTOL`` times the
    largest frequency.

    Parameters
    ----------
    omega : list of float
        Positive mode frequencies; the length sets the dimension d.
    n_max : int
        Total occupation cutoff, at least 1.

    Returns
    -------
    DiscreteSpectrum
        Accumulating at infinity; multiplicities count lattice points.
    """
    freqs = [float(w) for w in omega]
    if not freqs:
        raise ValueError("need at least one frequency")
    if not all(np.isfinite(freqs)) or any(w <= 0.0 for w in freqs):
        raise ValueError("frequencies must be finite and positive")
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if _lattice_point_count(len(freqs), n_max) > STATE_COUNT_LIMIT:
        raise ValueError(f"n_max = {n_max} in {len(freqs)} dimensions gives more than {STATE_COUNT_LIMIT} states")

    try:   # fsum raises on an overflowing partial sum
        base = 0.5 * math.fsum(freqs)
        levels = sorted(math.fsum(w * n for w, n in zip(freqs, point)) + base
                        for point in _lattice_points(len(freqs), n_max))
    except OverflowError:
        raise ValueError(f"the oscillator levels of omega = {freqs} overflow to a non-finite value") from None
    tol = DEGENERACY_MERGE_RTOL * max(freqs)
    entries: list[list] = []
    for value in levels:
        if entries and value - entries[-1][0] <= tol:
            entries[-1][1] += 1
        else:
            entries.append([value, 1])
    label = f"harmonic(omega={freqs}, n_max={n_max})"
    return DiscreteSpectrum(
        entries=tuple((v, m) for v, m in entries),
        accumulation=Accumulation.TO_INFINITY,
        label=label,
    )


def hydrogen_point_spectrum(m: float, gamma: float, n_max: int) -> DiscreteSpectrum:
    """Hydrogen-like point spectrum -m*gamma^2/(2 n^2) for n = 1..n_max.

    The level values are the standard Coulomb bound-state energies.  The
    multiplicity n^2 is the textbook degeneracy of level n; it is supplied
    here as standard physics input, not derived inside the toolkit.
    """
    m = float(m)
    gamma = float(gamma)
    n_max = int(n_max)
    if not (np.isfinite(m) and np.isfinite(gamma) and m > 0.0 and gamma > 0.0):
        raise ValueError("mass and coupling must be finite and positive")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max * (n_max + 1) * (2 * n_max + 1) // 6 > STATE_COUNT_LIMIT:
        raise ValueError(f"n_max = {n_max} gives more than {STATE_COUNT_LIMIT} states")
    entries = tuple(
        (-m * gamma * gamma / (2.0 * n * n), n * n) for n in range(1, n_max + 1)
    )
    return DiscreteSpectrum(
        entries=entries,
        accumulation=Accumulation.TO_ZERO,
        label=f"hydrogen(m={m}, gamma={gamma}, n_max={n_max})",
    )


def rabi_hamiltonian(
    mu: float, omega: float, g: float, fock_cutoff: int
) -> HermitianMatrix:
    """Rabi Hamiltonian mu*sz (x) 1 + omega*1 (x) a*a + g*sx (x) (a + a*).

    The boson mode is truncated at ``fock_cutoff``: ladder entries that
    would leave the retained number states are dropped, which keeps the
    matrix exactly Hermitian (variational truncation).

    H commutes with the parity sz (x) (-1)^N, so the 2(fock_cutoff+1)-
    dimensional matrix is returned as its two parity chains, each a real
    symmetric tridiagonal chain of fock_cutoff+1 states: |up,0>, |down,1>,
    |up,2>, ... and |down,0>, |up,1>, |down,2>, ...  Chain state n has
    diagonal +-mu(-1)^n + omega*n, and g*sqrt(n) couples it to state n-1.
    """
    mu, omega, g, fock_cutoff = float(mu), float(omega), float(g), int(fock_cutoff)
    for name, value in (("mu", mu), ("omega", omega), ("g", g)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value!r}")
    if mu <= 0.0 or omega <= 0.0:
        raise ValueError("mu and omega must be positive")
    if fock_cutoff < 2:
        raise ValueError("fock_cutoff must be >= 2")
    if fock_cutoff + 1 > CHANNEL_DIMENSION_LIMIT:
        raise ValueError(
            f"fock_cutoff {fock_cutoff} gives parity blocks of dimension {fock_cutoff + 1}, "
            f"beyond the dense-solver limit {CHANNEL_DIMENSION_LIMIT}"
        )

    n = np.arange(fock_cutoff + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        diagonals = [omega * n + sign * mu * (-1.0) ** n for sign in (1.0, -1.0)]
        coupling = g * np.sqrt(n[1:])
    if not np.all(np.isfinite(np.concatenate([coupling, *diagonals]))):
        raise ValueError("the Rabi matrix entries overflow for these parameters")
    return HermitianMatrix(np.stack(diagonals), np.stack([coupling, coupling]))


def rabi_bound_check(
    eigenvalues, mu: float, omega: float, g: float, count: int
) -> "list[bool]":
    """Check the two-sided bound on every second Rabi eigenvalue.

    For n = 0..count-1 the n-th reference level is nu_n = omega*n - g^2/omega
    and the check is nu_n - mu <= eigenvalues[2n] <= nu_n + mu, with the
    eigenvalues sorted ascending and counted with multiplicity.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    if 2 * count > ev.size:
        raise ValueError("count too large for the eigenvalue list")
    out = []
    for n in range(count):
        nu = omega * n - g * g / omega
        out.append(bool(nu - mu <= ev[2 * n] <= nu + mu))
    return out


def rabi_check(mu: float, omega: float, g: float, fock_cutoff: int, count: int):
    """Build the truncated Rabi matrix, certify its lowest 2 * count eigenvalues, then run ``rabi_bound_check``.

    Returns (``CertifiedEigenvalues``, list of ``count`` bound verdicts).
    """
    h = rabi_hamiltonian(mu, omega, g, fock_cutoff)
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    if 2 * count > h.dimension:
        raise ValueError("count too large for the eigenvalue list")
    spectrum = h.eigenvalues(2 * count)
    return spectrum, rabi_bound_check(spectrum.values, mu, omega, g, count)
