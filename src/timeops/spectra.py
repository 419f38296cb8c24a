"""Model spectra and truncated Hamiltonians.

Discrete spectra are the common currency of the toolkit: a sorted list of
distinct eigenvalues with multiplicities, tagged with where the untruncated
sequence accumulates (at zero from below, or at infinity).  This module
generates the standard model spectra (harmonic oscillator in d dimensions,
hydrogen-like point spectra) and the truncated Rabi Hamiltonian, which is
the one model here that requires an actual eigensolve.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Accumulation",
    "DiscreteSpectrum",
    "HermitianMatrix",
    "harmonic_spectrum",
    "hydrogen_point_spectrum",
    "rabi_hamiltonian",
    "rabi_bound_check",
    "rabi_check",
]

#: Hard cap on the dimension of any dense block (a time-operator channel,
#: an oscillator truncation, a Rabi parity chain); dense eigensolves and
#: matrix products beyond this are not worth their O(N^3) cost here.
CHANNEL_DIMENSION_LIMIT = 4096

#: Hard cap on the states of a spectrum, counted with multiplicity (hydrogen
#: n_max = 143, say).  Generators check it before they enumerate a level.
STATE_COUNT_LIMIT = 10 ** 6

#: Relative tolerance for the Hermiticity check on constructed matrices.
HERMITICITY_RTOL = 1e-12

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
            if not _is_integer(m):
                raise ValueError(f"multiplicity {m!r} of the value {v!r} is not an integer")
        states = sum(m for _, m in self.entries)
        if states > STATE_COUNT_LIMIT:
            raise ValueError(f"spectrum has {states} states, beyond the limit {STATE_COUNT_LIMIT}")
        entries = tuple((float(v), int(m)) for v, m in self.entries)
        object.__setattr__(self, "entries", entries)
        accumulation = Accumulation(self.accumulation)
        object.__setattr__(self, "accumulation", accumulation)
        values = [v for v, _ in entries]
        if not all(np.isfinite(values)):
            raise ValueError("spectrum values must be finite")
        if any(m < 1 for _, m in entries):
            raise ValueError("multiplicities must be >= 1")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("values must be strictly increasing")
        if accumulation is Accumulation.TO_ZERO:
            if any(v >= 0.0 for v in values):
                raise ValueError(
                    "a spectrum accumulating at zero must consist of "
                    "negative values"
                )
        elif len(values) >= 2 and values[-1] <= values[0]:
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


#: Rows per band of the Hermiticity pass, which builds no n x n temporary.
HERMITICITY_BAND_ROWS = 32


def _require_hermitian(data: np.ndarray, skew: bool = False) -> tuple:
    """Return (scale, defect): the largest |A| and |A - A^H| entries of a square A.

    With ``skew``, ``data`` is the real generator A of T = iA and the
    defect is the largest |A + A^T| entry, which is the |T - T^H| entry.
    A (c, d, d) stack is checked matrix by matrix, and gives one scale
    and one defect per matrix.  Raises ValueError when a defect exceeds
    ``HERMITICITY_RTOL`` times its scale, written as
    ``not (defect <= bound)`` so that NaN entries fail.
    """
    scale = defect = np.zeros(data.shape[:-2])
    rows = HERMITICITY_BAND_ROWS
    with np.errstate(invalid="ignore"):   # inf - inf is a NaN defect, rejected below
        for start in range(0, data.shape[-2], rows):
            band = data[..., start:start + rows, :]
            mirror = np.swapaxes(data[..., start:start + rows], -1, -2)
            # np.maximum, unlike max(), carries a NaN forward
            scale = np.maximum(scale, np.max(np.abs(band), axis=(-2, -1)))
            defect = np.maximum(defect, np.max(np.abs(band + mirror if skew else band - mirror.conj()), axis=(-2, -1)))
    _refuse_defect(scale, defect)
    return scale, defect


def _refuse_defect(scale, defect) -> None:
    """Raise ValueError for the first matrix whose defect exceeds ``HERMITICITY_RTOL`` times its scale; NaN fails."""
    failed = ~(defect <= HERMITICITY_RTOL * np.maximum(scale, 1e-300))
    if np.any(failed):
        raise ValueError(f"matrix is not Hermitian (defect {np.ravel(defect)[np.argmax(failed)]:.3e})")


@dataclass(frozen=True)
class HermitianMatrix:
    """Block-diagonal Hermitian matrix."""

    dimension: int
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        blocks = tuple(np.array(b, dtype=complex if np.iscomplexobj(b) else float) for b in self.blocks)
        if any(b.ndim != 2 or b.shape[0] != b.shape[1] for b in blocks):
            raise ValueError("every block must be a square matrix")
        if sum(b.shape[0] for b in blocks) != self.dimension:
            raise ValueError("block sizes do not add up to the declared dimension")
        for b in blocks:
            _require_hermitian(b)
            b.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of all blocks, merged in ascending order."""
        return np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in self.blocks]))


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
    dimensional matrix is returned as its two parity blocks, each a real
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
    chains = [np.diag(d) + np.diag(coupling, 1) + np.diag(coupling, -1) for d in diagonals]
    return HermitianMatrix(2 * (fock_cutoff + 1), tuple(chains))


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
    """Build and solve the truncated Rabi matrix, then run ``rabi_bound_check``.

    Returns (eigenvalues ascending, list of ``count`` bound verdicts).
    """
    eigenvalues = rabi_hamiltonian(mu, omega, g, fock_cutoff).eigenvalues()
    return eigenvalues, rabi_bound_check(eigenvalues, mu, omega, g, count)
