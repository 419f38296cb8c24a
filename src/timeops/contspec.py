"""Continuous-spectrum checks: the Aharonov-Bohm operator on a grid and
an exactly solvable symbolic class.

Grid side.  The free Hamiltonian k^2/2m on a periodic box [-L, L) admits
the symmetrized candidate

    T = (m/2) (x . p^{-1} + p^{-1} . x),

singular at k = 0.  Both 1/k factors are applied in Fourier space with
the zero mode dropped, which is only legitimate for states carrying no
weight there; the constructor therefore forces the packet's carrier
frequency away from zero, and every application of T re-checks the
actual zero-mode mass before touching a state.  The weak Weyl relation

    T e^{-itH} psi = e^{-itH} (T + t) psi

is then a measurable identity: its residual is limited by the grid, not
by the algebra, and refining the grid must push it down whenever the
truncation error dominates round-off.  ``weak_weyl_residuals`` checks it
at many times on one grid: the t-independent transforms of psi and
T psi are taken once, after which each time costs six FFTs.
``weak_weyl_residual`` is the one-time case of the same sweep.

Symbolic side.  On the weighted line with Gaussian reference density
rho = exp(-lambda^2)/sqrt(pi), the span of exponentials exp(i s lambda)
is mapped by the model time operator into affine combinations

    Y exp(i s lambda) = (-s - i lambda) exp(i s lambda),

so the strong relation exp(itH) Y exp(-itH) = Y + t can be verified as
an identity between coefficient lists, with no quadrature at all.
Symmetry of Y in the rho inner product is the one statement that does
need integration; Gauss-Hermite handles it to near machine precision
once the order clears a frequency-dependent floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridState",
    "make_packet",
    "ab_apply",
    "free_evolve",
    "weak_weyl_residual",
    "weak_weyl_residuals",
    "ExpCombination",
    "AffineExpCombination",
    "s0_apply",
    "s0_strong_relation_check",
    "s0_symmetry_residual",
]

#: Largest tolerated relative weight of the k = 0 Fourier mode.
ZERO_MODE_MASS_LIMIT = 1e-10

#: Minimum carrier frequency in units of the packet's spectral width.
CARRIER_WIDTH_FACTOR = 4.0

#: Quadrature floor: orders below max(64, ceil(8 smax + 16)) are refused.
QUADRATURE_ORDER_FLOOR = 64


@dataclass(frozen=True)
class GridState:
    """Complex wave function sampled on the periodic box [-L, L)."""

    box_half_width: float
    size: int
    mass: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        # written so that NaN fails: a NaN width or mass is no grid
        if not 0.0 < self.box_half_width < math.inf:
            raise ValueError("box half-width must be finite and positive")
        if not 0.0 < self.mass < math.inf:
            raise ValueError("mass must be finite and positive")
        n = self.size
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError("grid size must be a power of two, at least 16")
        samples = np.array(self.samples, dtype=complex)
        if samples.shape != (n,):
            raise ValueError("sample count does not match the grid size")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def dx(self) -> float:
        return 2.0 * self.box_half_width / self.size

    @property
    def x(self) -> np.ndarray:
        return -self.box_half_width + self.dx * np.arange(self.size)

    @property
    def k(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.size, d=self.dx)

    def with_samples(self, samples) -> "GridState":
        return GridState(self.box_half_width, self.size, self.mass, samples)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.dx))

    def inner(self, other: "GridState") -> complex:
        if (other.size, other.box_half_width) != (self.size, self.box_half_width):
            raise ValueError("states live on different grids")
        return complex(np.vdot(self.samples, other.samples) * self.dx)

    def zero_mode_mass(self) -> float:
        """Relative weight of the k = 0 Fourier coefficient."""
        return _zero_mode_mass(np.fft.fft(self.samples))


def _zero_mode_mass(hat: np.ndarray) -> float:
    total = float(np.vdot(hat, hat).real)
    if total == 0.0:
        return 0.0
    return float(np.abs(hat[0]) ** 2) / total


def _inverse_k(k: np.ndarray) -> np.ndarray:
    """1/k on a grid's Fourier axis, with the k = 0 mode dropped."""
    invk = np.zeros_like(k)
    nonzero = k != 0.0
    invk[nonzero] = 1.0 / k[nonzero]
    return invk


def make_packet(box_half_width: float, size: int, mass: float,
                center: float, carrier: float, width: float) -> GridState:
    """Normalized Gaussian packet exp(i k0 x) exp(-(x-x0)^2 / (2 sigma^2)).

    Three preconditions keep the later checks honest: the width must be
    positive, the carrier must satisfy |k0| >= 4/sigma so the momentum
    distribution (spectral width 1/sigma) stays clear of the k = 0
    singularity, and the envelope must fit the box with a six-sigma
    margin on both sides.
    """
    if not np.all(np.isfinite([box_half_width, mass, center, carrier, width])):
        raise ValueError("packet parameters must be finite")
    if width <= 0.0:
        raise ValueError("packet width must be positive")
    if abs(carrier) < CARRIER_WIDTH_FACTOR / width:
        raise ValueError(
            "carrier frequency too close to the k = 0 singularity: "
            f"need |k0| >= {CARRIER_WIDTH_FACTOR / width:.6g} for width {width:.6g}"
        )
    if abs(center) + 6.0 * width >= box_half_width:
        raise ValueError("packet does not fit in the box with a six-sigma margin")
    state = GridState(box_half_width, size, mass,
                      np.zeros(size, dtype=complex))
    x = state.x
    psi = np.exp(1j * carrier * x) * np.exp(-((x - center) ** 2) / (2.0 * width ** 2))
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * state.dx)
    return state.with_samples(psi)


def _apply_t(psi: np.ndarray, x: np.ndarray, invk: np.ndarray, mass: float) -> np.ndarray:
    """T psi = (m/2)(x . ifft(fft(psi)/k) + ifft(fft(x psi)/k)); see ab_apply.

    The zero-mode gate reads the transform the first term uses and is
    written so that a NaN mass (an overflowing spectrum) fails it.
    """
    hat = np.fft.fft(psi)
    mass0 = _zero_mode_mass(hat)
    if not mass0 < ZERO_MODE_MASS_LIMIT:
        raise ValueError(
            f"state has relative zero-mode mass {mass0:.3e}; "
            "the 1/k factors are not defined on it"
        )
    # psi is spent here; a temporary passed by the caller is freed
    second = x * psi
    del psi
    second = np.fft.fft(second)
    second *= invk
    hat *= invk
    out = np.fft.ifft(hat)
    del hat
    out *= x
    out += np.fft.ifft(second)
    out *= mass / 2.0
    return out


def ab_apply(state: GridState) -> GridState:
    """Apply T = (m/2)(x . 1/k + 1/k . x) in mixed position/Fourier form.

    Refuses states with visible k = 0 mass: dropping the zero mode would
    silently change the operator on them.
    """
    return state.with_samples(
        _apply_t(state.samples, state.x, _inverse_k(state.k), state.mass))


def free_evolve(state: GridState, t: float) -> GridState:
    """exp(-i t k^2 / 2m) in Fourier space; exactly unitary on the grid."""
    phase = np.exp(-1j * float(t) * state.k ** 2 / (2.0 * state.mass))
    return state.with_samples(np.fft.ifft(phase * np.fft.fft(state.samples)))


def _require_contained(samples: np.ndarray, x: np.ndarray, box_half_width: float) -> None:
    """Demand that the position distribution sits well inside the box.

    A packet that wraps around the periodic boundary still has a finite
    residual, but the number stops meaning anything about the line
    problem, so it is rejected.
    """
    total = np.vdot(samples, samples).real
    weighted = x * samples
    mean = np.vdot(samples, weighted).real / total
    weighted -= mean * samples
    spread = math.sqrt(np.vdot(weighted, weighted).real / total)
    reach = abs(mean) + 6.0 * spread
    if not reach < box_half_width:
        raise ValueError(
            "evolved packet reaches the box boundary "
            f"(|<x>| + 6 std = {reach:.3f} "
            f">= L = {box_half_width:.3f}); "
            "shorten the time or enlarge the box"
        )


def weak_weyl_residuals(state: GridState, times) -> list[float]:
    """Relative norms of T e^{-itH} psi - e^{-itH} (T + t) psi, one per t.

    The t-independent pieces (k^2/2m, 1/k, x, fft(psi), fft(T psi)) take
    six FFTs once per grid; each t then costs six more.  Both sides use
    one evolution each, so round-off enters symmetrically.  Raises
    ValueError for a non-finite time, a zero state, zero-mode mass, or
    an evolved packet that reaches the box boundary.
    """
    times = [float(t) for t in times]
    if not all(math.isfinite(t) for t in times):
        raise ValueError("evolution times must be finite")
    norm = state.norm()
    if not norm > 0.0:
        raise ValueError("the weak Weyl residual needs a nonzero state")
    # the arrays that live through the sweep are made before T's
    # temporaries, so the heap the temporaries leave behind can be reused
    hat = np.fft.fft(state.samples)
    energy = state.k ** 2 / (2.0 * state.mass)
    x = state.x
    invk = _inverse_k(state.k)
    t_hat = np.fft.fft(_apply_t(state.samples, x, invk, state.mass))
    return [_weyl_defect(state, t, hat, t_hat, energy, x, invk) / norm for t in times]


def _weyl_defect(state: GridState, t: float, hat: np.ndarray, t_hat: np.ndarray,
                 energy: np.ndarray, x: np.ndarray, invk: np.ndarray) -> float:
    """||T e^{-itH} psi - e^{-itH} (T + t) psi|| from psi's transforms.

    The phase is built once per side rather than held while T runs, and
    the evolved state reaches T as a temporary T can drop, so the peak
    stays at a few grid vectors.
    """
    lhs = _apply_t(_contained_evolution(state, t, hat, energy, x), x, invk, state.mass)
    rhs = hat * t
    rhs += t_hat
    rhs *= _phase(energy, t)
    lhs -= np.fft.ifft(rhs)
    return math.sqrt(np.vdot(lhs, lhs).real * state.dx)


def _contained_evolution(state: GridState, t: float, hat: np.ndarray,
                         energy: np.ndarray, x: np.ndarray) -> np.ndarray:
    """e^{-itH} psi from hat = fft(psi), refused if it reaches the box edge."""
    evolved = _phase(energy, t)
    evolved *= hat
    evolved = np.fft.ifft(evolved)
    _require_contained(evolved, x, state.box_half_width)
    return evolved


def _phase(energy: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t E) from cos and sin, half the cost of a complex exp.

    Both run on contiguous arrays: buffered ufunc output into the strided
    ``.real``/``.imag`` views left the heap unable to shrink after a sweep.
    """
    angle = energy * -t
    phase = np.empty(angle.shape, dtype=complex)
    phase.imag = np.sin(angle)
    np.cos(angle, out=angle)
    phase.real = angle
    return phase


def weak_weyl_residual(state: GridState, t: float) -> float:
    """Relative norm of T e^{-itH} psi - e^{-itH} (T + t) psi at one t."""
    return weak_weyl_residuals(state, [t])[0]


def _gauss_hermite(order: int):
    """Nodes and weights for integrals against rho = exp(-lambda^2)/sqrt(pi).

    Gauss-Hermite integrates against exp(-x^2); the weights carry the
    1/sqrt(pi) normalization so that sum(w) = 1.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(int(order))
    return nodes, weights / math.sqrt(math.pi)


@dataclass(frozen=True)
class ExpCombination:
    """Finite combination sum_j c_j exp(i s_j lambda)."""

    terms: tuple[tuple[complex, float], ...]

    def __post_init__(self) -> None:
        packed = tuple((complex(c), float(s)) for c, s in self.terms)
        if not packed:
            raise ValueError("an exponential combination needs at least one term")
        object.__setattr__(self, "terms", packed)

    def evaluate(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = np.zeros(lam.shape, dtype=complex)
        for c, s in self.terms:
            out += c * np.exp(1j * s * lam)
        return out

    @property
    def max_frequency(self) -> float:
        return max(abs(s) for _, s in self.terms)


@dataclass(frozen=True)
class AffineExpCombination:
    """Finite combination sum_j (a_j + b_j lambda) exp(i s_j lambda)."""

    terms: tuple[tuple[complex, complex, float], ...]

    def __post_init__(self) -> None:
        packed = tuple((complex(a), complex(b), float(s)) for a, b, s in self.terms)
        if not packed:
            raise ValueError("an affine combination needs at least one term")
        object.__setattr__(self, "terms", packed)

    def evaluate(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = np.zeros(lam.shape, dtype=complex)
        for a, b, s in self.terms:
            out += (a + b * lam) * np.exp(1j * s * lam)
        return out

    @property
    def max_frequency(self) -> float:
        return max(abs(s) for _, _, s in self.terms)


def s0_apply(f: ExpCombination) -> AffineExpCombination:
    """Action of the model time operator on an exponential combination.

    Termwise, c exp(i s lambda) goes to (-s c - i c lambda) exp(i s lambda).
    The coefficient map encodes the log-derivative -2 lambda of the
    Gaussian reference density, the only density this class is defined on.
    """
    return AffineExpCombination(
        terms=tuple((-s * c, -1j * c, s) for c, s in f.terms)
    )


def s0_strong_relation_check(s: float, t: float):
    """Verify exp(itH) Y exp(-itH) = Y + t on the exponential exp(i s lambda).

    Both sides are reduced to affine coefficient triples through the same
    termwise machinery: the left side conjugates the frequency by -t and
    shifts it back, the right side adds t to the constant coefficient.
    Returns (exact, defect) where defect is the largest coefficient
    mismatch; exact means the triples agree bit for bit.
    """
    s = float(s)
    t = float(t)
    conjugated = s0_apply(ExpCombination(terms=((1.0 + 0.0j, s - t),)))
    # multiply by exp(i t lambda): frequencies shift, coefficients stay
    left = tuple((a, b, freq + t) for a, b, freq in conjugated.terms)
    plain = s0_apply(ExpCombination(terms=((1.0 + 0.0j, s),)))
    right = tuple((a + t, b, freq) for a, b, freq in plain.terms)
    defect = 0.0
    for (la, lb, lf), (ra, rb, rf) in zip(left, right):
        defect = max(defect, abs(la - ra), abs(lb - rb), abs(lf - rf))
    return defect == 0.0, defect


def _required_order(max_frequency: float) -> int:
    return max(QUADRATURE_ORDER_FLOOR, math.ceil(8.0 * max_frequency + 16.0))


def s0_symmetry_residual(f: ExpCombination, g: ExpCombination, order: int | None = None) -> float:
    """|(Yf, g)_rho - (f, Yg)_rho| by Gauss-Hermite quadrature.

    The integrands are entire functions times the Gaussian weight, and
    the quadrature error collapses once the order comfortably exceeds
    the oscillation scale; the floor max(64, ceil(8 smax + 16)) is
    enforced, and asking for less is an error instead of a warning.
    """
    smax = max(f.max_frequency, g.max_frequency)
    floor = _required_order(smax)
    if order is None:
        order = floor
    elif order < floor:
        raise ValueError(
            f"quadrature order {order} is below the safe floor {floor} "
            f"for maximum frequency {smax:.3g}"
        )
    nodes, weights = _gauss_hermite(order)
    yf = s0_apply(f).evaluate(nodes)
    yg = s0_apply(g).evaluate(nodes)
    fv = f.evaluate(nodes)
    gv = g.evaluate(nodes)
    left = np.sum(weights * np.conj(yf) * gv)
    right = np.sum(weights * np.conj(fv) * yg)
    return float(abs(left - right))
