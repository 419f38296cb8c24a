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
at many times on one grid in Fourier space: the transforms of psi and
T psi take four FFTs per grid, and each time four more.  Both the k = 0
gate and the box-containment gate run on every evolved state.  The FFTs
are cache-blocked four-step transforms (``_FourStep``) that leave k-space
in a transposed order; every k-space step of the sweep is diagonal, so
the multipliers 1/k and k^2/2m are simply built in that order.  The
sweep's grid vectors are allocated once per grid, and every step, the
transforms included, writes into one of them, so a time allocates
nothing.  Packet parameters, multipliers and defects that overflow on the
grid are refused where they are formed.

Symbolic side.  On the weighted line with Gaussian reference density
rho = exp(-lambda^2)/sqrt(pi), the span of exponentials exp(i s lambda)
is mapped by the model time operator into affine combinations

    Y exp(i s lambda) = (-s - i lambda) exp(i s lambda),

held as (a, b, s) coefficient triples, so the strong relation
exp(itH) Y exp(-itH) = Y + t can be verified as an identity between
triples in exact rational arithmetic, with no quadrature at all, on a
fixed rational lattice of (s, t).  Symmetry of Y in the rho inner
product is the one statement that does need integration: on a fixed
frequency set, one Gauss-Hermite matrix K bounds the symmetry defect of
every combination of those exponentials at once.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "GridState",
    "make_packet",
    "weak_weyl_residuals",
    "ExpCombination",
    "s0_apply",
    "s0_strong_relation_check",
    "s0_symmetry_bound",
]

#: Largest tolerated relative weight of the k = 0 Fourier mode.
ZERO_MODE_MASS_LIMIT = 1e-10

#: Minimum carrier frequency in units of the packet's spectral width.
CARRIER_WIDTH_FACTOR = 4.0

#: Quadrature floor: the order for frequencies up to smax is max(64, ceil(8 smax + 16)).
QUADRATURE_ORDER_FLOOR = 64

#: The strong relation's fixed rational lattice: s and t each run over
#: 4k/3 for |k| <= 3, which holds 0, +-4 and non-dyadic thirds.
S0_LATTICE = tuple(Fraction(4 * k, 3) for k in range(-3, 4))

#: The symmetry certificate's frequencies: 33 equispaced points on [-4, 4].
S0_FREQUENCIES = tuple(k / 4 for k in range(-16, 17))


def _require_grid(box_half_width: float, size: int, mass: float) -> None:
    """Refuse a box, size or mass that gives no grid; written so that NaN fails."""
    if not 0.0 < box_half_width < math.inf:
        raise ValueError("box half-width must be finite and positive")
    if not 0.0 < mass < math.inf:
        raise ValueError("mass must be finite and positive")
    if size < 16 or (size & (size - 1)) != 0:
        raise ValueError("grid size must be a power of two, at least 16")
    if not 0.0 < 2.0 * box_half_width / size < math.inf:
        raise ValueError("grid spacing 2L/N must be finite and positive")


def _grid_points(box_half_width: float, size: int) -> np.ndarray:
    """The sample positions -L + j 2L/N, j = 0..N-1, of the periodic box [-L, L)."""
    return -box_half_width + (2.0 * box_half_width / size) * np.arange(size)


@dataclass(frozen=True)
class GridState:
    """Complex wave function sampled on the periodic box [-L, L)."""

    box_half_width: float
    size: int
    mass: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        _require_grid(self.box_half_width, self.size, self.mass)
        n = self.size
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
        return _grid_points(self.box_half_width, self.size)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.dx))


def _zero_mode_mass(hat: np.ndarray) -> float:
    """Relative weight of the k = 0 coefficient of a Fourier transform ``hat``.

    ``hat[0]`` is k = 0 in fftfreq order and in the sweep's transposed
    order alike.
    """
    total = float(np.vdot(hat, hat).real)
    if total == 0.0:
        return 0.0
    return float(np.abs(hat[0]) ** 2) / total


def _require_finite(name: str, values: np.ndarray) -> None:
    """Refuse a grid quantity that overflowed where it was formed; NaN fails too."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} overflows on this grid; rescale the packet parameters")


def make_packet(box_half_width: float, size: int, mass: float,
                center: float, carrier: float, width: float) -> GridState:
    """Normalized Gaussian packet exp(i k0 x) exp(-(x-x0)^2 / (2 sigma^2)).

    Three preconditions keep the later checks honest: the width must be
    positive, the carrier must satisfy |k0| >= 4/sigma so the momentum
    distribution (spectral width 1/sigma) stays clear of the k = 0
    singularity, and the envelope must fit the box with a six-sigma
    margin on both sides.  Parameters whose k0 x or (x - x0)^2 overflow
    on the grid, whose 2 sigma^2 underflows, or whose envelope vanishes on
    every grid point are refused as well.
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
    _require_grid(box_half_width, size, mass)
    x = _grid_points(box_half_width, size)
    # one real buffer holds k0 x, then (x - x0)^2, the envelope and |psi|^2
    work = np.empty(size)
    with np.errstate(over="ignore"):   # an overflow leaves inf, refused below
        np.multiply(carrier, x, out=work)
    _require_finite("k0 x", work)
    psi = _cis(work, np.empty(size, dtype=complex))
    with np.errstate(over="ignore"):
        np.subtract(x, center, out=work)
        np.square(work, out=work)
    _require_finite("(x - x0)^2", work)
    # max |x - x0| exceeds L > 6 sigma, so 2 sigma^2 is finite here
    if not 2.0 * width ** 2 > 0.0:
        raise ValueError("2 sigma^2 underflows to zero; the packet is too narrow for floating point")
    with np.errstate(over="ignore"):   # the envelope's far tail is exp(-inf) = 0
        np.negative(work, out=work)
        work /= 2.0 * width ** 2
    psi *= np.exp(work, out=work)
    np.abs(psi, out=work)
    work *= work
    norm = np.sqrt(np.sum(work) * (2.0 * box_half_width / size))
    if not norm > 0.0:
        raise ValueError("packet vanishes on every grid point; its width is far below the grid spacing")
    psi /= norm
    del x, work   # the state copies psi: only psi and its copy are held then
    return GridState(box_half_width, size, mass, psi)


def _require_no_zero_mode(hat: np.ndarray) -> None:
    """Refuse visible k = 0 weight, which the 1/k factors drop; NaN fails too."""
    mass0 = _zero_mode_mass(hat)
    if not mass0 < ZERO_MODE_MASS_LIMIT:
        raise ValueError(
            f"state has relative zero-mode mass {mass0:.3e}; "
            "the 1/k factors are not defined on it"
        )


def _require_contained(samples: np.ndarray, x: np.ndarray, box_half_width: float,
                       density: np.ndarray) -> None:
    """Demand that the position distribution sits well inside the box.

    A packet that wraps around the periodic boundary still has a finite
    residual, but the number stops meaning anything about the line
    problem, so it is rejected.  The moments weight x by the real
    density |e|^2, formed in the real buffer ``density``; NaN fails the
    gate.
    """
    np.abs(samples, out=density)
    density *= density
    total = density.sum()
    mean = np.dot(density, x) / total
    density *= x
    variance = np.dot(density, x) / total - mean * mean
    # round-off can leave a point mass a variance just below zero; NaN stays NaN
    spread = math.sqrt(max(variance, 0.0))
    reach = abs(mean) + 6.0 * spread
    if not reach < box_half_width:
        raise ValueError(
            "evolved packet reaches the box boundary "
            f"(|<x>| + 6 std = {reach:.3f} "
            f">= L = {box_half_width:.3f}); "
            "shorten the time or enlarge the box"
        )


#: Longest column transform of the four-step FFT: N = n1 n2 with
#: n1 = min(256, 2^floor(log2(N)/2)), so a column transform runs in cache.
FOUR_STEP_ROWS = 256


class _FourStep:
    """FFT of length N = n1 n2 in transposed k-order (Bailey's four steps).

    ``forward`` takes samples in natural position order, viewed as an
    (n1, n2) array, through length-n1 transforms down the columns, a
    twiddle multiply by w^(k1 j2) with w = exp(-2 pi i/N), and length-n2
    transforms along the rows.  That leaves X[k1 + n1 k2] at [k1, k2],
    with no transpose: the sweep's k-space steps are all diagonal, so
    its k-space arrays simply live in that order.  ``inverse`` runs the
    stages backwards, back to natural position order.

    The twiddle factors through j2 = j2a nb + j2b into an (n1, na) and an
    (n1, nb) table, not one of N entries; the tables and their conjugates
    are built once.  Each stage is one ``np.fft`` call that writes into the
    target buffer with ``out=``, so a transform costs two calls and, given
    a buffer, allocates nothing.  The target may be the input itself; a
    stage run in place reads and writes one grid instead of two.
    """

    def __init__(self, size: int) -> None:
        n1 = min(FOUR_STEP_ROWS, 1 << ((size.bit_length() - 1) // 2))
        n2 = size // n1
        nb = 1 << ((n2.bit_length() - 1) // 2)
        self.shape = (n1, n2)
        self._blocks = (n1, n2 // nb, nb)
        rows = np.arange(n1)[:, None]
        step = -2.0 * np.pi / size
        outer = _cis(step * (rows * (nb * np.arange(n2 // nb))), np.empty((n1, n2 // nb), dtype=complex))
        inner = _cis(step * (rows * np.arange(nb)), np.empty((n1, nb), dtype=complex))
        self._forward_twiddle = (outer, inner)
        self._inverse_twiddle = (outer.conj(), inner.conj())

    def forward(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Transform of ``a`` in transposed k-order, into ``out`` (a new array if None; ``a`` itself is fine)."""
        grid = np.empty(self.shape, dtype=complex) if out is None else out.reshape(self.shape)
        np.fft.fft(a.reshape(self.shape), axis=0, out=grid)
        self._twiddle(grid, *self._forward_twiddle)
        np.fft.fft(grid, axis=1, out=grid)
        return grid.reshape(-1)

    def inverse(self, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse of ``forward``: transposed k-order in, natural position order out."""
        grid = np.empty(self.shape, dtype=complex) if out is None else out.reshape(self.shape)
        np.fft.ifft(a.reshape(self.shape), axis=1, out=grid)
        self._twiddle(grid, *self._inverse_twiddle)
        np.fft.ifft(grid, axis=0, out=grid)
        return grid.reshape(-1)

    def _twiddle(self, grid: np.ndarray, outer: np.ndarray, inner: np.ndarray) -> None:
        blocks = grid.reshape(self._blocks)
        blocks *= outer[:, :, None]
        blocks *= inner[:, None, :]

    def wavenumbers(self, dx: float) -> np.ndarray:
        """2 pi fftfreq(N, dx) in transposed order, the same bits at every k."""
        n1, n2 = self.shape
        size = n1 * n2
        index = np.arange(n1)[:, None] + n1 * np.arange(n2)
        index[index >= size // 2] -= size
        k = index * (1.0 / (size * dx))
        k *= 2.0 * np.pi
        return k


def weak_weyl_residuals(state: GridState, times) -> list[float]:
    """Relative norms of T e^{-itH} psi - e^{-itH} (T + t) psi, one per t.

    With s = (m/2)/k, zero mode dropped, T psi = x . F^-1(s psi^) +
    F^-1(s F(x psi)), so psi^ and (T psi)^ take four transforms per grid;
    each t takes four more (see ``_weyl_defect``).  Every transform is a
    ``_FourStep`` one, so k-space arrays are held in its transposed
    order.  The grid buffers are made once: psi^, (T psi)^, three complex
    work vectors, and a real half-grid and full-grid scratch; each t
    writes only into them.  Raises ValueError for a non-finite time, a
    state of zero or overflowing norm, an overflowing (m/2)/k, k^2/2m or
    defect, zero-mode mass, or an evolved packet that reaches the box
    boundary.
    """
    times = [float(t) for t in times]
    if not all(math.isfinite(t) for t in times):
        raise ValueError("evolution times must be finite")
    with np.errstate(over="ignore"):   # an overflow leaves inf, refused below
        norm = state.norm()
    if not 0.0 < norm < math.inf:
        raise ValueError(f"the weak Weyl residual needs a nonzero state of finite norm, not norm {norm:.6g}")
    plan = _FourStep(state.size)
    x = state.x
    scale, energy = _multipliers(plan, state)
    hat = plan.forward(state.samples)
    t_hat, shifted, h_hat, rhs = (np.empty_like(hat) for _ in range(4))
    work = (shifted, h_hat, rhs, np.empty(energy.shape), np.empty(state.size))
    _require_no_zero_mode(hat)
    np.multiply(hat, scale, out=t_hat)
    plan.inverse(t_hat, out=t_hat)
    t_hat *= x
    plan.forward(t_hat, out=t_hat)
    np.multiply(x, state.samples, out=rhs)
    plan.forward(rhs, out=rhs)
    rhs *= scale
    t_hat += rhs
    return [_weyl_defect(state, plan, t, hat, t_hat, energy, x, scale, work) / norm for t in times]


def _multipliers(plan: _FourStep, state: GridState) -> tuple[np.ndarray, np.ndarray]:
    """s = (m/2)/k with k = 0 dropped, and E = k^2/2m on rows 0..n1/2, in transposed order."""
    k = plan.wavenumbers(state.dx)
    with np.errstate(over="ignore"):   # an overflow leaves inf, refused below
        scale = np.divide(state.mass / 2.0, k, out=np.zeros_like(k), where=k != 0.0)
        # k at [k1, k2] and [n1 - k1, n2 - 1 - k2] are negatives bit for
        # bit, so E is even and _phase mirrors the rows past n1/2
        energy = k[: plan.shape[0] // 2 + 1] ** 2 / (2.0 * state.mass)
    _require_finite("(m/2)/k", scale)
    _require_finite("k^2/2m", energy)
    return scale.reshape(-1), energy


def _weyl_defect(state: GridState, plan: _FourStep, t: float, hat: np.ndarray, t_hat: np.ndarray,
                 energy: np.ndarray, x: np.ndarray, scale: np.ndarray, work: tuple) -> float:
    """||T e^{-itH} psi - e^{-itH} (T + t) psi|| in four transforms.

    h^ = phi_t psi^ is the transform of the evolved state e and the one
    the first term of T e reads, so the defect is
    x . F^-1(s h^) + F^-1[s F(x e) - phi_t (T psi)^ - t h^].  Its norm is
    taken in position space: a Parseval or Gram expansion would cancel
    away the round-off being measured.  The phase is built once and
    spent on phi_t (T psi)^ while h^ is still whole.  ``work`` holds the
    sweep's buffers, which every step writes into: three complex grid
    vectors, then a real half-grid and full-grid scratch.
    """
    shifted, h_hat, rhs, angle, density = work
    _phase(energy, t, angle, shifted)
    np.multiply(shifted, hat, out=h_hat)
    _require_no_zero_mode(h_hat)
    shifted *= t_hat
    plan.inverse(h_hat, out=rhs)
    _require_contained(rhs, x, state.box_half_width, density)
    rhs *= x
    plan.forward(rhs, out=rhs)
    rhs *= scale
    rhs -= shifted
    np.multiply(h_hat, t, out=shifted)
    rhs -= shifted
    h_hat *= scale
    lhs = plan.inverse(h_hat, out=h_hat)
    lhs *= x
    lhs += plan.inverse(rhs, out=rhs)
    defect = math.sqrt(np.vdot(lhs, lhs).real * state.dx)
    if not defect < math.inf:
        raise ValueError("the weak Weyl defect overflows on this grid; rescale the packet parameters")
    return defect


def _phase(energy: np.ndarray, t: float, angle: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(-i t E) into ``out`` in transposed k-order, mirrored from E on rows 0..n1/2.

    Row n1 - k1 is row k1 reversed, [k1, k2] <-> [n1 - k1, n2 - 1 - k2].
    The angle -t E goes into the real buffer ``angle``, shaped like E.
    """
    half, n2 = energy.shape
    phase = out.reshape(2 * (half - 1), n2)
    _cis(np.multiply(energy, -t, out=angle), phase[:half])
    phase[half:] = phase[half - 2:0:-1, ::-1]
    return out


def _cis(angle: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(i angle) into ``out``: cos and sin written straight into its real and imaginary parts.

    The same bits as the complex exp at about half the cost; ``angle``
    is left as it was.
    """
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


@functools.lru_cache(maxsize=16)
def _gauss_hermite(order: int):
    """Nodes and weights for integrals against rho = exp(-lambda^2)/sqrt(pi).

    Gauss-Hermite integrates against exp(-x^2); the weights carry the
    1/sqrt(pi) normalization so that sum(w) = 1.  The rule is built once
    per order and shared, so both arrays are read-only.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(int(order))
    weights = weights / math.sqrt(math.pi)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class ExpCombination:
    """Finite combination sum_j c_j exp(i s_j lambda); its (c, s) terms keep their number type."""

    terms: tuple

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("an exponential combination needs at least one term")
        object.__setattr__(self, "terms", terms)


def s0_apply(f: ExpCombination) -> tuple:
    """Action of the model time operator on an exponential combination.

    Termwise, c exp(i s lambda) goes to (-s c - i c lambda) exp(i s lambda),
    returned as (a, b, s) = (-s c, -i c, s) triples of
    sum_j (a_j + b_j lambda) exp(i s_j lambda), in the terms' number type.
    The coefficient map encodes the log-derivative -2 lambda of the
    Gaussian reference density, the only density this class is defined on.
    """
    return tuple((-s * c, -1j * c, s) for c, s in f.terms)


def s0_strong_relation_check(s, t) -> bool:
    """Verify exp(itH) Y exp(-itH) = Y + t on the exponential exp(i s lambda).

    s and t are read as ``Fraction``s (a float converts exactly), and
    both sides are reduced to coefficient triples by ``s0_apply``: the
    left side conjugates the frequency by -t and shifts it back, the
    right side adds t to the constant coefficient.  True when the
    triples are equal, which exact arithmetic decides without rounding.
    """
    s, t = Fraction(s), Fraction(t)
    ((la, lb, lf),) = s0_apply(ExpCombination(((Fraction(1), s - t),)))
    ((ra, rb, rf),) = s0_apply(ExpCombination(((Fraction(1), s),)))
    # multiplying by exp(i t lambda) shifts the frequency and keeps the coefficients
    return (la, lb, lf + t) == (ra + t, rb, rf)


def _required_order(max_frequency: float) -> int:
    return max(QUADRATURE_ORDER_FLOOR, math.ceil(8.0 * max_frequency + 16.0))


def _s0_symmetry_matrix(freqs: np.ndarray) -> np.ndarray:
    """K = (YE)^H W E - E^H W (YE) on the frequencies ``freqs``, by Gauss-Hermite quadrature.

    E holds exp(i s_k lambda) at the nodes, one column per frequency; YE
    holds the image of each column, read from the triples of ``s0_apply``;
    W is the diagonal of weights.  For f = sum c_k exp(i s_k lambda) and
    g = sum d_k exp(i s_k lambda), (Yf, g)_rho - (f, Yg)_rho = c^H K d.
    The second product of K is the conjugate transpose of the first.
    """
    nodes, weights = _gauss_hermite(_required_order(float(np.max(np.abs(freqs)))))
    a, b, s = (np.array(part) for part in zip(*s0_apply(ExpCombination(tuple((1.0, freq) for freq in freqs)))))
    image = (a + np.multiply.outer(nodes, b)) * np.exp(1j * np.multiply.outer(nodes, s))
    weighted = weights[:, None] * np.exp(1j * np.multiply.outer(nodes, freqs))
    gram = image.conj().T @ weighted
    return gram - gram.conj().T


def s0_symmetry_bound(freqs) -> float:
    """||K||_F of ``_s0_symmetry_matrix``: the symmetry certificate of Y on a frequency set.

    |(Yf, g)_rho - (f, Yg)_rho| <= ||K||_F ||c|| ||d|| for every pair of
    combinations on ``freqs`` with coefficient vectors c and d.  The
    exact K is 0, since Y is symmetric on L^2(rho); the computed one holds
    the quadrature error and round-off, and a NaN entry makes the bound NaN.
    """
    return float(np.linalg.norm(_s0_symmetry_matrix(np.asarray(freqs, dtype=float))))
