"""Ultra-weak time forms, the uncertainty identity, and spectrum transforms.

When a spectrum accumulates at zero the time-operator matrix of a channel
has no dense-domain conjugate Hamiltonian, but the pairing survives as a
sesquilinear form.  With S = iA the inverse-conjugate matrix and
D = diag(1/E^2) the form is

    t[phi, psi] = phi^H (iR) psi,    iR = -(S D + D S) / 2,

Hermitian by construction.  On the domain of vectors whose coefficients
are orthogonal to the eigenvalue vector (per channel) it obeys the
ultra-weak commutation identity

    t[H phi, psi] - t[phi, H psi] = -i (phi, psi)

exactly, and drags the time-energy uncertainty bound along with it: for a
unit vector in that domain the quantity (t - a)[(H - b) psi, psi] has
imaginary part exactly -1/2 for every choice of real centers a, b, hence
modulus at least 1/2.  Both identities are certified, not sampled: the
defect is linear in one matrix per channel, and ``uw_ccr_bounds`` bounds
it by that matrix's norm, for every pair of unit domain vectors at once.

A form over a direct sum of simple channels is a ``timeop.ChannelStack``
of kind ``FORM``: for every dimension d >= 2 one group of channels, kept
as their eigenvalues.  The certificate builds their evaluators iR, R
real and antisymmetric, one chunk of whole matrices at a time, and drops
each chunk once its bounds are taken.  A channel of dimension 1 has a
trivial domain and no evaluator.

The second half of the module transports the construction along functions
of the Hamiltonian.  A shifted symbol f~(x) = f(x) - f(0) applied to the
spectrum yields a new eigenvalue multiset; when the shifted values are
nonzero and the accumulation at zero survives, the transformed form is
built by the same channel machinery.  Admissibility is checked before any
matrix is touched, with witnesses naming the offending eigenvalues.

Inner products are antilinear in the first slot throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .decompose import channel_partition, decompose_spectrum
from .spectra import Accumulation, DiscreteSpectrum
from .timeop import ChannelStack, MatrixKind, _chunks, _entries

__all__ = [
    "FunctionKind",
    "FunctionSpec",
    "AdmissibilityReport",
    "AdmissibilityError",
    "describe_domains",
    "assemble_uwform",
    "uw_ccr_bounds",
    "f_condition_check",
    "f_transform_form",
]

#: Sin-resonance detector: 2*beta*E within this of a nonzero integer fails.
SIN_RESONANCE_ATOL = 1e-9


def describe_domains(form: ChannelStack) -> list[dict]:
    """Per-channel summary of sizes and eigenvalue ranges."""
    return [
        {
            "channel_id": i,
            "dimension": ev.size,
            "eigenvalue_min": float(ev[0]),
            "eigenvalue_max": float(ev[-1]),
        }
        for i, ev in enumerate(form.eigenvalues)
    ]


def assemble_uwform(s: DiscreteSpectrum, p: float = 2.0):
    """Decompose a zero-accumulating spectrum into an ultra-weak form.

    Returns (decomposition, form): a ``ChannelStack`` of kind ``FORM``
    with one channel per decomposition channel, eigenvalues sorted
    ascending within each.
    """
    if s.accumulation is not Accumulation.TO_ZERO:
        raise ValueError("ultra-weak forms are built over spectra accumulating at zero")
    deco = decompose_spectrum(s, p)
    return deco, ChannelStack.of_decomposition(deco, MatrixKind.FORM)


# ------------------------------------------------------------ certificate
#
# The ultra-weak CCR is linear in a matrix each channel already holds.
# With H = diag(E) and the form t[phi, psi] = phi^H (iR) psi,
#
#     t[H phi, psi] - t[phi, H psi] + i (phi, psi) = i phi^H M psi,
#     M = HR - RH + I,   M_nm = (E_n - E_m) R_nm + delta_nm,
#
# M real symmetric.  The channel's domain is the orthogonal complement of
# its eigenvalue row e, with projector P = I - e e^T / |e|^2, so for unit
# phi and psi there |phi^H M psi| <= |PMP|_2 <= |PMP|_F: one norm covers
# every pair of unit domain vectors of the channel at once.


def uw_ccr_bounds(form: ChannelStack) -> np.ndarray:
    """Certified ultra-weak CCR residual of each channel: |PMP|_F, 0 for channels of dimension 1.

    A pair of unit whole-form domain vectors is bounded by the largest
    value, by Cauchy-Schwarz over the blocks; the uncertainty identity is
    the phi = psi case, so |Im z + 1/2| is at most half of it.  R is built
    by ``_entries``, SWEEP_CHUNK entries of a group at a time, and turned
    into PMP entry by entry, never expanded as |M|^2 - 2|Me|^2/|e|^2 + ...:
    the entries of M reach the ratio of the channel's extreme eigenvalues,
    and that expansion cancels to noise.  A NaN entry gives a NaN bound.
    """
    if form.kind is not MatrixKind.FORM:
        raise ValueError(f"the certificate reads an ultra-weak form, not a {form.kind.value} channel stack")
    bounds = np.zeros(len(form.eigenvalues))
    for g in form.groups:
        c, d = g.eigenvalues.shape
        for start, stop in _chunks(d * d, c):
            e = g.eigenvalues[start:stop]
            u = e / np.max(np.abs(e), axis=1, keepdims=True)   # |e|^2 itself may overflow
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            m = _entries(e, 0, d, MatrixKind.FORM)
            m *= e[:, :, None] - e[:, None, :]
            m.reshape(-1, d * d)[:, ::d + 1] += 1.0
            m -= (m @ u[:, :, None]) * u[:, None, :]      # M P
            m -= u[:, :, None] * (u[:, None, :] @ m)      # P M P
            bounds[g.blocks[start:stop]] = np.linalg.norm(m, axis=(1, 2))
    return bounds


class FunctionKind(str, Enum):
    EXP = "exp"
    POLYNOMIAL = "poly"
    SIN = "sin"


@dataclass(frozen=True)
class FunctionSpec:
    """Symbol f applied to the Hamiltonian.

    ``EXP`` with parameter beta is f(x) = exp(-beta x); ``SIN`` with beta
    is f(x) = sin(2 pi beta x); ``POLYNOMIAL`` takes coefficients
    (a_0, ..., a_N) in ascending degree.  The transform always uses the
    shifted symbol f~(x) = f(x) - f(0).
    """

    kind: FunctionKind
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        kind = FunctionKind(self.kind)
        params = tuple(float(x) for x in self.params)
        if not all(np.isfinite(params)):
            raise ValueError(f"{kind.value} parameters must be finite")
        if kind in (FunctionKind.EXP, FunctionKind.SIN):
            if len(params) != 1:
                raise ValueError(f"{kind.value} takes exactly one parameter")
            if params[0] == 0.0:
                raise ValueError(f"{kind.value} parameter must be nonzero")
        else:
            if not params:
                raise ValueError("polynomial needs at least one coefficient")
            if len(params) > 1 and params[-1] == 0.0:
                raise ValueError("polynomial leading coefficient must be nonzero")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind is FunctionKind.EXP:
            return np.exp(-self.params[0] * x)
        if self.kind is FunctionKind.SIN:
            return np.sin(2.0 * np.pi * self.params[0] * x)
        out = np.zeros_like(x)
        for coeff in reversed(self.params):
            out = out * x + coeff
        return out

    def shifted(self, x):
        """f~(x) = f(x) - f(0)."""
        return self.evaluate(x) - self.evaluate(0.0)

    @classmethod
    def from_json(cls, payload: dict) -> "FunctionSpec":
        return cls(kind=FunctionKind(payload["kind"]), params=tuple(payload["params"]))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the transform precondition checks.

    ``witnesses`` lists human-readable records of each violation; for the
    sine symbol these name the resonant eigenvalue index (1-based, in
    spectrum order) and the integer it collides with.
    """

    admissible: bool
    witnesses: tuple[dict, ...]
    shifted_values: tuple[float, ...]
    details: dict


class AdmissibilityError(ValueError):
    """Raised when a transform is attempted with a failing precondition."""

    def __init__(self, report: AdmissibilityReport) -> None:
        self.report = report
        heads = ", ".join(w.get("reason", "violation") for w in report.witnesses[:3])
        super().__init__(f"function fails the transform precondition ({heads})")


def f_condition_check(f: FunctionSpec, s: DiscreteSpectrum) -> AdmissibilityReport:
    """Decide whether f transports the spectrum into a usable form.

    The shifted values f~(E_n) must all be nonzero (no eigenvalue may be
    sent to the accumulation point).  For the sine symbol that is a
    resonance condition: 2 beta E_n must avoid the nonzero integers,
    checked here within SIN_RESONANCE_ATOL.  For polynomials the derived
    condition is that g(x) = sum_{j>=1} a_j x^{j-1} has no zero on the
    closed positive half-line, probed conservatively by a sign scan plus
    the real nonnegative roots of g.  A shifted value that overflows is
    not a witness but an input error: ValueError names its eigenvalue index.
    """
    if s.accumulation is not Accumulation.TO_ZERO:
        raise ValueError("transforms are defined over spectra accumulating at zero")
    ev = s.values
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = np.asarray(f.shifted(ev), dtype=float)
    overflowed = np.flatnonzero(~np.isfinite(shifted))
    if overflowed.size:
        n = int(overflowed[0]) + 1
        raise ValueError(
            f"the shifted function overflows to {shifted[n - 1]} at eigenvalue index {n} "
            f"(eigenvalue {float(ev[n - 1])!r}); no form can be built from non-finite values"
        )
    scale = float(np.max(np.abs(shifted))) if shifted.size else 0.0
    zero_tol = 1e-12 * max(scale, 1e-300)
    witnesses: list[dict] = []

    if f.kind is FunctionKind.SIN:
        beta = f.params[0]
        r = 2.0 * beta * ev
        nearest = np.round(r)
        for n, (rn, kn) in enumerate(zip(r, nearest), start=1):
            if kn != 0.0 and abs(rn - kn) <= SIN_RESONANCE_ATOL:
                witnesses.append({
                    "reason": "sine resonance",
                    "eigenvalue_index": n,
                    "eigenvalue": float(ev[n - 1]),
                    "integer": int(kn),
                })
        k_max = int(math.ceil(2.0 * abs(beta) * float(np.max(np.abs(ev))))) + 1
        details = {"scanned_integer_range": k_max}
    elif f.kind is FunctionKind.POLYNOMIAL:
        g = np.asarray(f.params[1:], dtype=float)
        details = {}
        if g.size == 0 or not np.any(g):
            witnesses.append({"reason": "polynomial has no nonconstant part"})
        else:
            grid = np.linspace(0.0, 10.0 * float(np.max(np.abs(ev))), 1000)
            gvals = np.zeros_like(grid)
            with np.errstate(over="ignore", invalid="ignore"):
                for coeff in reversed(g):
                    gvals = gvals * grid + coeff
            if not np.all(np.isfinite(gvals)):
                raise ValueError("the derivative factor of the polynomial overflows on the sign-scan "
                                 f"grid [0, {float(grid[-1])!r}]; no form can be built from non-finite values")
            if np.any(gvals == 0.0) or np.any(np.sign(gvals[:-1]) != np.sign(gvals[1:])):
                witnesses.append({"reason": "derivative factor changes sign on [0, inf)"})
            elif g.size > 1:
                roots = np.roots(g[::-1])
                for root in roots:
                    if abs(root.imag) <= 1e-9 * (1.0 + abs(root.real)) and root.real >= -1e-12:
                        witnesses.append({
                            "reason": "derivative factor has a nonnegative real root",
                            "root": float(root.real),
                        })
    else:
        details = {}

    for n, value in enumerate(shifted, start=1):
        if abs(value) <= zero_tol:
            witnesses.append({
                "reason": "eigenvalue maps to the accumulation point",
                "eigenvalue_index": n,
                "eigenvalue": float(ev[n - 1]),
            })

    return AdmissibilityReport(
        admissible=not witnesses,
        witnesses=tuple(witnesses),
        shifted_values=tuple(float(v) for v in shifted),
        details=details,
    )


def f_transform_form(f: FunctionSpec, s: DiscreteSpectrum, p: float = 2.0):
    """Ultra-weak form of f~(H) over a zero-accumulating spectrum.

    Checks admissibility first (raising AdmissibilityError with the full
    report on failure), merges shifted values that coincide within 1e-12
    times the largest |shifted value| by adding their multiplicities,
    partitions the resulting value set, and assembles the channel forms.

    Returns (report, ChannelDecomposition, ChannelStack).
    """
    report = f_condition_check(f, s)
    if not report.admissible:
        raise AdmissibilityError(report)

    shifted = np.asarray(report.shifted_values, dtype=float)
    mults = s.multiplicities
    scale = float(np.max(np.abs(shifted)))
    merge_tol = 1e-12 * scale

    order = np.argsort(shifted)
    merged_values: list[float] = []
    merged_mults: list[int] = []
    for idx in order:
        value = float(shifted[idx])
        mult = int(mults[idx])
        if merged_values and value - merged_values[-1] <= merge_tol:
            merged_mults[-1] += mult
        else:
            merged_values.append(value)
            merged_mults.append(mult)

    deco = channel_partition(merged_values, merged_mults, p)
    return report, deco, ChannelStack.of_decomposition(deco, MatrixKind.FORM)
