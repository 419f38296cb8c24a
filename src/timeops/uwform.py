"""Ultra-weak time forms, the uncertainty identity, and spectrum transforms.

When a spectrum accumulates at zero the time-operator matrix of a channel
has no dense-domain conjugate Hamiltonian, but the pairing survives as a
sesquilinear form.  With S the inverse-conjugate matrix and D = diag(1/E^2)
the form is

    t[phi, psi] = phi^H A psi,    A = -(S D + D S) / 2,

Hermitian by construction.  On the domain of vectors whose coefficients
are orthogonal to the eigenvalue vector (per channel) it obeys the
ultra-weak commutation identity

    t[H phi, psi] - t[phi, H psi] = -i (phi, psi)

exactly, and drags the time-energy uncertainty bound along with it: for a
unit vector in that domain the quantity (t - a)[(H - b) psi, psi] has
imaginary part exactly -1/2 for every choice of real centers a, b, hence
modulus at least 1/2.

The second half of the module transports the construction along functions
of the Hamiltonian.  A shifted symbol f~(x) = f(x) - f(0) applied to the
spectrum yields a new eigenvalue multiset; when the shifted values are
nonzero and the accumulation at zero survives, the transformed form is
built by the same channel machinery.  Admissibility is checked before any
matrix is touched, with witnesses naming the offending eigenvalues.

Inner products are antilinear in the first slot throughout (np.vdot).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .decompose import ChannelDecomposition, channel_partition, decompose_spectrum
from .spectra import Accumulation, DiscreteSpectrum
from .timeop import BlockDiagonal, MatrixKind, galapon_matrix

__all__ = [
    "FormChannel",
    "UncertaintyResult",
    "FunctionKind",
    "FunctionSpec",
    "AdmissibilityReport",
    "AdmissibilityError",
    "evaluate_form",
    "in_ccr_domain",
    "require_ccr_domain",
    "project_to_ccr_domain",
    "describe_domains",
    "assemble_uwform",
    "random_domain_vector",
    "uw_ccr_residual",
    "uw_ccr_sweep",
    "uncertainty_check",
    "uncertainty_sweep",
    "f_condition_check",
    "f_transform_form",
]

#: Per-block membership tolerance for the form's commutation domain.
CCR_DOMAIN_RTOL = 1e-10

#: Unit-vector tolerance for the uncertainty check.
UNIT_NORM_ATOL = 1e-12

#: Sin-resonance detector: 2*beta*E within this of a nonzero integer fails.
SIN_RESONANCE_ATOL = 1e-9


class FormChannel:
    """One simple channel of an ultra-weak form.

    Holds the channel eigenvalues (strictly increasing, nonzero) and the
    evaluator A = -(S D + D S)/2, with S the inverse-conjugate matrix and
    D = diag(1/E^2).  The two D-products are applied by row and column
    scaling, which keeps A Hermitian to the last bit: the (n, m) and
    (m, n) entries are built from the same float products.  A form is a
    ``BlockDiagonal`` of these channels.
    """

    def __init__(self, eigenvalues) -> None:
        ev = np.asarray(eigenvalues, dtype=float)
        if ev.ndim != 1 or ev.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d array")
        if np.any(ev == 0.0):
            raise ValueError("form channels require nonzero eigenvalues")
        if np.any(np.diff(ev) <= 0.0):
            raise ValueError("eigenvalues must be strictly increasing")
        self.eigenvalues = ev.copy()
        self.eigenvalues.flags.writeable = False
        self.dimension = int(ev.size)
        s = galapon_matrix(ev, MatrixKind.INVERSE_CONJUGATE).data
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            d = 1.0 / (ev * ev)
            a = -0.5 * (s * d[None, :] + d[:, None] * s)
        if not np.all(np.isfinite(a)):
            raise ValueError("form evaluator is not finite: 1/E^2 overflows for these eigenvalues")
        a.flags.writeable = False
        self.evaluator = a

    @property
    def pairing_eigenvalues(self) -> np.ndarray:
        """The form pairs with H = diag(E) itself."""
        return self.eigenvalues

    def domain_defect(self, v: np.ndarray) -> float:
        """|sum E_n v_n|, the distance of v from the commutation domain."""
        return abs(complex(np.dot(self.eigenvalues, v)))

    def project_to_ccr_domain(self, v: np.ndarray) -> np.ndarray:
        if self.dimension == 1:
            # the constraint kills everything; avoid leaving round-off dust
            return np.zeros_like(v)
        e = self.eigenvalues
        w = v - (np.dot(e, v) / np.dot(e, e)) * e
        # second pass scrubs the cancellation residue of the first
        return w - (np.dot(e, w) / np.dot(e, e)) * e


def evaluate_form(form: BlockDiagonal, phi, psi) -> complex:
    """t[phi, psi], antilinear in phi, summed block by block."""
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    total = 0.0 + 0.0j
    for ch, phi_i, psi_i in zip(form.blocks, form.pieces(phi), form.pieces(psi)):
        total += np.vdot(phi_i, ch.evaluator @ psi_i)
    return complex(total)


def in_ccr_domain(form: BlockDiagonal, v) -> bool:
    """Whether every block piece of v is orthogonal to its eigenvalue vector."""
    vec = np.asarray(v, dtype=complex)
    pieces = form.pieces(vec)
    # the block tolerance is anchored to the norm of the whole vector:
    # a nearly annihilated block piece is round-off, not a violation
    whole = float(np.linalg.norm(vec))
    for ch, piece in zip(form.blocks, pieces):
        scale = float(np.linalg.norm(ch.eigenvalues)) * whole
        # written so that NaN fails
        if not ch.domain_defect(piece) <= CCR_DOMAIN_RTOL * max(scale, 1e-300):
            return False
    return True


def require_ccr_domain(form: BlockDiagonal, v) -> None:
    if not in_ccr_domain(form, v):
        raise ValueError(
            "vector lies outside the form's commutation domain "
            "(some block is not orthogonal to its eigenvalue vector)"
        )


def project_to_ccr_domain(form: BlockDiagonal, v) -> np.ndarray:
    """Project v onto the commutation domain, block by block."""
    pieces = form.pieces(np.asarray(v, dtype=complex))
    return np.concatenate([ch.project_to_ccr_domain(p) for ch, p in zip(form.blocks, pieces)])


def describe_domains(form: BlockDiagonal) -> list[dict]:
    """Per-channel summary of sizes and eigenvalue ranges."""
    return [
        {
            "channel_id": i,
            "dimension": ch.dimension,
            "eigenvalue_min": float(ch.eigenvalues[0]),
            "eigenvalue_max": float(ch.eigenvalues[-1]),
        }
        for i, ch in enumerate(form.blocks)
    ]


def assemble_uwform(s: DiscreteSpectrum, p: float = 2.0):
    """Decompose a zero-accumulating spectrum into an ultra-weak form.

    Returns (decomposition, BlockDiagonal) with one form channel per
    decomposition channel, eigenvalues sorted ascending within each.
    """
    if s.accumulation is not Accumulation.TO_ZERO:
        raise ValueError("ultra-weak forms are built over spectra accumulating at zero")
    deco = decompose_spectrum(s, p)
    return deco, _form_of(deco)


def _form_of(deco: ChannelDecomposition) -> BlockDiagonal:
    """One form channel per decomposition channel, eigenvalues ascending."""
    return BlockDiagonal(tuple(
        FormChannel(np.sort(deco.channel_values(i))) for i in range(deco.channel_count)
    ))


def random_domain_vector(rng: np.random.Generator, form: BlockDiagonal) -> np.ndarray:
    """Seeded random unit vector in the form's commutation domain.

    Uniform complex coefficients projected blockwise and normalized;
    a near-zero projection is redrawn.  A form whose channels all have
    dimension 1 has a trivial domain and is rejected.
    """
    if all(ch.dimension < 2 for ch in form.blocks):
        raise ValueError("the commutation domain is trivial: no channel has dimension 2 or more")
    dim = form.total_dimension
    while True:
        v = rng.uniform(-1.0, 1.0, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
        v = project_to_ccr_domain(form, v)
        norm = float(np.linalg.norm(v))
        if norm > 1e-8:
            return v / norm


def uw_ccr_residual(form: BlockDiagonal, phi, psi) -> float:
    """|t[H phi, psi] - t[phi, H psi] + i (phi, psi)| on the form domain."""
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    require_ccr_domain(form, phi)
    require_ccr_domain(form, psi)
    h = form.hamiltonian_diagonal()
    lhs = evaluate_form(form, h * phi, psi)
    rhs = evaluate_form(form, phi, h * psi)
    return abs(lhs - rhs + 1j * np.vdot(phi, psi))


def uw_ccr_sweep(rng: np.random.Generator, forms) -> float:
    """Worst ultra-weak CCR residual over one random domain pair per form.

    Draws phi, then psi, for each form in order.  The reduction is
    ``np.max``, so a NaN residual propagates instead of being skipped.
    """
    residuals = [uw_ccr_residual(f, random_domain_vector(rng, f), random_domain_vector(rng, f)) for f in forms]
    if not residuals:
        raise ValueError("need at least one form; a sweep over no pairs checks nothing")
    return float(np.max(residuals))


@dataclass(frozen=True)
class UncertaintyResult:
    value: float
    imaginary_part: float


def uncertainty_check(form: BlockDiagonal, psi, a: float = 0.0, b: float = 0.0) -> UncertaintyResult:
    """Evaluate (t - a)[(H - b) psi, psi] for a unit domain vector psi.

    The imaginary part equals -1/2 identically on the domain, so the
    modulus is bounded below by 1/2 for every real center pair (a, b).
    The caller gates both facts against its own tolerances.
    """
    psi = np.asarray(psi, dtype=complex)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > UNIT_NORM_ATOL:
        raise ValueError("psi must be a unit vector")
    require_ccr_domain(form, psi)
    a = float(a)
    b = float(b)
    shifted = form.hamiltonian_diagonal() * psi - b * psi
    z = evaluate_form(form, shifted, psi) - a * np.vdot(shifted, psi)
    z = complex(z)
    return UncertaintyResult(value=abs(z), imaginary_part=z.imag)


def uncertainty_sweep(rng: np.random.Generator, form: BlockDiagonal, count: int) -> tuple[float, float]:
    """(smallest value, worst |Im + 1/2|) over ``count`` random checks.

    Each check draws centers a and b from [-2, 2], then a unit domain
    vector psi.  NaN propagates through both reductions.
    """
    if count < 1:
        raise ValueError("need at least one sample; a sweep over none checks nothing")
    results = []
    for _ in range(count):
        a, b = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0))
        results.append(uncertainty_check(form, random_domain_vector(rng, form), a, b))
    defects = [abs(r.imaginary_part + 0.5) for r in results]
    return float(np.min([r.value for r in results])), float(np.max(defects))


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

    def to_json(self) -> dict:
        return {"kind": self.kind.value, "params": list(self.params)}

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
    distinct_count: int
    details: dict

    def to_json(self) -> dict:
        return {
            "admissible": self.admissible,
            "witnesses": [dict(w) for w in self.witnesses],
            "shifted_values": list(self.shifted_values),
            "distinct_count": self.distinct_count,
            "details": dict(self.details),
        }


class AdmissibilityError(ValueError):
    """Raised when a transform is attempted with a failing precondition."""

    def __init__(self, report: AdmissibilityReport) -> None:
        self.report = report
        heads = ", ".join(w.get("reason", "violation") for w in report.witnesses[:3])
        super().__init__(f"function fails the transform precondition ({heads})")


def _census(values: np.ndarray, tol: float) -> int:
    """Count of distinct values under an absolute merge tolerance."""
    ordered = np.sort(values)
    if ordered.size == 0:
        return 0
    return 1 + int(np.count_nonzero(np.diff(ordered) > tol))


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
        distinct_count=_census(shifted, 1e-12 * max(scale, 1e-300)),
        details=details,
    )


def f_transform_form(f: FunctionSpec, s: DiscreteSpectrum, p: float = 2.0):
    """Ultra-weak form of f~(H) over a zero-accumulating spectrum.

    Checks admissibility first (raising AdmissibilityError with the full
    report on failure), merges shifted values that coincide within the
    census tolerance by adding their multiplicities, partitions the
    resulting value set, and assembles the channel forms.

    Returns (report, ChannelDecomposition, BlockDiagonal).
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
    return report, deco, _form_of(deco)
