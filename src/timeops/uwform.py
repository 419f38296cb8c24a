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
modulus at least 1/2.

A form over a direct sum of simple channels is a ``timeop.ChannelStack``
of kind ``FORM``: for every dimension d >= 2 one group whose channels'
evaluators iR, R real and antisymmetric, are built in one vectorized
pass and read in place by every sweep.  A channel of dimension 1 has a
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
from .timeop import ChannelStack, MatrixKind, _chunks, _Group

__all__ = [
    "FunctionKind",
    "FunctionSpec",
    "AdmissibilityReport",
    "AdmissibilityError",
    "describe_domains",
    "assemble_uwform",
    "uw_ccr_sweep",
    "uw_ccr_channel_sweep",
    "uw_ccr_check",
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


# ------------------------------------------------------------ sweep kernels
#
# A sweep checks an identity on stacks of random unit vectors in the
# commutation domain, group by group.  The vectors of a sweep are held as
# (c, k, d) arrays, one per group: c channels, k rows.  A row is one
# vector: a whole-form vector spans every group, a channel vector only
# its own channel.  Channels of dimension 1 have a trivial domain and
# hold no coefficients.


def _form_groups(form: ChannelStack, nontrivial: bool = True) -> tuple[_Group, ...]:
    if form.kind is not MatrixKind.FORM:
        raise ValueError(f"the sweeps read an ultra-weak form, not a {form.kind.value} channel stack")
    if nontrivial and not form.groups:
        raise ValueError("the commutation domain is trivial: no channel has dimension 2 or more")
    return form.groups


def _project(e: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Remove from each (c, k, d) row its component along its channel's eigenvalue row of e (c, d).

    The second pass scrubs the cancellation residue of the first.
    """
    ee = np.einsum("cd,cd->c", e, e)[:, None, None]
    w = v - np.einsum("cd,ckd->ck", e, v)[..., None] / ee * e[:, None, :]
    return w - np.einsum("cd,ckd->ck", e, w)[..., None] / ee * e[:, None, :]


def _squared_norms(v: np.ndarray) -> np.ndarray:
    """|row|^2 of each (c, k, d) row, shape (c, k)."""
    return np.einsum("ckd,ckd->ck", v.real, v.real) + np.einsum("ckd,ckd->ck", v.imag, v.imag)


def _whole_norms(pieces: list[np.ndarray]) -> np.ndarray:
    """Norm of each whole-form row, shape (k,)."""
    return np.sqrt(sum(_squared_norms(p).sum(axis=0) for p in pieces))


def _random_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)


def _whole_rows(groups: tuple[_Group, ...], v: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
    """Project the (k, n) whole-form vectors v blockwise and normalize each one.

    A row whose projection has norm <= 1e-8 is replaced by a fresh draw
    from ``rng`` until it clears that, one row at a time after the batch.
    A NaN row is kept, so the domain check refuses it.
    """
    pieces = [_project(g.eigenvalues, v[:, g.index].transpose(1, 0, 2)) for g in groups]
    norms = _whole_norms(pieces)
    for row in np.flatnonzero(norms <= 1e-8):
        while norms[row] <= 1e-8:
            fresh_row = _random_vector(rng, v.shape[1])
            fresh = [_project(g.eigenvalues, fresh_row[g.index][:, None, :]) for g in groups]
            norms[row] = _whole_norms(fresh)[0]
        for p, f in zip(pieces, fresh):
            p[:, row] = f[:, 0]
    with np.errstate(invalid="ignore"):   # a NaN row stays NaN
        units = [p / norms[:, None] for p in pieces]
    _require_domain(groups, units, [_whole_norms(units)] * len(groups))
    return units


def _channel_rows(groups: tuple[_Group, ...], v: list[np.ndarray], rngs) -> list[np.ndarray]:
    """Project each group's (c, k, d) channel vectors and normalize each one on its own.

    A vector whose projection has norm <= 1e-8 is replaced by a fresh
    draw from its block's generator in ``rngs`` until it clears that, one
    at a time after the batch.
    """
    units = []
    for g, raw in zip(groups, v):
        p = _project(g.eigenvalues, raw)
        norms = np.sqrt(_squared_norms(p))
        for c, row in zip(*np.nonzero(norms <= 1e-8)):
            while norms[c, row] <= 1e-8:
                fresh_row = _random_vector(rngs[g.blocks[c]], raw.shape[2])
                fresh = _project(g.eigenvalues[c:c + 1], fresh_row[None, None, :])
                norms[c, row] = math.sqrt(float(_squared_norms(fresh)[0, 0]))
            p[c, row] = fresh[0, 0]
        with np.errstate(invalid="ignore"):   # a NaN row stays NaN
            units.append(p / norms[..., None])
    _require_domain(groups, units, [np.sqrt(_squared_norms(u)) for u in units])
    return units


def _require_domain(groups: tuple[_Group, ...], units: list[np.ndarray], row_norms: list[np.ndarray]) -> None:
    """Refuse a vector with any channel piece off its channel's commutation domain.

    The tolerance of a piece is anchored to the norm of its whole row
    (``row_norms``, broadcast to (c, k)): a nearly annihilated piece is
    round-off, not a violation.
    """
    for g, u, whole in zip(groups, units, row_norms):
        defects = np.abs(np.einsum("cd,ckd->ck", g.eigenvalues, u))
        scale = np.linalg.norm(g.eigenvalues, axis=1)[:, None] * whole
        # written so that NaN fails
        if not np.all(defects <= CCR_DOMAIN_RTOL * np.maximum(scale, 1e-300)):
            raise ValueError(
                "vector lies outside the form's commutation domain "
                "(some block is not orthogonal to its eigenvalue vector)"
            )


def _apply(g: _Group, v: np.ndarray) -> np.ndarray:
    """Each channel's evaluator iR applied to its (c, k, d) rows.

    R is real, so one real matrix product per channel takes the real and
    imaginary parts of the rows stacked, and iR(x + iy) = -Ry + iRx.
    """
    k = v.shape[1]
    parts = np.concatenate([v.real, v.imag], axis=1) @ g.stack.transpose(0, 2, 1)
    out = np.empty(v.shape, dtype=complex)
    np.negative(parts[:, k:], out=out.real)
    out.imag = parts[:, :k]
    return out


def _ccr_terms(groups: tuple[_Group, ...], phi: list[np.ndarray], psi: list[np.ndarray]) -> list[np.ndarray]:
    """t[H phi, psi] - t[phi, H psi] + i (phi, psi) per channel and row, (c, k) per group."""
    terms = []
    for g, f, s in zip(groups, phi, psi):
        h = g.eigenvalues[:, None, :]
        a_psi, a_h_psi = np.split(_apply(g, np.concatenate([s, h * s], axis=1)), 2, axis=1)
        lhs = np.einsum("ckd,ckd->ck", (h * f).conj(), a_psi)
        rhs = np.einsum("ckd,ckd->ck", f.conj(), a_h_psi)
        terms.append(lhs - rhs + 1j * np.einsum("ckd,ckd->ck", f.conj(), s))
    return terms


def _whole_pair_residuals(groups: tuple[_Group, ...], draws: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Ultra-weak CCR residual of each pair of whole-form vectors in draws (k, 2, 2, n)."""
    phi = _whole_rows(groups, draws[:, 0, 0] + 1j * draws[:, 0, 1], rng)
    psi = _whole_rows(groups, draws[:, 1, 0] + 1j * draws[:, 1, 1], rng)
    return np.abs(sum(t.sum(axis=0) for t in _ccr_terms(groups, phi, psi)))


def uw_ccr_sweep(rng: np.random.Generator, form: ChannelStack, count: int) -> float:
    """Worst ultra-weak CCR residual over ``count`` random domain pairs of the whole form.

    |t[H phi, psi] - t[phi, H psi] + i (phi, psi)| for unit vectors phi,
    psi in the commutation domain.  Every coefficient comes from one draw
    (one per chunk of pairs, in the same order): pair by pair, phi's real
    then imaginary parts, then psi's.  The reduction is ``np.max``, so a
    NaN residual propagates instead of being skipped.
    """
    if count < 1:
        raise ValueError("need at least one pair; a sweep over none checks nothing")
    groups = _form_groups(form)
    n = form.total_dimension
    residuals = [_whole_pair_residuals(groups, rng.uniform(-1.0, 1.0, (stop - start, 2, 2, n)), rng)
                 for start, stop in _chunks(n, count)]
    return float(np.max(np.concatenate(residuals)))


def uw_ccr_channel_sweep(rngs, form: ChannelStack, count: int) -> np.ndarray:
    """Worst ultra-weak CCR residual of each channel over ``count`` random pairs of its own.

    ``rngs[i]`` draws the pairs of block i, for every block of dimension
    2 or more, in one call (one per chunk of pairs, in the same order):
    pair by pair, phi's real then imaginary parts, then psi's.  The
    channels of one dimension are then checked together.  Returns one
    value per block, 0 for blocks of dimension 1; a NaN residual
    propagates.
    """
    if count < 1:
        raise ValueError("need at least one pair; a sweep over none checks nothing")
    worst = np.zeros(len(form.eigenvalues))
    groups = _form_groups(form, nontrivial=False)
    if not groups:
        return worst
    for start, stop in _chunks(sum(g.index.size for g in groups), count):
        draws = [np.stack([rngs[i].uniform(-1.0, 1.0, (stop - start, 2, 2, g.index.shape[1])) for i in g.blocks])
                 for g in groups]
        phi = _channel_rows(groups, [x[:, :, 0, 0] + 1j * x[:, :, 0, 1] for x in draws], rngs)
        psi = _channel_rows(groups, [x[:, :, 1, 0] + 1j * x[:, :, 1, 1] for x in draws], rngs)
        for g, terms in zip(groups, _ccr_terms(groups, phi, psi)):
            # np.maximum, not np.fmax: a NaN stays
            worst[g.blocks] = np.maximum(worst[g.blocks], np.max(np.abs(terms), axis=1))
    return worst


def uw_ccr_check(form: ChannelStack, seed: int, count: int) -> tuple[np.ndarray, float]:
    """The ultra-weak CCR sweeps of the ``uwform`` pipeline: (worst per channel, worst over the whole form).

    ``count`` pairs per channel of dimension 2 or more, channel i drawing
    from a generator seeded ``seed + 20_000 + i`` (``uw_ccr_channel_sweep``,
    0 for channels of dimension 1), then ``count`` whole-form pairs from
    one seeded ``seed + 30_000`` (``uw_ccr_sweep``, which refuses a
    trivial domain).
    """
    rngs = {i: np.random.default_rng(seed + 20_000 + i) for i, ev in enumerate(form.eigenvalues) if ev.size >= 2}
    return uw_ccr_channel_sweep(rngs, form, count), uw_ccr_sweep(np.random.default_rng(seed + 30_000), form, count)


def _uncertainty_extremes(rng: np.random.Generator, groups: tuple[_Group, ...], n: int, count: int):
    """(smallest |z|, worst |Im z + 1/2|) over ``count`` checks, every number from one draw."""
    draws = rng.uniform(-1.0, 1.0, (count, 2 + 2 * n))
    spans = 2.0 * np.array([max(float(np.max(g.scale)) for g in groups),
                            max(float(np.max(np.abs(g.eigenvalues))) for g in groups)])
    a, b = spans[0] * draws[:, 0], spans[1] * draws[:, 1]
    psi = _whole_rows(groups, draws[:, 2:2 + n] + 1j * draws[:, 2 + n:], rng)
    # written so that NaN fails
    if not np.all(np.abs(_whole_norms(psi) - 1.0) <= UNIT_NORM_ATOL):
        raise ValueError("psi must be a unit vector")
    form_value = inner = 0.0
    for g, p in zip(groups, psi):
        shifted = (g.eigenvalues[:, None, :] * p - b[:, None] * p).conj()
        form_value = form_value + np.einsum("ckd,ckd->k", shifted, _apply(g, p))
        inner = inner + np.einsum("ckd,ckd->k", shifted, p)
    z = form_value - a * inner
    return np.min(np.abs(z)), np.max(np.abs(z.imag + 0.5))


def uncertainty_sweep(rng: np.random.Generator, form: ChannelStack, count: int) -> tuple[float, float]:
    """(smallest value, worst |Im + 1/2|) over ``count`` random checks.

    Each check takes a unit domain vector psi and centers a and b, drawn
    from [-2, 2] in units of the form's largest |R| entry and largest
    |E| (over channels of dimension 2 or more), so that they scale with
    the form.  It evaluates z = (t - a)[(H - b) psi, psi]: its imaginary
    part equals -1/2 identically on the domain, so |z| is bounded below
    by 1/2 for every real center pair.  Every number comes
    from one draw (one per chunk of checks, in the same order): check by
    check, a, b, then psi's real and imaginary parts.  NaN propagates
    through both reductions.
    """
    if count < 1:
        raise ValueError("need at least one sample; a sweep over none checks nothing")
    groups = _form_groups(form)
    n = form.total_dimension
    lows, defects = zip(*(_uncertainty_extremes(rng, groups, n, stop - start)
                          for start, stop in _chunks(n, count)))
    return float(np.min(lows)), float(np.max(defects))


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
