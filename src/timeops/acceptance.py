"""Acceptance suite: the toolkit's promises, measured.

Each criterion function runs one end-to-end check with frozen inputs and
explicit tolerances and returns (passed, details), the details carrying
the measured numbers, so a failure report says what was observed, not
just that something went wrong.  A criterion measures its identity with
the same kernel the CLI pipeline for that identity calls, and adds only
its own extra assertions.  The CLI selftest and the test suite both drive
``run_all``; neither owns a private copy of the thresholds.

``run_all`` times every criterion and records the wall-clock limit
alongside the numeric outcome, but keeps it out of the pass/fail verdict
for the numbers themselves: ``passed`` reflects arithmetic,
``runtime_ok`` reflects the machine.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .contspec import ExpCombination, make_packet, s0_strong_relation_check, s0_symmetry_residual, weak_weyl_residuals
from .decompose import channel_partition, verify_decomposition
from .spectra import harmonic_spectrum, hydrogen_point_spectrum, rabi_check, rabi_hamiltonian
from .timeop import (
    ChannelStack,
    MatrixKind,
    assemble_time_operator,
    ccr_residuals,
    osc_timeop_extremes,
    oscillator_bound_rows,
)
from .uwform import (
    FunctionKind,
    FunctionSpec,
    assemble_uwform,
    f_condition_check,
    f_transform_form,
    uncertainty_sweep,
    uw_ccr_check,
)

__all__ = ["CriterionResult", "DEFAULT_TOLERANCES", "resolve_tolerances", "run_all"]

#: Every threshold used anywhere in the suite, by name.  Reports echo the
#: values they actually used; overriding one here (or per run) moves the
#: goalposts everywhere at once.  ``resolve_tolerances`` is the one place
#: that applies and checks overrides.
DEFAULT_TOLERANCES = {
    "ccr_relative": 1e-12,
    "uw_ccr": 1e-10,
    "uncertainty_slack": 1e-10,
    "im_identity": 1e-10,
    "toeplitz_bound_slack": 1e-9,
    "rabi_stability": 1e-8,
    "grid_residual": 1e-6,
    "s0_symmetry": 1e-9,
    "scaling_entrywise": 1e-13,
}


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    details: dict
    runtime: float
    runtime_limit: float

    @property
    def runtime_ok(self) -> bool:
        return self.runtime < self.runtime_limit

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": dict(self.details)}


def resolve_tolerances(overrides: dict | None = None) -> dict:
    """DEFAULT_TOLERANCES with ``overrides`` applied, every name and value checked.

    A value must be a finite, nonnegative real number (not a bool): an
    infinite tolerance would switch its check off, and the comparison is
    written so that NaN fails it too.
    """
    out = dict(DEFAULT_TOLERANCES)
    for name, value in (overrides or {}).items():
        if name not in out:
            raise ValueError(f"unknown tolerance {name!r}")
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"tolerance {name!r} must be a number, not {type(value).__name__}")
        if not 0.0 <= value < math.inf:
            raise ValueError(f"tolerance {name!r} must be finite and nonnegative, not {value!r}")
        out[name] = float(value)
    return out


def _difference_stack(dimension: int) -> np.ndarray:
    """Every e_k - e_l with k < l, one per row, in row-major pair order."""
    k, l = np.triu_indices(dimension, 1)
    stack = np.zeros((k.size, dimension), dtype=complex)
    rows = np.arange(k.size)
    stack[rows, k] = 1.0
    stack[rows, l] = -1.0
    return stack


def criterion_exact_ccr(tol: dict, seed: int) -> tuple[bool, dict]:
    """Exact commutation on difference spans, hydrogen and oscillator.

    Every difference e_k - e_l of every block of dimension >= 2 is checked:
    one stack of them per dimension, shared by the channels of its group.
    """
    hyd = hydrogen_point_spectrum(1.0, 1.0, 4)
    deco, hyd_op = assemble_time_operator(hyd)
    structure_ok = (hyd.total_states == 30 and deco.channel_count == 16)

    osc = harmonic_spectrum([1.0], 50)
    deco_osc, osc_op = assemble_time_operator(osc)

    worst_ratio = 0.0
    worst_abs = 0.0
    pairs_total = 0
    ok = structure_ok
    for op in (hyd_op, osc_op):
        for g in op.groups:
            c, d = g.eigenvalues.shape
            stack = _difference_stack(d)
            worst = ccr_residuals(g, op.kind, np.broadcast_to(stack, (c, *stack.shape)))
            pairs_total += c * len(stack)
            allowed = tol["ccr_relative"] * g.scale
            ok = ok and bool(np.all(worst <= allowed))
            worst_abs = max(worst_abs, float(np.max(worst)))
            ratio = np.divide(worst, allowed, out=np.zeros_like(worst), where=allowed > 0.0)
            worst_ratio = max(worst_ratio, float(np.max(ratio)))
    return ok, {
        "hydrogen_states": hyd.total_states,
        "hydrogen_channels": deco.channel_count,
        "oscillator_channels": deco_osc.channel_count,
        "difference_pairs_checked": pairs_total,
        "worst_residual": worst_abs,
        "worst_residual_over_allowed": worst_ratio,
        "tolerance_ccr_relative": tol["ccr_relative"],
    }


def criterion_ultraweak_ccr(tol: dict, seed: int) -> tuple[bool, dict]:
    """Ultra-weak CCR on hydrogen channels and their direct sum, by the ``uwform`` pipeline's sweeps."""
    hyd = hydrogen_point_spectrum(1.0, 1.0, 4)
    _, form = assemble_uwform(hyd)
    pairs = 100
    per_channel, whole = uw_ccr_check(form, seed + 2000, pairs)
    worst = float(np.max([*per_channel, whole]))
    ok = worst <= tol["uw_ccr"]
    return ok, {
        "pairs_checked": pairs * (sum(g.blocks.size for g in form.groups) + 1),
        "max_uw_ccr_residual": worst,
        "tolerance_uw_ccr": tol["uw_ccr"],
    }


def criterion_uncertainty(tol: dict, seed: int) -> tuple[bool, dict]:
    """Time-energy uncertainty identity and bound on the hydrogen form."""
    hyd = hydrogen_point_spectrum(1.0, 1.0, 4)
    _, form = assemble_uwform(hyd)
    rng = np.random.default_rng(seed + 3000)
    min_value, worst_im = uncertainty_sweep(rng, form, 100)
    ok = (min_value >= 0.5 - tol["uncertainty_slack"]) and (worst_im <= tol["im_identity"])
    return ok, {
        "samples": 100,
        "min_uncertainty_value": min_value,
        "im_identity_defect": worst_im,
        "tolerance_uncertainty_slack": tol["uncertainty_slack"],
        "tolerance_im_identity": tol["im_identity"],
    }


def criterion_oscillator_bound(tol: dict, seed: int) -> tuple[bool, dict]:
    """Truncated oscillator time-operator spectra stay inside (-pi, pi).

    The ``oscspec`` verdict at omega = 1, plus lambda_max(800) >= 3.
    """
    sizes = (100, 200, 400, 800)
    slack = tol["toeplitz_bound_slack"]
    extremes = [osc_timeop_extremes(1.0, n) for n in sizes]
    rows, monotone = oscillator_bound_rows(sizes, extremes, 1.0, slack)
    maxima = [row["lambda_max"] for row in rows]
    ok = monotone and all(row["within_bound"] for row in rows) and maxima[-1] >= 3.0
    return ok, {
        "sizes": list(sizes),
        "lambda_max": maxima,
        "pi_bound_slack": slack,
        "largest_size_lambda_max": maxima[-1],
    }


def criterion_partition(tol: dict, seed: int) -> tuple[bool, dict]:
    """Hand-traced partitions plus invariants on random null sequences."""
    harmonic_tail = channel_partition([-1.0 / n for n in range(1, 9)], [1] * 8)
    trace_one = harmonic_tail.to_json()["channels"] == [[0, 1, 2, 3, 4, 5, 6, 7]]

    sqrt_tail = channel_partition([-1.0 / math.sqrt(n) for n in range(1, 9)], [1] * 8)
    trace_two = sqrt_tail.to_json()["channels"] == [[0, 3], [1, 4], [2, 5], [6], [7]]

    rng = np.random.default_rng(seed + 5000)
    zeta_two = math.pi ** 2 / 6.0
    random_ok = True
    for _ in range(1000):
        size = int(rng.integers(2, 25))
        magnitudes = 10.0 ** rng.uniform(-5.0, 0.0, size)
        signs = rng.choice([-1.0, 1.0], size)
        values = magnitudes * signs
        while np.unique(values).size < size:
            values = 10.0 ** rng.uniform(-5.0, 0.0, size) * rng.choice([-1.0, 1.0], size)
        deco = channel_partition(values, [1] * size)
        report = verify_decomposition(deco)
        sums_ok = all(s <= zeta_two + 1e-12 for s in report.certificate_sums)
        random_ok = random_ok and report.ok and sums_ok
        if not random_ok:
            break

    ok = trace_one and trace_two and random_ok
    return ok, {
        "harmonic_tail_single_channel": trace_one,
        "sqrt_tail_channels_match": trace_two,
        "random_sequences_checked": 1000,
        "random_invariants_ok": random_ok,
    }


def criterion_rabi(tol: dict, seed: int) -> tuple[bool, dict]:
    """Eigenvalue lower bounds and cutoff stability for the Rabi model.

    The ``timeop --model rabi`` bound check at cutoff 200, plus agreement
    of the lowest 2 * count eigenvalues with cutoff 150.
    """
    mu, omega, g = 0.5, 1.0, 0.3
    count = 20
    ev_big, bounds = rabi_check(mu, omega, g, 200, count)
    ev_small = rabi_hamiltonian(mu, omega, g, 150).eigenvalues()
    stability = float(np.max(np.abs(ev_big[: 2 * count] - ev_small[: 2 * count])))
    ok = all(bounds) and stability < tol["rabi_stability"]
    return ok, {
        "bounds_true": int(sum(bounds)),
        "bounds_checked": count,
        "ground_energy": float(ev_big[0]),
        "cutoff_stability": stability,
        "tolerance_rabi_stability": tol["rabi_stability"],
    }


def criterion_weak_weyl(tol: dict, seed: int) -> tuple[bool, dict]:
    """Grid weak Weyl relation: accuracy at defaults, decay under refinement.

    The default packet is so well resolved that both grids sit at the
    round-off floor, where "finer is smaller" is a coin flip; refinement
    is therefore measured on a deliberately under-resolved packet whose
    N = 1024 truncation error is far above that floor.
    """
    times = (0.25, 0.5, 1.0)

    default_packet = make_packet(50.0, 1024, 1.0, 0.0, 5.0, 2.0)
    default_residuals = weak_weyl_residuals(default_packet, times)
    defaults_ok = all(r <= tol["grid_residual"] for r in default_residuals)

    coarse = make_packet(50.0, 1024, 1.0, -19.0, 19.0, 0.3)
    fine = make_packet(50.0, 2048, 1.0, -19.0, 19.0, 0.3)
    coarse_residuals = weak_weyl_residuals(coarse, times)
    fine_residuals = weak_weyl_residuals(fine, times)
    refinement_ok = all(f <= c for c, f in zip(coarse_residuals, fine_residuals))

    ok = defaults_ok and refinement_ok
    return ok, {
        "times": list(times),
        "default_residuals": default_residuals,
        "tolerance_grid_residual": tol["grid_residual"],
        "refinement_coarse_residuals": coarse_residuals,
        "refinement_fine_residuals": fine_residuals,
        "refinement_monotone": refinement_ok,
    }


def criterion_s0(tol: dict, seed: int) -> tuple[bool, dict]:
    """Symbolic strong relation and quadrature symmetry for the S0 class."""
    rng = np.random.default_rng(seed + 8000)

    all_exact = True
    for _ in range(100):
        s, t = rng.uniform(-4.0, 4.0, 2)
        exact, defect = s0_strong_relation_check(float(s), float(t))
        all_exact = all_exact and exact and defect == 0.0

    def random_combo() -> ExpCombination:
        coeffs = rng.uniform(-1.0, 1.0, 3) + 1j * rng.uniform(-1.0, 1.0, 3)
        freqs = rng.uniform(-4.0, 4.0, 3)
        return ExpCombination(terms=tuple((c, float(s)) for c, s in zip(coeffs, freqs)))

    worst = 0.0
    for _ in range(25):
        worst = max(worst, s0_symmetry_residual(random_combo(), random_combo()))

    ok = all_exact and worst <= tol["s0_symmetry"]
    return ok, {
        "strong_relation_samples": 100,
        "strong_relation_all_exact": all_exact,
        "symmetry_pairs": 25,
        "symmetry_max_residual": worst,
        "tolerance_s0_symmetry": tol["s0_symmetry"],
    }


def criterion_transforms(tol: dict, seed: int) -> tuple[bool, dict]:
    """Transformed hydrogen forms: admissibility gates and uw-CCR residuals."""
    hyd = hydrogen_point_spectrum(1.0, 1.0, 4)

    specs = {
        "exp": FunctionSpec(FunctionKind.EXP, (1.0,)),
        "identity": FunctionSpec(FunctionKind.POLYNOMIAL, (0.0, 1.0)),
        "sin": FunctionSpec(FunctionKind.SIN, (0.3,)),
    }
    residuals = {}
    channel_counts = {}
    admissible_ok = True
    for k, (name, spec) in enumerate(specs.items()):
        report, deco, form = f_transform_form(spec, hyd)
        admissible_ok = admissible_ok and report.admissible
        channel_counts[name] = deco.channel_count
        per_channel, whole = uw_ccr_check(form, seed + 9000 + 1000 * k, 20)
        residuals[name] = float(np.max([*per_channel, whole]))

    # the resonant parameter beta = 1/(2 E_1) sends the ground state to zero
    e1 = float(hyd.values[0])
    bad = FunctionSpec(FunctionKind.SIN, (1.0 / (2.0 * e1),))
    bad_report = f_condition_check(bad, hyd)
    witness_ok = (not bad_report.admissible) and any(
        w.get("reason") == "sine resonance"
        and w.get("eigenvalue_index") == 1
        and w.get("integer") in (-1, 1)
        for w in bad_report.witnesses
    )

    worst = max(residuals.values())
    ok = admissible_ok and witness_ok and worst <= tol["uw_ccr"]
    return ok, {
        "admissible_all": admissible_ok,
        "channel_counts": channel_counts,
        "max_uw_ccr_residual": worst,
        "per_transform_residuals": residuals,
        "resonant_beta": 1.0 / (2.0 * e1),
        "resonant_witness_correct": witness_ok,
        "tolerance_uw_ccr": tol["uw_ccr"],
    }


def criterion_scaling(tol: dict, seed: int) -> tuple[bool, dict]:
    """Entrywise scaling covariance of the direct matrix.

    Each base channel and its rescalings are the rows of one group.
    """
    bases = [
        np.arange(20, dtype=float) + 0.5,
        np.sort(np.array([-1.0 / n ** 2 for n in range(1, 7)])),
    ]
    alphas = (0.5, 2.0, 10.0)
    worst = 0.0
    for base in bases:
        (g,) = ChannelStack([base, *(alpha * base for alpha in alphas)], MatrixKind.DIRECT).groups
        reference = 1j * g.stack[0]
        for alpha, generator in zip(alphas, g.stack[1:]):
            worst = max(worst, float(np.max(np.abs(1j * generator - reference / alpha))))
    ok = worst <= tol["scaling_entrywise"]
    return ok, {
        "alphas": list(alphas),
        "worst_entrywise_defect": worst,
        "tolerance_scaling_entrywise": tol["scaling_entrywise"],
    }


#: (name, criterion, runtime limit in seconds), in suite order.
_CRITERIA = (
    ("exact-ccr", criterion_exact_ccr, 1.0),
    ("ultraweak-ccr", criterion_ultraweak_ccr, 1.0),
    ("uncertainty", criterion_uncertainty, 1.0),
    ("oscillator-bound", criterion_oscillator_bound, 30.0),
    ("partition", criterion_partition, 1.0),
    ("rabi-bounds", criterion_rabi, 5.0),
    ("weak-weyl", criterion_weak_weyl, 5.0),
    ("s0-class", criterion_s0, 1.0),
    ("transforms", criterion_transforms, 2.0),
    ("scaling", criterion_scaling, 1.0),
)


def run_all(tolerances: dict | None = None, seed: int = 7) -> list[CriterionResult]:
    """Run and time every acceptance criterion; returns results in suite order."""
    tol = resolve_tolerances(tolerances)
    seed = int(seed)
    results = []
    for name, criterion, limit in _CRITERIA:
        start = time.perf_counter()
        passed, details = criterion(tol, seed)
        results.append(CriterionResult(name, passed, details, time.perf_counter() - start, limit))
    return results

