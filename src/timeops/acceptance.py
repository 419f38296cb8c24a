"""Acceptance suite: the toolkit's promises, measured.

Each criterion function runs one end-to-end check with frozen inputs and
explicit tolerances and returns (passed, details), the details carrying
the measured numbers, so a failure report says what was observed, not
just that something went wrong.

A criterion that checks a pipeline's identity is a frozen ``RunConfig``
run through ``cli.run`` under the suite's tolerances: it takes ``passed``
and its numbers from the report and adds only its own extra assertions,
so each verdict and each tolerance lookup is written once, in the
pipeline; ``exact-ccr`` is ``timeop`` on hydrogen and on the oscillator.
The partition traces, the Rabi cutoff stability and scaling covariance
have no pipeline that checks them, and are measured here.  The partition
criterion draws its 1000 random null sequences in bulk and partitions
them in one ``channel_partition_sets`` batch, verified once as a whole,
plus a check that no channel spans two sequences.  The CLI selftest and
the test suite both drive ``run_all``; neither owns a private copy of
the thresholds.

``run_all`` times every criterion and records the wall-clock limit
alongside the numeric outcome, but keeps it out of the pass/fail verdict
for the numbers themselves: ``passed`` reflects arithmetic,
``runtime_ok`` reflects the machine.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .cli import RunConfig, resolve_tolerances, run
from .contspec import make_packet, weak_weyl_residuals
from .decompose import _repeating_segments, channel_partition, channel_partition_sets, verify_decomposition
from .spectra import rabi_check, rabi_hamiltonian
from .timeop import MatrixKind, _entries

__all__ = ["CriterionResult", "run_all"]

#: The hydrogen model of the exact-CCR and ultra-weak criteria: n = 1..4, 30 states.
_HYDROGEN = {"kind": "hydrogen", "n_max": 4}

#: The oscillator model of the exact-CCR criterion: omega = 1, one channel of 51 levels.
_OSCILLATOR = {"kind": "oscillator", "n_max": 50}


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


def criterion_exact_ccr(tol: dict, seed: int) -> tuple[bool, dict]:
    """Exact commutation on difference spans: the ``timeop`` verdicts on hydrogen and the oscillator.

    Plus hydrogen's structure: 30 states in 16 channels.  Each channel's
    certificate bounds every unit vector of its difference span at once.
    """
    reports = [_run(tol, model, kind="timeop") for model in (_HYDROGEN, _OSCILLATOR)]
    hyd, osc = reports
    states = sum(mult for _, mult in hyd["spectrum"]["entries"])
    channels = len(hyd["decomposition"]["channels"])
    ok = states == 30 and channels == 16 and all(r["passed"] for r in reports)
    return ok, {
        "hydrogen_states": states,
        "hydrogen_channels": channels,
        "oscillator_channels": len(osc["decomposition"]["channels"]),
        # np.max, not max: a NaN certificate shows in the details
        "worst_residual": float(np.max([r["max_ccr_residual"] for r in reports])),
        "worst_residual_over_allowed": float(np.max([r["max_ccr_residual_over_allowed"] for r in reports])),
        "tolerance_ccr_relative": tol["ccr_relative"],
    }


def _run(tol: dict, model: dict, **pipeline) -> dict:
    """The report of one frozen pipeline run under the suite's tolerances; no pipeline reads a seed."""
    return run(RunConfig(model=model, pipeline=pipeline, tolerances=tol))


def criterion_ultraweak_form(tol: dict, seed: int) -> tuple[bool, dict]:
    """Ultra-weak CCR and the time-energy uncertainty bound it certifies: ``uwform`` on hydrogen."""
    report = _run(tol, _HYDROGEN, kind="uwform")
    return report["passed"], {
        "channels_certified": sum(c["dimension"] >= 2 for c in report["channels"]),
        "max_uw_ccr_residual": report["max_uw_ccr_residual"],
        "tolerance_uw_ccr": tol["uw_ccr"],
        "min_uncertainty_value": report["min_uncertainty_value"],
    }


def criterion_oscillator_bound(tol: dict, seed: int) -> tuple[bool, dict]:
    """Truncated oscillator time-operator spectra stay inside (-pi, pi).

    The ``oscspec`` verdict at omega = 1, every size certified, plus
    lambda_max(800) >= 3.
    """
    report = _run(tol, {}, kind="oscspec", omega=1.0, sizes=[100, 200, 400, 800])
    maxima = [row["lambda_max"] for row in report["rows"]]
    return report["passed"] and maxima[-1] >= 3.0, {
        "sizes": [row["size"] for row in report["rows"]],
        "lambda_max": maxima,
        "pi_bound_slack": tol["toeplitz_bound_slack"],
        "largest_size_lambda_max": maxima[-1],
        "certified": not report["certificate_failed_sizes"],
        # np.max, not max: a NaN radius shows in the details
        "certificate_radius": float(np.max([row["certificate_radius"] for row in report["rows"]])),
        "subspace_dimension": max(row["subspace_dimension"] for row in report["rows"]),
    }


def _random_null_sets(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` sets of 2 to 24 distinct values +-10^U(-5, 0), one after another, and their sizes.

    A set that draws a repeated value is drawn again.
    """
    sizes = rng.integers(2, 25, count)
    segment = np.arange(count).repeat(sizes)
    redraw = np.ones(segment.size, dtype=bool)
    values = np.empty(segment.size)
    while (n := np.count_nonzero(redraw)):
        values[redraw] = 10.0 ** rng.uniform(-5.0, 0.0, n) * rng.choice([-1.0, 1.0], n)
        redraw = np.isin(segment, _repeating_segments(values, segment))
    return values, sizes


def criterion_partition(tol: dict, seed: int) -> tuple[bool, dict]:
    """Hand-traced partitions plus invariants on 1000 random null sequences, partitioned in one batch.

    The batch must verify as one decomposition, keep every channel inside
    its own set, and hold every certificate sum under zeta(2).
    """
    harmonic_tail = channel_partition([-1.0 / n for n in range(1, 9)], [1] * 8)
    trace_one = harmonic_tail.to_json()["channels"] == [[0, 1, 2, 3, 4, 5, 6, 7]]

    sqrt_tail = channel_partition([-1.0 / math.sqrt(n) for n in range(1, 9)], [1] * 8)
    trace_two = sqrt_tail.to_json()["channels"] == [[0, 3], [1, 4], [2, 5], [6], [7]]

    values, sizes = _random_null_sets(np.random.default_rng(seed + 5000), 1000)
    deco = channel_partition_sets(values, sizes.tolist())
    report = verify_decomposition(deco)
    set_of = np.arange(sizes.size).repeat(sizes)[deco.value_indices()]
    chan = deco.channel_of_slot()
    contained = not np.count_nonzero((chan[1:] == chan[:-1]) & (set_of[1:] != set_of[:-1]))
    zeta_two = math.pi ** 2 / 6.0
    sums_ok = all(s <= zeta_two + 1e-12 for s in report.certificate_sums)
    random_ok = report.ok and contained and sums_ok

    ok = trace_one and trace_two and random_ok
    return ok, {
        "harmonic_tail_single_channel": trace_one,
        "sqrt_tail_channels_match": trace_two,
        "random_sequences_checked": int(sizes.size),
        "random_values_checked": len(deco.values),
        "random_channels_checked": deco.channel_count,
        "random_invariants_ok": random_ok,
    }


def criterion_rabi(tol: dict, seed: int) -> tuple[bool, dict]:
    """Eigenvalue lower bounds and cutoff stability for the Rabi model.

    The ``timeop --model rabi`` bound check at cutoff 200, plus agreement
    of the lowest 2 * count eigenvalues with cutoff 150.  Both spectra are
    certified, so the drift of the exact eigenvalues is at most the gap of
    the certified values plus both radii; the details give that bound and
    the larger leading block and radius.
    """
    mu, omega, g = 0.5, 1.0, 0.3
    count = 20
    big, bounds = rabi_check(mu, omega, g, 200, count)
    small = rabi_hamiltonian(mu, omega, g, 150).eigenvalues(2 * count)
    stability = float(np.max(np.abs(big.values - small.values) + big.radii + small.radii))
    certified = big.failed_index is None and small.failed_index is None
    ok = certified and all(bounds) and stability < tol["rabi_stability"]
    return ok, {
        "bounds_true": int(sum(bounds)),
        "bounds_checked": count,
        "ground_energy": float(big.values[0]),
        "cutoff_stability": stability,
        "tolerance_rabi_stability": tol["rabi_stability"],
        "certified": certified,
        "leading_block": max(big.leading_block, small.leading_block),
        "certificate_radius": float(max(np.max(big.radii), np.max(small.radii))),
    }


def criterion_weak_weyl(tol: dict, seed: int) -> tuple[bool, dict]:
    """Grid weak Weyl relation: the ``abweyl`` verdict at its defaults, plus decay under refinement.

    The default packet is so well resolved that both grids sit at the
    round-off floor, where "finer is smaller" is a coin flip; refinement
    is therefore measured, at the same times, on a deliberately
    under-resolved packet whose N = 1024 truncation error is far above
    that floor.
    """
    report = _run(tol, {}, kind="abweyl")
    times = [t for t, _ in report["sweep"]]
    coarse_residuals = weak_weyl_residuals(make_packet(50.0, 1024, 1.0, -19.0, 19.0, 0.3), times)
    fine_residuals = weak_weyl_residuals(make_packet(50.0, 2048, 1.0, -19.0, 19.0, 0.3), times)
    refinement_ok = all(f <= c for c, f in zip(coarse_residuals, fine_residuals))
    return report["passed"] and refinement_ok, {
        "times": times,
        "default_residuals": [r for _, r in report["sweep"]],
        "tolerance_grid_residual": tol["grid_residual"],
        "refinement_coarse_residuals": coarse_residuals,
        "refinement_fine_residuals": fine_residuals,
        "refinement_monotone": refinement_ok,
    }


def criterion_s0(tol: dict, seed: int) -> tuple[bool, dict]:
    """Symbolic strong relation and quadrature symmetry for the S0 class: the ``s0check`` verdict."""
    report = _run(tol, {}, kind="s0check")
    keys = ("strong_relation_pairs", "strong_relation_all_exact", "symmetry_frequencies", "symmetry_max_residual")
    return report["passed"], {**{key: report[key] for key in keys}, "tolerance_s0_symmetry": tol["s0_symmetry"]}


def criterion_transforms(tol: dict, seed: int) -> tuple[bool, dict]:
    """Transformed hydrogen forms: the ``ftransform`` verdicts, plus the witness of a refused resonant sine."""
    functions = {
        "exp": {"kind": "exp", "params": [1.0]},
        "identity": {"kind": "poly", "params": [0.0, 1.0]},
        "sin": {"kind": "sin", "params": [0.3]},
    }
    reports = {name: _run(tol, _HYDROGEN, kind="ftransform", function=f) for name, f in functions.items()}
    residuals = {name: r["max_uw_ccr_residual"] for name, r in reports.items()}

    # the resonant parameter beta = 1/(2 E_1) sends the ground state to zero
    beta = 1.0 / (2.0 * reports["sin"]["spectrum"]["entries"][0][0])
    refused = _run(tol, _HYDROGEN, kind="ftransform", function={"kind": "sin", "params": [beta]})
    witness_ok = (not refused["admissible"]) and any(
        w.get("reason") == "sine resonance"
        and w.get("eigenvalue_index") == 1
        and w.get("integer") in (-1, 1)
        for w in refused["witnesses"]
    )

    ok = all(r["passed"] for r in reports.values()) and witness_ok
    return ok, {
        "admissible_all": all(r["admissible"] for r in reports.values()),
        "channel_counts": {name: r["channel_count"] for name, r in reports.items()},
        "max_uw_ccr_residual": float(np.max(list(residuals.values()))),
        "per_transform_residuals": residuals,
        "min_uncertainty_value": float(np.min([r["min_uncertainty_value"] for r in reports.values()])),
        "resonant_beta": beta,
        "resonant_witness_correct": witness_ok,
        "tolerance_uw_ccr": tol["uw_ccr"],
    }


def criterion_scaling(tol: dict, seed: int) -> tuple[bool, dict]:
    """Entrywise scaling covariance of the direct matrix.

    Each base channel and its rescalings are the rows of one ``_entries`` build.
    """
    bases = [
        np.arange(20, dtype=float) + 0.5,
        np.sort(np.array([-1.0 / n ** 2 for n in range(1, 7)])),
    ]
    alphas = (0.5, 2.0, 10.0)
    defects = []
    for base in bases:
        a = _entries(np.array([base, *(alpha * base for alpha in alphas)]), 0, base.size, MatrixKind.DIRECT)
        defects += [np.max(np.abs(1j * generator - 1j * a[0] / alpha)) for alpha, generator in zip(alphas, a[1:])]
    # np.max, not max: a NaN defect fails the gate instead of being skipped
    worst = float(np.max(defects))
    ok = worst <= tol["scaling_entrywise"]
    return ok, {
        "alphas": list(alphas),
        "worst_entrywise_defect": worst,
        "tolerance_scaling_entrywise": tol["scaling_entrywise"],
    }


#: (name, criterion, runtime limit in seconds), in suite order.
_CRITERIA = (
    ("exact-ccr", criterion_exact_ccr, 1.0),
    ("ultraweak-form", criterion_ultraweak_form, 1.0),
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

