"""Acceptance gate: every primary criterion at its stated tolerance.

The suite runs once per pytest session; each test prints one PASS/FAIL
line for its criterion (visible even under capture) and fails if the
criterion misses either its numeric tolerance or its runtime limit.
"""

import pytest

from timeops import acceptance
from timeops.acceptance import DEFAULT_TOLERANCES, resolve_tolerances, run_all

EXPECTED_ORDER = (
    "exact-ccr",
    "ultraweak-ccr",
    "uncertainty",
    "oscillator-bound",
    "partition",
    "rabi-bounds",
    "weak-weyl",
    "s0-class",
    "transforms",
    "scaling",
)

HEADLINE = {
    "exact-ccr": lambda d: f"worst residual {d['worst_residual']:.3e}",
    "ultraweak-ccr": lambda d: f"max residual {d['max_uw_ccr_residual']:.3e}",
    "uncertainty": lambda d: (
        f"min value {d['min_uncertainty_value']:.12f}, "
        f"im defect {d['im_identity_defect']:.3e}"
    ),
    "oscillator-bound": lambda d: (
        f"lambda_max(800) = {d['largest_size_lambda_max']:.9f} < pi"
    ),
    "partition": lambda d: (
        f"{d['random_sequences_checked']} random sequences ok"
    ),
    "rabi-bounds": lambda d: (
        f"{d['bounds_true']}/{d['bounds_checked']} bounds, "
        f"stability {d['cutoff_stability']:.3e}"
    ),
    "weak-weyl": lambda d: f"max residual {max(d['default_residuals']):.3e}",
    "s0-class": lambda d: f"symmetry residual {d['symmetry_max_residual']:.3e}",
    "transforms": lambda d: f"max residual {d['max_uw_ccr_residual']:.3e}",
    "scaling": lambda d: f"entrywise defect {d['worst_entrywise_defect']:.3e}",
}


@pytest.fixture(scope="module")
def results():
    return {r.name: r for r in run_all(None, seed=7)}


@pytest.mark.parametrize("name", EXPECTED_ORDER)
def test_criterion(name, results, capsys):
    result = results[name]
    headline = HEADLINE[name](result.details)
    status = "PASS" if result.passed and result.runtime_ok else "FAIL"
    with capsys.disabled():
        print(
            f"{status} {name}: {headline} "
            f"({result.runtime:.3f} s, limit {result.runtime_limit:g} s)"
        )
    assert result.passed, f"{name} failed: {result.details}"
    assert result.runtime_ok, (
        f"{name} overran its runtime limit: "
        f"{result.runtime:.3f} s > {result.runtime_limit:g} s"
    )


def test_suite_covers_all_criteria(results):
    assert tuple(results) == EXPECTED_ORDER


def test_results_serialize_without_timing_fields(results):
    for result in results.values():
        doc = result.to_json()
        assert set(doc) == {"name", "passed", "details"}


def test_every_tolerance_has_a_positive_default():
    assert all(v > 0.0 for v in DEFAULT_TOLERANCES.values())


class RecordingTable(dict):
    """A tolerance table that records every name read from it."""

    def __init__(self, table):
        super().__init__(table)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


def test_every_tolerance_is_read_by_run_all(monkeypatch):
    table = RecordingTable(DEFAULT_TOLERANCES)
    monkeypatch.setattr(acceptance, "resolve_tolerances", lambda overrides: table)
    run_all()
    assert table.read == set(DEFAULT_TOLERANCES)


@pytest.fixture(scope="module")
def readers():
    """Tolerance name -> the criteria that read it."""
    out = {}
    for criterion in acceptance._CRITERIA:
        table = RecordingTable(DEFAULT_TOLERANCES)
        criterion(table, 7)
        for name in table.read:
            out.setdefault(name, []).append(criterion)
    return out


# Residual tolerances: a measured residual is never exactly zero, so a zero
# tolerance must fail some criterion.  uncertainty_slack and
# toeplitz_bound_slack are slacks under bounds that the measured values
# clear, so zero does not flip them.
@pytest.mark.parametrize("name", [
    "ccr_relative", "uw_ccr", "im_identity", "rabi_stability",
    "grid_residual", "s0_symmetry", "scaling_entrywise",
])
def test_zero_residual_tolerance_fails_a_criterion(name, readers):
    tol = resolve_tolerances({name: 0.0})
    assert any(not criterion(tol, 7).passed for criterion in readers[name])
