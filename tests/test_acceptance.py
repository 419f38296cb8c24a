"""Acceptance gate: every primary criterion at its stated tolerance.

The suite runs once per pytest session; each test prints one PASS/FAIL
line for its criterion (visible even under capture) and fails if the
criterion misses either its numeric tolerance or its runtime limit.
"""


import math

import numpy as np
import pytest

from timeops import acceptance, spectra, timeop
from timeops.acceptance import run_all
from timeops.cli import DEFAULT_TOLERANCES, RunConfig, resolve_tolerances
from timeops.decompose import ChannelDecomposition, verify_decomposition
from timeops.spectra import HermitianMatrix, harmonic_spectrum, hydrogen_point_spectrum
from timeops.timeop import assemble_time_operator, ccr_allowed, ccr_certificates

from dense_reference import block_pair_residuals, generator, pairing, sweep_roundoff
from recording_rng import RecordingRng

EXPECTED_ORDER = (
    "exact-ccr",
    "ultraweak-form",
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
    "ultraweak-form": lambda d: (
        f"max residual {d['max_uw_ccr_residual']:.3e}, "
        f"min uncertainty value {d['min_uncertainty_value']:.12f}"
    ),
    "oscillator-bound": lambda d: (
        f"lambda_max(800) = {d['largest_size_lambda_max']:.9f} < pi, "
        f"subspace {d['subspace_dimension']}, radius {d['certificate_radius']:.1e}"
    ),
    "partition": lambda d: (
        f"{d['random_sequences_checked']} random sequences, {d['random_values_checked']} values, "
        f"{d['random_channels_checked']} channels ok"
    ),
    "rabi-bounds": lambda d: (
        f"{d['bounds_true']}/{d['bounds_checked']} bounds, "
        f"stability {d['cutoff_stability']:.3e}, "
        f"block {d['leading_block']}, radius {d['certificate_radius']:.1e}"
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


def test_rabi_details_say_how_much_was_certified(results):
    details = results["rabi-bounds"].details
    # 2 * 20 + 64 rows of each chain, at both cutoffs: the same block, the same values,
    # so the certified drift is the two radii alone
    assert details["certified"] is True and details["leading_block"] == 104
    assert 0.0 < details["certificate_radius"] <= 1e-12
    assert 0.0 < details["cutoff_stability"] <= 2.0 * details["certificate_radius"]


def test_suite_covers_all_criteria(results):
    assert tuple(results) == EXPECTED_ORDER


def test_run_all_times_each_criterion_against_its_limit(results):
    for name, _, limit in acceptance._CRITERIA:
        assert results[name].runtime_limit == limit
        assert results[name].runtime > 0.0


def test_results_serialize_without_timing_fields(results):
    for result in results.values():
        doc = result.to_json()
        assert set(doc) == {"name", "passed", "details"}


def test_every_tolerance_has_a_positive_default():
    assert all(v > 0.0 for v in DEFAULT_TOLERANCES.values())
    # uw_ccr gates the one ultra-weak certificate; the uncertainty bound is its phi = psi case
    assert set(DEFAULT_TOLERANCES) == {"ccr_relative", "uw_ccr", "toeplitz_bound_slack", "rabi_stability",
                                       "grid_residual", "s0_symmetry", "scaling_entrywise"}


class RecordingTable(dict):
    """A tolerance table that records every name read from it."""

    def __init__(self, table):
        super().__init__(table)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


def record_reads(monkeypatch, table):
    """Every pipeline run gets ``table`` as its resolved tolerances, so a read through RunConfig is recorded too."""
    monkeypatch.setattr(RunConfig, "resolved_tolerances", lambda config: table)


def test_every_tolerance_is_read_by_run_all(monkeypatch):
    table = RecordingTable(DEFAULT_TOLERANCES)
    monkeypatch.setattr(acceptance, "resolve_tolerances", lambda overrides: table)
    record_reads(monkeypatch, table)
    run_all()
    assert table.read == set(DEFAULT_TOLERANCES)


@pytest.fixture(scope="module")
def readers():
    """Tolerance name -> the criteria that read it, directly or through the pipelines they run."""
    out = {}
    for _, criterion, _ in acceptance._CRITERIA:
        table = RecordingTable(DEFAULT_TOLERANCES)
        with pytest.MonkeyPatch.context() as monkeypatch:
            record_reads(monkeypatch, table)
            criterion(table, 7)
        for name in table.read:
            out.setdefault(name, []).append(criterion)
    return out


# Residual tolerances: a measured residual is never exactly zero, so a zero
# tolerance must fail some criterion.  toeplitz_bound_slack is a slack
# under a bound that the measured values clear, so zero does not flip it.
@pytest.mark.parametrize("name", [
    "ccr_relative", "uw_ccr", "rabi_stability",
    "grid_residual", "s0_symmetry", "scaling_entrywise",
])
def test_zero_residual_tolerance_fails_a_criterion(name, readers):
    tol = resolve_tolerances({name: 0.0})
    assert any(not criterion(tol, 7)[0] for criterion in readers[name])


def test_ultraweak_form_details_count_the_certified_channels(results):
    # hydrogen n_max = 4: channels of dimension 4, 3, 3, 3 and five of 2, one certificate each
    details = results["ultraweak-form"].details
    assert details["channels_certified"] == 9
    assert "pairs_checked" not in details and "samples" not in details
    assert details["min_uncertainty_value"] == 0.5 - details["max_uw_ccr_residual"] / 2 < 0.5
    assert "im_identity_defect" not in details


def test_partition_details_count_what_the_batch_checked(results):
    # 1000 sets of 2 to 24 values; each set has at least one channel
    details = results["partition"].details
    assert details["random_sequences_checked"] == 1000
    assert 2000 <= details["random_values_checked"] <= 24_000
    assert 1000 <= details["random_channels_checked"] <= details["random_values_checked"]


def test_random_null_sets_redraw_a_set_with_a_repeated_value():
    # the first magnitude draw is planted: every value is +-1e-5, so every set of three or more repeats one
    total = int(np.random.default_rng(3).integers(2, 25, 1000).sum())
    rng = RecordingRng(3, replace={0: np.full(total, -5.0)})
    values, sizes = acceptance._random_null_sets(rng, 1000)
    assert rng.calls == 2 and int(sizes.sum()) == total
    bounds = np.cumsum([0, *sizes])
    assert all(np.unique(values[a:b]).size == b - a for a, b in zip(bounds, bounds[1:]))
    assert np.count_nonzero(np.abs(values) == 1e-5) < total


def test_transforms_details_show_the_uncertainty_checks():
    # uw_ccr gates the certificate, and the uncertainty bound it certifies fails with it
    (transforms,) = [r for r in run_all({"uw_ccr": 0.0}) if r.name == "transforms"]
    details = transforms.details
    assert transforms.passed is False
    assert details["max_uw_ccr_residual"] > details["tolerance_uw_ccr"] == 0.0
    assert details["min_uncertainty_value"] == 0.5 - details["max_uw_ccr_residual"] / 2 < 0.5
    assert "im_identity_defect" not in details and "tolerance_im_identity" not in details


def rebuilt(deco, channels, levels):
    """``deco`` with its channels and certificates replaced, given one sequence per channel."""
    flat = [np.concatenate([np.zeros(0, dtype=np.int64), *map(np.asarray, seqs)]) for seqs in (channels, levels)]
    return ChannelDecomposition(deco.values, deco.multiplicities, *flat, np.cumsum([0, *map(len, channels)]),
                                deco.p, deco.prescale)


def certificates(deco):
    """Bucket levels of each channel: ``flat_levels`` cut at ``offsets``."""
    bounds = deco.offsets.tolist()
    return tuple(deco.flat_levels[a:b] for a, b in zip(bounds, bounds[1:]))


def merged_across_sets(deco, sizes):
    """``deco`` with a channel of set 0 merged, in level order, into a channel of set 1 with none of its levels.

    The result still verifies (a disjoint cover by simple channels with
    strictly increasing certificates under zeta(2)); only its merged
    channel spans two sets.
    """
    channels, levels = list(deco.channels), list(certificates(deco))
    set_of = np.searchsorted(np.cumsum(sizes), [c[0] for c in channels], side="right")
    i, j = next((i, j) for i in np.flatnonzero(set_of == 0) for j in np.flatnonzero(set_of == 1)
                if not set(levels[i].tolist()) & set(levels[j].tolist()))
    order = np.argsort(np.concatenate([levels[i], levels[j]]))
    channels[i] = np.concatenate([channels[i], channels[j]])[order]
    levels[i] = np.concatenate([levels[i], levels[j]])[order]
    del channels[j], levels[j]
    merged = rebuilt(deco, channels, levels)
    report = verify_decomposition(merged)
    assert report.ok and max(report.certificate_sums) < math.pi ** 2 / 6.0
    return merged


class TestEveryCriterionCanFail:
    """A perturbed kernel or input makes each of these criteria report passed: false."""

    @pytest.mark.parametrize("perturb", [
        lambda deco, sizes: rebuilt(deco, deco.channels[:-1], certificates(deco)[:-1]),
        lambda deco, sizes: rebuilt(deco, deco.channels, tuple(cert[::-1] for cert in certificates(deco))),
        merged_across_sets,
    ], ids=["a channel dropped", "certificates reversed", "two sets' channels merged"])
    def test_partition(self, monkeypatch, perturb):
        partition = acceptance.channel_partition_sets
        monkeypatch.setattr(acceptance, "channel_partition_sets",
                            lambda values, sizes: perturb(partition(values, sizes), sizes))
        passed, details = acceptance.criterion_partition(resolve_tolerances(), 7)
        assert passed is False and details["random_invariants_ok"] is False

    @staticmethod
    def _shifted(build, shift):
        """``build`` with every eigenvalue of its Rabi matrix moved by ``shift``: each chain's diagonal moves."""
        def shifted(*args):
            h = build(*args)
            return HermitianMatrix(h.diagonals + shift, h.couplings)
        return shifted

    def test_rabi_bounds(self, monkeypatch):
        # the cutoff-200 spectrum moved by mu + 0.5 leaves every bound interval
        monkeypatch.setattr(spectra, "rabi_hamiltonian", self._shifted(spectra.rabi_hamiltonian, 1.0))
        passed, details = acceptance.criterion_rabi(resolve_tolerances(), 7)
        assert passed is False and details["bounds_true"] == 0

    def test_rabi_certificate(self, monkeypatch):
        # every count one too high: neither spectrum is certified, though every bound holds
        counts = spectra._sturm_counts
        monkeypatch.setattr(spectra, "_sturm_counts", lambda *args: counts(*args) + 1)
        passed, details = acceptance.criterion_rabi(resolve_tolerances(), 7)
        assert passed is False and details["certified"] is False
        assert details["bounds_true"] == details["bounds_checked"]
        assert details["leading_block"] == 201

    def test_rabi_stability(self, monkeypatch):
        # the cutoff-150 spectrum moved by 1e-6: the bounds hold, the cutoff drift does not
        monkeypatch.setattr(acceptance, "rabi_hamiltonian", self._shifted(acceptance.rabi_hamiltonian, 1e-6))
        passed, details = acceptance.criterion_rabi(resolve_tolerances(), 7)
        assert passed is False and details["bounds_true"] == details["bounds_checked"]
        assert details["cutoff_stability"] > details["tolerance_rabi_stability"]

    def test_oscillator_certificate(self, monkeypatch):
        # every Schur pass's last pivot negated: no size is certified, though every bound holds
        pivots = timeop._schur_pivots

        def planted(row):
            out = pivots(row)
            out[-1] = -out[-1]
            return out

        monkeypatch.setattr(timeop, "_schur_pivots", planted)
        passed, details = acceptance.criterion_oscillator_bound(resolve_tolerances(), 7)
        assert passed is False and details["certified"] is False
        assert details["largest_size_lambda_max"] >= 3.0
        assert details["subspace_dimension"] == 400

    @staticmethod
    def _rescaled_off(monkeypatch):
        # every rescaled generator off by a relative 1e-11, still antisymmetric
        build = acceptance._entries

        def perturbed(ev, start, stop, kind):
            a = build(ev, start, stop, kind)
            a[1:] *= 1.0 + 1e-11
            return a

        monkeypatch.setattr(acceptance, "_entries", perturbed)

    @staticmethod
    def _one_nan(monkeypatch):
        # one NaN entry in one rescaled generator, which Python's max would skip;
        # the criterion builds its four rows with no gate, so it reaches the defect
        build = acceptance._entries

        def poisoned(ev, start, stop, kind):
            a = build(ev, start, stop, kind)
            a[2, 0, 1] = math.nan
            return a

        monkeypatch.setattr(acceptance, "_entries", poisoned)

    @pytest.mark.parametrize("perturb", ["_rescaled_off", "_one_nan"])
    def test_scaling(self, monkeypatch, perturb):
        getattr(self, perturb)(monkeypatch)
        passed, details = acceptance.criterion_scaling(resolve_tolerances(), 7)
        assert passed is False
        assert not details["worst_entrywise_defect"] <= details["tolerance_scaling_entrywise"]


# ------------------------------------------------ one check per identity


def _exact_ccr_stacks():
    """The time operators the exact-CCR criterion certifies: hydrogen to n = 4 and the oscillator to n = 50."""
    return [assemble_time_operator(hydrogen_point_spectrum(1.0, 1.0, 4))[1],
            assemble_time_operator(harmonic_spectrum([1.0], 50))[1]]


def test_exact_ccr_details_are_the_certificates():
    tol = resolve_tolerances()
    passed, details = acceptance.criterion_exact_ccr(tol, 7)
    worst = ratio = 0.0
    for op in _exact_ccr_stacks():
        certificate, scale = ccr_certificates(op)
        allowed = ccr_allowed(op, scale, tol)
        worst = max(worst, float(np.max(certificate)))
        ratio = max(ratio, float(np.max(certificate[allowed > 0.0] / allowed[allowed > 0.0])))
    assert passed is True
    assert details["worst_residual"] == worst
    assert details["worst_residual_over_allowed"] == ratio < 1e-2
    assert (details["hydrogen_states"], details["hydrogen_channels"], details["oscillator_channels"]) == (30, 16, 1)


def test_every_difference_the_criterion_covers_is_within_its_certificate():
    # the pair loop over every e_k - e_l, of norm sqrt(2), against the whole commutator
    for op in _exact_ccr_stacks():
        certificate, _ = ccr_certificates(op)
        for g in op.groups:
            for block, e in zip(g.blocks, g.eigenvalues):
                residual, _, _ = block_pair_residuals(pairing(e, op.kind), generator(e, op.kind))
                pair = np.zeros(e.size)
                pair[:2] = 1.0, -1.0
                roundoff = sweep_roundoff(e, op.kind, pair)[0]
                assert residual <= math.sqrt(2.0) * certificate[block] * (1 + 1e-12) + roundoff


_HYDROGEN = {"kind": "hydrogen", "n_max": 4}


def spy_on_runs(monkeypatch, edit=lambda report: None):
    """Record the (config, report) of every pipeline run the criteria make, each report passed through ``edit``."""
    runs = []
    real = acceptance.run

    def spy(config):
        report = real(config)
        edit(report)
        runs.append((config, report))
        return report

    monkeypatch.setattr(acceptance, "run", spy)
    return runs


def refine_worse(monkeypatch):
    """Weak Weyl residuals that grow with the grid size, so refinement never helps."""
    monkeypatch.setattr(acceptance, "weak_weyl_residuals", lambda state, times: [float(state.size)] * len(times))


#: Criterion -> each run it makes, as (model, pipeline, whether its report must
#: pass), and a change that leaves every report's verdict as it is but breaks
#: the criterion's own assertion (None when it adds none).
PIPELINE_CRITERIA = {
    "exact-ccr": (
        [(_HYDROGEN, {"kind": "timeop"}, True), ({"kind": "oscillator", "n_max": 50}, {"kind": "timeop"}, True)],
        # one hydrogen channel fewer: the structure check fails, though every certificate passes
        lambda mp: spy_on_runs(mp, lambda report: report["decomposition"]["channels"].pop()),
    ),
    "ultraweak-form": ([(_HYDROGEN, {"kind": "uwform"}, True)], None),
    "oscillator-bound": (
        [({}, {"kind": "oscspec", "omega": 1.0, "sizes": [100, 200, 400, 800]}, True)],
        lambda mp: spy_on_runs(mp, lambda report: report["rows"][-1].update(lambda_max=2.9)),
    ),
    "weak-weyl": ([({}, {"kind": "abweyl"}, True)], refine_worse),
    "s0-class": ([({}, {"kind": "s0check"}, True)], None),
    "transforms": (
        [(_HYDROGEN, {"kind": "ftransform", "function": {"kind": kind, "params": params}}, True)
         for kind, params in (("exp", [1.0]), ("poly", [0.0, 1.0]), ("sin", [0.3]))]
        # the resonant sine beta = 1/(2 E_1) = -1, refused: the criterion reads its witness
        + [(_HYDROGEN, {"kind": "ftransform", "function": {"kind": "sin", "params": [-1.0]}}, False)],
        lambda mp: spy_on_runs(mp, lambda report: report["witnesses"].clear()),
    ),
}


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name", PIPELINE_CRITERIA)
def test_a_pipeline_criterion_is_the_verdict_of_its_frozen_runs(monkeypatch, name, seed):
    criterion = {n: c for n, c, _ in acceptance._CRITERIA}[name]
    expected, spoil = PIPELINE_CRITERIA[name]
    # not the defaults: the suite's own table must reach every run
    tol = resolve_tolerances({"uw_ccr": 2e-10})
    runs = spy_on_runs(monkeypatch)
    assert criterion(tol, seed)[0] is True
    # no pipeline a criterion runs reads a seed: whatever the suite's seed, the runs are the same
    assert [(c.model, c.pipeline) for c, _ in runs] == [(m, pl) for m, pl, _ in expected]
    assert all(c.resolved_tolerances() == tol for c, _ in runs)
    assert [r["passed"] for _, r in runs] == [must for *_, must in expected]

    with monkeypatch.context() as mp:
        spy_on_runs(mp, lambda report: report.update(passed=False))
        assert criterion(tol, seed)[0] is False
    if spoil is not None:
        spoil(monkeypatch)
        runs = spy_on_runs(monkeypatch)
        assert criterion(tol, seed)[0] is False
        assert [r["passed"] for _, r in runs] == [must for *_, must in expected]
