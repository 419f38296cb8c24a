import math

import numpy as np
import pytest

from timeops import uwform
from timeops.acceptance import _sweep_forms
from timeops.spectra import Accumulation, DiscreteSpectrum, hydrogen_point_spectrum
from timeops.timeop import BlockDiagonal
from timeops.uwform import (
    AdmissibilityError,
    FormChannel,
    FunctionKind,
    FunctionSpec,
    assemble_uwform,
    describe_domains,
    evaluate_form,
    f_condition_check,
    f_transform_form,
    in_ccr_domain,
    project_to_ccr_domain,
    random_domain_vector,
    require_ccr_domain,
    uncertainty_check,
    uncertainty_sweep,
    uw_ccr_residual,
    uw_ccr_sweep,
)


def form_of(*channels):
    """Direct sum of form channels, one per eigenvalue list."""
    return BlockDiagonal(tuple(FormChannel(np.array(ev, dtype=float)) for ev in channels))


def _domain_vector_2d():
    # (-1) v0 + (-0.5) v1 = 0 picks v = (1, -2)/sqrt(5)
    return np.array([1.0, -2.0], dtype=complex) / math.sqrt(5.0)


class TestFormChannel:
    def test_two_by_two_evaluator_entry(self):
        form = form_of([-1.0, -0.5])
        e0 = np.array([1.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0], dtype=complex)
        assert evaluate_form(form, e0, e1) == -2.5j
        assert evaluate_form(form, e1, e0) == 2.5j

    def test_evaluator_is_exactly_hermitian(self):
        ch = FormChannel(np.array([-1.0, -0.31, -0.17, -0.056]))
        assert np.array_equal(ch.evaluator, ch.evaluator.conj().T)

    def test_form_symmetry_and_sesquilinearity(self):
        form = form_of([-2.0, -0.7, -0.3, -0.11])
        rng = np.random.default_rng(0)
        phi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)

        def t(a, b):
            return evaluate_form(form, a, b)

        scale = abs(t(phi, psi)) + 1.0
        assert t(phi, psi) == pytest.approx(np.conj(t(psi, phi)), abs=1e-13 * scale)
        z = 0.6 - 1.9j
        assert t(z * phi, psi) == pytest.approx(np.conj(z) * t(phi, psi), abs=1e-13 * scale)
        assert t(phi, z * psi) == pytest.approx(z * t(phi, psi), abs=1e-13 * scale)
        with pytest.raises(ValueError, match="vector length"):
            t(phi[:3], psi)

    def test_rejects_zero_or_unsorted_eigenvalues(self):
        with pytest.raises(ValueError):
            FormChannel(np.array([-1.0, 0.0]))
        with pytest.raises(ValueError):
            FormChannel(np.array([-0.5, -1.0]))

    def test_rejects_an_overflowing_evaluator(self):
        # 1/E^2 overflows; the evaluator would hold inf and NaN entries
        with pytest.raises(ValueError, match="not finite"):
            FormChannel(np.array([-3e-170, -2e-170, -1e-170]))


class TestCommutationDomain:
    def test_one_dimensional_projection_is_exactly_zero(self):
        ch = FormChannel(np.array([-0.04]))
        v = np.array([0.3 + 0.7j])
        assert np.all(ch.project_to_ccr_domain(v) == 0.0)

    def test_projection_lands_in_the_domain(self):
        form = form_of([-1.0, -0.44, -0.2, -0.09])
        rng = np.random.default_rng(1)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        w = project_to_ccr_domain(form, v)
        assert in_ccr_domain(form, w)

    def test_membership_tolerance_is_anchored_to_the_whole_vector(self):
        # A direct sum with a one-dimensional channel: any mass there is a
        # domain defect in that block, but round-off-sized mass relative to
        # the whole vector must not disqualify a projected vector.
        form = form_of([-1.0, -0.5, -0.25], [-0.04])
        v = np.zeros(4, dtype=complex)
        v[:3] = random_domain_vector(np.random.default_rng(2), form.channel(0))
        v[3] = 1e-12
        assert in_ccr_domain(form, v)
        v[3] = 1e-3
        assert not in_ccr_domain(form, v)

    def test_nan_entry_is_outside_the_domain(self):
        form = form_of([-1.0, -0.44, -0.2, -0.09])
        v = project_to_ccr_domain(form, np.array([1.0, 2.0, -1.0, 0.5], dtype=complex))
        assert in_ccr_domain(form, v)
        v[2] = math.nan
        assert not in_ccr_domain(form, v)

    def test_random_domain_vector_is_unit_and_accepted(self):
        _, form = assemble_uwform(hydrogen_point_spectrum(1.0, 1.0, 4))
        v = random_domain_vector(np.random.default_rng(3), form)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        require_ccr_domain(form, v)

    @pytest.mark.parametrize("channels", [([-1.0],), ([-1.0], [-0.5], [-0.25])])
    def test_random_domain_vector_rejects_a_trivial_domain(self, channels):
        with pytest.raises(ValueError, match="trivial"):
            random_domain_vector(np.random.default_rng(0), form_of(*channels))

    def test_out_of_domain_vector_is_rejected(self):
        form = form_of([-1.0, -0.5])
        e0 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="commutation domain"):
            uw_ccr_residual(form, e0, _domain_vector_2d())


class TestUltraWeakCcr:
    def test_residual_on_a_single_wide_channel(self):
        form = form_of([-1.0 / n ** 2 for n in range(1, 9)])
        rng = np.random.default_rng(4)
        worst = max(
            uw_ccr_residual(
                form,
                random_domain_vector(rng, form),
                random_domain_vector(rng, form),
            )
            for _ in range(25)
        )
        assert worst <= 1e-10

    def test_residual_on_a_direct_sum(self):
        _, form = assemble_uwform(hydrogen_point_spectrum(1.0, 1.0, 4))
        rng = np.random.default_rng(5)
        worst = max(
            uw_ccr_residual(
                form,
                random_domain_vector(rng, form),
                random_domain_vector(rng, form),
            )
            for _ in range(25)
        )
        assert worst <= 1e-10

    def test_blocks_do_not_couple(self):
        form = form_of([-1.0, -0.5], [-0.25, -0.125])
        phi = np.array([1.0, -2.0, 0.0, 0.0], dtype=complex) / math.sqrt(5.0)
        psi = np.array([0.0, 0.0, 1.0, -2.0], dtype=complex) / math.sqrt(5.0)
        assert evaluate_form(form, phi, psi) == 0.0
        assert abs(np.vdot(phi, psi)) == 0.0

    def test_describe_domains(self):
        _, form = assemble_uwform(hydrogen_point_spectrum(1.0, 1.0, 2))
        rows = describe_domains(form)
        assert [r["dimension"] for r in rows] == [2, 1, 1, 1]
        assert rows[0]["eigenvalue_min"] == -0.5
        assert rows[0]["eigenvalue_max"] == -0.125


class TestUncertainty:
    def test_imaginary_part_is_exactly_minus_half(self):
        form = form_of([-1.0, -0.5])
        result = uncertainty_check(form, _domain_vector_2d(), a=0.3, b=-0.7)
        assert result.imaginary_part == pytest.approx(-0.5, abs=1e-12)
        assert result.value >= 0.5 - 1e-12

    def test_random_centers_pass(self):
        _, form = assemble_uwform(hydrogen_point_spectrum(1.0, 1.0, 3))
        rng = np.random.default_rng(6)
        for _ in range(25):
            psi = random_domain_vector(rng, form)
            a, b = rng.uniform(-2.0, 2.0, 2)
            result = uncertainty_check(form, psi, a, b)
            assert result.value >= 0.5 - 1e-10
            assert abs(result.imaginary_part + 0.5) <= 1e-10

    def test_rejects_non_unit_vector(self):
        form = form_of([-1.0, -0.5])
        with pytest.raises(ValueError, match="unit"):
            uncertainty_check(form, 2.0 * _domain_vector_2d())

    def test_rejects_out_of_domain_vector(self):
        form = form_of([-1.0, -0.5])
        e0 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="commutation domain"):
            uncertainty_check(form, e0)


def reference_uw_ccr_sweep(rng, forms):
    """The hand-written pair loop the sweep kernel replaced."""
    worst = 0.0
    for form in forms:
        phi = random_domain_vector(rng, form)
        psi = random_domain_vector(rng, form)
        worst = max(worst, uw_ccr_residual(form, phi, psi))
    return worst


def reference_round_robin_sweep(form, rng, pairs):
    """The acceptance suite's loop: round-robin channel pairs, then whole-form pairs."""
    worst = 0.0
    single_forms = [form.channel(i) for i, ch in enumerate(form.blocks) if ch.dimension >= 2]
    for i in range(pairs):
        sub = single_forms[i % len(single_forms)] if single_forms else form
        phi = random_domain_vector(rng, sub)
        psi = random_domain_vector(rng, sub)
        worst = max(worst, uw_ccr_residual(sub, phi, psi))
    for _ in range(pairs):
        phi = random_domain_vector(rng, form)
        psi = random_domain_vector(rng, form)
        worst = max(worst, uw_ccr_residual(form, phi, psi))
    return worst


def reference_uncertainty_sweep(rng, form, count):
    """The hand-written uncertainty loop the sweep kernel replaced."""
    min_value = math.inf
    im_defect = 0.0
    for _ in range(count):
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(-2.0, 2.0))
        psi = random_domain_vector(rng, form)
        res = uncertainty_check(form, psi, a, b)
        min_value = min(min_value, res.value)
        im_defect = max(im_defect, abs(res.imaginary_part + 0.5))
    return min_value, im_defect


def _sweep_cases():
    s = hydrogen_point_spectrum(1.0, 1.0, 4)
    _, hydrogen = assemble_uwform(s)
    _, _, transformed = f_transform_form(FunctionSpec(FunctionKind.SIN, (0.3,)), s)
    return {"hydrogen": hydrogen, "channel": hydrogen.channel(0), "sin": transformed}


class TestSweepKernels:
    @pytest.mark.parametrize("case", ["hydrogen", "channel", "sin"])
    def test_uw_ccr_sweep_matches_the_loop_bit_for_bit(self, case):
        form = _sweep_cases()[case]
        forms = [form] * 20
        expected = reference_uw_ccr_sweep(np.random.default_rng(11), forms)
        assert uw_ccr_sweep(np.random.default_rng(11), forms) == expected
        assert expected <= 1e-10

    @pytest.mark.parametrize("case", ["hydrogen", "sin"])
    def test_round_robin_sweep_matches_the_loop_bit_for_bit(self, case):
        form = _sweep_cases()[case]
        expected = reference_round_robin_sweep(form, np.random.default_rng(12), 20)
        assert uw_ccr_sweep(np.random.default_rng(12), _sweep_forms(form, 20)) == expected

    @pytest.mark.parametrize("case", ["hydrogen", "channel", "sin"])
    def test_uncertainty_sweep_matches_the_loop_bit_for_bit(self, case):
        form = _sweep_cases()[case]
        expected = reference_uncertainty_sweep(np.random.default_rng(13), form, 20)
        assert uncertainty_sweep(np.random.default_rng(13), form, 20) == expected

    def test_empty_sweeps_are_rejected(self):
        form = form_of([-1.0, -0.5])
        with pytest.raises(ValueError, match="checks nothing"):
            uw_ccr_sweep(np.random.default_rng(0), [])
        with pytest.raises(ValueError, match="checks nothing"):
            uncertainty_sweep(np.random.default_rng(0), form, 0)

    def test_a_nan_residual_propagates(self, monkeypatch):
        residuals = iter([1e-17, math.nan, 2e-17])
        monkeypatch.setattr(uwform, "uw_ccr_residual", lambda form, phi, psi: next(residuals))
        form = form_of([-1.0, -0.5])
        assert math.isnan(uw_ccr_sweep(np.random.default_rng(0), [form] * 3))


class TestAssembleUwform:
    def test_rejects_spectra_growing_to_infinity(self):
        s = DiscreteSpectrum(((1.0, 1), (2.0, 1)), Accumulation.TO_INFINITY)
        with pytest.raises(ValueError, match="accumulating at zero"):
            assemble_uwform(s)

    def test_channel_count_matches_decomposition(self):
        deco, form = assemble_uwform(hydrogen_point_spectrum(1.0, 1.0, 4))
        assert len(form.blocks) == deco.channel_count
        assert form.total_dimension == len(deco.slots) == 30

    def test_block_eigenvalues_ascend(self):
        _, form = assemble_uwform(hydrogen_point_spectrum(1.0, 1.0, 4))
        for ch in form.blocks:
            assert np.all(np.diff(ch.eigenvalues) > 0.0)


class TestFunctionSpec:
    def test_exp_and_sin_need_one_nonzero_parameter(self):
        with pytest.raises(ValueError):
            FunctionSpec(FunctionKind.EXP, (0.0,))
        with pytest.raises(ValueError):
            FunctionSpec(FunctionKind.EXP, (1.0, 2.0))
        with pytest.raises(ValueError):
            FunctionSpec(FunctionKind.SIN, (0.0,))

    @pytest.mark.parametrize("kind", list(FunctionKind))
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_parameters(self, kind, value):
        with pytest.raises(ValueError, match="finite"):
            FunctionSpec(kind, (value,))

    def test_polynomial_coefficient_validation(self):
        with pytest.raises(ValueError):
            FunctionSpec(FunctionKind.POLYNOMIAL, ())
        with pytest.raises(ValueError):
            FunctionSpec(FunctionKind.POLYNOMIAL, (0.5, 0.0))
        FunctionSpec(FunctionKind.POLYNOMIAL, (0.0,))  # constant zero is legal

    def test_shifted_drops_the_constant_term(self):
        f = FunctionSpec(FunctionKind.POLYNOMIAL, (3.0, 2.0))
        assert f.shifted(1.0) == 2.0
        assert f.shifted(0.0) == 0.0

    def test_json_roundtrip(self):
        f = FunctionSpec(FunctionKind.SIN, (0.3,))
        back = FunctionSpec.from_json(f.to_json())
        assert back == f


class TestAdmissibility:
    def test_polynomial_overflowing_on_the_scan_grid_is_an_input_error(self):
        s = hydrogen_point_spectrum(1.0, 1.0, 4)
        with pytest.raises(ValueError, match="overflows on the sign-scan grid"):
            f_condition_check(FunctionSpec(FunctionKind.POLYNOMIAL, (0.0, 1.0, 1e308)), s)

    def test_sign_scan_compares_signs_not_products(self):
        # g(x) = 1e300 (1 + x) is positive on the grid, but neighbouring
        # products overflow; the scan must neither warn nor find a sign change
        s = hydrogen_point_spectrum(1.0, 1.0, 4)
        report = f_condition_check(FunctionSpec(FunctionKind.POLYNOMIAL, (0.0, 1e300, 1e300)), s)
        assert report.admissible

    def test_exp_shift_matches_expm1(self):
        s = hydrogen_point_spectrum(1.0, 1.0, 4)
        report = f_condition_check(FunctionSpec(FunctionKind.EXP, (1.0,)), s)
        assert report.admissible
        np.testing.assert_allclose(
            report.shifted_values, np.expm1(-s.values), rtol=1e-12
        )
        assert report.shifted_values[0] == pytest.approx(0.6487212707001282, abs=1e-14)
        assert all(v > 0.0 for v in report.shifted_values)
        assert report.distinct_count == 4

    def test_sin_off_resonance_values(self):
        s = hydrogen_point_spectrum(1.0, 1.0, 4)
        report = f_condition_check(FunctionSpec(FunctionKind.SIN, (0.3,)), s)
        assert report.admissible
        # first value has the closed form -(1 + sqrt(5))/4
        assert report.shifted_values[0] == pytest.approx(
            -(1.0 + math.sqrt(5.0)) / 4.0, abs=1e-14
        )
        np.testing.assert_allclose(
            report.shifted_values,
            [-0.8090169943749475, -0.2334453638559054,
             -0.10452846326765346, -0.05887080365118903],
            atol=1e-14,
        )

    def test_sin_resonance_is_witnessed(self):
        s = hydrogen_point_spectrum(1.0, 1.0, 4)
        beta = 1.0 / (2.0 * s.values[0])  # puts 2 beta E_1 exactly at 1
        report = f_condition_check(FunctionSpec(FunctionKind.SIN, (beta,)), s)
        assert not report.admissible
        w = report.witnesses[0]
        assert w["reason"] == "sine resonance"
        assert w["eigenvalue_index"] == 1
        assert w["integer"] == 1
        assert w["eigenvalue"] == -0.5
        assert report.details["scanned_integer_range"] == 2

    def test_identity_polynomial_is_admissible(self):
        s = hydrogen_point_spectrum(1.0, 1.0, 4)
        report = f_condition_check(FunctionSpec(FunctionKind.POLYNOMIAL, (0.0, 1.0)), s)
        assert report.admissible
        np.testing.assert_allclose(report.shifted_values, s.values, rtol=0)

    def test_constant_polynomial_has_no_nonconstant_part(self):
        s = hydrogen_point_spectrum(1.0, 1.0, 3)
        report = f_condition_check(FunctionSpec(FunctionKind.POLYNOMIAL, (5.0,)), s)
        assert not report.admissible
        assert report.witnesses[0]["reason"] == "polynomial has no nonconstant part"

    def test_sign_change_on_the_grid_is_witnessed(self):
        s = hydrogen_point_spectrum(1.0, 1.0, 3)
        # g(x) = -1 + x flips sign inside the scanned window
        report = f_condition_check(
            FunctionSpec(FunctionKind.POLYNOMIAL, (0.0, -1.0, 0.5)), s
        )
        assert not report.admissible
        assert any("changes sign" in w["reason"] for w in report.witnesses)

    def test_root_beyond_the_grid_is_witnessed(self):
        s = hydrogen_point_spectrum(1.0, 1.0, 3)
        # g(x) = x - 7 is negative on the whole scanned window [0, 5];
        # only the root scan can see the zero crossing at 7
        report = f_condition_check(
            FunctionSpec(FunctionKind.POLYNOMIAL, (0.0, -7.0, 1.0)), s
        )
        assert not report.admissible
        w = next(w for w in report.witnesses if "root" in w)
        assert w["root"] == pytest.approx(7.0, rel=1e-9)

    @pytest.mark.parametrize("spec", [
        FunctionSpec(FunctionKind.EXP, (1e308,)),
        FunctionSpec(FunctionKind.SIN, (1e308,)),
    ])
    def test_overflowing_values_are_rejected_by_index(self, spec):
        s = hydrogen_point_spectrum(1.0, 1.0, 4)
        with pytest.raises(ValueError, match="overflows to .* at eigenvalue index 1 "):
            f_condition_check(spec, s)

    def test_requires_zero_accumulating_spectrum(self):
        s = DiscreteSpectrum(((1.0, 1), (2.0, 1)), Accumulation.TO_INFINITY)
        with pytest.raises(ValueError, match="accumulating at zero"):
            f_condition_check(FunctionSpec(FunctionKind.EXP, (1.0,)), s)

    def test_report_json_shape(self):
        s = hydrogen_point_spectrum(1.0, 1.0, 3)
        doc = f_condition_check(FunctionSpec(FunctionKind.EXP, (1.0,)), s).to_json()
        assert set(doc) == {
            "admissible", "witnesses", "shifted_values", "distinct_count", "details",
        }


class TestTransformForm:
    def test_identity_transform_matches_plain_assembly(self):
        s = hydrogen_point_spectrum(1.0, 1.0, 4)
        identity = FunctionSpec(FunctionKind.POLYNOMIAL, (0.0, 1.0))
        _, _, transformed = f_transform_form(identity, s)
        _, plain = assemble_uwform(s)
        assert len(transformed.blocks) == len(plain.blocks)
        for a, b in zip(transformed.blocks, plain.blocks):
            assert np.array_equal(a.evaluator, b.evaluator)

    def test_transformed_form_satisfies_the_ccr(self):
        s = hydrogen_point_spectrum(1.0, 1.0, 4)
        _, _, form = f_transform_form(FunctionSpec(FunctionKind.EXP, (1.0,)), s)
        rng = np.random.default_rng(8)
        worst = max(
            uw_ccr_residual(
                form,
                random_domain_vector(rng, form),
                random_domain_vector(rng, form),
            )
            for _ in range(20)
        )
        assert worst <= 1e-10

    def test_colliding_shifted_values_merge_multiplicities(self):
        s = DiscreteSpectrum(((-0.75, 1), (-0.25, 1)), Accumulation.TO_ZERO)
        quad = FunctionSpec(FunctionKind.POLYNOMIAL, (0.0, 1.0, 1.0))
        report, partition, form = f_transform_form(quad, s)
        # x + x^2 sends both eigenvalues to -0.1875
        assert report.distinct_count == 1
        assert form.total_dimension == 2
        assert len(form.blocks) == 2
        assert all(ch.dimension == 1 for ch in form.blocks)
        assert form.blocks[0].eigenvalues[0] == pytest.approx(-0.1875)

    def test_failing_condition_raises_with_report_attached(self):
        s = hydrogen_point_spectrum(1.0, 1.0, 4)
        resonant = FunctionSpec(FunctionKind.SIN, (-1.0,))
        with pytest.raises(AdmissibilityError) as err:
            f_transform_form(resonant, s)
        assert not err.value.report.admissible
        assert err.value.report.witnesses[0]["reason"] == "sine resonance"

    def test_returns_the_decomposition_of_the_merged_values(self):
        s = DiscreteSpectrum(((-0.75, 1), (-0.25, 2), (-0.1, 1)), Accumulation.TO_ZERO)
        quad = FunctionSpec(FunctionKind.POLYNOMIAL, (0.0, 1.0, 1.0))
        _, deco, form = f_transform_form(quad, s)
        # -0.75 and -0.25 both map to -0.1875, so their copies merge
        assert deco.values == pytest.approx((-0.1875, -0.09))
        assert deco.multiplicities == (3, 1)
        assert deco.channel_count == len(form.blocks)
        assert sum(len(ch) for ch in deco.channels) == form.total_dimension == 4
