import math

import numpy as np
import pytest

from timeops.cli import RunConfig, run
from timeops.contspec import (
    ExpCombination,
    GridState,
    _gauss_hermite,
    ab_apply,
    free_evolve,
    make_packet,
    s0_apply,
    s0_strong_relation_check,
    s0_symmetry_residual,
    weak_weyl_residual,
    weak_weyl_residuals,
)


def default_packet():
    return make_packet(50.0, 1024, 1.0, 0.0, 5.0, 2.0)


def narrow_packet(size):
    # resolution-limited packet: residuals sit far above the round-off
    # floor, so grid refinement actually shows
    return make_packet(50.0, size, 1.0, -19.0, 19.0, 0.3)


def reference_residual(state, t):
    """The weak Weyl residual composed from the public operators.

    Two evolutions and two applications of T per time, with no transform
    shared between times; the sweep must agree with it.
    """
    evolved = free_evolve(state, t)
    lhs = ab_apply(evolved).samples
    shifted = ab_apply(state).samples + t * state.samples
    rhs = free_evolve(state.with_samples(shifted), t).samples
    return state.with_samples(lhs - rhs).norm() / state.norm()


class TestGridState:
    def test_grid_axes(self):
        state = default_packet()
        assert state.dx == pytest.approx(100.0 / 1024)
        assert state.x[0] == -50.0
        assert state.k[0] == 0.0
        assert state.k[1] == pytest.approx(2.0 * math.pi / 100.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="power of two"):
            GridState(50.0, 24, 1.0, np.zeros(24))
        with pytest.raises(ValueError, match="power of two"):
            GridState(50.0, 8, 1.0, np.zeros(8))
        with pytest.raises(ValueError, match="half-width"):
            GridState(-1.0, 16, 1.0, np.zeros(16))
        with pytest.raises(ValueError, match="mass"):
            GridState(50.0, 16, 0.0, np.zeros(16))
        with pytest.raises(ValueError, match="sample count"):
            GridState(50.0, 16, 1.0, np.zeros(17))

    @pytest.mark.parametrize("field", ["box", "mass", "samples"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_fields(self, field, bad):
        box, mass, samples = 50.0, 1.0, np.ones(16, dtype=complex)
        if field == "box":
            box = bad
        elif field == "mass":
            mass = bad
        else:
            samples[3] = bad
        with pytest.raises(ValueError, match="finite"):
            GridState(box, 16, mass, samples)

    def test_samples_are_frozen(self):
        state = default_packet()
        with pytest.raises(ValueError):
            state.samples[0] = 1.0

    def test_inner_rejects_mismatched_grids(self):
        a = default_packet()
        b = make_packet(50.0, 512, 1.0, 0.0, 5.0, 2.0)
        with pytest.raises(ValueError, match="different grids"):
            a.inner(b)


class TestMakePacket:
    def test_packet_is_normalized(self):
        state = default_packet()
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert state.inner(state).real == pytest.approx(1.0, abs=1e-12)

    def test_zero_mode_mass_is_negligible(self):
        assert default_packet().zero_mode_mass() < 1e-10

    def test_translation_covariance(self):
        base = default_packet()
        shift = 64 * base.dx
        moved = make_packet(50.0, 1024, 1.0, shift, 5.0, 2.0)
        rolled = np.roll(base.samples, 64) * np.exp(1j * 5.0 * shift)
        np.testing.assert_allclose(moved.samples, rolled, atol=1e-12)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="width"):
            make_packet(50.0, 1024, 1.0, 0.0, 5.0, -2.0)

    def test_rejects_carrier_near_the_zero_mode(self):
        with pytest.raises(ValueError, match="carrier"):
            make_packet(50.0, 1024, 1.0, 0.0, 0.5, 2.0)

    @pytest.mark.parametrize("index", range(5))
    def test_rejects_non_finite_parameters(self, index):
        # box, mass, center, carrier, width; the grid size is an integer
        params = [50.0, 1.0, 0.0, 5.0, 2.0]
        params[index] = math.nan
        box, mass, center, carrier, width = params
        with pytest.raises(ValueError, match="finite"):
            make_packet(box, 1024, mass, center, carrier, width)

    def test_rejects_packet_touching_the_boundary(self):
        with pytest.raises(ValueError, match="six-sigma"):
            make_packet(50.0, 1024, 1.0, 45.0, 5.0, 2.0)


class TestAbApply:
    def test_linearity(self):
        a = default_packet()
        b = make_packet(50.0, 1024, 1.0, 3.0, 7.0, 1.5)
        za, zb = 0.8 - 0.1j, -0.4 + 1.2j
        combo = a.with_samples(za * a.samples + zb * b.samples)
        lhs = ab_apply(combo).samples
        rhs = za * ab_apply(a).samples + zb * ab_apply(b).samples
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_symmetry_between_packets(self):
        a = default_packet()
        b = make_packet(50.0, 1024, 1.0, 3.0, 7.0, 1.5)
        defect = abs(a.inner(ab_apply(b)) - ab_apply(a).inner(b))
        assert defect <= 1e-8

    def test_rejects_states_with_zero_mode_mass(self):
        flat = GridState(50.0, 64, 1.0, np.ones(64, dtype=complex))
        with pytest.raises(ValueError, match="zero-mode"):
            ab_apply(flat)

    def test_rejects_an_overflowing_spectrum(self):
        # finite samples whose spectral mass overflows: the zero-mode
        # fraction is inf/inf = NaN, which must fail the gate
        huge = GridState(50.0, 64, 1.0, np.full(64, 1e200, dtype=complex))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="zero-mode"):
                ab_apply(huge)
            with pytest.raises(ValueError, match="zero-mode"):
                weak_weyl_residuals(huge, [0.5])

    def test_stationary_phase_window(self):
        # On the window where the envelope is slowly varying, T acts like
        # multiplication by (m/k0) x to within a few percent.
        state = make_packet(80.0, 2048, 1.0, 10.0, 8.0, 4.0)
        applied = ab_apply(state).samples
        reference = (1.0 / 8.0) * state.x * state.samples
        window = np.abs(state.x - 10.0) <= 4.0
        err = np.linalg.norm((applied - reference)[window])
        err /= np.linalg.norm(reference[window])
        assert err <= 0.05


class TestFreeEvolution:
    def test_zero_time_is_the_identity(self):
        state = default_packet()
        np.testing.assert_allclose(
            free_evolve(state, 0.0).samples, state.samples, atol=1e-15
        )

    def test_norm_is_preserved(self):
        state = default_packet()
        assert free_evolve(state, 3.0).norm() == pytest.approx(1.0, abs=1e-13)

    def test_group_law(self):
        state = default_packet()
        two_step = free_evolve(free_evolve(state, 0.7), 0.3)
        one_step = free_evolve(state, 1.0)
        diff = np.linalg.norm(two_step.samples - one_step.samples) * math.sqrt(state.dx)
        assert diff <= 1e-12


class TestWeakWeyl:
    def test_zero_time_residual_is_round_off(self):
        assert weak_weyl_residual(default_packet(), 0.0) <= 1e-13

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_default_packet_meets_the_gate(self, t):
        assert weak_weyl_residual(default_packet(), t) <= 1e-6

    def test_refinement_reduces_the_residual(self):
        coarse = weak_weyl_residual(narrow_packet(1024), 0.5)
        fine = weak_weyl_residual(narrow_packet(2048), 0.5)
        assert coarse > 1e-7  # genuinely resolution-limited
        assert fine < coarse

    def test_rearranged_conjugation_form(self):
        # e^{itH} T e^{-itH} psi == (T + t) psi, same identity conjugated
        state = default_packet()
        t = 0.5
        lhs = free_evolve(ab_apply(free_evolve(state, t)), -t).samples
        rhs = ab_apply(state).samples + t * state.samples
        residual = np.linalg.norm(lhs - rhs) * math.sqrt(state.dx)
        assert residual / state.norm() <= 1e-6

    def test_escaping_packet_is_rejected(self):
        with pytest.raises(ValueError, match="box boundary"):
            weak_weyl_residual(default_packet(), 200.0)

    @pytest.mark.parametrize("state", [default_packet(), narrow_packet(1024), narrow_packet(2048)],
                             ids=["default-1024", "narrow-1024", "narrow-2048"])
    def test_sweep_matches_the_composed_reference(self, state):
        times = [0.0, 0.25, 0.5, 1.0]
        swept = weak_weyl_residuals(state, times)
        for t, r in zip(times, swept):
            assert abs(r - reference_residual(state, t)) <= 1e-14
        assert swept == [weak_weyl_residual(state, t) for t in times]

    def test_sweep_keeps_every_rejection(self):
        flat = GridState(50.0, 64, 1.0, np.ones(64, dtype=complex))
        with pytest.raises(ValueError, match="zero-mode"):
            weak_weyl_residuals(flat, [0.5])
        with pytest.raises(ValueError, match="box boundary"):
            weak_weyl_residuals(default_packet(), [0.5, 200.0])
        with pytest.raises(ValueError, match="nonzero"):
            weak_weyl_residuals(GridState(50.0, 64, 1.0, np.zeros(64)), [0.5])
        assert weak_weyl_residuals(default_packet(), []) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_sweep_rejects_non_finite_times(self, bad):
        with pytest.raises(ValueError, match="finite"):
            weak_weyl_residuals(default_packet(), [0.25, bad])
        with pytest.raises(ValueError, match="finite"):
            weak_weyl_residual(default_packet(), bad)

    @staticmethod
    def _abweyl(**grid):
        return run(RunConfig(model={}, pipeline={"kind": "abweyl", **grid}, tolerances={}))

    def test_sweep_matches_single_evaluations(self):
        # the abweyl pipeline's defaults describe default_packet()
        rows = self._abweyl(tmax=1.0, steps=4)["sweep"]
        assert [t for t, _ in rows] == pytest.approx([0.25, 0.5, 0.75, 1.0])
        for t, r in rows:
            assert r == weak_weyl_residual(default_packet(), t)

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            self._abweyl(tmax=1.0, steps=0)
        with pytest.raises(ValueError):
            self._abweyl(tmax=-1.0, steps=4)
        with pytest.raises(ValueError, match="finite tmax"):
            self._abweyl(tmax=math.nan, steps=4)


class TestGaussianDensity:
    """Gauss-Hermite quadrature against the reference density exp(-x^2)/sqrt(pi)."""

    def test_quadrature_weights_are_normalized(self):
        _, weights = _gauss_hermite(64)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_second_moment(self):
        nodes, weights = _gauss_hermite(64)
        assert np.sum(weights * nodes ** 2) == pytest.approx(0.5, abs=1e-12)


class TestS0Class:
    def test_constant_maps_to_minus_i_lambda(self):
        out = s0_apply(ExpCombination(terms=((1.0 + 0.0j, 0.0),)))
        ((a, b, s),) = out.terms
        assert a == 0.0 and b == -1.0j and s == 0.0
        lam = np.linspace(-2.0, 2.0, 9)
        np.testing.assert_allclose(out.evaluate(lam), -1j * lam, atol=1e-15)

    def test_plane_wave_picks_up_affine_factor(self):
        out = s0_apply(ExpCombination(terms=((1.0 + 0.0j, 1.0),)))
        ((a, b, s),) = out.terms
        assert (a, b, s) == (-1.0 + 0.0j, -1.0j, 1.0)
        lam = 0.7
        expected = (-1.0 - 1j * lam) * np.exp(1j * lam)
        assert out.evaluate(np.array([lam]))[0] == pytest.approx(expected, abs=1e-15)

    def test_empty_combination_rejected(self):
        with pytest.raises(ValueError):
            ExpCombination(terms=())

    def test_strong_relation_examples(self):
        exact, defect = s0_strong_relation_check(2.0, 3.0)
        assert exact and defect == 0.0
        exact, defect = s0_strong_relation_check(0.0, 0.0)
        assert exact and defect == 0.0

    def test_strong_relation_random_parameters(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            s, t = rng.uniform(-4.0, 4.0, 2)
            exact, defect = s0_strong_relation_check(s, t)
            assert exact, f"defect {defect} at (s={s}, t={t})"

    def test_symmetry_residual_plane_wave(self):
        f = ExpCombination(terms=((1.0 + 0.0j, 1.0),))
        assert s0_symmetry_residual(f, f) <= 1e-10

    def test_symmetry_residual_constant(self):
        f = ExpCombination(terms=((1.0 + 0.0j, 0.0),))
        assert s0_symmetry_residual(f, f) <= 1e-12

    def test_symmetry_residual_three_term_pair(self):
        f = ExpCombination(
            terms=((1.0 + 0.0j, -2.5), (0.3 - 0.2j, 1.1), (-0.7j, 4.0))
        )
        g = ExpCombination(
            terms=((0.2 + 0.0j, -4.0), (1.0j, 0.5), (0.5 + 0.0j, 3.3))
        )
        assert s0_symmetry_residual(f, g) <= 1e-9

    def test_order_below_the_floor_is_refused(self):
        f = ExpCombination(terms=((1.0 + 0.0j, 4.0),))
        with pytest.raises(ValueError, match="floor"):
            s0_symmetry_residual(f, f, order=32)

    def test_explicit_higher_order_is_accepted(self):
        f = ExpCombination(terms=((1.0 + 0.0j, 4.0),))
        assert s0_symmetry_residual(f, f, order=128) <= 1e-9
