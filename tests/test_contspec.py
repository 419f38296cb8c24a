import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timeops import contspec
from timeops.cli import RunConfig, run
from timeops.contspec import (
    S0_FREQUENCIES,
    S0_LATTICE,
    ExpCombination,
    GridState,
    _FourStep,
    _gauss_hermite,
    _multipliers,
    _phase,
    _required_order,
    _require_contained,
    _require_no_zero_mode,
    _s0_symmetry_matrix,
    _zero_mode_mass,
    make_packet,
    s0_apply,
    s0_strong_relation_check,
    s0_symmetry_bound,
    weak_weyl_residuals,
)

from dense_reference import affine_values, combination_values, density_reach, s0_symmetry_residual


def default_packet():
    return make_packet(50.0, 1024, 1.0, 0.0, 5.0, 2.0)


def narrow_packet(size):
    # resolution-limited packet: residuals sit far above the round-off
    # floor, so grid refinement actually shows
    return make_packet(50.0, size, 1.0, -19.0, 19.0, 0.3)


# ----------------------------------------------------------- references
#
# T and the free evolution composed in position space, one operator at a
# time.  The sweep fuses them in Fourier space and must agree with them.


def wavenumbers(state):
    """k = 2 pi fftfreq(N, dx), the grid's Fourier axis in natural order."""
    return 2.0 * np.pi * np.fft.fftfreq(state.size, d=state.dx)


def inner(a, b):
    """(a, b) on a shared grid, antilinear in a."""
    assert (a.size, a.box_half_width) == (b.size, b.box_half_width)
    return complex(np.vdot(a.samples, b.samples) * a.dx)


def _inverse_k(k):
    """1/k on a grid's Fourier axis, with the k = 0 mode dropped."""
    invk = np.zeros_like(k)
    nonzero = k != 0.0
    invk[nonzero] = 1.0 / k[nonzero]
    return invk


def _apply_t(psi, x, invk, mass):
    """T psi = (m/2)(x . ifft(fft(psi)/k) + ifft(fft(x psi)/k))."""
    hat = np.fft.fft(psi)
    _require_no_zero_mode(hat)
    second = np.fft.fft(x * psi)
    second *= invk
    hat *= invk
    out = np.fft.ifft(hat)
    out *= x
    out += np.fft.ifft(second)
    out *= mass / 2.0
    return out


def with_samples(state, samples):
    """The state's grid and mass with other samples."""
    return GridState(state.box_half_width, state.size, state.mass, samples)


def ab_apply(state):
    """T = (m/2)(x . 1/k + 1/k . x) in mixed position/Fourier form."""
    return with_samples(
        state, _apply_t(state.samples, state.x, _inverse_k(wavenumbers(state)), state.mass))


def free_evolve(state, t):
    """exp(-i t k^2 / 2m) in Fourier space; exactly unitary on the grid."""
    phase = np.exp(-1j * float(t) * wavenumbers(state) ** 2 / (2.0 * state.mass))
    return with_samples(state, np.fft.ifft(phase * np.fft.fft(state.samples)))


def weak_weyl_residual(state, t):
    """The one-time case of the sweep."""
    return weak_weyl_residuals(state, [t])[0]


def reference_residual(state, t):
    """The weak Weyl residual composed from the reference operators.

    Two evolutions and two applications of T per time, with no transform
    shared between times; the sweep must agree with it.
    """
    evolved = free_evolve(state, t)
    lhs = ab_apply(evolved).samples
    shifted = ab_apply(state).samples + t * state.samples
    rhs = free_evolve(with_samples(state, shifted), t).samples
    return with_samples(state, lhs - rhs).norm() / state.norm()


def reference_phase(energy, t):
    """exp(-i t E) from cos and sin over the whole axis."""
    angle = energy * -t
    phase = np.empty(angle.shape, dtype=complex)
    phase.imag = np.sin(angle)
    np.cos(angle, out=angle)
    phase.real = angle
    return phase


def reference_sweep(state, times):
    """The weak Weyl sweep on one-dimensional ``np.fft`` transforms.

    The same Fourier-space algebra as ``weak_weyl_residuals``, four
    transforms per grid and four per time, with k-space arrays in fftfreq
    order: operation for operation the sweep that the four-step one
    replaced, whose residuals it reproduces bit for bit.
    """
    x, k = state.x, wavenumbers(state)
    scale = np.divide(state.mass / 2.0, k, out=np.zeros_like(k), where=k != 0.0)
    energy = k ** 2 / (2.0 * state.mass)
    hat = np.fft.fft(state.samples)
    t_hat = np.fft.fft(x * np.fft.ifft(hat * scale)) + scale * np.fft.fft(x * state.samples)
    residuals = []
    for t in times:
        phase = reference_phase(energy, t)
        h_hat = phase * hat
        evolved = np.fft.ifft(h_hat)
        rhs = scale * np.fft.fft(x * evolved) - phase * t_hat - t * h_hat
        lhs = x * np.fft.ifft(scale * h_hat) + np.fft.ifft(rhs)
        residuals.append(math.sqrt(np.vdot(lhs, lhs).real * state.dx) / state.norm())
    return residuals


def transposed_order(plan):
    """The fftfreq index held at each position of ``plan``'s k-order."""
    n1, n2 = plan.shape
    return (np.arange(n1)[:, None] + n1 * np.arange(n2)).reshape(-1)


def reference_packet(box, size, mass, center, carrier, width):
    """make_packet's samples with the carrier from the complex exp, on the grid -L + j dx written out."""
    x = -box + (2.0 * box / size) * np.arange(size)
    psi = np.exp(1j * carrier * x) * np.exp(-((x - center) ** 2) / (2.0 * width ** 2))
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * (2.0 * box / size))
    return psi


class TestGridState:
    def test_grid_axes(self):
        state = default_packet()
        assert state.dx == pytest.approx(100.0 / 1024)
        assert state.x[0] == -50.0
        k = _FourStep(state.size).wavenumbers(state.dx)
        assert k[0, 0] == 0.0
        assert k[1, 0] == pytest.approx(2.0 * math.pi / 100.0)
        assert k[0, 1] == pytest.approx(2.0 * math.pi / 100.0 * k.shape[0])

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


class TestMakePacket:
    def test_packet_is_normalized(self):
        state = default_packet()
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert inner(state, state).real == pytest.approx(1.0, abs=1e-12)

    def test_zero_mode_mass_is_negligible(self):
        assert _zero_mode_mass(np.fft.fft(default_packet().samples)) < 1e-10

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

    @pytest.mark.parametrize("params,match", [
        ((1e308, 1024, 1.0, 0.0, 5.0, 2.0), "spacing"),
        ((50.0, 1024, 1.0, 0.0, 1e308, 2.0), "k0 x overflows"),
        ((1e200, 1024, 1.0, 0.0, 5.0, 2.0), r"\(x - x0\)\^2 overflows"),
        ((50.0, 1024, 1.0, 0.05, 4e10, 1e-10), "vanishes"),
        ((1e-300, 1024, 1.0, 0.0, 1e303, 1e-302), "underflows"),
    ], ids=["dx", "carrier", "envelope", "under-resolved", "width-underflow"])
    def test_rejects_grids_where_a_value_overflows(self, params, match):
        with pytest.raises(ValueError, match=match):
            make_packet(*params)

    @pytest.mark.parametrize("index", range(5))
    def test_rejects_non_finite_parameters(self, index):
        # box, mass, center, carrier, width; the grid size is an integer
        params = [50.0, 1.0, 0.0, 5.0, 2.0]
        params[index] = math.nan
        box, mass, center, carrier, width = params
        with pytest.raises(ValueError, match="finite"):
            make_packet(box, 1024, mass, center, carrier, width)

    @pytest.mark.parametrize("params", [(50.0, 1024, 1.0, 0.0, 5.0, 2.0),
                                        (50.0, 2048, 1.0, 7.0, -6.0, 1.5),
                                        (50.0, 4096, 2.5, -19.0, 19.0, 0.3)],
                             ids=["default", "negative-carrier", "narrow"])
    def test_carrier_matches_the_complex_exp_bit_for_bit(self, params):
        assert np.array_equal(make_packet(*params).samples, reference_packet(*params))

    def test_grid_points_are_the_state_axis(self):
        state = make_packet(50.0, 2048, 1.0, 7.0, -6.0, 1.5)
        assert np.array_equal(state.x, -50.0 + state.dx * np.arange(2048))

    def test_packet_holds_no_grid_vector_it_does_not_read(self):
        # psi and the state's copy of it, 32 bytes a point; a zero state built
        # for its x, and its copy of the zeros, once took 32 more
        size = 2 ** 16
        make_packet(50.0, size, 1.0, 0.0, 5.0, 2.0)
        tracemalloc.start()
        try:
            make_packet(50.0, size, 1.0, 0.0, 5.0, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * size

    def test_packet_validates_the_grid_before_allocating(self):
        # a size that is no power of two is refused before an N-point buffer exists
        with pytest.raises(ValueError, match="power of two"):
            make_packet(50.0, 10 ** 15 + 1, 1.0, 0.0, 5.0, 2.0)

    def test_rejects_packet_touching_the_boundary(self):
        with pytest.raises(ValueError, match="six-sigma"):
            make_packet(50.0, 1024, 1.0, 45.0, 5.0, 2.0)


class TestAbApply:
    def test_linearity(self):
        a = default_packet()
        b = make_packet(50.0, 1024, 1.0, 3.0, 7.0, 1.5)
        za, zb = 0.8 - 0.1j, -0.4 + 1.2j
        combo = with_samples(a, za * a.samples + zb * b.samples)
        lhs = ab_apply(combo).samples
        rhs = za * ab_apply(a).samples + zb * ab_apply(b).samples
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_symmetry_between_packets(self):
        a = default_packet()
        b = make_packet(50.0, 1024, 1.0, 3.0, 7.0, 1.5)
        defect = abs(inner(a, ab_apply(b)) - inner(ab_apply(a), b))
        assert defect <= 1e-8

    def test_rejects_states_with_zero_mode_mass(self):
        flat = GridState(50.0, 64, 1.0, np.ones(64, dtype=complex))
        with pytest.raises(ValueError, match="zero-mode"):
            ab_apply(flat)

    def test_rejects_an_overflowing_spectrum(self):
        # finite samples whose spectral mass overflows: the zero-mode
        # fraction is inf/inf = NaN, which must fail the gate
        huge = GridState(50.0, 64, 1.0, np.full(64, 1e200, dtype=complex))
        # the sweep refuses a norm that overflows first; this norm is finite
        # (1e154) while |psi^(0)|^2 = (6.4e154)^2 is not
        loud = GridState(50.0, 64, 1.0, np.full(64, 1e153, dtype=complex))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="zero-mode"):
                ab_apply(huge)
            with pytest.raises(ValueError, match="zero-mode"):
                weak_weyl_residuals(loud, [0.5])

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


#: Largest |four-step - np.fft| over max |np.fft| on random data; the
#: measured worst from 16 to 2^20 points is 6e-16.
TRANSFORM_BOUND = 4e-15


class TestFourStep:
    @pytest.mark.parametrize("size", [2 ** p for p in range(4, 21)])
    def test_matches_np_fft_in_transposed_order(self, size):
        rng = np.random.default_rng(size)
        data = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        original = data.copy()
        data.flags.writeable = False
        plan = _FourStep(size)
        n1, n2 = plan.shape
        assert n1 == min(256, 2 ** (int(math.log2(size)) // 2)) and n1 * n2 == size
        hat = plan.forward(data)
        reference = np.fft.fft(data)
        assert np.max(np.abs(hat - reference[transposed_order(plan)])) <= TRANSFORM_BOUND * np.max(np.abs(reference))
        hat.flags.writeable = False
        back = plan.inverse(hat)
        assert np.max(np.abs(back - data)) <= TRANSFORM_BOUND * np.max(np.abs(data))
        assert np.array_equal(data, original) and np.array_equal(hat, plan.forward(original))
        # in place gives the same bits
        work = original.copy()
        plan.forward(work, out=work)
        assert np.array_equal(work, hat)
        plan.inverse(work, out=work)
        assert np.array_equal(work, back)

    @pytest.mark.parametrize("size", [16, 2 ** 12, 2 ** 14, 2 ** 18])
    def test_a_new_a_separate_and_an_in_place_target_give_the_same_bits(self, size):
        rng = np.random.default_rng(size)
        data = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        original = data.copy()
        plan = _FourStep(size)
        for transform in (plan.forward, plan.inverse):
            new = transform(data)
            separate = np.empty_like(data)
            written = transform(data, out=separate)
            assert np.shares_memory(written, separate) and np.array_equal(separate, new)
            assert np.array_equal(data, original)
            work = data.copy()
            written = transform(work, out=work)
            assert np.shares_memory(written, work) and np.array_equal(work, new)


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

    @pytest.mark.parametrize("state", [default_packet(), narrow_packet(1024), narrow_packet(2048),
                                       make_packet(50.0, 2048, 1.0, 7.0, -6.0, 1.5)],
                             ids=["default-1024", "narrow-1024", "narrow-2048",
                                  "offcentre-negative-2048"])
    def test_sweep_matches_the_composed_reference(self, state):
        times = [0.0, 0.25, 0.5, 1.0]
        swept = weak_weyl_residuals(state, times)
        for t, r in zip(times, swept):
            assert abs(r - reference_residual(state, t)) <= 1e-14
        assert swept == [weak_weyl_residual(state, t) for t in times]

    @pytest.mark.parametrize("field", range(5))
    def test_containment_gate_fails_on_a_nan_moment(self, field):
        moments = [0.0, 5.0, 2.0, 0.0, 0.125]
        _require_contained(moments, 1.0, (0.0, 1.0), 50.0)
        moments[field] = math.nan
        with pytest.raises(ValueError, match="box boundary"):
            _require_contained(moments, 1.0, (0.0, 1.0), 50.0)

    def test_overflowing_moments_are_refused_as_such(self):
        # the norm is finite, but <p^2> overflows: the refusal names the amplitude, not the box
        loud = GridState(50.0, 1024, 1.0, 1e153 * default_packet().samples)
        with pytest.raises(ValueError, match=r"moments of the state are not finite \(largest \|psi\| 5\.311e\+152\)"):
            weak_weyl_residuals(loud, [0.5])
        # a hundredfold smaller, the same packet passes
        assert weak_weyl_residuals(GridState(50.0, 1024, 1.0, 1e151 * default_packet().samples), [0.5])[0] <= 1e-6

    @pytest.mark.parametrize("times", [[20.0], [-20.0], [0.5, 20.0], [5.0, 20.0, 1.0]])
    def test_a_packet_that_wraps_between_samples_is_refused(self, times):
        # at t = 20 the default packet's sampled reach is 43.3 < L, after
        # it crossed the periodic boundary; the closed form reads 143.3
        with pytest.raises(ValueError, match="box boundary"):
            weak_weyl_residuals(default_packet(), times)

    @pytest.mark.parametrize("state", [default_packet(), make_packet(50.0, 2048, 1.0, 7.0, -6.0, 1.5),
                                       make_packet(50.0, 2 ** 16, 1.0, 0.0, 5.0, 2.0)],
                             ids=["default-1024", "offcentre-negative-2048", "default-65536"])
    def test_closed_form_reach_matches_the_evolved_density(self, monkeypatch, state):
        # the moments the sweep hands its gate, read back through the unpatched gate
        calls = []
        monkeypatch.setattr(contspec, "_require_contained", lambda *args: calls.append(args))
        weak_weyl_residuals(state, [])
        ((moments, _, span, _),) = calls
        assert span == (0.0, 0.0)
        for t in (0.0, 0.25, 1.0, 2.0, 5.0):
            expected = density_reach(free_evolve(state, t).samples, state.x)
            # a gate at just above, then just below, the closed-form reach
            _require_contained(moments, state.mass, (t, t), expected * (1.0 + 1e-6))
            with pytest.raises(ValueError, match="box boundary") as refused:
                _require_contained(moments, state.mass, (t, t), expected * (1.0 - 1e-6))
            assert f"{expected:.3f}" in str(refused.value)

    def test_sweep_keeps_every_rejection(self):
        flat = GridState(50.0, 64, 1.0, np.ones(64, dtype=complex))
        with pytest.raises(ValueError, match="zero-mode"):
            weak_weyl_residuals(flat, [0.5])
        with pytest.raises(ValueError, match="box boundary"):
            weak_weyl_residuals(default_packet(), [0.5, 200.0])
        with pytest.raises(ValueError, match="nonzero"):
            weak_weyl_residuals(GridState(50.0, 64, 1.0, np.zeros(64)), [0.5])
        assert weak_weyl_residuals(default_packet(), []) == []

    @pytest.mark.parametrize("times", [[], [0.5], [0.25, 0.5, 0.75, 1.0]])
    def test_sweep_takes_four_ffts_per_grid_and_four_per_time(self, monkeypatch, times):
        state = default_packet()
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(kwargs.get("out"))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
        weak_weyl_residuals(state, times)
        # a four-step transform is two np.fft calls: columns, then rows
        assert len(calls) == 2 * (4 + 4 * len(times))
        # each writes into a buffer, not a new array
        assert all(out is not None for out in calls)

    @pytest.mark.parametrize("times", [[], [0.5], [0.25, 0.5, 0.75, 1.0], [0.125 * j for j in range(1, 41)]])
    def test_gates_run_once_per_call(self, monkeypatch, times):
        seen = {"_zero_mode_mass": 0, "_require_contained": 0}

        def counted(name):
            fn = getattr(contspec, name)

            def wrapper(*args):
                seen[name] += 1
                return fn(*args)
            return wrapper

        for name in seen:
            monkeypatch.setattr(contspec, name, counted(name))
        weak_weyl_residuals(default_packet(), times)
        assert seen == {"_zero_mode_mass": 1, "_require_contained": 1}

    @settings(max_examples=200, deadline=None)
    @given(t=st.floats(-1e6, 1e6, allow_nan=False),
           size=st.sampled_from([16, 1024, 2 ** 12]),
           box=st.floats(1e-3, 1e3), mass=st.floats(1e-3, 1e3))
    def test_the_phase_keeps_the_zero_mode_and_the_norm(self, t, size, box, mass):
        # why one zero-mode gate on psi^ covers every evolved state
        plan = _FourStep(size)
        _, energy = _multipliers(plan, GridState(box, size, mass, np.zeros(size)))
        phase = _phase(energy, t, np.empty(energy.shape), np.empty(size, dtype=complex))
        assert phase[0] == 1.0
        assert np.max(np.abs(np.abs(phase) - 1.0)) <= 2.0 * 2.0 ** -53

    @pytest.mark.parametrize("size", [16, 1024, 2 ** 19])
    def test_half_phase_equals_the_full_phase_bit_for_bit(self, size):
        # E on rows 0..n1/2 of the transposed order, mirrored, against the
        # phase over the whole fftfreq axis taken to that order
        plan = _FourStep(size)
        order = transposed_order(plan)
        for box, mass in ((50.0, 1.0), (80.0, 2.5)):
            state = GridState(box, size, mass, np.zeros(size))
            k = wavenumbers(state)
            scale, half = _multipliers(plan, state)
            assert np.array_equal(plan.wavenumbers(state.dx).reshape(-1), k[order])
            assert np.array_equal(scale, np.divide(mass / 2.0, k, out=np.zeros_like(k), where=k != 0.0)[order])
            full = k ** 2 / (2.0 * mass)
            for t in (0.25, 0.75, 1.0, -3.7):
                phase = _phase(half, t, np.empty(half.shape), np.empty(size, dtype=complex))
                assert np.array_equal(phase, reference_phase(full, t)[order])

    @pytest.mark.parametrize("state", [default_packet(), narrow_packet(2048),
                                       make_packet(50.0, 2 ** 16, 1.0, 0.0, 5.0, 2.0)],
                             ids=["default-1024", "narrow-2048", "default-65536"])
    def test_sweep_matches_the_one_dimensional_fft_sweep(self, state):
        times = [0.0, 0.25, 0.5, 1.0]
        for new, old in zip(weak_weyl_residuals(state, times), reference_sweep(state, times)):
            assert abs(new - old) <= 1e-14

    @pytest.mark.parametrize("mass,match", [(1e308, r"\(m/2\)/k overflows"),
                                            (5e-324, r"k\^2/2m overflows"),
                                            (1e300, "defect overflows")])
    def test_sweep_refuses_a_mass_that_overflows(self, mass, match):
        state = default_packet()
        state = GridState(state.box_half_width, state.size, mass, state.samples)
        with pytest.raises(ValueError, match=match):
            weak_weyl_residuals(state, [0.5])

    @staticmethod
    def _traced_peak(state, times):
        weak_weyl_residuals(state, times)
        tracemalloc.start()
        try:
            weak_weyl_residuals(state, times)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sweep_peak_memory_stays_at_the_parent_bound(self):
        # the six-FFT-per-time sweep this one replaced peaked at 7 865 984
        # traced bytes here (numpy 2.4): 7.5 complex grid vectors, 120 a point
        size = 2 ** 16
        state = make_packet(50.0, size, 1.0, 0.0, 5.0, 2.0)
        assert self._traced_peak(state, [0.25, 0.5, 0.75, 1.0]) <= 120 * size

    def test_sweep_peak_does_not_grow_with_the_number_of_times(self):
        # every time writes into the buffers made for the grid
        state = make_packet(50.0, 2 ** 16, 1.0, 0.0, 5.0, 2.0)
        one = self._traced_peak(state, [1.0])
        eight = self._traced_peak(state, [0.125 * j for j in range(1, 9)])
        assert abs(eight - one) <= 4096

    def test_sweep_refuses_a_state_whose_norm_overflows(self):
        # finite samples whose norm does not fit a float: refused by norm,
        # without a RuntimeWarning, before the zero-mode gate reads NaN
        state = default_packet()
        huge = GridState(50.0, 1024, 1.0, 1e160 * state.samples)
        with pytest.raises(ValueError, match="finite norm, not norm inf"):
            weak_weyl_residuals(huge, [0.5])

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

    def test_rule_is_built_once_per_order_and_read_only(self, monkeypatch):
        built = []
        hermgauss = np.polynomial.hermite.hermgauss
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", lambda n: built.append(n) or hermgauss(n))
        _gauss_hermite.cache_clear()
        try:
            nodes, weights = _gauss_hermite(64)
            assert _gauss_hermite(64)[0] is nodes
            _gauss_hermite(96)
            assert built == [64, 96]
            with pytest.raises(ValueError, match="read-only"):
                weights[0] = 0.0
            expected_nodes, expected_weights = hermgauss(64)
            assert np.array_equal(nodes, expected_nodes)
            assert np.array_equal(weights, expected_weights / math.sqrt(math.pi))
        finally:
            _gauss_hermite.cache_clear()

    def test_cached_rule_gives_the_uncached_certificate_bits(self, monkeypatch):
        cached = s0_symmetry_bound(S0_FREQUENCIES)

        def fresh(order):
            nodes, weights = np.polynomial.hermite.hermgauss(order)
            return nodes, weights / math.sqrt(math.pi)

        monkeypatch.setattr(contspec, "_gauss_hermite", fresh)
        assert s0_symmetry_bound(S0_FREQUENCIES) == cached


def float_strong_relation(s, t):
    """The strong relation on floats: fl(fl(s - t) + t) == s, which rounding alone can break."""
    return (s - t) + t == s


class TestS0Class:
    def test_constant_maps_to_minus_i_lambda(self):
        ((a, b, s),) = out = s0_apply(ExpCombination(terms=((1.0 + 0.0j, 0.0),)))
        assert a == 0.0 and b == -1.0j and s == 0.0
        lam = np.linspace(-2.0, 2.0, 9)
        np.testing.assert_allclose(affine_values(out, lam), -1j * lam, atol=1e-15)

    def test_plane_wave_picks_up_affine_factor(self):
        ((a, b, s),) = out = s0_apply(ExpCombination(terms=((1.0 + 0.0j, 1.0),)))
        assert (a, b, s) == (-1.0 + 0.0j, -1.0j, 1.0)
        lam = 0.7
        expected = (-1.0 - 1j * lam) * np.exp(1j * lam)
        assert affine_values(out, np.array([lam]))[0] == pytest.approx(expected, abs=1e-15)

    def test_empty_combination_rejected(self):
        with pytest.raises(ValueError):
            ExpCombination(terms=())

    def test_terms_keep_their_number_type(self):
        f = ExpCombination(terms=((Fraction(1, 3), Fraction(-7, 10)),))
        assert f.terms == ((Fraction(1, 3), Fraction(-7, 10)),)
        ((a, b, s),) = s0_apply(f)
        assert a == Fraction(7, 30) and type(a) is Fraction and s == Fraction(-7, 10)
        assert b == -1j / 3
        # converted only when evaluated
        assert combination_values(f, np.array([0.5]))[0] == (1 / 3) * np.exp(1j * -0.7 * 0.5)

    def test_strong_relation_examples(self):
        assert s0_strong_relation_check(2.0, 3.0) is True
        assert s0_strong_relation_check(0.0, 0.0) is True
        assert s0_strong_relation_check(Fraction(1, 3), Fraction(-2, 7)) is True

    def test_lattice_holds_zero_both_ends_and_a_non_dyadic_rational(self):
        assert len(S0_LATTICE) ** 2 <= 100
        assert {Fraction(0), Fraction(-4), Fraction(4)} <= set(S0_LATTICE)
        # a denominator that is not a power of two has no float
        assert any(v.denominator & (v.denominator - 1) for v in S0_LATTICE)
        assert all(s0_strong_relation_check(s, t) for s in S0_LATTICE for t in S0_LATTICE)

    def test_strong_relation_random_parameters(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            s, t = rng.uniform(-4.0, 4.0, 2)
            assert s0_strong_relation_check(s, t), f"(s={s}, t={t})"

    @pytest.mark.parametrize("draw", [
        # one-decimal values, and |t| up to 1e3 against |s| <= 4
        lambda rng: np.round(rng.uniform(-4.0, 4.0, 2), 1),
        lambda rng: (rng.uniform(-4.0, 4.0), rng.uniform(-1e3, 1e3)),
    ], ids=["one decimal", "large t"])
    def test_strong_relation_is_exact_where_floats_round(self, draw):
        rng = np.random.default_rng(2)
        pairs = [tuple(map(float, draw(rng))) for _ in range(1000)]
        assert all(s0_strong_relation_check(s, t) for s, t in pairs)
        # the same draws on floats: a third or more fail from rounding alone
        assert sum(not float_strong_relation(s, t) for s, t in pairs) > 300

    def test_strong_relation_fails_under_a_perturbed_map(self, monkeypatch):
        apply = contspec.s0_apply
        monkeypatch.setattr(contspec, "s0_apply", lambda f: tuple((2 * a, b, s) for a, b, s in apply(f)))
        assert s0_strong_relation_check(1.5, 0.0) is True   # t = 0 conjugates nothing
        assert s0_strong_relation_check(1.5, 0.1) is False
        assert s0_strong_relation_check(Fraction(1, 3), Fraction(-2, 7)) is False

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_strong_relation_refuses_non_finite_parameters(self, value):
        with pytest.raises((ValueError, OverflowError)):
            s0_strong_relation_check(value, 1.0)

    # the pair-by-pair reference that the certificate replaced, checked on its own

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


def closed_form_moments(freqs):
    """int exp(i w lambda) rho and int lambda exp(i w lambda) rho at w = s_k - s_j, as (j, k) matrices."""
    w = freqs[None, :] - freqs[:, None]
    m0 = np.exp(-w * w / 4.0)
    return m0, 0.5j * w * m0


class TestS0Certificate:
    """K = (YE)^H W E - E^H W (YE): the symmetry of Y on a frequency set, as one matrix."""

    def test_certificate_is_round_off_on_the_pipeline_frequencies(self):
        freqs = np.asarray(S0_FREQUENCIES)
        assert freqs.size == 33 and freqs[0] == -4.0 and freqs[-1] == 4.0
        k = _s0_symmetry_matrix(freqs)
        assert k.shape == (33, 33) and np.array_equal(k, -k.conj().T)
        assert 0.0 < s0_symmetry_bound(S0_FREQUENCIES) == np.linalg.norm(k) <= 1e-13

    def test_quadrature_moments_match_the_closed_forms(self):
        freqs = np.asarray(S0_FREQUENCIES)
        nodes, weights = _gauss_hermite(_required_order(4.0))
        basis = np.exp(1j * np.multiply.outer(nodes, freqs))
        m0, m1 = closed_form_moments(freqs)
        np.testing.assert_allclose(basis.conj().T @ (weights[:, None] * basis), m0, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(basis.conj().T @ ((weights * nodes)[:, None] * basis), m1, rtol=0.0, atol=1e-14)

    def test_the_exact_certificate_is_zero(self):
        # with the closed-form moments, (Y e_j, e_k) and (e_j, Y e_k) are both -(s_j + s_k)/2 e^{-w^2/4}
        freqs = np.asarray(S0_FREQUENCIES)
        a, b, _ = (np.array(part) for part in zip(*s0_apply(ExpCombination(tuple((1.0, s) for s in freqs)))))
        m0, m1 = closed_form_moments(freqs)
        exact = (a.conj()[:, None] * m0 + b.conj()[:, None] * m1) - (a[None, :] * m0 + b[None, :] * m1)
        assert np.max(np.abs(exact)) <= 4.0 * np.finfo(float).eps


#: Terms (frequency index, coefficient); a coefficient of magnitude at least 1e-3 keeps the bound clear of underflow.
_COMBINATION = st.lists(
    st.tuples(st.integers(0, len(S0_FREQUENCIES) - 1),
              st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0, allow_infinity=False, allow_nan=False)),
    min_size=1, max_size=4, unique_by=lambda term: term[0],
)


class TestS0CertificateFuzz:
    """The certificate bounds the pair-by-pair reference for every pair of combinations on its frequencies."""

    @settings(max_examples=200, deadline=None)
    @given(_COMBINATION, _COMBINATION)
    def test_reference_residual_stays_under_the_certificate(self, f_terms, g_terms):
        bound = s0_symmetry_bound(S0_FREQUENCIES)

        def combination(terms):
            norm = math.hypot(*(abs(c) for _, c in terms))
            return ExpCombination(tuple((c, S0_FREQUENCIES[j]) for j, c in terms)), norm

        (f, c_norm), (g, d_norm) = combination(f_terms), combination(g_terms)
        assert s0_symmetry_residual(f, g) <= bound * c_norm * d_norm
