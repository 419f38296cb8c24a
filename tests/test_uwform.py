import math
import tracemalloc

import numpy as np
import pytest

from dataclasses import dataclass, replace

from timeops import timeop, uwform
from timeops.cli import DEFAULT_TOLERANCES
from timeops.decompose import decompose_spectrum
from timeops.spectra import Accumulation, DiscreteSpectrum, hydrogen_point_spectrum
from timeops.timeop import ChannelStack, MatrixKind
from timeops.uwform import (
    CCR_DOMAIN_RTOL,
    UNIT_NORM_ATOL,
    AdmissibilityError,
    FunctionKind,
    FunctionSpec,
    assemble_uwform,
    describe_domains,
    f_condition_check,
    f_transform_form,
    uncertainty_sweep,
    uw_ccr_channel_sweep,
    uw_ccr_sweep,
)

from dense_reference import complex_apply, complex_evaluator_stack, form_evaluator
from recording_rng import RecordingRng


def form_of(*channels):
    """Ultra-weak form of a direct sum of channels, one per eigenvalue list."""
    return ChannelStack(channels, MatrixKind.FORM)


def with_groups(form, groups):
    """``form`` with its groups swapped for ``groups``, stacks and eigenvalues as given."""
    changed = object.__new__(ChannelStack)
    for name, value in (("kind", form.kind), ("eigenvalues", form.eigenvalues), ("groups", tuple(groups)),
                        ("total_dimension", form.total_dimension)):
        object.__setattr__(changed, name, value)
    return changed


def channel_evaluators(form):
    """Each channel's evaluator iR, read from its group's row; a dimension-1 channel's is zero."""
    evaluators = [np.zeros((1, 1), dtype=complex)] * len(form.eigenvalues)
    for g in form.groups:
        for block, r in zip(g.blocks, g.stack):
            evaluators[block] = 1j * r
    return evaluators


def channel_form(form, i):
    """Channel ``i`` of ``form`` as a one-channel form of its own."""
    return form_of(form.eigenvalues[i])


def pieces(form, v):
    """The channel slices of a whole-form vector, after checking its length."""
    if v.shape != (form.total_dimension,):
        raise ValueError("vector length does not match the form dimension")
    return np.split(v, np.cumsum([ev.size for ev in form.eigenvalues])[:-1])


# ------------------------------------------------ per-vector references
#
# The per-vector functions the batched sweep kernels replaced, operation
# for operation: one vector, one block, one np.vdot at a time.


def project_channel(e, v):
    """One channel's two-pass projection onto its commutation domain, e its eigenvalues."""
    if e.size == 1:
        # the constraint kills everything; avoid leaving round-off dust
        return np.zeros_like(v)
    w = v - (np.dot(e, v) / np.dot(e, e)) * e
    return w - (np.dot(e, w) / np.dot(e, e)) * e


def evaluate_form(form, phi, psi):
    """t[phi, psi], antilinear in phi, summed block by block."""
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    total = 0.0 + 0.0j
    for a, phi_i, psi_i in zip(channel_evaluators(form), pieces(form, phi), pieces(form, psi)):
        total += np.vdot(phi_i, a @ psi_i)
    return complex(total)


def in_ccr_domain(form, v):
    """Whether every block piece of v is orthogonal to its eigenvalue vector."""
    vec = np.asarray(v, dtype=complex)
    whole = float(np.linalg.norm(vec))
    for e, piece in zip(form.eigenvalues, pieces(form, vec)):
        scale = float(np.linalg.norm(e)) * whole
        # written so that NaN fails
        if not abs(complex(np.dot(e, piece))) <= CCR_DOMAIN_RTOL * max(scale, 1e-300):
            return False
    return True


def require_ccr_domain(form, v):
    if not in_ccr_domain(form, v):
        raise ValueError("vector lies outside the form's commutation domain")


def project_to_ccr_domain(form, v):
    """Project v onto the commutation domain, block by block."""
    vec = np.asarray(v, dtype=complex)
    return np.concatenate([project_channel(e, p) for e, p in zip(form.eigenvalues, pieces(form, vec))])


def random_domain_vector(rng, form):
    """Seeded random unit vector in the commutation domain; a near-zero projection is redrawn."""
    if all(e.size < 2 for e in form.eigenvalues):
        raise ValueError("the commutation domain is trivial: no channel has dimension 2 or more")
    dim = form.total_dimension
    while True:
        v = rng.uniform(-1.0, 1.0, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
        v = project_to_ccr_domain(form, v)
        norm = float(np.linalg.norm(v))
        if norm > 1e-8:
            return v / norm


def uw_ccr_residual(form, phi, psi):
    """|t[H phi, psi] - t[phi, H psi] + i (phi, psi)| on the form domain."""
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    require_ccr_domain(form, phi)
    require_ccr_domain(form, psi)
    h = np.concatenate(form.eigenvalues)
    lhs = evaluate_form(form, h * phi, psi)
    rhs = evaluate_form(form, phi, h * psi)
    return abs(lhs - rhs + 1j * np.vdot(phi, psi))


@dataclass(frozen=True)
class UncertaintyResult:
    value: float
    imaginary_part: float


def uncertainty_check(form, psi, a=0.0, b=0.0):
    """(t - a)[(H - b) psi, psi] for a unit domain vector psi."""
    psi = np.asarray(psi, dtype=complex)
    if abs(float(np.linalg.norm(psi)) - 1.0) > UNIT_NORM_ATOL:
        raise ValueError("psi must be a unit vector")
    require_ccr_domain(form, psi)
    shifted = np.concatenate(form.eigenvalues) * psi - float(b) * psi
    z = complex(evaluate_form(form, shifted, psi) - float(a) * np.vdot(shifted, psi))
    return UncertaintyResult(value=abs(z), imaginary_part=z.imag)


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
        (r,) = form_of([-1.0, -0.31, -0.17, -0.056]).groups[0].stack
        assert r.dtype == np.float64
        assert np.array_equal(r, -r.T)
        a = 1j * r
        assert np.array_equal(a, a.conj().T)

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
        with pytest.raises(ValueError, match="nonzero"):
            form_of([-1.0, 0.0])
        with pytest.raises(ValueError, match="nonzero"):
            form_of([-1.0, -0.5], [0.0])
        with pytest.raises(ValueError, match="increasing"):
            form_of([-0.5, -1.0])
        with pytest.raises(ValueError, match="finite"):
            form_of([-0.5, -0.25], [math.nan])
        with pytest.raises(ValueError, match="nonempty"):
            form_of([-0.5, -0.25], [])
        with pytest.raises(ValueError, match="at least one channel"):
            form_of()

    def test_rejects_an_overflowing_evaluator(self):
        # 1/E^2 overflows; the evaluator would hold inf and NaN entries
        with pytest.raises(ValueError, match="not finite"):
            form_of([-0.5, -0.25], [-3e-170, -2e-170, -1e-170])
        # a channel of dimension 1 has a trivial domain and no evaluator to overflow
        assert [g.blocks.tolist() for g in form_of([-0.5, -0.25], [-1e-170]).groups] == [[0]]


class TestCommutationDomain:
    def test_one_dimensional_projection_is_exactly_zero(self):
        v = np.array([0.3 + 0.7j])
        assert np.all(project_channel(np.array([-0.04]), v) == 0.0)

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
        v[:3] = random_domain_vector(np.random.default_rng(2), channel_form(form, 0))
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


def reference_uw_ccr_sweep(rng, form, count):
    """The hand-written pair loop the sweep kernel replaced."""
    worst = 0.0
    for _ in range(count):
        phi = random_domain_vector(rng, form)
        psi = random_domain_vector(rng, form)
        worst = max(worst, uw_ccr_residual(form, phi, psi))
    return worst


def reference_uncertainty_sweep(rng, form, count):
    """The hand-written uncertainty loop the sweep kernel replaced.

    The centers scale with the form: a with its largest |R| entry, b with
    its largest |E|, over the channels of dimension 2 or more.
    """
    r_max = max(float(np.max(np.abs(g.stack))) for g in form.groups)
    e_max = max(float(np.max(np.abs(g.eigenvalues))) for g in form.groups)
    min_value = math.inf
    im_defect = 0.0
    for _ in range(count):
        a = float(rng.uniform(-2.0, 2.0)) * r_max
        b = float(rng.uniform(-2.0, 2.0)) * e_max
        psi = random_domain_vector(rng, form)
        res = uncertainty_check(form, psi, a, b)
        min_value = min(min_value, res.value)
        im_defect = max(im_defect, abs(res.imaginary_part + 0.5))
    return min_value, im_defect


def reference_channel_sweep(form, seed, count):
    """The CLI's per-channel loop: one generator and ``count`` pairs per channel of dimension >= 2."""
    return {
        i: reference_uw_ccr_sweep(np.random.default_rng(seed + i), channel_form(form, i), count)
        for i, e in enumerate(form.eigenvalues) if e.size >= 2
    }


def _channel_rngs(form, seed, factory=np.random.default_rng):
    return {i: factory(seed + i) for i, e in enumerate(form.eigenvalues) if e.size >= 2}


def _sweep_cases():
    s = hydrogen_point_spectrum(1.0, 1.0, 4)
    _, hydrogen = assemble_uwform(s)
    _, _, transformed = f_transform_form(FunctionSpec(FunctionKind.SIN, (0.3,)), s)
    return {"hydrogen": hydrogen, "channel": channel_form(hydrogen, 0), "sin": transformed}


#: The batched kernels sum in another order than the per-vector loops;
#: both sit at the round-off floor, far under the 1e-10 tolerances.
AGREEMENT = 1e-13

TRANSFORMS = {
    "none": None,
    "exp": FunctionSpec(FunctionKind.EXP, (1.0,)),
    "identity": FunctionSpec(FunctionKind.POLYNOMIAL, (0.0, 1.0)),
    "sin": FunctionSpec(FunctionKind.SIN, (0.3,)),
}


def _hydrogen_form(n_max, transform):
    s = hydrogen_point_spectrum(1.0, 1.0, n_max)
    if TRANSFORMS[transform] is None:
        return assemble_uwform(s)[1]
    return f_transform_form(TRANSFORMS[transform], s)[2]


def planted_uncertainty_draw(form, seed, count):
    """The uncertainty sweep's draw for ``count`` checks, each center a planted where Re z = 0.

    z = t[(H - b) psi, psi] - a <(H - b) psi, psi> with a real second
    factor, so a = Re t[(H - b) psi, psi] / <(H - b) psi, psi> leaves
    z = i Im z: the bound |z| >= 1/2 at its edge.  psi and b come from
    the draw as the sweep reads it, through the per-vector references.
    """
    n = form.total_dimension
    draw = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, 2 + 2 * n))
    a_span = 2.0 * max(float(np.max(g.scale)) for g in form.groups)
    b_span = 2.0 * max(float(np.max(np.abs(g.eigenvalues))) for g in form.groups)
    h = np.concatenate(form.eigenvalues)
    for row in draw:
        psi = project_to_ccr_domain(form, row[2:2 + n] + 1j * row[2 + n:])
        psi /= np.linalg.norm(psi)
        shifted = h * psi - b_span * row[1] * psi
        row[0] = evaluate_form(form, shifted, psi).real / np.vdot(shifted, psi).real / a_span
    return draw


class TestSweepKernels:
    @pytest.mark.parametrize("case", ["hydrogen", "channel", "sin"])
    def test_uw_ccr_sweep_matches_the_loop(self, case):
        form = _sweep_cases()[case]
        expected = reference_uw_ccr_sweep(np.random.default_rng(11), form, 20)
        assert uw_ccr_sweep(np.random.default_rng(11), form, 20) == pytest.approx(expected, abs=AGREEMENT)
        assert expected <= 1e-10

    @pytest.mark.parametrize("case", ["hydrogen", "channel", "sin"])
    def test_uncertainty_sweep_matches_the_loop(self, case):
        form = _sweep_cases()[case]
        expected = reference_uncertainty_sweep(np.random.default_rng(13), form, 20)
        got = uncertainty_sweep(np.random.default_rng(13), form, 20)
        assert got == pytest.approx(expected, abs=AGREEMENT)

    @pytest.mark.parametrize("n_max", [4, 16])
    @pytest.mark.parametrize("transform", list(TRANSFORMS))
    def test_kernels_match_the_references_under_tolerance(self, n_max, transform):
        form = _hydrogen_form(n_max, transform)
        pairs = 20 if n_max == 4 else 8
        checks = [(uw_ccr_sweep(np.random.default_rng(1), form, pairs),
                   reference_uw_ccr_sweep(np.random.default_rng(1), form, pairs))]
        per_channel = uw_ccr_channel_sweep(_channel_rngs(form, 100), form, 2)
        for i, expected in reference_channel_sweep(form, 100, 2).items():
            checks.append((per_channel[i], expected))
        for got, expected in checks:
            assert got == pytest.approx(expected, abs=AGREEMENT)
            assert max(got, expected) <= 1e-10
        (low, im), (ref_low, ref_im) = (uncertainty_sweep(np.random.default_rng(3), form, pairs),
                                        reference_uncertainty_sweep(np.random.default_rng(3), form, pairs))
        # |z| grows with the centers, which scale with the form: its agreement is relative
        assert low == pytest.approx(ref_low, rel=AGREEMENT, abs=AGREEMENT) and im == pytest.approx(ref_im, abs=AGREEMENT)
        assert min(low, ref_low) >= 0.5 - 1e-10 and max(im, ref_im) <= 1e-10

    def test_draws_match_the_loop_bit_for_bit(self, monkeypatch):
        form = _sweep_cases()["hydrogen"]
        raw = []
        whole_rows = uwform._whole_rows
        monkeypatch.setattr(uwform, "_whole_rows", lambda groups, v, redraw: raw.append(v) or whole_rows(groups, v, redraw))

        batched = RecordingRng(5)
        uw_ccr_sweep(batched, form, 6)
        looped = RecordingRng(5)
        reference_uw_ccr_sweep(looped, form, 6)
        assert np.array_equal(batched.stream(), looped.stream())
        assert batched.calls == 1
        # the pairs, as projected: phi of every pair, then psi of every pair
        vectors = looped.stream().reshape(6, 2, 2, -1)
        assert np.array_equal(raw[0], vectors[:, 0, 0] + 1j * vectors[:, 0, 1])
        assert np.array_equal(raw[1], vectors[:, 1, 0] + 1j * vectors[:, 1, 1])

    def test_uncertainty_draws_match_the_loop_bit_for_bit(self):
        form = _sweep_cases()["sin"]
        batched = RecordingRng(6)
        uncertainty_sweep(batched, form, 9)
        looped = RecordingRng(6)
        reference_uncertainty_sweep(looped, form, 9)
        rows = batched.stream().reshape(9, -1)
        centers = rows[:, :2] * 2.0   # drawn from [-1, 1], used doubled
        expected = looped.stream().reshape(9, -1)
        assert np.array_equal(centers, expected[:, :2])
        assert np.array_equal(rows[:, 2:], expected[:, 2:])

    def test_channel_draws_match_the_loop_bit_for_bit(self):
        form = _sweep_cases()["hydrogen"]
        batched = _channel_rngs(form, 40, RecordingRng)
        uw_ccr_channel_sweep(batched, form, 3)
        looped = _channel_rngs(form, 40, RecordingRng)
        for i, rng in looped.items():
            reference_uw_ccr_sweep(rng, channel_form(form, i), 3)
            assert np.array_equal(batched[i].stream(), rng.stream())
            assert batched[i].calls == 1

    def test_uncertainty_bound_is_checked_at_its_edge(self):
        tol = DEFAULT_TOLERANCES
        form = _hydrogen_form(16, "none")
        # random centers keep |z| far above 1/2; planted ones put it on the bound
        assert uncertainty_sweep(np.random.default_rng(4), form, 10)[0] > 10.0
        low, _ = uncertainty_sweep(RecordingRng(4, {0: planted_uncertainty_draw(form, 4, 10)}), form, 10)
        assert abs(low - 0.5) <= tol["im_identity"]
        # T scaled by 1 - 4 slack: Im z = -(1 - 4 slack)/2, so |z| can fall 2 slack under 1/2
        shrink = 1.0 - 4.0 * tol["uncertainty_slack"]
        shrunk = with_groups(form, [replace(g, stack=g.stack * shrink) for g in form.groups])
        assert uncertainty_sweep(np.random.default_rng(4), shrunk, 10)[0] >= 0.5 - tol["uncertainty_slack"]
        low, _ = uncertainty_sweep(RecordingRng(4, {0: planted_uncertainty_draw(shrunk, 4, 10)}), shrunk, 10)
        assert low < 0.5 - tol["uncertainty_slack"]
        assert low == pytest.approx(0.5 * shrink, abs=tol["im_identity"])

    def test_long_sweeps_run_in_chunks_of_the_same_stream(self, monkeypatch):
        form = _sweep_cases()["hydrogen"]

        def sweeps():
            rngs = (RecordingRng(4), RecordingRng(5), _channel_rngs(form, 6, RecordingRng))
            values = (uw_ccr_sweep(rngs[0], form, 7), *uncertainty_sweep(rngs[1], form, 7),
                      *uw_ccr_channel_sweep(rngs[2], form, 7))
            return values, rngs

        whole, whole_rngs = sweeps()
        monkeypatch.setattr(timeop, "SWEEP_CHUNK", 2 * form.total_dimension)
        chunked, chunked_rngs = sweeps()
        assert chunked == pytest.approx(whole, abs=AGREEMENT)
        assert [r.calls for r in chunked_rngs[:2]] == [4, 4] and [r.calls for r in whole_rngs[:2]] == [1, 1]
        for a, b in zip([*whole_rngs[:2], *whole_rngs[2].values()], [*chunked_rngs[:2], *chunked_rngs[2].values()]):
            assert np.array_equal(a.stream(), b.stream())
        assert all(r.calls > 1 for r in chunked_rngs[2].values())

    def test_chunks_hold_at_most_the_budget_or_one_wider_row(self, monkeypatch):
        monkeypatch.setattr(timeop, "SWEEP_CHUNK", 10)
        assert list(uwform._chunks(3, 7)) == [(0, 3), (3, 6), (6, 7)]
        assert list(uwform._chunks(5, 4)) == [(0, 2), (2, 4)]
        assert list(uwform._chunks(10, 2)) == [(0, 1), (1, 2)]
        assert list(uwform._chunks(20, 3)) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("transform", ["none", "sin"])
    def test_an_assembled_form_is_swept_without_copying_its_evaluators(self, transform, monkeypatch):
        form = _hydrogen_form(8, transform)
        dims = [g.eigenvalues.shape[1] for g in form.groups]
        assert len(dims) == len(set(dims)) == len({e.size for e in form.eigenvalues} - {1})
        assert all(not g.stack.flags.writeable for g in form.groups)
        # every other channel, built again: the same rows in new stacks
        sparse = form_of(*form.eigenvalues[::2])
        old = channel_evaluators(form)[::2]
        assert all(np.array_equal(a, b) for a, b in zip(channel_evaluators(sparse), old))
        expected = reference_uw_ccr_sweep(np.random.default_rng(14), sparse, 4)
        monkeypatch.setattr(timeop, "_build_stack", None)   # a sweep builds no evaluator
        assert uw_ccr_sweep(np.random.default_rng(14), sparse, 4) == pytest.approx(expected, abs=AGREEMENT)

    def test_channel_sweep_reads_zero_on_one_dimensional_blocks(self):
        form = form_of([-1.0, -0.5], [-0.3], [-0.25, -0.125, -0.1])
        worst = uw_ccr_channel_sweep(_channel_rngs(form, 0), form, 4)
        assert worst.shape == (3,) and worst[1] == 0.0
        assert 0.0 < worst[0] <= 1e-10 and 0.0 < worst[2] <= 1e-10
        trivial = form_of([-1.0], [-0.5])
        assert np.array_equal(uw_ccr_channel_sweep({}, trivial, 4), [0.0, 0.0])

    def test_empty_sweeps_are_rejected(self):
        form = form_of([-1.0, -0.5])
        with pytest.raises(ValueError, match="checks nothing"):
            uw_ccr_sweep(np.random.default_rng(0), form, 0)
        with pytest.raises(ValueError, match="checks nothing"):
            uncertainty_sweep(np.random.default_rng(0), form, 0)
        with pytest.raises(ValueError, match="checks nothing"):
            uw_ccr_channel_sweep(_channel_rngs(form, 0), form, 0)

    @pytest.mark.parametrize("channels", [([-1.0],), ([-1.0], [-0.5], [-0.25])])
    def test_trivial_domains_are_rejected(self, channels):
        form = form_of(*channels)
        with pytest.raises(ValueError, match="trivial"):
            uw_ccr_sweep(np.random.default_rng(0), form, 1)
        with pytest.raises(ValueError, match="trivial"):
            uncertainty_sweep(np.random.default_rng(0), form, 1)

    def test_a_nan_residual_propagates(self):
        # a NaN evaluator entry makes every residual it touches NaN, never a pass
        form = form_of([-1.0, -0.5, -0.25], [-0.2, -0.1])
        d3, d2 = form.groups
        poisoned = d2.stack.copy()
        poisoned[0, 0, 1] = math.nan
        form = with_groups(form, [d3, replace(d2, stack=poisoned)])
        assert math.isnan(uw_ccr_sweep(np.random.default_rng(0), form, 3))
        worst = uw_ccr_channel_sweep(_channel_rngs(form, 0), form, 3)
        assert worst[0] <= 1e-10 and math.isnan(worst[1])
        assert all(math.isnan(x) for x in uncertainty_sweep(np.random.default_rng(0), form, 3))

    @pytest.mark.parametrize("perturbed_part", ["evaluators", "eigenvalues"])
    def test_a_perturbed_channel_fails_every_gate(self, perturbed_part):
        # an evaluator entry off by a relative 1e-6, or an eigenvalue of H by 1e-9:
        # the identities no longer hold, and only the perturbed channel fails on its own
        tol = DEFAULT_TOLERANCES
        form = _sweep_cases()["hydrogen"]
        k = next(k for k, g in enumerate(form.groups) if len(g.blocks) > 1)
        groups = list(form.groups)
        field = "stack" if perturbed_part == "evaluators" else "eigenvalues"
        changed = getattr(groups[k], field).copy()
        if field == "stack":
            changed[1, 0, 1] *= 1.0 + 1e-6
        else:
            changed[1, 1] *= 1.0 + 1e-9
        groups[k] = replace(groups[k], **{field: changed})
        perturbed = with_groups(form, groups)
        target = groups[k].blocks[1]
        assert uw_ccr_sweep(np.random.default_rng(0), form, 20) <= tol["uw_ccr"]
        assert uw_ccr_sweep(np.random.default_rng(0), perturbed, 20) > tol["uw_ccr"]
        assert uncertainty_sweep(np.random.default_rng(1), form, 20)[1] <= tol["im_identity"]
        assert uncertainty_sweep(np.random.default_rng(1), perturbed, 20)[1] > tol["im_identity"]
        worst = uw_ccr_channel_sweep(_channel_rngs(perturbed, 2), perturbed, 20)
        assert worst[target] > tol["uw_ccr"]
        assert np.all(np.delete(worst, target) <= tol["uw_ccr"])

    def test_a_nan_vector_is_refused(self):
        form = form_of([-1.0, -0.5, -0.25], [-0.2, -0.1])
        nan_draw = np.full((2, 2, 2, 5), 0.5)
        nan_draw[1, 0, 1, 3] = math.nan
        with pytest.raises(ValueError, match="commutation domain"):
            uw_ccr_sweep(RecordingRng(0, {0: nan_draw}), form, 2)
        channel_draw = np.full((2, 2, 2, 3), 0.5)
        channel_draw[0, 1, 0, 2] = math.nan
        rngs = {0: RecordingRng(0, {0: channel_draw}), 1: RecordingRng(1)}
        with pytest.raises(ValueError, match="commutation domain"):
            uw_ccr_channel_sweep(rngs, form, 2)
        unc_draw = np.full((2, 12), 0.5)
        unc_draw[1, 4] = math.nan
        with pytest.raises(ValueError, match="commutation domain"):
            uncertainty_sweep(RecordingRng(0, {0: unc_draw}), form, 2)

    def test_a_near_zero_projection_is_redrawn_after_the_batch(self):
        # pair 0's phi is parallel to the eigenvalue vector: its projection is round-off
        form = form_of([-1.0, -0.5, -0.25])
        draw = np.random.default_rng(9).uniform(-1.0, 1.0, (2, 2, 2, 3))
        draw[0, 0, 0] = form.eigenvalues[0]
        draw[0, 0, 1] = 0.0
        rng = RecordingRng(3, {0: draw})
        assert uw_ccr_sweep(rng, form, 2) <= 1e-10
        assert rng.calls == 3   # the batch, then one redraw: real, imaginary
        rngs = {0: RecordingRng(3, {0: draw})}
        assert uw_ccr_channel_sweep(rngs, form, 2)[0] <= 1e-10
        assert rngs[0].calls == 3

    def test_batched_domain_check_anchors_to_the_whole_row(self):
        form = form_of([-1.0, -0.5, -0.25], [-0.2, -0.1])
        groups = form.groups
        v = np.zeros((1, 5), dtype=complex)
        v[0, :3] = random_domain_vector(np.random.default_rng(2), channel_form(form, 0))
        units = [v[:, g.index].transpose(1, 0, 2) for g in groups]
        norms = [uwform._whole_norms(units)] * len(groups)
        uwform._require_domain(groups, units, norms)
        units[1][0, 0] = [1e-3, 0.0]
        with pytest.raises(ValueError, match="commutation domain"):
            uwform._require_domain(groups, units, norms)
        units[1][0, 0] = [1e-12, 0.0]
        uwform._require_domain(groups, units, norms)
        units[0][0, 0, 1] = math.nan
        with pytest.raises(ValueError, match="commutation domain"):
            uwform._require_domain(groups, units, norms)


class TestAssembleUwform:
    def test_rejects_spectra_growing_to_infinity(self):
        s = DiscreteSpectrum(((1.0, 1), (2.0, 1)), Accumulation.TO_INFINITY)
        with pytest.raises(ValueError, match="accumulating at zero"):
            assemble_uwform(s)

    def test_channel_count_matches_decomposition(self):
        deco, form = assemble_uwform(hydrogen_point_spectrum(1.0, 1.0, 4))
        assert len(form.eigenvalues) == deco.channel_count
        assert form.total_dimension == deco.flat_slots.size == 30

    def test_block_eigenvalues_ascend(self):
        _, form = assemble_uwform(hydrogen_point_spectrum(1.0, 1.0, 4))
        for e in form.eigenvalues:
            assert np.all(np.diff(e) > 0.0)
            assert not e.flags.writeable


class TestEvaluatorStacks:
    """Each dimension's evaluators come from one vectorized pass; every row is the channel built on its own."""

    @staticmethod
    def _assert_rows_match_the_reference(form):
        for g in form.groups:
            for block, row, r in zip(g.blocks, g.eigenvalues, g.stack):
                assert np.array_equal(row, form.eigenvalues[block])
                reference = form_evaluator(row)
                assert np.all(reference.real == 0.0) and np.array_equal(r, reference.imag)

    @pytest.mark.parametrize("n_max,transform", [
        (4, "none"), (16, "none"), (40, "none"), (16, "exp"), (16, "identity"), (16, "sin"),
    ])
    def test_every_row_equals_the_channel_built_alone(self, n_max, transform):
        self._assert_rows_match_the_reference(_hydrogen_form(n_max, transform))

    def test_dimensions_arriving_out_of_order_keep_group_and_row_order(self):
        channels = [[-1.0, -0.5, -0.25], [-0.3], [-0.2, -0.1], [-0.09, -0.08, -0.07]]
        form = form_of(*channels)
        assert [g.blocks.tolist() for g in form.groups] == [[0, 3], [2]]
        assert [g.index.tolist() for g in form.groups] == [[[0, 1, 2], [6, 7, 8]], [[4, 5]]]
        assert [e.tolist() for e in form.eigenvalues] == channels
        assert form.total_dimension == 9
        self._assert_rows_match_the_reference(form)

    def test_chunked_build_gives_the_same_rows(self, monkeypatch):
        whole = _hydrogen_form(8, "none")
        monkeypatch.setattr(timeop, "SWEEP_CHUNK", 20)
        chunked = _hydrogen_form(8, "none")
        for a, b in zip(whole.groups, chunked.groups):
            assert np.array_equal(a.stack, b.stack)
            assert np.array_equal(a.scale, b.scale) and np.array_equal(a.defect, b.defect)

    def test_assembly_peak_stays_near_the_stack_bytes(self):
        # hydrogen n_max = 40: 1600 channels whose real stacks hold 3.4 MiB
        s = hydrogen_point_spectrum(1.0, 1.0, 40)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            deco = decompose_spectrum(s)
            kept = tracemalloc.get_traced_memory()[0] - before
            del deco
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _, form = assemble_uwform(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stacks = sum(g.stack.nbytes for g in form.groups)
        assert stacks > 3.25 * 2 ** 20
        # beyond the decomposition it keeps, assembly peaks at the stacks and a little more
        assert peak - before - kept < 1.25 * stacks

    @pytest.mark.parametrize("transform", ["none", "sin"])
    def test_a_form_holds_one_real_entry_per_evaluator_entry(self, transform):
        # 8 * sum(c * d^2) bytes of stacks, and beyond them only per-coordinate arrays
        channels = [np.array(ev) for ev in _hydrogen_form(24, transform).eigenvalues]
        square_entries = sum(ev.size ** 2 for ev in channels if ev.size >= 2)
        coordinates = sum(ev.size for ev in channels)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            form = form_of(*channels)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(g.stack.dtype == np.float64 for g in form.groups)
        assert sum(g.stack.nbytes for g in form.groups) == 8 * square_entries
        # eigenvalue and coordinate copies, per-channel scale and defect, object overhead
        assert held - before < 8 * square_entries + 4 * 8 * coordinates + 2 ** 16


class TestRealEvaluators:
    """The real stacks R against the complex evaluators -(S D + D S)/2 and their product."""

    @pytest.mark.parametrize("n_max,gamma,transform", [
        (4, 1.0, "none"), (16, 1.0, "none"), (16, 0.01, "none"), (16, 100.0, "none"),
        (16, 1.0, "sin"), (16, 1.0, "exp"),
    ])
    def test_real_apply_matches_the_complex_product_bit_for_bit(self, n_max, gamma, transform):
        s = hydrogen_point_spectrum(1.0, gamma, n_max)
        form = assemble_uwform(s)[1] if TRANSFORMS[transform] is None else f_transform_form(TRANSFORMS[transform], s)[2]
        rng = np.random.default_rng(n_max)
        for g in form.groups:
            evaluators = complex_evaluator_stack(g.eigenvalues)
            assert np.all(evaluators.real == 0.0) and np.array_equal(g.stack, evaluators.imag)
            c, d = g.eigenvalues.shape
            v = rng.uniform(-1.0, 1.0, (c, 7, d)) + 1j * rng.uniform(-1.0, 1.0, (c, 7, d))
            assert np.array_equal(uwform._apply(g, v), complex_apply(evaluators, v))

    def test_real_apply_agrees_with_the_complex_product_at_n_max_40(self):
        form = _hydrogen_form(40, "none")
        rng = np.random.default_rng(40)
        for g in form.groups:
            c, d = g.eigenvalues.shape
            v = rng.uniform(-1.0, 1.0, (c, 3, d)) + 1j * rng.uniform(-1.0, 1.0, (c, 3, d))
            expected = complex_apply(complex_evaluator_stack(g.eigenvalues), v)
            bound = 1e-15 * d * np.max(g.scale)
            assert np.max(np.abs(uwform._apply(g, v) - expected)) <= bound

    def test_sweeps_refuse_a_time_operator_stack(self):
        op = ChannelStack([[-1.0, -0.5, -0.25]], MatrixKind.INVERSE_CONJUGATE)
        with pytest.raises(ValueError, match="ultra-weak form"):
            uw_ccr_sweep(np.random.default_rng(0), op, 1)
        with pytest.raises(ValueError, match="ultra-weak form"):
            uncertainty_sweep(np.random.default_rng(0), op, 1)
        with pytest.raises(ValueError, match="ultra-weak form"):
            uw_ccr_channel_sweep({0: np.random.default_rng(0)}, op, 1)


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
        payload = {"kind": "sin", "params": [0.3]}
        f = FunctionSpec.from_json(payload)
        assert f == FunctionSpec(FunctionKind.SIN, (0.3,))
        assert {"kind": f.kind.value, "params": list(f.params)} == payload


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


class TestTransformForm:
    def test_identity_transform_matches_plain_assembly(self):
        s = hydrogen_point_spectrum(1.0, 1.0, 4)
        identity = FunctionSpec(FunctionKind.POLYNOMIAL, (0.0, 1.0))
        _, _, transformed = f_transform_form(identity, s)
        _, plain = assemble_uwform(s)
        assert len(transformed.eigenvalues) == len(plain.eigenvalues)
        for a, b in zip(channel_evaluators(transformed), channel_evaluators(plain)):
            assert np.array_equal(a, b)

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
        # x + x^2 sends both eigenvalues to -0.1875: one value with multiplicity 2
        assert partition.values == pytest.approx((-0.1875,))
        assert partition.multiplicities == (2,)
        assert form.total_dimension == 2
        assert len(form.eigenvalues) == 2
        assert all(e.size == 1 for e in form.eigenvalues) and not form.groups
        assert form.eigenvalues[0][0] == pytest.approx(-0.1875)

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
        assert deco.channel_count == len(form.eigenvalues)
        assert sum(len(ch) for ch in deco.channels) == form.total_dimension == 4
