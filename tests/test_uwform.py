import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dataclasses import dataclass, replace

from timeops import timeop, uwform
from timeops.cli import DEFAULT_TOLERANCES
from timeops.decompose import decompose_spectrum
from timeops.spectra import Accumulation, DiscreteSpectrum, hydrogen_point_spectrum
from timeops.timeop import ChannelStack, MatrixKind
from timeops.uwform import (
    AdmissibilityError,
    FunctionKind,
    FunctionSpec,
    assemble_uwform,
    describe_domains,
    f_condition_check,
    f_transform_form,
    uw_ccr_bounds,
)

from dense_reference import channel_offsets, complex_evaluator_stack, form_evaluator, generator, plant

#: Per-block membership tolerance of the reference sweeps' commutation domain.
CCR_DOMAIN_RTOL = 1e-10

#: Unit-vector tolerance of the reference uncertainty check.
UNIT_NORM_ATOL = 1e-12


def form_of(*channels):
    """Ultra-weak form of a direct sum of channels, one per eigenvalue list."""
    return ChannelStack(channels, MatrixKind.FORM)


def with_groups(form, groups):
    """``form`` with its groups swapped for ``groups``, stacks and eigenvalues as given."""
    changed = object.__new__(ChannelStack)
    for name, value in (("kind", form.kind), ("eigenvalues", form.eigenvalues), ("groups", tuple(groups))):
        object.__setattr__(changed, name, value)
    return changed


def evaluator_stack(g):
    """The real evaluators R of a group's channels, built as the certificate builds them."""
    return uwform._entries(g.eigenvalues, 0, g.eigenvalues.shape[1], MatrixKind.FORM)


def channel_evaluators(form):
    """Each channel's evaluator iR, built from its group's row; a dimension-1 channel's is zero."""
    evaluators = [np.zeros((1, 1), dtype=complex)] * len(form.eigenvalues)
    for g in form.groups:
        for block, r in zip(g.blocks, evaluator_stack(g)):
            evaluators[block] = 1j * r
    return evaluators


def channel_form(form, i):
    """Channel ``i`` of ``form`` as a one-channel form of its own, viewing its group row so that a planted evaluator follows."""
    single = form_of(form.eigenvalues[i])
    for g in form.groups:
        for row in np.flatnonzero(g.blocks == i):
            return with_groups(single, [replace(single.groups[0], eigenvalues=g.eigenvalues[row:row + 1])])
    return single


def pieces(form, v):
    """The channel slices of a whole-form vector, after checking its length."""
    offsets = channel_offsets(form)
    if v.shape != (offsets[-1],):
        raise ValueError("vector length does not match the form dimension")
    return np.split(v, offsets[1:-1])


# ------------------------------------------------ per-vector references
#
# The identities evaluated on vectors, one vector, one block, one np.vdot
# at a time: the random sweeps that the certificate replaced, kept to
# check it from the other side.


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
    dim = channel_offsets(form)[-1]
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
        (r,) = evaluator_stack(form_of([-1.0, -0.31, -0.17, -0.056]).groups[0])
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
            uw_ccr_bounds(form_of([-0.5, -0.25], [-3e-170, -2e-170, -1e-170]))
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
    """Worst ultra-weak CCR residual over ``count`` random pairs of whole-form domain vectors."""
    worst = 0.0
    for _ in range(count):
        phi = random_domain_vector(rng, form)
        psi = random_domain_vector(rng, form)
        worst = max(worst, uw_ccr_residual(form, phi, psi))
    return worst


def reference_uncertainty_sweep(rng, form, count):
    """(smallest |z|, worst |Im z + 1/2|) over ``count`` random checks.

    The centers scale with the form: a with its largest |R| entry, b with
    its largest |E|, over the channels of dimension 2 or more.
    """
    r_max = max(float(np.max(np.abs(evaluator_stack(g)))) for g in form.groups)
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


def reference_edge_uncertainty(rng, form, count):
    """Smallest |z| over ``count`` random checks whose center a is planted where Re z = 0.

    z = t[(H - b) psi, psi] - a <(H - b) psi, psi> with a real second
    factor, so a = Re t[(H - b) psi, psi] / <(H - b) psi, psi> leaves
    z = i Im z: the bound |z| >= 1/2 at its edge.
    """
    e_max = max(float(np.max(np.abs(g.eigenvalues))) for g in form.groups)
    h = np.concatenate(form.eigenvalues)
    low = math.inf
    for _ in range(count):
        b = float(rng.uniform(-2.0, 2.0)) * e_max
        psi = random_domain_vector(rng, form)
        shifted = h * psi - b * psi
        a = evaluate_form(form, shifted, psi).real / np.vdot(shifted, psi).real
        low = min(low, uncertainty_check(form, psi, a, b).value)
    return low


def reference_channel_sweep(form, seed, count):
    """Worst residual of each channel of dimension >= 2 over ``count`` random pairs of its own."""
    return {
        i: reference_uw_ccr_sweep(np.random.default_rng(seed + i), channel_form(form, i), count)
        for i, e in enumerate(form.eigenvalues) if e.size >= 2
    }


TRANSFORMS = {
    "none": None,
    "exp": FunctionSpec(FunctionKind.EXP, (1.0,)),
    "identity": FunctionSpec(FunctionKind.POLYNOMIAL, (0.0, 1.0)),
    "sin": FunctionSpec(FunctionKind.SIN, (0.3,)),
}


def _hydrogen_form(n_max, transform, gamma=1.0):
    s = hydrogen_point_spectrum(1.0, gamma, n_max)
    if TRANSFORMS[transform] is None:
        return assemble_uwform(s)[1]
    return f_transform_form(TRANSFORMS[transform], s)[2]


EPS = np.finfo(float).eps


def sweep_allowance(form):
    """Round-off of one swept residual, per channel: 4 d eps max|E| |R|_F, 0 for dimension 1.

    A sweep evaluates t[H phi, psi] and t[phi, H psi], each a sum of d^2
    products E_n R_nm phi_n psi_m; for unit vectors each sum rounds by at
    most 2 d eps max|E| |R|_F (to first order), whatever the certificate.
    """
    out = np.zeros(len(form.eigenvalues))
    for g in form.groups:
        d = g.eigenvalues.shape[1]
        out[g.blocks] = 4 * d * EPS * np.max(np.abs(g.eigenvalues), axis=1) * np.linalg.norm(evaluator_stack(g), axis=(1, 2))
    return out


def exact_certificate(e, r):
    """|PMP|_F of one channel, computed in Fractions from its stored eigenvalues e and evaluator R."""
    e = [Fraction(float(x)) for x in e]
    d = len(e)
    m = [[(e[n] - e[k]) * Fraction(float(r[n, k])) + (n == k) for k in range(d)] for n in range(d)]
    ee = sum(x * x for x in e)
    p = [[(n == k) - e[n] * e[k] / ee for k in range(d)] for n in range(d)]

    def product(a, b):
        return [[sum(a[i][j] * b[j][k] for j in range(d)) for k in range(d)] for i in range(d)]

    return math.sqrt(sum(x * x for row in product(product(p, m), p) for x in row))


def perturbed_form(monkeypatch, form, part):
    """``form`` with the second channel of its first shared dimension perturbed, and that channel's position.

    ``part`` "evaluators" plants R with one entry and its mirror scaled by
    1 + 1e-6, so that R stays antisymmetric; "eigenvalues" scales one
    eigenvalue of H by 1 + 1e-9 and plants R as built from the exact ones.
    """
    k = next(k for k, g in enumerate(form.groups) if len(g.blocks) > 1)
    groups = list(form.groups)
    original = groups[k].eigenvalues[1]
    if part == "evaluators":
        def change(e, r):
            r[[0, 1], [1, 0]] *= 1.0 + 1e-6
            return r
        plant(monkeypatch, uwform, change, target=original)
    else:
        changed = groups[k].eigenvalues.copy()
        changed[1, 1] *= 1.0 + 1e-9
        plant(monkeypatch, uwform, lambda e, r: generator(original, MatrixKind.FORM), target=changed[1])
        groups[k] = replace(groups[k], eigenvalues=changed)
    return with_groups(form, groups), groups[k].blocks[1]


class TestCertificate:
    """``uw_ccr_bounds`` against the random sweeps it replaced, exact arithmetic, and broken forms."""

    @pytest.mark.parametrize("n_max,gamma,transform", [
        (4, 0.01, "none"), (4, 1.0, "none"), (4, 100.0, "none"),
        (16, 0.01, "none"), (16, 1.0, "none"), (16, 100.0, "none"),
        (4, 1.0, "exp"), (4, 1.0, "identity"), (4, 1.0, "sin"), (16, 1.0, "exp"), (16, 1.0, "sin"),
    ])
    def test_the_sweeps_stay_within_the_certificate(self, n_max, gamma, transform):
        form = _hydrogen_form(n_max, transform, gamma)
        self._assert_sweeps_within(form, count=20 if n_max == 4 else 6)

    def test_the_sweeps_stay_within_the_certificate_of_a_perturbed_form(self, monkeypatch):
        # the swept defect is far above either round-off: the bound must really cover it
        form, target = perturbed_form(monkeypatch, _hydrogen_form(4, "none"), "evaluators")
        swept = self._assert_sweeps_within(form, count=20)
        assert swept[target] > 1e3 * DEFAULT_TOLERANCES["uw_ccr"]

    @staticmethod
    def _assert_sweeps_within(form, count):
        bounds, allowance = uw_ccr_bounds(form), sweep_allowance(form)
        swept = reference_channel_sweep(form, 100, count)
        for i, value in swept.items():
            assert value <= bounds[i] + allowance[i]
        worst, slack = float(np.max(bounds)), float(np.max(allowance))
        assert reference_uw_ccr_sweep(np.random.default_rng(1), form, count) <= worst + slack
        # the uncertainty identity is the phi = psi case: |Im z + 1/2| <= worst / 2, |z| >= 1/2 - worst / 2
        low, im = reference_uncertainty_sweep(np.random.default_rng(3), form, count)
        assert im <= worst / 2 + slack and low >= 0.5 - worst / 2 - slack
        # at the edge center |z| = |Im z| comes down to the bound
        edge = reference_edge_uncertainty(np.random.default_rng(5), form, count)
        assert 0.5 - worst / 2 - slack <= edge <= 0.5 + worst / 2 + slack
        return swept

    @pytest.mark.parametrize("channels,exact", [
        # M = [[1, 5/4], [5/4, 1]] and e^perp = (1, -2)/sqrt(5): (1 + 4 - 5)/5 = 0
        (([-1.0, -0.5],), 0.0),
        (([-1.0, -0.3],), None),
    ])
    def test_a_hand_channel_matches_exact_arithmetic(self, channels, exact):
        form = form_of(*channels)
        (g,) = form.groups
        (r,) = evaluator_stack(g)
        reference = exact_certificate(g.eigenvalues[0], r)
        if exact is not None:
            assert reference == exact
        self._assert_within_rounding(uw_ccr_bounds(form)[0], reference, g.eigenvalues[0], r)

    @pytest.mark.parametrize("gamma,transform", [
        (1.0, "none"), (0.01, "none"), (100.0, "none"), (1.0, "exp"), (1.0, "sin"),
    ])
    def test_hydrogen_channels_match_exact_arithmetic(self, gamma, transform):
        form = _hydrogen_form(4, transform, gamma)
        bounds = uw_ccr_bounds(form)
        for g in form.groups:
            for block, e, r in zip(g.blocks, g.eigenvalues, evaluator_stack(g)):
                self._assert_within_rounding(bounds[block], exact_certificate(e, r), e, r)

    @staticmethod
    def _assert_within_rounding(bound, exact, e, r):
        """The float evaluation rounds M's entries and the two rank-one projections: 2 (d + 2) eps |M|_F."""
        d = e.size
        m = (e[:, None] - e[None, :]) * r + np.eye(d)
        assert abs(bound - exact) <= 2 * (d + 2) * EPS * np.linalg.norm(m)

    @pytest.mark.parametrize("part", ["evaluators", "eigenvalues"])
    def test_a_perturbed_channel_fails_the_gate(self, part, monkeypatch):
        # an evaluator entry off by a relative 1e-6, or an eigenvalue of H by 1e-9:
        # the identities no longer hold, and only the perturbed channel fails
        tol = DEFAULT_TOLERANCES
        form = _hydrogen_form(4, "none")
        assert np.all(uw_ccr_bounds(form) <= tol["uw_ccr"])
        perturbed, target = perturbed_form(monkeypatch, form, part)
        bounds = uw_ccr_bounds(perturbed)
        assert bounds[target] > tol["uw_ccr"]
        assert np.all(np.delete(bounds, target) <= tol["uw_ccr"])

    def test_a_nan_entry_gives_its_channel_a_nan_bound(self, monkeypatch):
        form = form_of([-1.0, -0.5, -0.25], [-0.2, -0.1])

        def poisoned(e, r):
            r[0, 1] = math.nan
            return r

        plant(monkeypatch, uwform, poisoned, target=form.eigenvalues[1])
        bounds = uw_ccr_bounds(form)
        assert math.isnan(bounds[1]) and bounds[0] <= DEFAULT_TOLERANCES["uw_ccr"]

    def test_an_asymmetric_entry_fails_the_gate(self, monkeypatch):
        # the bound covers any real M, symmetric or not: one entry off by a relative 1e-9 shows
        form = form_of([-1.0, -0.5, -0.25], [-0.2, -0.1])

        def bent(e, r):
            r[0, 1] *= 1.0 + 1e-9
            return r

        plant(monkeypatch, uwform, bent, target=form.eigenvalues[0])
        bounds = uw_ccr_bounds(form)
        assert bounds[0] > DEFAULT_TOLERANCES["uw_ccr"] >= bounds[1]

    def test_reads_zero_on_one_dimensional_channels(self):
        bounds = uw_ccr_bounds(form_of([-1.0, -0.5], [-0.3], [-0.25, -0.125, -0.1]))
        assert bounds.shape == (3,) and bounds[1] == 0.0
        assert 0.0 < bounds[0] <= 1e-10 and 0.0 < bounds[2] <= 1e-10
        assert np.array_equal(uw_ccr_bounds(form_of([-1.0], [-0.5])), [0.0, 0.0])

    def test_refuses_a_time_operator_stack(self):
        op = ChannelStack([[-1.0, -0.5, -0.25]], MatrixKind.INVERSE_CONJUGATE)
        with pytest.raises(ValueError, match="ultra-weak form"):
            uw_ccr_bounds(op)

    def test_chunks_give_the_same_bits(self, monkeypatch):
        form = _hydrogen_form(8, "sin")
        whole = uw_ccr_bounds(form)
        monkeypatch.setattr(timeop, "SWEEP_CHUNK", 20)
        assert np.array_equal(uw_ccr_bounds(form), whole)

    def test_chunks_hold_at_most_the_budget_or_one_wider_row(self, monkeypatch):
        monkeypatch.setattr(timeop, "SWEEP_CHUNK", 10)
        assert list(uwform._chunks(3, 7)) == [(0, 3), (3, 6), (6, 7)]
        assert list(uwform._chunks(5, 4)) == [(0, 2), (2, 4)]
        assert list(uwform._chunks(10, 2)) == [(0, 1), (1, 2)]
        assert list(uwform._chunks(20, 3)) == [(0, 1), (1, 2), (2, 3)]


class TestAssembleUwform:
    def test_rejects_spectra_growing_to_infinity(self):
        s = DiscreteSpectrum(((1.0, 1), (2.0, 1)), Accumulation.TO_INFINITY)
        with pytest.raises(ValueError, match="accumulating at zero"):
            assemble_uwform(s)

    def test_channel_count_matches_decomposition(self):
        deco, form = assemble_uwform(hydrogen_point_spectrum(1.0, 1.0, 4))
        assert len(form.eigenvalues) == deco.channel_count
        assert channel_offsets(form)[-1] == deco.flat_slots.size == 30

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
            for block, row, r in zip(g.blocks, g.eigenvalues, evaluator_stack(g)):
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
        assert channel_offsets(form).tolist() == [0, 3, 4, 6, 9]
        assert [e.tolist() for e in form.eigenvalues] == channels
        self._assert_rows_match_the_reference(form)

    def test_chunked_build_gives_the_same_rows(self, monkeypatch):
        form = _hydrogen_form(8, "none")
        whole = [evaluator_stack(g) for g in form.groups]
        monkeypatch.setattr(timeop, "SWEEP_CHUNK", 20)
        built = []
        build = uwform._entries

        def recorded(ev, start, stop, kind):
            built.append(build(ev, start, stop, kind))
            return built[-1].copy()

        monkeypatch.setattr(uwform, "_entries", recorded)
        uw_ccr_bounds(form)
        assert len(built) > len(whole)
        assert np.array_equal(np.concatenate([r.ravel() for r in built]), np.concatenate([r.ravel() for r in whole]))

    def test_assembly_builds_no_evaluator(self):
        # hydrogen n_max = 40: 1600 channels whose real evaluators would hold 3.4 MiB
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
        stacks = sum(8 * g.eigenvalues.size * g.eigenvalues.shape[1] for g in form.groups)
        assert stacks > 3.25 * 2 ** 20
        # beyond the decomposition it keeps, assembly peaks at the decomposition's own transient,
        # well under the evaluators' bytes
        assert peak - before - kept < 0.5 * stacks

    @pytest.mark.parametrize("transform", ["none", "sin"])
    def test_a_form_holds_no_evaluator_entry(self, transform):
        # only per-coordinate arrays: the 8 * sum(c * d^2) bytes of evaluators are never held
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
        assert 8 * square_entries > 4 * 8 * coordinates + 2 ** 16
        # eigenvalue and coordinate copies, object overhead
        assert held - before < 4 * 8 * coordinates + 2 ** 16


class TestRealEvaluators:
    """The real stacks R against the complex evaluators -(S D + D S)/2."""

    @pytest.mark.parametrize("n_max,gamma,transform", [
        (4, 1.0, "none"), (16, 1.0, "none"), (16, 0.01, "none"), (16, 100.0, "none"),
        (16, 1.0, "sin"), (16, 1.0, "exp"),
    ])
    def test_real_stacks_match_the_complex_evaluators_bit_for_bit(self, n_max, gamma, transform):
        for g in _hydrogen_form(n_max, transform, gamma).groups:
            evaluators = complex_evaluator_stack(g.eigenvalues)
            assert np.all(evaluators.real == 0.0) and np.array_equal(evaluator_stack(g), evaluators.imag)


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
        assert channel_offsets(form)[-1] == 2
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
        assert sum(len(ch) for ch in deco.channels) == channel_offsets(form)[-1] == 4
