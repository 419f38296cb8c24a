import functools
import math
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from timeops import acceptance, timeop, uwform
from timeops.cli import RunConfig, main, resolve_tolerances, run
from timeops.decompose import channel_partition
from timeops.spectra import (
    Accumulation,
    DiscreteSpectrum,
    HermitianMatrix,
    harmonic_spectrum,
    hydrogen_point_spectrum,
    rabi_hamiltonian,
)
from timeops.timeop import (
    CHANNEL_DIMENSION_LIMIT,
    ChannelStack,
    MatrixKind,
    _entries,
    _require_rows,
    assemble_time_operator,
    ccr_allowed,
    ccr_certificates,
    osc_timeop_extremes,
)

from dense_reference import (
    block_pair_residuals,
    ccr_residual,
    certificate_stack,
    channel_offsets,
    chebyshev_ritz_extremes,
    dense_commutator,
    exact_defect_squares,
    generator,
    generator_stack,
    gram_extremes,
    half_block,
    pairing,
    plant,
    random_difference_stack,
    reference_certificates,
    sweep_roundoff,
    twosum_dekker_defect,
)
from recording_rng import RecordingRng


# ------------------------------------------------ per-vector references
#
# The one-vector-at-a-time draw that random_difference_stack replaced.


def project_to_difference_span(v):
    """Remove the mean so the coefficient sum is zero."""
    vec = np.asarray(v, dtype=complex)
    return vec - vec.mean()


def random_difference_vector(rng, dim):
    """Seeded random unit vector with zero coefficient sum; a near-zero projection is redrawn."""
    if dim < 2:
        raise ValueError("the difference span is trivial below dimension 2")
    while True:
        v = rng.uniform(-1.0, 1.0, dim) + 1j * rng.uniform(-1.0, 1.0, dim)
        v = project_to_difference_span(v)
        norm = float(np.linalg.norm(v))
        if norm > 1e-8:
            return v / norm


def built(eigenvalues, kind=MatrixKind.DIRECT):
    """One channel's whole matrix, built by the entry kernel once its stack has checked the eigenvalues."""
    (g,) = ChannelStack([eigenvalues], kind).groups
    return _entries(g.eigenvalues, 0, g.eigenvalues.shape[1], kind)[0]


def certify(eigenvalues, kind=MatrixKind.DIRECT):
    """(certificate, scale) of ``ccr_certificates`` for one channel on its own."""
    certificate, scale = ccr_certificates(ChannelStack([eigenvalues], kind))
    return float(certificate[0]), float(scale[0])


def swept(eigenvalues, kind, v):
    """The reference sweep's worst residual of one channel over one vector or the rows of a (k, n) stack."""
    return ccr_residual(pairing(eigenvalues, kind), generator(eigenvalues, kind), v)


class TestGalaponMatrix:
    """The time-operator matrix of one channel, as the entry kernel builds it."""

    def test_two_by_two_direct_entries(self):
        a = built((1.0, 2.0))
        expected = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        assert a.dtype == np.float64
        assert np.array_equal(1j * a, expected)

    def test_wide_gap_entry(self):
        a = built((1.0, 7.0))
        assert 1j * a[0, 1] == 1j / -6.0
        assert 1j * a[1, 0] == 1j / 6.0

    def test_inverse_conjugate_entries(self):
        op = ChannelStack([(1.0, 2.0)], MatrixKind.INVERSE_CONJUGATE)
        assert built((1.0, 2.0), op.kind)[0, 1] == 2.0
        assert op.kind is MatrixKind.INVERSE_CONJUGATE

    def test_diagonal_is_exactly_zero(self):
        a = built(np.linspace(0.3, 9.7, 40))
        assert np.all(np.diag(a) == 0.0)

    def test_exactly_hermitian_by_construction(self):
        ev = np.cumsum(np.linspace(0.1, 2.0, 25))
        a = built(ev)
        assert np.array_equal(a, -a.T)
        assert certify(ev)[1] == np.max(np.abs(a))

    def test_pairing_eigenvalues(self):
        # the direct kind pairs with diag(E), the inverse-conjugate kind with diag(1/E)
        for kind, values, h in ((MatrixKind.DIRECT, (0.5, 1.7, 3.1), (0.5, 1.7, 3.1)),
                                (MatrixKind.INVERSE_CONJUGATE, (-2.0, -1.0, -0.3), (-0.5, -1.0, -1.0 / 0.3))):
            exact = math.sqrt(exact_defect_squares(h, generator(values, kind)))
            assert 0.0 < exact and certify(values, kind)[0] == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert np.array_equal(pairing((-2.0, -1.0), MatrixKind.INVERSE_CONJUGATE), [-0.5, -1.0])

    def test_inverse_conjugate_is_direct_matrix_of_reciprocals(self):
        ev = np.array([-2.0, -1.0, -0.5, -0.2])
        ic = built(ev, MatrixKind.INVERSE_CONJUGATE)
        inv = 1.0 / ev
        expected = np.zeros((4, 4), dtype=complex)
        for n in range(4):
            for m in range(4):
                if n != m:
                    expected[n, m] = 1j / (inv[n] - inv[m])
        scale = np.max(np.abs(ic))
        assert np.max(np.abs(1j * ic - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
    def test_direct_kind_scales_inversely(self, alpha):
        ev = np.array([0.5, 1.1, 2.9, 4.0])
        base, scaled = _entries(np.stack([ev, alpha * ev]), 0, ev.size, MatrixKind.DIRECT)
        assert np.max(np.abs(scaled - base / alpha)) <= 1e-13 * np.max(np.abs(base))

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
    def test_inverse_conjugate_kind_scales_directly(self, alpha):
        ev = np.array([-2.0, -1.0, -0.4])
        base, scaled = _entries(np.stack([ev, alpha * ev]), 0, ev.size, MatrixKind.INVERSE_CONJUGATE)
        assert np.max(np.abs(scaled - alpha * base)) <= 1e-13 * np.max(np.abs(scaled))

    def test_rejects_unsorted_and_zero_and_oversized(self):
        with pytest.raises(ValueError, match="increasing"):
            built((2.0, 1.0))
        with pytest.raises(ValueError, match="nonzero"):
            built((-1.0, 0.0), MatrixKind.INVERSE_CONJUGATE)
        # the one off-diagonal product E_n*E_m is finite, though (1e300)^2 overflows
        assert np.array_equal(built((-1e300, -1.0), MatrixKind.INVERSE_CONJUGATE), [[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match=r"products E_n\*E_m overflow"):
            built((-1e300, -1e10), MatrixKind.INVERSE_CONJUGATE)
        with pytest.raises(ValueError, match="exceeds"):
            built(np.arange(CHANNEL_DIMENSION_LIMIT + 1, dtype=float))
        with pytest.raises(ValueError, match="at least one channel"):
            ChannelStack([], MatrixKind.DIRECT)
        with pytest.raises(ValueError, match="nonempty"):
            ChannelStack([[1.0, 2.0], []], MatrixKind.DIRECT)

    @pytest.mark.parametrize("kind", list(MatrixKind))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_eigenvalues_are_refused_where_they_enter(self, kind, value):
        rows = -1.0 / np.arange(1, 7).reshape(2, 3) ** 2
        rows[1, 2] = value
        message = f"eigenvalues must be finite \\(got {value!r}\\)$"
        # the stack refuses them in every dimension, 1 included, before any kernel reads them
        for channels in ([rows[0], rows[1]], [rows[0], rows[1, 2:]]):
            with pytest.raises(ValueError, match=message):
                ChannelStack(channels, kind)

    @pytest.mark.parametrize("kind,rows", [
        (MatrixKind.DIRECT, np.arange(15.0).reshape(3, 5) + 0.5),
        (MatrixKind.INVERSE_CONJUGATE, -1.0 / np.arange(1, 16).reshape(3, 5) ** 2),
        (MatrixKind.FORM, -1.0 / np.arange(1, 16).reshape(3, 5) ** 2),
        (MatrixKind.INVERSE_CONJUGATE, -1.0 / np.arange(1, 259).reshape(2, -1) ** 2),
    ])
    def test_every_band_is_cut_from_the_whole_matrices(self, kind, rows):
        # the whole-matrix reference, and each row built alone, give the same bits
        whole = generator_stack(rows, kind)
        assert all(np.array_equal(a, generator(row, kind)) for row, a in zip(rows, whole))
        assert np.array_equal(whole, -whole.transpose(0, 2, 1))
        d = rows.shape[1]
        for start, stop in ((0, d), (0, 1), (1, 3), (d - 2, d), (d // 2, d // 2 + 1)):
            for first in sorted({0, start // 2, start}):
                band = _entries(rows, start, stop, kind, first)
                assert band.dtype == np.float64 and np.array_equal(band, whole[:, start:stop, first:])

    def test_a_refusal_names_the_first_failing_row(self):
        rows = np.array([[-1.0, -0.5], [-1e300, -1e10], [-1e301, -1e300]])
        with pytest.raises(ValueError, match=r"largest \|eigenvalue\| 1e\+300\)$"):
            _require_rows(rows, MatrixKind.INVERSE_CONJUGATE)
        rows = np.array([[1.0, 2.0], [0.0, 5e-324], [0.0, 1e-323]])
        with pytest.raises(ValueError, match=r"smallest gap 5e-324\)$"):
            _entries(rows, 0, 2, MatrixKind.DIRECT)

    @pytest.mark.parametrize("kind,values", [
        # E_n*E_m/(E_m - E_n) with subnormal eigenvalues: 1/gap overflows
        (MatrixKind.INVERSE_CONJUGATE, [-1.1125369292536007e-309, -2.781342323134002e-310]),
        # 1/(E_n - E_m) with a subnormal gap
        (MatrixKind.DIRECT, [0.0, 5e-324]),
    ])
    def test_overflowing_entries_are_refused_without_a_warning(self, kind, values):
        # the suite turns RuntimeWarnings into errors, so a warning fails this test
        with pytest.raises(ValueError, match=r"entries .* overflow to a non-finite value"):
            built(values, kind)
        with pytest.raises(ValueError, match=r"entries .* overflow to a non-finite value"):
            certify(values, kind)

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0),
            min_size=2,
            max_size=20,
        )
    )
    def test_random_channels_are_hermitian_and_pass_the_gate(self, gaps):
        ev = 0.5 + np.cumsum(gaps)
        a = built(ev)
        assert np.array_equal(a, -a.T)
        op = ChannelStack([ev], MatrixKind.DIRECT)
        certificate, scale = ccr_certificates(op)
        assert certificate[0] <= ccr_allowed(op, scale, resolve_tolerances())[0]


class TestDifferenceSpan:
    def test_projection_removes_the_mean(self):
        v = np.array([1.0, 2.0, 3.0, 10.0], dtype=complex)
        w = project_to_difference_span(v)
        assert abs(w.sum()) <= 1e-14 * np.linalg.norm(w)

    def test_random_vector_is_unit_and_in_span(self):
        rng = np.random.default_rng(3)
        v = random_difference_vector(rng, 17)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert abs(v.sum()) <= 1e-13

    def test_random_vector_is_seed_deterministic(self):
        a = random_difference_vector(np.random.default_rng(5), 8)
        b = random_difference_vector(np.random.default_rng(5), 8)
        assert np.array_equal(a, b)

    def test_trivial_dimension_rejected(self):
        with pytest.raises(ValueError):
            random_difference_vector(np.random.default_rng(0), 1)
        with pytest.raises(ValueError, match="trivial"):
            random_difference_stack(np.random.default_rng(0), 1, 3)

    @pytest.mark.parametrize("dim", [2, 17, 600])
    def test_stack_draws_match_the_loop_bit_for_bit(self, dim):
        batched = RecordingRng(8)
        stack = random_difference_stack(batched, dim, 12)
        looped = RecordingRng(8)
        rows = [random_difference_vector(looped, dim) for _ in range(12)]
        assert batched.calls == 1
        assert np.array_equal(batched.stream(), looped.stream())
        # the rows are the loop's vectors up to the rounding of the norm
        assert np.max(np.abs(stack - np.array(rows))) <= 1e-15
        assert np.all(np.abs(stack.sum(axis=1)) <= 1e-13)
        assert np.allclose(np.linalg.norm(stack, axis=1), 1.0, rtol=0.0, atol=1e-14)

    def test_stack_redraws_a_near_zero_row_after_the_batch(self):
        draw = np.random.default_rng(1).uniform(-1.0, 1.0, (3, 2, 4))
        draw[1] = 0.25   # mean removal leaves exactly zero
        rng = RecordingRng(2, {0: draw})
        stack = random_difference_stack(rng, 4, 3)
        assert rng.calls == 3   # the batch, then one redraw: real, imaginary
        assert np.allclose(np.linalg.norm(stack, axis=1), 1.0, rtol=0.0, atol=1e-14)
        assert np.all(np.abs(stack.sum(axis=1)) <= 1e-13)


TIME_KINDS = [MatrixKind.DIRECT, MatrixKind.INVERSE_CONJUGATE]

#: Channels of both kinds, up to dimension 12, whose certificates are compared with rational arithmetic.
SMALL_CHANNELS = [
    (MatrixKind.DIRECT, np.array([0.5, 1.7, 3.1])),
    (MatrixKind.DIRECT, 0.5 + np.arange(12)),
    (MatrixKind.DIRECT, np.cumsum(np.linspace(0.1, 2.0, 12)) - 3.0),
    (MatrixKind.DIRECT, 1e3 * (0.5 + np.arange(9))),
    (MatrixKind.INVERSE_CONJUGATE, -1.0 / np.arange(1, 13) ** 2),
    (MatrixKind.INVERSE_CONJUGATE, -0.01 / np.arange(1, 7) ** 2),
    (MatrixKind.INVERSE_CONJUGATE, np.array([-3.0, -0.7, 0.2, 1.9, 40.0])),
]


class TestCertificate:
    """``ccr_certificates``: ||Delta||_F per channel, exact up to rounding, and what it bounds."""

    def test_commutator_is_i_times_hollow_ones(self):
        ev = np.array([0.5, 1.7, 3.1])
        comm = dense_commutator(ev, built(ev))
        expected = 1j * (np.ones((3, 3)) - np.eye(3))
        assert np.max(np.abs(comm - expected)) <= 1e-13

    @pytest.mark.parametrize("kind,values", SMALL_CHANNELS)
    def test_the_certificate_is_the_exact_defect_norm(self, kind, values):
        # every stored h and A is a rational: ||Delta||_F^2 computed with no rounding at all
        exact = exact_defect_squares(pairing(values, kind), generator(values, kind))
        certificate, scale = certify(values, kind)
        assert abs(Fraction(certificate) ** 2 - exact) <= Fraction(1e-12) * exact
        assert scale == np.max(np.abs(generator(values, kind)))

    def test_a_channel_of_exact_reciprocals_has_a_zero_certificate(self):
        # gaps that are powers of two: every entry and every product is exact
        assert certify([0.0, 0.5, 1.0]) == (0.0, 2.0)

    @pytest.mark.parametrize("kind,values", SMALL_CHANNELS)
    def test_every_difference_of_basis_vectors_is_within_the_certificate(self, kind, values):
        # e_k - e_l has norm sqrt(2); the pair loop checks each against the whole commutator
        residual, _, pairs = block_pair_residuals(pairing(values, kind), generator(values, kind))
        certificate, _ = certify(values, kind)
        d = values.size
        diffs = np.eye(d)[:, None, :] - np.eye(d)[None, :, :]
        roundoff = np.max(sweep_roundoff(values, kind, diffs.reshape(-1, d)))
        assert pairs == d * (d - 1) // 2
        assert residual <= math.sqrt(2.0) * certificate * (1 + 1e-12) + roundoff

    def test_a_form_stack_is_refused(self):
        with pytest.raises(ValueError, match="not a time-operator generator"):
            ccr_certificates(ChannelStack([[-1.0, -0.25]], MatrixKind.FORM))

    def test_one_dimensional_channels_read_zero(self):
        op = ChannelStack([[0.3, 1.7], [3.0], [4.1, 5.3, 6.9]], MatrixKind.DIRECT)
        certificate, scale = ccr_certificates(op)
        assert certificate[1] == scale[1] == 0.0 == ccr_allowed(op, scale, resolve_tolerances())[1]
        assert scale[0] > 0.0 < scale[2]

    def test_an_overflowing_gate_is_refused_naming_the_channel(self):
        # max|h| = 1e100 and max|A| = 1e300: an infinite gate would pass any certificate
        op = ChannelStack([[0.5, 1.5], [1e-300, 2e-300, 1e100]], MatrixKind.DIRECT)
        certificate, scale = ccr_certificates(op)
        assert np.all(np.isfinite(certificate)) and np.all(np.isfinite(scale))
        with pytest.raises(ValueError, match=r"gate of channel 1 overflows: its largest \|h\| 1e\+100 "):
            ccr_allowed(op, scale, resolve_tolerances())

    def test_a_nan_scale_gives_a_nan_gate(self):
        op = ChannelStack([[0.5, 1.5, 4.0]], MatrixKind.DIRECT)
        assert math.isnan(ccr_allowed(op, np.array([math.nan]), resolve_tolerances())[0])

    def test_the_gate_reads_the_largest_pairing_value(self):
        tol = resolve_tolerances({"ccr_relative": 0.5})
        for kind, values, largest in ((MatrixKind.DIRECT, [-7.0, 2.0, 3.0], 7.0),
                                      (MatrixKind.INVERSE_CONJUGATE, [-4.0, -0.25, 2.0], 4.0)):
            op = ChannelStack([values], kind)
            _, scale = ccr_certificates(op)
            assert ccr_allowed(op, scale, tol)[0] == 0.5 * largest * scale[0]


class TestCertificateFuzz:
    """Properties of the certificate over random channels of both kinds."""

    @staticmethod
    def _channel(low, gaps, kind):
        values = low + np.concatenate([[0.0], np.cumsum(gaps)])
        if kind is MatrixKind.INVERSE_CONJUGATE:
            values = np.where(values < 0.0, values - 1e-3, values + 1e-3)   # away from zero, order kept
        return values

    @settings(max_examples=60, deadline=None)
    @given(
        low=st.floats(min_value=-50.0, max_value=50.0),
        gaps=st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=39),
        kind=st.sampled_from(TIME_KINDS),
    )
    def test_within_the_a_priori_bound(self, low, gaps, kind):
        # each entry of Delta is at most 3u (1 + (|h_n| + |h_m|) |A_nm|) (Higham, ch. 3)
        values = self._channel(low, gaps, kind)
        h = pairing(values, kind)
        bound = 1.5 * np.finfo(float).eps * (1.0 + (np.abs(h)[:, None] + np.abs(h)[None, :])
                                             * np.abs(generator(values, kind)))
        np.fill_diagonal(bound, 0.0)
        assert certify(values, kind)[0] <= np.linalg.norm(bound)

    @settings(max_examples=60, deadline=None)
    @given(
        low=st.floats(min_value=-50.0, max_value=50.0),
        gaps=st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=39),
        kind=st.sampled_from(TIME_KINDS),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_a_swept_residual_is_within_the_certificate_and_its_own_rounding(self, low, gaps, kind, seed):
        values = self._channel(low, gaps, kind)
        vecs = random_difference_stack(np.random.default_rng(seed), values.size, 8)
        certificate, _ = certify(values, kind)
        allowed = certificate * (1 + 1e-12) + sweep_roundoff(values, kind, vecs)
        residuals = [swept(values, kind, v) for v in vecs]
        assert np.all(residuals <= allowed)


class TestBlockOperator:
    """The block time operator: one channel stack, its channels laid out one after the other."""

    @staticmethod
    def _two_blocks():
        return ChannelStack([[-1.0, -0.25, -1.0 / 9.0], [-0.0625, -0.04]], MatrixKind.INVERSE_CONJUGATE)

    @staticmethod
    def _blockwise_residual(op, v):
        """Whole-vector residual: each group's channels take their coordinates of v."""
        offsets = channel_offsets(op)
        total = 0.0
        for g in op.groups:
            for block, row in zip(g.blocks, g.eigenvalues):
                total += swept(row, op.kind, v[offsets[block]:offsets[block + 1]]) ** 2
        return math.sqrt(total)

    def test_shapes_and_slices(self):
        op = self._two_blocks()
        assert channel_offsets(op).tolist() == [0, 3, 5]
        assert [g.blocks.tolist() for g in op.groups] == [[0], [1]]
        np.testing.assert_array_equal(
            np.concatenate([pairing(ev, op.kind) for ev in op.eigenvalues]), [-1.0, -4.0, -9.0, -16.0, -25.0]
        )

    def test_full_residual_with_per_block_membership(self):
        # a unit vector of the blocks' difference spans: within the largest certificate, up to rounding
        op = self._two_blocks()
        rng = np.random.default_rng(2)
        v = np.concatenate([random_difference_vector(rng, 3), random_difference_vector(rng, 2)]) / math.sqrt(2.0)
        assert self._blockwise_residual(op, v) <= np.max(ccr_certificates(op)[0]) + 1e-14

    def test_a_globally_balanced_but_blockwise_unbalanced_vector_is_not_certified(self):
        # its coefficient sum is zero over the whole vector but not per block: the defect is O(1)
        op = self._two_blocks()
        v = np.array([1.0, 0.0, 0.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
        assert self._blockwise_residual(op, v) >= 0.5 > 1e6 * np.max(ccr_certificates(op)[0])


def _assembled(values, accumulation):
    """The time operator of a spectrum of simple values: (decomposition, stack)."""
    return assemble_time_operator(DiscreteSpectrum(tuple((v, 1) for v in values), accumulation))


class TestChannelTimeOperator:
    def test_zero_accumulation_routes_to_inverse_conjugate(self):
        _, op = _assembled([-0.5, -0.125], Accumulation.TO_ZERO)
        assert op.kind is MatrixKind.INVERSE_CONJUGATE

    def test_infinity_accumulation_routes_to_direct(self):
        _, op = _assembled([0.5, 1.5], Accumulation.TO_INFINITY)
        assert op.kind is MatrixKind.DIRECT

    def test_values_are_sorted_before_building(self):
        deco = channel_partition([2.5, 0.5, 1.5], [1, 1, 1])
        assert [deco.values[n] for n in deco.value_indices()[:2]] == [2.5, 0.5]
        op = ChannelStack.of_decomposition(deco, MatrixKind.DIRECT)
        assert [ev.tolist() for ev in op.eigenvalues] == [[0.5, 2.5], [1.5]]
        assert all(not ev.flags.writeable for ev in op.eigenvalues)


class TestAssembleTimeOperator:
    def test_hydrogen_end_to_end(self):
        deco, op = assemble_time_operator(hydrogen_point_spectrum(1.0, 1.0, 3))
        assert deco.channel_count == 9
        assert isinstance(op, ChannelStack) and len(op.eigenvalues) == 9
        assert channel_offsets(op)[-1] == 14
        assert sum(g.blocks.size for g in op.groups) == sum(ev.size >= 2 for ev in op.eigenvalues)
        certificate, scale = ccr_certificates(op)
        assert certificate.shape == scale.shape == (9,)
        assert np.all(certificate <= ccr_allowed(op, scale, resolve_tolerances()))


def svd_spectrum(omega: float, n: int) -> np.ndarray:
    """Reference: the whole oscillator truncation spectrum, +-sigma(B)/omega (and 0).

    B is the real half-size block of the even/odd split that
    ``osc_timeop_extremes`` documents; one SVD gives every eigenvalue.
    """
    lags = np.arange(1, n, dtype=float)
    a = np.concatenate([-1.0 / lags[::-1], [0.0], 1.0 / lags])
    p = np.arange((n + 1) // 2)[:, None]
    q = np.arange(n // 2)[None, :]
    b = a[n - 1 + p - q] + a[2 * n - 2 - p - q]
    if n % 2:
        b[-1] /= math.sqrt(2.0)
    sigma = np.linalg.svd(b, compute_uv=False) / omega
    return np.concatenate([-sigma, np.zeros(n % 2), sigma[::-1]])


def dense_spectrum(omega: float, n: int) -> np.ndarray:
    """Reference: eigvalsh of the dense n x n Toeplitz matrix."""
    return np.linalg.eigvalsh(1j * generator(omega * (np.arange(n) + 0.5)))


@functools.cache
def svd_sigma_max(n: int) -> float:
    """sigma_max(B) from ``svd_spectrum`` at omega = 1, kept: the SVD at n = 4096 takes seconds."""
    return float(svd_spectrum(1.0, n)[-1])


def toeplitz_row(shift: float, n: int) -> np.ndarray:
    """The first row (shift, i/1, i/2, ...) of shift I - iA."""
    return np.concatenate([[complex(shift)], 1j / np.arange(1, n)])


def toeplitz_matrix(row: np.ndarray) -> np.ndarray:
    """The dense Hermitian Toeplitz matrix with this first row."""
    n = row.size
    lag = np.arange(n)[None, :] - np.arange(n)[:, None]
    return np.where(lag >= 0, row[np.abs(lag)], np.conj(row[np.abs(lag)]))


def reference_rounding(omega: float, n: int) -> float:
    """What a certified value is held to beyond its radius: a reference's own rounding, n eps in units of pi/omega."""
    return n * np.finfo(float).eps * math.pi / omega


class TestOscillatorSpectrum:
    def test_smallest_truncation(self):
        lo, hi, radius, dimension, failed = osc_timeop_extremes(1.0, 2)
        assert (lo, hi, dimension, failed) == (-1.0, 1.0, 1, None)
        assert 0.0 < radius <= 1e-12

    def test_bounded_by_symbol_and_monotone(self):
        omega = 2.0
        tops = []
        for n in (4, 16, 64):
            e = osc_timeop_extremes(omega, n)
            assert e.failed_size is None
            assert e.high + e.radius < math.pi / omega
            assert e.low - e.radius > -math.pi / omega
            tops.append(e.high)
        assert tops[0] < tops[1] < tops[2]

    def test_scales_like_inverse_frequency(self):
        one, two = osc_timeop_extremes(1.0, 50), osc_timeop_extremes(2.0, 50)
        assert two.high == pytest.approx(one.high / 2.0, rel=1e-12)
        assert two.radius == pytest.approx(one.radius / 2.0, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            osc_timeop_extremes(0.0, 10)
        with pytest.raises(ValueError):
            osc_timeop_extremes(1.0, 1)

    @pytest.mark.parametrize("omega", [math.inf, math.nan, 1e-320])
    def test_rejects_non_finite_frequency(self, omega):
        with pytest.raises(ValueError, match="omega must be finite and positive"):
            osc_timeop_extremes(omega, 10)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="exceeds"):
            osc_timeop_extremes(1.0, CHANNEL_DIMENSION_LIMIT + 1)

    @pytest.mark.parametrize("omega", [1.0, 2.5])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 100, 101, 400, 801])
    def test_matches_the_gram_and_dense_references(self, omega, n):
        e = osc_timeop_extremes(omega, n)
        assert e.failed_size is None and e.low == -e.high
        gram_lo, gram_hi = gram_extremes(omega, n)
        allowed = e.radius + reference_rounding(omega, n)
        assert abs(e.high - gram_hi) <= allowed and abs(e.low - gram_lo) <= allowed
        # the value itself, not only its interval, is the dense solve's
        reference = dense_spectrum(omega, n)
        assert abs(e.low - reference[0]) <= 1e-14 * math.pi / omega
        assert abs(e.high - reference[-1]) <= 1e-14 * math.pi / omega

    @pytest.mark.parametrize("n", [1600, 1601, 3200, 4096])
    def test_matches_the_svd_reference(self, n):
        e = osc_timeop_extremes(1.0, n)
        sigma = svd_sigma_max(n)
        assert e.failed_size is None and e.low == -e.high
        assert abs(e.high - sigma) <= e.radius + reference_rounding(1.0, n)
        assert abs(e.high - sigma) <= 1e-14 * sigma

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 100, 101, 400, 511, 512, 513, 801, 1600, 1601, 4096])
    def test_matches_the_plain_smooth_subspace_reference(self, n):
        e, reference = osc_timeop_extremes(1.0, n), chebyshev_ritz_extremes(1.0, n)
        assert e.failed_size is None and reference.failed_size is None
        assert abs(e.high - reference.high) <= 1e-14 * reference.high

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 101])
    def test_svd_reference_is_the_dense_spectrum(self, n):
        assert np.max(np.abs(svd_spectrum(2.5, n) - dense_spectrum(2.5, n))) <= 1e-14 * math.pi / 2.5


def product_rounding(n: int) -> float:
    """The rounding bound of one FFT product with B, per unit 2-norm of the column, as ``osc_timeop_extremes`` states it."""
    u = np.finfo(float).eps / 2.0

    def gamma(k):
        return k * u / (1.0 - k * u)

    length = timeop._block_transform(n).length
    eta = u + gamma(4) * (math.sqrt(2.0) + u)
    stages = math.log2(length) * eta
    transform = stages / (1.0 - stages)
    beta = (1.0 + transform) ** 3 * (1.0 + math.sqrt(2.0) * gamma(2)) * (1.0 + u) - 1.0
    return math.sqrt(2.0 * length) * beta * math.pi / math.sqrt(3.0) + gamma(3) * math.pi


def dense_rounding(n: int, k: int) -> float:
    """The dense product's own rounding per unit 2-norm of the column: gamma_{k+4} ||(|T| + |H|)||_2.

    The entries of ``half_block`` round by gamma_4 of |T| + |H|, the
    absolute Toeplitz and Hankel parts, and a sum of k products by
    gamma_k (Higham, Accuracy and Stability of Numerical Algorithms,
    §3.5); a Toeplitz or Hankel matrix of |a| has a 2-norm at most the
    sum of |a| over its lags, 2(1 + ln n) and 1 + ln n.
    """
    u = np.finfo(float).eps / 2.0
    return (k + 4) * u / (1.0 - (k + 4) * u) * 3.0 * (1.0 + math.log(n))


class TestHalfBlockProducts:
    """The FFT products with B are the dense products, within both sides' rounding."""

    @pytest.mark.parametrize("r", [1, 8, 32])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 400, 801, 1600, 4096])
    def test_match_the_dense_products(self, n, r):
        b, dense = timeop._block_transform(n), half_block(n)
        tall, m = dense.shape
        rng = np.random.default_rng(n + r)
        v, w = rng.standard_normal((r, m)), rng.standard_normal((r, tall))   # columns as rows
        for rows, fft, reference, k in [(v, timeop._block_product(b, v), v @ dense.T, m),
                                        (w, timeop._block_product(b, w, transpose=True), w @ dense, tall)]:
            assert fft.shape == reference.shape
            allowed = (product_rounding(n) + dense_rounding(n, k)) * np.linalg.norm(rows, axis=1)
            assert np.all(np.linalg.norm(fft - reference, axis=1) <= allowed)

    def test_one_vector_is_one_row(self):
        b, v = timeop._block_transform(801), np.linspace(-1.0, 1.0, 400)
        assert np.array_equal(timeop._block_product(b, v), timeop._block_product(b, v[None])[0])

    @pytest.mark.parametrize("target", [1, 2, 7, 11, 599, 600, 601, 6143, 2 ** 20 + 1])
    def test_the_transform_length_is_the_least_5_smooth_one(self, target):
        def smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        length = timeop._smooth_length(target)
        assert length >= target and smooth(length)
        assert not any(smooth(k) for k in range(target, length))

    def test_the_bound_sits_below_the_schur_slack(self):
        # the docstring's figures, with d taken at its least high, 1: at most 0.3 d, and d/1000 from 400 on
        u = np.finfo(float).eps / 2.0
        slack = [timeop.SCHUR_SLACK_ULPS * 2.0 * u * n * n for n in range(2, 4097)]   # d at high = 1
        ratio = [product_rounding(n) / d for n, d in zip(range(2, 4097), slack)]
        assert max(ratio) <= 0.3 and max(ratio[398:]) <= 1e-3


class TestOscillatorCertificate:
    """The Ritz value is a lower end, one Schur pass proves the upper end, and each planted defect fails."""

    @pytest.mark.parametrize("n", [400, 800, 1600, 4096])
    def test_schur_pass_separates_the_largest_eigenvalue(self, n):
        sigma = svd_sigma_max(n)
        radius = osc_timeop_extremes(1.0, n).radius
        assert np.all(timeop._schur_pivots(toeplitz_row(sigma + radius, n)) > 0.0)
        assert not np.all(timeop._schur_pivots(toeplitz_row(sigma - 1e-12, n)) > 0.0)

    @pytest.mark.parametrize("shift", [math.pi, 2.5])
    def test_pivots_match_the_dense_factor(self, shift):
        row = toeplitz_row(shift, 40)
        mat = toeplitz_matrix(row)
        pivots = timeop._schur_pivots(row)
        # the first leading block that is not positive definite holds the first failed pivot
        minors = [np.linalg.eigvalsh(mat[:k, :k])[0] for k in range(1, 41)]
        first = next((k for k, low in enumerate(minors) if low <= 0.0), None)
        if first is None:
            assert shift == math.pi
            dense = np.abs(np.diag(np.linalg.cholesky(mat))) ** 2
            assert np.max(np.abs(pivots - dense) / dense) <= 1e-12
        else:
            assert shift == 2.5 and 0 < first < 40
            assert np.all(pivots[:first] > 0.0) and pivots[first] <= 0.0 and np.all(np.isnan(pivots[first + 1:]))

    @staticmethod
    def _recorded_columns(monkeypatch, record):
        """Record the columns of every subspace the Ritz step reads."""
        basis = timeop._ritz_basis
        monkeypatch.setattr(timeop, "_ritz_basis", lambda b, n, r: record(basis(b, n, r)))

    def test_the_whole_space_is_reached_by_doubling(self, monkeypatch):
        columns = []
        self._recorded_columns(monkeypatch, lambda v: columns.append(v.shape[1]) or v)
        # smooth columns and their Krylov block, 2r of them, r doubling
        e = osc_timeop_extremes(1.0, 4096)
        assert e.failed_size is None and e.subspace_dimension == 32 and columns == [16, 32]
        # no pass certifies: the subspace doubles until it is the whole space, 200 columns
        monkeypatch.setattr(timeop, "_schur_pivots", lambda row: np.full(row.size, -1.0))
        columns.clear()
        e = osc_timeop_extremes(1.0, 400)
        assert e.failed_size == 400 and columns == [16, 32, 64, 128, 200] and e.subspace_dimension == 200
        monkeypatch.setattr(timeop, "RITZ_START_COLUMNS", 3)
        columns.clear()
        e = osc_timeop_extremes(1.0, 40)
        assert e.failed_size == 40 and columns == [6, 12, 20] and e.subspace_dimension == 20

    def test_a_ritz_value_from_a_capped_subspace_fails(self, monkeypatch):
        # every subspace, the Krylov block and the whole space included, cut to its first two columns
        self._recorded_columns(monkeypatch, lambda v: v[:, :2])
        e = osc_timeop_extremes(1.0, 400)
        assert e.failed_size == 400 and e.subspace_dimension == 2
        assert e.high + e.radius < svd_sigma_max(400)   # a Rayleigh quotient: low, not wrong

    def test_each_benchmark_size_is_certified_on_its_first_pass(self, monkeypatch):
        # a work guard without timing: the dense-spectra oscspec sizes and the oscillator-bound ones
        passes = []
        pivots = timeop._schur_pivots
        monkeypatch.setattr(timeop, "_schur_pivots", lambda row: passes.append(row.size) or pivots(row))
        report = run(RunConfig(model={}, pipeline={"kind": "oscspec", "sizes": [400, 800, 1600]}, tolerances={}))
        assert report["passed"] is True and passes == [400, 800, 1600]
        assert all(row["subspace_dimension"] <= 32 for row in report["rows"])
        passes.clear()
        passed, details = acceptance.criterion_oscillator_bound(resolve_tolerances(), 7)
        assert passed is True and passes == details["sizes"] == [100, 200, 400, 800]
        assert details["subspace_dimension"] <= 32

    def test_a_planted_pivot_fails(self, monkeypatch):
        pivots = timeop._schur_pivots

        def planted(row):
            out = pivots(row)
            out[-1] = -out[-1]
            return out

        monkeypatch.setattr(timeop, "_schur_pivots", planted)
        e = osc_timeop_extremes(1.0, 400)
        assert e.failed_size == 400 and e.subspace_dimension == 200
        assert abs(e.high - svd_sigma_max(400)) <= 1e-14 * math.pi

    def test_a_zero_radius_fails_where_the_ritz_value_is_exact(self, monkeypatch):
        # n = 2: B = [[1]], so the shift sits on the eigenvalue 1 and |rho| = 1
        monkeypatch.setattr(timeop, "SCHUR_SLACK_ULPS", 0.0)
        e = osc_timeop_extremes(1.0, 2)
        assert (e.high, e.radius, e.failed_size) == (1.0, 0.0, 2)

    def test_a_nan_fails_without_raising(self, monkeypatch):
        transform = timeop._block_transform

        def poisoned(n):
            b = transform(n)
            b.symbol[5] = math.nan   # every product with B reads it
            return b

        monkeypatch.setattr(timeop, "_block_transform", poisoned)
        with np.errstate(all="raise"):
            e = osc_timeop_extremes(1.0, 400)
        assert e.failed_size == 400 and math.isnan(e.high)

    def test_the_pass_stops_at_a_nan_shift(self):
        pivots = timeop._schur_pivots(toeplitz_row(math.nan, 10))
        assert np.all(np.isnan(pivots))


class TestOscillatorCertificateFuzz:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=2, max_value=1200), omega=st.floats(min_value=0.05, max_value=20.0))
    def test_certified_within_the_radius_of_the_gram_reference(self, n, omega):
        e = osc_timeop_extremes(omega, n)
        assert e.failed_size is None and e.low == -e.high
        assert 1 <= e.subspace_dimension <= n // 2
        _, gram_hi = gram_extremes(omega, n)
        assert abs(e.high - gram_hi) <= e.radius + reference_rounding(omega, n)
        assert e.high + e.radius < math.pi / omega


class TestOscillatorExtremesFuzz:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=2, max_value=600), exponent=st.floats(min_value=-3.0, max_value=3.0))
    def test_the_value_is_the_largest_singular_value_from_at_most_32_columns(self, n, exponent):
        omega = 10.0 ** exponent
        e = osc_timeop_extremes(omega, n)
        sigma = float(np.linalg.svd(half_block(n), compute_uv=False)[0])
        assert e.failed_size is None
        assert abs(e.high * omega - sigma) <= 1e-14 * sigma
        assert e.subspace_dimension <= 32


class TestRealHermitianSolve:
    """Chains are real symmetric: they match the complex solve, and complex entries are refused."""

    def test_rabi_matches_the_complex_solve(self):
        h = rabi_hamiltonian(0.5, 1.0, 0.3, 150)
        assert h.diagonals.dtype == h.couplings.dtype == np.float64
        blocks = [np.diag(d) + np.diag(e, 1) + np.diag(e, -1) for d, e in zip(h.diagonals, h.couplings)]
        reference = np.sort(np.concatenate([np.linalg.eigvalsh(b.astype(complex)) for b in blocks]))[:60]
        spectrum = h.eigenvalues(60)
        assert np.max(np.abs(spectrum.values - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_complex_data_is_refused(self):
        with pytest.raises(ValueError, match="real"):
            HermitianMatrix(np.array([[1.0, -1.0]]), np.array([[2.0j]]))


class TestStackHoldsNoMatrix:
    """The certificate's scale is a full recomputation's, and a stack keeps nothing but eigenvalues."""

    @pytest.mark.parametrize("kind,values", [
        (MatrixKind.DIRECT, 0.5 + 0.37 * np.arange(101)),
        (MatrixKind.INVERSE_CONJUGATE, -1.0 / np.arange(1, 71) ** 2),
    ])
    def test_banded_scale_matches_a_full_recomputation(self, kind, values, monkeypatch):
        monkeypatch.setattr(timeop, "CCR_CHUNK", 200)
        assert certify(values, kind)[1] == np.max(np.abs(generator(values, kind)))

    def test_a_stack_keeps_only_eigenvalues(self):
        # no (c, d, d) array outlives the kernel that built it
        _, op = assemble_time_operator(hydrogen_point_spectrum(1.0, 1.0, 8))
        for g in op.groups:
            assert [f.name for f in fields(g)] == ["blocks", "eigenvalues"]
            assert g.blocks.shape == g.eigenvalues.shape[:1]


def _channel(n: int, kind: MatrixKind) -> np.ndarray:
    """The eigenvalues of the oscillator channel (direct) or of the hydrogen-like -1/k^2 one (inverse-conjugate), size n."""
    if kind is MatrixKind.DIRECT:
        return np.arange(n) + 0.5
    return -1.0 / np.arange(1, n + 1) ** 2


def whole_row_certificate(values, kind, rows=64):
    """||Delta||_F from whole rows, both triangles, every column: the certificate without its banding."""
    e = np.asarray(values, dtype=float)[None]
    h = pairing(values, kind)[None]
    d = e.shape[1]
    total = 0.0
    for start in range(0, d, rows):
        stop = min(d, start + rows)
        delta = twosum_dekker_defect(_entries(e, start, stop, kind), h[:, start:stop, None], h[:, None, :])
        delta.reshape(-1)[start::d + 1] = 0.0   # the diagonal of Delta is zero
        total += float(np.sum(delta * delta))
    return math.sqrt(total)


class TestBandedCertificate:
    """``ccr_certificates`` builds bands of the upper triangle; whole rows of Delta are the reference."""

    @pytest.mark.parametrize("kind", TIME_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 127, 300, 1501])
    def test_matches_the_whole_rows(self, n, kind):
        values = _channel(n, kind)
        certificate, scale = certify(values, kind)
        assert certificate == pytest.approx(whole_row_certificate(values, kind), rel=1e-13, abs=0.0)
        assert scale == np.max(np.abs(generator(values, kind)))

    @pytest.mark.parametrize("kind", TIME_KINDS)
    @pytest.mark.parametrize("row", [0, 299])
    def test_nan_in_one_entry_pair_gives_a_nan_certificate_and_fails(self, kind, row, monkeypatch):
        # a NaN at (row, 150) and (150, row), in the first or the last band; the eigenvalues are finite
        op = ChannelStack([_channel(300, kind)], kind)

        def poisoned(e, a):
            a[row, 150] = a[150, row] = math.nan
            return a

        plant(monkeypatch, timeop, poisoned, target=op.groups[0].eigenvalues[0])
        certificate, scale = ccr_certificates(op)
        assert math.isnan(certificate[0]) and math.isnan(scale[0])
        assert not certificate[0] <= ccr_allowed(op, scale, resolve_tolerances())[0]


def assert_same_bits(got, expected):
    assert len(got) == len(expected)
    assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, expected))


def recorded_paths(monkeypatch) -> list:
    """Record the (fast, split_in_range) flags of every ``_defect`` call: which gap error and which split ran."""
    calls = []
    defect = timeop._defect

    def recording(a, gap, hn, hm, fast, split_in_range, work):
        calls.append((fast, split_in_range))
        return defect(a, gap, hn, hm, fast, split_in_range, work)

    monkeypatch.setattr(timeop, "_defect", recording)
    return calls


class TestReferenceKernel:
    """The one-workspace certificate gives the bits of the TwoSum and scaled-Dekker kernel it replaced."""

    @pytest.mark.parametrize("omega", [1e-3, 1.0, 1e3])
    def test_the_oscillator(self, omega):
        _, op = assemble_time_operator(harmonic_spectrum([omega], 1500))
        assert_same_bits(ccr_certificates(op), reference_certificates(op))

    @pytest.mark.parametrize("gamma", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("n_max", [4, 16, 70])
    def test_hydrogen(self, n_max, gamma):
        _, op = assemble_time_operator(hydrogen_point_spectrum(1.0, gamma, n_max))
        assert_same_bits(ccr_certificates(op), reference_certificates(op))

    @pytest.mark.parametrize("kind,values,fast,split_in_range", [
        (MatrixKind.DIRECT, np.arange(40) + 0.5, True, True),                 # nonnegative: |h| nondecreasing
        (MatrixKind.DIRECT, -np.arange(40)[::-1] - 0.5, False, True),         # negative: |h| decreasing
        (MatrixKind.DIRECT, np.arange(40) - 19.7, False, True),               # mixed signs
        (MatrixKind.INVERSE_CONJUGATE, -1.0 / np.arange(1, 41) ** 2, True, True),
        (MatrixKind.INVERSE_CONJUGATE, np.array([-3.0, -0.7, 0.2, 1.9, 40.0]), False, True),
        (MatrixKind.DIRECT, (np.arange(40) + 0.5) * 2.0 ** 1000, True, False),   # |h| and |s| near 2^1000
        (MatrixKind.DIRECT, (np.arange(40) + 0.5) * 2.0 ** -1000, True, False),  # |A| near 2^1000
        (MatrixKind.INVERSE_CONJUGATE, -1.0 / np.arange(1, 41) ** 2 * 2.0 ** -500, True, False),
    ])
    def test_each_path_gives_the_reference_bits(self, monkeypatch, kind, values, fast, split_in_range):
        op = ChannelStack([values, 2.0 * values], kind)
        calls = recorded_paths(monkeypatch)
        assert_same_bits(ccr_certificates(op), reference_certificates(op))
        assert set(calls) == {(fast, split_in_range)}


class TestReferenceKernelFuzz:
    """Random rows of both kinds and every sign, at magnitudes up to 2^+-1000: the reference's bits."""

    @settings(max_examples=120, deadline=None)
    @given(
        gaps=st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=60),
        signs=st.sampled_from(["nonnegative", "negative", "mixed"]),
        exponent=st.sampled_from([0, 1000, -1000, 498, 500, -500, 30]),
        copies=st.integers(min_value=1, max_value=3),
        kind=st.sampled_from(TIME_KINDS),
        budget=st.sampled_from([timeop.CCR_CHUNK, 1, 64]),
    )
    def test_random_rows_give_the_reference_bits(self, gaps, signs, exponent, copies, kind, budget):
        values = np.concatenate([[1.0], 1.0 + np.cumsum(gaps)])
        if signs == "negative":
            values = -values[::-1]
        elif signs == "mixed":
            # no value within 2.5e-4 of zero: a gap is at least 1e-3
            values = values - 0.5 * (values[len(values) // 2] + values[(len(values) - 1) // 2]) - 2.5e-4
        if kind is MatrixKind.INVERSE_CONJUGATE:
            exponent = max(-400, min(exponent, 400))   # E_n E_m far from overflow and underflow
        rows = np.array([values * (1 + j) for j in range(copies)]) * 2.0 ** exponent
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(timeop, "CCR_CHUNK", budget)
            op = ChannelStack(rows, kind)
            assert_same_bits(ccr_certificates(op), reference_certificates(op))


class TestGroupedKernel:
    """Each group is certified at once and gets the bits of each channel certified alone."""

    @pytest.mark.parametrize("n_max", [4, 16])
    def test_hydrogen_groups_match_the_channels_alone_bit_for_bit(self, n_max):
        _, op = assemble_time_operator(hydrogen_point_spectrum(1.0, 1.0, n_max))
        alone = np.array([certify(ev, op.kind) if ev.size >= 2 else (0.0, 0.0) for ev in op.eigenvalues])
        assert_same_bits(ccr_certificates(op), alone.T)

    def test_groups_build_the_channels_built_alone(self):
        _, op = assemble_time_operator(hydrogen_point_spectrum(1.0, 1.0, 16))
        for g in op.groups:
            d = g.eigenvalues.shape[1]
            for block, row, a in zip(g.blocks, g.eigenvalues, _entries(g.eigenvalues, 0, d, op.kind)):
                assert np.array_equal(row, op.eigenvalues[block])
                assert np.array_equal(a, generator(row, op.kind))

    @pytest.mark.parametrize("budget", [1, 50, 1000])
    def test_smaller_chunks_give_the_same_certificates(self, monkeypatch, budget):
        # a band's rows and channels follow the budget, so only the sums' order changes
        _, op = assemble_time_operator(hydrogen_point_spectrum(1.0, 1.0, 8))
        certificate, scale = ccr_certificates(op)
        monkeypatch.setattr(timeop, "CCR_CHUNK", budget)
        chunked, chunked_scale = ccr_certificates(op)
        assert np.array_equal(chunked_scale, scale)
        np.testing.assert_allclose(chunked, certificate, rtol=1e-13, atol=0.0)


def traced_peak_mib(call) -> float:
    """Peak traced allocation of ``call()`` above what was held before it, in MiB."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - before) / 2 ** 20


class TestMemory:
    """No channel matrix is held whole: traced peaks of the pipelines that read the largest ones."""

    def test_oscillator_timeop_pipeline(self, tmp_path, capsys):
        # its one 1501-dimensional generator alone would hold 17.2 MiB
        argv = ["timeop", "--model", "oscillator", "--n-max", "1500", "--out", str(tmp_path)]
        assert traced_peak_mib(lambda: main(argv)) <= 8.0

    def test_hydrogen_uwform_pipeline(self, tmp_path, capsys):
        # the form's evaluators at n_max = 100 would hold 129.7 MiB
        argv = ["uwform", "--model", "hydrogen", "--n-max", "100", "--out", str(tmp_path)]
        assert traced_peak_mib(lambda: main(argv)) <= 32.0

    def test_oscillator_spectrum_extremes(self):
        # subspaces of at most 32 columns with their images, 0.2 MiB each; the dense B would hold 4.9 MiB
        assert traced_peak_mib(lambda: osc_timeop_extremes(1.0, 1600)) <= 8.0

    def test_oscillator_spectrum_extremes_at_the_size_cap(self):
        # the dense B alone would hold 32 MiB; the products hold a few dozen rows of the FFT length
        assert traced_peak_mib(lambda: osc_timeop_extremes(1.0, 4096)) <= 10.0

    def test_the_certificate_holds_a_few_buffers(self):
        # a band and the temporaries of its error-free arithmetic, CCR_CHUNK entries each
        op = ChannelStack([np.arange(1501) + 0.5], MatrixKind.DIRECT)
        assert traced_peak_mib(lambda: ccr_certificates(op)) * 2 ** 20 <= 16 * 8 * timeop.CCR_CHUNK


class TestStreamedKernelsFuzz:
    """Streamed in bands of one row and chunks of one channel, the kernels give the whole-matrix references."""

    @settings(max_examples=60, deadline=None)
    @given(
        low=st.floats(min_value=-50.0, max_value=50.0),
        gaps=st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=39),
        copies=st.integers(min_value=1, max_value=3),
        kind=st.sampled_from(list(MatrixKind)),
    )
    def test_the_whole_matrix_references(self, low, gaps, copies, kind):
        values = low + np.concatenate([[0.0], np.cumsum(gaps)])
        if kind is not MatrixKind.DIRECT:
            # keep 1/E and 1/E^2 in range: the values are pushed away from zero, order kept
            values = np.where(values < 0.0, values - 1e-3, values + 1e-3)
        rows = np.array([values * (1 + j) for j in range(copies)])   # channels of one dimension
        assert np.all(np.diff(rows, axis=1) > 0.0) and rows.shape[1] <= 40
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(timeop, "SWEEP_CHUNK", 1)
            mp.setattr(timeop, "CCR_CHUNK", 1)
            if kind is MatrixKind.FORM:
                assert np.array_equal(uwform.uw_ccr_bounds(ChannelStack(rows, kind)), certificate_stack(rows))
                return
            certificate, scale = ccr_certificates(ChannelStack(rows, kind))
        for row, got, largest in zip(rows, certificate, scale):
            a = generator(row, kind)
            exact = exact_defect_squares(pairing(row, kind), a)
            assert abs(Fraction(float(got)) ** 2 - exact) <= Fraction(1e-12) * exact
            assert largest == np.max(np.abs(a))

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1, max_size=39),
        exponents=st.lists(st.floats(min_value=-150.0, max_value=150.0), min_size=1, max_size=3),
        negative=st.booleans(),
        start=st.integers(0, 39),
        rows_in_band=st.integers(1, 40),
        first=st.integers(0, 39),
        kind=st.sampled_from(list(MatrixKind)),
    )
    def test_every_band_is_exactly_minus_its_transpose(self, gaps, exponents, negative, start, rows_in_band,
                                                       first, kind):
        # rows of either sign, scaled by 10^x for x in [-150, 150]: A = -A^T bit for bit, with no run-time check
        values = np.concatenate([[1.0], 1.0 + np.cumsum(gaps)])
        rows = np.array([(-values[::-1] if negative else values) * 10.0 ** x for x in exponents])
        d = rows.shape[1]
        start %= d
        stop = min(d, start + rows_in_band)
        first %= start + 1
        whole = generator_stack(rows, kind)
        assert np.array_equal(_entries(rows, start, stop, kind, first),
                              -whole[:, first:, start:stop].transpose(0, 2, 1))
