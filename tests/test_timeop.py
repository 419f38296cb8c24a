import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from timeops.spectra import (
    HERMITICITY_BAND_ROWS,
    HERMITICITY_RTOL,
    Accumulation,
    HermitianMatrix,
    _require_hermitian,
    hydrogen_point_spectrum,
    rabi_hamiltonian,
)
from timeops.timeop import (
    CCR_BAND_ROWS,
    CHANNEL_DIMENSION_LIMIT,
    MatrixKind,
    _generator_stack,
    assemble_time_operator,
    ccr_residual,
    channel_time_operator,
    galapon_matrix,
    TimeOperatorMatrix,
    osc_timeop_extremes,
    oscillator_bound_rows,
    random_difference_stack,
)

from dense_reference import dense_commutator, dense_residual_rows
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


class TestGalaponMatrix:
    def test_two_by_two_direct_entries(self):
        t = galapon_matrix((1.0, 2.0))
        expected = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        assert t.generator.dtype == np.float64
        assert np.array_equal(1j * t.generator, expected)

    def test_wide_gap_entry(self):
        t = galapon_matrix((1.0, 7.0))
        assert 1j * t.generator[0, 1] == 1j / -6.0
        assert 1j * t.generator[1, 0] == 1j / 6.0

    def test_inverse_conjugate_entries(self):
        t = galapon_matrix((1.0, 2.0), MatrixKind.INVERSE_CONJUGATE)
        assert t.generator[0, 1] == 2.0
        assert t.kind is MatrixKind.INVERSE_CONJUGATE

    def test_diagonal_is_exactly_zero(self):
        t = galapon_matrix(np.linspace(0.3, 9.7, 40))
        assert np.all(np.diag(t.generator) == 0.0)

    def test_exactly_hermitian_by_construction(self):
        t = galapon_matrix(np.cumsum(np.linspace(0.1, 2.0, 25)))
        assert np.array_equal(t.generator, -t.generator.T)
        assert t.hermiticity_defect() == 0.0

    def test_pairing_eigenvalues(self):
        direct = galapon_matrix((0.5, 1.5, 2.5))
        assert direct.pairing_eigenvalues == (0.5, 1.5, 2.5)
        ic = galapon_matrix((-2.0, -1.0), MatrixKind.INVERSE_CONJUGATE)
        assert ic.pairing_eigenvalues == (-0.5, -1.0)

    def test_inverse_conjugate_is_direct_matrix_of_reciprocals(self):
        ev = np.array([-2.0, -1.0, -0.5, -0.2])
        ic = galapon_matrix(ev, MatrixKind.INVERSE_CONJUGATE)
        inv = 1.0 / ev
        expected = np.zeros((4, 4), dtype=complex)
        for n in range(4):
            for m in range(4):
                if n != m:
                    expected[n, m] = 1j / (inv[n] - inv[m])
        scale = np.max(np.abs(ic.generator))
        assert np.max(np.abs(1j * ic.generator - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
    def test_direct_kind_scales_inversely(self, alpha):
        ev = np.array([0.5, 1.1, 2.9, 4.0])
        base = galapon_matrix(ev).generator
        scaled = galapon_matrix(alpha * ev).generator
        assert np.max(np.abs(scaled - base / alpha)) <= 1e-13 * np.max(np.abs(base))

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
    def test_inverse_conjugate_kind_scales_directly(self, alpha):
        ev = np.array([-2.0, -1.0, -0.4])
        base = galapon_matrix(ev, MatrixKind.INVERSE_CONJUGATE).generator
        scaled = galapon_matrix(alpha * ev, MatrixKind.INVERSE_CONJUGATE).generator
        assert np.max(np.abs(scaled - alpha * base)) <= 1e-13 * np.max(np.abs(scaled))

    def test_rejects_unsorted_and_zero_and_oversized(self):
        with pytest.raises(ValueError, match="increasing"):
            galapon_matrix((2.0, 1.0))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not Hermitian"):
            galapon_matrix([math.nan, 1.0])
        with pytest.raises(ValueError, match="nonzero"):
            galapon_matrix((-1.0, 0.0), MatrixKind.INVERSE_CONJUGATE)
        # the one off-diagonal product E_n*E_m is finite, though (1e300)^2 overflows
        t = galapon_matrix((-1e300, -1.0), MatrixKind.INVERSE_CONJUGATE)
        assert np.array_equal(t.generator, [[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match=r"products E_n\*E_m overflow .*largest \|eigenvalue\| inf\)"):
            galapon_matrix((1.0, math.inf), MatrixKind.INVERSE_CONJUGATE)
        with pytest.raises(ValueError, match=r"products E_n\*E_m overflow"):
            galapon_matrix((-1e300, -1e10), MatrixKind.INVERSE_CONJUGATE)
        with pytest.raises(ValueError, match="exceeds"):
            galapon_matrix(np.arange(CHANNEL_DIMENSION_LIMIT + 1, dtype=float))

    @pytest.mark.parametrize("kind,rows", [
        (MatrixKind.DIRECT, np.arange(15.0).reshape(3, 5) + 0.5),
        (MatrixKind.INVERSE_CONJUGATE, -1.0 / np.arange(1, 16).reshape(3, 5) ** 2),
        (MatrixKind.INVERSE_CONJUGATE, -1.0 / np.arange(1, 2 * CCR_BAND_ROWS + 3).reshape(2, -1) ** 2),
    ])
    def test_a_stack_builds_every_row_as_its_own_matrix(self, kind, rows):
        stack = _generator_stack(rows, kind)
        assert stack.shape == (*rows.shape, rows.shape[1])
        for row, a in zip(rows, stack):
            assert np.array_equal(a, galapon_matrix(row, kind).generator)

    def test_a_stack_refusal_names_the_first_failing_row(self):
        rows = np.array([[-1.0, -0.5], [-1e300, -1e10], [-1e301, -1e300]])
        with pytest.raises(ValueError, match=r"largest \|eigenvalue\| 1e\+300\)$"):
            _generator_stack(rows, MatrixKind.INVERSE_CONJUGATE)
        rows = np.array([[1.0, 2.0], [0.0, 5e-324], [0.0, 1e-323]])
        with pytest.raises(ValueError, match=r"smallest gap 5e-324\)$"):
            _generator_stack(rows, MatrixKind.DIRECT)

    @pytest.mark.parametrize("kind,values", [
        # E_n*E_m/(E_m - E_n) with subnormal eigenvalues: 1/gap overflows
        (MatrixKind.INVERSE_CONJUGATE, [-1.1125369292536007e-309, -2.781342323134002e-310]),
        # 1/(E_n - E_m) with a subnormal gap
        (MatrixKind.DIRECT, [0.0, 5e-324]),
    ])
    def test_overflowing_entries_are_refused_without_a_warning(self, kind, values):
        # the suite turns RuntimeWarnings into errors, so a warning fails this test
        with pytest.raises(ValueError, match=r"entries .* overflow to a non-finite value"):
            galapon_matrix(values, kind)

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0),
            min_size=2,
            max_size=20,
        )
    )
    def test_random_channels_are_hermitian_with_small_residual(self, gaps):
        ev = 0.5 + np.cumsum(gaps)
        t = galapon_matrix(ev)
        assert np.array_equal(t.generator, -t.generator.T)
        v = random_difference_vector(np.random.default_rng(11), ev.size)
        assert ccr_residual(t, v) <= 1e-10


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


class TestCcrResidual:
    def test_commutator_is_i_times_hollow_ones(self):
        ev = np.array([0.5, 1.7, 3.1])
        comm = dense_commutator(galapon_matrix(ev))
        expected = 1j * (np.ones((3, 3)) - np.eye(3))
        assert np.max(np.abs(comm - expected)) <= 1e-13

    def test_basis_vector_is_rejected(self):
        ev = np.array([1.0, 2.0, 3.0])
        t = galapon_matrix(ev)
        e0 = np.zeros(3, dtype=complex)
        e0[0] = 1.0
        with pytest.raises(ValueError, match="difference span"):
            ccr_residual(t, e0)

    def test_difference_of_basis_vectors(self):
        vals = np.array([-1.0 / n ** 2 for n in range(1, 7)])
        t = galapon_matrix(vals, MatrixKind.INVERSE_CONJUGATE)
        v = np.zeros(6, dtype=complex)
        v[0], v[3] = 1.0, -1.0
        v /= np.linalg.norm(v)
        assert ccr_residual(t, v) <= 1e-12

    def test_random_vectors_on_a_wide_channel(self):
        ev = 0.5 + 0.37 * np.arange(50)
        t = galapon_matrix(ev)
        rng = np.random.default_rng(7)
        worst = max(
            ccr_residual(t, random_difference_vector(rng, 50)) for _ in range(20)
        )
        assert worst <= 1e-12

    def test_dimension_mismatch_rejected(self):
        ev = np.array([1.0, 2.0])
        t = galapon_matrix(ev)
        with pytest.raises(ValueError):
            ccr_residual(t, np.zeros(3, dtype=complex))
        with pytest.raises(ValueError):
            ccr_residual(t, np.zeros((4, 3), dtype=complex))
        with pytest.raises(ValueError, match="at least one vector"):
            ccr_residual(t, np.zeros((0, 2), dtype=complex))

    @pytest.mark.parametrize("kind,values", [
        (MatrixKind.DIRECT, 0.5 + 0.37 * np.arange(60)),
        (MatrixKind.INVERSE_CONJUGATE, -1.0 / np.arange(1, 41) ** 2),
    ])
    def test_stack_is_the_worst_single_vector(self, kind, values):
        # one matrix product sums in another order than one product per row
        t = galapon_matrix(values, kind)
        rng = np.random.default_rng(21)
        stack = np.array([random_difference_vector(rng, t.dimension) for _ in range(12)])
        singles = [ccr_residual(t, v.copy()) for v in stack]
        reference = max(np.linalg.norm(dense_commutator(t) @ v + 1j * v) for v in stack)
        assert max(singles) == pytest.approx(reference, rel=0.0, abs=1e-13 * t.scale)
        assert ccr_residual(t, stack) == pytest.approx(reference, rel=0.0, abs=1e-13 * t.scale)
        assert ccr_residual(t, list(stack)) == ccr_residual(t, stack)
        assert ccr_residual(t, stack) <= 1e-12 * t.scale

    def test_nan_vector_is_rejected(self):
        ev = np.array([1.0, 2.0, 3.0])
        v = np.array([1.0, -1.0, math.nan], dtype=complex)
        with pytest.raises(ValueError, match="difference span"):
            ccr_residual(galapon_matrix(ev), v)

    def test_stack_rejects_any_row_outside_the_span(self):
        ev = np.array([1.0, 2.0, 3.0])
        t = galapon_matrix(ev)
        rng = np.random.default_rng(4)
        stack = np.array([random_difference_vector(rng, 3) for _ in range(3)])
        stack[1] = [1.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="difference span"):
            ccr_residual(t, stack)

    def test_stack_error_names_the_first_bad_row(self):
        t = galapon_matrix(np.array([1.0, 2.0, 3.0]))
        rng = np.random.default_rng(4)
        stack = np.array([random_difference_vector(rng, 3) for _ in range(4)])
        stack[1] = [0.25, 0.0, 0.0]
        stack[2] = [math.nan, 0.0, 0.0]
        stack[3] = [2.0, 0.0, 0.0]
        with pytest.raises(ValueError, match=r"coefficient sum 2\.500e-01\)"):
            ccr_residual(t, stack)
        stack[1] = stack[0]
        with pytest.raises(ValueError, match=r"coefficient sum nan\)"):
            ccr_residual(t, stack)


class TestBlockOperator:
    """The block time operator: a tuple of per-channel matrices, laid out one after the other."""

    @staticmethod
    def _two_blocks():
        a = channel_time_operator([-1.0, -0.25, -1.0 / 9.0], Accumulation.TO_ZERO)
        b = channel_time_operator([-0.0625, -0.04], Accumulation.TO_ZERO)
        return a, b

    @staticmethod
    def _pieces(op, v):
        return np.split(v, np.cumsum([t.dimension for t in op])[:-1])

    @classmethod
    def _blockwise_residual(cls, op, v):
        total = 0.0
        for t, piece in zip(op, cls._pieces(op, v)):
            total += ccr_residual(t, piece) ** 2
        return math.sqrt(total)

    def test_shapes_and_slices(self):
        op = self._two_blocks()
        assert [t.dimension for t in op] == [3, 2]
        first, second = self._pieces(op, np.arange(5.0))
        np.testing.assert_array_equal(first, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(second, [3.0, 4.0])
        np.testing.assert_array_equal(
            np.concatenate([t.pairing_eigenvalues for t in op]), [-1.0, -4.0, -9.0, -16.0, -25.0]
        )

    def test_full_residual_with_per_block_membership(self):
        op = self._two_blocks()
        rng = np.random.default_rng(2)
        v = np.concatenate(
            [random_difference_vector(rng, 3), random_difference_vector(rng, 2)]
        )
        assert self._blockwise_residual(op, v) <= 1e-10

    def test_globally_balanced_but_blockwise_unbalanced_vector_is_rejected(self):
        op = self._two_blocks()
        v = np.array([1.0, 0.0, 0.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
        with pytest.raises(ValueError, match="difference span"):
            self._blockwise_residual(op, v)


class TestChannelTimeOperator:
    def test_zero_accumulation_routes_to_inverse_conjugate(self):
        t = channel_time_operator([-0.5, -0.125], Accumulation.TO_ZERO)
        assert t.kind is MatrixKind.INVERSE_CONJUGATE

    def test_infinity_accumulation_routes_to_direct(self):
        t = channel_time_operator([0.5, 1.5], Accumulation.TO_INFINITY)
        assert t.kind is MatrixKind.DIRECT

    def test_values_are_sorted_before_building(self):
        t = channel_time_operator([2.5, 0.5, 1.5], Accumulation.TO_INFINITY)
        assert t.eigenvalues == (0.5, 1.5, 2.5)


class TestAssembleTimeOperator:
    def test_hydrogen_end_to_end(self):
        deco, op = assemble_time_operator(hydrogen_point_spectrum(1.0, 1.0, 3))
        assert deco.channel_count == 9
        assert isinstance(op, tuple) and len(op) == 9
        assert sum(t.dimension for t in op) == 14
        rng = np.random.default_rng(13)
        worst = 0.0
        for t in op:
            if t.dimension < 2:
                continue
            v = random_difference_vector(rng, t.dimension)
            worst = max(worst, ccr_residual(t, v))
        assert worst <= 1e-12


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
    return np.linalg.eigvalsh(1j * galapon_matrix(omega * (np.arange(n) + 0.5)).generator)


class TestOscillatorSpectrum:
    def test_smallest_truncation(self):
        lo, hi = osc_timeop_extremes(1.0, 2)
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_symbol_and_monotone(self):
        omega = 2.0
        tops = []
        for n in (4, 16, 64):
            lo, hi = osc_timeop_extremes(omega, n)
            assert hi < math.pi / omega
            assert lo > -math.pi / omega
            tops.append(hi)
        assert tops[0] < tops[1] < tops[2]

    def test_scales_like_inverse_frequency(self):
        _, hi1 = osc_timeop_extremes(1.0, 50)
        _, hi2 = osc_timeop_extremes(2.0, 50)
        assert hi2 == pytest.approx(hi1 / 2.0, rel=1e-12)

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
    def test_matches_the_dense_reference(self, omega, n):
        lo, hi = osc_timeop_extremes(omega, n)
        reference = dense_spectrum(omega, n)
        assert lo == -hi
        assert abs(lo - reference[0]) <= 1e-14 * math.pi / omega
        assert abs(hi - reference[-1]) <= 1e-14 * math.pi / omega

    @pytest.mark.parametrize("n", [1600, 1601, 3200, 4096])
    def test_matches_the_svd_reference(self, n):
        lo, hi = osc_timeop_extremes(1.0, n)
        reference = svd_spectrum(1.0, n)
        assert abs(hi - reference[-1]) <= 1e-14 * reference[-1]
        assert abs(lo - reference[0]) <= 1e-14 * reference[-1]

    @pytest.mark.parametrize("n", [2, 3, 16, 17, 101])
    def test_svd_reference_is_the_dense_spectrum(self, n):
        assert np.max(np.abs(svd_spectrum(2.5, n) - dense_spectrum(2.5, n))) <= 1e-14 * math.pi / 2.5


class TestOscillatorBoundRows:
    """The one bound-and-monotone verdict that oscspec and the acceptance suite share."""

    def test_rows_from_measured_extremes(self):
        sizes = (4, 16, 64)
        extremes = [osc_timeop_extremes(2.0, n) for n in sizes]
        rows, monotone = oscillator_bound_rows(sizes, extremes, 2.0, 1e-9)
        assert [row["size"] for row in rows] == list(sizes)
        assert [(row["lambda_min"], row["lambda_max"]) for row in rows] == extremes
        assert all(row["within_bound"] is True for row in rows)
        assert monotone is True

    def test_bound_is_pi_over_omega_plus_slack(self):
        bound = math.pi / 2.0
        rows, _ = oscillator_bound_rows(
            (2, 3, 4), [(-1.0, bound + 1e-3), (-bound - 1e-3, 1.0), (-1.0, bound + 1e-3)], 2.0, 2e-3)
        assert [row["within_bound"] for row in rows] == [True, True, True]
        rows, _ = oscillator_bound_rows(
            (2, 3, 4), [(-1.0, bound + 1e-3), (-bound - 1e-3, 1.0), (-1.0, 1.0)], 2.0, 0.0)
        assert [row["within_bound"] for row in rows] == [False, False, True]

    def test_a_falling_maximum_is_not_monotone(self):
        _, monotone = oscillator_bound_rows((2, 3, 4), [(-1.0, 1.0), (-1.1, 1.1), (-1.05, 1.05)], 1.0, 0.0)
        assert monotone is False
        _, monotone = oscillator_bound_rows((2, 3), [(-1.0, 1.0), (-1.0, 1.0)], 1.0, 0.0)
        assert monotone is True


class TestRealHermitianSolve:
    """Blocks are solved as given: real symmetric stays real, complex stays complex."""

    def test_rabi_matches_the_complex_solve(self):
        h = rabi_hamiltonian(0.5, 1.0, 0.3, 150)
        assert all(b.dtype == np.float64 for b in h.blocks)
        reference = np.sort(np.concatenate([np.linalg.eigvalsh(b.astype(complex)) for b in h.blocks]))
        ev = h.eigenvalues()
        assert np.max(np.abs(ev - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_complex_data_keeps_the_complex_solve(self):
        data = np.array([[1.0, 2.0j], [-2.0j, -1.0]])
        ev = HermitianMatrix(2, (data,), ("a", "b")).eigenvalues()
        np.testing.assert_allclose(ev, [-math.sqrt(5.0), math.sqrt(5.0)], rtol=1e-14)


def full_antisymmetry(a: np.ndarray) -> tuple[float, float]:
    """Reference: (max |A|, max |A + A^T|) over the whole generator at once."""
    return float(np.max(np.abs(a))), float(np.max(np.abs(a + a.T)))


def full_hermiticity(data: np.ndarray) -> tuple[float, float]:
    """Reference: (max |T|, max |T - T^H|) over the whole matrix at once."""
    return float(np.max(np.abs(data))), float(np.max(np.abs(data - data.conj().T)))


def _generator(dim: int) -> tuple[np.ndarray, tuple[float, ...]]:
    """A writable copy of a direct generator and its eigenvalues."""
    ev = 0.5 + 0.37 * np.arange(dim)
    return np.array(galapon_matrix(ev).generator), tuple(ev)


class TestHermiticityPass:
    """One banded antisymmetry pass over the generator gives the scale and defect of a full recomputation."""

    @pytest.mark.parametrize("kind,values", [
        (MatrixKind.DIRECT, 0.5 + 0.37 * np.arange(101)),
        (MatrixKind.INVERSE_CONJUGATE, -1.0 / np.arange(1, 71) ** 2),
    ])
    def test_stored_values_match_a_full_recomputation(self, kind, values):
        t = galapon_matrix(values, kind)
        scale, defect = full_antisymmetry(t.generator)
        assert (scale, defect) == full_hermiticity(1j * t.generator)
        assert t.scale == scale
        assert t.hermiticity_defect() == defect / scale == 0.0

    def test_banded_defect_of_a_perturbed_matrix(self):
        assert 2 * HERMITICITY_BAND_ROWS < 77 <= 3 * HERMITICITY_BAND_ROWS
        # the perturbations sit in the first band and in the last
        a, ev = _generator(77)
        a[70, 3] += 1e-14 * abs(a[70, 3])
        a[5, 60] *= 1.0 + 3e-15
        assert _require_hermitian(a, skew=True) == full_antisymmetry(a)
        assert _require_hermitian(1j * a) == full_hermiticity(1j * a) == full_antisymmetry(a)
        scale, defect = full_antisymmetry(a)
        t = TimeOperatorMatrix(77, a, ev, MatrixKind.DIRECT)
        assert (t.scale, t.hermiticity_defect()) == (scale, defect / scale)
        assert t.hermiticity_defect() > 0.0

    @pytest.mark.parametrize("bad", [math.nan, 1.0])
    def test_nan_or_non_hermitian_entry_in_a_late_band_raises(self, bad):
        a, ev = _generator(77)
        a[76, 2] = bad
        with pytest.raises(ValueError, match="not Hermitian"):
            _require_hermitian(a, skew=True)
        with pytest.raises(ValueError, match="not Hermitian"):
            TimeOperatorMatrix(77, a, ev, MatrixKind.DIRECT)

    def test_a_stack_is_checked_matrix_by_matrix(self):
        a = np.stack([_generator(77)[0] for _ in range(3)])
        a[1, 70, 3] += 1e-14 * abs(a[1, 70, 3])
        scale, defect = _require_hermitian(a, skew=True)
        assert [(s, d) for s, d in zip(scale, defect)] == [full_antisymmetry(m) for m in a]
        assert defect[0] == defect[2] == 0.0 < defect[1]
        a[2, 76, 2] = math.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            _require_hermitian(a, skew=True)

    def test_one_entry_breaking_antisymmetry_raises(self):
        # a symmetric perturbation just above the tolerance, in one entry
        a, ev = _generator(300)
        a[200, 17] += 2.0 * HERMITICITY_RTOL * np.max(np.abs(a))
        with pytest.raises(ValueError, match="not Hermitian"):
            TimeOperatorMatrix(300, a, ev, MatrixKind.DIRECT)

    def test_constructor_takes_ownership_of_a_real_generator(self):
        a, ev = _generator(5)
        t = TimeOperatorMatrix(5, a, ev, MatrixKind.DIRECT)
        assert t.generator is a
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="must be real"):
            TimeOperatorMatrix(5, 1j * a, ev, MatrixKind.DIRECT)


def _channel(n: int, kind: MatrixKind):
    """The oscillator channel (direct) or the hydrogen-like -1/k^2 one (inverse-conjugate) of size n."""
    if kind is MatrixKind.DIRECT:
        return galapon_matrix(np.arange(n) + 0.5, kind)
    return galapon_matrix(-1.0 / np.arange(1, n + 1) ** 2, kind)


class TestBandedCommutator:
    """``ccr_residual`` streams the commutator in bands; the dense product is the reference."""

    @pytest.mark.parametrize("kind", list(MatrixKind))
    @pytest.mark.parametrize("n", [2, CCR_BAND_ROWS - 1, CCR_BAND_ROWS, CCR_BAND_ROWS + 1, 300, 1501])
    def test_matches_the_dense_commutator_row_by_row(self, n, kind):
        t = _channel(n, kind)
        comm = dense_commutator(t)
        for k in (1, 20):
            stack = random_difference_stack(np.random.default_rng(n + k), n, k)
            # a single row goes to a matrix-vector product, a stack to a matrix product
            for v in stack:
                assert abs(ccr_residual(t, v) - dense_residual_rows(comm, v[None])[0]) <= 1e-15 * t.scale
            assert abs(ccr_residual(t, stack) - np.max(dense_residual_rows(comm, stack))) <= 1e-15 * t.scale

    @pytest.mark.parametrize("kind", list(MatrixKind))
    @pytest.mark.parametrize("row", [0, 299])
    def test_nan_in_one_row_gives_a_nan_residual_and_fails(self, kind, row):
        t = _channel(300, kind)
        ev = list(t.eigenvalues)
        ev[row] = math.nan
        broken = TimeOperatorMatrix(300, t.generator, ev, kind)
        worst = ccr_residual(broken, random_difference_stack(np.random.default_rng(3), 300, 20))
        assert math.isnan(worst)
        assert not worst <= 1e-12 * broken.scale


class TestMemory:
    """The oscillator channel at n = 1501 holds one real n x n array and no complex one."""

    def test_build_and_residual_stay_within_their_budgets(self):
        n = 1501
        square = 8 * n * n
        ev = np.arange(n) + 0.5
        stack = random_difference_stack(np.random.default_rng(1), n, 20)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            t = galapon_matrix(ev)
            held, peak = tracemalloc.get_traced_memory()
            assert peak - before < 1.5 * square
            tracemalloc.reset_peak()
            ccr_residual(t, stack)
            _, peak = tracemalloc.get_traced_memory()
            assert peak - held < 0.5 * square
        finally:
            tracemalloc.stop()
