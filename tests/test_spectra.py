import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from timeops import timeop
from timeops import spectra
from timeops.spectra import (
    CHANNEL_DIMENSION_LIMIT,
    STATE_COUNT_LIMIT,
    Accumulation,
    DiscreteSpectrum,
    HermitianMatrix,
    harmonic_spectrum,
    hydrogen_point_spectrum,
    rabi_bound_check,
    rabi_check,
    rabi_hamiltonian,
)

from dense_reference import rabi_chain_labels


class TestHarmonic:
    def test_one_dimensional_levels(self):
        s = harmonic_spectrum([1.0], 3)
        assert s.accumulation is Accumulation.TO_INFINITY
        np.testing.assert_allclose(s.values, [0.5, 1.5, 2.5, 3.5])
        assert s.multiplicities == (1, 1, 1, 1)

    def test_equal_frequencies_merge_into_degeneracies(self):
        s = harmonic_spectrum([1.0, 1.0], 2)
        np.testing.assert_allclose(s.values, [1.0, 2.0, 3.0])
        assert s.multiplicities == (1, 2, 3)

    def test_incommensurate_pair_stays_simple(self):
        root2 = math.sqrt(2.0)
        s = harmonic_spectrum([1.0, root2], 2)
        base = 0.5 * (1.0 + root2)
        expected = sorted(base + a + b * root2 for a in range(3) for b in range(3 - a))
        np.testing.assert_allclose(s.values, expected, rtol=1e-12)
        assert s.multiplicities == (1,) * 6

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=8))
    def test_equal_frequency_degeneracy_is_binomial(self, dims, n_max):
        s = harmonic_spectrum([1.0] * dims, n_max)
        assert len(s.entries) == n_max + 1
        for level, (value, mult) in enumerate(s.entries):
            assert mult == math.comb(level + dims - 1, dims - 1)
            assert value == pytest.approx(level + dims / 2.0)
        assert s.total_states == math.comb(n_max + dims, dims)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            harmonic_spectrum([], 3)
        with pytest.raises(ValueError):
            harmonic_spectrum([1.0, -2.0], 3)
        with pytest.raises(ValueError):
            harmonic_spectrum([1.0], 0)

    @pytest.mark.parametrize("omega", [math.nan, math.inf])
    def test_rejects_non_finite_frequency(self, omega):
        with pytest.raises(ValueError, match="finite"):
            harmonic_spectrum([omega], 3)

    @pytest.mark.parametrize("omega,match", [([1e308, 1e308], "overflow"), ([1e308], "finite")])
    def test_overflowing_levels_are_an_input_error(self, omega, match):
        # two frequencies near the float maximum overflow inside math.fsum, one in a level
        with pytest.raises(ValueError, match=match):
            harmonic_spectrum(omega, 2)


class TestHydrogen:
    def test_standard_parameters(self):
        s = hydrogen_point_spectrum(1.0, 1.0, 4)
        assert s.accumulation is Accumulation.TO_ZERO
        np.testing.assert_allclose(s.values, [-0.5, -0.125, -1.0 / 18.0, -0.03125])
        assert s.multiplicities == (1, 4, 9, 16)
        assert s.total_states == 30

    def test_scaled_parameters(self):
        s = hydrogen_point_spectrum(2.0, 0.5, 3)
        np.testing.assert_allclose(s.values, [-0.25, -0.0625, -0.25 / 9.0])

    def test_total_states_is_sum_of_squares(self):
        for n_max in (1, 2, 5, 9):
            s = hydrogen_point_spectrum(1.0, 1.0, n_max)
            assert s.total_states == sum(n * n for n in range(1, n_max + 1))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            hydrogen_point_spectrum(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            hydrogen_point_spectrum(1.0, -1.0, 3)
        with pytest.raises(ValueError):
            hydrogen_point_spectrum(1.0, 1.0, 0)
        with pytest.raises(ValueError, match="finite"):
            hydrogen_point_spectrum(math.nan, 1.0, 3)
        with pytest.raises(ValueError, match="finite"):
            hydrogen_point_spectrum(1.0, math.inf, 3)


class TestDiscreteSpectrum:
    def test_json_roundtrip(self):
        s = hydrogen_point_spectrum(1.0, 1.0, 3)
        back = DiscreteSpectrum.from_json(s.to_json())
        assert back.entries == s.entries
        assert back.accumulation is s.accumulation
        assert back.label == s.label

    def test_rejects_unsorted_values(self):
        with pytest.raises(ValueError):
            DiscreteSpectrum(((-0.1, 1), (-0.5, 1)), Accumulation.TO_ZERO)

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            DiscreteSpectrum(((-0.5, 0),), Accumulation.TO_ZERO)

    @pytest.mark.parametrize("multiplicity", [1.5, 2.0, math.nan, "2", True])
    def test_rejects_non_integer_multiplicity(self, multiplicity):
        doc = {"accumulation": "to_zero", "entries": [[-1.0, multiplicity]]}
        with pytest.raises(ValueError, match="not an integer"):
            DiscreteSpectrum.from_json(doc)
        with pytest.raises(ValueError, match="not an integer"):
            DiscreteSpectrum(((-1.0, multiplicity),), Accumulation.TO_ZERO)

    @pytest.mark.parametrize("doc", [
        [[-1.0, 1]],
        {"accumulation": "to_zero"},
        {"accumulation": "to_zero", "entries": 5},
        {"accumulation": "to_zero", "entries": [5]},
        {"accumulation": "to_zero", "entries": [[-1.0]]},
        {"accumulation": "to_zero", "entries": [[-1.0, 1, 1]]},
        {"accumulation": "to_zero", "entries": [["-1", 1]]},
        {"accumulation": "to_zero", "entries": [[True, 1]]},
        {"accumulation": "to_zero", "entries": [[None, 1]]},
        {"accumulation": "to_zero", "entries": [[math.nan, 1]]},
        {"accumulation": "to_zero", "entries": [[-(10 ** 400), 1]]},
    ])
    def test_from_json_rejects_a_malformed_document(self, doc):
        with pytest.raises(ValueError, match="JSON object|pairs"):
            DiscreteSpectrum.from_json(doc)

    def test_from_json_rejects_an_unknown_accumulation(self):
        with pytest.raises(ValueError, match="Accumulation"):
            DiscreteSpectrum.from_json({"entries": [[-1.0, 1]]})

    def test_accepts_numpy_integer_multiplicity(self):
        s = DiscreteSpectrum(((-1.0, np.int64(3)),), Accumulation.TO_ZERO)
        assert s.multiplicities == (3,) and type(s.multiplicities[0]) is int

    def test_rejects_positive_value_in_zero_accumulating_spectrum(self):
        with pytest.raises(ValueError):
            DiscreteSpectrum(((-0.5, 1), (0.5, 1)), Accumulation.TO_ZERO)

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="finite"):
            DiscreteSpectrum(((math.nan, 1), (-1.0, 1)), Accumulation.TO_INFINITY)
        with pytest.raises(ValueError, match="finite"):
            DiscreteSpectrum(((1.0, 1), (math.inf, 1)), Accumulation.TO_INFINITY)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteSpectrum((), Accumulation.TO_ZERO)


def dense_rabi(mu: float, omega: float, g: float, cutoff: int) -> tuple[np.ndarray, list[str]]:
    """Reference: the Rabi matrix built densely from Kronecker products.

    Product basis spin (x) number state, spin-up block first, with the
    ladder entries that leave the retained number states dropped.
    """
    dim = cutoff + 1
    lower = np.zeros((dim, dim))
    for n in range(1, dim):
        lower[n - 1, n] = math.sqrt(n)
    number = lower.T @ lower
    quad = lower + lower.T
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    h = mu * np.kron(sz, np.eye(dim)) + omega * np.kron(np.eye(2), number) + g * np.kron(sx, quad)
    labels = [f"{s}|n={n}" for s in ("up", "down") for n in range(dim)]
    return h, labels


class TestStateCountLimit:
    def test_hydrogen_admits_the_last_level_below_the_cap(self):
        assert 143 * 144 * 287 // 6 <= STATE_COUNT_LIMIT < 144 * 145 * 289 // 6
        assert hydrogen_point_spectrum(1.0, 1.0, 143).total_states == 143 * 144 * 287 // 6
        with pytest.raises(ValueError, match="n_max = 144 gives more than 1000000 states"):
            hydrogen_point_spectrum(1.0, 1.0, 144)

    def test_oscillator_counts_lattice_points_before_enumerating(self):
        # C(130, 2) = 8385 points fit; C(1416, 2) = 1001820 do not
        assert harmonic_spectrum([1.0, 1.3], 128).total_states == math.comb(130, 2)
        with pytest.raises(ValueError, match="in 2 dimensions gives more than"):
            harmonic_spectrum([1.0, 1.3], 1414)
        with pytest.raises(ValueError, match="in 6 dimensions"):
            harmonic_spectrum([1.0] * 6, 60)
        with pytest.raises(ValueError, match="in 1 dimensions"):
            harmonic_spectrum([1.0], 10 ** 30)

    def test_lattice_point_count_is_the_binomial_up_to_the_cap(self):
        for dims in range(1, 8):
            for total in range(1, 60):
                exact = math.comb(total + dims, dims)
                count = spectra._lattice_point_count(dims, total)
                assert count == exact if exact <= STATE_COUNT_LIMIT else count > STATE_COUNT_LIMIT
        assert spectra._lattice_point_count(10 ** 6, 10 ** 6) > STATE_COUNT_LIMIT

    def test_document_beyond_the_cap_is_rejected(self):
        with pytest.raises(ValueError, match="spectrum has 1000001 states, beyond the limit 1000000"):
            DiscreteSpectrum(((-1.0, 10 ** 6), (-0.5, 1)), Accumulation.TO_ZERO)
        assert DiscreteSpectrum(((-1.0, 10 ** 6),), Accumulation.TO_ZERO).total_states == 10 ** 6


class TestRabiParityBlocks:
    """The two parity chains against the dense Kronecker-product matrix."""

    @pytest.mark.parametrize("g", [0.0, 0.3, 2.0])
    @pytest.mark.parametrize("cutoff", [2, 3, 10, 150, 600])
    def test_eigenvalues_match_the_dense_reference(self, cutoff, g):
        h = rabi_hamiltonian(0.5, 1.0, g, cutoff)
        dense, _ = dense_rabi(0.5, 1.0, g, cutoff)
        reference = np.linalg.eigvalsh(dense)
        ev = h.eigenvalues()
        assert h.dimension == ev.size == 2 * (cutoff + 1)
        assert np.max(np.abs(ev - reference)) <= 1e-12 * np.max(np.abs(reference))

    @pytest.mark.parametrize("cutoff", [2, 3, 10])
    def test_labels_permute_the_dense_matrix_into_the_blocks(self, cutoff):
        h = rabi_hamiltonian(0.5, 1.3, 0.7, cutoff)
        dense, labels = dense_rabi(0.5, 1.3, 0.7, cutoff)
        chains = rabi_chain_labels(cutoff)
        assert sorted(chains) == sorted(labels)
        order = [labels.index(label) for label in chains]
        permuted = dense[np.ix_(order, order)]
        size = cutoff + 1
        expected = np.zeros_like(dense)
        expected[:size, :size], expected[size:, size:] = h.blocks
        assert [b.shape for b in h.blocks] == [(size, size), (size, size)]
        np.testing.assert_allclose(permuted, expected, rtol=0.0, atol=1e-14 * np.max(np.abs(dense)))

    def test_chains_alternate_the_spin(self):
        assert rabi_chain_labels(3) == (
            "up|n=0", "down|n=1", "up|n=2", "down|n=3",
            "down|n=0", "up|n=1", "down|n=2", "up|n=3",
        )


class TestRabi:
    def test_dimension_and_labels(self):
        h = rabi_hamiltonian(0.5, 1.0, 0.3, 5)
        assert h.dimension == 12 == len(rabi_chain_labels(5))
        assert [b.shape for b in h.blocks] == [(6, 6), (6, 6)]

    def test_uncoupled_eigenvalues_are_shifted_ladders(self):
        h = rabi_hamiltonian(0.5, 1.0, 0.0, 30)
        expected = sorted(n + s for n in range(31) for s in (-0.5, 0.5))
        np.testing.assert_allclose(h.eigenvalues()[:40], expected[:40], atol=1e-12)

    def test_bound_check_at_coupled_parameters(self):
        ev = rabi_hamiltonian(0.5, 1.0, 0.3, 120).eigenvalues()
        assert all(rabi_bound_check(ev, 0.5, 1.0, 0.3, 15))

    def test_shifting_the_spectrum_breaks_the_first_bound(self):
        ev = rabi_hamiltonian(0.5, 1.0, 0.3, 120).eigenvalues()
        shifted = rabi_bound_check(ev + 2 * 0.5, 0.5, 1.0, 0.3, 15)
        assert shifted[0] is False

    def test_bound_check_rejects_oversized_count(self):
        with pytest.raises(ValueError):
            rabi_bound_check(np.zeros(10), 0.5, 1.0, 0.3, 6)

    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError):
            rabi_hamiltonian(0.5, 1.0, 0.3, 1)

    def test_rejects_a_cutoff_beyond_the_dimension_limit(self):
        # the subprocess test in test_cli.py covers a cutoff far beyond it
        with pytest.raises(ValueError, match="dimension 4097, beyond the dense-solver limit 4096"):
            rabi_hamiltonian(0.5, 1.0, 0.3, CHANNEL_DIMENSION_LIMIT)

    def test_one_dimension_limit_for_every_dense_block(self):
        assert timeop.CHANNEL_DIMENSION_LIMIT is CHANNEL_DIMENSION_LIMIT

    def test_check_solves_and_bounds(self):
        ev, bounds = rabi_check(0.5, 1.0, 0.3, 120, 15)
        np.testing.assert_array_equal(ev, rabi_hamiltonian(0.5, 1.0, 0.3, 120).eigenvalues())
        assert bounds == rabi_bound_check(ev, 0.5, 1.0, 0.3, 15)
        assert all(bounds)
        with pytest.raises(ValueError, match="count too large"):
            rabi_check(0.5, 1.0, 0.3, 10, 12)

    def test_rejects_infinite_coupling(self):
        # the coupling is rejected by name before any matrix entry is formed
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="g must be finite"):
            rabi_hamiltonian(0.5, 1.0, math.inf, 10)

    @pytest.mark.parametrize("name,args", [
        ("mu", (math.nan, 1.0, 0.3)),
        ("omega", (0.5, math.nan, 0.3)),
        ("g", (0.5, 1.0, -math.inf)),
        ("mu", (math.inf, 1.0, 0.3)),
    ])
    def test_rejects_a_non_finite_parameter_by_name(self, name, args):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            rabi_hamiltonian(*args, 10)

    def test_rejects_overflowing_entries(self):
        with pytest.raises(ValueError, match="overflow"):
            rabi_hamiltonian(0.5, 1e308, 0.3, 10)


class TestHermitianMatrix:
    def test_rejects_non_hermitian_data(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            HermitianMatrix(2, (bad,))
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix(3, (np.eye(1), bad))

    def test_rejects_nan_data(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix(2, (np.eye(1), [[math.nan]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            HermitianMatrix(3, (np.zeros((2, 2), dtype=complex),))
        with pytest.raises(ValueError, match="square"):
            HermitianMatrix(2, (np.zeros((1, 2)),))

    def test_data_is_read_only(self):
        h = rabi_hamiltonian(0.5, 1.0, 0.3, 3)
        for block in h.blocks:
            with pytest.raises(ValueError):
                block[0, 0] = 5.0

    def test_eigenvalues_merge_the_blocks(self):
        h = HermitianMatrix(3, (np.diag([4.0, -1.0]), [[2.0]]))
        assert np.array_equal(h.eigenvalues(), [-1.0, 2.0, 4.0])
