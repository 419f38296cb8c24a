import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

from dense_reference import checked_entries, dense_chain_eigenvalues, dense_chains, dense_rabi, rabi_chain_labels


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

    def test_a_numpy_multiplicity_beside_a_huge_one_is_a_value_error(self):
        # np.int64(2) + 10**30 overflows; the state count is a sum of Python ints
        with pytest.raises(ValueError, match=f"spectrum has {10 ** 30 + 2} states, beyond the limit"):
            DiscreteSpectrum(((0.0, np.int64(2)), (1.0, 10 ** 30)), "to_infinity")


_VALUES = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-5, 5),
                    st.sampled_from([-0.0, 0.0, "1.5", None, True]))
_MULTIPLICITIES = st.one_of(st.integers(-2, 4), st.sampled_from([np.int64(2), np.int32(1), 2.0, True, "3", None,
                                                                STATE_COUNT_LIMIT, 10 ** 30, -10 ** 30]))


def outcome(call):
    """What a call returns, or the type and message of the exception it raises."""
    try:
        return call()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


class TestDiscreteSpectrumChecksFuzz:
    """The numpy checks of DiscreteSpectrum give the entry-by-entry Python checks' entries and refusals."""

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(st.tuples(_VALUES, _MULTIPLICITIES), max_size=6),
        sorted_values=st.booleans(),
        accumulation=st.sampled_from(["to_zero", "to_infinity", "sideways"]),
    )
    def test_same_entries_and_same_refusals(self, entries, sorted_values, accumulation):
        if sorted_values:
            entries = sorted(entries, key=lambda e: e[0] if isinstance(e[0], float) and e[0] == e[0] else 0.0)
        got = outcome(lambda: DiscreteSpectrum(tuple(entries), accumulation).entries)
        expected = outcome(lambda: checked_entries(tuple(entries), accumulation))
        assert got == expected
        if not isinstance(got[0], type):   # entries, not a refusal
            assert all(type(v) is float and type(m) is int for v, m in got)

    @pytest.mark.parametrize("spectrum", [harmonic_spectrum([1.0], 1500), hydrogen_point_spectrum(1.0, 1.0, 40),
                                          harmonic_spectrum([1.0, 2.0 ** 0.5], 30)])
    def test_model_spectra_keep_their_entries(self, spectrum):
        assert DiscreteSpectrum(spectrum.entries, spectrum.accumulation).entries == \
            checked_entries(spectrum.entries, spectrum.accumulation)


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


#: (cutoff, g) grid on which the certified spectrum is held to the dense one.
RABI_GRID = [(cutoff, g) for cutoff in (2, 3, 10, 150, 200, 600) for g in (0.0, 0.3, 2.0, 5.0)]


def _rabi_count(cutoff: int) -> int:
    return min(40, cutoff + 1)


class TestRabiParityBlocks:
    """The two parity chains against the dense Kronecker-product matrix and the dense chain solve."""

    @pytest.mark.parametrize("cutoff,g", RABI_GRID)
    def test_eigenvalues_match_the_dense_reference(self, cutoff, g):
        # the Kronecker solve rounds on its own, by a few eps |H|
        count = 2 * _rabi_count(cutoff)
        h = rabi_hamiltonian(0.5, 1.0, g, cutoff)
        dense, _ = dense_rabi(0.5, 1.0, g, cutoff)
        reference = np.linalg.eigvalsh(dense)[:count]
        spectrum = h.eigenvalues(count)
        assert h.dimension == dense.shape[0] == 2 * (cutoff + 1)
        assert spectrum.failed_index is None and spectrum.values.shape == spectrum.radii.shape == (count,)
        own = 4.0 * np.finfo(float).eps * np.linalg.norm(dense, 2)
        assert np.all(np.abs(spectrum.values - reference) <= spectrum.radii + own)

    @pytest.mark.parametrize("cutoff,g", RABI_GRID)
    def test_bound_checks_and_values_match_the_dense_chain_solve(self, cutoff, g):
        count = _rabi_count(cutoff)
        spectrum, bounds = rabi_check(0.5, 1.0, g, cutoff, count)
        reference = dense_chain_eigenvalues(rabi_hamiltonian(0.5, 1.0, g, cutoff))[:2 * count]
        assert bounds == rabi_bound_check(reference, 0.5, 1.0, g, count)
        assert np.all(np.abs(spectrum.values - reference) <= spectrum.radii)

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
        expected[:size, :size], expected[size:, size:] = dense_chains(h)
        assert h.diagonals.shape == (2, size) and h.couplings.shape == (2, size - 1)
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
        assert h.diagonals.shape == (2, 6) and h.couplings.shape == (2, 5)

    def test_uncoupled_eigenvalues_are_shifted_ladders(self):
        h = rabi_hamiltonian(0.5, 1.0, 0.0, 30)
        expected = sorted(n + s for n in range(31) for s in (-0.5, 0.5))
        np.testing.assert_allclose(h.eigenvalues(40).values, expected[:40], atol=1e-12)

    def test_bound_check_at_coupled_parameters(self):
        ev = rabi_hamiltonian(0.5, 1.0, 0.3, 120).eigenvalues(30).values
        assert all(rabi_bound_check(ev, 0.5, 1.0, 0.3, 15))

    def test_shifting_the_spectrum_breaks_the_first_bound(self):
        ev = rabi_hamiltonian(0.5, 1.0, 0.3, 120).eigenvalues(30).values
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
        spectrum, bounds = rabi_check(0.5, 1.0, 0.3, 120, 15)
        reference = dense_chain_eigenvalues(rabi_hamiltonian(0.5, 1.0, 0.3, 120))[:30]
        assert np.all(np.abs(spectrum.values - reference) <= spectrum.radii)
        assert bounds == rabi_bound_check(reference, 0.5, 1.0, 0.3, 15)
        assert all(bounds)
        with pytest.raises(ValueError, match="count too large"):
            rabi_check(0.5, 1.0, 0.3, 10, 12)
        with pytest.raises(ValueError, match="count must be >= 1"):
            rabi_check(0.5, 1.0, 0.3, 10, 0)

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
    def test_rejects_complex_data(self):
        with pytest.raises(ValueError, match="real"):
            HermitianMatrix([[0.0, 1.0]], [[1j]])

    @pytest.mark.parametrize("where", ["diagonals", "couplings"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nan_data(self, where, bad):
        h = rabi_hamiltonian(0.5, 1.0, 0.3, 10)
        arrays = {"diagonals": h.diagonals.copy(), "couplings": h.couplings.copy()}
        arrays[where][1, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix(**arrays)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="coupling array"):
            HermitianMatrix(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="coupling array"):
            HermitianMatrix(np.zeros(3), np.zeros(2))

    def test_data_is_read_only(self):
        h = rabi_hamiltonian(0.5, 1.0, 0.3, 3)
        for array in (h.diagonals, h.couplings):
            with pytest.raises(ValueError):
                array[0, 0] = 5.0

    def test_eigenvalues_merge_the_blocks(self):
        h = HermitianMatrix([[4.0, -1.0], [2.0, 7.0]], [[0.0], [0.0]])
        spectrum = h.eigenvalues(4)
        assert np.array_equal(spectrum.values, [-1.0, 2.0, 4.0, 7.0])
        assert spectrum.failed_index is None and spectrum.leading_block == 2

    def test_count_must_fit_the_dimension(self):
        h = HermitianMatrix([[4.0, -1.0], [2.0, 7.0]], [[0.5], [0.0]])
        for count in (0, 5):
            with pytest.raises(ValueError, match="cannot certify"):
                h.eigenvalues(count)


def _sturm_reference(h, shifts) -> np.ndarray:
    """Eigenvalues of the dense chains below each shift."""
    ev = dense_chain_eigenvalues(h)
    return np.array([np.count_nonzero(ev < x) for x in shifts])


class TestCertificate:
    """The leading-block certificate: its radius, its block, its counts and its failures."""

    def test_radius_and_block_at_the_benchmark_parameters(self):
        spectrum, bounds = rabi_check(0.5, 1.0, 0.3, 600, 40)
        assert spectrum.leading_block == 2 * 40 + spectra.LEADING_BLOCK_PAD < 601
        assert spectrum.failed_index is None and all(bounds)
        assert np.max(spectrum.radii) <= 1e-12

    def test_no_whole_chain_is_formed(self):
        # a dense 601 x 601 block alone would take 2.8 MiB
        rabi_check(0.5, 1.0, 0.3, 600, 40)
        tracemalloc.start()
        try:
            rabi_check(0.5, 1.0, 0.3, 600, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_the_block_grows_at_strong_coupling(self):
        # at g = 5 a 144-row block leaves tail residuals near 1e-5
        spectrum = rabi_hamiltonian(0.5, 1.0, 5.0, 600).eigenvalues(80)
        assert spectrum.leading_block == 288 and spectrum.failed_index is None
        reference = dense_chain_eigenvalues(rabi_hamiltonian(0.5, 1.0, 5.0, 600))[:80]
        assert np.all(np.abs(spectrum.values - reference) <= spectrum.radii)

    def test_zero_coupling_with_a_double_eigenvalue_certifies_quietly(self):
        # chain |up,0>, |down,1>, ... holds 0.5 twice at omega = 1, mu = 0.5
        with np.errstate(all="raise"):
            spectrum = rabi_hamiltonian(0.5, 1.0, 0.0, 30).eigenvalues(40)
        assert spectrum.failed_index is None
        assert list(spectrum.values[:5]) == [-0.5, 0.5, 0.5, 1.5, 1.5]

    @pytest.mark.parametrize("mu,g", [(1.7e308, 0.3), (0.5, 1e200), (0.5, 1e-300)])
    def test_extreme_entries_certify_without_overflow(self, mu, g):
        # the chains are scaled by a power of two, so no norm or e^2 overflows (underflow is harmless)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            spectrum = rabi_hamiltonian(mu, 1.0, g, 200).eigenvalues(10)
        assert spectrum.failed_index is None and np.all(np.isfinite(spectrum.radii))
        reference = dense_chain_eigenvalues(rabi_hamiltonian(mu, 1.0, g, 200))[:10]
        own = 4.0 * np.finfo(float).eps * np.max(np.abs(reference))
        assert np.all(np.abs(spectrum.values - reference) <= spectrum.radii + own)

    def test_counts_match_the_dense_chains(self):
        # entries below 2, as the kernel scales them; 70 rows span two chunks
        rng = np.random.default_rng(3)
        h = HermitianMatrix(rng.uniform(-1.0, 1.0, (3, 70)), rng.uniform(-1.0, 1.0, (3, 69)))
        shifts = np.sort(rng.uniform(-3.0, 3.0, 50))
        assert np.array_equal(spectra._sturm_counts(h.diagonals, np.square(h.couplings), shifts),
                              _sturm_reference(h, shifts))

    def test_the_pivot_guard_keeps_zero_couplings_finite(self, monkeypatch):
        # a shift on a diagonal entry of an uncoupled chain makes a zero pivot, then 0/0;
        # the chains and shifts are scaled by 16 as the kernel scales them
        h = rabi_hamiltonian(0.5, 1.0, 0.0, 10)
        args = h.diagonals / 16.0, np.square(h.couplings / 16.0), np.array([0.5, 1.0, 2.5]) / 16.0
        with np.errstate(all="raise"):
            counts = spectra._sturm_counts(*args)
        assert list(counts) == [3, 3, 7]   # a pivot at the guard counts as negative
        monkeypatch.setattr(spectra, "PIVMIN", 0.0)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            spectra._sturm_counts(*args)

    def test_a_planted_pivot_fails_at_full_size(self, monkeypatch):
        counts = spectra._sturm_counts
        monkeypatch.setattr(spectra, "_sturm_counts", lambda *args: counts(*args) + 1)
        spectrum = rabi_hamiltonian(0.5, 1.0, 0.3, 150).eigenvalues(20)
        assert spectrum.failed_index == 0 and spectrum.leading_block == 151

    def test_no_slack_fails_where_the_ritz_values_are_exact(self, monkeypatch):
        monkeypatch.setattr(spectra, "CERTIFICATE_SLACK_ULPS", 0.0)
        spectrum = rabi_hamiltonian(0.5, 1.0, 0.0, 30).eigenvalues(10)
        assert spectrum.failed_index == 0


_POSITIVE = st.floats(0.05, 3.0)


class TestRabiCertificateFuzz:
    """Certified Rabi spectra against the dense chain solve, over the model's parameters."""

    @settings(max_examples=100, deadline=None)
    @given(_POSITIVE, _POSITIVE, st.one_of(st.just(0.0), st.floats(0.0, 6.0)), st.integers(2, 300), st.data())
    def test_certificate_matches_the_dense_solve(self, mu, omega, g, cutoff, data):
        count = data.draw(st.integers(1, min(40, cutoff + 1)))
        spectrum, bounds = rabi_check(mu, omega, g, cutoff, count)
        h = rabi_hamiltonian(mu, omega, g, cutoff)
        reference = dense_chain_eigenvalues(h)[:2 * count]
        assert spectrum.failed_index is None
        # the dense solve rounds on its own, by a few eps |T|
        own = 4.0 * np.finfo(float).eps * max(np.linalg.norm(block, 2) for block in dense_chains(h))
        assert np.all(np.abs(spectrum.values - reference) <= spectrum.radii + own)
        # a verdict is the reference's wherever neither solve's error can reach a bound's edge
        # (at small g, an eigenvalue sits within an ulp of omega n - g^2/omega - mu)
        nu = omega * np.arange(count) - g * g / omega
        clear = np.minimum(np.abs(reference[::2] - (nu - mu)), np.abs(reference[::2] - (nu + mu)))
        clear = clear > spectrum.radii[::2] + own
        expected = rabi_bound_check(reference, mu, omega, g, count)
        assert [b for b, c in zip(bounds, clear) if c] == [b for b, c in zip(expected, clear) if c]
        # the block grows when the first one's Ritz values are off
        first = min(cutoff + 1, 2 * count + spectra.LEADING_BLOCK_PAD)
        ritz = np.sort(np.concatenate([np.linalg.eigvalsh(block[:first, :first]) for block in dense_chains(h)]))
        if np.max(np.abs(ritz[:2 * count] - reference)) > 1e-9:
            assert spectrum.leading_block > first
        assert spectrum.leading_block >= first
