import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from timeops.decompose import (
    bucket_index,
    channel_partition,
    decompose_spectrum,
    verify_decomposition,
)
from timeops.spectra import (
    Accumulation,
    DiscreteSpectrum,
    harmonic_spectrum,
    hydrogen_point_spectrum,
)

ZETA_2 = math.pi ** 2 / 6.0


class TestBucketIndex:
    @pytest.mark.parametrize(
        "a, k",
        [
            (1.0, 1),
            (-1.0, 1),
            (0.5, 2),
            (0.3, 3),
            (1.0 / 3.0, 3),
            (0.2, 5),
            (-0.2, 5),
            (1e-3, 1000),
        ],
    )
    def test_examples(self, a, k):
        assert bucket_index(a) == k

    def test_boundaries_are_right_closed(self):
        for k in (1, 2, 3, 7, 100):
            assert bucket_index(1.0 / k) == k

    @given(st.floats(min_value=1e-8, max_value=1.0), st.sampled_from([1.0, -1.0]))
    def test_bracket_property(self, mag, sign):
        k = bucket_index(sign * mag)
        assert mag <= 1.0 / k
        assert mag > 1.0 / (k + 1)

    @pytest.mark.parametrize("bad", [0.0, 1.5, -2.0, 5e-324, math.inf, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            bucket_index(bad)

    @pytest.mark.parametrize("mag", [2.0 ** -53, 1e-16, -1e-100, 1e-300])
    def test_rejects_magnitudes_whose_levels_are_not_distinct_floats(self, mag):
        with pytest.raises(ValueError, match="dynamic range"):
            bucket_index(mag)

    def test_largest_distinct_levels(self):
        assert bucket_index(2.0 ** -52) == 2 ** 52
        k = bucket_index(math.nextafter(2.0 ** -53, 1.0))
        assert 2 ** 53 - 2 <= k < 2 ** 53


class TestPartitionNullSequence:
    """Simple null sequences: channel_partition with every multiplicity 1."""

    @staticmethod
    def partition(values):
        return channel_partition(values, [1] * len(values))

    def test_harmonic_reciprocals_fill_one_channel(self):
        deco = self.partition([-1.0 / n for n in range(1, 9)])
        assert deco.channels == ((0, 1, 2, 3, 4, 5, 6, 7),)
        assert deco.certificates == ((1, 2, 3, 4, 5, 6, 7, 8),)

    def test_slow_sequence_needs_five_channels(self):
        deco = self.partition([-1.0 / math.sqrt(n) for n in range(1, 9)])
        assert deco.channels == ((0, 3), (1, 4), (2, 5), (6,), (7,))
        assert deco.certificates == ((1, 2), (1, 2), (1, 2), (2,), (2,))

    def test_channels_reference_original_input_positions(self):
        deco = self.partition([-0.3, -1.0])
        assert deco.channels == ((1, 0),)
        assert deco.slot_value(1) == -1.0
        np.testing.assert_allclose(deco.channel_values(0), [-1.0, -0.3])

    def test_deterministic(self):
        vals = [-1.0 / math.sqrt(n) for n in range(1, 20)]
        a = self.partition(vals)
        b = self.partition(vals)
        assert a.channels == b.channels
        assert a.certificates == b.certificates
        assert a.prescale == b.prescale

    def test_certificate_sums_stay_below_zeta_two(self):
        deco = self.partition([-1.0 / n for n in range(1, 101)])
        report = verify_decomposition(deco)
        assert report.ok
        assert deco.channel_count == 1
        assert report.certificate_sums[0] <= ZETA_2


class TestChannelPartition:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            channel_partition([0.5, 0.0], [1, 1])
        with pytest.raises(ValueError):
            channel_partition([0.5, 0.5], [1, 1])
        with pytest.raises(ValueError):
            channel_partition([0.5, 0.25], [1, 0])
        with pytest.raises(ValueError):
            channel_partition([0.5, 0.25], [1, 1], p=1.0)
        for p in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                channel_partition([0.5, 0.25], [1, 1], p=p)
        with pytest.raises(ValueError):
            channel_partition([], [])

    def test_extremal_value_lands_in_bucket_one(self):
        part = channel_partition([-7.3], [1])
        assert part.certificates == ((1,),)
        assert part.prescale == pytest.approx(1.0 / 7.3)

    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3),
            min_size=1,
            max_size=12,
            unique=True,
        ),
        st.integers(min_value=-16, max_value=16),
    )
    def test_invariant_under_dyadic_rescaling(self, vals, j):
        alpha = 2.0 ** j
        base = channel_partition(vals, [1] * len(vals))
        scaled = channel_partition([alpha * v for v in vals], [1] * len(vals))
        assert scaled.channels == base.channels
        assert scaled.certificates == base.certificates
        assert scaled.prescale == pytest.approx(base.prescale / alpha)

    def test_slots_are_value_major(self):
        part = channel_partition([-1.0], [3])
        assert part.slots == ((0, 0), (0, 1), (0, 2))
        assert part.channels == ((0,), (1,), (2,))
        part = channel_partition([-1.0, -0.5], [2, 1])
        assert part.slots == ((0, 0), (0, 1), (1, 0))
        assert part.channels == ((0, 2), (1,))
        np.testing.assert_array_equal(part.channel_values(1), [-1.0])

    def test_spot_check_generic_rescaling(self):
        vals = [-0.5, -0.125, -1.0 / 18.0, -0.03125]
        mults = [1, 4, 9, 16]
        base = channel_partition(vals, mults)
        scaled = channel_partition([3.7 * v for v in vals], mults)
        assert scaled.channels == base.channels
        assert scaled.certificates == base.certificates


def greedy_partition(values, multiplicities, reciprocals=False):
    """Reference: the extraction rounds run literally, one bucket_index call per element and round.

    Each round groups a column's remaining members by bucket level and takes
    the lowest-index member of every occupied bucket.  Returns (channels,
    certificates) as ``channel_partition`` lays them out.
    """
    vals = np.asarray(values, dtype=float)
    seq = 1.0 / vals if reciprocals else vals
    scaled = np.abs(seq) / float(np.max(np.abs(seq)))
    first_slot = np.concatenate([[0], np.cumsum(multiplicities)[:-1]])
    channels, certificates = [], []
    for column in range(max(multiplicities)):
        remaining = [n for n, m in enumerate(multiplicities) if m > column]
        while remaining:
            first_in_bucket = {}
            for n in remaining:
                first_in_bucket.setdefault(bucket_index(scaled[n]), n)
            occupied = sorted(first_in_bucket)
            chosen = [first_in_bucket[k] for k in occupied]
            channels.append(tuple(int(first_slot[n]) + column for n in chosen))
            certificates.append(tuple(occupied))
            taken = set(chosen)
            remaining = [n for n in remaining if n not in taken]
    return tuple(channels), tuple(certificates)


class TestPartitionMatchesTheGreedyRounds:
    def test_random_multisets(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            size = int(rng.integers(1, 301))
            values = rng.permutation(np.unique(-rng.uniform(1e-4, 1.0, size)))
            mults = rng.integers(1, 6, values.size).tolist()
            part = channel_partition(values, mults)
            assert (part.channels, part.certificates) == greedy_partition(values, mults)

    @pytest.mark.parametrize("spectrum", [
        hydrogen_point_spectrum(1.0, 1.0, 30),
        harmonic_spectrum([1.0, 1.0], 30),
    ], ids=["hydrogen-30", "oscillator-2d-30"])
    def test_model_spectra(self, spectrum):
        deco = decompose_spectrum(spectrum)
        reciprocals = spectrum.accumulation is Accumulation.TO_INFINITY
        reference = greedy_partition(spectrum.values, list(spectrum.multiplicities), reciprocals)
        assert (deco.channels, deco.certificates) == reference


class TestDecomposeSpectrum:
    def test_hydrogen_column_structure(self):
        deco = decompose_spectrum(hydrogen_point_spectrum(1.0, 1.0, 3))
        assert deco.channel_count == 9
        assert len(deco.slots) == 14
        index_sets = [set(deco.channel_eigenvalue_indices(i)) for i in range(9)]
        assert index_sets.count({0, 1, 2}) == 1
        assert index_sets.count({1, 2}) == 3
        assert index_sets.count({2}) == 5
        # Extraction order walks the buckets upward, which for a spectrum
        # accumulating at zero means eigenvalues come out ascending.
        np.testing.assert_allclose(
            deco.channel_values(0), [-0.5, -0.125, -1.0 / 18.0]
        )
        assert verify_decomposition(deco).ok

    def test_degenerate_oscillator_columns(self):
        deco = decompose_spectrum(harmonic_spectrum([1.0, 1.0], 2))
        value_sets = sorted(
            tuple(sorted(deco.channel_values(i))) for i in range(deco.channel_count)
        )
        assert value_sets == [(1.0, 2.0, 3.0), (2.0, 3.0), (3.0,)]

    def test_infinity_side_buckets_reciprocals(self):
        deco = decompose_spectrum(harmonic_spectrum([1.0], 3))
        assert deco.channels == ((0, 1, 2, 3),)
        assert deco.certificates == ((1, 3, 5, 7),)
        assert deco.prescale == pytest.approx(0.5)

    def test_rejects_a_dynamic_range_beyond_the_bucket_levels(self):
        s = DiscreteSpectrum(((-1e-200, 1), (-1e-300, 1)), Accumulation.TO_ZERO)
        with pytest.raises(ValueError, match="dynamic range"):
            decompose_spectrum(s)

    def test_rejects_zero_eigenvalue_on_the_infinity_side(self):
        s = DiscreteSpectrum(((0.0, 1), (1.0, 1)), Accumulation.TO_INFINITY)
        with pytest.raises(ValueError, match="reciprocals"):
            decompose_spectrum(s)

    def test_rejects_a_reciprocal_that_overflows(self):
        # omega = 1e-308: the ground level omega/2 is subnormal, and its reciprocal is beyond the float range
        with pytest.raises(ValueError, match="reciprocal of value 5e-309 overflows"):
            decompose_spectrum(harmonic_spectrum([1e-308], 3))

    def test_json_document_shape(self):
        deco = decompose_spectrum(hydrogen_point_spectrum(1.0, 1.0, 2))
        doc = deco.to_json()
        assert set(doc) == {"prescale", "p", "channels", "certificates"}
        assert doc["channels"] == [list(c) for c in deco.channels]


class TestVerifyDecomposition:
    def test_adversarial_duplicate_slot(self):
        deco = decompose_spectrum(hydrogen_point_spectrum(1.0, 1.0, 3))
        bad = dataclasses.replace(
            deco, channels=((0, 0, 5),) + deco.channels[1:]
        )
        report = verify_decomposition(bad)
        assert not report.disjoint_cover
        assert not report.simple_channels
        assert not report.ok
        assert report.violations

    def test_adversarial_decreasing_certificate(self):
        deco = decompose_spectrum(hydrogen_point_spectrum(1.0, 1.0, 3))
        bad = dataclasses.replace(
            deco,
            certificates=((9, 4, 1),) + deco.certificates[1:],
        )
        report = verify_decomposition(bad)
        assert not report.increasing_certificates
        assert not report.ok

    @pytest.mark.parametrize("p", [1e308, 1e300, 1100.0])
    def test_huge_exponent_terms_underflow_instead_of_raising(self, p):
        deco = decompose_spectrum(harmonic_spectrum([1.0], 6), p)
        report = verify_decomposition(deco)
        assert report.ok
        # 1/1^p is 1 and every other 1/k^p underflows to 0
        assert report.certificate_sums == tuple(1.0 if cert[0] == 1 else 0.0 for cert in deco.certificates)

    def test_certificate_terms_keep_their_bits_below_overflow(self):
        deco = decompose_spectrum(hydrogen_point_spectrum(1.0, 1.0, 6), 2.5)
        expected = tuple(float(sum(1.0 / float(k) ** 2.5 for k in cert)) for cert in deco.certificates)
        assert verify_decomposition(deco).certificate_sums == expected

    def test_report_json_carries_ok_flag(self):
        deco = decompose_spectrum(harmonic_spectrum([1.0], 5))
        doc = verify_decomposition(deco).to_json()
        assert doc["ok"] is True
        assert doc["violations"] == []
