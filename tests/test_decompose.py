import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from timeops.acceptance import _random_null_sets
from timeops.decompose import (
    BUCKET_LEVEL_LIMIT,
    ChannelDecomposition,
    _bucket_levels,
    channel_partition,
    channel_partition_sets,
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


def bucket_index(a: float) -> int:
    """Reference: the bucket level of one magnitude, nudged one float comparison at a time.

    Returns the unique k >= 1 with 1/(k+1) < |a| <= 1/k (right-closed),
    and raises ValueError where ``channel_partition`` refuses: |a| outside
    (0, 1], or 1/|a| >= 2**53.
    """
    mag = abs(float(a))
    if not 0.0 < mag <= 1.0:
        raise ValueError(f"bucket_index needs 0 < |a| <= 1, got {a!r}")
    inverse = 1.0 / mag
    if not inverse < BUCKET_LEVEL_LIMIT:
        raise ValueError(f"scaled magnitude {mag!r} is too small to bucket: the dynamic range reaches 2**53")
    k = int(inverse)
    while mag <= 1.0 / (k + 1):
        k += 1
    while mag > 1.0 / k:
        k -= 1
    return k


def as_tuples(arrays):
    """Channels or certificates as nested tuples of ints."""
    return tuple(tuple(a.tolist()) for a in arrays)


def certificates(deco):
    """Bucket levels of each channel: ``flat_levels`` cut at ``offsets``."""
    bounds = deco.offsets.tolist()
    return tuple(deco.flat_levels[a:b] for a, b in zip(bounds, bounds[1:]))


def layout(deco):
    return as_tuples(deco.channels), as_tuples(certificates(deco))


def channel_values(deco, index):
    """Values of one channel, in extraction order."""
    start, stop = deco.offsets[index], deco.offsets[index + 1]
    return np.asarray(deco.values)[deco.value_indices()[start:stop]]


def flattened(sequences):
    return np.concatenate([np.zeros(0, dtype=np.int64), *map(np.asarray, sequences)])


def rebuilt(deco, channels, levels):
    """``deco`` with its channels and certificates replaced, given one sequence per channel."""
    offsets = np.cumsum([0, *map(len, channels)])
    return ChannelDecomposition(deco.values, deco.multiplicities, flattened(channels), flattened(levels), offsets,
                                deco.p, deco.prescale)


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


class TestBucketLevels:
    """The array level function against the scalar reference."""

    def test_every_reciprocal_and_its_float_neighbours(self):
        inverse = 1.0 / np.arange(1, 5000, dtype=float)
        mags = np.concatenate([inverse, np.nextafter(inverse, 0.0), np.nextafter(inverse, 2.0)])
        mags = mags[mags <= 1.0]
        assert _bucket_levels(mags).tolist() == [bucket_index(a) for a in mags]

    def test_random_magnitudes_down_to_the_level_limit(self):
        rng = np.random.default_rng(17)
        mags = np.concatenate([10.0 ** rng.uniform(-15.9, 0.0, 5000), rng.uniform(0.0, 1.0, 5000) + 1e-300,
                               [2.0 ** -52, math.nextafter(2.0 ** -53, 1.0), 1.0]])
        assert _bucket_levels(mags).tolist() == [bucket_index(a) for a in mags]

    @pytest.mark.parametrize("mag", [2.0 ** -53, 1e-16, 1e-300, 5e-324, 0.0])
    def test_rejects_levels_that_are_not_distinct_floats(self, mag):
        with pytest.raises(ValueError, match="dynamic range"):
            _bucket_levels(np.array([0.5, mag]))


class TestPartitionNullSequence:
    """Simple null sequences: channel_partition with every multiplicity 1."""

    @staticmethod
    def partition(values):
        return channel_partition(values, [1] * len(values))

    def test_harmonic_reciprocals_fill_one_channel(self):
        deco = self.partition([-1.0 / n for n in range(1, 9)])
        assert layout(deco) == (((0, 1, 2, 3, 4, 5, 6, 7),), ((1, 2, 3, 4, 5, 6, 7, 8),))

    def test_slow_sequence_needs_five_channels(self):
        deco = self.partition([-1.0 / math.sqrt(n) for n in range(1, 9)])
        assert layout(deco) == (
            ((0, 3), (1, 4), (2, 5), (6,), (7,)),
            ((1, 2), (1, 2), (1, 2), (2,), (2,)),
        )

    def test_channels_reference_original_input_positions(self):
        deco = self.partition([-0.3, -1.0])
        assert as_tuples(deco.channels) == ((1, 0),)
        assert deco.value_indices().tolist() == [1, 0]
        np.testing.assert_allclose(channel_values(deco, 0), [-1.0, -0.3])

    def test_deterministic(self):
        vals = [-1.0 / math.sqrt(n) for n in range(1, 20)]
        a = self.partition(vals)
        b = self.partition(vals)
        assert layout(a) == layout(b)
        assert a.prescale == b.prescale

    def test_arrays_are_flat_and_read_only(self):
        deco = self.partition([-1.0 / math.sqrt(n) for n in range(1, 9)])
        assert deco.flat_slots.tolist() == [0, 3, 1, 4, 2, 5, 6, 7]
        assert deco.flat_levels.tolist() == [1, 2, 1, 2, 1, 2, 2, 2]
        assert deco.offsets.tolist() == [0, 2, 4, 6, 7, 8]
        views = (deco.flat_slots, deco.flat_levels, deco.offsets, *deco.channels)
        assert all(not a.flags.writeable for a in views)

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
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                channel_partition([0.5, bad], [1, 1])

    @pytest.mark.parametrize("mults", [[1.5, True], [2, True], [1, 2.0], [1, "2"], [1, None]])
    def test_rejects_multiplicities_that_are_not_integers(self, mults):
        with pytest.raises(ValueError, match="multiplicities must be integers"):
            channel_partition([-1.0, -0.5], mults)

    def test_accepts_numpy_integer_multiplicities(self):
        part = channel_partition([-1.0, -0.5], np.array([2, 1]))
        assert part.multiplicities == (2, 1)
        assert all(type(m) is int for m in part.multiplicities)

    def test_extremal_value_lands_in_bucket_one(self):
        part = channel_partition([-7.3], [1])
        assert as_tuples(certificates(part)) == ((1,),)
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
        assert layout(scaled) == layout(base)
        assert scaled.prescale == pytest.approx(base.prescale / alpha)

    def test_slots_are_value_major(self):
        part = channel_partition([-1.0], [3])
        assert as_tuples(part.channels) == ((0,), (1,), (2,))
        assert part.value_indices().tolist() == [0, 0, 0]
        part = channel_partition([-1.0, -0.5], [2, 1])
        # slots 0 and 1 are the copies of -1.0, slot 2 is -0.5
        assert as_tuples(part.channels) == ((0, 2), (1,))
        assert part.value_indices().tolist() == [0, 1, 0]
        np.testing.assert_array_equal(channel_values(part, 1), [-1.0])

    def test_spot_check_generic_rescaling(self):
        vals = [-0.5, -0.125, -1.0 / 18.0, -0.03125]
        mults = [1, 4, 9, 16]
        base = channel_partition(vals, mults)
        scaled = channel_partition([3.7 * v for v in vals], mults)
        assert layout(scaled) == layout(base)


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
            assert layout(part) == greedy_partition(values, mults)

    def test_mixed_signs_and_reciprocals(self):
        rng = np.random.default_rng(2025)
        for trial in range(300):
            size = int(rng.integers(1, 61))
            values = np.unique(10.0 ** rng.uniform(-6.0, 0.0, size) * rng.choice([-1.0, 1.0], size))
            values = rng.permutation(values)
            # every other pair of trials has only simple values, a single column
            mults = [1] * values.size if trial % 4 < 2 else rng.integers(1, 6, values.size).tolist()
            reciprocals = bool(trial % 2)
            part = channel_partition(values, mults, reciprocals=reciprocals)
            assert layout(part) == greedy_partition(values, mults, reciprocals)

    def test_a_large_multiset_like_the_spectrum_build_benchmark(self):
        # 2000 distinct values -U[1e-3, 1] with multiplicities 1..4, as the benchmark's seeded document
        rng = random.Random(3)
        magnitudes = set()
        while len(magnitudes) < 2000:
            magnitudes.add(rng.uniform(1e-3, 1.0))
        values = [-m for m in sorted(magnitudes, reverse=True)]
        mults = [rng.randint(1, 4) for _ in values]
        part = channel_partition(values, mults)
        assert layout(part) == greedy_partition(values, mults)
        assert verify_decomposition(part).ok

    @pytest.mark.parametrize("spectrum", [
        hydrogen_point_spectrum(1.0, 1.0, 30),
        harmonic_spectrum([1.0, 1.0], 30),
    ], ids=["hydrogen-30", "oscillator-2d-30"])
    def test_model_spectra(self, spectrum):
        deco = decompose_spectrum(spectrum)
        reciprocals = spectrum.accumulation is Accumulation.TO_INFINITY
        reference = greedy_partition(spectrum.values, list(spectrum.multiplicities), reciprocals)
        assert layout(deco) == reference


def per_set_layouts(deco, sizes):
    """The union's channels and certificates, grouped by the set of each channel's first slot, in set-local slots.

    A channel that spans two sets keeps slots outside its set's range, so it
    cannot equal a per-set ``channel_partition`` layout.
    """
    starts = np.cumsum([0, *sizes])
    grouped = [([], []) for _ in sizes]
    for slots, levels in zip(deco.channels, certificates(deco)):
        i = int(np.searchsorted(starts, slots[0], side="right")) - 1
        grouped[i][0].append(tuple((slots - starts[i]).tolist()))
        grouped[i][1].append(tuple(levels.tolist()))
    return [(tuple(channels), tuple(levels)) for channels, levels in grouped]


def reference_set_layouts(values, sizes):
    """Reference: one ``channel_partition`` call per set."""
    starts = np.cumsum([0, *sizes])
    return [layout(channel_partition(values[a:b], [1] * (b - a))) for a, b in zip(starts, starts[1:])]


def assert_batch_matches_each_set(values, sizes):
    values = np.asarray(values, dtype=float)
    deco = channel_partition_sets(values, sizes)
    assert per_set_layouts(deco, sizes) == reference_set_layouts(values, sizes)
    starts = np.cumsum([0, *sizes])
    rescaled = [values[a:b] / np.max(np.abs(values[a:b])) for a, b in zip(starts, starts[1:])]
    assert deco.values == tuple(np.concatenate(rescaled).tolist())
    assert deco.multiplicities == (1,) * values.size and deco.prescale == 1.0
    assert verify_decomposition(deco).ok
    return deco


class TestPartitionSets:
    """One pass over many simple value sets against one ``channel_partition`` call per set."""

    @pytest.mark.parametrize("seed", [1, 7])
    def test_the_selftest_draws(self, seed):
        values, sizes = _random_null_sets(np.random.default_rng(seed + 5000), 1000)
        deco = assert_batch_matches_each_set(values, sizes.tolist())
        assert deco.channel_count > 1000

    def test_hand_traced_sets_side_by_side(self):
        harmonic = [-1.0 / n for n in range(1, 9)]
        sqrt_tail = [-1.0 / math.sqrt(n) for n in range(1, 9)]
        deco = assert_batch_matches_each_set([*sqrt_tail, *harmonic, -7.3], [8, 8, 1])
        assert deco.to_json()["channels"] == [[0, 3], [1, 4], [2, 5], [6], [7], list(range(8, 16)), [16]]

    def test_a_value_may_repeat_across_sets(self):
        deco = assert_batch_matches_each_set([0.5, -0.25, 0.5, 2.0], [2, 2])
        assert deco.values == (1.0, -0.5, 0.25, 1.0)

    @pytest.mark.parametrize("bad_set", [[], [0.5, 0.0], [0.5, math.nan], [math.inf, 0.5], [0.3, -0.1, 0.3]],
                             ids=["empty", "zero", "nan", "inf", "repeated"])
    def test_refuses_a_bad_set_with_the_single_set_message(self, bad_set):
        with pytest.raises(ValueError) as single:
            channel_partition(bad_set, [1] * len(bad_set))
        good = [0.5, -0.25]
        values, sizes = [*good, *bad_set, *good], [2, len(bad_set), 2]
        with pytest.raises(ValueError) as batch:
            channel_partition_sets(values, sizes)
        assert str(batch.value) == f"set 1: {single.value}"

    def test_refuses_malformed_sizes_and_exponents(self):
        with pytest.raises(ValueError, match="at least one value set"):
            channel_partition_sets([], [])
        with pytest.raises(ValueError, match="set sizes must be integers"):
            channel_partition_sets([0.5, 0.25], [2.0])
        with pytest.raises(ValueError, match="one set after another"):
            channel_partition_sets([0.5, 0.25], [1])
        with pytest.raises(ValueError, match="finite and exceed 1"):
            channel_partition_sets([0.5, 0.25], [2], p=1.0)
        with pytest.raises(ValueError, match="dynamic range"):
            channel_partition_sets([1.0, 1e-300, 1.0], [2, 1])


class TestPartitionSetsFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.lists(st.builds(lambda exponent, sign: sign * 10.0 ** exponent,
                           st.floats(min_value=-6.0, max_value=0.0), st.sampled_from([-1.0, 1.0])),
                 min_size=1, max_size=30, unique=True),
        min_size=1, max_size=12,
    ))
    def test_batch_equals_the_per_set_calls(self, sets):
        assert_batch_matches_each_set([v for s in sets for v in s], [len(s) for s in sets])


class TestDecomposeSpectrum:
    def test_hydrogen_column_structure(self):
        deco = decompose_spectrum(hydrogen_point_spectrum(1.0, 1.0, 3))
        assert deco.channel_count == 9
        assert deco.flat_slots.size == deco.flat_levels.size == 14
        indices = deco.value_indices().tolist()
        bounds = deco.offsets.tolist()
        index_sets = [set(indices[a:b]) for a, b in zip(bounds, bounds[1:])]
        assert index_sets.count({0, 1, 2}) == 1
        assert index_sets.count({1, 2}) == 3
        assert index_sets.count({2}) == 5
        # Extraction order walks the buckets upward, which for a spectrum
        # accumulating at zero means eigenvalues come out ascending.
        np.testing.assert_allclose(
            channel_values(deco, 0), [-0.5, -0.125, -1.0 / 18.0]
        )
        assert verify_decomposition(deco).ok

    def test_degenerate_oscillator_columns(self):
        deco = decompose_spectrum(harmonic_spectrum([1.0, 1.0], 2))
        value_sets = sorted(
            tuple(sorted(channel_values(deco, i))) for i in range(deco.channel_count)
        )
        assert value_sets == [(1.0, 2.0, 3.0), (2.0, 3.0), (3.0,)]

    def test_infinity_side_buckets_reciprocals(self):
        deco = decompose_spectrum(harmonic_spectrum([1.0], 3))
        assert layout(deco) == (((0, 1, 2, 3),), ((1, 3, 5, 7),))
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
        assert doc["channels"] == [c.tolist() for c in deco.channels]
        assert doc["certificates"] == [c.tolist() for c in certificates(deco)]
        assert all(type(k) is int for c in doc["channels"] for k in c)

    def test_hydrogen_seventy_holds_a_few_integer_arrays(self):
        # 116 795 slots: two int64 arrays of them are 1.8 MiB; one Python tuple per slot held 16 MiB.
        # Each per-slot temporary of the partition is dropped once used, so the peak stays within 4x of that.
        s = hydrogen_point_spectrum(1.0, 1.0, 70)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            deco = decompose_spectrum(s)
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert deco.flat_slots.size == 116_795
        assert held <= 4 * 2 ** 20
        arrays = (deco.flat_slots, deco.flat_levels, deco.offsets)
        assert all(a.dtype == np.int64 for a in arrays)
        assert peak <= 4 * sum(a.nbytes for a in arrays)


class TestVerifyDecomposition:
    def test_adversarial_duplicate_slot(self):
        deco = decompose_spectrum(hydrogen_point_spectrum(1.0, 1.0, 3))
        bad = rebuilt(deco, ((0, 0, 5),) + deco.channels[1:], certificates(deco))
        report = verify_decomposition(bad)
        assert not report.disjoint_cover
        assert not report.simple_channels
        assert not report.ok
        assert report.violations == (
            "channels do not partition the slot set",
            "channel 0 repeats an eigenvalue",
        )

    def test_adversarial_duplicate_slot_of_simple_values(self):
        deco = channel_partition([-1.0 / math.sqrt(n) for n in range(1, 9)], [1] * 8)
        bad = rebuilt(deco, ((0, 0),) + deco.channels[1:], certificates(deco))
        report = verify_decomposition(bad)
        assert not report.disjoint_cover and not report.simple_channels
        assert "channel 0 repeats an eigenvalue" in report.violations

    def test_adversarial_decreasing_certificate(self):
        deco = decompose_spectrum(hydrogen_point_spectrum(1.0, 1.0, 3))
        bad = rebuilt(deco, deco.channels, ((9, 4, 1),) + certificates(deco)[1:])
        report = verify_decomposition(bad)
        assert not report.increasing_certificates
        assert not report.ok
        assert report.violations == ("channel 0 certificate is not strictly increasing",)

    @pytest.mark.parametrize("spectrum", [hydrogen_point_spectrum(1.0, 1.0, 3), harmonic_spectrum([1.0], 3)],
                             ids=["nine-channels", "one-channel"])
    def test_adversarial_dropped_channel(self, spectrum):
        deco = decompose_spectrum(spectrum)
        bad = rebuilt(deco, deco.channels[:-1], certificates(deco)[:-1])
        report = verify_decomposition(bad)
        assert not report.disjoint_cover and report.simple_channels and report.increasing_certificates
        assert len(report.certificate_sums) == bad.channel_count == deco.channel_count - 1
        assert len(bad.channels) == bad.channel_count
        assert len(bad.to_json()["channels"]) == bad.channel_count

    def test_rebuilt_from_its_own_channels_is_the_same(self):
        deco = decompose_spectrum(hydrogen_point_spectrum(1.0, 1.0, 5))
        again = rebuilt(deco, deco.channels, certificates(deco))
        assert again.to_json() == deco.to_json()
        assert verify_decomposition(again) == verify_decomposition(deco)

    def test_constructor_refuses_unknown_slots_and_unmatched_certificates(self):
        deco = decompose_spectrum(hydrogen_point_spectrum(1.0, 1.0, 3))
        with pytest.raises(ValueError, match="unknown slot"):
            rebuilt(deco, ((0, 1, 14),) + deco.channels[1:], certificates(deco))
        with pytest.raises(ValueError, match="unknown slot"):
            rebuilt(deco, ((-1,),), ((1,),))
        with pytest.raises(ValueError, match="certificate level per channel slot"):
            rebuilt(deco, deco.channels, certificates(deco)[:-1])

    def test_constructor_refuses_offsets_that_do_not_cut_the_slots(self):
        deco = decompose_spectrum(hydrogen_point_spectrum(1.0, 1.0, 3))
        args = deco.values, deco.multiplicities, deco.flat_slots, deco.flat_levels
        for offsets in ([], [1, 14], [0, 13], [0, 9, 3, 14], [[0, 14]]):
            with pytest.raises(ValueError, match="offsets must rise"):
                ChannelDecomposition(*args, offsets, deco.p, deco.prescale)

    @pytest.mark.parametrize("p", [1e308, 1e300, 1100.0])
    def test_huge_exponent_terms_underflow_instead_of_raising(self, p):
        deco = decompose_spectrum(harmonic_spectrum([1.0], 6), p)
        report = verify_decomposition(deco)
        assert report.ok
        # 1/1^p is 1 and every other 1/k^p underflows to 0
        assert report.certificate_sums == tuple(1.0 if cert[0] == 1 else 0.0 for cert in certificates(deco))

    def test_certificate_terms_keep_their_bits_below_overflow(self):
        for p in (2.5, 3.7):
            deco = decompose_spectrum(hydrogen_point_spectrum(1.0, 1.0, 6), p)
            expected = tuple(float(sum(1.0 / float(k) ** p for k in cert.tolist())) for cert in certificates(deco))
            assert verify_decomposition(deco).certificate_sums == expected

    def test_report_json_carries_ok_flag(self):
        deco = decompose_spectrum(harmonic_spectrum([1.0], 5))
        doc = verify_decomposition(deco).to_json()
        assert doc["ok"] is True
        assert doc["violations"] == []
