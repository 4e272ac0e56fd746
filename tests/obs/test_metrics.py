"""The deterministic histogram/gauge layer (`repro.obs.metrics`)."""

import math

import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    BUCKET_FAMILIES,
    METRIC_CATALOG,
    METRIC_FAMILIES,
    Histogram,
    MetricSpec,
    bucket_boundaries,
    bucket_index,
    describe_metric,
    new_histogram,
)


class TestBucketFamilies:
    def test_latency_boundaries_are_exact_powers_of_two(self):
        boundaries = bucket_boundaries("latency_seconds")
        assert boundaries[0] == 2.0**-20
        assert boundaries[-1] == 64.0
        assert list(boundaries) == [2.0**k for k in range(-20, 7)]

    def test_depth_boundaries(self):
        boundaries = bucket_boundaries("depth")
        assert boundaries == tuple(float(2**k) for k in range(0, 21))

    def test_ratio_boundaries_are_sixteenths(self):
        boundaries = bucket_boundaries("ratio")
        assert boundaries == tuple(i / 16.0 for i in range(17))
        assert boundaries[0] == 0.0 and boundaries[-1] == 1.0

    def test_all_families_strictly_increasing(self):
        for family, boundaries in BUCKET_FAMILIES.items():
            assert list(boundaries) == sorted(boundaries), family
            assert len(set(boundaries)) == len(boundaries), family

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown bucket family"):
            bucket_boundaries("nope")


class TestBucketIndex:
    def test_boundary_values_land_in_their_bucket(self):
        # Upper-bound buckets: a value equal to a boundary belongs to it.
        boundaries = bucket_boundaries("depth")
        assert bucket_index(boundaries, 1.0) == 0
        assert bucket_index(boundaries, 2.0) == 1
        assert bucket_index(boundaries, 3.0) == 2  # (2, 4]

    def test_overflow_bucket(self):
        boundaries = bucket_boundaries("depth")
        assert bucket_index(boundaries, 2.0**20) == len(boundaries) - 1
        assert bucket_index(boundaries, 2.0**20 + 1) == len(boundaries)

    def test_zero_and_negative_land_in_first_bucket(self):
        boundaries = bucket_boundaries("latency_seconds")
        assert bucket_index(boundaries, 0.0) == 0
        assert bucket_index(boundaries, -1.0) == 0


class TestMetricSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown metric kind"):
            MetricSpec("summary", "count", None, False, "x")

    def test_histogram_requires_registered_family(self):
        with pytest.raises(ValueError, match="not a registered"):
            MetricSpec("histogram", "count", "custom", False, "x")

    def test_gauge_rejects_family(self):
        with pytest.raises(ValueError, match="no bucket family"):
            MetricSpec("gauge", "count", "depth", False, "x")

    def test_seconds_must_be_volatile(self):
        with pytest.raises(ValueError, match="volatile"):
            MetricSpec("histogram", "seconds", "latency_seconds", False, "x")

    def test_catalog_entries_are_consistent(self):
        for name, spec in METRIC_CATALOG.items():
            assert describe_metric(name) is spec
            if spec.kind == "histogram":
                assert spec.family in BUCKET_FAMILIES, name

    def test_family_prefix_resolution(self):
        spec = describe_metric("win_rate/depth3")
        assert spec is METRIC_FAMILIES["win_rate/"]
        assert describe_metric("no_such_metric") is None


class TestHistogram:
    def test_new_histogram_rejects_gauges_and_unknowns(self):
        with pytest.raises(ValueError, match="not in METRIC_CATALOG"):
            new_histogram("no_such_metric")
        with pytest.raises(ValueError, match="gauge, not a histogram"):
            new_histogram("referral_depth_max")

    def test_observe_tracks_exact_extremes(self):
        hist = new_histogram("epoch_close_to_outcome_seconds")
        for value in (0.25, 0.003, 1.7, 0.003):
            hist.observe(value)
        assert hist.count == 4
        assert hist.vmin == 0.003
        assert hist.vmax == 1.7
        assert hist.total == pytest.approx(0.25 + 0.003 + 1.7 + 0.003)

    def test_merge_is_order_independent(self):
        values = [0.001 * (3**k % 97) for k in range(50)]
        whole = new_histogram("ingest_admit_seconds")
        for v in values:
            whole.observe(v)
        # Split across three "workers", merge in a different order.
        parts = [new_histogram("ingest_admit_seconds") for _ in range(3)]
        for k, v in enumerate(values):
            parts[k % 3].observe(v)
        merged = new_histogram("ingest_admit_seconds")
        for part in (parts[2], parts[0], parts[1]):
            merged.merge(part)
        assert merged.counts == whole.counts
        assert merged.count == whole.count
        assert merged.vmin == whole.vmin
        assert merged.vmax == whole.vmax
        assert merged.total == pytest.approx(whole.total)

    def test_merge_rejects_incompatible(self):
        with pytest.raises(ValueError, match="cannot merge"):
            new_histogram("ingest_queue_depth").merge(
                new_histogram("epoch_close_to_outcome_seconds")
            )

    def test_quantile_extremes_are_exact_observations(self):
        hist = new_histogram("epoch_batch_events")
        for v in (3, 17, 250, 9000):
            hist.observe(v)
        assert hist.quantile(0.0) == 3
        assert hist.quantile(1.0) == 9000

    def test_quantile_interpolates_within_owning_bucket(self):
        hist = new_histogram("epoch_batch_events")
        for v in [10] * 100:
            hist.observe(v)
        # All mass in one bucket, min == max == 10: every quantile is 10.
        for q in (0.5, 0.95, 0.99):
            assert hist.quantile(q) == 10

    def test_quantile_monotone(self):
        hist = new_histogram("ingest_queue_depth")
        for v in range(1, 300):
            hist.observe(v)
        qs = [hist.quantile(q / 20) for q in range(21)]
        assert qs == sorted(qs)

    def test_quantile_validates_range_and_empty(self):
        hist = new_histogram("epoch_close_to_outcome_seconds")
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        assert hist.quantile(0.5) == 0.0  # empty histogram: schema-stable

    def test_summary_shape(self):
        hist = new_histogram("epoch_close_to_outcome_seconds")
        hist.observe(0.5)
        doc = hist.summary()
        assert set(doc) == {"count", "sum", "min", "max", "p50", "p95", "p99"}
        assert doc["count"] == 1
        assert doc["min"] == doc["max"] == doc["p50"] == 0.5

    def test_roundtrip_serialization(self):
        hist = new_histogram("ingest_queue_depth")
        for v in (1, 5, 5, 4096, 10**7):
            hist.observe(v)
        clone = Histogram.from_dict(hist.to_dict())
        assert clone.to_dict() == hist.to_dict()
        assert clone.summary() == hist.summary()

    def test_from_dict_rejects_wrong_bucket_count(self):
        doc = new_histogram("ingest_queue_depth").to_dict()
        doc["counts"] = doc["counts"][:-1]
        with pytest.raises(ValueError, match="buckets in the document"):
            Histogram.from_dict(doc)

    def test_bit_identical_across_instances(self):
        # The determinism contract: same observations, same bucket counts,
        # whatever the construction path.
        a = new_histogram("epoch_close_to_outcome_seconds")
        b = Histogram(
            "epoch_close_to_outcome_seconds", "seconds", "latency_seconds"
        )
        for v in (1e-6, 0.015, 0.25, 63.0, 100.0):
            a.observe(v)
            b.observe(v)
        assert a.counts == b.counts
        assert a.to_dict() == b.to_dict()


def histogram_state(hist):
    """Everything observe touches, with the extremes' Python types."""
    return (
        list(hist.counts),
        hist.count,
        hist.total.hex(),
        (type(hist.vmin), hist.vmin),
        (type(hist.vmax), hist.vmax),
    )


#: Longer than any cutoff below which observe_many bisects per value.
LONG = 5_000


def long_batch(edges, seed):
    """``edges`` scattered through a seeded batch of ``LONG`` samples."""
    import random

    rng = random.Random(seed)
    batch = [rng.choice(edges) for _ in range(LONG)]
    for position, value in zip(rng.sample(range(LONG), len(edges)), edges):
        batch[position] = value
    return batch


def neighbours(boundaries):
    """Every boundary and the floats on either side of it."""
    return [
        near
        for b in boundaries
        for near in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))
    ]


class TestObserveMany:
    """The bulk fold equals one ``observe`` per value, bit for bit."""

    @staticmethod
    def folded(name, batches):
        per_sample, bulk = new_histogram(name), new_histogram(name)
        for batch in batches:
            for value in batch:
                per_sample.observe(value)
            bulk.observe_many(batch)
        assert histogram_state(bulk) == histogram_state(per_sample)
        return bulk

    def test_floats_on_boundaries_and_in_overflow(self):
        boundaries = bucket_boundaries("latency_seconds")
        on = list(boundaries)
        around = [b * (1 + 2**-40) for b in boundaries] + [b * 0.75 for b in boundaries]
        overflow = [65.0, 1e9, float("inf")]
        hist = self.folded(
            "ingest_admit_seconds", [on, around, overflow, [0.0, -1e-9]]
        )
        assert hist.counts[-1] == len(overflow) + 1  # 64·(1+2⁻⁴⁰) overflows too

    def test_ints_keep_int_extremes(self):
        hist = self.folded("ingest_queue_depth", [[3, 1, 1024, 0], [2**20, 2**20 + 1, 7]])
        assert type(hist.vmin) is int and hist.vmin == 0
        assert type(hist.vmax) is int and hist.vmax == 2**20 + 1

    def test_mixed_ints_and_floats_keep_the_first_extreme(self):
        # 2 and 2.0 tie: observe keeps whichever came first.
        self.folded("ingest_queue_depth", [[2, 2.0, 5.0, 5], [2.0, 5, 1.5, 1]])
        self.folded("ingest_queue_depth", [[2.0, 2, 5, 5.0]])

    def test_nan_compares_as_observe_does(self):
        nan = float("nan")
        self.folded("ingest_admit_seconds", [[1.0, nan, 0.5], [nan, 3.0, 0.25]])
        self.folded("ingest_admit_seconds", [[nan, 2.0], [1.0]])

    def test_sum_is_the_sequential_float_sum(self):
        # Values whose float sum depends on the order of additions.
        values = [1e16, 1.0, -1e16, 1.0, 0.1, 0.2, 0.3] * 5
        self.folded("epoch_close_to_outcome_seconds", [values[:9], values[9:]])

    def test_seeded_batches(self):
        import random

        rng = random.Random(11)
        batches = [
            [rng.expovariate(1e5) for _ in range(rng.randrange(0, 300))]
            for _ in range(20)
        ]
        self.folded("ingest_admit_seconds", batches)
        depths = [
            [rng.randrange(0, 2**21) for _ in range(rng.randrange(0, 300))]
            for _ in range(20)
        ]
        self.folded("ingest_queue_depth", depths)

    def test_empty_batch_changes_nothing(self):
        hist = new_histogram("ingest_queue_depth")
        hist.observe_many([])
        assert histogram_state(hist) == histogram_state(
            new_histogram("ingest_queue_depth")
        )

    # Long batches, which count their buckets in bulk.

    @staticmethod
    def folded_family(family, batches):
        per_sample = Histogram("probe", "count", family)
        bulk = Histogram("probe", "count", family)
        for batch in batches:
            for value in batch:
                per_sample.observe(value)
            bulk.observe_many(batch)
        assert histogram_state(bulk) == histogram_state(per_sample)
        return bulk

    def test_batches_are_longer_than_the_bulk_cutoff(self):
        assert LONG > metrics._BULK_MIN_VALUES

    def test_every_registered_boundary_is_below_two_to_the_53(self):
        # The bulk fold counts ints past 2**53 as rounded floats, which
        # only lands them in the right bucket while this holds.
        for boundaries in BUCKET_FAMILIES.values():
            assert all(abs(b) < 2.0**53 for b in boundaries)

    @pytest.mark.parametrize("family", sorted(BUCKET_FAMILIES))
    def test_boundaries_and_their_neighbours(self, family):
        edges = neighbours(bucket_boundaries(family))
        self.folded_family(family, [long_batch(edges, 1), long_batch(edges, 2)])

    def test_nan_first_and_mid_batch(self):
        nan = float("nan")
        edges = [0.25, 1e-7, 3.0, 100.0]
        first = [nan] + long_batch(edges, 3)
        middle = long_batch(edges + [nan], 4)
        hist = self.folded_family("latency_seconds", [first, middle])
        assert math.isnan(hist.vmin) and math.isnan(hist.vmax)
        assert hist.counts[0] >= 1 + middle.count(nan)
        # NaN after a batch without it leaves the extremes alone.
        self.folded_family("latency_seconds", [long_batch(edges, 5), middle])

    @pytest.mark.parametrize("family", sorted(BUCKET_FAMILIES))
    def test_infinities_and_signed_zeros(self, family):
        edges = [math.inf, -math.inf, -0.0, 0.0, 1e-6, 64.0]
        self.folded_family(family, [long_batch(edges, 6), long_batch(edges, 7)])

    def test_ints_past_two_to_the_53(self):
        edges = [
            2**53 - 1, 2**53, 2**53 + 1, 2**62, 2**63 - 1,
            -(2**53) - 1, -(2**63), 0, 1, 2**20, 2**20 + 1,
        ]
        hist = self.folded_family("depth", [long_batch(edges, 8)])
        assert type(hist.vmax) is int and hist.vmax == 2**63 - 1
        assert type(hist.vmin) is int and hist.vmin == -(2**63)
        # Beside floats the batch is held as floats; past int64 numpy
        # keeps objects, which the fold bisects value by value.
        self.folded_family("depth", [long_batch(edges + [0.5, 2.0**60], 9)])
        self.folded_family("depth", [long_batch(edges + [2**64, 2**70], 10)])

    def test_ties_between_an_int_and_an_equal_float(self):
        # observe keeps the first of two equal extremes, int or float.
        edges = [2, 2.0, 5, 5.0, 1024, 1024.0, 0, 0.0, -0.0]
        self.folded_family("depth", [long_batch(edges, 11), long_batch(edges, 12)])
        self.folded_family("depth", [[0.0] + long_batch(edges, 13) + [1024]])
        self.folded_family("depth", [[0] + long_batch(edges, 14) + [1024.0]])
