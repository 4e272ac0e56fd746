"""The deterministic histogram/gauge layer (`repro.obs.metrics`)."""

import pytest

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
