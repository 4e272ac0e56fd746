"""OpenMetrics exposition + strict round-trip parser (`repro.obs.openmetrics`)."""

import pytest

from repro.obs.metrics import new_histogram
from repro.obs.openmetrics import (
    CONTENT_TYPE,
    format_openmetrics,
    metric_family_name,
    parse_openmetrics,
)


def sample_histograms():
    latency = new_histogram("epoch_close_to_outcome_seconds")
    for v in (0.001, 0.01, 0.01, 0.3, 70.0):  # 70 s lands in +Inf
        latency.observe(v)
    depth = new_histogram("ingest_queue_depth")
    for v in (1, 2, 2, 900):
        depth.observe(v)
    return {"epoch_close_to_outcome_seconds": latency, "ingest_queue_depth": depth}


class TestFamilyName:
    def test_prefix_and_cleaning(self):
        assert metric_family_name("cra_rounds", "count") == "rit_cra_rounds"
        assert (
            metric_family_name("stage_seconds/sample", "seconds")
            == "rit_stage_seconds_sample_seconds"
        )

    def test_unit_suffix_not_doubled(self):
        assert (
            metric_family_name("ingest_admit_seconds", "seconds")
            == "rit_ingest_admit_seconds"
        )
        assert (
            metric_family_name("snapshot_bytes", "bytes")
            == "rit_snapshot_bytes"
        )

    def test_non_suffix_units_untouched(self):
        assert metric_family_name("win_rate/depth1", "ratio") == "rit_win_rate_depth1"


class TestFormat:
    def test_counters_get_help_type_and_total_suffix(self):
        text = format_openmetrics(
            counters={"cra_rounds": {"value": 7, "unit": "count"}}
        )
        assert "# HELP rit_cra_rounds CRA rounds executed" in text
        assert "# TYPE rit_cra_rounds counter" in text
        assert "rit_cra_rounds_total 7" in text
        assert text.rstrip().endswith("# EOF")

    def test_seconds_counters_exposed_as_gauges_with_unit(self):
        text = format_openmetrics(
            counters={"stage_seconds/sample": {"value": 0.5, "unit": "seconds"}}
        )
        assert "# TYPE rit_stage_seconds_sample_seconds gauge" in text
        assert "# UNIT rit_stage_seconds_sample_seconds seconds" in text
        assert "rit_stage_seconds_sample_seconds 0.5" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = format_openmetrics(histograms=sample_histograms())
        families = parse_openmetrics(text)
        family = families["rit_epoch_close_to_outcome_seconds"]
        assert family.type == "histogram"
        assert family.unit == "seconds"
        buckets = [s for s in family.samples if s.name.endswith("_bucket")]
        assert buckets[-1].labels["le"] == "+Inf"
        assert buckets[-1].value == 5  # includes the 70 s overflow
        values = [s.value for s in buckets]
        assert values == sorted(values)
        count = [s for s in family.samples if s.name.endswith("_count")]
        assert count[0].value == 5

    def test_gauges(self):
        text = format_openmetrics(
            gauges={"win_rate/depth1": {"value": 0.25, "unit": "ratio"}}
        )
        assert "# TYPE rit_win_rate_depth1 gauge" in text
        assert "rit_win_rate_depth1 0.25" in text

    def test_full_export_round_trips(self):
        text = format_openmetrics(
            counters={
                "service_epochs_closed": {"value": 3, "unit": "count"},
                "snapshot_bytes": {"value": 4096, "unit": "bytes"},
            },
            histograms=sample_histograms(),
            gauges={
                "referral_depth_max": {"value": 4.0, "unit": "count"},
                "referral_depth_mean": {"value": 1.8, "unit": "ratio"},
            },
        )
        families = parse_openmetrics(text)
        assert set(families) == {
            "rit_service_epochs_closed",
            "rit_snapshot_bytes",
            "rit_epoch_close_to_outcome_seconds",
            "rit_ingest_queue_depth",
            "rit_referral_depth_max",
            "rit_referral_depth_mean",
        }
        for family in families.values():
            assert family.help  # every family carries HELP text

    def test_content_type_pin(self):
        assert CONTENT_TYPE.startswith("application/openmetrics-text")


class TestParserRejections:
    def test_missing_eof(self):
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics("# TYPE rit_x gauge\nrit_x 1\n")

    def test_blank_lines_rejected(self):
        with pytest.raises(ValueError, match="blank"):
            parse_openmetrics("# TYPE rit_x gauge\n\nrit_x 1\n# EOF\n")

    def test_sample_without_type_rejected(self):
        with pytest.raises(ValueError, match="no preceding"):
            parse_openmetrics("rit_x 1\n# EOF\n")

    def test_metadata_after_samples_rejected(self):
        text = "# TYPE rit_x gauge\nrit_x 1\n# HELP rit_x late\n# EOF\n"
        with pytest.raises(ValueError, match="after its"):
            parse_openmetrics(text)

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            parse_openmetrics("# TYPE rit_x gauge\nrit_x lots\n# EOF\n")

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            parse_openmetrics("# TYPE rit_x summary\n# EOF\n")

    def test_histogram_without_inf_rejected(self):
        text = (
            "# TYPE rit_h histogram\n"
            'rit_h_bucket{le="1.0"} 2\n'
            "rit_h_count 2\nrit_h_sum 1.0\n# EOF\n"
        )
        with pytest.raises(ValueError, match=r"\+Inf"):
            parse_openmetrics(text)

    def test_histogram_non_cumulative_rejected(self):
        text = (
            "# TYPE rit_h histogram\n"
            'rit_h_bucket{le="1.0"} 5\n'
            'rit_h_bucket{le="+Inf"} 3\n'
            "rit_h_count 3\nrit_h_sum 1.0\n# EOF\n"
        )
        with pytest.raises(ValueError, match="cumulative"):
            parse_openmetrics(text)

    def test_histogram_unordered_le_rejected(self):
        text = (
            "# TYPE rit_h histogram\n"
            'rit_h_bucket{le="2.0"} 1\n'
            'rit_h_bucket{le="1.0"} 2\n'
            'rit_h_bucket{le="+Inf"} 2\n'
            "rit_h_count 2\nrit_h_sum 1.0\n# EOF\n"
        )
        with pytest.raises(ValueError, match="strictly"):
            parse_openmetrics(text)

    def test_histogram_count_mismatch_rejected(self):
        text = (
            "# TYPE rit_h histogram\n"
            'rit_h_bucket{le="+Inf"} 4\n'
            "rit_h_count 3\nrit_h_sum 1.0\n# EOF\n"
        )
        with pytest.raises(ValueError, match="_count"):
            parse_openmetrics(text)
