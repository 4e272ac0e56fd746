"""Run-scoped tracing and metrics for the reproduction (`repro.obs`).

The observability layer records what a mechanism run *did* — hierarchical
spans (``run → mechanism → cra → round``), monotonic counters, stage
timings — into a JSONL event stream keyed by seed + config hash, so any
run is replayable and diffable (see ``docs/observability.md``).

Entry points
------------
* :data:`NULL_TRACER` / :class:`NullTracer` — the zero-overhead default;
  instrumented code paths are no-ops unless a recording tracer is
  injected.
* :class:`Tracer` — records events; ``write_jsonl`` persists them,
  ``absorb`` merges per-worker sinks deterministically.
* :class:`StageTimers` — per-stage accumulator on the injected clock
  (migrated here from ``repro.core.engine``).
* :mod:`repro.obs.events` — the schema; :mod:`repro.obs.catalog` — the
  counter contract; :mod:`repro.obs.metrics` — deterministic histograms
  and gauges (the live-metrics contract); :mod:`repro.obs.openmetrics` —
  the OpenMetrics exposition and its round-trip parser;
  :mod:`repro.obs.render` — span-tree and metrics rendering for the
  ``rit trace`` CLI.

This package is imported *by* ``repro.core`` and therefore depends only
on the standard library.
"""

from repro.obs.catalog import (
    COUNTER_CATALOG,
    COUNTER_FAMILIES,
    catalog_markdown_table,
    describe_counter,
)
from repro.obs.events import (
    COUNTER_UNITS,
    DISTRIBUTION_UNITS,
    EVENT_KINDS,
    SPAN_LEVELS,
    TRACE_SCHEMA_VERSION,
    canonical_events,
    config_hash,
    read_jsonl,
    write_jsonl,
)
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
from repro.obs.openmetrics import (
    format_openmetrics,
    metric_family_name,
    parse_openmetrics,
)
from repro.obs.render import format_metrics_json, render_span_tree
from repro.obs.timers import STAGE_NAMES, Clock, StageTimers
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "StageTimers",
    "STAGE_NAMES",
    "Clock",
    "TRACE_SCHEMA_VERSION",
    "EVENT_KINDS",
    "SPAN_LEVELS",
    "COUNTER_UNITS",
    "DISTRIBUTION_UNITS",
    "config_hash",
    "canonical_events",
    "write_jsonl",
    "read_jsonl",
    "COUNTER_CATALOG",
    "COUNTER_FAMILIES",
    "catalog_markdown_table",
    "describe_counter",
    "BUCKET_FAMILIES",
    "METRIC_CATALOG",
    "METRIC_FAMILIES",
    "MetricSpec",
    "Histogram",
    "bucket_boundaries",
    "bucket_index",
    "describe_metric",
    "new_histogram",
    "format_openmetrics",
    "metric_family_name",
    "parse_openmetrics",
    "render_span_tree",
    "format_metrics_json",
]
