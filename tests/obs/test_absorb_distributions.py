"""Merge determinism of distribution events across worker sinks.

The parent tracer absorbs worker sinks in submission order, never
completion order; distribution events keep their record-time bucket
indices (computed against the shared fixed boundaries) and only their
owning span is remapped.  Interleaved counter/distribution streams from
out-of-order workers must therefore produce one canonical merged stream.
"""

from repro.devtools.trace_schema import validate_trace_events
from repro.obs import Tracer, canonical_events


def worker_sink(slot, *, jitter):
    """One worker's interleaved counter + distribution stream.

    ``jitter`` shifts the fake clock so two builds of the same worker
    have different timestamps — volatile data the canonical view strips.
    """
    ticks = iter(range(1000))
    tracer = Tracer(
        f"worker-{slot}",
        seed=slot,
        clock=lambda: (next(ticks) + jitter) * 0.001,
    )
    with tracer.span("run"):
        tracer.count("mechanism_runs")
        tracer.observe("epoch_close_to_outcome_seconds", 0.25 + slot, epoch=0)
        tracer.observe("epoch_batch_events", 64 * (slot + 1), epoch=0)
        tracer.count("winners_selected", 3 + slot)
        tracer.observe("win_rate/depth1", slot / 4.0, epoch=0)
    return tracer.events


def merge(sinks):
    ticks = iter(range(1000))
    parent = Tracer("parent", seed=0, clock=lambda: next(ticks) * 0.001)
    with parent.span("epoch", index=0):
        for rep, events in enumerate(sinks):
            parent.absorb(events, rep=rep, worker=rep % 2)
    return parent


class TestAbsorbDistributions:
    def test_merged_stream_is_schema_valid(self):
        parent = merge([worker_sink(0, jitter=0), worker_sink(1, jitter=0)])
        assert validate_trace_events(parent.events) == []

    def test_distribution_events_tagged_and_remapped(self):
        parent = merge([worker_sink(0, jitter=0), worker_sink(1, jitter=0)])
        spans = {
            e["id"]
            for e in parent.events
            if e.get("ev") == "span_start"
        }
        distributions = [
            e for e in parent.events if e.get("ev") == "distribution"
        ]
        assert len(distributions) == 6  # 3 per worker
        for event in distributions:
            assert event["rep"] in (0, 1)
            assert event["w"] == event["rep"] % 2
            assert event["span"] in spans  # remapped into the parent's ids
            assert event["epoch"] == 0

    def test_submission_order_invariance(self):
        # Same workers, different wall-clock interleavings (jitter), same
        # submission order: the canonical merged stream is identical.
        a = merge([worker_sink(0, jitter=0), worker_sink(1, jitter=500)])
        b = merge([worker_sink(0, jitter=300), worker_sink(1, jitter=0)])
        assert canonical_events(a.events) == canonical_events(b.events)

    def test_volatile_values_stripped_canonical_values_kept(self):
        parent = merge([worker_sink(0, jitter=0)])
        canonical = canonical_events(parent.events)
        by_name = {
            e["name"]: e for e in canonical if e.get("ev") == "distribution"
        }
        # Measured wall time: value/bucket stripped, vol flag kept.
        assert "value" not in by_name["epoch_close_to_outcome_seconds"]
        assert "bucket" not in by_name["epoch_close_to_outcome_seconds"]
        assert by_name["epoch_close_to_outcome_seconds"]["vol"] is True
        # Deterministic batch size and win-rate surface: kept verbatim.
        assert by_name["epoch_batch_events"]["value"] == 64
        assert "bucket" in by_name["epoch_batch_events"]
        assert by_name["win_rate/depth1"]["value"] == 0.0

    def test_counter_totals_fold_across_workers(self):
        parent = merge([worker_sink(0, jitter=0), worker_sink(1, jitter=0)])
        assert parent.value("mechanism_runs") == 2
        assert parent.value("winners_selected") == 3 + 4
