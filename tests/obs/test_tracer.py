"""Unit tests for the tracer, the event model, and the counter catalog."""

import pytest

from repro.obs import (
    COUNTER_CATALOG,
    NULL_TRACER,
    SPAN_LEVELS,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Tracer,
    canonical_events,
    config_hash,
    describe_counter,
    read_jsonl,
)


class TestNullTracer:
    def test_is_structurally_inert(self):
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.depth == 0
        assert NULL_TRACER.begin("run") == -1
        NULL_TRACER.end(-1)  # no-op, never raises
        NULL_TRACER.count("cra_rounds", 3)
        assert NULL_TRACER.snapshot() == {}
        assert NULL_TRACER.value("cra_rounds", default=7) == 7

    def test_span_is_shared_singleton(self):
        a = NULL_TRACER.span("mechanism", users=10)
        b = NULL_TRACER.run_span()
        assert a is b
        with a:
            pass

    def test_clock_is_callable(self):
        t0 = NULL_TRACER.clock()
        assert NULL_TRACER.clock() >= t0

    def test_recording_tracer_is_a_null_tracer(self):
        assert isinstance(Tracer("x"), NullTracer)


class TestSpans:
    def test_header_is_first_event(self):
        tracer = Tracer("run-1", seed=3, config={"users": 10})
        header = tracer.events[0]
        assert header["ev"] == "trace"
        assert header["run_id"] == "run-1"
        assert header["seed"] == 3
        assert header["schema_version"] == TRACE_SCHEMA_VERSION
        assert header["config_hash"] == config_hash({"users": 10})

    def test_nesting_and_parents(self):
        tracer = Tracer("run")
        outer = tracer.begin("run")
        inner = tracer.begin("mechanism")
        assert tracer.depth == 2
        tracer.end(inner)
        tracer.end(outer)
        starts = [e for e in tracer.events if e["ev"] == "span_start"]
        assert [s["parent"] for s in starts] == [None, outer]

    def test_out_of_order_end_raises(self):
        tracer = Tracer("run")
        outer = tracer.begin("run")
        tracer.begin("mechanism")
        with pytest.raises(ValueError):
            tracer.end(outer)

    def test_end_without_open_span_raises(self):
        with pytest.raises(ValueError):
            Tracer("run").end(0)

    def test_run_span_only_opens_at_depth_zero(self):
        tracer = Tracer("run")
        with tracer.run_span(kind="outer"):
            assert tracer.depth == 1
            with tracer.run_span(kind="nested"):  # no-op at depth > 0
                assert tracer.depth == 1
        names = [e["name"] for e in tracer.events if e["ev"] == "span_start"]
        assert names == ["run"]


class TestCounters:
    def test_running_totals_and_snapshot_order(self):
        tracer = Tracer("run")
        tracer.count("cra_rounds")
        tracer.count("winners_selected", 5)
        tracer.count("cra_rounds", 2)
        assert tracer.value("cra_rounds") == 3
        snap = tracer.snapshot()
        assert list(snap) == ["cra_rounds", "winners_selected"]
        assert snap["cra_rounds"] == {"value": 3, "unit": "count"}
        values = [
            e["value"] for e in tracer.events
            if e["ev"] == "counter" and e["name"] == "cra_rounds"
        ]
        assert values == [1, 3]

    def test_unit_is_fixed_at_first_use(self):
        tracer = Tracer("run")
        tracer.count("stage_seconds/sample", 0.5, unit="seconds")
        with pytest.raises(ValueError):
            tracer.count("stage_seconds/sample", 1)

    def test_bytes_counters_keep_integer_totals(self, bytes_counter):
        tracer = Tracer("run")
        tracer.count(bytes_counter, 1_024, unit="bytes")
        tracer.count(bytes_counter, 2_048, unit="bytes")
        total = tracer.value(bytes_counter)
        assert total == 3_072
        assert isinstance(total, int) and not isinstance(total, bool)
        snap = tracer.snapshot()
        assert snap[bytes_counter] == {
            "value": 3_072,
            "unit": "bytes",
        }
        for event in tracer.events:
            if event["ev"] == "counter":
                assert isinstance(event["value"], int)
                assert isinstance(event["delta"], int)

    def test_owning_span_recorded(self):
        tracer = Tracer("run")
        with tracer.span("cra") as sid:
            tracer.count("cra_rounds")
        event = [e for e in tracer.events if e["ev"] == "counter"][0]
        assert event["span"] == sid


class TestCanonicalAndRoundtrip:
    def test_canonical_strips_time_and_measured_durations(self):
        tracer = Tracer("run")
        tracer.count("cra_rounds")
        tracer.count("stage_seconds/sample", 0.25, unit="seconds")
        canon = canonical_events(tracer.events)
        assert all("t" not in e for e in canon)
        count = [e for e in canon if e.get("name") == "cra_rounds"][0]
        seconds = [e for e in canon if e.get("name") == "stage_seconds/sample"][0]
        assert count["value"] == 1
        assert "value" not in seconds and "delta" not in seconds
        assert seconds["unit"] == "seconds"

    def test_bytes_counters_survive_canonicalization(self, bytes_counter):
        # Footprints are deterministic (pure array sizes), so the
        # canonical differential stream keeps them — unlike seconds.
        tracer = Tracer("run")
        tracer.count(bytes_counter, 4_096, unit="bytes")
        canon = canonical_events(tracer.events)
        event = [e for e in canon if e.get("name") == bytes_counter][0]
        assert event["value"] == 4_096
        assert event["delta"] == 4_096
        assert event["unit"] == "bytes"

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer("run", seed=1, config={"k": [1, 2]})
        with tracer.run_span():
            tracer.count("cra_rounds")
        path = str(tmp_path / "trace.jsonl")
        tracer.write_jsonl(path)
        assert read_jsonl(path) == tracer.events


class TestAbsorb:
    def _child(self, rep):
        child = Tracer(f"rep-{rep}", seed=rep, config={"rep": rep})
        with child.span("rep", rep=rep):
            with child.span("mechanism"):
                child.count("cra_rounds", 2)
        return child

    def test_ids_remap_and_roots_reparent(self):
        parent = Tracer("merge")
        with parent.run_span():
            run_id = 0
            parent.absorb(self._child(0).events, rep=0, worker=0)
            parent.absorb(self._child(1).events, rep=1, worker=1)
        starts = [e for e in parent.events if e["ev"] == "span_start"]
        ids = [s["id"] for s in starts]
        assert len(ids) == len(set(ids)), "absorbed span ids must not collide"
        rep_spans = [s for s in starts if s["name"] == "rep"]
        assert [s["parent"] for s in rep_spans] == [run_id, run_id]

    def test_counter_values_rewritten_to_merged_totals(self):
        parent = Tracer("merge")
        with parent.run_span():
            parent.absorb(self._child(0).events, rep=0, worker=0)
            parent.absorb(self._child(1).events, rep=1, worker=1)
        values = [
            e["value"] for e in parent.events
            if e["ev"] == "counter" and e["name"] == "cra_rounds"
        ]
        assert values == [2, 4]
        assert parent.value("cra_rounds") == 4

    def test_headers_dropped_and_events_tagged(self):
        parent = Tracer("merge")
        with parent.run_span():
            parent.absorb(self._child(3).events, rep=3, worker=1)
        assert [e for e in parent.events if e["ev"] == "trace"] == [
            parent.events[0]
        ]
        absorbed = [e for e in parent.events if "rep" in e]
        assert absorbed and all(
            e["rep"] == 3 and e["w"] == 1 for e in absorbed
        )
        assert [e["i"] for e in parent.events] == list(
            range(len(parent.events))
        )


class TestCatalog:
    def test_span_levels_are_the_documented_hierarchy(self):
        assert SPAN_LEVELS == ("run", "mechanism", "cra", "round")

    def test_catalog_entries_are_unit_description_pairs(self):
        for name, (unit, description) in COUNTER_CATALOG.items():
            assert unit in ("count", "seconds", "bytes"), name
            assert description, name

    def test_family_lookup(self):
        assert describe_counter("figure_seconds/fig6a") is not None
        assert describe_counter("stage_seconds/sample") is not None
        assert describe_counter("not_a_counter") is None
