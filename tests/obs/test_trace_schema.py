"""Tests for the trace JSONL schema validator (``repro.devtools.trace_schema``)."""

import copy

import pytest

from repro.core.rit import RIT
from repro.core.types import Job
from repro.devtools.trace_schema import (
    check_coverage,
    trace_coverage,
    validate_trace_events,
    validate_trace_file,
)
from repro.obs import Tracer
from repro.workloads.scenarios import paper_scenario
from repro.workloads.users import UserDistribution


def _traced_run(seed=0):
    tracer = Tracer("test", seed=seed, config={"users": 120})
    job = Job.uniform(3, 8)
    scenario = paper_scenario(
        120, job, seed, distribution=UserDistribution(num_types=3)
    )
    mech = RIT(round_budget="until-complete", tracer=tracer)
    mech.run(job, scenario.truthful_asks(), scenario.tree, seed)
    return tracer


@pytest.fixture(scope="module")
def events():
    return _traced_run().events


class TestValidStreams:
    def test_real_run_is_valid(self, events):
        assert validate_trace_events(events) == []

    def test_real_run_passes_smoke_gate(self, events):
        assert check_coverage(events) == []

    def test_handbuilt_stream_is_valid(self):
        tracer = Tracer("tiny", seed=1, config={})
        with tracer.run_span():
            with tracer.span("mechanism"):
                tracer.count("cra_rounds")
        assert validate_trace_events(tracer.events) == []

    def test_file_roundtrip_is_valid(self, events, tmp_path):
        from repro.obs import write_jsonl

        path = str(tmp_path / "t.jsonl")
        write_jsonl(events, path)
        assert validate_trace_file(path) == []

    def test_unreadable_file_reports(self, tmp_path):
        problems = validate_trace_file(str(tmp_path / "missing.jsonl"))
        assert problems and "cannot read" in problems[0]


class TestCorruptions:
    """Each corruption of a valid stream must be caught."""

    def _mutated(self, events, mutate):
        mutated = [copy.deepcopy(e) for e in events]
        mutate(mutated)
        return validate_trace_events(mutated)

    def test_empty_stream(self):
        assert validate_trace_events([]) != []

    def test_missing_header(self, events):
        assert self._mutated(events, lambda ev: ev.pop(0))

    def test_wrong_schema_version(self, events):
        def mutate(ev):
            ev[0]["schema_version"] = 999

        assert any("schema_version" in p for p in self._mutated(events, mutate))

    def test_gap_in_indices(self, events):
        def mutate(ev):
            ev[3]["i"] = 99

        assert self._mutated(events, mutate)

    def test_unknown_event_kind(self, events):
        def mutate(ev):
            ev[2]["ev"] = "mystery"

        assert any("unknown event kind" in p for p in self._mutated(events, mutate))

    def test_unclosed_span(self, events):
        def mutate(ev):
            ends = [k for k, e in enumerate(ev) if e["ev"] == "span_end"]
            del ev[ends[-1]]
            for k, e in enumerate(ev):
                e["i"] = k

        assert any("unclosed" in p for p in self._mutated(events, mutate))

    def test_non_lifo_close(self):
        tracer = Tracer("x")
        a = tracer.begin("run")
        tracer.begin("mechanism")
        events = [copy.deepcopy(e) for e in tracer.events]
        events.append(
            {"i": len(events), "ev": "span_end", "t": 0.0, "id": a, "name": "run"}
        )
        assert any("LIFO" in p for p in validate_trace_events(events))

    def test_uncataloged_counter(self, events):
        def mutate(ev):
            counters = [e for e in ev if e["ev"] == "counter"]
            counters[0]["name"] = "made_up_counter"

        assert any("not cataloged" in p for p in self._mutated(events, mutate))

    def test_inconsistent_running_value(self, events):
        def mutate(ev):
            counters = [
                e for e in ev if e["ev"] == "counter" and e["unit"] == "count"
            ]
            counters[0]["value"] = counters[0]["value"] + 7

        assert any("running" in p for p in self._mutated(events, mutate))

    @pytest.fixture()
    def bytes_stream(self, bytes_counter):
        """A valid stream holding one cataloged bytes-unit counter."""
        tracer = Tracer("b", seed=0, config={})
        with tracer.run_span():
            with tracer.span("mechanism"):
                tracer.count(bytes_counter, 512, unit="bytes")
        events = [copy.deepcopy(e) for e in tracer.events]
        assert validate_trace_events(events) == []
        return events

    def test_float_bytes_delta_flagged(self, bytes_stream, bytes_counter):
        events = bytes_stream
        target = [e for e in events if e.get("name") == bytes_counter][0]
        target["delta"] = 512.0
        target["value"] = 512.0
        assert any(
            "must be ints" in p for p in validate_trace_events(events)
        )

    def test_bytes_running_value_checked(self, bytes_stream, bytes_counter):
        events = bytes_stream
        target = [e for e in events if e.get("name") == bytes_counter][0]
        target["value"] = target["value"] + 7
        assert any("running" in p for p in validate_trace_events(events))

    def test_negative_merge_tag(self, events):
        def mutate(ev):
            ev[1]["rep"] = -1

        assert any("'rep'" in p for p in self._mutated(events, mutate))


class TestCoverage:
    def test_coverage_reports_spans_and_counters(self, events):
        seen = trace_coverage(events)
        assert {"run", "mechanism", "cra", "round"} <= seen["span_names"]
        count_units = [
            name for name, unit in seen["counters"].items() if unit == "count"
        ]
        assert len(count_units) >= 6

    def test_gate_fails_without_round_spans(self):
        tracer = Tracer("tiny", seed=1, config={})
        with tracer.run_span():
            tracer.count("cra_rounds")
        problems = check_coverage(tracer.events)
        assert any("span levels" in p for p in problems)
        assert any("count-unit counters" in p for p in problems)
