"""End-to-end MechanismService runs: counters, ledger, tracing."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.rit import RIT
from repro.core.rng import spawn_seeds
from repro.devtools.trace_schema import check_coverage
from repro.obs import Tracer
from repro.service import (
    MechanismService,
    OutcomeLedger,
    ServiceConfig,
    build_scenario,
    canonical_outcome,
    scenario_event_stream,
)


def mechanism(**overrides):
    params = dict(rng_policy="per-type", round_budget="until-complete")
    params.update(overrides)
    return RIT(**params)


def small_stream(seed=0, users=120, types=3, tasks_per_type=6, withdraw=0.05):
    scenario_rng, stream_rng = spawn_seeds(seed, 2)
    scenario = build_scenario(users, types, tasks_per_type, scenario_rng)
    events = scenario_event_stream(
        scenario, stream_rng, withdraw_fraction=withdraw
    )
    return scenario, events


class TestConstruction:
    def test_raise_on_failure_rejected(self):
        # Early epochs void while supply builds up; a mechanism that
        # raises on a voided outcome would end the service there.
        scenario, _ = small_stream()
        with pytest.raises(ConfigurationError, match="raise_on_failure"):
            MechanismService(mechanism(raise_on_failure=True), scenario.job)


class TestServeStream:
    def test_counters_and_epoch_coverage(self):
        scenario, events = small_stream()
        service = MechanismService(
            mechanism(), scenario.job, ServiceConfig(seed=0, epoch_max_events=32)
        )
        report = service.serve_stream(events)
        assert report.offered == len(events)
        assert report.accepted == len(events)  # closed-loop: nothing dropped
        assert report.rejected == 0
        assert len(report.consumed) == report.accepted
        assert report.applied + report.refused == len(report.consumed)
        assert sum(e.batch_events for e in report.epochs) == report.applied
        assert [e.index for e in report.epochs] == list(range(len(report.epochs)))
        assert report.queue_highwater <= service.config.queue_size

    def test_report_repr_does_not_grow_with_the_stream(self):
        # asyncio.run formats the finished task's result (the report) on
        # shutdown, so the repr must not print every event and outcome.
        lengths = []
        for users in (40, 160):
            scenario, events = small_stream(users=users)
            report = MechanismService(
                mechanism(), scenario.job, ServiceConfig(epoch_max_events=16)
            ).serve_stream(events)
            assert len(report.consumed) == len(events)
            lengths.append(len(repr(report)))
        assert len(small_stream(users=160)[1]) > 3 * len(small_stream(users=40)[1])
        assert lengths[1] - lengths[0] < 40  # only the counters' digits

    def test_ledger_records_every_epoch(self, tmp_path):
        scenario, events = small_stream()
        ledger = OutcomeLedger(tmp_path, "svc-test")
        service = MechanismService(
            mechanism(),
            scenario.job,
            ServiceConfig(seed=0, epoch_max_events=32),
            ledger=ledger,
        )
        report = service.serve_stream(events)
        records = ledger.read_epochs()
        assert len(records) == len(report.epochs)
        meta = ledger.read_meta()
        assert meta["rng_policy"] == "per-type"
        # Ledger lines are the canonical projection of the in-memory outcome.
        for record, epoch in zip(records, report.epochs):
            assert record["outcome"] == canonical_outcome(epoch.outcome)
            assert record["batch_events"] == epoch.batch_events

    def test_trace_is_schema_valid_with_service_counters(self):
        scenario, events = small_stream(users=80, tasks_per_type=4)
        tracer = Tracer("svc-trace", seed=0)
        service = MechanismService(
            mechanism(),
            scenario.job,
            ServiceConfig(seed=0, epoch_max_events=32),
            tracer=tracer,
        )
        service.serve_stream(events)
        # Valid, with every span level of a run: each epoch's RIT.run
        # nests run/mechanism/cra/round under the epoch span.
        assert check_coverage(tracer.events) == []
        spans = {e["id"]: e for e in tracer.events if e["ev"] == "span_start"}
        runs = [span for span in spans.values() if span["name"] == "run"]
        assert runs
        assert all(spans[run["parent"]]["name"] == "epoch" for run in runs)
        counters = {
            e["name"] for e in tracer.events if e["ev"] == "counter"
        }
        assert {
            "service_events_offered",
            "service_events_accepted",
            "service_events_applied",
            "service_epochs_closed",
            "mechanism_runs",
        } <= counters

    def test_open_loop_counts_rejections_instead_of_growing(self):
        scenario, events = small_stream(users=200, tasks_per_type=8)
        service = MechanismService(
            mechanism(),
            scenario.job,
            ServiceConfig(seed=0, epoch_max_events=64, queue_size=16),
        )
        report = service.serve_stream(events, open_loop=True)
        assert report.queue_highwater <= 16
        assert report.offered == report.accepted + report.invalid + report.rejected
