"""End-to-end MechanismService runs: counters, ledger, tracing."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.rit import RIT
from repro.core.types import Ask
from repro.devtools.trace_schema import check_coverage
from repro.obs import Tracer
from repro.sentinel.plane import SentinelPlane
from repro.service import (
    MechanismService,
    OutcomeLedger,
    ServiceConfig,
    canonical_outcome,
    seeded_stream,
)


def mechanism(**overrides):
    params = dict(rng_policy="per-type", round_budget="until-complete")
    params.update(overrides)
    return RIT(**params)


def small_stream(seed=0, users=120, types=3, tasks_per_type=6, withdraw=0.05):
    return seeded_stream(
        seed, users, types, tasks_per_type, graph="twitter", withdraw_fraction=withdraw
    )


class TestConstruction:
    def test_raise_on_failure_rejected(self):
        # Early epochs void while supply builds up; a mechanism that
        # raises on a voided outcome would end the service there.
        job, _ = small_stream()
        with pytest.raises(ConfigurationError, match="raise_on_failure"):
            MechanismService(mechanism(raise_on_failure=True), job)


class TestServeStream:
    def test_counters_and_epoch_coverage(self):
        job, events = small_stream()
        service = MechanismService(
            mechanism(), job, ServiceConfig(seed=0, epoch_max_events=32)
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
            job, events = small_stream(users=users)
            report = MechanismService(
                mechanism(), job, ServiceConfig(epoch_max_events=16)
            ).serve_stream(events)
            assert len(report.consumed) == len(events)
            lengths.append(len(repr(report)))
        assert len(small_stream(users=160)[1]) > 3 * len(small_stream(users=40)[1])
        assert lengths[1] - lengths[0] < 40  # only the counters' digits

    def test_ledger_records_every_epoch(self, tmp_path):
        job, events = small_stream()
        ledger = OutcomeLedger(tmp_path, "svc-test")
        service = MechanismService(
            mechanism(),
            job,
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
        job, events = small_stream(users=80, tasks_per_type=4)
        tracer = Tracer("svc-trace", seed=0)
        service = MechanismService(
            mechanism(),
            job,
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
        job, events = small_stream(users=200, tasks_per_type=8)
        service = MechanismService(
            mechanism(),
            job,
            ServiceConfig(seed=0, epoch_max_events=64, queue_size=16),
        )
        report = service.serve_stream(events, open_loop=True)
        assert report.queue_highwater <= 16
        assert report.offered == report.accepted + report.invalid + report.rejected

    def test_serving_builds_no_ask(self, monkeypatch):
        # Asks are checked by validate_ask and stored as columns; no layer
        # of the live path (frontend, state, epochs, sentinel) builds one.
        job, events = small_stream()
        service = MechanismService(
            mechanism(),
            job,
            ServiceConfig(seed=0, epoch_max_events=32),
            sentinel=SentinelPlane(),
        )
        built = []
        init = Ask.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args or kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Ask, "__init__", counting_init)
        report = service.serve_stream(events)
        assert report.applied and len(report.epochs) > 1
        assert built == []
        Ask(task_type=0, capacity=1, value=1.0)
        assert len(built) == 1

    def test_events_behind_a_closed_epoch_stay_queued(self, monkeypatch):
        # The consumer applies each event as it takes it, so while an
        # epoch runs every admitted event not yet applied is still in the
        # queue: a drain into a list would hide them from the producer's
        # backpressure.
        import repro.service.service as service_module

        job, events = small_stream(users=200, tasks_per_type=8)
        service = MechanismService(
            mechanism(),
            job,
            ServiceConfig(seed=0, epoch_max_events=8, queue_size=32),
        )
        backlog = []
        run_epoch = service_module.run_epoch

        async def checked_run_epoch(*args, **kwargs):
            telemetry, frontend = service.telemetry, service.frontend
            unapplied = frontend.accepted - (
                telemetry.events_applied + telemetry.events_refused
            )
            # The queue may also hold the close marker.
            assert unapplied <= frontend.depth <= unapplied + 1
            backlog.append(unapplied)
            return await run_epoch(*args, **kwargs)

        monkeypatch.setattr(service_module, "run_epoch", checked_run_epoch)
        report = service.serve_stream(events)
        assert len(backlog) == len(report.epochs)
        assert max(backlog) > 8  # epochs did run with events queued behind
