"""End-to-end MechanismService runs: counters, ledger, tracing."""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

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


class RecordingLedger(OutcomeLedger):
    """The production ledger, noting each append and close, in order, as
    ``(call, epoch or None, thread name)``."""

    def __init__(self, root, run_id):
        super().__init__(root, run_id)
        self.calls = []

    def append(self, batch, outcome):
        super().append(batch, outcome)
        self.calls.append(("append", batch.index, threading.current_thread().name))

    def close(self):
        super().close()
        self.calls.append(("close", None, threading.current_thread().name))


def on_workers(calls):
    """The calls without their thread names, once each was on a worker."""
    assert all(thread.startswith("rit-epoch") for _, _, thread in calls)
    return [(call, epoch) for call, epoch, _ in calls]


class TestOneWorkerTrip:
    """Each epoch's run and ledger append are one call on the worker."""

    def test_each_epoch_appends_once_on_a_worker_in_epoch_order(
        self, tmp_path, monkeypatch
    ):
        import repro.service.service as service_module

        job, events = small_stream()
        ledger = RecordingLedger(tmp_path, "svc-trip")
        service = MechanismService(
            mechanism(),
            job,
            ServiceConfig(seed=0, epoch_max_events=32, max_workers=2),
            ledger=ledger,
        )
        submitted = []
        submit = ThreadPoolExecutor.submit

        def counting_submit(self, fn, /, *args, **kwargs):
            submitted.append(fn)
            return submit(self, fn, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
        seen = []
        run_epoch = service_module.run_epoch

        async def reading_run_epoch(mechanism, job, snapshot, *args, **kwargs):
            outcome = await run_epoch(mechanism, job, snapshot, *args, **kwargs)
            # The loop wakes after the record is written and flushed.
            seen.append([r["epoch"] for r in ledger.read_epochs()])
            assert seen[-1][-1] == snapshot.batch.index
            return outcome

        monkeypatch.setattr(service_module, "run_epoch", reading_run_epoch)
        report = service.serve_stream(events)
        epochs = [epoch.index for epoch in report.epochs]
        assert len(epochs) > 2
        assert on_workers(ledger.calls) == [
            ("append", index) for index in epochs
        ] + [("close", None)]
        assert seen == [epochs[: k + 1] for k in range(len(epochs))]
        # The meta write, one call per epoch, the close.
        assert len(submitted) == 1 + len(epochs) + 1
        assert [r["epoch"] for r in ledger.read_epochs()] == epochs

    def test_a_cancelled_serve_closes_the_ledger_after_its_epoch(
        self, tmp_path, monkeypatch
    ):
        job, events = small_stream()
        ledger = RecordingLedger(tmp_path, "svc-cancel")
        service = MechanismService(
            mechanism(),
            job,
            ServiceConfig(seed=0, epoch_max_events=32, max_workers=2),
            ledger=ledger,
        )
        running, release = threading.Event(), threading.Event()
        run = RIT.run

        def held_run(self, *args, **kwargs):
            running.set()
            release.wait(30)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(RIT, "run", held_run)

        async def cancel_mid_epoch():
            task = asyncio.ensure_future(service.serve_events(events))
            while not running.is_set():
                await asyncio.sleep(0.001)
            task.cancel()
            # Let the epoch go on only once serve's cleanup has begun.
            timer = threading.Timer(0.2, release.set)
            timer.start()
            with pytest.raises(asyncio.CancelledError):
                await task
            timer.join()

        asyncio.run(cancel_mid_epoch())
        # The epoch the loop stopped awaiting still ran and appended; the
        # ledger closed after it, on a worker thread.
        assert on_workers(ledger.calls) == [("append", 0), ("close", None)]
        assert [r["epoch"] for r in ledger.read_epochs()] == [0]
