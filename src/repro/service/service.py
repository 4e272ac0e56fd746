"""The mechanism-as-a-service orchestrator.

Wires the pieces together::

    producer → IngestFrontend → EpochPipeline → run_epoch → OutcomeLedger
               (bounded queue)   (admission +    (one RIT.run  (JSONL)
                                  batching)       per epoch)

:class:`MechanismService` owns the consumer loop: it drains the frontend
queue (one awaited ``get``, then ``get_nowait`` until the queue is
empty), feeds every event through the shared
:class:`~repro.service.epochs.EpochPipeline` as it is taken, and
executes each closed epoch as one ``RIT.run`` on the worker pool.  Epoch
``i`` always draws ``epoch_seed(config.seed, i)`` — a pure function of
two integers — so a fixed admitted stream yields a fixed sequence of
outcomes no matter how producers, the event loop, or the thread pool
interleave.  Online equals the offline replay (:mod:`repro.service.replay`)
under either RNG policy; :meth:`MechanismService.replay_check` checks
it.  The mechanism must not raise on a voided epoch
(``raise_on_failure=False``): epochs before supply builds up void
legitimately.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional

if TYPE_CHECKING:  # runtime decoupled: repro.sentinel imports repro.service
    from repro.sentinel.plane import SentinelPlane

from repro.core.exceptions import ConfigurationError
from repro.core.outcome import MechanismOutcome
from repro.core.rit import RIT
from repro.core.types import Job
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.service.epochs import (
    EpochPipeline,
    EpochPolicy,
    EpochSnapshot,
    epoch_seed,
)
from repro.service.events import ServiceEvent
from repro.service.frontend import IngestFrontend
from repro.service.ledger import OutcomeLedger
from repro.service.replay import differential_check, replay_outcomes
from repro.service.telemetry import ServiceTelemetry
from repro.service.workers import run_epoch

__all__ = ["SERVING_RIT", "ServiceConfig", "EpochResult", "ServiceReport", "MechanismService"]

#: The RIT configuration of a seeded live run: ``rit serve`` (which hashes
#: it into the run id), the sentinel gate and the arena's ``rit`` entry
#: all serve ``RIT(**SERVING_RIT)``.
SERVING_RIT: Dict[str, Any] = {
    "rng_policy": "per-type",
    "round_budget": "until-complete",
}

#: An open-loop producer yields to the event loop after every this many
#: offers, so the consumer actually runs.
_OPEN_LOOP_YIELD_EVERY = 64


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service run (all deterministic inputs)."""

    seed: int = 0
    queue_size: int = 1024
    epoch_max_events: int = 256
    epoch_max_ticks: Optional[int] = None
    #: Threads of the worker pool.  Epochs and ledger writes run there one
    #: at a time, so the default is one.
    max_workers: Optional[int] = None

    def policy(self) -> EpochPolicy:
        return EpochPolicy(
            max_events=self.epoch_max_events, max_ticks=self.epoch_max_ticks
        )


@dataclass(frozen=True)
class EpochResult:
    """One executed epoch: the outcome plus serving-side measurements."""

    index: int
    batch_events: int
    users: int
    latency_seconds: float
    outcome: MechanismOutcome


@dataclass
class ServiceReport:
    """What one :meth:`MechanismService.serve` run did, end to end."""

    # Left out of the repr, which would otherwise print every event and
    # outcome (asyncio formats a finished task's result on shutdown).
    epochs: List[EpochResult] = field(default_factory=list, repr=False)
    consumed: List[ServiceEvent] = field(default_factory=list, repr=False)
    applied: int = 0
    refused: int = 0
    refusal_reasons: Dict[str, int] = field(default_factory=dict)
    offered: int = 0
    accepted: int = 0
    invalid: int = 0
    rejected: int = 0
    gated: int = 0
    queue_highwater: int = 0

    def outcomes(self) -> List[MechanismOutcome]:
        return [epoch.outcome for epoch in self.epochs]


class MechanismService:
    """Online epoch-batched RIT serving over an ingestion stream."""

    def __init__(
        self,
        mechanism: RIT,
        job: Job,
        config: Optional[ServiceConfig] = None,
        *,
        tracer: Optional[NullTracer] = None,
        ledger: Optional[OutcomeLedger] = None,
        telemetry: Optional[ServiceTelemetry] = None,
        sentinel: Optional["SentinelPlane"] = None,
        meta_extra: Optional[Mapping[str, object]] = None,
    ) -> None:
        if mechanism.raise_on_failure:
            raise ConfigurationError(
                "MechanismService requires raise_on_failure=False: epochs "
                "before supply builds up void legitimately"
            )
        self.config = config if config is not None else ServiceConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.mechanism = mechanism.with_tracer(self.tracer)
        self.job = job
        self.ledger = ledger
        self.telemetry = telemetry if telemetry is not None else ServiceTelemetry()
        #: Optional sentinel plane: a read-only observer of applied
        #: events and epoch closes, plus (opt-in) the frontend admission
        #: gate — served outcomes are untouched either way.
        self.sentinel = sentinel
        #: Extra ledger-meta entries (e.g. the attack injection schedule)
        #: merged over the config meta so replays carry the full record.
        self.meta_extra = dict(meta_extra) if meta_extra else {}
        self.frontend = IngestFrontend(
            job,
            maxsize=self.config.queue_size,
            tracer=self.tracer,
            telemetry=self.telemetry,
            gatekeeper=sentinel.admission_gate() if sentinel is not None else None,
        )
        #: The live pipeline of the current :meth:`serve` call (exposed so
        #: the HTTP probes can report batching/state progress).
        self.pipeline: Optional[EpochPipeline] = None

    # ------------------------------------------------------------------ #
    # Consumer loop
    # ------------------------------------------------------------------ #

    async def serve(self) -> ServiceReport:
        """Drain the frontend until close; execute every closed epoch."""
        tracer = self.tracer
        tracing = tracer.enabled
        clock = tracer.clock
        config = self.config
        report = ServiceReport()
        pipeline = EpochPipeline(self.job, config.policy())
        self.pipeline = pipeline
        telemetry = self.telemetry
        telemetry.phase = "serving"
        service_sid = -1
        if tracing:
            service_sid = tracer.begin(
                "service",
                seed=config.seed,
                epoch_max_events=config.epoch_max_events,
                epoch_max_ticks=config.epoch_max_ticks,
                queue_size=config.queue_size,
            )
        executor = ThreadPoolExecutor(
            max_workers=config.max_workers or 1, thread_name_prefix="rit-epoch"
        )
        try:
            if self.ledger is not None:
                # Ledger writes are synchronous file I/O: keep them off the
                # event loop (RIT009) by dispatching to the worker pool.
                await asyncio.get_running_loop().run_in_executor(
                    executor, self.ledger.write_meta, self._meta()
                )
            # The per-event methods, bound once.
            get, get_nowait = self.frontend.get, self.frontend.get_nowait
            consume = report.consumed.append
            step = pipeline.step
            observe = (
                self.sentinel.observe_applied if self.sentinel is not None else None
            )
            # Wait for one event, then take events without waiting until
            # the queue runs dry; each is applied as it is taken, so an
            # epoch that runs mid-drain leaves the rest queued.
            event = await get()
            while event is not None:
                while event is not None:
                    consume(event)
                    refused, snapshots = step(event)
                    if refused is None:
                        telemetry.events_applied += 1
                        if observe is not None:
                            observe(event)
                        if tracing:
                            tracer.count("service_events_applied")
                    else:
                        report.refused += 1
                        telemetry.events_refused += 1
                        report.refusal_reasons[refused] = (
                            report.refusal_reasons.get(refused, 0) + 1
                        )
                        if tracing:
                            tracer.count("service_events_refused")
                    for snapshot in snapshots:
                        await self._execute(snapshot, report, executor, clock)
                    event = get_nowait()
                telemetry.fold_ingest()
                event = await get()
            tail = pipeline.finish()
            if tail is not None:
                await self._execute(tail, report, executor, clock)
        finally:
            executor.shutdown(wait=True)
            telemetry.fold_ingest()
            telemetry.phase = "drained"
            if tracing:
                tracer.end(service_sid)
        # Every consumed event was applied or refused.
        report.applied = len(report.consumed) - report.refused
        report.offered = self.frontend.offered
        report.accepted = self.frontend.accepted
        report.invalid = self.frontend.invalid
        report.rejected = self.frontend.rejected
        report.gated = self.frontend.gated
        report.queue_highwater = self.frontend.highwater
        return report

    async def _execute(
        self,
        snapshot: EpochSnapshot,
        report: ServiceReport,
        executor: ThreadPoolExecutor,
        clock,
    ) -> None:
        t_start = clock()
        outcome = await run_epoch(
            self.mechanism,
            self.job,
            snapshot,
            epoch_seed(self.config.seed, snapshot.batch.index),
            executor=executor,
        )
        latency = clock() - t_start
        if self.ledger is not None:
            await asyncio.get_running_loop().run_in_executor(
                executor, self.ledger.append, snapshot.batch, outcome
            )
        index = snapshot.batch.index
        state = snapshot.state
        frame = self.telemetry.close_epoch(
            index=index,
            batch_events=snapshot.batch.num_events,
            users=len(state),
            latency_seconds=latency,
            outcome=outcome,
            view=state.view,
        )
        if self.tracer.enabled:
            # Mirror the frame into the trace: the measured latencies are
            # volatile, the gauge surface is canonical (a pure function of
            # the seeded outcome) and emitted in its name-sorted order.
            self.tracer.observe("epoch_close_to_outcome_seconds", latency, epoch=index)
            self.tracer.observe(
                "epoch_batch_events", snapshot.batch.num_events, epoch=index
            )
            for name, value in frame["gauges"].items():
                self.tracer.observe(name, value, epoch=index)
        if self.sentinel is not None:
            frame["sentinel"] = {
                "alerts": self.sentinel.close_epoch(
                    index=index,
                    outcome=outcome,
                    participants=state.uids,
                    gauges=frame["gauges"],
                ),
                "status": self.sentinel.status(),
            }
        report.epochs.append(
            EpochResult(
                index=index,
                batch_events=snapshot.batch.num_events,
                users=len(state),
                latency_seconds=latency,
                outcome=outcome,
            )
        )

    def _meta(self) -> Dict[str, object]:
        meta: Dict[str, object] = {
            "seed": self.config.seed,
            "queue_size": self.config.queue_size,
            "epoch_max_events": self.config.epoch_max_events,
            "epoch_max_ticks": self.config.epoch_max_ticks,
            "engine": self.mechanism.engine,
            "rng_policy": self.mechanism.rng_policy,
            "round_budget": self.mechanism.round_budget,
            "job_counts": list(self.job.counts),
        }
        meta.update(self.meta_extra)
        return meta

    # ------------------------------------------------------------------ #
    # Producers and one-shot drivers
    # ------------------------------------------------------------------ #

    async def serve_events(
        self, events: Iterable[ServiceEvent], *, open_loop: bool = False
    ) -> ServiceReport:
        """Feed a finite stream into the frontend beside :meth:`serve`.

        Closed-loop (default) awaits queue space — nothing is dropped.
        Open-loop offers at full speed and lets the frontend reject on
        backpressure, yielding to the event loop every
        :data:`_OPEN_LOOP_YIELD_EVERY` events so the consumer actually
        runs.  The producer closes the frontend after the last event and
        is cancelled if :meth:`serve` ends first.
        """
        frontend = self.frontend

        async def produce() -> None:
            for position, event in enumerate(events):
                if open_loop:
                    frontend.offer(event)
                    if position % _OPEN_LOOP_YIELD_EVERY == 0:
                        await asyncio.sleep(0)
                else:
                    await frontend.put(event)
            await frontend.close()

        producer = asyncio.ensure_future(produce())
        try:
            return await self.serve()
        finally:
            if not producer.done():
                producer.cancel()
            try:
                await producer
            except asyncio.CancelledError:
                pass

    def serve_stream(
        self, events: Iterable[ServiceEvent], *, open_loop: bool = False
    ) -> ServiceReport:
        """Synchronous convenience: :meth:`serve_events` on a fresh loop."""
        return asyncio.run(self.serve_events(events, open_loop=open_loop))

    def replay_check(self, report: ServiceReport) -> List[str]:
        """The online-vs-offline differential of one served run.

        Replays ``report.consumed`` through this service's mechanism (untraced,
        so nothing reaches :attr:`tracer`), seed and epoch policy, and returns
        :func:`~repro.service.replay.differential_check`'s problems.
        """
        replayed = replay_outcomes(
            report.consumed,
            self.job,
            self.mechanism.with_tracer(NULL_TRACER),
            seed=self.config.seed,
            policy=self.config.policy(),
        )
        return differential_check(
            report.outcomes(), [outcome for _, outcome in replayed]
        )
