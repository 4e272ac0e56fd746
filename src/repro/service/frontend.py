"""Ingestion frontend: a bounded asyncio queue with explicit backpressure.

Two admission modes, both counted on the tracer and never silent:

* :meth:`IngestFrontend.put` — *closed-loop* producers await until space
  frees up (backpressure propagates to the caller);
* :meth:`IngestFrontend.offer` — *open-loop* producers (the load
  generator) get an immediate verdict: the event is enqueued, or refused
  with a reason (``"invalid: …"`` for structural failures,
  ``"backpressure"`` when the queue is full).  Rejected events are
  dropped *by contract*, with the rejection counter as the audit trail —
  this bounds memory under overload instead of growing the queue without
  limit.

Structural validation (:func:`repro.service.events.validate_event`) runs
at the frontend, before an event can occupy queue space; stateful
admission happens downstream in :class:`repro.service.state.ServiceState`.

The one backpressure wait.  :meth:`IngestFrontend.put` enqueues with
``asyncio.Queue.put_nowait`` while the queue has room and awaits
``asyncio.Queue.put`` only when it is full, so a wait on
``asyncio.Queue.put`` is the only time a producer waits for space
(:meth:`IngestFrontend.close` makes the same call for the close marker).
perfbench times that call as ``frontend.backpressure``.  A ``put``
cancelled while it waits enqueues nothing and counts its event as
rejected, so ``offered == accepted + invalid + rejected + gated`` holds.

Per admitted event, untraced, :meth:`IngestFrontend.put` reads the
clock, validates, enqueues, then counts the admission, moves the
queue's ``highwater`` mark, appends the two telemetry samples and reads
the clock once more.  With a
:class:`~repro.service.telemetry.ServiceTelemetry` plane attached, those
samples are the admission latency (``ingest_admit_seconds``, on the
tracer's clock) and the queue occupancy (``ingest_queue_depth``), kept
in the plane's two buffers until
:meth:`~repro.service.telemetry.ServiceTelemetry.fold_ingest` folds them
into the histograms in bulk; a recording tracer also mirrors both as
volatile ``distribution`` events at admission.

The consumer takes events with :meth:`IngestFrontend.get`, which waits
for one, and :meth:`IngestFrontend.get_nowait`, which does not; both
return None once the close sentinel has been taken.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from repro.core.exceptions import ConfigurationError
from repro.core.types import Job
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.service.events import ServiceEvent, validate_event
from repro.service.telemetry import ServiceTelemetry

__all__ = ["IngestFrontend"]

#: Queue sentinel marking end-of-stream (events are dataclasses, never None).
_CLOSE = None


class IngestFrontend:
    """Validated, bounded, observable entry point of the service."""

    def __init__(
        self,
        job: Job,
        *,
        maxsize: int = 1024,
        tracer: Optional[NullTracer] = None,
        telemetry: Optional[ServiceTelemetry] = None,
        gatekeeper: Optional[Callable[[ServiceEvent], Optional[str]]] = None,
    ) -> None:
        if maxsize <= 0:
            raise ConfigurationError(f"queue maxsize must be positive, got {maxsize}")
        self.job = job
        self.maxsize = maxsize
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.telemetry = telemetry
        #: Optional admission policy (e.g. the sentinel reputation gate):
        #: a callable returning a refusal reason, or None to admit.  Runs
        #: *before* the queue, so gated events never join the consumed
        #: stream and replay differentials stay valid by construction.
        self.gatekeeper = gatekeeper
        self._queue: "asyncio.Queue[Optional[ServiceEvent]]" = asyncio.Queue(maxsize)
        self._clock = self.tracer.clock
        self.offered = 0
        self.accepted = 0
        self.invalid = 0
        self.rejected = 0
        self.gated = 0
        self.highwater = 0
        self._closed = False
        #: The close sentinel has been taken off the queue.
        self._ended = False

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #

    def _admit(self, event: ServiceEvent) -> Optional[str]:
        # A closed frontend refuses before counting: an event it is no
        # longer offered cannot break offered == accepted + invalid +
        # rejected + gated.
        if self._closed:
            return "closed"
        self.offered += 1
        tracing = self.tracer.enabled
        if tracing:
            self.tracer.count("service_events_offered")
        reason = validate_event(event, self.job)
        if reason is not None:
            self.invalid += 1
            if tracing:
                self.tracer.count("service_events_invalid")
            return f"invalid: {reason}"
        if self.gatekeeper is not None:
            reason = self.gatekeeper(event)
            if reason is not None:
                self.gated += 1
                if tracing:
                    self.tracer.count("service_events_gated")
                return f"gated: {reason}"
        return None

    def _note_enqueued(self, t_start: float) -> None:
        """Count one admission and record its queue depth and latency.

        ``t_start`` is the tracer-clock reading taken when the admission
        began.  Untraced, this is all an admitted event pays here: the two
        counters, the two telemetry appends and one clock read.
        """
        self.accepted += 1
        depth = self._queue.qsize()
        if self.tracer.enabled:
            self._note_traced(depth, t_start)
            return
        if depth > self.highwater:
            self.highwater = depth
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.queue_depths.append(depth)
            telemetry.admit_seconds.append(self._clock() - t_start)

    def _note_traced(self, depth: int, t_start: float) -> None:
        """:meth:`_note_enqueued` under a recording tracer."""
        tracer = self.tracer
        if depth > self.highwater:
            tracer.count("service_queue_highwater", depth - self.highwater)
            self.highwater = depth
        tracer.count("service_events_accepted")
        tracer.observe("ingest_queue_depth", depth)
        seconds = tracer.clock() - t_start
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.queue_depths.append(depth)
            telemetry.admit_seconds.append(seconds)
        tracer.observe("ingest_admit_seconds", seconds)

    def offer(self, event: ServiceEvent) -> Optional[str]:
        """Non-blocking admission; returns None or a refusal reason."""
        t_start = self._clock()
        reason = self._admit(event)
        if reason is not None:
            return reason
        try:
            self._queue.put_nowait(event)
        except asyncio.QueueFull:
            self._note_rejected()
            return "backpressure"
        self._note_enqueued(t_start)
        return None

    async def put(self, event: ServiceEvent) -> Optional[str]:
        """Blocking admission: waits for queue space instead of rejecting.

        Still refuses structurally invalid events immediately (waiting
        would not make them valid).  The admission latency observed here
        includes the backpressure wait — that *is* the closed-loop
        producer's experienced latency.  The wait is one
        ``asyncio.Queue.put``, made only when the queue is full; a put
        cancelled there counts its event as rejected.
        """
        t_start = self._clock()
        reason = self._admit(event)
        if reason is not None:
            return reason
        queue = self._queue
        try:
            queue.put_nowait(event)
        except asyncio.QueueFull:
            try:
                await queue.put(event)
            except asyncio.CancelledError:
                self._note_rejected()
                raise
        self._note_enqueued(t_start)
        return None

    def _note_rejected(self) -> None:
        """Count one admitted event that never joined the full queue."""
        self.rejected += 1
        if self.tracer.enabled:
            self.tracer.count("service_events_rejected")

    async def close(self) -> None:
        """Signal end-of-stream; the consumer drains then stops."""
        self._closed = True
        await self._queue.put(_CLOSE)

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #

    @property
    def depth(self) -> int:
        """Current queue occupancy (events awaiting the scheduler)."""
        return self._queue.qsize()

    async def get(self) -> Optional[ServiceEvent]:
        """The next event, waiting for one; None at end of stream."""
        if self._ended:
            return None
        event = await self._queue.get()
        if event is _CLOSE:
            self._ended = True
        return event

    def get_nowait(self) -> Optional[ServiceEvent]:
        """The next queued event, or None when the queue is empty or the
        stream has ended (:meth:`get` tells the two apart)."""
        try:
            event = self._queue.get_nowait()
        except asyncio.QueueEmpty:
            return None
        if event is _CLOSE:
            self._ended = True
        return event
