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

Deque operations, and the two waits.  The bounded queue is an
``asyncio.Queue`` subclass whose deque the frontend reads and writes
directly.  An admission into a queue with room is one ``append``, and a
take from a queue with items one ``popleft``; either wakes the next
parked consumer or producer (the queue's ``_wakeup_next``) only when
one is parked, so an event that does not wait calls no queue method.
Only two calls wait: ``asyncio.Queue.put``, awaited by :meth:`put` when
the queue is full (and by :meth:`close` for the close marker), and
``asyncio.Queue.get``, awaited by :meth:`get` when it is empty.  The
queue stays an ``asyncio.Queue`` so that those waits, their FIFO order
of parked producers and their cancellation handling are asyncio's own,
and so that perfbench times the backpressure wait by wrapping
``asyncio.Queue.put`` (its ``frontend.backpressure`` layer).  A ``put``
cancelled while it waits enqueues nothing and counts its event as
rejected, so ``offered == accepted + invalid + rejected + gated`` holds.

Per admitted event, untraced, :meth:`IngestFrontend.put` reads the
clock, validates, appends the event, then counts the admission, moves
the queue's ``highwater`` mark, appends the two telemetry samples and
reads the clock once more.  With a
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
from collections import deque
from typing import Callable, Deque, Optional

from repro.core.exceptions import ConfigurationError
from repro.core.types import Job
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.service.events import ServiceEvent, validate_event
from repro.service.telemetry import ServiceTelemetry

__all__ = ["IngestFrontend"]

#: Queue sentinel marking end-of-stream (events are dataclasses, never None).
_CLOSE = None


class _EventQueue(asyncio.Queue):
    """The frontend's bounded queue, with its deque exposed as :attr:`items`.

    ``_init`` binds the deque ``asyncio.Queue`` keeps its items in, so the
    frontend appends to it and pops from it without a method call, and
    wakes a parked waiter itself.  The inherited ``put`` and ``get`` are
    the only waits.  The frontend never calls ``task_done``, ``join`` or
    ``shutdown``, so the queue keeps none of their bookkeeping: the
    :meth:`put_nowait` that ends a ``put`` counts no unfinished task (as
    the frontend's own appends count none), ``join`` returns at once and
    ``task_done`` raises ``ValueError``.
    """

    items: Deque[Optional[ServiceEvent]]

    def _init(self, maxsize: int) -> None:
        self._queue = self.items = deque()

    def put_nowait(self, item: Optional[ServiceEvent]) -> None:
        items = self.items
        if len(items) >= self._maxsize:
            raise asyncio.QueueFull
        items.append(item)
        if self._getters:
            self._wakeup_next(self._getters)


class IngestFrontend:
    """Validated, bounded, observable entry point of the service.

    :meth:`offer` and :meth:`put` into a queue with room, and :meth:`get`
    and :meth:`get_nowait` from a queue with items, are deque operations
    on the queue's own deque, plus a hand-written wake-up when a consumer
    or producer is parked.  Only :meth:`put` into a full queue (and
    :meth:`close`) awaits ``asyncio.Queue.put``, and only :meth:`get` from
    an empty one awaits ``asyncio.Queue.get``: the queue stays an
    ``asyncio.Queue`` so that its waits, and perfbench's timing of the
    backpressure wait, are unchanged.
    """

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
        queue = _EventQueue(maxsize)
        self._queue = queue
        #: The queue's deque and its parked consumers and producers.
        self._items = queue.items
        self._getters = queue._getters
        self._putters = queue._putters
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

    def _note_traced(self, depth: int, t_start: float) -> None:
        """An admission's counts and samples under a recording tracer."""
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
        items = self._items
        if len(items) >= self.maxsize:
            self._note_rejected()
            return "backpressure"
        items.append(event)
        if self._getters:
            self._queue._wakeup_next(self._getters)
        # Count the admission, as put does.
        self.accepted += 1
        depth = len(items)
        if self.tracer.enabled:
            self._note_traced(depth, t_start)
            return None
        if depth > self.highwater:
            self.highwater = depth
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.queue_depths.append(depth)
            telemetry.admit_seconds.append(self._clock() - t_start)
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
        items = self._items
        if len(items) < self.maxsize:
            items.append(event)
            if self._getters:
                self._queue._wakeup_next(self._getters)
        else:
            try:
                await self._queue.put(event)
            except asyncio.CancelledError:
                self._note_rejected()
                raise
        # Untraced, this is all an admitted event pays after the append:
        # two counters, two telemetry appends and one clock read.
        self.accepted += 1
        depth = len(items)
        if self.tracer.enabled:
            self._note_traced(depth, t_start)
            return None
        if depth > self.highwater:
            self.highwater = depth
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.queue_depths.append(depth)
            telemetry.admit_seconds.append(self._clock() - t_start)
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
        return len(self._items)

    async def get(self) -> Optional[ServiceEvent]:
        """The next event, waiting for one; None at end of stream.

        The wait is one ``asyncio.Queue.get``, made only when the queue
        is empty.
        """
        if self._ended:
            return None
        if self._items:
            return self.get_nowait()
        event = await self._queue.get()
        if event is _CLOSE:
            self._ended = True
        return event

    def get_nowait(self) -> Optional[ServiceEvent]:
        """The next queued event, or None when the queue is empty or the
        stream has ended (:meth:`get` tells the two apart)."""
        items = self._items
        if not items:
            return None
        event = items.popleft()
        if self._putters:
            self._queue._wakeup_next(self._putters)
        if event is _CLOSE:
            self._ended = True
        return event
