"""Epoch batching: close a batch every T events or Δ virtual-time ticks.

Batching is a *pure function of the admitted event stream*: the online
scheduler (:mod:`repro.service.service`) and the offline replay
(:mod:`repro.service.replay`) drive the same :class:`BatchAccumulator`,
so both cut identical epochs from identical streams — wall time never
enters the decision.

Triggers, checked in this order for each arriving event:

1. **tick trigger** — if a non-empty batch is pending and the event's
   tick has advanced ``max_ticks`` or more past the batch's first tick,
   the pending batch closes *before* the event (the event belongs to the
   next epoch, like a cron boundary);
2. **count trigger** — after the event is appended, a batch holding
   ``max_events`` events closes immediately.

An epoch's auction always runs over the *cumulative* state at close, not
just the batch — the batch only decides when auctions fire and which
seed they draw (see ``docs/service.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.columnar import AskProfile
from repro.core.types import Job
from repro.service.events import ServiceEvent
from repro.service.state import ServiceState, StateSnapshot
from repro.tree.incentive_tree import IncentiveTree

__all__ = [
    "EpochPolicy",
    "EpochBatch",
    "BatchAccumulator",
    "EpochSnapshot",
    "EpochPipeline",
    "epoch_seed",
]


@dataclass(frozen=True)
class EpochPolicy:
    """When to close an epoch batch.

    ``max_events`` must be positive; ``max_ticks`` of None disables the
    virtual-time trigger (count-only batching).
    """

    max_events: int = 256
    max_ticks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_events <= 0:
            raise ConfigurationError(
                f"max_events must be positive, got {self.max_events}"
            )
        if self.max_ticks is not None and self.max_ticks <= 0:
            raise ConfigurationError(
                f"max_ticks must be positive when set, got {self.max_ticks}"
            )


@dataclass(frozen=True)
class EpochBatch:
    """Immutable snapshot of one closed batch of admitted events."""

    index: int
    events: Tuple[ServiceEvent, ...]
    first_tick: int
    last_tick: int

    @property
    def num_events(self) -> int:
        return len(self.events)


class BatchAccumulator:
    """Streaming batch cutter shared by the service and the replayer."""

    def __init__(self, policy: EpochPolicy) -> None:
        self.policy = policy
        self._max_events = policy.max_events
        self._pending: List[ServiceEvent] = []
        self._next_index = 0

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def next_index(self) -> int:
        """Index the next closed batch will carry."""
        return self._next_index

    def maybe_close_on_tick(self, tick: int) -> Optional[EpochBatch]:
        """Close the pending batch if ``tick`` crossed the Δ-tick horizon.

        Call this with every arriving event's tick *before* applying the
        event: the closing epoch must not see it.
        """
        if (
            self._pending
            and self.policy.max_ticks is not None
            and tick - self._pending[0].tick >= self.policy.max_ticks
        ):
            return self._close()
        return None

    def append(self, event: ServiceEvent) -> Optional[EpochBatch]:
        """Add an admitted event; returns a batch if the count trigger hit."""
        pending = self._pending
        pending.append(event)
        if len(pending) >= self._max_events:
            return self._close()
        return None

    def flush(self) -> Optional[EpochBatch]:
        """Close whatever is pending (end of stream); None when empty."""
        if self._pending:
            return self._close()
        return None

    def _close(self) -> EpochBatch:
        batch = EpochBatch(
            index=self._next_index,
            events=tuple(self._pending),
            first_tick=self._pending[0].tick,
            last_tick=self._pending[-1].tick,
        )
        self._next_index += 1
        self._pending.clear()
        return batch


def epoch_seed(root_seed: int, epoch_index: int) -> np.random.SeedSequence:
    """The seed of epoch ``epoch_index`` under service root seed ``root_seed``.

    The child ``SeedSequence(root_seed).spawn(epoch_index + 1)[epoch_index]``
    (the same entropy, spawn key and pool size, hence the same draws),
    built directly from its spawn key in O(1) instead of spawning every
    earlier sibling.  The result is a pure function of the two integers
    with no hidden counter: it never depends on how many times any live
    ``SeedSequence`` object has spawned before.  (``SeedSequence``
    children are keyed by ``(entropy, spawn_key)``; spawning from a reused
    object would advance a hidden counter and silently change later
    epochs.)
    """
    if epoch_index < 0:
        raise ConfigurationError(f"epoch_index must be >= 0, got {epoch_index}")
    return np.random.SeedSequence(root_seed, spawn_key=(epoch_index,))


@dataclass(frozen=True, eq=False)
class EpochSnapshot:
    """A closed batch plus the cumulative state *at the instant of close*.

    The auction for an epoch may run arbitrarily later (or concurrently
    with further ingestion); correctness requires the inputs to be frozen
    at close time, which is exactly what this snapshot is: ``state`` holds
    read-only copies of the live columns, their BFS view and :attr:`asks`
    (an :class:`~repro.core.columnar.AskProfile` over those columns with
    its per-type pools, which every run reads).  :attr:`tree` (an
    :class:`~repro.tree.incentive_tree.IncentiveTree`, which offline
    callers walk) is built on first use.
    """

    batch: EpochBatch
    state: StateSnapshot
    #: When the batch closed, before the state was frozen, on the
    #: pipeline's clock (0.0 for a pipeline without one).
    closed_at: float = 0.0

    @property
    def asks(self) -> AskProfile:
        return self.state.asks

    @property
    def tree(self) -> IncentiveTree:
        return self.state.tree


class EpochPipeline:
    """The shared per-event admission/batching step.

    The online service, the offline replayer and the arena feed events
    through one instance of this class, so admission, batching and state
    snapshots are literally the same code path.  Every epoch then runs as
    one ``RIT.run``: the service's over the snapshot's vectorized view,
    the replay's over its walked tree — the differential test checks the
    one against the other.

    Note the order inside :meth:`step`: the tick trigger is evaluated
    against the arriving event *before* the event touches the state, so a
    tick-closed epoch never sees the event that closed it; the count
    trigger fires after admission, so a count-closed epoch always
    includes its final event.  Refused events never join batches but
    their ticks still advance the virtual clock.  One event closes at most
    one epoch: a tick close leaves the batch empty, and under
    ``max_events=1``, the only policy whose count trigger could then close
    it again, no batch is ever pending when the tick trigger runs.
    """

    def __init__(
        self,
        job: Job,
        policy: EpochPolicy,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.job = job
        self.state = ServiceState(job)
        self.accumulator = BatchAccumulator(policy)
        self._by_ticks = policy.max_ticks is not None
        #: Stamps each snapshot's ``closed_at``; the service passes its
        #: tracer's clock, the offline callers none.
        self._clock = clock

    # Instrumented by its sole caller: MechanismService.serve wraps the
    # consumer loop in the 'service' span and counts applied/refused per
    # event; a span per event here would dwarf the payload it measures.
    def step(  # rit: noqa[RIT013]
        self, event: ServiceEvent
    ) -> Tuple[Optional[str], Tuple[EpochSnapshot, ...]]:
        """Process one event; returns (refusal reason or None, snapshots).

        ``snapshots`` holds the epochs the event closed: the empty tuple
        (falsy, and no container is built) for every event that closes
        none.
        """
        snapshots: Tuple[EpochSnapshot, ...] = ()
        accumulator = self.accumulator
        if self._by_ticks:
            closed = accumulator.maybe_close_on_tick(event.tick)
            if closed is not None:
                snapshots = (self._snapshot(closed),)
        refused = self.state.apply(event)
        if refused is None:
            closed = accumulator.append(event)
            if closed is not None:
                snapshots += (self._snapshot(closed),)
        return refused, snapshots

    def snapshots(
        self, events: Iterable[ServiceEvent]
    ) -> Iterator[EpochSnapshot]:
        """Step every event; yield each epoch as it closes, the trailing
        partial batch last.

        Refusals are not reported: the offline callers re-derive them, and
        the service, which counts them, calls :meth:`step` itself.
        """
        for event in events:
            yield from self.step(event)[1]
        tail = self.finish()
        if tail is not None:
            yield tail

    def finish(self) -> Optional[EpochSnapshot]:
        """Flush the trailing partial batch at end of stream."""
        closed = self.accumulator.flush()
        if closed is None:
            return None
        return self._snapshot(closed)

    def status(self) -> Dict[str, int]:
        """Progress snapshot for the ``/readyz`` probe (all plain ints)."""
        return {
            "pending_events": self.accumulator.pending_count,
            "next_epoch": self.accumulator.next_index,
            "participants": self.state.num_participants,
            "pending_referrals": self.state.num_pending_referrals,
        }

    def _snapshot(self, batch: EpochBatch) -> EpochSnapshot:
        closed_at = self._clock() if self._clock is not None else 0.0
        return EpochSnapshot(
            batch=batch, state=self.state.snapshot(), closed_at=closed_at
        )
