"""Offline replay and the service's differential correctness anchor.

:func:`replay_outcomes` re-executes an admitted event stream *offline*:
the same :class:`~repro.service.epochs.EpochPipeline` cuts the same
epochs, and each epoch is one plain ``RIT.run`` over the cumulative
snapshot with the same ``epoch_seed`` — no queues, no thread pool, no
event loop.  The service runs each epoch as the same ``RIT.run``, so the
online outcomes must equal the offline ones **bit for bit** under either
RNG policy: payments, winners, round diagnostics, and the underlying RNG
draws.  The replay runs over each snapshot's profile and tree forms,
whose tree walks itself (:meth:`~repro.tree.incentive_tree.BFSView.walk`),
while the service runs over the snapshot's vectorized view — so every
replayed epoch also checks that view against the walk.

:func:`differential_check` is that assertion as a tool: it compares two
epoch-outcome sequences via :func:`repro.service.ledger
.canonical_outcome` and returns human-readable mismatches (empty list ⇒
identical).  ``rit serve --smoke`` and ``make serve-smoke`` gate on it.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.core.exceptions import ConfigurationError
from repro.core.outcome import MechanismOutcome
from repro.core.rit import RIT
from repro.core.types import Job
from repro.service.epochs import EpochBatch, EpochPipeline, EpochPolicy, epoch_seed
from repro.service.events import ServiceEvent
from repro.service.ledger import canonical_outcome

__all__ = ["replay_outcomes", "differential_check"]


def replay_outcomes(
    events: Iterable[ServiceEvent],
    job: Job,
    mechanism: RIT,
    *,
    seed: int,
    policy: EpochPolicy,
) -> List[Tuple[EpochBatch, MechanismOutcome]]:
    """Offline epoch outcomes for an admitted event stream.

    ``events`` must be the stream the service actually *consumed* (post
    backpressure, pre state-admission — refusals are re-derived here by
    the shared state machine).  The mechanism must not raise on voided
    epochs, since early epochs legitimately void while supply builds up.
    """
    if mechanism.raise_on_failure:
        raise ConfigurationError(
            "offline replay requires raise_on_failure=False: epochs before "
            "supply builds up void legitimately"
        )
    return [
        (
            snapshot.batch,
            mechanism.run(
                job,
                snapshot.asks,
                snapshot.tree,
                epoch_seed(seed, snapshot.batch.index),
            ),
        )
        for snapshot in EpochPipeline(job, policy).snapshots(events)
    ]


def differential_check(
    served: Sequence[MechanismOutcome],
    replayed: Sequence[MechanismOutcome],
) -> List[str]:
    """Mismatches between served and replayed epoch outcomes (empty = ok).

    Comparison is over :func:`canonical_outcome` — the reproducible
    projection — so measured timings cannot mask or fake a difference.
    """
    problems: List[str] = []
    if len(served) != len(replayed):
        problems.append(
            f"epoch count differs: served {len(served)} vs replayed "
            f"{len(replayed)}"
        )
    for index, (left, right) in enumerate(zip(served, replayed)):
        got = canonical_outcome(left)
        want = canonical_outcome(right)
        if got == want:
            continue
        for key in want:
            if got.get(key) != want.get(key):
                problems.append(
                    f"epoch {index}: field {key!r} differs between the "
                    "served and replayed outcome"
                )
    return problems
