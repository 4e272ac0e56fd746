"""The epoch runner: one offline ``RIT.run`` per epoch, on a worker thread.

An epoch is Algorithm 3 over the snapshot taken at its close: one
auction phase (a CRA round loop per task type) and one payment phase.
:func:`run_epoch` executes it as exactly one :meth:`repro.core.rit.RIT.run`
over the snapshot's :class:`~repro.core.columnar.AskProfile` and its
vectorized :class:`~repro.tree.incentive_tree.BFSView`, with the epoch's
seed, so the served outcome equals the offline run by construction,
under either RNG policy.

The snapshot's profile and per-type pools were built on the event loop
when the epoch closed.  The run and then the epoch's ledger append go to
the executor as one call, so the loop keeps admitting events while they
execute and wakes once per epoch, after the record is written.  With
tracing on, the run emits into a private tracer whose events the loop
absorbs under the ``epoch`` span once the call returns — no tracer is
shared across threads mid-epoch.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import Executor
from typing import Optional

import numpy as np

# ``profile_arrays`` and ``pools_from_arrays`` stay importable here for
# perfbench, whose layer timing wraps them under this module's name;
# epochs build their pools through the snapshot's ``AskProfile``.
from repro.core.engine import pools_from_arrays  # noqa: F401
from repro.core.outcome import MechanismOutcome
from repro.core.rit import RIT, profile_arrays  # noqa: F401
from repro.core.types import Job
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.service.epochs import EpochSnapshot
from repro.service.ledger import OutcomeLedger

__all__ = ["run_epoch"]


async def run_epoch(
    mechanism: RIT,
    job: Job,
    snapshot: EpochSnapshot,
    seed: np.random.SeedSequence,
    *,
    executor: Executor,
    ledger: Optional[OutcomeLedger] = None,
) -> MechanismOutcome:
    """Execute one epoch: ``RIT.run`` over the snapshot, then the append of
    its record to ``ledger`` (when given), in one call on ``executor``.

    The result equals ``mechanism.run(job, snapshot.asks, snapshot.tree,
    seed)`` bit for bit; the run reads the snapshot's view in place of a
    tree walk (:mod:`repro.service.replay` checks the two against each
    other).
    """
    tracer = mechanism.tracer
    tracing = tracer.enabled
    batch = snapshot.batch
    epoch_sid = -1
    if tracing:
        epoch_sid = tracer.begin(
            "epoch",
            epoch=batch.index,
            batch_events=batch.num_events,
            users=len(snapshot.state),
            first_tick=batch.first_tick,
            last_tick=batch.last_tick,
        )
        tracer.count("service_epochs_closed")
    try:
        run_tracer: NullTracer = NULL_TRACER
        if tracing:
            run_tracer = Tracer(f"epoch{batch.index}", clock=tracer.clock)
        outcome = await asyncio.get_running_loop().run_in_executor(
            executor,
            functools.partial(
                _run_and_append,
                mechanism.with_tracer(run_tracer),
                job,
                snapshot,
                seed,
                ledger,
            ),
        )
        if tracing:
            tracer.absorb(run_tracer.events, rep=batch.index, worker=0)
        return outcome
    finally:
        if tracing:
            tracer.end(epoch_sid)


def _run_and_append(
    mechanism: RIT,
    job: Job,
    snapshot: EpochSnapshot,
    seed: np.random.SeedSequence,
    ledger: Optional[OutcomeLedger],
) -> MechanismOutcome:
    """The worker's share of an epoch: the run, then its ledger record."""
    outcome = mechanism.run(job, snapshot.asks, snapshot.state.view, seed)
    if ledger is not None:
        ledger.append(snapshot.batch, outcome)
    return outcome
