"""Per-type sharded auction workers and the epoch join stage.

CRA (Algorithm 1) runs independently per task type, so an epoch's auction
phase decomposes into one shard per type.  Each shard executes
:meth:`repro.core.rit.RIT.run_type_shard` on a thread-pool worker with

* its **own spawned RNG stream** — the epoch seed spawns one child
  ``SeedSequence`` per type, exactly as ``RIT.run`` does under
  ``rng_policy="per-type"``, so concurrent shard scheduling cannot
  reorder random draws;
* its **own tracer sink and stage timers** — no shared mutable state
  crosses threads mid-epoch.

The join stage then absorbs shard traces in ascending type order, merges
the shards with :meth:`repro.core.rit.RIT.join_shards` (tree payments,
budget splits, voiding) and yields the epoch's
:class:`~repro.core.outcome.MechanismOutcome`.  The result is
bit-identical to one offline ``RIT.run`` over the same snapshot with the
same seed — the differential harness (:mod:`repro.service.replay`)
enforces this.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

import numpy as np

from repro.core.engine import SortedTypePool, StageTimers, pools_from_arrays
from repro.core.outcome import MechanismOutcome, TypeShardResult
# ``profile_arrays`` stays importable here for perfbench, whose layer
# timing wraps ``repro.service.workers.profile_arrays``; epochs read their
# snapshot's columns instead.
from repro.core.rit import RIT, profile_arrays  # noqa: F401
from repro.core.rng import as_generator, spawn_seeds
from repro.core.types import Job
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.service.epochs import EpochSnapshot
from repro.service.telemetry import ServiceTelemetry

__all__ = ["run_epoch"]


def _run_shard(
    mechanism: RIT,
    tau: int,
    m_i: int,
    pool: Optional[SortedTypePool],
    k_max: int,
    num_types: int,
    seed: np.random.SeedSequence,
    shard_tracer: NullTracer,
    timers: StageTimers,
) -> Tuple[TypeShardResult, float]:
    """Thread-pool body: one type's CRA loop against a private sink.

    Returns the shard result plus its wall time on this worker (measured
    on the tracer's clock).  The duration is *observed* back on the event
    loop when the future is awaited, keeping the telemetry plane
    single-writer.
    """
    shard_mech = mechanism.with_tracer(shard_tracer)
    sid = -1
    t_start = shard_tracer.clock()
    if shard_tracer.enabled:
        sid = shard_tracer.begin("shard", task_type=int(tau), m_i=m_i)
    try:
        result = shard_mech.run_type_shard(
            tau, m_i, pool, k_max, num_types, as_generator(seed), timers=timers
        )
    finally:
        if shard_tracer.enabled:
            shard_tracer.end(sid)
    return result, shard_tracer.clock() - t_start


async def run_epoch(
    mechanism: RIT,
    job: Job,
    snapshot: EpochSnapshot,
    seed: np.random.SeedSequence,
    *,
    executor: ThreadPoolExecutor,
    telemetry: Optional[ServiceTelemetry] = None,
) -> MechanismOutcome:
    """Execute one epoch's auction over a frozen snapshot.

    Each task type runs concurrently on the executor, over a pool built
    from the snapshot's read-only columns; payments read the snapshot's
    BFS view.  Outcomes equal one offline ``RIT.run`` over the snapshot,
    because ``rng_policy="per-type"`` decouples the per-type streams.
    """
    tracer = mechanism.tracer
    tracing = tracer.enabled
    clock = tracer.clock
    loop = asyncio.get_running_loop()
    state = snapshot.state
    epoch_sid = -1
    if tracing:
        epoch_sid = tracer.begin(
            "epoch",
            epoch=snapshot.batch.index,
            batch_events=snapshot.batch.num_events,
            users=len(state),
            first_tick=snapshot.batch.first_tick,
            last_tick=snapshot.batch.last_tick,
        )
        tracer.count("service_epochs_closed")
    try:
        t_start = clock()
        gen = as_generator(seed)
        pending: List[
            Tuple[
                int,
                NullTracer,
                StageTimers,
                "asyncio.Future[Tuple[TypeShardResult, float]]",
            ]
        ] = []
        if len(state):
            k_max = mechanism.k_max_override or int(state.caps.max())
            by_type = pools_from_arrays(
                state.uids, state.types, state.values, state.caps
            )
            type_seeds = spawn_seeds(gen, job.num_types)
            for tau in job.types():
                m_i = job.tasks_of(tau)
                if m_i == 0:
                    continue
                shard_tracer: NullTracer = NULL_TRACER
                if tracing:
                    shard_tracer = Tracer(
                        f"epoch{snapshot.batch.index}-shard{tau}", clock=clock
                    )
                timers = StageTimers(clock=clock)
                future = loop.run_in_executor(
                    executor,
                    functools.partial(
                        _run_shard,
                        mechanism,
                        tau,
                        m_i,
                        by_type.get(tau),
                        k_max,
                        job.num_types,
                        type_seeds[tau],
                        shard_tracer,
                        timers,
                    ),
                )
                pending.append((tau, shard_tracer, timers, future))

        shards: List[TypeShardResult] = []
        merged_timers = StageTimers(clock=clock)
        # Await and absorb in ascending type order: shard *execution* is
        # concurrent, but the merged trace and the shard list are built
        # deterministically regardless of completion order.
        for tau, shard_tracer, timers, future in pending:
            shard_result, shard_seconds = await future
            shards.append(shard_result)
            if telemetry is not None:
                telemetry.observe_shard(shard_seconds)
            if tracing:
                tracer.absorb(
                    shard_tracer.events, rep=snapshot.batch.index, worker=tau
                )
                tracer.count("service_shards_run")
                tracer.observe(
                    "shard_run_seconds", shard_seconds, epoch=snapshot.batch.index
                )
            merged_timers.sample += timers.sample
            merged_timers.consensus += timers.consensus
            merged_timers.select += timers.select
            merged_timers.consume += timers.consume
        t_auction = clock()

        join_sid = -1
        if tracing:
            join_sid = tracer.begin("join", epoch=snapshot.batch.index, shards=len(shards))
        try:
            # Payments read the snapshot's view and BFS-ordered types.
            outcome = mechanism.join_shards(
                job,
                None,
                None,
                shards,
                started_at=t_start,
                auction_ended_at=t_auction,
                timers=merged_timers,
                columns=state,
            )
        finally:
            if tracing:
                tracer.end(join_sid)
        return outcome
    finally:
        if tracing:
            tracer.end(epoch_sid)
