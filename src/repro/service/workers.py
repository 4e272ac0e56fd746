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

from repro.core.columnar import ColumnarStore
from repro.core.engine import SortedTypePool, StageTimers
from repro.core.outcome import MechanismOutcome, TypeShardResult
from repro.core.rit import RIT, pools_from_arrays, profile_arrays
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
    timers: Optional[StageTimers],
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
    shard_workers: bool = True,
    telemetry: Optional[ServiceTelemetry] = None,
) -> MechanismOutcome:
    """Execute one epoch's auction over a frozen snapshot.

    With ``shard_workers=True`` each task type runs concurrently on the
    executor; otherwise the whole ``RIT.run`` executes as a single
    executor job (useful as a sharding-off baseline — outcomes are
    identical either way because ``rng_policy="per-type"`` decouples the
    per-type streams).
    """
    tracer = mechanism.tracer
    tracing = tracer.enabled
    clock = tracer.clock
    loop = asyncio.get_running_loop()
    epoch_sid = -1
    if tracing:
        epoch_sid = tracer.begin(
            "epoch",
            epoch=snapshot.batch.index,
            batch_events=snapshot.batch.num_events,
            users=len(snapshot.asks),
            first_tick=snapshot.batch.first_tick,
            last_tick=snapshot.batch.last_tick,
        )
        tracer.count("service_epochs_closed")
    try:
        if not shard_workers:
            outcome = await loop.run_in_executor(
                executor,
                functools.partial(
                    mechanism.run, job, snapshot.asks, snapshot.tree, seed
                ),
            )
            return outcome

        t_start = clock()
        asks = snapshot.asks
        gen = as_generator(seed)
        pending: List[
            Tuple[
                int,
                NullTracer,
                Optional[StageTimers],
                "asyncio.Future[Tuple[TypeShardResult, float]]",
            ]
        ] = []
        store: Optional[ColumnarStore] = None
        type_width: Optional[int] = None
        if asks:
            if mechanism.engine == "columnar":
                # The epoch-scoped store is built once (off the event
                # loop) and shared read-only across all type shards; each
                # shard's mutable capacity state lives in its own pool.
                store = await loop.run_in_executor(
                    executor,
                    functools.partial(
                        ColumnarStore.build, job, asks, snapshot.tree
                    ),
                )
                if tracing:
                    tracer.count(
                        "columnar_store_bytes", store.nbytes, unit="bytes"
                    )
                k_max = mechanism.k_max_override or store.k_max
            else:
                uid_arr, type_arr, val_arr, cap_arr = profile_arrays(asks)
                k_max = mechanism.k_max_override or int(cap_arr.max())
                type_width = int(type_arr.max()) + 1
                by_type = pools_from_arrays(
                    uid_arr, type_arr, val_arr, cap_arr
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
                timers = (
                    StageTimers(clock=clock)
                    if mechanism.engine in ("sorted", "columnar")
                    else None
                )
                pool = (
                    store.pool(tau) if store is not None else by_type.get(tau)
                )
                future = loop.run_in_executor(
                    executor,
                    functools.partial(
                        _run_shard,
                        mechanism,
                        tau,
                        m_i,
                        pool,
                        k_max,
                        job.num_types,
                        type_seeds[tau],
                        shard_tracer,
                        timers,
                    ),
                )
                pending.append((tau, shard_tracer, timers, future))

        shards: List[TypeShardResult] = []
        merged_timers = (
            StageTimers(clock=clock)
            if mechanism.engine in ("sorted", "columnar")
            else None
        )
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
            if merged_timers is not None and timers is not None:
                merged_timers.sample += timers.sample
                merged_timers.consensus += timers.consensus
                merged_timers.select += timers.select
                merged_timers.consume += timers.consume
        t_auction = clock()

        join_sid = -1
        if tracing:
            join_sid = tracer.begin("join", epoch=snapshot.batch.index, shards=len(shards))
        try:
            outcome = mechanism.join_shards(
                job,
                asks,
                snapshot.tree,
                shards,
                started_at=t_start,
                auction_ended_at=t_auction,
                timers=merged_timers,
                columnar_store=store,
                type_width=type_width,
            )
        finally:
            if tracing:
                tracer.end(join_sid)
        return outcome
    finally:
        if tracing:
            tracer.end(epoch_sid)
