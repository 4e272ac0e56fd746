"""Parallel repetition runner.

The paper averages every data point over 1000 repetitions; repetitions
are embarrassingly parallel (independent scenarios, independent seeds).
:func:`run_repetitions_parallel` fans them out over a process pool while
preserving :func:`repro.simulation.runner.run_repetitions`' determinism
contract exactly: the same root seed yields the same measurements in the
same order, whatever the worker count.

Implementation notes
--------------------
* Workers are forked (POSIX): scenario factories are typically closures,
  which fork inherits for free; on platforms without ``fork`` the runner
  silently degrades to the serial path.
* Seeds are spawned up front in the parent — repetition ``i`` consumes
  seed pair ``(2i, 2i+1)`` regardless of which worker executes it, which
  is what makes the output independent of scheduling.

Tracing
-------
When a recording :class:`repro.obs.Tracer` is passed, each repetition
runs against its *own* per-worker sink (a fresh in-memory tracer created
inside the worker) and ships its raw events back with the measurement.
The parent absorbs the sinks **in submission-index order** — never pool
completion order — tagging every absorbed event with ``rep`` (the
submission index) and ``w`` (the logical worker slot ``rep % workers``).
Pool pids and completion order are nondeterministic; the tags are not, so
the merged JSONL stream is stable across same-seed runs.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.mechanism import Mechanism
from repro.core.rng import SeedLike, spawn_seeds
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.simulation.runner import RunMeasurement, ScenarioFactory, measure_repetition

__all__ = ["run_repetitions_parallel"]

# Set by _init_worker in each forked child.
_WORK: Dict[str, Any] = {}


def _measure_one(args):
    index, seed_scenario, seed_mechanism = args
    mechanism = _WORK["mechanism"]
    factory = _WORK["factory"]
    sink: Optional[Tracer] = None
    if _WORK.get("traced"):
        # Per-worker sink: owned entirely by this repetition, shipped back
        # as raw events and merged deterministically by the parent.  The
        # sink's own header (seeded by the rep index — the mechanism seed
        # is a SeedSequence) is dropped at absorb time.
        sink = Tracer(
            f"rep-{index}",
            seed=int(index),
            config={"rep": int(index)},
        )
        mechanism = mechanism.with_tracer(sink)
        rep_sid = sink.begin("rep", rep=int(index))
    measurement = measure_repetition(
        mechanism,
        factory,
        np.random.default_rng(seed_scenario),
        np.random.default_rng(seed_mechanism),
    )
    if sink is None:
        return index, measurement, None
    sink.end(rep_sid)
    return index, measurement, sink.events


def _init_worker(mechanism, factory, traced=False):
    _WORK["mechanism"] = mechanism
    _WORK["factory"] = factory
    _WORK["traced"] = traced


def run_repetitions_parallel(
    mechanism: Mechanism,
    scenario_factory: ScenarioFactory,
    *,
    reps: int,
    rng: SeedLike = None,
    workers: Optional[int] = None,
    tracer: Optional[NullTracer] = None,
) -> List[RunMeasurement]:
    """Parallel drop-in for :func:`repro.simulation.runner.run_repetitions`.

    Parameters
    ----------
    workers:
        Process count; defaults to ``min(reps, cpu_count)``.  ``1`` (or an
        unavailable ``fork`` start method) runs serially in-process.
    tracer:
        Observability sink (see :mod:`repro.obs`).  A recording tracer
        receives every repetition's events, merged in submission order and
        tagged with ``rep`` + logical worker id (see the module
        docstring); the default no-op tracer records nothing.
    """
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    tracer = tracer if tracer is not None else NULL_TRACER
    tracing = tracer.enabled
    seeds = spawn_seeds(rng, 2 * reps)
    jobs = [(r, seeds[2 * r], seeds[2 * r + 1]) for r in range(reps)]

    resolved = workers if workers is not None else min(reps, os.cpu_count() or 1)
    use_fork = "fork" in multiprocessing.get_all_start_methods()
    if resolved == 1 or not use_fork:
        _init_worker(mechanism, scenario_factory, tracing)
        try:
            results = [_measure_one(job) for job in jobs]
        finally:
            _WORK.clear()
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(
            processes=resolved,
            initializer=_init_worker,
            initargs=(mechanism, scenario_factory, tracing),
        ) as pool:
            results = pool.map(_measure_one, jobs)
    return _merge(results, tracer, reps=reps, workers=resolved)


def _merge(
    results: List[Tuple[int, RunMeasurement, Optional[list]]],
    tracer: NullTracer,
    *,
    reps: int,
    workers: int,
) -> List[RunMeasurement]:
    """Order results by submission index and absorb per-worker sinks.

    Sorting on the index alone (not the tuple) keeps the merge stable and
    independent of pool completion order; the absorb order *is* the event
    order of the merged stream, so it must be deterministic.
    """
    ordered = sorted(results, key=lambda item: item[0])
    measurements: List[RunMeasurement] = []
    tracing = tracer.enabled
    with tracer.run_span(kind="parallel-repetitions", reps=reps, workers=workers):
        for index, measurement, events in ordered:
            if tracing:
                if events:
                    tracer.absorb(events, rep=index, worker=index % workers)
                    tracer.count("worker_traces_merged")
                tracer.count("reps_completed")
            measurements.append(measurement)
    return measurements
