"""Repetition runner: execute a mechanism on (re)generated scenarios.

The paper averages every data point over 1000 repetitions with fresh
workloads.  :func:`run_repetitions` reproduces that protocol: for each
repetition it builds a scenario from a factory (fresh population, graph and
tree), runs the mechanism on the truthful ask profile, and extracts the
requested per-run measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.mechanism import Mechanism
from repro.core.outcome import MechanismOutcome
from repro.core.rng import SeedLike, spawn
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.simulation import metrics as metrics_mod
from repro.workloads.scenarios import Scenario

__all__ = ["RunMeasurement", "measure_repetition", "run_repetitions"]

ScenarioFactory = Callable[[np.random.Generator], Scenario]


@dataclass(frozen=True)
class RunMeasurement:
    """Per-repetition measurements of one mechanism run."""

    avg_utility: float
    avg_auction_utility: float
    total_payment: float
    total_auction_payment: float
    running_time: float
    auction_running_time: float
    completed: bool

    @staticmethod
    def from_outcome(
        outcome: MechanismOutcome, costs: Mapping[int, float], num_users: int
    ) -> "RunMeasurement":
        return RunMeasurement(
            avg_utility=metrics_mod.average_utility(outcome, costs, num_users),
            avg_auction_utility=metrics_mod.average_auction_utility(
                outcome, costs, num_users
            ),
            total_payment=metrics_mod.total_payment(outcome),
            total_auction_payment=metrics_mod.total_auction_payment(outcome),
            running_time=metrics_mod.running_time(outcome),
            auction_running_time=metrics_mod.auction_running_time(outcome),
            completed=outcome.completed,
        )


def measure_repetition(
    mechanism: Mechanism,
    scenario_factory: ScenarioFactory,
    scenario_rng: np.random.Generator,
    run_rng: np.random.Generator,
) -> RunMeasurement:
    """One repetition: a fresh scenario, one truthful run, its measurements."""
    scenario = scenario_factory(scenario_rng)
    outcome = mechanism.run(
        scenario.job, scenario.truthful_asks(), scenario.tree, run_rng
    )
    return RunMeasurement.from_outcome(outcome, scenario.costs(), scenario.num_users)


def run_repetitions(
    mechanism: Mechanism,
    scenario_factory: ScenarioFactory,
    *,
    reps: int,
    rng: SeedLike = None,
    tracer: Optional[NullTracer] = None,
) -> List[RunMeasurement]:
    """Run ``reps`` independent repetitions and collect measurements.

    Each repetition receives two independent RNG streams spawned from
    ``rng``: one for scenario generation, one for the mechanism's own coin
    flips — so enlarging ``reps`` never perturbs earlier repetitions.

    ``tracer`` (see :mod:`repro.obs`) owns the top-level ``run`` span and
    is routed into every mechanism run; the default no-op tracer records
    nothing.
    """
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got {reps}")
    tracer = tracer if tracer is not None else NULL_TRACER
    tracing = tracer.enabled
    mech = mechanism.with_tracer(tracer) if tracing else mechanism
    seeds = spawn(rng, 2 * reps)
    measurements: List[RunMeasurement] = []
    with tracer.run_span(kind="repetitions", reps=reps):
        for r in range(reps):
            measurements.append(
                measure_repetition(
                    mech, scenario_factory, seeds[2 * r], seeds[2 * r + 1]
                )
            )
            if tracing:
                tracer.count("reps_completed")
    return measurements
