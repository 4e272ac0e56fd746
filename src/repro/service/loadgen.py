"""Seeded §7-A ingestion streams for the mechanism service.

Turns a :class:`repro.workloads.scenarios.Scenario` into an ordered
ingestion stream: referral edges and ask submissions in solicitation
(BFS) order — a parent always solicits before a child joins, exactly how
the incentive tree grows in §4 — followed by an optional seeded cohort of
withdrawals.  Virtual-time ticks advance by seeded integer gaps, so the
epoch scheduler's Δ-tick trigger is exercised deterministically.

:func:`seeded_stream` is one seeded live run's ``(job, events)``;
``rit serve``, the sentinel gate and the arena all call it, so one seed
gives every driver the same bytes.  Perfbench's live workloads split
their seed three ways and interleave their own withdrawals, so they call
:func:`build_scenario` and :func:`scenario_event_stream` themselves.
"""

from __future__ import annotations

from functools import partial
from typing import List, Tuple

from repro.core.exceptions import ConfigurationError
from repro.core.rng import SeedLike, as_generator, spawn_seeds
from repro.core.types import Job
from repro.service.events import AskSubmitted, ReferralEdge, ServiceEvent, Withdrawal
from repro.socialnet.generators import forest_fire, twitter_like, watts_strogatz
from repro.tree.incentive_tree import ROOT
from repro.workloads.scenarios import Scenario, paper_scenario
from repro.workloads.users import UserDistribution

__all__ = [
    "GRAPH_REGIMES",
    "scenario_event_stream",
    "build_scenario",
    "seeded_stream",
]


#: Social-graph regimes a loadgen scenario can grow its tree over
#: (``rit serve --graph``): the twitter-like default plus the
#: small-world and forest-fire generators from
#: :mod:`repro.socialnet.generators`, so attack and bench runs cover
#: more than one solicitation-forest shape.
GRAPH_REGIMES = {
    "twitter": partial(twitter_like, mean_out_degree=12.0),
    "watts-strogatz": watts_strogatz,
    "forest-fire": forest_fire,
}


def scenario_event_stream(
    scenario: Scenario,
    rng: SeedLike = None,
    *,
    withdraw_fraction: float = 0.0,
    max_gap_ticks: int = 2,
) -> List[ServiceEvent]:
    """The scenario's solicitation history as an ordered event stream.

    Ticks start at 0 and advance by a seeded draw from
    ``{0, …, max_gap_ticks}`` before every event.  ``withdraw_fraction``
    of the joined users (seeded choice, without replacement) withdraw
    after the last join — their subtrees are grafted upward by the
    service state machine.
    """
    if not 0.0 <= withdraw_fraction < 1.0:
        raise ConfigurationError(
            f"withdraw_fraction must be in [0, 1), got {withdraw_fraction}"
        )
    if max_gap_ticks < 0:
        raise ConfigurationError(
            f"max_gap_ticks must be >= 0, got {max_gap_ticks}"
        )
    gen = as_generator(rng)
    parents = scenario.tree.to_parent_map()
    events: List[ServiceEvent] = []
    tick = 0

    def advance() -> int:
        nonlocal tick
        tick += int(gen.integers(0, max_gap_ticks + 1))
        return tick

    joined: List[int] = []
    for uid in scenario.tree.bfs_order():
        if uid not in scenario.population:
            continue
        parent = parents.get(uid, ROOT)
        if parent != ROOT:
            events.append(
                ReferralEdge(tick=advance(), parent_id=parent, child_id=uid)
            )
        ask = scenario.population[uid].truthful_ask()
        events.append(
            AskSubmitted(
                tick=advance(),
                user_id=uid,
                task_type=ask.task_type,
                capacity=ask.capacity,
                value=ask.value,
            )
        )
        joined.append(uid)
    num_withdraw = int(withdraw_fraction * len(joined))
    if num_withdraw:
        leavers = gen.choice(len(joined), size=num_withdraw, replace=False)
        for position in leavers.tolist():
            events.append(Withdrawal(tick=advance(), user_id=joined[position]))
    return events


def build_scenario(
    users: int,
    types: int,
    tasks_per_type: int,
    rng: SeedLike = None,
    *,
    graph: str = "twitter",
) -> Scenario:
    """The §7-A scenario at loadgen scale with a right-sized job.

    The user distribution is re-typed to the job's type count — the
    stock §7-A distribution spreads users over 10 types, which would make
    most asks structurally invalid against a smaller job.  ``graph``
    names a :data:`GRAPH_REGIMES` entry; all regimes consume the same
    spawned RNG streams, so switching regimes changes only the
    solicitation forest, never the user profiles.
    """
    builder = GRAPH_REGIMES.get(graph)
    if builder is None:
        raise ConfigurationError(
            f"unknown graph regime {graph!r}; expected one of "
            f"{sorted(GRAPH_REGIMES)}"
        )
    return paper_scenario(
        users,
        Job.uniform(types, tasks_per_type),
        rng,
        distribution=UserDistribution(num_types=types),
        graph_builder=builder,
    )


def seeded_stream(
    seed: int,
    users: int,
    types: int,
    tasks_per_type: int,
    *,
    graph: str,
    withdraw_fraction: float,
) -> Tuple[Job, List[ServiceEvent]]:
    """The job and event stream of one seeded live run.

    ``seed`` spawns two seed sequences: the first grows the
    :func:`build_scenario` scenario, the second draws its
    :func:`scenario_event_stream` ticks and withdrawal cohort.
    """
    scenario_seed, stream_seed = spawn_seeds(seed, 2)
    scenario = build_scenario(
        users, types, tasks_per_type, scenario_seed, graph=graph
    )
    events = scenario_event_stream(
        scenario, stream_seed, withdraw_fraction=withdraw_fraction
    )
    return scenario.job, events
