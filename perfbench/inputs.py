"""Workload presets and seeded input generation for the benchmark.

Everything here runs *before* any timing: the benchmark turns ``--seed``
into the program's inputs (an event stream, or an offline ask profile),
drops the generator's intermediate objects (social graph, population),
and hands the program only the generated inputs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.rng import spawn_seeds
from repro.core.types import Ask, Job
from repro.service.events import AskSubmitted, ReferralEdge, ServiceEvent, Withdrawal
from repro.service.loadgen import build_scenario, scenario_event_stream
from repro.tree.incentive_tree import IncentiveTree
from repro.workloads.scenarios import paper_scenario
from repro.workloads.users import UserDistribution

__all__ = [
    "LivePreset",
    "OfflinePreset",
    "LiveInputs",
    "OfflineInputs",
    "PRESETS",
    "TOY_PRESETS",
    "preset_for",
    "units_for",
    "make_inputs",
]


@dataclass(frozen=True)
class LivePreset:
    """One live workload: a loadgen scenario served by ``MechanismService``.

    ``rate`` is the offered events/s of the paced open loop (None for the
    closed loop); ``unit_seconds`` is the nominal length of one pass over
    the stream, which turns ``--seconds`` into a fixed pass count.
    """

    name: str
    users: int
    types: int
    tasks_per_type: int
    epoch_events: int
    withdraw_fraction: float
    sentinel: bool
    rate: Optional[float]
    burst_seconds: float
    unit_seconds: float
    #: ``setup_s`` is the median of this many set-ups per run.
    setup_samples: int = 9
    queue_size: int = 1024


@dataclass(frozen=True)
class OfflinePreset:
    """The offline workload: repeated ``RIT.run`` over one §7-A profile."""

    name: str
    users: int
    types: int
    tasks_per_type: int
    unit_seconds: float
    setup_samples: int = 5


PRESETS: Dict[str, object] = {
    # At 2,000 events/s the last epoch (6k users) keeps the service busy for
    # about a third of the time it takes to fill, so the latency tail measures
    # service time, not a backlog; a pass takes 6 s, so a 25 s run has four
    # passes to take each epoch's median over.
    "live-paced": LivePreset(
        name="live-paced", users=6000, types=4, tasks_per_type=50,
        epoch_events=192, withdraw_fraction=0.0, sentinel=False,
        rate=2000.0, burst_seconds=0.010, unit_seconds=6.0, setup_samples=15,
    ),
    "live-churn": LivePreset(
        name="live-churn", users=20000, types=4, tasks_per_type=50,
        epoch_events=4096, withdraw_fraction=0.25, sentinel=True,
        rate=None, burst_seconds=0.0, unit_seconds=4.7,
    ),
    "offline-100k": OfflinePreset(
        name="offline-100k", users=100_000, types=10, tasks_per_type=100,
        unit_seconds=0.55,
    ),
}

#: Same shapes at toy scale: every workload finishes in a few seconds.
TOY_PRESETS: Dict[str, object] = {
    "live-paced": LivePreset(
        name="toy:live-paced", users=400, types=4, tasks_per_type=10,
        epoch_events=48, withdraw_fraction=0.0, sentinel=False,
        rate=800.0, burst_seconds=0.010, unit_seconds=1.0,
    ),
    "live-churn": LivePreset(
        name="toy:live-churn", users=800, types=4, tasks_per_type=10,
        epoch_events=256, withdraw_fraction=0.25, sentinel=True,
        rate=None, burst_seconds=0.0, unit_seconds=0.5, queue_size=128,
    ),
    "offline-100k": OfflinePreset(
        name="toy:offline-100k", users=3000, types=10, tasks_per_type=20,
        unit_seconds=0.05,
    ),
}


def preset_for(workload: str, toy: bool = False):
    table = TOY_PRESETS if toy else PRESETS
    if workload not in table:
        raise KeyError(f"unknown workload {workload!r}; expected one of {sorted(table)}")
    return table[workload]


def units_for(preset, seconds: float) -> int:
    """Fixed amount of work for a run of ``seconds``: passes or RIT runs.

    The count depends only on ``--seconds``, never on how fast the
    machine is, so every run of a workload draws the same number of
    latency samples and hashes the same outputs.
    """
    return max(1, int(round(seconds / preset.unit_seconds)))


@dataclass
class LiveInputs:
    job: Job
    events: List[ServiceEvent]
    #: Stream position of each event object (``id(event)`` → index).
    position: Dict[int, int]
    expected_epochs: int
    generation_seconds: float


@dataclass
class OfflineInputs:
    job: Job
    asks: Dict[int, Ask]
    tree: IncentiveTree
    seed: int
    generation_seconds: float

    def run_seed(self, run: int) -> np.random.SeedSequence:
        """Seed of the ``run``-th timed ``RIT.run`` (distinct per run)."""
        return np.random.SeedSequence([self.seed, 1, run])

    def warmup_seed(self) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.seed, 2])


def interleave_withdrawals(
    events: Sequence[ServiceEvent], fraction: float, rng: np.random.Generator
) -> List[ServiceEvent]:
    """Insert withdrawals of ``fraction`` of the joined users into a stream.

    Each withdrawal lands at a seeded position after the leaver's ask and
    after their last outgoing referral, so the state machine never refuses
    it (or any later event): every referral the leaver makes precedes the
    withdrawal, and referrals still pending are grafted upward.
    """
    earliest: Dict[int, int] = {}
    joined: List[int] = []
    for index, event in enumerate(events):
        if isinstance(event, AskSubmitted):
            earliest[event.user_id] = index + 1
            joined.append(event.user_id)
        elif isinstance(event, ReferralEdge) and event.parent_id in earliest:
            earliest[event.parent_id] = index + 1
    count = int(fraction * len(joined))
    leavers = rng.choice(len(joined), size=count, replace=False).tolist()
    placed: List[Tuple[int, int, int]] = []
    for order, slot in enumerate(leavers):
        uid = joined[slot]
        at = int(rng.integers(earliest[uid], len(events) + 1))
        placed.append((at, order, uid))
    placed.sort()
    merged: List[ServiceEvent] = []
    cursor = 0
    for at, _, uid in placed:
        merged.extend(events[cursor:at])
        cursor = at
        merged.append(Withdrawal(tick=events[at - 1].tick, user_id=uid))
    merged.extend(events[cursor:])
    return merged


def make_inputs(preset, seed: int):
    """The workload's inputs for ``seed`` (pure function of both)."""
    t_start = time.perf_counter()
    if isinstance(preset, OfflinePreset):
        job = Job.uniform(preset.types, preset.tasks_per_type)
        scenario = paper_scenario(
            preset.users,
            job,
            seed,
            distribution=UserDistribution(num_types=preset.types),
        )
        asks = scenario.truthful_asks()
        tree = scenario.tree
        del scenario  # the graph and population stay out of the timed heap
        return OfflineInputs(
            job, asks, tree, seed, time.perf_counter() - t_start
        )
    scenario_seed, stream_seed, churn_seed = spawn_seeds(seed, 3)
    scenario = build_scenario(
        preset.users, preset.types, preset.tasks_per_type, scenario_seed
    )
    job = scenario.job
    events = scenario_event_stream(scenario, stream_seed)
    del scenario
    if preset.withdraw_fraction:
        events = interleave_withdrawals(
            events, preset.withdraw_fraction, np.random.default_rng(churn_seed)
        )
    position = {id(event): index for index, event in enumerate(events)}
    return LiveInputs(
        job=job,
        events=events,
        position=position,
        expected_epochs=math.ceil(len(events) / preset.epoch_events),
        generation_seconds=time.perf_counter() - t_start,
    )
