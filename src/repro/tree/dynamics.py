"""Discrete-event solicitation dynamics.

The spanning-forest builder captures *who* recruits whom; this module
captures *when*.  The paper's motivating stories are temporal — the MIT
team "recruited nearly 4,400 participants within nine hours" — and a
platform choosing the threshold ``N`` (Remark 6.1) wants to know how long
solicitation will take, not just where it converges.

:func:`simulate_solicitation` runs an event-driven cascade over a social
graph:

* at ``t = 0`` the seed users join (children of the platform);
* a joined user invites each of its not-yet-invited out-neighbors after
  an i.i.d. exponential *reaction delay*;
* an invited user accepts with probability ``accept_prob`` (the first
  accepted invitation fixes its parent — earliest-inviter, the temporal
  generalization of the paper's smallest-index tie-break); declined
  invitations are gone, but other inviters may still reach the user;
* the cascade stops at the threshold ``N``, at a capacity-based stop
  condition (Remark 6.1), at the time horizon, or when no events remain.

The result bundles the incentive tree, per-user join times, and the
recruitment curve — ready for the Fig. 6-9 harness or the recruitment
experiment in :mod:`repro.simulation.extensions`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.rng import SeedLike, as_generator
from repro.socialnet.graph import SocialGraph
from repro.tree.incentive_tree import ROOT, IncentiveTree

__all__ = ["SolicitationResult", "simulate_solicitation"]

StopCondition = Callable[[IncentiveTree, int], bool]


@dataclass(frozen=True)
class SolicitationResult:
    """Outcome of one solicitation cascade.

    Attributes
    ----------
    tree:
        The resulting incentive tree.
    join_times:
        ``{user_id: time}`` for every joined user (seeds at 0.0).
    end_time:
        When the cascade stopped (the last join, or the horizon).
    stopped_by:
        ``"threshold" | "condition" | "horizon" | "exhausted"``.
    """

    tree: IncentiveTree
    join_times: Dict[int, float]
    end_time: float
    stopped_by: str

    @property
    def num_joined(self) -> int:
        return len(self.join_times)

    def recruitment_curve(self, num_points: int = 20) -> List[Tuple[float, int]]:
        """``(time, cumulative joins)`` samples along the cascade."""
        if num_points < 2:
            raise ConfigurationError(f"need >= 2 points, got {num_points}")
        if not self.join_times:
            return [(0.0, 0)] * num_points
        times = sorted(self.join_times.values())
        horizon = max(self.end_time, times[-1], 1e-12)
        curve = []
        for i in range(num_points):
            t = horizon * i / (num_points - 1)
            joined = sum(1 for jt in times if jt <= t)
            curve.append((t, joined))
        return curve

    def time_to_reach(self, count: int) -> Optional[float]:
        """When the ``count``-th user joined (None if never reached)."""
        if count <= 0:
            return 0.0
        times = sorted(self.join_times.values())
        if len(times) < count:
            return None
        return times[count - 1]


def simulate_solicitation(
    graph: SocialGraph,
    *,
    seeds: Optional[Sequence[int]] = None,
    accept_prob: float = 0.7,
    mean_delay: float = 1.0,
    limit: Optional[int] = None,
    horizon: Optional[float] = None,
    stop_condition: Optional[StopCondition] = None,
    rng: SeedLike = None,
) -> SolicitationResult:
    """Run one event-driven solicitation cascade.

    Parameters
    ----------
    graph:
        Edge ``u → v`` lets a joined ``u`` invite ``v``.
    seeds:
        Users joining at time 0 (default: in-degree-zero nodes, or node 0).
    accept_prob:
        Probability an invitation is accepted.
    mean_delay:
        Mean of the exponential reaction delay between joining and each
        outgoing invitation landing.
    limit:
        Threshold ``N``: stop at this many joins.
    horizon:
        Wall-clock cap; pending invitations past it are dropped.
    stop_condition:
        Predicate ``f(tree, joined_id) -> bool`` checked after each join
        (the Remark 6.1 capacity rule plugs in here).
    """
    if not 0.0 < accept_prob <= 1.0:
        raise ConfigurationError(f"accept_prob must be in (0,1], got {accept_prob}")
    if mean_delay <= 0:
        raise ConfigurationError(f"mean_delay must be > 0, got {mean_delay}")
    if limit is not None and limit < 0:
        raise ConfigurationError(f"limit must be >= 0, got {limit}")
    if horizon is not None and horizon < 0:
        raise ConfigurationError(f"horizon must be >= 0, got {horizon}")
    gen = as_generator(rng)
    n = graph.num_nodes

    tree = IncentiveTree()
    join_times: Dict[int, float] = {}
    if n == 0 or (limit is not None and limit == 0):
        return SolicitationResult(tree, join_times, 0.0, "threshold")

    if seeds is None:
        seeds = np.flatnonzero(graph.in_degrees() == 0).tolist() or [0]
    else:
        seeds = list(dict.fromkeys(seeds))
        for s in seeds:
            if not 0 <= s < n:
                raise ConfigurationError(f"seed {s} out of range 0..{n - 1}")

    # Event queue: (time, sequence, inviter, invitee).  The sequence
    # breaks ties deterministically in insertion order.
    events: List[Tuple[float, int, int, int]] = []
    counter = 0
    dropped_at_horizon = False
    now = 0.0

    def schedule_invitations(inviter: int, at: float) -> None:
        nonlocal counter, dropped_at_horizon
        for invitee in graph.successors(inviter):
            if invitee in join_times:
                continue
            delay = float(gen.exponential(mean_delay))
            t = at + delay
            if horizon is not None and t > horizon:
                dropped_at_horizon = True
                continue
            heapq.heappush(events, (t, counter, inviter, invitee))
            counter += 1

    def join(node: int, parent: int, at: float) -> Optional[str]:
        tree.attach(node, parent)
        join_times[node] = at
        if limit is not None and len(tree) >= limit:
            return "threshold"
        if stop_condition is not None and stop_condition(tree, node):
            return "condition"
        schedule_invitations(node, at)
        return None

    for seed_node in sorted(seeds):
        if seed_node in join_times:
            continue
        stop = join(seed_node, ROOT, 0.0)
        if stop:
            return SolicitationResult(tree, join_times, 0.0, stop)

    while events:
        t, _, inviter, invitee = heapq.heappop(events)
        now = t
        if invitee in join_times:
            continue
        if gen.random() >= accept_prob:
            continue  # declined; other inviters may still land later
        stop = join(invitee, inviter, t)
        if stop:
            return SolicitationResult(tree, join_times, now, stop)

    if dropped_at_horizon:
        # The cascade would have continued; the horizon cut it off.
        return SolicitationResult(tree, join_times, horizon, "horizon")
    return SolicitationResult(tree, join_times, now, "exhausted")
