"""OMG-style truthful online mechanism with stage-released budgets.

Rival #1 from the related work (arXiv:1306.5677, "Crowdsourcing to
Smartphones: Incentive Mechanism Design for Mobile Phone Sensing" —
OMG, the online extension).  The defining ideas reproduced here:

* **online arrival** — a user is considered exactly once, in the epoch
  where the shared pipeline first admits their ask, and the decision is
  irrevocable (``accounting = "incremental"``: epoch outcomes are
  disjoint and sum to the definitive result);
* **stage-released budget** — the total budget ``B`` is released over a
  geometric stage schedule (``B/2^(H-1), B/2^(H-2), …, B``
  *cumulatively* available by stage ``e``), so early arrivals face a
  tight threshold that relaxes as stages pass;
* **posted-price threshold payment** — each arrival is offered the
  current density threshold (available budget spread over the remaining
  tasks); the user wins iff their ask does not exceed it and is paid
  the *threshold*, not their ask.  The offered price never depends on
  the arrival's own bid, which is what makes the rule truthful.

The mechanism is deterministic given the stream (the seed is accepted
for interface parity and unused), so arena reruns are bit-identical.
"""

from __future__ import annotations

import copy
from typing import Dict, Mapping, Optional, Set

from repro.arena.protocol import EpochMechanism
from repro.core.exceptions import ConfigurationError
from repro.core.outcome import MechanismOutcome
from repro.core.rng import SeedLike
from repro.core.types import Ask, Job
from repro.tree.incentive_tree import IncentiveTree

__all__ = ["OMGMechanism"]


class OMGMechanism(EpochMechanism):
    """Online posted-price mechanism with a geometric budget schedule.

    Parameters
    ----------
    budget_per_task:
        Total budget per requested task; ``B = budget_per_task · |J|``.
    stage_horizon:
        ``H`` — number of geometric release stages.  By epoch ``e`` the
        cumulatively available budget is ``B / 2^max(0, H-1-e)``; from
        epoch ``H-1`` on the full budget is available.
    """

    mechanism_id = "omg"
    accounting = "incremental"

    def __init__(self, *, budget_per_task: float = 8.0, stage_horizon: int = 4) -> None:
        if not budget_per_task > 0:
            raise ConfigurationError(
                f"budget_per_task must be > 0, got {budget_per_task}"
            )
        if stage_horizon < 1:
            raise ConfigurationError(f"stage_horizon must be >= 1, got {stage_horizon}")
        self.budget_per_task = float(budget_per_task)
        self.stage_horizon = int(stage_horizon)
        self._budget: Optional[float] = None
        self._spent = 0.0
        self._remaining: Dict[int, int] = {}
        self._seen: Set[int] = set()

    def fresh(self) -> "OMGMechanism":
        clone = copy.copy(self)
        clone._budget = None
        clone._spent = 0.0
        clone._remaining = {}
        clone._seen = set()
        return clone

    def _released_by(self, epoch_index: int, budget: float) -> float:
        """Budget cumulatively available by (and during) ``epoch_index``."""
        return budget / float(2 ** max(0, self.stage_horizon - 1 - epoch_index))

    def run_epoch(
        self,
        job: Job,
        asks: Mapping[int, Ask],
        tree: IncentiveTree,
        seed: SeedLike,
        epoch_index: int,
    ) -> MechanismOutcome:
        if self._budget is None:
            self._budget = self.budget_per_task * job.size
            self._remaining = {t: job.tasks_of(t) for t in job.types()}
        released = self._released_by(epoch_index, self._budget)

        allocation: Dict[int, int] = {}
        payments: Dict[int, float] = {}
        with self.tracer.span(
            "omg.epoch", epoch=epoch_index, released_budget=released
        ):
            # ``asks`` preserves admission order (EpochSnapshot builds it
            # from its columns in row order), which is OMG's arrival order.
            for uid, ask in asks.items():
                if uid in self._seen:
                    continue
                self._seen.add(uid)
                slots = self._remaining.get(ask.task_type, 0)
                if slots <= 0:
                    continue
                remaining_total = sum(self._remaining.values())
                available = max(0.0, released - self._spent)
                price = available / remaining_total
                if price <= 0.0 or ask.value > price:
                    continue
                units = min(ask.capacity, slots)
                allocation[uid] = units
                payments[uid] = units * price
                self._spent += units * price
                self._remaining[ask.task_type] = slots - units
            if allocation:
                self.tracer.count("arena_posted_wins", len(allocation))

        completed = sum(self._remaining.values()) == 0
        return MechanismOutcome(
            allocation=allocation,
            auction_payments=dict(payments),
            payments=payments,
            completed=completed,
            rounds=[],
        )
