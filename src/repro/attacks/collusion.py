"""Coalitions and ``d``-truthfulness (paper §3-C).

RIT's central guarantee is *(K_max, H)-truthfulness*: no coalition of at
most ``K_max`` unit asks — in particular, the identities of one sybil
attacker — can increase its total utility except with probability at most
``1 − H``.  The definition, however, covers coalitions of *distinct*
users as well, and CRA's consensus construction is what resists them.

This module makes coalitions first-class:

* :class:`Coalition` — a set of users with coordinated ask deviations;
* :func:`apply_coalition` — rewrite an ask profile under the plan;
* :func:`compare_coalition` — paired-coin comparison of the coalition's
  total utility, honest vs deviant (the empirical ``d``-truthfulness
  probe);
* :func:`random_price_cartel` — the canonical attack shape: same-type
  users jointly overbidding to drag the clearing price up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.attacks.evaluator import AttackComparison, compare_profiles
from repro.core.exceptions import AttackError
from repro.core.mechanism import Mechanism
from repro.core.outcome import MechanismOutcome
from repro.core.rng import SeedLike, as_generator
from repro.core.types import Ask, Job
from repro.tree.incentive_tree import IncentiveTree

__all__ = [
    "Coalition",
    "apply_coalition",
    "compare_coalition",
    "random_price_cartel",
]


@dataclass(frozen=True)
class Coalition:
    """A coordinated deviation by a set of distinct users.

    Attributes
    ----------
    members:
        User ids in the coalition.
    value_overrides:
        ``{user_id: deviant ask value}``; members absent from the mapping
        keep their honest ask (they participate only by sharing utility).
    """

    members: Tuple[int, ...]
    value_overrides: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.members:
            raise AttackError("a coalition needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise AttackError("coalition members must be distinct")
        unknown = set(self.value_overrides) - set(self.members)
        if unknown:
            raise AttackError(
                f"overrides for non-members: {sorted(unknown)[:5]}"
            )
        for uid, value in self.value_overrides.items():
            if not value > 0:
                raise AttackError(f"bad override value {value} for user {uid}")

    @property
    def size(self) -> int:
        """``d`` — the coalition size."""
        return len(self.members)

    def unit_weight(self, asks: Mapping[int, Ask]) -> int:
        """Total unit asks the coalition controls (the Lemma 6.2 ``k``)."""
        return sum(asks[uid].capacity for uid in self.members if uid in asks)


def apply_coalition(
    coalition: Coalition, asks: Mapping[int, Ask]
) -> Dict[int, Ask]:
    """Ask profile with the coalition's deviations applied."""
    for uid in coalition.members:
        if uid not in asks:
            raise AttackError(f"coalition member {uid} has no ask")
    out = dict(asks)
    for uid, value in coalition.value_overrides.items():
        out[uid] = out[uid].with_value(value)
    return out


def compare_coalition(
    mechanism: Mechanism,
    job: Job,
    asks: Mapping[int, Ask],
    tree: IncentiveTree,
    coalition: Coalition,
    costs: Mapping[int, float],
    *,
    reps: int = 10,
    rng: SeedLike = None,
) -> AttackComparison:
    """Paired-coin comparison of the coalition's total utility.

    The honest profile must already be truthful for the members; the
    deviant profile applies the coalition's overrides.  Both scenarios
    replay the same coin streams (:func:`~repro.attacks.evaluator
    .compare_profiles`; value-only deviations keep the unit-ask vector
    length, so CRA draws align exactly).  The comparison's utilities are
    the members' totals.
    """
    deviant_asks = apply_coalition(coalition, asks)

    def total(out: MechanismOutcome) -> float:
        return sum(out.utility_of(uid, costs[uid]) for uid in coalition.members)

    return compare_profiles(
        mechanism, job, (asks, tree), (deviant_asks, tree), total, total,
        reps=reps, rng=rng,
    )


def random_price_cartel(
    asks: Mapping[int, Ask],
    task_type: int,
    size: int,
    *,
    markup: float = 1.5,
    rng: SeedLike = None,
) -> Coalition:
    """A random same-type cartel that jointly marks its asks up.

    Picks ``size`` users bidding for ``task_type`` uniformly at random and
    multiplies their ask values by ``markup`` — the coordinated version of
    the §4-A price manipulation.  Raises when the type has fewer than
    ``size`` bidders.
    """
    if size < 1:
        raise AttackError(f"cartel size must be >= 1, got {size}")
    if markup <= 0:
        raise AttackError(f"markup must be > 0, got {markup}")
    gen = as_generator(rng)
    candidates = [uid for uid, ask in asks.items() if ask.task_type == task_type]
    if len(candidates) < size:
        raise AttackError(
            f"type {task_type} has only {len(candidates)} bidders, "
            f"cannot form a cartel of {size}"
        )
    members = gen.choice(len(candidates), size=size, replace=False)
    chosen = [candidates[i] for i in members]
    overrides = {uid: asks[uid].value * markup for uid in chosen}
    return Coalition(members=tuple(chosen), value_overrides=overrides)
