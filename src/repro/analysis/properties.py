"""Empirical checkers for the §3-C desired properties.

Each checker exercises a mechanism on concrete scenarios and reports
whether the property held.  They serve three purposes: the test suite's
integration assertions, the EXPERIMENTS.md property table, and a
user-facing audit API (``check_individual_rationality(mech, scenario)``
is how a downstream adopter validates a custom configuration).

For randomized properties (truthfulness / sybil-proofness hold *with
probability at least H*), the checkers return violation *rates* to be
compared against ``1 − H`` rather than hard booleans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.evaluator import (
    AttackComparison,
    compare_misreport,
    compare_profiles,
    compare_sybil_attack,
)
from repro.attacks.sybil import SybilAttack
from repro.core.exceptions import ConfigurationError
from repro.core.mechanism import Mechanism
from repro.core.outcome import MechanismOutcome
from repro.core.rng import SeedLike, as_generator, spawn
from repro.core.types import Ask, Job
from repro.tree.incentive_tree import ROOT, IncentiveTree
from repro.workloads.scenarios import Scenario

__all__ = [
    "PropertyReport",
    "check_individual_rationality",
    "check_solicitation_incentive",
    "misreport_violation_rate",
    "sybil_violation_rate",
]


@dataclass(frozen=True)
class PropertyReport:
    """Result of one property audit."""

    property_name: str
    holds: bool
    detail: str = ""


def check_individual_rationality(
    outcome: MechanismOutcome, costs: Mapping[int, float]
) -> PropertyReport:
    """IR: under truthful asks, no participant's utility is negative.

    The caller guarantees the outcome came from a *truthful* profile —
    IR is only promised for truthful play (§3-C).
    """
    worst_id = None
    worst = 0.0
    for pid in set(outcome.payments) | set(outcome.allocation):
        u = outcome.utility_of(pid, costs.get(pid, 0.0))
        if u < worst - 1e-9:
            worst = u
            worst_id = pid
    if worst_id is None:
        return PropertyReport("individual rationality", True)
    return PropertyReport(
        "individual rationality",
        False,
        f"participant {worst_id} has utility {worst:.6f} < 0",
    )


def check_solicitation_incentive(
    mechanism: Mechanism,
    job: Job,
    asks: Mapping[int, Ask],
    tree: IncentiveTree,
    *,
    solicitor: int,
    newcomer_ask: Ask,
    newcomer_id: Optional[int] = None,
    other_parent: Optional[int] = None,
    rng: SeedLike = None,
    reps: int = 5,
) -> PropertyReport:
    """Theorem 4's property, checked empirically.

    Adds a newcomer once as a child of ``solicitor`` and once as a child of
    ``other_parent`` (default: the platform root) and compares the
    solicitor's expected utility.  The property asks that recruiting the
    newcomer yourself is weakly better.
    """
    if solicitor not in tree:
        raise ConfigurationError(f"solicitor {solicitor} not in the tree")
    newcomer = (
        newcomer_id
        if newcomer_id is not None
        else max(max(asks), max(tree.nodes(), default=0)) + 1
    )
    # Property checks run on truthful profiles, where ask value == cost.
    cost = asks[solicitor].value
    variant_asks = dict(asks)
    variant_asks[newcomer] = newcomer_ask

    def placed_under(parent: int) -> Tuple[Mapping[int, Ask], IncentiveTree]:
        variant_tree = tree.copy()
        variant_tree.attach(newcomer, parent)
        return variant_asks, variant_tree

    def score(out: MechanismOutcome) -> float:
        return out.utility_of(solicitor, cost)

    comparison = compare_profiles(
        mechanism,
        job,
        placed_under(solicitor),
        placed_under(other_parent if other_parent is not None else ROOT),
        score,
        score,
        reps=reps,
        rng=rng,
    )
    mine, theirs = comparison.honest_utility, comparison.deviant_utility
    holds = mine >= theirs - 1e-9
    return PropertyReport(
        "solicitation incentive",
        holds,
        f"as own child: {mine:.6f}; elsewhere: {theirs:.6f}",
    )


def _violation_rate(
    trials: int,
    rng: SeedLike,
    comparisons: Callable[[np.random.Generator], Iterator[AttackComparison]],
) -> float:
    """Fraction of ``trials`` in which some deviation beat honesty.

    Each trial spawns one generator from ``rng`` and hands it to
    ``comparisons``, which yields the trial's paired comparisons lazily:
    the first one whose gain clears the noise margin ends the trial.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    gen = as_generator(rng)
    violations = 0
    for _ in range(trials):
        trial_gen = spawn(gen, 1)[0]
        if any(c.gain > 1e-9 for c in comparisons(trial_gen)):
            violations += 1
    return violations / trials


def misreport_violation_rate(
    mechanism: Mechanism,
    scenario: Scenario,
    *,
    user_id: int,
    deviations: Sequence[float],
    trials: int = 20,
    reps: int = 3,
    rng: SeedLike = None,
) -> float:
    """Fraction of trials where some misreport beat truthful play.

    Each trial compares the user's truthful expected utility (over ``reps``
    paired runs) against each deviated ask value; a trial counts as a
    violation when any deviation wins by more than a noise margin derived
    from the paired samples.
    """
    asks = scenario.truthful_asks()
    cost = scenario.population[user_id].cost

    def comparisons(trial_gen: np.random.Generator) -> Iterator[AttackComparison]:
        for value in deviations:
            yield compare_misreport(
                mechanism,
                scenario.job,
                asks,
                scenario.tree,
                user_id,
                cost,
                value,
                reps=reps,
                rng=trial_gen,
            )

    return _violation_rate(trials, rng, comparisons)


def sybil_violation_rate(
    mechanism: Mechanism,
    scenario: Scenario,
    *,
    victim: int,
    identity_counts: Sequence[int],
    ask_value: Optional[float] = None,
    trials: int = 20,
    reps: int = 3,
    rng: SeedLike = None,
) -> float:
    """Fraction of trials where some random sybil attack beat honesty."""
    asks = scenario.truthful_asks()
    user = scenario.population[victim]
    value = user.cost if ask_value is None else ask_value

    def comparisons(trial_gen: np.random.Generator) -> Iterator[AttackComparison]:
        for delta in identity_counts:
            if delta > user.capacity:
                continue
            attack = SybilAttack.random(
                victim,
                delta,
                user.capacity,
                value,
                len(scenario.tree.children(victim)),
                trial_gen,
            )
            yield compare_sybil_attack(
                mechanism,
                scenario.job,
                asks,
                scenario.tree,
                attack,
                user.cost,
                reps=reps,
                rng=trial_gen,
                true_capacity=user.capacity,
            )

    return _violation_rate(trials, rng, comparisons)
