"""Attack evaluation harness.

Compares a participant's *honest* utility against its utility under a
deviation (sybil attack, misreport, coalition, tree placement), averaged
over repeated mechanism runs with paired random seeds.  One loop,
:func:`compare_profiles`, runs every such pair; it is the machinery behind
:func:`repro.attacks.search.best_deviation`, the coalition sweep and the
property checks of :mod:`repro.analysis.properties`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Tuple

import numpy as np

from repro.attacks.misreport import misreport_value
from repro.attacks.sybil import SybilAttack, apply_attack
from repro.core.exceptions import AttackError
from repro.core.mechanism import Mechanism
from repro.core.outcome import MechanismOutcome
from repro.core.rng import SeedLike, spawn_seeds
from repro.core.types import Ask, Job
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.tree.incentive_tree import IncentiveTree

__all__ = [
    "AttackComparison",
    "compare_profiles",
    "compare_sybil_attack",
    "compare_misreport",
]


@dataclass(frozen=True)
class AttackComparison:
    """Averaged honest-vs-deviant utilities for one participant.

    Attributes
    ----------
    honest_utility:
        Mean utility of the participant when everyone is honest.
    deviant_utility:
        Mean summed utility of the participant's identities (or of the
        misreporting participant) under the deviation.
    honest_samples / deviant_samples:
        The per-repetition utilities behind the means.
    """

    honest_utility: float
    deviant_utility: float
    honest_samples: Tuple[float, ...]
    deviant_samples: Tuple[float, ...]

    @property
    def gain(self) -> float:
        """Deviation gain; positive means the attack paid off."""
        return self.deviant_utility - self.honest_utility

    @property
    def profitable(self) -> bool:
        return self.gain > 0

    def gain_summary(self, rng=None):
        """Uncertainty-aware gain: bootstrap CI + permutation p-value.

        The samples are paired (common random numbers), so the sign-flip
        permutation test applies directly.  Returns a
        :class:`repro.analysis.stats.GainSummary`.
        """
        from repro.analysis.stats import summarize_gain

        return summarize_gain(self.honest_samples, self.deviant_samples, rng=rng)


def compare_profiles(
    mechanism: Mechanism,
    job: Job,
    honest: Tuple[Mapping[int, Ask], IncentiveTree],
    deviant: Tuple[Mapping[int, Ask], IncentiveTree],
    honest_score: Callable[[MechanismOutcome], float],
    deviant_score: Callable[[MechanismOutcome], float],
    *,
    reps: int,
    rng: SeedLike,
) -> AttackComparison:
    """Paired honest-vs-deviant runs under common random numbers.

    ``honest`` and ``deviant`` are ``(asks, tree)`` scenarios of one job.
    Repetition ``r`` runs both on generators seeded by the same child
    ``r`` of ``spawn_seeds(rng, reps)``, so the two runs replay one coin
    stream and the comparison isolates the deviation's effect (when both
    profiles claim the same unit total, CRA draws line up one-to-one).
    Each outcome is reduced by its scenario's score.  Every honest-vs-
    deviation evaluation in the library runs through this loop.
    """
    if reps < 1:
        raise AttackError(f"reps must be >= 1, got {reps}")
    honest_samples: List[float] = []
    deviant_samples: List[float] = []
    for seed in spawn_seeds(rng, reps):
        honest_out = mechanism.run(job, *honest, np.random.default_rng(seed))
        honest_samples.append(honest_score(honest_out))
        deviant_out = mechanism.run(job, *deviant, np.random.default_rng(seed))
        deviant_samples.append(deviant_score(deviant_out))
    return AttackComparison(
        honest_utility=float(np.mean(honest_samples)),
        deviant_utility=float(np.mean(deviant_samples)),
        honest_samples=tuple(honest_samples),
        deviant_samples=tuple(deviant_samples),
    )


def compare_sybil_attack(
    mechanism: Mechanism,
    job: Job,
    asks: Mapping[int, Ask],
    tree: IncentiveTree,
    attack: SybilAttack,
    cost: float,
    *,
    reps: int = 10,
    rng: SeedLike = None,
    true_capacity: Optional[int] = None,
    tracer: Optional[NullTracer] = None,
) -> AttackComparison:
    """Evaluate a sybil attack against honest play.

    Runs the mechanism ``reps`` times on the honest scenario and ``reps``
    times on the attacked scenario (:func:`compare_profiles`), and
    compares the victim's honest utility ``U_j(t_j, K_j, c_j)`` with the
    identities' total utility ``Σ_l U_{j_l}``.

    ``tracer`` (see :mod:`repro.obs`) wraps the comparison in an
    ``attack`` span and routes it into the paired mechanism runs.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    tracing = tracer.enabled
    mech = mechanism.with_tracer(tracer) if tracing else mechanism
    attacked_asks, attacked_tree, identity_ids = apply_attack(
        attack, asks, tree, true_capacity=true_capacity
    )
    with tracer.run_span(), tracer.span(
        "attack", kind="sybil", victim=int(attack.victim), reps=reps
    ):
        if tracing:
            tracer.count("attack_comparisons")
            tracer.count("sybil_identities_spawned", len(identity_ids))
        return compare_profiles(
            mech,
            job,
            (asks, tree),
            (attacked_asks, attacked_tree),
            lambda out: out.utility_of(attack.victim, cost),
            lambda out: out.group_utility(identity_ids, cost),
            reps=reps,
            rng=rng,
        )


def compare_misreport(
    mechanism: Mechanism,
    job: Job,
    asks: Mapping[int, Ask],
    tree: IncentiveTree,
    user_id: int,
    cost: float,
    reported_value: float,
    *,
    reps: int = 10,
    rng: SeedLike = None,
    tracer: Optional[NullTracer] = None,
) -> AttackComparison:
    """Evaluate an ask-value misreport against honest play.

    The honest profile must already contain the user's truthful ask
    (``a_j = c_j``); the deviant profile replaces it with
    ``reported_value``.  A value-only misreport keeps the unit-ask vector
    length, so the paired runs are nearly noise-free.  ``tracer`` behaves
    as in :func:`compare_sybil_attack`.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    tracing = tracer.enabled
    mech = mechanism.with_tracer(tracer) if tracing else mechanism
    deviant_asks = misreport_value(asks, user_id, reported_value)

    def score(out: MechanismOutcome) -> float:
        return out.utility_of(user_id, cost)

    with tracer.run_span(), tracer.span(
        "attack",
        kind="misreport",
        user=int(user_id),
        reported=float(reported_value),
        reps=reps,
    ):
        if tracing:
            tracer.count("attack_comparisons")
            tracer.count("misreports_evaluated", reps)
        return compare_profiles(
            mech, job, (asks, tree), (deviant_asks, tree), score, score,
            reps=reps, rng=rng,
        )
