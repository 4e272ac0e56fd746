"""Reproduction of every figure in the paper's evaluation (§7) and the
design-challenge examples (§4).

Each ``figNx`` function regenerates one paper figure as an
:class:`~repro.simulation.results.ExperimentResult` whose series carry the
same semantics as the paper's lines:

========  =========================================  =======================
Figure    x-axis                                      series
========  =========================================  =======================
Fig 6(a)  number of users (m_i fixed)                 RIT / auction phase avg utility
Fig 6(b)  tasks per type (n fixed)                    RIT / auction phase avg utility
Fig 7(a)  number of users                             RIT / auction phase total payment
Fig 7(b)  tasks per type                              RIT / auction phase total payment
Fig 8(a)  number of users                             RIT / auction phase running time
Fig 8(b)  tasks per type                              RIT / auction phase running time
Fig 9     number of sybil identities (2 … K_victim)   attacker utility at ask ∈ {c, 6.25, 6.5} + honest reference
========  =========================================  =======================

Scales
------
The paper runs at n = 40,000…80,000 with 1000 repetitions; that is hours of
compute.  Three presets are provided (:data:`PAPER_SCALE`,
:data:`DEFAULT_SCALE`, :data:`SMOKE_SCALE`); the default can be overridden
globally with the environment variable ``RIT_SCALE=paper|default|smoke``.
Scaled-down runs keep the supply/demand ratios of the paper's setup, so the
*shapes* (the reproduction target) are preserved.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.sybil import SybilAttack, apply_attack
from repro.core.exceptions import ConfigurationError
from repro.core.mechanism import Mechanism
from repro.core.rit import RIT
from repro.core.rng import SeedLike, as_generator, spawn, spawn_seeds
from repro.core.types import Job, Population, User
from repro.simulation.results import ExperimentResult
from repro.simulation.runner import RunMeasurement, run_repetitions
from repro.workloads.jobs import random_job, uniform_job
from repro.workloads.scenarios import Scenario, paper_scenario

__all__ = [
    "ExperimentScale",
    "PAPER_SCALE",
    "DEFAULT_SCALE",
    "SMOKE_SCALE",
    "SCALES",
    "active_scale",
    "fig6a",
    "fig6b",
    "fig7a",
    "fig7b",
    "fig8a",
    "fig8b",
    "fig9",
    "users_sweep_figures",
    "tasks_sweep_figures",
    "SWEEPS",
    "design_challenge_fig2",
    "design_challenge_fig3",
]


@dataclass(frozen=True)
class ExperimentScale:
    """All knobs of the §7 setups, bundled per scale preset.

    The (a)-figures sweep the user count at fixed job size; the
    (b)-figures sweep the per-type task count at a fixed user count;
    Fig. 9 uses its own smaller instance.
    """

    name: str
    #: x-values for the (a) figures (number of users).
    users_sweep: Tuple[int, ...]
    #: fixed m_i for the (a) figures.
    tasks_per_type_a: int
    #: fixed user count for the (b) figures.
    users_b: int
    #: x-values for the (b) figures (tasks per type m_i).
    tasks_sweep: Tuple[int, ...]
    #: repetitions per data point for Figs. 6-8.
    reps: int
    #: Fig. 9: user count, per-type task range, victim profile, reps.
    fig9_users: int
    fig9_tasks_low: int
    fig9_tasks_high: int
    fig9_identity_counts: Tuple[int, ...]
    fig9_reps: int
    #: number of task types m (all figures).
    num_types: int = 10
    #: victim profile for Fig. 9 (paper: c=5.5, K=17).
    fig9_victim_cost: float = 5.5
    fig9_victim_capacity: int = 17
    #: the three ask values of Fig. 9.
    fig9_ask_values: Tuple[float, ...] = (5.5, 6.25, 6.5)


def _steps(start: int, stop: int, step: int) -> Tuple[int, ...]:
    return tuple(range(start, stop + 1, step))


#: The paper's exact §7 parameters (1000-rep averages; hours of compute).
PAPER_SCALE = ExperimentScale(
    name="paper",
    users_sweep=_steps(40000, 80000, 1000),
    tasks_per_type_a=5000,
    users_b=30000,
    tasks_sweep=_steps(1000, 3000, 100),
    reps=1000,
    fig9_users=10000,
    fig9_tasks_low=100,
    fig9_tasks_high=500,
    fig9_identity_counts=tuple(range(2, 18)),
    fig9_reps=1000,
)

#: Laptop-scale: ×20 smaller populations, same supply/demand ratios.
DEFAULT_SCALE = ExperimentScale(
    name="default",
    users_sweep=_steps(2000, 4000, 500),
    tasks_per_type_a=250,
    users_b=1500,
    tasks_sweep=_steps(50, 150, 25),
    reps=5,
    fig9_users=1000,
    fig9_tasks_low=10,
    fig9_tasks_high=50,
    fig9_identity_counts=tuple(range(2, 18)),
    fig9_reps=40,
)

#: Seconds-scale preset for the test suite.
SMOKE_SCALE = ExperimentScale(
    name="smoke",
    users_sweep=(300, 450, 600),
    tasks_per_type_a=30,
    users_b=400,
    tasks_sweep=(20, 35, 50),
    reps=2,
    fig9_users=250,
    fig9_tasks_low=5,
    fig9_tasks_high=20,
    fig9_identity_counts=(2, 6, 10),
    fig9_reps=3,
    num_types=5,
)

#: The scale presets by name (``RIT_SCALE`` and ``--scale``).
SCALES = {"paper": PAPER_SCALE, "default": DEFAULT_SCALE, "smoke": SMOKE_SCALE}


def active_scale(override: Optional[ExperimentScale] = None) -> ExperimentScale:
    """Resolve the scale: explicit override > ``RIT_SCALE`` env > default."""
    if override is not None:
        return override
    env = os.environ.get("RIT_SCALE", "").strip().lower()
    if env:
        try:
            return SCALES[env]
        except KeyError:
            raise ConfigurationError(
                f"RIT_SCALE={env!r}; expected one of {sorted(SCALES)}"
            ) from None
    return DEFAULT_SCALE


def _default_mechanism() -> RIT:
    # "until-complete" matches the paper's evaluation behaviour (see the
    # round-budget discussion in repro.core.rit); experiments with the
    # strict Lemma budgets are available through the ablation benchmarks.
    return RIT(h=0.8, round_budget="until-complete")


# --------------------------------------------------------------------- #
# Figs. 6-8: sweeps over users / tasks
# --------------------------------------------------------------------- #


#: Figs. 6-8 by number: title stem, y-axis label, and the RIT and
#: auction-phase metrics of one run.
_AB_METRICS = {
    "fig6": (
        "Average user utility",
        "average user utility",
        lambda m: m.avg_utility,
        lambda m: m.avg_auction_utility,
    ),
    "fig7": (
        "Total payment",
        "total payment",
        lambda m: m.total_payment,
        lambda m: m.total_auction_payment,
    ),
    "fig8": (
        "Running time",
        "running time (s)",
        lambda m: m.running_time,
        lambda m: m.auction_running_time,
    ),
}


def _sweep_figures(
    x_values: Sequence[int],
    instance: Callable[[int], Tuple[int, Job]],
    scale: ExperimentScale,
    rng: SeedLike,
    mechanism: Optional[Mechanism],
    *,
    suffix: str,
    x_label: str,
    config: Dict,
) -> Dict[str, ExperimentResult]:
    """Run one sweep and read Figs. 6-8 (``suffix`` "a" or "b") off it.

    ``instance(x)`` is the ``(number of users, job)`` of sweep point
    ``x``; each point gets its own seed spawned from ``rng`` and
    ``scale.reps`` repetitions on fresh scenarios.
    """
    mech = mechanism if mechanism is not None else _default_mechanism()
    dist = _distribution(scale)
    data: Dict[int, List[RunMeasurement]] = {}
    for x, seed in zip(x_values, spawn(rng, len(x_values))):
        factory = partial(paper_scenario, *instance(x), distribution=dist)
        data[x] = run_repetitions(mech, factory, reps=scale.reps, rng=seed)

    out: Dict[str, ExperimentResult] = {}
    for prefix, (title, y_label, rit_metric, auction_metric) in _AB_METRICS.items():
        result = ExperimentResult(
            experiment_id=prefix + suffix,
            title=f"{title} vs {x_label}",
            x_label=x_label,
            y_label=y_label,
            config=config,
        )
        rit_series = result.new_series("RIT")
        auction_series = result.new_series("auction phase")
        completion = result.new_series("completion rate")
        for x in sorted(data):
            ms = data[x]
            rit_series.add(x, [rit_metric(m) for m in ms])
            auction_series.add(x, [auction_metric(m) for m in ms])
            completion.add(x, [1.0 if m.completed else 0.0 for m in ms])
        out[result.experiment_id] = result
    return out


def _distribution(scale: ExperimentScale) -> "UserDistribution":
    from repro.workloads.users import UserDistribution

    return UserDistribution(num_types=scale.num_types)


def users_sweep_figures(
    scale: Optional[ExperimentScale] = None,
    rng: SeedLike = None,
    mechanism: Optional[Mechanism] = None,
) -> Dict[str, ExperimentResult]:
    """Figs. 6(a), 7(a) and 8(a) from ONE user sweep.

    The three (a)-figures share the same runs — only the extracted metric
    differs — so regenerating them together costs a third of three
    separate figure calls.  This is the recommended entry point at
    ``RIT_SCALE=paper``, where a single sweep is 41 points × 1000 reps.
    """
    scale = active_scale(scale)
    job = uniform_job(scale.num_types, scale.tasks_per_type_a)
    config = {
        "scale": scale.name,
        "tasks_per_type": scale.tasks_per_type_a,
        "reps": scale.reps,
        "num_types": scale.num_types,
    }
    return _sweep_figures(
        scale.users_sweep, lambda n: (n, job), scale, rng, mechanism,
        suffix="a", x_label="number of users", config=config,
    )


def tasks_sweep_figures(
    scale: Optional[ExperimentScale] = None,
    rng: SeedLike = None,
    mechanism: Optional[Mechanism] = None,
) -> Dict[str, ExperimentResult]:
    """Figs. 6(b), 7(b) and 8(b) from ONE per-type task sweep."""
    scale = active_scale(scale)
    config = {
        "scale": scale.name,
        "users": scale.users_b,
        "reps": scale.reps,
        "num_types": scale.num_types,
    }
    return _sweep_figures(
        scale.tasks_sweep,
        lambda m_i: (scale.users_b, uniform_job(scale.num_types, m_i)),
        scale, rng, mechanism,
        suffix="b", x_label="tasks per type (m_i)", config=config,
    )


#: The shared sweeps of Figs. 6-8 and the figures each one yields, in the
#: order ``rit report`` spawns their seeds.  A caller that wants several
#: figures of one sweep runs the sweep once.
SWEEPS = (
    (users_sweep_figures, ("fig6a", "fig7a", "fig8a")),
    (tasks_sweep_figures, ("fig6b", "fig7b", "fig8b")),
)


def fig6a(
    scale: Optional[ExperimentScale] = None,
    rng: SeedLike = None,
    mechanism: Optional[Mechanism] = None,
) -> ExperimentResult:
    """Fig. 6(a): average user utility vs number of users."""
    return users_sweep_figures(scale, rng, mechanism)["fig6a"]


def fig6b(
    scale: Optional[ExperimentScale] = None,
    rng: SeedLike = None,
    mechanism: Optional[Mechanism] = None,
) -> ExperimentResult:
    """Fig. 6(b): average user utility vs per-type job size."""
    return tasks_sweep_figures(scale, rng, mechanism)["fig6b"]


def fig7a(
    scale: Optional[ExperimentScale] = None,
    rng: SeedLike = None,
    mechanism: Optional[Mechanism] = None,
) -> ExperimentResult:
    """Fig. 7(a): total platform payment vs number of users."""
    return users_sweep_figures(scale, rng, mechanism)["fig7a"]


def fig7b(
    scale: Optional[ExperimentScale] = None,
    rng: SeedLike = None,
    mechanism: Optional[Mechanism] = None,
) -> ExperimentResult:
    """Fig. 7(b): total platform payment vs per-type job size."""
    return tasks_sweep_figures(scale, rng, mechanism)["fig7b"]


def fig8a(
    scale: Optional[ExperimentScale] = None,
    rng: SeedLike = None,
    mechanism: Optional[Mechanism] = None,
) -> ExperimentResult:
    """Fig. 8(a): running time vs number of users."""
    return users_sweep_figures(scale, rng, mechanism)["fig8a"]


def fig8b(
    scale: Optional[ExperimentScale] = None,
    rng: SeedLike = None,
    mechanism: Optional[Mechanism] = None,
) -> ExperimentResult:
    """Fig. 8(b): running time vs per-type job size."""
    return tasks_sweep_figures(scale, rng, mechanism)["fig8b"]


# --------------------------------------------------------------------- #
# Fig. 9: sybil-proofness and truthfulness of RIT
# --------------------------------------------------------------------- #


def _fig9_scenario(
    scale: ExperimentScale, gen: np.random.Generator
) -> Tuple[Scenario, int]:
    """One Fig. 9 instance: a scenario plus a designated victim.

    The victim mirrors the paper's ``P_29``: cost 5.5, capacity 17, and a
    non-zero auction payment when everyone is truthful.  We plant the
    profile on a random user and re-draw the instance until the truthful
    probe run pays the victim (the paper simply reports having picked such
    a user).
    """
    mech = _default_mechanism()
    for attempt in range(50):
        scenario_gen, probe_gen, victim_gen = spawn(gen, 3)
        job = random_job(
            scale.num_types, scale.fig9_tasks_low, scale.fig9_tasks_high, victim_gen
        )
        # Remark 6.1 threshold: solicitation stops once every type can
        # place 2·m_i unit asks, so supply and demand stay comparable and
        # a mid-cost victim (c = 5.5 on a (0, 10] scale) can win.
        base = paper_scenario(
            scale.fig9_users,
            job,
            scenario_gen,
            distribution=_distribution(scale),
            supply_threshold=True,
        )
        # Candidate victims mirror the paper's P_29: they must be able to
        # profit from both mechanisms phases, so we want inner nodes (the
        # sybil chain dilutes their subtree's referrals) that win tasks
        # under truthful play.
        candidates = [
            node for node in base.tree.nodes() if base.tree.children(node)
        ]
        if not candidates:
            continue
        victim_gen.shuffle(candidates)
        for victim_id in candidates[: min(10, len(candidates))]:
            victim_type = base.population[victim_id].task_type
            planted = User(
                user_id=victim_id,
                task_type=victim_type,
                capacity=scale.fig9_victim_capacity,
                cost=scale.fig9_victim_cost,
            )
            population = Population(
                planted if u.user_id == victim_id else u for u in base.population
            )
            scenario = Scenario(
                name="fig9",
                job=job,
                population=population,
                tree=base.tree,
                graph=base.graph,
            )
            probe = mech.run(job, scenario.truthful_asks(), scenario.tree, probe_gen)
            referral = probe.payment_of(victim_id) - probe.auction_payment_of(victim_id)
            if (
                probe.completed
                and probe.auction_payment_of(victim_id) > 0.0
                and referral > 0.0
            ):
                return scenario, victim_id
    raise ConfigurationError(
        "could not draw a Fig. 9 instance whose victim wins under truthful "
        "play in 50 attempts — enlarge the scale or loosen the victim profile"
    )


def fig9(
    scale: Optional[ExperimentScale] = None,
    rng: SeedLike = None,
    mechanism: Optional[Mechanism] = None,
) -> ExperimentResult:
    """Fig. 9: dishonest (sybil) utility vs number of identities.

    For each repetition, a fresh instance with a planted victim is drawn;
    for every identity count δ and every ask value, a random admissible
    attack is generated (:meth:`SybilAttack.random`) and the identities'
    total utility is measured in one run of the attacked scenario, seeded
    by a child spawned from the repetition's attack stream.  The honest
    utility of the victim (no identities, truthful ask) is reported as the
    reference series.
    """
    scale = active_scale(scale)
    mech = mechanism if mechanism is not None else _default_mechanism()
    gen = as_generator(rng)

    result = ExperimentResult(
        experiment_id="fig9",
        title="Dishonest user utility vs number of sybil identities",
        x_label="number of identities",
        y_label="total utility of the attacker",
        config={
            "scale": scale.name,
            "users": scale.fig9_users,
            "victim_cost": scale.fig9_victim_cost,
            "victim_capacity": scale.fig9_victim_capacity,
            "reps": scale.fig9_reps,
        },
    )
    ask_series = {
        value: result.new_series(f"ask={value:g}") for value in scale.fig9_ask_values
    }
    honest_series = result.new_series("honest (no sybil)")

    samples: Dict[Tuple[float, int], List[float]] = {
        (value, delta): []
        for value in scale.fig9_ask_values
        for delta in scale.fig9_identity_counts
    }
    honest_samples: List[float] = []

    for _ in range(scale.fig9_reps):
        rep_gen = spawn(gen, 1)[0]
        scenario, victim = _fig9_scenario(scale, rep_gen)
        asks = scenario.truthful_asks()
        cost = scale.fig9_victim_cost
        run_gen, attack_gen = spawn(rep_gen, 2)
        honest_out = mech.run(scenario.job, asks, scenario.tree, run_gen)
        honest_samples.append(honest_out.utility_of(victim, cost))
        num_children = len(scenario.tree.children(victim))
        for value in scale.fig9_ask_values:
            for delta in scale.fig9_identity_counts:
                attack = SybilAttack.random(
                    victim,
                    delta,
                    scale.fig9_victim_capacity,
                    value,
                    num_children,
                    attack_gen,
                )
                attacked_asks, attacked_tree, identity_ids = apply_attack(
                    attack, asks, scenario.tree,
                    true_capacity=scale.fig9_victim_capacity,
                )
                (seed,) = spawn_seeds(attack_gen, 1)
                attacked_out = mech.run(
                    scenario.job, attacked_asks, attacked_tree,
                    np.random.default_rng(seed),
                )
                samples[(value, delta)].append(
                    attacked_out.group_utility(identity_ids, cost)
                )

    for value in scale.fig9_ask_values:
        for delta in scale.fig9_identity_counts:
            ask_series[value].add(delta, samples[(value, delta)])
    for delta in scale.fig9_identity_counts:
        honest_series.add(delta, honest_samples)
    return result


# --------------------------------------------------------------------- #
# §4 design challenges (Figs. 2 and 3)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class DesignChallengeReport:
    """Outcome of one §4 counterexample."""

    description: str
    honest_utility: float
    deviant_utility: float

    @property
    def violated(self) -> bool:
        """True when the deviation strictly beats honesty — i.e. the naive
        combination fails the property the example targets."""
        return self.deviant_utility > self.honest_utility


def design_challenge_fig2() -> DesignChallengeReport:
    """§4-A (Fig. 2): auctions break the sybil-proofness of incentive trees.

    Three users ask ``(τ1,2,2), (τ1,1,3), (τ1,1,5)``; the job needs two
    τ1-tasks; the mechanism is the k-th lowest price auction combined with
    the quoted Lv–Moscibroda-style reward.  ``P1`` splits into two
    identities asking 2 and 5, raising the clearing price from 3 to 5 and
    its own utility with it.
    """
    from repro.attacks.sybil import apply_attack
    from repro.baselines.naive_combo import NaiveComboMechanism
    from repro.core.types import Ask
    from repro.tree.incentive_tree import ROOT, IncentiveTree

    job = Job([2])
    mech = NaiveComboMechanism()

    honest_tree = IncentiveTree()
    honest_tree.attach(1, ROOT)
    honest_tree.attach(2, 1)
    honest_tree.attach(3, 2)
    honest_asks = {
        1: Ask(0, 2, 2.0),
        2: Ask(0, 1, 3.0),
        3: Ask(0, 1, 5.0),
    }
    honest = mech.run(job, honest_asks, honest_tree)
    honest_utility = honest.utility_of(1, cost=2.0)

    attack = SybilAttack.chain(1, capacities=(1, 1), values=(2.0, 5.0))
    attacked_asks, attacked_tree, ids = apply_attack(
        attack, honest_asks, honest_tree, true_capacity=2
    )
    attacked = mech.run(job, attacked_asks, attacked_tree)
    deviant_utility = attacked.group_utility(ids, cost=2.0)
    return DesignChallengeReport(
        description="Fig. 2 — naive combo vs sybil attack (P1 splits 2→{2,5})",
        honest_utility=honest_utility,
        deviant_utility=deviant_utility,
    )


def design_challenge_fig3() -> DesignChallengeReport:
    """§4-B (Fig. 3): incentive trees break the truthfulness of auctions.

    Four unit-capacity users with costs 5, 4, 5, 4; two τ1-tasks; third
    price auction + quoted tree reward.  ``P1`` (cost 5) bids ``4 − ε``
    and turns a zero utility into a strictly positive one.
    """
    from repro.attacks.misreport import misreport_value
    from repro.baselines.naive_combo import NaiveComboMechanism
    from repro.core.types import Ask
    from repro.tree.incentive_tree import ROOT, IncentiveTree

    job = Job([2])
    mech = NaiveComboMechanism()

    tree = IncentiveTree()
    tree.attach(1, ROOT)
    tree.attach(2, 1)
    tree.attach(3, 1)
    tree.attach(4, 2)
    asks = {
        1: Ask(0, 1, 5.0),
        2: Ask(0, 1, 4.0),
        3: Ask(0, 1, 5.0),
        4: Ask(0, 1, 4.0),
    }
    honest = mech.run(job, asks, tree)
    honest_utility = honest.utility_of(1, cost=5.0)

    lying_asks = misreport_value(asks, 1, 4.0 - 1e-9)
    lying = mech.run(job, lying_asks, tree)
    deviant_utility = lying.utility_of(1, cost=5.0)
    return DesignChallengeReport(
        description="Fig. 3 — naive combo vs misreport (P1 bids 4−ε, cost 5)",
        honest_utility=honest_utility,
        deviant_utility=deviant_utility,
    )
