"""Extension experiments beyond the paper's figures.

The paper fixes ``H = 0.8``, studies one attacker, and grows one tree
shape.  These experiments open the knobs DESIGN.md calls out:

* :func:`h_sweep` — how the target probability ``H`` trades off the
  Lemma round budget against completion and payments (the budget is the
  only H-dependent quantity in the mechanism);
* :func:`coalition_sweep` — empirical ``d``-truthfulness: the measured
  gain of same-type price cartels of growing size, next to the Lemma 6.2
  bound for the corresponding unit-ask weight;
* :func:`tree_shape_sweep` — how solicitation structure (star / chain /
  random / social spanning forest) moves the platform's referral outlay
  at identical auction outcomes;
* :func:`supply_sweep` — empirical validation of Remark 6.1's
  "recruit until 2·m_i unit asks per type" threshold rule.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.attacks.collusion import compare_coalition, random_price_cartel
from repro.core import bounds
from repro.core.exceptions import ConfigurationError
from repro.core.rit import RIT
from repro.core.rng import SeedLike, as_generator, spawn
from repro.core.types import Job
from repro.simulation.results import ExperimentResult
from repro.tree.builder import chain_tree, random_tree, star_tree
from repro.workloads.scenarios import paper_scenario
from repro.workloads.users import UserDistribution

__all__ = [
    "h_sweep",
    "coalition_sweep",
    "tree_shape_sweep",
    "supply_sweep",
    "recruitment_sweep",
]


def h_sweep(
    h_values: Sequence[float] = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95),
    *,
    num_users: int = 4000,
    tasks_per_type: int = 1000,
    num_types: int = 5,
    reps: int = 3,
    rng: SeedLike = None,
) -> ExperimentResult:
    """Sweep the robustness target ``H`` under the 'paper' budget policy.

    Higher ``H`` shrinks the per-type round budget (fewer chances to
    finish), trading completion rate for a stronger guarantee.  Series:
    lemma round budget, completion rate, total payment (completed runs).

    The defaults sit on the interesting ridge: at ``m_i = 1000``,
    ``K_max = 20``, ``m = 5`` the Lemma budget steps 3 → 1 → 0 as H rises,
    so the completion rate visibly degrades with the guarantee.
    """
    for h in h_values:
        if not 0.0 < h < 1.0:
            raise ConfigurationError(f"H values must lie in (0,1), got {h}")
    gen = as_generator(rng)
    job = Job.uniform(num_types, tasks_per_type)
    dist = UserDistribution(num_types=num_types)

    result = ExperimentResult(
        experiment_id="ext-h-sweep",
        title="Round budget / completion / payment vs H",
        x_label="target probability H",
        y_label="(mixed; see series)",
        config={
            "users": num_users,
            "tasks_per_type": tasks_per_type,
            "reps": reps,
            "policy": "paper",
        },
    )
    budget_series = result.new_series("lemma round budget")
    completion_series = result.new_series("completion rate")
    payment_series = result.new_series("total payment (completed)")

    scenarios = []
    for r in range(reps):
        scen_gen = spawn(gen, 1)[0]
        scenarios.append(paper_scenario(num_users, job, scen_gen, distribution=dist))

    for h in h_values:
        mech = RIT(h=h, round_budget="paper")
        k_max = 20
        budget_series.add(
            h, [bounds.max_rounds(h, num_types, k_max, tasks_per_type)]
        )
        completed: List[float] = []
        payments: List[float] = []
        for scenario in scenarios:
            run_gen = spawn(gen, 1)[0]
            out = mech.run(job, scenario.truthful_asks(), scenario.tree, run_gen)
            completed.append(1.0 if out.completed else 0.0)
            if out.completed:
                payments.append(out.total_payment)
        completion_series.add(h, completed)
        payment_series.add(h, payments if payments else [0.0])
    return result


def coalition_sweep(
    sizes: Sequence[int] = (1, 2, 4, 8),
    *,
    num_users: int = 2000,
    tasks_per_type: int = 150,
    num_types: int = 4,
    markup: float = 1.5,
    reps: int = 20,
    trials: int = 3,
    rng: SeedLike = None,
) -> ExperimentResult:
    """Empirical d-truthfulness of RIT against growing price cartels.

    Series: measured mean gain of the cartel (paired coins, averaged over
    ``trials`` random cartels) and the Lemma 6.2 per-round lower bound at
    the cartel's unit-ask weight.
    """
    if markup <= 1.0:
        raise ConfigurationError(f"a cartel needs markup > 1, got {markup}")
    gen = as_generator(rng)
    job = Job.uniform(num_types, tasks_per_type)
    scenario = paper_scenario(
        num_users,
        job,
        spawn(gen, 1)[0],
        distribution=UserDistribution(num_types=num_types),
        supply_threshold=True,
    )
    asks = scenario.truthful_asks()
    costs = scenario.costs()
    mech = RIT(round_budget="until-complete")

    result = ExperimentResult(
        experiment_id="ext-coalition-sweep",
        title="Price-cartel gain vs coalition size",
        x_label="cartel size (users)",
        y_label="(mixed; see series)",
        config={
            "users": num_users,
            "tasks_per_type": tasks_per_type,
            "markup": markup,
            "reps": reps,
        },
    )
    gain_series = result.new_series("mean cartel gain")
    relative_series = result.new_series("gain / honest total")
    bound_series = result.new_series("Lemma 6.2 per-round bound")

    for size in sizes:
        gains: List[float] = []
        relative: List[float] = []
        weights: List[int] = []
        for _ in range(trials):
            trial_gen = spawn(gen, 1)[0]
            cartel = random_price_cartel(
                asks, task_type=0, size=size, markup=markup, rng=trial_gen
            )
            comparison = compare_coalition(
                mech, job, asks, scenario.tree, cartel, costs,
                reps=reps, rng=trial_gen,
            )
            gains.append(comparison.gain)
            denom = max(abs(comparison.honest_utility), 1e-9)
            relative.append(comparison.gain / denom)
            weights.append(cartel.unit_weight(asks))
        gain_series.add(size, gains)
        relative_series.add(size, relative)
        bound_series.add(
            size,
            [bounds.cra_truthful_probability(int(np.mean(weights)), 0, tasks_per_type)],
        )
    return result


def tree_shape_sweep(
    *,
    num_users: int = 800,
    tasks_per_type: int = 40,
    num_types: int = 5,
    reps: int = 5,
    rng: SeedLike = None,
) -> ExperimentResult:
    """Referral outlay across solicitation structures.

    The auction phase ignores the tree, so at identical asks and coins the
    auction totals match across shapes; what varies is the referral
    outlay: a star (no solicitation) pays none, a chain (max depth) pays
    little (deep nodes' contributions decay as (1/2)^r), and realistic
    social forests sit in between.
    """
    gen = as_generator(rng)
    job = Job.uniform(num_types, tasks_per_type)
    dist = UserDistribution(num_types=num_types)
    mech = RIT(round_budget="until-complete")

    result = ExperimentResult(
        experiment_id="ext-tree-shapes",
        title="Referral outlay vs solicitation structure",
        x_label="shape index (0=star 1=chain 2=random 3=social)",
        y_label="referral outlay / auction total",
        config={"users": num_users, "tasks_per_type": tasks_per_type, "reps": reps},
    )
    outlay_series = result.new_series("referral share")
    depth_series = result.new_series("tree height")

    shapes = ["star", "chain", "random", "social"]
    for index, shape in enumerate(shapes):
        shares: List[float] = []
        heights: List[float] = []
        for r in range(reps):
            scen_gen, tree_gen, run_gen = spawn(gen, 3)
            scenario = paper_scenario(num_users, job, scen_gen, distribution=dist)
            if shape == "star":
                tree = star_tree(num_users)
            elif shape == "chain":
                tree = chain_tree(num_users)
            elif shape == "random":
                tree = random_tree(num_users, tree_gen)
            else:
                tree = scenario.tree
            out = mech.run(job, scenario.truthful_asks(), tree, run_gen)
            if not out.completed:
                continue
            share = (
                (out.total_payment - out.total_auction_payment)
                / max(out.total_auction_payment, 1e-9)
            )
            shares.append(share)
            heights.append(tree.max_depth())
        outlay_series.add(index, shares if shares else [0.0])
        depth_series.add(index, heights if heights else [0.0])
    return result


def supply_sweep(
    multipliers: Sequence[float] = (1.0, 1.5, 2.0, 3.0, 4.0),
    *,
    tasks_per_type: int = 40,
    num_types: int = 5,
    reps: int = 6,
    rng: SeedLike = None,
) -> ExperimentResult:
    """Empirical validation of Remark 6.1's threshold rule.

    The remark says solicitation should recruit until each type can place
    ``2·m_i`` unit asks.  This sweep controls the recruited supply
    directly — per-type capacity ``= multiplier · m_i`` via a synthetic
    star tree — and measures the completion rate and the average clearing
    price.  Expected: completion is poor below 2x, saturates at/above it;
    prices fall as supply grows.
    """
    for mult in multipliers:
        if mult < 1.0:
            raise ConfigurationError(
                f"supply below demand can never complete, got {mult}"
            )
    gen = as_generator(rng)
    job = Job.uniform(num_types, tasks_per_type)
    mech = RIT(round_budget="until-complete")

    result = ExperimentResult(
        experiment_id="ext-supply-sweep",
        title="Completion and price vs supply multiple (Remark 6.1)",
        x_label="per-type supply / m_i",
        y_label="(mixed; see series)",
        config={
            "tasks_per_type": tasks_per_type,
            "num_types": num_types,
            "reps": reps,
        },
    )
    completion_series = result.new_series("completion rate")
    price_series = result.new_series("avg clearing price (completed)")

    from repro.tree.builder import star_tree
    from repro.core.types import Ask

    for mult in multipliers:
        units = int(round(mult * tasks_per_type))
        completed: List[float] = []
        prices: List[float] = []
        for _ in range(reps):
            draw = spawn(gen, 1)[0]
            # Build users covering each type with `units` unit asks, in
            # per-user chunks of <= 10 (K_max stays small vs m_i).
            asks = {}
            uid = 0
            for tau in range(num_types):
                remaining = units
                while remaining > 0:
                    cap = int(min(remaining, draw.integers(1, 11)))
                    asks[uid] = Ask(tau, cap, float(draw.uniform(0.05, 10.0)))
                    uid += 1
                    remaining -= cap
            tree = star_tree(uid)
            out = mech.run(job, asks, tree, draw)
            completed.append(1.0 if out.completed else 0.0)
            if out.completed and out.total_allocated:
                prices.append(out.total_auction_payment / out.total_allocated)
        completion_series.add(mult, completed)
        price_series.add(mult, prices if prices else [float("nan")])
    return result


def recruitment_sweep(
    accept_probs: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    *,
    num_users: int = 1200,
    tasks_per_type: int = 40,
    num_types: int = 5,
    mean_delay: float = 1.0,
    reps: int = 5,
    rng: SeedLike = None,
) -> ExperimentResult:
    """Recruitment dynamics: how invitation uptake shapes solicitation.

    For each acceptance probability, run the event-driven cascade
    (:func:`repro.tree.dynamics.simulate_solicitation`) with the
    Remark 6.1 capacity stop-condition and measure:

    * the time until the supply threshold is met (NaN when never met);
    * the number of users recruited by then;
    * the completion rate of a subsequent RIT run on the recruited tree.

    The DARPA lesson, quantified: weak uptake does not just slow the
    cascade — below a threshold it strands the job entirely.
    """
    for p in accept_probs:
        if not 0.0 < p <= 1.0:
            raise ConfigurationError(f"accept_prob must be in (0,1], got {p}")
    gen = as_generator(rng)
    job = Job.uniform(num_types, tasks_per_type)
    dist = UserDistribution(num_types=num_types)
    mech = RIT(round_budget="until-complete")

    from repro.tree.dynamics import simulate_solicitation
    from repro.tree.growth import capacity_threshold
    from repro.workloads.scenarios import Scenario

    result = ExperimentResult(
        experiment_id="ext-recruitment",
        title="Solicitation dynamics vs invitation uptake",
        x_label="acceptance probability",
        y_label="(mixed; see series)",
        config={
            "users": num_users,
            "tasks_per_type": tasks_per_type,
            "mean_delay": mean_delay,
            "reps": reps,
        },
    )
    time_series = result.new_series("time to supply threshold")
    joined_series = result.new_series("users recruited")
    completion_series = result.new_series("RIT completion rate")

    for p in accept_probs:
        times: List[float] = []
        joined: List[float] = []
        completed: List[float] = []
        for _ in range(reps):
            scen_gen, run_gen = spawn(gen, 2)
            scenario = paper_scenario(num_users, job, scen_gen, distribution=dist)
            cascade = simulate_solicitation(
                scenario.graph,
                accept_prob=p,
                mean_delay=mean_delay,
                stop_condition=capacity_threshold(scenario.population, job),
                rng=scen_gen,
            )
            joined.append(float(cascade.num_joined))
            if cascade.stopped_by == "condition":
                times.append(cascade.end_time)
            else:
                times.append(float("nan"))
            recruited = Scenario(
                name="recruited",
                job=job,
                population=scenario.population,
                tree=cascade.tree,
                graph=scenario.graph,
            )
            out = mech.run(job, recruited.truthful_asks(), cascade.tree, run_gen)
            completed.append(1.0 if out.completed else 0.0)
        finite = [t for t in times if t == t]
        time_series.add(p, finite if finite else [float("nan")])
        joined_series.add(p, joined)
        completion_series.add(p, completed)
    return result
