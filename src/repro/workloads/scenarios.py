"""Named end-to-end scenarios — bundled workload + social graph + tree.

A :class:`Scenario` packages everything a mechanism run needs.  Besides the
paper's synthetic setup, two domain scenarios from the paper's introduction
are provided for the examples: mobile spectrum sensing (§3-A's running
example: areas with points of interest) and environmental monitoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.columnar import AskProfile
from repro.core.exceptions import ConfigurationError
from repro.core.rng import SeedLike, as_generator, spawn
from repro.core.types import Job, Population
from repro.socialnet.generators import twitter_like
from repro.socialnet.graph import SocialGraph
from repro.tree.builder import build_spanning_forest
from repro.tree.incentive_tree import IncentiveTree
from repro.workloads.jobs import uniform_job
from repro.workloads.users import PAPER_USERS, UserDistribution

__all__ = [
    "Scenario",
    "paper_scenario",
    "spectrum_sensing",
    "healthcare",
    "environmental_monitoring",
]


@dataclass
class Scenario:
    """One fully-specified crowdsensing instance.

    Attributes
    ----------
    name:
        Scenario label for reports.
    job:
        The sensing job ``J``.
    population:
        User profiles (private costs and capacities).
    tree:
        The incentive tree grown during solicitation.
    graph:
        The underlying social graph (``None`` when the tree was synthetic).
    """

    name: str
    job: Job
    population: Population
    tree: IncentiveTree
    graph: Optional[SocialGraph] = None

    def truthful_asks(self) -> AskProfile:
        """The honest ask profile of the tree's users, in tree-node order.

        Tree nodes outside the population have no ask.  The profile is
        immutable and gathered from the population's columns without
        building an ``Ask``; copy it with ``dict(...)`` to edit.
        """
        nodes = np.fromiter(self.tree.nodes(), np.int64, count=len(self.tree))
        return self.population.truthful_asks().gather(nodes)

    def costs(self) -> Dict[int, float]:
        """``{user_id: c_j}`` for utility accounting."""
        return {u.user_id: u.cost for u in self.population}

    @property
    def num_users(self) -> int:
        return len(self.tree)


def paper_scenario(
    num_users: int,
    job: Optional[Job] = None,
    rng: SeedLike = None,
    *,
    distribution: UserDistribution = PAPER_USERS,
    mean_out_degree: float = 12.0,
    supply_threshold: bool = False,
    graph_builder: Optional[Callable[..., SocialGraph]] = None,
) -> Scenario:
    """The §7-A evaluation setup at an arbitrary scale.

    Generates a twitter-like social graph over ``num_users`` users, grows
    the spanning-forest incentive tree, and samples the paper's user
    profile distribution.  The default job is the Fig. 6(a) one
    (10 types × 5000 tasks) — pass a smaller job for laptop-scale runs.

    ``graph_builder`` swaps the social-graph regime: any
    ``(num_users, rng=...) -> SocialGraph`` callable (e.g.
    :func:`repro.socialnet.generators.watts_strogatz` or
    :func:`~repro.socialnet.generators.forest_fire`) replaces the
    twitter-like default, consuming the same spawned graph RNG stream so
    the user population is unchanged across regimes.

    With ``supply_threshold=True`` the solicitation stops at the
    Remark 6.1 threshold — as soon as the joined users can place ``2·m_i``
    unit asks for every type — instead of recruiting the whole graph
    (the Fig. 9 setting, where the supply/demand ratio matters).  Users
    outside the tree exist in the population but do not participate.
    """
    if num_users <= 0:
        raise ConfigurationError(f"num_users must be positive, got {num_users}")
    gen = as_generator(rng)
    graph_rng, user_rng = spawn(gen, 2)
    job = job if job is not None else uniform_job()
    if graph_builder is not None:
        graph = graph_builder(num_users, rng=graph_rng)
    else:
        graph = twitter_like(
            num_users, rng=graph_rng, mean_out_degree=mean_out_degree
        )
    population = distribution.sample(num_users, user_rng)
    if supply_threshold:
        from repro.tree.growth import grow_tree

        tree = grow_tree(graph, population, job)
    else:
        tree = build_spanning_forest(graph)
    return Scenario(
        name="paper-§7A",
        job=job,
        population=population,
        tree=tree,
        graph=graph,
    )


def spectrum_sensing(
    num_users: int = 400,
    pois_per_area: int = 40,
    num_areas: int = 2,
    rng: SeedLike = None,
) -> Scenario:
    """§3-A's running example: spectrum sensing over geographic areas.

    Each area is one task type; each point of interest (POI) is one task.
    Users are clustered near one area (their type) and have small
    capacities — a phone can visit only a handful of POIs in the window.
    """
    gen = as_generator(rng)
    graph_rng, user_rng = spawn(gen, 2)
    job = Job.uniform(num_areas, pois_per_area)
    distribution = UserDistribution(num_types=num_areas, max_capacity=5, max_cost=4.0)
    population = distribution.sample(num_users, user_rng)
    graph = twitter_like(num_users, rng=graph_rng, mean_out_degree=8.0)
    tree = build_spanning_forest(graph)
    return Scenario(
        name="spectrum-sensing",
        job=job,
        population=population,
        tree=tree,
        graph=graph,
    )


def healthcare(
    num_users: int = 500,
    patients_per_cohort: int = 25,
    num_cohorts: int = 4,
    rng: SeedLike = None,
) -> Scenario:
    """Healthcare crowdsensing (§1): wearable users report cohort vitals.

    Each cohort (age band / condition group) is one task type; each
    required patient-report is one task.  Capacities are small (a wearable
    covers one person plus occasionally a family member's device) and
    costs skew higher — health data carries a privacy premium.
    """
    gen = as_generator(rng)
    graph_rng, user_rng = spawn(gen, 2)
    job = Job.uniform(num_cohorts, patients_per_cohort)
    distribution = UserDistribution(
        num_types=num_cohorts, max_capacity=3, max_cost=9.0
    )
    population = distribution.sample(num_users, user_rng)
    graph = twitter_like(num_users, rng=graph_rng, mean_out_degree=7.0)
    tree = build_spanning_forest(graph)
    return Scenario(
        name="healthcare",
        job=job,
        population=population,
        tree=tree,
        graph=graph,
    )


def environmental_monitoring(
    num_users: int = 600,
    sites_per_region: int = 30,
    num_regions: int = 5,
    rng: SeedLike = None,
) -> Scenario:
    """Environmental monitoring: many regions, moderate per-user capacity."""
    gen = as_generator(rng)
    graph_rng, user_rng = spawn(gen, 2)
    job = Job.uniform(num_regions, sites_per_region)
    distribution = UserDistribution(num_types=num_regions, max_capacity=8, max_cost=6.0)
    population = distribution.sample(num_users, user_rng)
    graph = twitter_like(num_users, rng=graph_rng, mean_out_degree=10.0)
    tree = build_spanning_forest(graph)
    return Scenario(
        name="environmental-monitoring",
        job=job,
        population=population,
        tree=tree,
        graph=graph,
    )
