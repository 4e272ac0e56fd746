"""Component scaling benchmarks (pytest-benchmark proper).

Micro/meso benchmarks for the pieces whose costs compose into Fig. 8:
graph generation, spanning-forest construction, tree payments, and a full
RIT run at a mid scale.  Useful for catching performance regressions the
figure-level benches would blur.
"""

import itertools

import numpy as np
import pytest

from repro.core.payments import tree_payments
from repro.core.rit import RIT
from repro.core.types import Job
from repro.socialnet.generators import twitter_like
from repro.tree.builder import build_spanning_forest, random_tree
from repro.workloads.scenarios import paper_scenario
from repro.workloads.users import UserDistribution


@pytest.mark.parametrize("n", [1_000, 5_000])
def test_twitter_like_generation(benchmark, n):
    seeds = itertools.count()

    def gen():
        return twitter_like(n, rng=next(seeds), mean_out_degree=12)

    graph = benchmark(gen)
    assert graph.num_nodes == n


def test_spanning_forest_10k(benchmark):
    graph = twitter_like(10_000, rng=0, mean_out_degree=12)
    tree = benchmark(lambda: build_spanning_forest(graph))
    assert len(tree) == 10_000


def test_tree_payments_10k(benchmark):
    gen = np.random.default_rng(1)
    tree = random_tree(10_000, gen)
    pays = {i: float(gen.uniform(0, 10)) for i in range(10_000)}
    types = {i: int(gen.integers(0, 10)) for i in range(10_000)}
    payments = benchmark(lambda: tree_payments(tree, pays, types))
    assert len(payments) == 10_000


def test_full_rit_run_2k_users(benchmark):
    job = Job.uniform(10, 100)
    scenario = paper_scenario(
        2_000, job, rng=2, distribution=UserDistribution(num_types=10)
    )
    asks = scenario.truthful_asks()
    mech = RIT(round_budget="until-complete")
    seeds = itertools.count()

    def run():
        return mech.run(job, asks, scenario.tree, np.random.default_rng(next(seeds)))

    out = benchmark(run)
    assert out.completed
