"""Evaluator determinism under ``rng_policy="per-type"``.

The attack evaluator's verdicts must not depend on how the mechanism is
executed: a sharded per-type run (``run_type_shard`` per type +
``join_shards``) must reproduce the monolithic ``run``
utilities sample-for-sample for both the honest and the attacked
profile, and the profitability verdict must agree with the default
stream policy.
"""

import numpy as np

from repro.attacks.evaluator import compare_sybil_attack
from repro.attacks.sybil import SybilAttack, apply_attack
from repro.core.rit import RIT, pools_from_arrays, profile_arrays
from repro.core.rng import as_generator, spawn_seeds
from repro.core.types import Job
from repro.workloads.scenarios import paper_scenario
from repro.workloads.users import UserDistribution

REPS = 4


def scenario_inputs(seed=3, users=90, types=3, tasks_per_type=5):
    job = Job.uniform(types, tasks_per_type)
    scenario = paper_scenario(
        users, job, seed, distribution=UserDistribution(num_types=types)
    )
    return job, scenario.truthful_asks(), scenario.tree, scenario


def pinned_attack(asks):
    victim = sorted(asks)[len(asks) // 2]
    value = asks[victim].value
    return victim, SybilAttack.chain(victim, [1, 1], [value, value])


def run_sharded(mech, job, asks, tree, seed):
    """Drive the shard/join API exactly as ``run`` derives its seeds."""
    gen = as_generator(seed)
    uid_arr, type_arr, val_arr, cap_arr = profile_arrays(asks)
    k_max = int(cap_arr.max())
    by_type = pools_from_arrays(uid_arr, type_arr, val_arr, cap_arr)
    type_seeds = spawn_seeds(gen, job.num_types)
    shards = [
        mech.run_type_shard(
            tau,
            job.tasks_of(tau),
            by_type.get(tau),
            k_max,
            job.num_types,
            as_generator(type_seeds[tau]),
        )
        for tau in job.types()
        if job.tasks_of(tau) > 0
    ]
    return mech.join_shards(job, asks, tree.bfs_view(), shards)


class TestPerTypeEvaluation:
    def test_evaluation_is_deterministic(self):
        job, asks, tree, _ = scenario_inputs()
        victim, attack = pinned_attack(asks)
        mech = RIT(rng_policy="per-type", round_budget="until-complete")
        runs = [
            compare_sybil_attack(
                mech, job, asks, tree, attack, cost=1.0, reps=REPS, rng=11
            )
            for _ in range(2)
        ]
        assert runs[0].honest_samples == runs[1].honest_samples
        assert runs[0].deviant_samples == runs[1].deviant_samples

    def test_shard_joined_evaluation_matches_monolithic_samples(self):
        job, asks, tree, scenario = scenario_inputs()
        victim, attack = pinned_attack(asks)
        cost = scenario.population[victim].cost
        mech = RIT(rng_policy="per-type", round_budget="until-complete")
        comparison = compare_sybil_attack(
            mech, job, asks, tree, attack, cost=cost, reps=REPS, rng=11
        )
        attacked_asks, attacked_tree, identity_ids = apply_attack(
            attack, asks, tree
        )
        # Re-derive the evaluator's paired seeds, then recompute every
        # sample through the sharded path.
        seeds = spawn_seeds(11, REPS)
        for r in range(REPS):
            honest = run_sharded(
                mech, job, asks, tree, np.random.default_rng(seeds[r])
            )
            assert honest.utility_of(victim, cost) == (
                comparison.honest_samples[r]
            )
            attacked = run_sharded(
                mech, job, attacked_asks, attacked_tree,
                np.random.default_rng(seeds[r]),
            )
            assert attacked.group_utility(identity_ids, cost) == (
                comparison.deviant_samples[r]
            )

    def test_verdict_agrees_with_stream_policy(self):
        job, asks, tree, scenario = scenario_inputs()
        victim, attack = pinned_attack(asks)
        cost = scenario.population[victim].cost
        verdicts = []
        for policy in ("stream", "per-type"):
            mech = RIT(rng_policy=policy, round_budget="until-complete")
            comparison = compare_sybil_attack(
                mech, job, asks, tree, attack, cost=cost, reps=REPS, rng=11
            )
            verdicts.append(comparison.profitable)
        assert verdicts[0] == verdicts[1]
        assert verdicts[0] is False  # the §3-B sybil-proofness claim
