"""RNG policies and the shard/join decomposition of ``RIT.run``.

The sharded service path (``run_type_shard`` per type + ``join_shards``)
must be an exact refactoring of the monolithic ``run`` under
``rng_policy="per-type"`` — same winners, payments, and round records.
The default ``"stream"`` policy keeps the historical single-generator
draw order (pinned separately by the golden tests).
"""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.outcome import TypeShardResult
from repro.core.rit import (
    RIT,
    RNG_POLICIES,
    pools_from_arrays,
    profile_arrays,
)
from repro.core.rng import as_generator, spawn_seeds
from repro.service.ledger import canonical_outcome
from repro.workloads.scenarios import paper_scenario
from repro.workloads.users import UserDistribution
from repro.core.types import Job


def scenario_inputs(seed=3, users=90, types=3, tasks_per_type=5):
    job = Job.uniform(types, tasks_per_type)
    scenario = paper_scenario(
        users, job, seed, distribution=UserDistribution(num_types=types)
    )
    return job, scenario.truthful_asks(), scenario.tree


class TestRngPolicy:
    def test_registry(self):
        assert RNG_POLICIES == ("stream", "per-type")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            RIT(rng_policy="bogus")

    def test_policies_are_self_deterministic(self):
        job, asks, tree = scenario_inputs()
        for policy in RNG_POLICIES:
            mech = RIT(rng_policy=policy, round_budget="until-complete")
            first = mech.run(job, asks, tree, 11)
            second = mech.run(job, asks, tree, 11)
            assert canonical_outcome(first) == canonical_outcome(second)

    def test_engines_agree_under_per_type(self):
        job, asks, tree = scenario_inputs()
        outcomes = [
            RIT(
                engine=engine,
                rng_policy="per-type",
                round_budget="until-complete",
            ).run(job, asks, tree, 11)
            for engine in ("sorted", "reference")
        ]
        assert canonical_outcome(outcomes[0]) == canonical_outcome(outcomes[1])


class TestShardDecomposition:
    def test_manual_shard_merge_equals_run(self):
        job, asks, tree = scenario_inputs()
        seed = 11
        mech = RIT(rng_policy="per-type", round_budget="until-complete")
        whole = mech.run(job, asks, tree, seed)

        # Re-derive the per-type seeds exactly as run() does, then drive
        # the shard/join API by hand.
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
        merged = mech.join_shards(
            job, asks, tree, shards, type_width=int(type_arr.max()) + 1
        )
        assert canonical_outcome(merged) == canonical_outcome(whole)

    def test_join_without_store_needs_the_type_width(self):
        job, asks, tree = scenario_inputs(users=40)
        mech = RIT(rng_policy="per-type")
        covered = [
            TypeShardResult(tau, True, {}, {}, ()) for tau in job.types()
        ]
        with pytest.raises(ConfigurationError) as excinfo:
            mech.join_shards(job, asks, tree, covered)
        assert "type_width" in str(excinfo.value)

    def test_join_with_no_shards_voids_nonempty_job(self):
        job, asks, tree = scenario_inputs()
        mech = RIT(rng_policy="per-type")
        outcome = mech.join_shards(job, {}, tree, [])
        assert not outcome.completed
        assert outcome.payments == {}

    def test_shard_results_are_frozen(self):
        job, asks, tree = scenario_inputs(users=40)
        mech = RIT(rng_policy="per-type", round_budget="until-complete")
        gen = as_generator(1)
        uid_arr, type_arr, val_arr, cap_arr = profile_arrays(asks)
        by_type = pools_from_arrays(uid_arr, type_arr, val_arr, cap_arr)
        shard = mech.run_type_shard(
            0, job.tasks_of(0), by_type.get(0), int(cap_arr.max()),
            job.num_types, gen,
        )
        with pytest.raises(Exception):
            shard.covered = False
