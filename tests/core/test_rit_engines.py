"""RIT-level engine equivalence and the pre-engine golden freeze.

``tests/goldens/rit_engine/pre_pr_outcomes.json`` was captured by running
the mechanism *before* the sorted engine existed (commit ``1f8922f``),
over five seeded scenarios.  Both engines must keep reproducing those
outcomes byte for byte — allocations, prices, payments and per-round logs
— which is the acceptance criterion that the fast path changed nothing
observable.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.numeric import PAYMENT_ATOL
from repro.core.rit import ENGINES, RIT
from repro.core.types import Ask, Job
from repro.tree.incentive_tree import ROOT, IncentiveTree
from repro.workloads.scenarios import paper_scenario
from repro.workloads.users import UserDistribution
from tests.core.dense_payments import dense_payments

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent
    / "goldens"
    / "rit_engine"
    / "pre_pr_outcomes.json"
)


def load_goldens():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def build_scenario(config):
    job = Job.uniform(config["types"], config["tasks_per_type"])
    scenario = paper_scenario(
        config["users"],
        job,
        rng=config["scenario_seed"],
        distribution=UserDistribution(num_types=config["types"]),
    )
    return job, scenario


def dense_oracle_payments(outcome, asks, tree, decay):
    """The non-zero payments the dense O(N·m) sweep gives this outcome."""
    view = tree.bfs_view()
    types = view.scatter(
        np.fromiter(asks, dtype=np.int64),
        np.fromiter((a.task_type for a in asks.values()), dtype=np.int64),
        -1,
    )
    pay = view.scatter(
        np.fromiter(outcome.auction_payments, dtype=np.int64),
        np.fromiter(outcome.auction_payments.values(), dtype=np.float64),
        0.0,
    )
    final = dense_payments(view, types, pay, decay)
    keep = np.abs(final) > PAYMENT_ATOL
    return dict(zip(view.uids[keep].tolist(), final[keep].tolist()))


def outcome_rounds(outcome):
    return [
        [
            r.task_type,
            r.round_index,
            r.q_before,
            r.num_winners,
            None if math.isnan(r.price) else r.price,
            r.n_s,
            r.overflow_trimmed,
        ]
        for r in outcome.rounds
    ]


def paper_instances(gen):
    """Four small ``paper_scenario`` profiles with random sizes and type
    counts, each with its run seed."""
    for _ in range(4):
        users = int(gen.integers(40, 200))
        types = int(gen.integers(1, 5))
        job = Job.uniform(types, int(gen.integers(2, 15)))
        scenario = paper_scenario(
            users,
            job,
            rng=int(gen.integers(0, 1000)),
            distribution=UserDistribution(num_types=types),
        )
        run_seed = int(gen.integers(0, 2**31))
        yield job, scenario.truthful_asks(), scenario.tree, run_seed


def payment_edge_instances(gen):
    """Profiles at the payment kernel's edges.

    Chains deeper than 8, payment rows 1 to 17 types wide (either side of
    numpy's 8-wide pairwise block), job types above the highest bid type
    with no tasks, and jobs close to the whole supply, where (nearly)
    every node wins.  Each comes with its run seed.
    """
    for users, shape, bid_types, job_types, share in (
        (12, "chain", 2, 2, 0.9),
        (30, "chain", 1, 1, 0.5),
        (40, "broom", 17, 17, 0.5),
        (60, "random", 9, 12, 0.3),
        (50, "random", 8, 8, 0.9),
    ):
        tree = IncentiveTree()
        types = gen.permutation(np.arange(users) % bid_types)
        asks = {}
        for uid in range(users):
            if shape == "chain" or (shape == "broom" and uid < users // 2):
                parent = uid - 1
            else:
                parent = int(gen.integers(-1, uid))
            tree.attach(uid, ROOT if parent < 0 else parent)
            asks[uid] = Ask(
                task_type=int(types[uid]),
                capacity=int(gen.integers(1, 4)),
                value=float(gen.uniform(0.5, 5.0)),
            )
        supply = [
            sum(a.capacity for a in asks.values() if a.task_type == tau)
            for tau in range(bid_types)
        ]
        tasks = [max(1, int(units * share)) for units in supply]
        job = Job(tasks + [0] * (job_types - bid_types))
        yield job, asks, tree, int(gen.integers(0, 2**31))


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            RIT(engine="bogus")

    def test_default_engine_is_sorted(self):
        assert RIT().engine == "sorted"
        assert "sorted" in ENGINES and "reference" in ENGINES


class TestPrePRGoldens:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("key", sorted(load_goldens()))
    def test_outcome_identical_to_pre_engine_run(self, key, engine):
        golden = load_goldens()[key]
        config = golden["config"]
        job, scenario = build_scenario(config)
        mech = RIT(round_budget=config["policy"], engine=engine)
        outcome = mech.run(
            job,
            scenario.truthful_asks(),
            scenario.tree,
            np.random.default_rng(config["run_seed"]),
        )
        assert outcome.completed == golden["completed"]
        assert {
            str(uid): count for uid, count in sorted(outcome.allocation.items())
        } == golden["allocation"]
        assert {
            str(uid): pay
            for uid, pay in sorted(outcome.auction_payments.items())
        } == golden["auction_payments"]
        assert {
            str(uid): pay for uid, pay in sorted(outcome.payments.items())
        } == golden["payments"]
        assert len(outcome.rounds) == golden["num_rounds"]
        assert outcome_rounds(outcome) == golden["rounds"]


class TestEngineEquivalence:
    @pytest.mark.parametrize("policy", ["paper", "until-complete"])
    def test_engines_agree_on_random_instances(self, policy):
        gen = np.random.default_rng(0 if policy == "paper" else 1)
        instances = list(paper_instances(gen))
        instances += payment_edge_instances(np.random.default_rng(2))
        for trial, (job, asks, tree, run_seed) in enumerate(instances):
            outcomes = {}
            for engine in ENGINES:
                mech = RIT(round_budget=policy, engine=engine)
                outcomes[engine] = mech.run(
                    job, asks, tree, np.random.default_rng(run_seed)
                )
            fast = outcomes["sorted"]
            if fast.completed:
                assert fast.payments == dense_oracle_payments(
                    fast, asks, tree, mech.decay
                ), f"policy {policy} trial {trial} vs the dense oracle"
            for other_name in ("reference", "columnar"):
                other = outcomes[other_name]
                context = f"policy {policy} trial {trial} vs {other_name}"
                assert fast.completed == other.completed, context
                assert fast.allocation == other.allocation, context
                assert (
                    fast.auction_payments == other.auction_payments
                ), context
                assert fast.payments == other.payments, context
                assert outcome_rounds(fast) == outcome_rounds(other), context

    def test_stage_timings_populated_by_presorted_engines_only(self):
        job = Job.uniform(2, 5)
        scenario = paper_scenario(
            60, job, rng=0, distribution=UserDistribution(num_types=2)
        )
        asks = scenario.truthful_asks()
        for engine in ("sorted", "columnar"):
            outcome = RIT(engine=engine).run(
                job, asks, scenario.tree, np.random.default_rng(0)
            )
            assert set(outcome.stage_timings) == {
                "sample",
                "consensus",
                "select",
                "consume",
            }, engine
            assert all(v >= 0.0 for v in outcome.stage_timings.values())
            assert sum(outcome.stage_timings.values()) > 0.0
        reference_outcome = RIT(engine="reference").run(
            job, asks, scenario.tree, np.random.default_rng(0)
        )
        assert reference_outcome.stage_timings == {}
