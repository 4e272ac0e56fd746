"""Tests for the full RIT mechanism (Algorithm 3)."""

import numpy as np
import pytest

from repro.core.exceptions import AllocationError, ConfigurationError, ModelError
from repro.core.rit import BUDGET_POLICIES, RIT
from repro.core.types import Ask, Job, Population, User
from repro.tree.incentive_tree import ROOT, IncentiveTree
from repro.workloads.scenarios import paper_scenario
from repro.workloads.users import UserDistribution
from tests.core.reference_rit import MECHANISMS


class TestConfiguration:
    def test_h_domain(self):
        for h in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ConfigurationError):
                RIT(h=h)

    def test_budget_policy_domain(self):
        with pytest.raises(ConfigurationError):
            RIT(round_budget="bogus")
        for policy in BUDGET_POLICIES:
            RIT(round_budget=policy)  # no raise

    def test_decay_domain(self):
        for decay in (0.0, 1.0, -1.0):
            with pytest.raises(ConfigurationError):
                RIT(decay=decay)

    def test_k_max_override_domain(self):
        with pytest.raises(ConfigurationError):
            RIT(k_max=0)

    def test_sample_rate_scale_domain(self):
        with pytest.raises(ConfigurationError):
            RIT(sample_rate_scale=0.0)
        with pytest.raises(ConfigurationError):
            RIT(sample_rate_scale=-1.0)


class TestBudgets:
    def test_lemma_policy_matches_bounds(self):
        from repro.core.bounds import max_rounds

        mech = RIT(h=0.8, round_budget="lemma")
        assert mech.budget_for(5000, 20, 10) == max_rounds(0.8, 10, 20, 5000)

    def test_paper_policy_is_at_least_one(self):
        mech = RIT(h=0.8, round_budget="paper")
        assert mech.budget_for(100, 20, 10) == 1  # lemma gives 0 here

    def test_until_complete_budget_is_generous(self):
        mech = RIT(round_budget="until-complete")
        assert mech.budget_for(100, 20, 10) >= 32

    def test_zero_tasks_zero_budget(self):
        assert RIT().budget_for(0, 20, 10) == 0


@pytest.mark.parametrize("engine", MECHANISMS)
class TestValidation:
    """Every engine (and the oracle) rejects a bad profile with the same
    message, and the checks run in a fixed order: extra asks, then missing
    asks, then the first unknown type in profile order."""

    def _tree(self, ids):
        tree = IncentiveTree()
        for i in ids:
            tree.attach(i, ROOT)
        return tree

    def _error(self, engine, job, asks, tree):
        with pytest.raises(ModelError) as excinfo:
            MECHANISMS[engine]().run(
                job, asks, tree, np.random.default_rng(0)
            )
        return str(excinfo.value)

    def test_ask_without_tree_node_rejected(self, engine):
        message = self._error(
            engine, Job([1]), {0: Ask(0, 1, 1.0)}, self._tree([])
        )
        assert message == (
            "asks from participants not in the incentive tree: [0]…"
        )

    def test_tree_node_without_ask_rejected(self, engine):
        message = self._error(engine, Job([1]), {}, self._tree([0]))
        assert message == (
            "tree nodes without asks: [0]… (every user submits an ask "
            "upon joining)"
        )

    def test_ask_for_unknown_type_rejected(self, engine):
        message = self._error(
            engine, Job([1]), {0: Ask(5, 1, 1.0)}, self._tree([0])
        )
        assert message == "user 0 bids for type 5, but the job has only 1 types"

    def test_messages_name_the_five_smallest_ids(self, engine):
        tree = self._tree(range(10))
        asks = {uid: Ask(0, 1, 1.0) for uid in (20, 15, 11, 12, 13, 14, 3)}
        message = self._error(engine, Job([1]), asks, tree)
        assert message == (
            "asks from participants not in the incentive tree: "
            "[11, 12, 13, 14, 15]…"
        )
        asks = {uid: Ask(0, 1, 1.0) for uid in (9, 0, 7, 2)}
        message = self._error(engine, Job([1]), asks, tree)
        assert message.startswith("tree nodes without asks: [1, 3, 4, 5, 6]…")

    def test_extra_ask_reported_before_missing_ask(self, engine):
        # Node 1 has no ask, id 9 is not a node, and 0 bids for type 4.
        asks = {0: Ask(4, 1, 1.0), 9: Ask(0, 1, 1.0), 2: Ask(0, 1, 1.0)}
        message = self._error(engine, Job([1, 1]), asks, self._tree([0, 1, 2]))
        assert message.startswith("asks from participants not in")
        assert "[9]" in message

    def test_missing_ask_reported_before_unknown_type(self, engine):
        asks = {0: Ask(4, 1, 1.0), 2: Ask(0, 1, 1.0)}
        message = self._error(engine, Job([1, 1]), asks, self._tree([0, 1, 2]))
        assert message.startswith("tree nodes without asks: [1]…")

    def test_first_unknown_type_in_profile_order_is_named(self, engine):
        asks = {3: Ask(7, 1, 1.0), 1: Ask(5, 1, 1.0), 2: Ask(0, 1, 1.0)}
        message = self._error(engine, Job([1, 1]), asks, self._tree([1, 2, 3]))
        assert message == "user 3 bids for type 7, but the job has only 2 types"


class TestEndToEnd:
    @pytest.fixture
    def scenario(self):
        job = Job.uniform(4, 20)
        return paper_scenario(
            300, job, rng=42, distribution=UserDistribution(num_types=4)
        )

    def test_until_complete_finishes(self, scenario):
        mech = RIT(round_budget="until-complete")
        out = mech.run(
            scenario.job, scenario.truthful_asks(), scenario.tree, rng=1
        )
        assert out.completed
        assert out.total_allocated == scenario.job.size

    def test_allocation_covers_each_type_exactly(self, scenario):
        mech = RIT(round_budget="until-complete")
        asks = scenario.truthful_asks()
        out = mech.run(scenario.job, asks, scenario.tree, rng=2)
        per_type = {tau: 0 for tau in scenario.job.types()}
        for uid, x in out.allocation.items():
            per_type[asks[uid].task_type] += x
        for tau in scenario.job.types():
            assert per_type[tau] == scenario.job.tasks_of(tau)

    def test_no_user_exceeds_claimed_capacity(self, scenario):
        mech = RIT(round_budget="until-complete")
        asks = scenario.truthful_asks()
        out = mech.run(scenario.job, asks, scenario.tree, rng=3)
        for uid, x in out.allocation.items():
            assert x <= asks[uid].capacity

    def test_individual_rationality_under_truthful_asks(self, scenario):
        """Theorem 1: truthful utility is never negative."""
        mech = RIT(round_budget="until-complete")
        asks = scenario.truthful_asks()
        costs = scenario.costs()
        for seed in range(5):
            out = mech.run(scenario.job, asks, scenario.tree, rng=seed)
            for uid in set(out.payments) | set(out.allocation):
                assert out.utility_of(uid, costs[uid]) >= -1e-9

    def test_auction_payment_covers_cost_per_winner(self, scenario):
        """Lemma 6.1: p^A_j >= x_j * c_j under truthful asks."""
        mech = RIT(round_budget="until-complete")
        asks = scenario.truthful_asks()
        costs = scenario.costs()
        out = mech.run(scenario.job, asks, scenario.tree, rng=7)
        for uid, x in out.allocation.items():
            assert out.auction_payment_of(uid) >= x * costs[uid] - 1e-9

    def test_final_payment_at_least_auction_payment(self, scenario):
        mech = RIT(round_budget="until-complete")
        out = mech.run(scenario.job, scenario.truthful_asks(), scenario.tree, rng=4)
        for uid, pa in out.auction_payments.items():
            assert out.payment_of(uid) >= pa - 1e-9

    def test_referral_outlay_bounded(self, scenario):
        """§7-C: the platform pays at most 2x the auction total."""
        mech = RIT(round_budget="until-complete")
        out = mech.run(scenario.job, scenario.truthful_asks(), scenario.tree, rng=5)
        assert out.total_payment <= 2 * out.total_auction_payment + 1e-9

    def test_determinism_with_same_seed(self, scenario):
        mech = RIT(round_budget="until-complete")
        asks = scenario.truthful_asks()
        a = mech.run(scenario.job, asks, scenario.tree, rng=99)
        b = mech.run(scenario.job, asks, scenario.tree, rng=99)
        assert a.allocation == b.allocation
        assert a.payments == b.payments

    def test_round_records_are_coherent(self, scenario):
        mech = RIT(round_budget="until-complete")
        out = mech.run(scenario.job, scenario.truthful_asks(), scenario.tree, rng=6)
        assert sum(r.num_winners for r in out.rounds) == out.total_allocated
        for record in out.rounds:
            assert record.q_before >= record.num_winners
            assert record.task_type in list(scenario.job.types())


class TestVoiding:
    def _scenario(self, capacity_total, m_i):
        """Two users of type 0 with given joint capacity; job wants m_i."""
        tree = IncentiveTree()
        tree.attach(0, ROOT)
        tree.attach(1, 0)
        asks = {
            0: Ask(0, capacity_total // 2 or 1, 1.0),
            1: Ask(0, capacity_total - (capacity_total // 2 or 1), 2.0),
        }
        return Job([m_i]), asks, tree

    def test_insufficient_supply_voids(self):
        job, asks, tree = self._scenario(capacity_total=2, m_i=10)
        out = RIT(round_budget="until-complete").run(job, asks, tree, rng=0)
        assert not out.completed
        assert out.allocation == {}
        assert out.payments == {}
        assert out.auction_payments == {}

    def test_void_keeps_round_diagnostics(self):
        job, asks, tree = self._scenario(capacity_total=2, m_i=10)
        out = RIT(round_budget="until-complete").run(job, asks, tree, rng=0)
        assert isinstance(out.rounds, list)

    def test_raise_on_failure(self):
        job, asks, tree = self._scenario(capacity_total=2, m_i=10)
        mech = RIT(round_budget="until-complete", raise_on_failure=True)
        with pytest.raises(AllocationError):
            mech.run(job, asks, tree, rng=0)

    def test_lemma_policy_zero_budget_always_voids(self):
        """Fig. 9-scale parameters give a zero Lemma budget: strict mode
        must void deterministically."""
        job = Job.uniform(2, 50)
        tree = IncentiveTree()
        asks = {}
        gen = np.random.default_rng(0)
        for i in range(200):
            tree.attach(i, ROOT)
            asks[i] = Ask(int(gen.integers(0, 2)), 20, float(gen.uniform(0.1, 10)))
        out = RIT(h=0.8, round_budget="lemma").run(job, asks, tree, rng=1)
        assert not out.completed
        assert out.payments == {}

    def test_empty_ask_profile_with_nonempty_job_voids(self):
        out = RIT().run(Job([3]), {}, IncentiveTree(), rng=0)
        assert not out.completed


class TestTruthfulProbabilityBound:
    def test_reports_at_least_h_for_large_jobs(self):
        mech = RIT(h=0.8, round_budget="lemma")
        assert mech.truthful_probability_bound(Job.uniform(10, 5000), 20) >= 0.8

    def test_until_complete_guarantee_is_negligible_at_small_scale(self):
        """The generous policy buys completion at the cost of the formal
        guarantee: the product bound collapses at Fig. 9-like scales."""
        mech = RIT(h=0.8, round_budget="until-complete")
        assert mech.truthful_probability_bound(Job.uniform(10, 100), 20) < 0.01

    def test_reports_zero_when_per_round_bound_vacuous(self):
        mech = RIT(h=0.8, round_budget="until-complete")
        # 2*K_max >= m_i makes the Lemma 6.2 bound non-positive.
        assert mech.truthful_probability_bound(Job.uniform(10, 30), 20) == 0.0
