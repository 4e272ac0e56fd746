"""Tests for the empirical property checkers."""

import numpy as np
import pytest

from repro.analysis.properties import (
    check_individual_rationality,
    check_solicitation_incentive,
    misreport_violation_rate,
    sybil_violation_rate,
)
from repro.baselines.kth_price import KthPriceAuction
from repro.core.outcome import MechanismOutcome
from repro.core.rit import RIT
from repro.core.types import Ask, Job
from repro.tree.incentive_tree import ROOT, IncentiveTree
from repro.workloads.scenarios import paper_scenario
from repro.workloads.users import UserDistribution


class TestIndividualRationality:
    def test_holds_for_nonnegative_utilities(self):
        out = MechanismOutcome(
            allocation={1: 1}, auction_payments={1: 3.0}, payments={1: 3.0}
        )
        report = check_individual_rationality(out, {1: 2.0})
        assert report.holds

    def test_detects_violation(self):
        out = MechanismOutcome(
            allocation={1: 2}, auction_payments={1: 3.0}, payments={1: 3.0}
        )
        report = check_individual_rationality(out, {1: 2.0})
        assert not report.holds
        assert "1" in report.detail

    def test_empty_outcome_holds(self):
        assert check_individual_rationality(MechanismOutcome(), {}).holds


class TestSolicitationIncentive:
    def _setting(self):
        tree = IncentiveTree()
        tree.attach(1, ROOT)
        tree.attach(2, ROOT)
        asks = {1: Ask(0, 1, 2.0), 2: Ask(0, 1, 3.0)}
        return Job([1, 1]), asks, tree

    def test_rit_satisfies_theorem_4(self):
        job, asks, tree = self._setting()
        mech = RIT(round_budget="until-complete")
        report = check_solicitation_incentive(
            mech, job, asks, tree,
            solicitor=1,
            # Different type -> referral value; capacity 2 so the type can
            # clear (a single unit ask never survives consensus flooring).
            newcomer_ask=Ask(1, 2, 1.0),
            rng=3, reps=10,
        )
        assert report.holds, report.detail

    def test_rit_gains_from_own_referral(self):
        """Direct Theorem 4 check on a scenario where the newcomer's
        auction payment is deterministic enough to compare."""
        tree = IncentiveTree()
        tree.attach(1, ROOT)
        tree.attach(2, ROOT)
        tree.attach(3, ROOT)
        asks = {
            1: Ask(0, 2, 1.0),
            2: Ask(0, 2, 2.0),
            3: Ask(1, 2, 1.0),
        }
        job = Job([2, 1])
        mech = RIT(round_budget="until-complete")
        report = check_solicitation_incentive(
            mech, job, asks, tree,
            solicitor=1,
            newcomer_ask=Ask(1, 2, 0.5),
            rng=5, reps=20,
        )
        assert report.holds, report.detail

    def test_placements_share_coins_for_every_seed_kind(self):
        """Both placements replay the same paired seeds, so an int seed, a
        Generator and a SeedSequence built from it give one report."""
        scenario = paper_scenario(
            150,
            Job.uniform(3, 10),
            8,
            distribution=UserDistribution(num_types=3),
        )
        mech = RIT(round_budget="until-complete")
        solicitor = next(iter(scenario.tree.nodes()))

        def detail(rng):
            return check_solicitation_incentive(
                mech, scenario.job, scenario.truthful_asks(), scenario.tree,
                solicitor=solicitor,
                newcomer_ask=Ask(1, 2, 0.5),
                rng=rng, reps=6,
            ).detail

        details = {
            detail(3),
            detail(np.random.default_rng(3)),
            detail(np.random.SeedSequence(3)),
        }
        assert details == {"as own child: 1.785346; elsewhere: 1.645703"}

    def test_unknown_solicitor_rejected(self):
        job, asks, tree = self._setting()
        from repro.core.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            check_solicitation_incentive(
                RIT(), job, asks, tree, solicitor=99,
                newcomer_ask=Ask(0, 1, 1.0),
            )


class TestViolationRates:
    @pytest.fixture(scope="class")
    def scenario(self):
        return paper_scenario(
            150,
            Job.uniform(3, 10),
            rng=8,
            distribution=UserDistribution(num_types=3),
        )

    def test_misreport_rate_in_unit_interval(self, scenario):
        mech = RIT(round_budget="until-complete")
        rate = misreport_violation_rate(
            mech, scenario, user_id=0,
            deviations=(1.5,), trials=3, reps=2, rng=0,
        )
        assert 0.0 <= rate <= 1.0

    def test_sybil_rate_in_unit_interval(self, scenario):
        mech = RIT(round_budget="until-complete")
        victim = next(
            u.user_id for u in scenario.population if u.capacity >= 3
        )
        rate = sybil_violation_rate(
            mech, scenario, victim=victim,
            identity_counts=(2,), trials=3, reps=2, rng=0,
        )
        assert 0.0 <= rate <= 1.0

    def test_trials_validation(self, scenario):
        from repro.core.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            misreport_violation_rate(
                RIT(), scenario, user_id=0, deviations=(1.0,), trials=0
            )
        with pytest.raises(ConfigurationError):
            sybil_violation_rate(
                RIT(), scenario, victim=0, identity_counts=(2,), trials=0
            )
