"""Tests for coalitions and d-truthfulness probes."""

import numpy as np
import pytest

from repro.attacks.collusion import (
    Coalition,
    apply_coalition,
    compare_coalition,
    random_price_cartel,
)
from repro.attacks.evaluator import AttackComparison
from repro.baselines.kth_price import KthPriceAuction
from repro.core.exceptions import AttackError
from repro.core.rit import RIT
from repro.core.types import Ask, Job
from repro.tree.incentive_tree import ROOT, IncentiveTree
from repro.workloads.scenarios import paper_scenario
from repro.workloads.users import UserDistribution


def star_profile():
    tree = IncentiveTree()
    asks = {}
    for i, (tau, cap, value) in enumerate(
        [(0, 1, 2.0), (0, 2, 3.0), (0, 1, 5.0), (1, 2, 4.0)], start=1
    ):
        tree.attach(i, ROOT)
        asks[i] = Ask(tau, cap, value)
    return asks, tree


class TestCoalition:
    def test_size_and_weight(self):
        asks, _ = star_profile()
        c = Coalition(members=(1, 2), value_overrides={1: 9.0})
        assert c.size == 2
        assert c.unit_weight(asks) == 3  # caps 1 + 2

    def test_validation(self):
        with pytest.raises(AttackError):
            Coalition(members=())
        with pytest.raises(AttackError):
            Coalition(members=(1, 1))
        with pytest.raises(AttackError):
            Coalition(members=(1,), value_overrides={2: 1.0})
        with pytest.raises(AttackError):
            Coalition(members=(1,), value_overrides={1: 0.0})


class TestApplyCoalition:
    def test_overrides_applied(self):
        asks, _ = star_profile()
        c = Coalition(members=(1, 2), value_overrides={1: 9.0})
        out = apply_coalition(c, asks)
        assert out[1].value == 9.0
        assert out[2].value == 3.0  # silent member keeps honest ask
        assert asks[1].value == 2.0  # original untouched

    def test_member_without_ask_rejected(self):
        asks, _ = star_profile()
        with pytest.raises(AttackError):
            apply_coalition(Coalition(members=(99,)), asks)


class TestCompareCoalition:
    def test_kth_price_cartel_succeeds(self):
        """On the plain k-th price auction a cartel CAN profit: a losing
        member raises its ask past the price-setting slot... here we use
        the classic shape — the price-setter overbids so the winner
        collects more, and they share."""
        tree = IncentiveTree()
        asks = {}
        for i, value in enumerate([2.0, 3.0, 5.0], start=1):
            tree.attach(i, ROOT)
            asks[i] = Ask(0, 1, value)
        costs = {1: 2.0, 2: 3.0, 3: 5.0}
        # Coalition {1, 2}: user 2 (the price setter at 3.0) overbids to
        # 4.9; user 1 still wins but is now paid 4.9 instead of 3.0.
        cartel = Coalition(members=(1, 2), value_overrides={2: 4.9})
        comparison = compare_coalition(
            KthPriceAuction(), Job([1]), asks, tree, cartel, costs,
            reps=2, rng=0,
        )
        assert isinstance(comparison, AttackComparison)
        assert comparison.deviant_utility - comparison.honest_utility == (
            comparison.gain
        )
        assert comparison.gain == pytest.approx(1.9)
        assert comparison.profitable

    def test_rit_resists_the_same_cartel_shape(self):
        """On RIT at a scale with K_max << m_i, the same cartel shape
        gains nothing significant (the price comes from a random sample
        and consensus estimate, not from the next losing bid)."""
        scenario = paper_scenario(
            2000,
            Job.uniform(4, 150),
            rng=6,
            distribution=UserDistribution(num_types=4),
            supply_threshold=True,
        )
        asks = scenario.truthful_asks()
        costs = scenario.costs()
        cartel = random_price_cartel(asks, task_type=0, size=4, markup=1.6, rng=1)
        mech = RIT(round_budget="until-complete")
        comparison = compare_coalition(
            mech, scenario.job, asks, scenario.tree, cartel, costs,
            reps=30, rng=2,
        )
        summary = comparison.gain_summary(rng=3)
        assert not summary.significant, (
            f"cartel gained significantly: {summary}"
        )

    def test_reps_validation(self):
        asks, tree = star_profile()
        with pytest.raises(AttackError):
            compare_coalition(
                KthPriceAuction(), Job([1]), asks, tree,
                Coalition(members=(1,)), {1: 2.0}, reps=0,
            )


class TestRandomPriceCartel:
    def test_members_share_the_type(self):
        asks, _ = star_profile()
        cartel = random_price_cartel(asks, task_type=0, size=2, rng=0)
        assert cartel.size == 2
        for uid in cartel.members:
            assert asks[uid].task_type == 0

    def test_markup_applied(self):
        asks, _ = star_profile()
        cartel = random_price_cartel(asks, 0, 2, markup=2.0, rng=0)
        for uid in cartel.members:
            assert cartel.value_overrides[uid] == pytest.approx(
                asks[uid].value * 2.0
            )

    def test_insufficient_bidders_rejected(self):
        asks, _ = star_profile()
        with pytest.raises(AttackError):
            random_price_cartel(asks, task_type=1, size=2, rng=0)

    def test_parameter_validation(self):
        asks, _ = star_profile()
        with pytest.raises(AttackError):
            random_price_cartel(asks, 0, 0, rng=0)
        with pytest.raises(AttackError):
            random_price_cartel(asks, 0, 1, markup=0.0, rng=0)
