"""Tests for the discrete-event solicitation simulator."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.types import Job, Population, User
from repro.socialnet.generators import twitter_like
from repro.socialnet.graph import SocialGraph
from repro.tree.dynamics import SolicitationResult, simulate_solicitation
from repro.tree.growth import capacity_threshold
from repro.tree.incentive_tree import ROOT


def line_graph(n):
    return SocialGraph(n, range(n - 1), range(1, n))


class TestBasicCascade:
    def test_full_acceptance_covers_reachable(self):
        result = simulate_solicitation(
            line_graph(10), accept_prob=1.0, rng=0
        )
        assert result.num_joined == 10
        assert result.stopped_by == "exhausted"
        result.tree.validate()

    def test_seeds_join_at_time_zero(self):
        result = simulate_solicitation(line_graph(5), accept_prob=1.0, rng=1)
        assert result.join_times[0] == 0.0
        assert result.tree.parent(0) == ROOT

    def test_join_times_increase_along_the_chain(self):
        result = simulate_solicitation(
            line_graph(8), accept_prob=1.0, rng=2
        )
        times = [result.join_times[i] for i in range(8)]
        assert times == sorted(times)

    def test_parent_is_an_actual_inviter(self):
        graph = twitter_like(200, rng=3, mean_out_degree=6)
        result = simulate_solicitation(graph, accept_prob=1.0, rng=4)
        for node in result.tree.nodes():
            parent = result.tree.parent(node)
            if parent != ROOT:
                assert graph.has_edge(parent, node)
                assert result.join_times[parent] <= result.join_times[node]

    def test_determinism(self):
        graph = twitter_like(150, rng=5, mean_out_degree=6)
        a = simulate_solicitation(graph, rng=6)
        b = simulate_solicitation(graph, rng=6)
        assert a.join_times == b.join_times
        assert a.tree.to_parent_map() == b.tree.to_parent_map()

    def test_empty_graph(self):
        result = simulate_solicitation(SocialGraph(0), rng=0)
        assert result.num_joined == 0


class TestStopping:
    def test_threshold_limit(self):
        result = simulate_solicitation(
            line_graph(20), accept_prob=1.0, limit=7, rng=0
        )
        assert result.num_joined == 7
        assert result.stopped_by == "threshold"

    def test_horizon_cuts_cascade(self):
        result = simulate_solicitation(
            line_graph(100), accept_prob=1.0, mean_delay=1.0,
            horizon=3.0, rng=1,
        )
        assert result.stopped_by == "horizon"
        assert result.num_joined < 100
        assert all(t <= 3.0 for t in result.join_times.values())
        assert result.end_time == 3.0

    def test_capacity_stop_condition(self):
        pop = Population(User(i, 0, 2, 1.0) for i in range(20))
        job = Job([4])  # needs 8 units -> 4 users
        result = simulate_solicitation(
            line_graph(20),
            accept_prob=1.0,
            stop_condition=capacity_threshold(pop, job),
            rng=2,
        )
        assert result.num_joined == 4
        assert result.stopped_by == "condition"

    def test_rejections_slow_but_may_not_stop_coverage(self):
        """With accept_prob < 1 on a rich graph, coverage can still be
        high (multiple inviters per user) but takes longer."""
        graph = twitter_like(300, rng=7, mean_out_degree=10)
        fast = simulate_solicitation(graph, accept_prob=1.0, rng=8)
        slow = simulate_solicitation(graph, accept_prob=0.4, rng=8)
        assert slow.num_joined <= fast.num_joined
        if slow.num_joined >= 100 and fast.num_joined >= 100:
            assert slow.time_to_reach(100) >= fast.time_to_reach(100)


class TestResultViews:
    @pytest.fixture(scope="class")
    def result(self):
        return simulate_solicitation(
            twitter_like(250, rng=9, mean_out_degree=8),
            accept_prob=0.9, rng=10,
        )

    def test_recruitment_curve_monotone(self, result):
        curve = result.recruitment_curve(num_points=15)
        assert len(curve) == 15
        counts = [c for _, c in curve]
        assert counts == sorted(counts)
        assert counts[-1] == result.num_joined

    def test_curve_validation(self, result):
        with pytest.raises(ConfigurationError):
            result.recruitment_curve(num_points=1)

    def test_time_to_reach(self, result):
        assert result.time_to_reach(0) == 0.0
        assert result.time_to_reach(1) == 0.0  # a seed
        assert result.time_to_reach(result.num_joined + 1) is None
        mid = result.time_to_reach(result.num_joined // 2)
        assert mid is not None and mid <= result.end_time + 1e-9


class TestValidation:
    def test_bad_parameters(self):
        g = line_graph(3)
        with pytest.raises(ConfigurationError):
            simulate_solicitation(g, accept_prob=0.0)
        with pytest.raises(ConfigurationError):
            simulate_solicitation(g, accept_prob=1.5)
        with pytest.raises(ConfigurationError):
            simulate_solicitation(g, mean_delay=0.0)
        with pytest.raises(ConfigurationError):
            simulate_solicitation(g, limit=-1)
        with pytest.raises(ConfigurationError):
            simulate_solicitation(g, horizon=-1.0)
        with pytest.raises(ConfigurationError):
            simulate_solicitation(g, seeds=[9])
