"""Tests for the Remark 6.1 capacity-threshold growth policy."""

import pytest

from repro.core.exceptions import TreeError
from repro.core.types import Job, Population, User
from repro.socialnet.graph import SocialGraph
from repro.tree.growth import capacity_threshold, grow_tree, required_supply
from repro.tree.builder import build_spanning_forest


def line_graph(n):
    return SocialGraph(n, range(n - 1), range(1, n))


def uniform_population(n, capacity=2, task_type=0):
    return Population(
        User(i, task_type, capacity, 1.0 + i * 0.1) for i in range(n)
    )


class TestRequiredSupply:
    def test_doubles_each_type(self):
        assert required_supply(Job([3, 0, 7])) == {0: 6, 1: 0, 2: 14}


class TestCapacityThreshold:
    def test_stops_exactly_at_supply(self):
        """Job needs 2*4=8 units of type 0; users supply 2 each -> the
        growth should stop after the 4th join."""
        pop = uniform_population(10, capacity=2)
        job = Job([4])
        tree = build_spanning_forest(
            line_graph(10), stop_condition=capacity_threshold(pop, job)
        )
        assert len(tree) == 4

    def test_multi_type_waits_for_slowest_type(self):
        users = [User(i, i % 2, 2, 1.0) for i in range(10)]
        pop = Population(users)
        job = Job([2, 4])  # need 4 units of τ0, 8 of τ1
        tree = build_spanning_forest(
            line_graph(10), stop_condition=capacity_threshold(pop, job)
        )
        # τ1 users are the odd ids; 4 of them are needed -> id 7 is the
        # 4th; joins happen in id order along the line.
        assert len(tree) == 8

    def test_zero_demand_type_needs_nothing(self):
        pop = uniform_population(5, capacity=2)
        job = Job([1, 0])
        tree = build_spanning_forest(
            line_graph(5), stop_condition=capacity_threshold(pop, job)
        )
        assert len(tree) == 1

    def test_nodes_outside_population_contribute_nothing(self):
        pop = uniform_population(2, capacity=1)
        job = Job([2])
        condition = capacity_threshold(pop, job)
        tree = build_spanning_forest(line_graph(5), stop_condition=condition)
        # users 0 and 1 supply 2 of the 4 required units; 2..4 supply
        # nothing -> the whole graph joins.
        assert len(tree) == 5


class TestGrowTree:
    def test_grows_until_supply_met(self):
        pop = uniform_population(20, capacity=2)
        job = Job([5])  # needs 10 units -> 5 users
        tree = grow_tree(line_graph(20), pop, job)
        assert len(tree) == 5

    def test_exhausted_graph_keeps_everyone(self):
        pop = uniform_population(3, capacity=1)
        job = Job([5])  # needs 10 units; only 3 available
        tree = grow_tree(line_graph(3), pop, job)
        assert len(tree) == 3

    def test_enforce_supply_raises_when_unmet(self):
        pop = uniform_population(3, capacity=1)
        job = Job([5])
        with pytest.raises(TreeError):
            grow_tree(line_graph(3), pop, job, enforce_supply=True)

    def test_enforce_supply_passes_when_met(self):
        pop = uniform_population(20, capacity=2)
        job = Job([5])
        tree = grow_tree(line_graph(20), pop, job, enforce_supply=True)
        assert len(tree) >= 5

    def test_graph_smaller_than_population_rejected(self):
        pop = uniform_population(5)
        with pytest.raises(TreeError):
            grow_tree(line_graph(3), pop, Job([1]))
