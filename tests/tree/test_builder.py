"""Tests for the spanning-forest tree builder and synthetic trees."""

import numpy as np
import pytest

from repro.core.exceptions import TreeError
from repro.socialnet.graph import SocialGraph
from repro.tree.builder import (
    build_spanning_forest,
    chain_tree,
    random_tree,
    star_tree,
)
from repro.tree.incentive_tree import ROOT


def diamond_graph():
    """0 -> {1, 2}; 1 -> 3; 2 -> 3 (two invitations arrive at 3)."""
    return SocialGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestSpanningForest:
    def test_covers_all_reachable_nodes(self):
        tree = build_spanning_forest(diamond_graph())
        assert len(tree) == 4

    def test_tie_break_smallest_inviter(self):
        """Both 1 and 2 invite 3 in the same round; 1 wins (smaller id)."""
        tree = build_spanning_forest(diamond_graph())
        assert tree.parent(3) == 1

    def test_seeds_default_to_indegree_zero(self):
        tree = build_spanning_forest(diamond_graph())
        assert tree.parent(0) == ROOT

    def test_explicit_seeds(self):
        tree = build_spanning_forest(diamond_graph(), seeds=[2])
        assert tree.parent(2) == ROOT
        assert tree.parent(3) == 2  # only inviter in round 1
        # 0 and 1 are unreachable from 2 -> spontaneous joiners.
        assert tree.parent(0) == ROOT

    def test_seed_out_of_range_rejected(self):
        with pytest.raises(TreeError):
            build_spanning_forest(diamond_graph(), seeds=[9])

    def test_limit_stops_growth(self):
        tree = build_spanning_forest(diamond_graph(), limit=2)
        assert len(tree) == 2

    def test_limit_zero(self):
        assert len(build_spanning_forest(diamond_graph(), limit=0)) == 0

    def test_negative_limit_rejected(self):
        with pytest.raises(TreeError):
            build_spanning_forest(diamond_graph(), limit=-1)

    def test_stop_condition(self):
        stopped_at = []

        def stop(tree, node):
            stopped_at.append(node)
            return len(tree) >= 3

        tree = build_spanning_forest(diamond_graph(), stop_condition=stop)
        assert len(tree) == 3

    def test_disconnected_components_join_spontaneously(self):
        g = SocialGraph.from_edges(5, [(0, 1), (3, 4)])
        tree = build_spanning_forest(g)
        assert len(tree) == 5
        # 2 has no edges at all; it joins as a root child.
        assert tree.parent(2) == ROOT

    def test_cycle_graph_is_fully_covered(self):
        g = SocialGraph.from_edges(4, [(i, (i + 1) % 4) for i in range(4)])
        tree = build_spanning_forest(g)  # no in-degree-0 node: seed = 0
        assert len(tree) == 4
        assert tree.parent(0) == ROOT
        tree.validate()

    def test_empty_graph(self):
        assert len(build_spanning_forest(SocialGraph(0))) == 0

    def test_is_spanning_tree_of_graph_edges(self):
        """Every non-root tree edge must be a graph edge."""
        gen = np.random.default_rng(5)
        pairs = [gen.integers(0, 50, size=2) for _ in range(200)]
        g = SocialGraph.from_edges(50, [(int(u), int(v)) for u, v in pairs if u != v])
        tree = build_spanning_forest(g)
        assert len(tree) == 50
        for node in tree.nodes():
            parent = tree.parent(node)
            if parent != ROOT:
                assert g.has_edge(parent, node)

    def test_level_synchronous_depths(self):
        """A node's depth equals 1 + BFS distance from the seed set."""
        g = SocialGraph.from_edges(
            6,
            # 3 is reachable at distance 2 via 4, and at 3 via the chain.
            [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (3, 5)],
        )
        tree = build_spanning_forest(g, seeds=[0])
        assert tree.depth(3) == 3  # joined in round 2 (via 4, smaller depth)
        assert tree.parent(3) in (2, 4)
        # invited simultaneously by 2 (depth 3)? no: 4 invites at round 2,
        # chain reaches 3 at round 3 -> 4 got there first.
        assert tree.parent(3) == 4


class TestSyntheticTrees:
    def test_chain_tree(self):
        tree = chain_tree(5)
        assert tree.max_depth() == 5
        assert tree.parent(0) == ROOT
        assert tree.parent(4) == 3

    def test_star_tree(self):
        tree = star_tree(5)
        assert tree.max_depth() == 1
        assert all(tree.parent(i) == ROOT for i in range(5))

    def test_random_tree_is_valid(self):
        tree = random_tree(40, np.random.default_rng(0))
        tree.validate()
        assert len(tree) == 40

    def test_random_tree_respects_branching_cap(self):
        tree = random_tree(60, np.random.default_rng(1), max_children=2)
        for node in tree.nodes():
            assert len(tree.children(node)) <= 2

    def test_random_tree_negative_rejected(self):
        with pytest.raises(TreeError):
            random_tree(-1, np.random.default_rng(0))
