"""Tests for the incentive-tree data structure."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import TreeError
from repro.tree.incentive_tree import ROOT, BFSView, IncentiveTree


def chain(n):
    tree = IncentiveTree()
    prev = ROOT
    for i in range(n):
        tree.attach(i, prev)
        prev = i
    return tree


def two_level():
    """root -> {0, 1}; 0 -> {2, 3}; 1 -> {4}."""
    tree = IncentiveTree()
    tree.attach(0, ROOT)
    tree.attach(1, ROOT)
    tree.attach(2, 0)
    tree.attach(3, 0)
    tree.attach(4, 1)
    return tree


class TestAttach:
    def test_empty_tree(self):
        tree = IncentiveTree()
        assert len(tree) == 0
        assert ROOT in tree
        assert 0 not in tree

    def test_attach_and_contains(self):
        tree = IncentiveTree()
        tree.attach(5, ROOT)
        assert 5 in tree
        assert len(tree) == 1

    def test_duplicate_node_rejected(self):
        tree = IncentiveTree()
        tree.attach(0, ROOT)
        with pytest.raises(TreeError):
            tree.attach(0, ROOT)

    def test_unknown_parent_rejected(self):
        with pytest.raises(TreeError):
            IncentiveTree().attach(1, 99)

    def test_negative_node_rejected(self):
        with pytest.raises(TreeError):
            IncentiveTree().attach(-5, ROOT)

    def test_children_order_is_insertion_order(self):
        tree = IncentiveTree()
        tree.attach(3, ROOT)
        tree.attach(1, ROOT)
        tree.attach(2, ROOT)
        assert tree.children(ROOT) == (3, 1, 2)


class TestQueries:
    def test_parent(self):
        tree = two_level()
        assert tree.parent(2) == 0
        assert tree.parent(0) == ROOT
        with pytest.raises(TreeError):
            tree.parent(77)

    def test_depth(self):
        tree = two_level()
        assert tree.depth(ROOT) == 0
        assert tree.depth(0) == 1
        assert tree.depth(4) == 2

    def test_depths_matches_depth(self):
        tree = two_level()
        depths = tree.depths()
        for node in tree.nodes():
            assert depths[node] == tree.depth(node)

    def test_ancestors(self):
        tree = chain(4)
        assert list(tree.ancestors(3)) == [2, 1, 0]
        assert list(tree.ancestors(0)) == []

    def test_descendants(self):
        tree = two_level()
        assert tree.descendants(0) == {2, 3}
        assert tree.descendants(4) == set()
        assert tree.descendants(ROOT) == {0, 1, 2, 3, 4}

    def test_subtree_size(self):
        tree = two_level()
        assert tree.subtree_size(0) == 3
        assert tree.subtree_size(ROOT) == 5

    def test_is_descendant(self):
        tree = two_level()
        assert tree.is_descendant(2, of=0)
        assert tree.is_descendant(2, of=ROOT)
        assert not tree.is_descendant(2, of=1)
        assert not tree.is_descendant(0, of=0)

    def test_bfs_order_parents_first(self):
        tree = two_level()
        order = tree.bfs_order()
        pos = {node: i for i, node in enumerate(order)}
        for node in tree.nodes():
            parent = tree.parent(node)
            if parent != ROOT:
                assert pos[parent] < pos[node]

    def test_max_depth(self):
        assert chain(5).max_depth() == 5
        assert IncentiveTree().max_depth() == 0

    def test_children_of_unknown_node_raises(self):
        with pytest.raises(TreeError):
            two_level().children(99)


class TestMutation:
    def test_reattach_moves_subtree(self):
        tree = two_level()
        tree.reattach(0, 1)
        assert tree.parent(0) == 1
        assert tree.depth(2) == 3
        tree.validate()

    def test_reattach_to_root(self):
        tree = two_level()
        tree.reattach(2, ROOT)
        assert tree.parent(2) == ROOT
        tree.validate()

    def test_reattach_rejects_cycle(self):
        tree = two_level()
        with pytest.raises(TreeError):
            tree.reattach(0, 2)  # 2 is a descendant of 0
        with pytest.raises(TreeError):
            tree.reattach(0, 0)

    def test_reattach_children(self):
        tree = two_level()
        tree.reattach_children(0, 1)
        assert tree.children(0) == ()
        assert set(tree.children(1)) == {4, 2, 3}
        tree.validate()

    def test_remove_leaf(self):
        tree = two_level()
        tree.remove_leaf(4)
        assert 4 not in tree
        assert tree.children(1) == ()
        tree.validate()

    def test_remove_non_leaf_rejected(self):
        with pytest.raises(TreeError):
            two_level().remove_leaf(0)

    def test_remove_unknown_rejected(self):
        with pytest.raises(TreeError):
            two_level().remove_leaf(99)


class TestSerializationPrimitives:
    def test_edge_round_trip(self):
        tree = two_level()
        rebuilt = IncentiveTree.from_edges(tree.to_edges())
        assert rebuilt.to_parent_map() == tree.to_parent_map()

    def test_from_edges_out_of_order(self):
        tree = IncentiveTree.from_edges([(0, 1), (ROOT, 0), (1, 2)])
        assert tree.depth(2) == 3

    def test_from_edges_orphan_rejected(self):
        with pytest.raises(TreeError):
            IncentiveTree.from_edges([(5, 6)])

    def test_parent_map_round_trip(self):
        tree = two_level()
        rebuilt = IncentiveTree.from_parent_map(tree.to_parent_map())
        assert rebuilt.to_parent_map() == tree.to_parent_map()

    def test_copy_is_independent(self):
        tree = two_level()
        clone = tree.copy()
        clone.attach(99, ROOT)
        assert 99 not in tree
        assert 99 in clone
        tree.validate()
        clone.validate()


class TestHypothesis:
    @given(
        parents=st.lists(st.integers(min_value=-1, max_value=30), min_size=0, max_size=30),
    )
    @settings(max_examples=100)
    def test_random_recursive_trees_are_consistent(self, parents):
        tree = IncentiveTree()
        for node, p in enumerate(parents):
            parent = ROOT if p < 0 or p >= node else p
            tree.attach(node, parent)
        tree.validate()
        depths = tree.depths()
        assert len(depths) == len(tree)
        # Every node's depth is its parent's depth + 1.
        for node in tree.nodes():
            parent = tree.parent(node)
            expected = 1 if parent == ROOT else depths[parent] + 1
            assert depths[node] == expected
        # Descendant sets and ancestor chains agree.
        for node in list(tree.nodes())[:10]:
            for desc in tree.descendants(node):
                assert node in list(tree.ancestors(desc))


def structure(tree):
    """Everything order-sensitive about a tree, for equality checks."""
    return (
        list(tree.to_parent_map().items()),
        {node: tree.children(node) for node in [ROOT, *tree.nodes()]},
        tree.bfs_order(),
    )


def assert_view_matches(tree):
    """The cached view agrees with the tree's pointer-walking queries."""
    view = tree.bfs_view()
    uids = view.uids.tolist()
    pos = {uid: i for i, uid in enumerate(uids)}
    assert sorted(uids) == sorted(tree.nodes())
    expected_order = []
    level = list(tree.children(ROOT))
    while level:
        expected_order += level
        level = [kid for node in level for kid in tree.children(node)]
    assert uids == expected_order
    for i, uid in enumerate(uids):
        assert view.depth[i] == tree.depth(uid)
        parent = tree.parent(uid)
        assert view.parent[i] == (-1 if parent == ROOT else pos[parent])
        d = int(view.depth[i])
        assert view.level_bounds[d - 1] <= i < view.level_bounds[d]
    assert view.level_bounds[-1] == len(tree)
    assert view.max_depth == tree.max_depth()
    np.testing.assert_array_equal(
        view.positions(np.array(uids + [10**9, 123456], dtype=np.int64)),
        list(range(len(uids))) + [-1, -1],
    )


def assert_same_view(got, want):
    """Two views agree in every field, dtypes included."""
    for name in ("uids", "parent", "depth", "_sorted_uids", "_sorted_positions"):
        left, right = getattr(got, name), getattr(want, name)
        assert left.dtype == right.dtype, name
        np.testing.assert_array_equal(left, right, err_msg=name)
        assert not left.flags.writeable, name
    assert got.level_bounds == want.level_bounds
    assert isinstance(got.level_bounds, tuple)


class TestFromParentMap:
    @given(
        parents=st.lists(st.integers(min_value=-1, max_value=30), max_size=30),
        shuffle=st.randoms(use_true_random=False),
    )
    @settings(max_examples=100)
    def test_equals_from_edges(self, parents, shuffle):
        tree = IncentiveTree()
        for node, p in enumerate(parents):
            tree.attach(node, ROOT if p < 0 or p >= node else p)
        parents_first = tree.to_parent_map()
        items = list(parents_first.items())
        shuffle.shuffle(items)
        for mapping in (parents_first, dict(items)):
            one_pass = IncentiveTree.from_parent_map(mapping)
            reference = IncentiveTree.from_edges(
                (p, c) for c, p in mapping.items()
            )
            assert structure(one_pass) == structure(reference)
            one_pass.validate()

    def test_child_listed_before_its_parent(self):
        mapping = {2: 1, 0: ROOT, 1: 0, 3: 0}
        tree = IncentiveTree.from_parent_map(mapping)
        reference = IncentiveTree.from_edges((p, c) for c, p in mapping.items())
        assert structure(tree) == structure(reference)
        assert tree.depth(2) == 3

    @pytest.mark.parametrize(
        "mapping",
        [{1: 0}, {0: ROOT, 2: 1}, {0: ROOT, 1: 1}, {0: ROOT, 1: -7}],
    )
    def test_orphans_rejected(self, mapping):
        with pytest.raises(TreeError, match="orphaned"):
            IncentiveTree.from_parent_map(mapping)

    @pytest.mark.parametrize("mapping", [{-5: ROOT}, {0: ROOT, -3: 0}])
    def test_negative_ids_rejected(self, mapping):
        with pytest.raises(TreeError, match=">= 0"):
            IncentiveTree.from_parent_map(mapping)

    def test_caller_map_is_copied(self):
        mapping = {0: ROOT}
        tree = IncentiveTree.from_parent_map(mapping)
        mapping[1] = 0
        assert 1 not in tree


class TestBFSView:
    def test_view_is_cached_and_matches_the_tree(self):
        tree = two_level()
        view = tree.bfs_view()
        assert tree.bfs_view() is view
        assert_view_matches(tree)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda t: t.attach(5, 2),
            lambda t: t.reattach(0, 1),
            lambda t: t.reattach_children(0, 4),
            lambda t: t.remove_leaf(3),
        ],
        ids=["attach", "reattach", "reattach_children", "remove_leaf"],
    )
    def test_mutations_drop_the_cache(self, mutate):
        tree = two_level()
        before = tree.bfs_view()
        mutate(tree)
        assert tree.bfs_view() is not before
        assert_view_matches(tree)

    def test_copy_does_not_share_the_view(self):
        tree = two_level()
        view = tree.bfs_view()
        clone = tree.copy()
        assert clone.bfs_view() is not view
        clone.attach(9, 4)
        assert tree.bfs_view() is view
        assert 9 not in view.uids.tolist()
        assert_view_matches(clone)

    def test_view_is_read_only(self):
        view = two_level().bfs_view()
        for column in (view.uids, view.parent, view.depth):
            with pytest.raises(ValueError):
                column[0] = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            view.uids = np.zeros(5, dtype=np.int64)
        assert isinstance(view.level_bounds, tuple)

    def test_empty_tree(self):
        view = IncentiveTree().bfs_view()
        assert len(view) == 0
        assert view.max_depth == 0
        assert view.positions(np.array([0, 3])).tolist() == [-1, -1]

    @given(parents=st.lists(st.integers(min_value=-1, max_value=40), max_size=40))
    @settings(max_examples=100)
    def test_random_trees(self, parents):
        tree = IncentiveTree()
        for node, p in enumerate(parents):
            tree.attach(node, ROOT if p < 0 or p >= node else p)
        assert_view_matches(tree)
        if len(tree) > 2:
            node = list(tree.nodes())[-1]
            tree.reattach(node, ROOT)
            assert_view_matches(tree)


def _index_parents(raw, start=()):
    """Extend ``start`` by parents drawn as ints, each forced to precede
    its child (out-of-range draws hang the node under the root)."""
    column = list(start)
    for p in raw:
        column.append(p if 0 <= p < len(column) else -1)
    return column


#: Parent columns (index of each node's parent, -1 under the root) where
#: every parent precedes its children, as the service's rows do.
PARENT_COLUMNS = st.one_of(
    st.just([]),
    st.just([-1]),
    st.lists(st.integers(min_value=-1, max_value=60), max_size=60).map(
        _index_parents
    ),
    # Chains of 300+ levels, with random subtrees hanging off them.
    st.tuples(
        st.integers(min_value=300, max_value=420),
        st.lists(st.integers(min_value=-1, max_value=420), max_size=30),
    ).map(
        lambda spec: _index_parents(
            spec[1], start=[node - 1 for node in range(spec[0])]
        )
    ),
    # Brooms: a handle of 1-40 nodes, then 0-60 leaves at its end.
    st.tuples(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=60),
    ).map(
        lambda spec: [node - 1 for node in range(spec[0])]
        + [spec[0] - 1] * spec[1]
    ),
)


class TestFromParents:
    @given(parents=PARENT_COLUMNS, shuffle=st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_walk(self, parents, shuffle):
        ids = shuffle.sample(range(10**6), len(parents))
        tree = IncentiveTree()
        for node, p in enumerate(parents):
            tree.attach(ids[node], ROOT if p < 0 else ids[p])
        view = BFSView.from_parents(
            np.array(ids, dtype=np.int64), np.array(parents, dtype=np.int64)
        )
        assert_same_view(view, tree.bfs_view())

    def test_siblings_keep_index_order_under_a_later_parent(self):
        # Node 3 hangs under 0 although 1 and 2 came first: BFS order is by
        # level, then by parent position, then by index.
        view = BFSView.from_parents(
            np.array([10, 11, 12, 13, 14], dtype=np.int64),
            np.array([-1, -1, 1, 0, 1], dtype=np.int64),
        )
        assert view.uids.tolist() == [10, 11, 13, 12, 14]
        assert view.parent.tolist() == [-1, -1, 0, 1, 1]

    def test_unreachable_nodes_rejected(self):
        with pytest.raises(TreeError, match="unreachable"):
            BFSView.from_parents(
                np.array([5, 6, 7], dtype=np.int64),
                np.array([-1, 2, 1], dtype=np.int64),
            )
