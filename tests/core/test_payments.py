"""Tests for the payment determination phase (Algorithm 3 line 24)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import TreeError
from repro.core.payments import (
    payment_kernel,
    tree_payments,
    tree_payments_naive,
)
from repro.tree.incentive_tree import ROOT, IncentiveTree
from tests.core.dense_payments import dense_payments


def make_tree(edges):
    tree = IncentiveTree()
    for parent, child in edges:
        tree.attach(child, parent)
    return tree


class TestHandComputedCases:
    def test_leaf_only_gets_auction_payment(self):
        tree = make_tree([(ROOT, 1)])
        p = tree_payments(tree, {1: 10.0}, {1: 0})
        assert p[1] == pytest.approx(10.0)

    def test_parent_earns_half_power_depth_of_descendant(self):
        # root -> 1 -> 2; node 2 at depth 2 contributes (1/2)^2 * 8 = 2.
        tree = make_tree([(ROOT, 1), (1, 2)])
        p = tree_payments(tree, {1: 0.0, 2: 8.0}, {1: 0, 2: 1})
        assert p[1] == pytest.approx(2.0)
        assert p[2] == pytest.approx(8.0)

    def test_same_type_descendants_excluded(self):
        tree = make_tree([(ROOT, 1), (1, 2)])
        p = tree_payments(tree, {1: 0.0, 2: 8.0}, {1: 1, 2: 1})
        assert p[1] == pytest.approx(0.0)

    def test_own_payment_plus_referrals(self):
        # root -> 1 -> {2, 3}; depths: 1:1, 2:2, 3:2.
        tree = make_tree([(ROOT, 1), (1, 2), (1, 3)])
        pays = {1: 4.0, 2: 8.0, 3: 12.0}
        types = {1: 0, 2: 1, 3: 2}
        p = tree_payments(tree, pays, types)
        assert p[1] == pytest.approx(4.0 + 0.25 * 8.0 + 0.25 * 12.0)

    def test_deep_chain_weights(self):
        # root -> 1 -> 2 -> 3 -> 4, alternating types.
        tree = make_tree([(ROOT, 1), (1, 2), (2, 3), (3, 4)])
        pays = {1: 0.0, 2: 0.0, 3: 0.0, 4: 16.0}
        types = {1: 0, 2: 1, 3: 0, 4: 1}
        p = tree_payments(tree, pays, types)
        # node 4 at depth 4 contributes (1/2)^4*16 = 1 to ancestors of
        # other types (nodes 1 and 3), nothing to node 2 (same type).
        assert p[3] == pytest.approx(1.0)
        assert p[2] == pytest.approx(0.0)
        assert p[1] == pytest.approx(1.0)

    def test_weight_depends_on_descendant_depth_not_distance(self):
        """The paper's weight is (1/2)^{r_i} with r_i the descendant's
        absolute depth — two ancestors of different heights receive the
        SAME contribution from one descendant."""
        tree = make_tree([(ROOT, 1), (1, 2), (2, 3)])
        pays = {1: 0.0, 2: 0.0, 3: 8.0}
        types = {1: 0, 2: 1, 3: 2}
        p = tree_payments(tree, pays, types)
        assert p[1] == pytest.approx(8.0 / 8)
        assert p[2] == pytest.approx(8.0 / 8)

    def test_missing_auction_payment_treated_as_zero(self):
        tree = make_tree([(ROOT, 1), (1, 2)])
        p = tree_payments(tree, {}, {1: 0, 2: 1})
        assert p == {1: 0.0, 2: 0.0}

    def test_missing_type_raises(self):
        tree = make_tree([(ROOT, 1)])
        with pytest.raises(TreeError):
            tree_payments(tree, {1: 1.0}, {})

    def test_empty_tree(self):
        assert tree_payments(IncentiveTree(), {}, {}) == {}

    def test_bad_decay_rejected(self):
        tree = make_tree([(ROOT, 1)])
        for decay in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(TreeError):
                tree_payments(tree, {1: 1.0}, {1: 0}, decay=decay)

    def test_custom_decay(self):
        tree = make_tree([(ROOT, 1), (1, 2)])
        p = tree_payments(tree, {2: 9.0}, {1: 0, 2: 1}, decay=1.0 / 3.0)
        assert p[1] == pytest.approx(9.0 / 9.0)


class TestBudgetBound:
    def test_referral_outlay_bounded_by_auction_total(self):
        """§7-C: Σ_j (p_j − p^A_j) <= Σ_j p^A_j."""
        gen = np.random.default_rng(0)
        for trial in range(20):
            n = int(gen.integers(2, 60))
            tree = IncentiveTree()
            for node in range(n):
                parent = ROOT if node == 0 else int(gen.integers(-1, node))
                tree.attach(node, parent if parent >= 0 else ROOT)
            pays = {i: float(gen.uniform(0, 10)) for i in range(n)}
            types = {i: int(gen.integers(0, 4)) for i in range(n)}
            p = tree_payments(tree, pays, types)
            referral = sum(p.values()) - sum(pays.values())
            assert referral <= sum(pays.values()) + 1e-9
            assert referral >= -1e-9


class TestDifferentialAgainstNaive:
    @given(
        n=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=10_000),
        decay=st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=120, deadline=None)
    def test_fast_matches_naive(self, n, seed, decay):
        gen = np.random.default_rng(seed)
        tree = IncentiveTree()
        for node in range(n):
            parent = ROOT if node == 0 else int(gen.integers(-1, node))
            tree.attach(node, parent if parent >= 0 else ROOT)
        pays = {i: float(gen.uniform(0, 10)) for i in range(n)}
        types = {i: int(gen.integers(0, 3)) for i in range(n)}
        fast = tree_payments(tree, pays, types, decay=decay)
        naive = tree_payments_naive(tree, pays, types, decay=decay)
        assert set(fast) == set(naive)
        for node in fast:
            assert fast[node] == pytest.approx(naive[node], rel=1e-9, abs=1e-9)


@st.composite
def kernel_instances(draw):
    """A tree, typed nodes, sparse auction payments and a decay base.

    Node ids are even, so odd ids in the payment map are not nodes.  The
    row width is the highest type + 1, as the dense oracle computes it.
    The types in use may stop well below that width: the top type then
    sits on one unpaid leaf, as when the job's highest types have no
    bidder on the winners' root paths.
    """
    n = draw(st.integers(min_value=1, max_value=40))
    shape = draw(st.sampled_from(["random", "chain", "broom"]))
    handle = draw(st.integers(min_value=1, max_value=n))
    tree = IncentiveTree()
    for i in range(n):
        if i == 0:
            parent = ROOT
        elif shape == "chain" or (shape == "broom" and i < handle):
            parent = 2 * (i - 1)
        else:
            parent = draw(st.sampled_from([ROOT] + [2 * j for j in range(i)]))
        tree.attach(2 * i, parent)
    width = draw(st.integers(min_value=1, max_value=17))
    used = draw(st.integers(min_value=1, max_value=width))
    types = draw(
        st.lists(
            st.integers(min_value=0, max_value=used - 1),
            min_size=n,
            max_size=n,
        )
    )
    if used < width or draw(st.booleans()):
        tree.attach(2 * n, ROOT)
        types.append(width - 1)
    else:
        types[draw(st.integers(min_value=0, max_value=n - 1))] = width - 1
    if draw(st.booleans()):
        paid = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    else:
        paid = set(range(n))
    amount = st.one_of(
        st.just(0.0),
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    )
    auction = {2 * i: draw(amount) for i in sorted(paid)}
    for stray in draw(st.sets(st.integers(min_value=0, max_value=n + 3))):
        auction[2 * stray + 1] = draw(amount)
    decay = draw(st.sampled_from([0.3, 1.0 / 3.0, 0.5]))
    task_types = {2 * i: t for i, t in enumerate(types)}
    return tree, task_types, auction, width, decay


def oracle_payments(tree, task_types, auction, decay):
    """The dense sweep's final payments at every BFS position."""
    view = tree.bfs_view()
    column = view.scatter(
        np.fromiter(task_types, dtype=np.int64),
        np.fromiter(task_types.values(), dtype=np.int64),
        -1,
    )
    dense_pay = view.scatter(
        np.fromiter(auction, dtype=np.int64),
        np.fromiter(auction.values(), dtype=np.float64),
        0.0,
    )
    return column, dense_payments(view, column, dense_pay, decay)


class TestRootPathKernelAgainstDenseOracle:
    """The root-path kernel is bitwise equal to the dense O(N·m) sweep."""

    @given(instance=kernel_instances())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_dense_sweep(self, instance):
        tree, task_types, auction, width, decay = instance
        view = tree.bfs_view()
        column, expected = oracle_payments(tree, task_types, auction, decay)

        positions, paid = payment_kernel(
            view, auction, column.__getitem__, width, decay
        )
        full = np.zeros(len(view), dtype=np.float64)
        full[positions] = paid
        assert full.tobytes() == expected.tobytes()

        # The closure is exactly the root paths of the nodes with p^A ≠ 0.
        closure = set()
        for uid, pay in auction.items():
            node = uid
            while pay and node in task_types and node not in closure:
                closure.add(node)
                node = tree.parent(node)
        assert sorted(view.uids[positions].tolist()) == sorted(closure)
        assert np.all(np.diff(positions) > 0)

        adapter = tree_payments(tree, auction, task_types, decay=decay)
        assert list(adapter) == view.uids.tolist()
        assert np.array(list(adapter.values())).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("width", range(1, 18))
    def test_row_width_comes_from_the_profile(self, width):
        """A node's row holds types 1..7 from paid children; an unpaid
        node carries the top type, so only the profile sets the width."""
        gen = np.random.default_rng(width)
        tree = make_tree([(ROOT, 0), (ROOT, 99)])
        task_types = {0: 0, 99: width - 1}
        auction = {}
        for child in range(1, 8):
            tree.attach(child, 0)
            task_types[child] = child % width
            auction[child] = float(gen.uniform(0.1, 10.0))
        view = tree.bfs_view()
        column, expected = oracle_payments(tree, task_types, auction, 1 / 3)
        positions, paid = payment_kernel(
            view, auction, column.__getitem__, width, 1 / 3
        )
        full = np.zeros(len(view), dtype=np.float64)
        full[positions] = paid
        assert full.tobytes() == expected.tobytes()
        assert 99 not in view.uids[positions].tolist()

    def test_siblings_add_in_reverse_bfs_order(self):
        """Many same-type paid siblings under one unpaid parent: their
        terms reach the parent's cell in reverse BFS order."""
        gen = np.random.default_rng(0)
        tree = make_tree([(ROOT, 0)])
        task_types = {0: 0}
        auction = {}
        for child in range(1, 40):
            tree.attach(child, 0 if child < 20 else child - 19)
            task_types[child] = 1 + child % 2
            auction[child] = float(gen.uniform(0.1, 10.0))
        view = tree.bfs_view()
        column, expected = oracle_payments(tree, task_types, auction, 0.5)
        positions, paid = payment_kernel(
            view, auction, column.__getitem__, 3, 0.5
        )
        full = np.zeros(len(view), dtype=np.float64)
        full[positions] = paid
        assert full.tobytes() == expected.tobytes()

    def test_types_are_read_for_the_closure_only(self):
        tree = make_tree([(ROOT, 1), (1, 2), (ROOT, 3), (3, 4)])
        view = tree.bfs_view()
        asked = []

        def types_at(positions):
            asked.append(view.uids[positions].tolist())
            return np.zeros(positions.shape[0], dtype=np.int64)

        payment_kernel(view, {2: 1.0, 3: 0.0}, types_at, 1, 0.5)
        assert asked == [[1, 2]]


class TestSybilMonotonicity:
    """The deterministic half of Lemma 6.4, at the payment-rule level."""

    @given(
        n=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
        chain_len=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_chain_split_never_gains(self, n, seed, chain_len):
        """Replacing a node with a chain of same-type identities (auction
        payments held fixed, as Lemma 6.4 establishes for equal ask
        values) never increases the identities' total payment."""
        gen = np.random.default_rng(seed)
        tree = IncentiveTree()
        for node in range(n):
            parent = ROOT if node == 0 else int(gen.integers(-1, node))
            tree.attach(node, parent if parent >= 0 else ROOT)
        pays = {i: float(gen.uniform(0, 10)) for i in range(n)}
        types = {i: int(gen.integers(0, 3)) for i in range(n)}
        victim = int(gen.integers(0, n))

        honest = tree_payments(tree, pays, types)[victim]

        # Build the attacked tree: chain of identities replacing victim;
        # the victim's auction payment lands on one random identity (the
        # equal-ask-value case: the total is preserved, its position on the
        # chain is arbitrary).
        ids = [n + i for i in range(chain_len)]
        attacked = tree.copy()
        parent = attacked.parent(victim)
        attacked.attach(ids[0], parent)
        for a, b in zip(ids, ids[1:]):
            attacked.attach(b, a)
        for child in list(attacked.children(victim)):
            attacked.reattach(child, ids[-1])
        attacked.remove_leaf(victim)

        new_pays = dict(pays)
        paid_identity = ids[int(gen.integers(0, chain_len))]
        new_pays[paid_identity] = new_pays.pop(victim)
        new_types = dict(types)
        vt = new_types.pop(victim)
        for i in ids:
            new_types[i] = vt

        attacked_payments = tree_payments(attacked, new_pays, new_types)
        total = sum(attacked_payments[i] for i in ids)
        assert total <= honest + 1e-9

    def test_theorem4_payment_level(self):
        """Theorem 4 at the payment rule: attaching a newcomer with
        positive auction payment (a) never reduces any existing payment,
        and (b) benefits an other-type solicitor most when the newcomer
        is its own child rather than deeper in its subtree or elsewhere."""
        import numpy as np

        gen = np.random.default_rng(7)
        for _ in range(30):
            n = int(gen.integers(3, 15))
            tree = IncentiveTree()
            for node in range(n):
                parent = ROOT if node == 0 else int(gen.integers(-1, node))
                tree.attach(node, parent if parent >= 0 else ROOT)
            pays = {i: float(gen.uniform(0, 10)) for i in range(n)}
            types = {i: int(gen.integers(0, 3)) for i in range(n)}
            before = tree_payments(tree, pays, types)

            solicitor = int(gen.integers(0, n))
            newcomer = n
            new_pay = float(gen.uniform(0.1, 10))
            new_type = (types[solicitor] + 1) % 3  # different type

            def payment_with_parent(parent):
                variant = tree.copy()
                variant.attach(newcomer, parent)
                p = dict(pays)
                p[newcomer] = new_pay
                t = dict(types)
                t[newcomer] = new_type
                return tree_payments(variant, p, t)

            as_child = payment_with_parent(solicitor)
            # (a) monotonicity for everyone.
            for node in before:
                assert as_child[node] >= before[node] - 1e-9
            # (b) child placement dominates any deeper-in-subtree or
            # outside placement for the solicitor.
            candidates = [ROOT] + [x for x in range(n) if x != solicitor]
            for parent in candidates:
                other = payment_with_parent(parent)
                assert as_child[solicitor] >= other[solicitor] - 1e-9

    def test_sibling_split_is_neutral(self):
        """Lemma 6.4's second shape: sibling identities leave the utility
        unchanged (depths of all other nodes are untouched)."""
        tree = make_tree([(ROOT, 1), (1, 2), (2, 3)])
        pays = {1: 0.0, 2: 6.0, 3: 4.0}
        types = {1: 0, 2: 1, 3: 2}
        honest = tree_payments(tree, pays, types)[2]

        # Split node 2 into siblings 10 and 11 under node 1; child 3 goes
        # under 10; auction payment preserved on identity 10.
        attacked = make_tree([(ROOT, 1), (1, 10), (1, 11), (10, 3)])
        pays2 = {1: 0.0, 10: 6.0, 11: 0.0, 3: 4.0}
        types2 = {1: 0, 10: 1, 11: 1, 3: 2}
        p = tree_payments(attacked, pays2, types2)
        assert p[10] + p[11] == pytest.approx(honest)
