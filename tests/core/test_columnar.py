"""Unit tests for the columnar profile's arrays, pools and BFS placement.

The differential guarantees (production engine == reference oracle, seed
by seed) live in ``test_rit_engines.py`` and
``test_columnar_differential.py``; this file pins what
``ColumnarStore.build`` assembles from a profile and its tree — array
layout, validation messages, frozen ownership, pools equal to a fresh
per-run construction.
"""

import numpy as np
import pytest

from repro.core.columnar import ColumnarStore
from repro.core.exceptions import ModelError
from repro.core.extract import extract
from repro.core.rit import RIT, profile_arrays, pools_from_arrays
from repro.core.types import Ask, Job
from repro.tree.incentive_tree import IncentiveTree
from repro.workloads.scenarios import paper_scenario
from repro.workloads.users import UserDistribution


def small_scenario(users=60, types=3, tasks_per_type=8, seed=5):
    job = Job.uniform(types, tasks_per_type)
    scenario = paper_scenario(
        users, job, rng=seed, distribution=UserDistribution(num_types=types)
    )
    return job, scenario


@pytest.fixture()
def store_setup():
    job, scenario = small_scenario()
    asks = scenario.truthful_asks()
    return job, scenario, asks, ColumnarStore.build(job, asks, scenario.tree)


class TestStoreConstruction:
    def test_profile_arrays_match_the_object_path(self, store_setup):
        job, scenario, asks, store = store_setup
        uid_arr, type_arr, val_arr, cap_arr = profile_arrays(dict(asks))
        np.testing.assert_array_equal(store.asks.uids, uid_arr)
        np.testing.assert_array_equal(store.asks.types, type_arr)
        np.testing.assert_array_equal(store.asks.ask_values, val_arr)
        np.testing.assert_array_equal(store.asks.caps, cap_arr)
        assert len(store.asks) == len(asks)
        assert store.asks.k_max == int(cap_arr.max())

    def test_arrays_are_frozen(self, store_setup):
        _, _, _, store = store_setup
        for arr in (
            store.asks.uids,
            store.asks.ask_values,
            store.asks.caps,
            store.view.parent,
            store.bfs_types,
        ):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_empty_profile_builds_an_empty_store(self):
        job = Job.uniform(2, 3)
        store = ColumnarStore.build(job, {}, IncentiveTree())
        assert len(store.asks) == 0 and len(store.view) == 0
        assert store.asks.k_max == 0
        assert store.asks.pool(0) is None
        assert store.bfs_types.shape == (0,)


class TestValidation:
    def test_error_messages_match_the_object_path(self):
        job, scenario = small_scenario(users=20)
        asks = scenario.truthful_asks()
        mech = RIT(engine="sorted")

        def messages(bad_asks, bad_tree):
            errors = []
            for build in (
                lambda: ColumnarStore.build(job, bad_asks, bad_tree),
                lambda: mech.run(
                    job, bad_asks, bad_tree, np.random.default_rng(0)
                ),
            ):
                with pytest.raises(ModelError) as excinfo:
                    build()
                errors.append(str(excinfo.value))
            return errors

        # An ask from a user the tree never admitted.
        extra = dict(asks)
        extra[999] = Ask(task_type=0, capacity=1, value=1.0)
        columnar_msg, object_msg = messages(extra, scenario.tree)
        assert columnar_msg == object_msg

        # A tree node that never submitted an ask.
        short = dict(asks)
        del short[next(iter(short))]
        columnar_msg, object_msg = messages(short, scenario.tree)
        assert columnar_msg == object_msg

    def test_out_of_range_type_names_the_first_offender(self):
        job = Job.uniform(2, 3)
        tree = IncentiveTree()
        tree.attach(0)
        asks = {0: Ask(task_type=7, capacity=1, value=1.0)}
        with pytest.raises(ModelError) as excinfo:
            ColumnarStore.build(job, asks, tree)
        assert "user 0 bids for type 7" in str(excinfo.value)


class TestExtractKernel:
    def test_unit_asks_equal_algorithm_2(self, store_setup):
        job, scenario, asks, store = store_setup
        for tau in job.types():
            values, owners = store.asks.pool(tau).unit_asks()
            reference = extract(tau, asks)
            np.testing.assert_array_equal(values, reference.values)
            np.testing.assert_array_equal(owners, reference.owners)


class TestPoolKernel:
    def test_pools_equal_per_run_construction(self, store_setup):
        job, scenario, asks, store = store_setup
        uid_arr, type_arr, val_arr, cap_arr = profile_arrays(asks)
        by_type = pools_from_arrays(uid_arr, type_arr, val_arr, cap_arr)
        for tau in job.types():
            fresh = by_type.get(tau)
            pool = store.asks.pool(tau)
            if fresh is None:
                assert pool is None
                continue
            np.testing.assert_array_equal(pool.uids, fresh.uids)
            np.testing.assert_array_equal(pool.values, fresh.values)
            np.testing.assert_array_equal(pool.remaining, fresh.remaining)
            np.testing.assert_array_equal(
                pool._sorted_users, fresh._sorted_users
            )
            np.testing.assert_array_equal(
                pool._sorted_values, fresh._sorted_values
            )
            np.testing.assert_array_equal(pool._prefix, fresh._prefix)
            np.testing.assert_array_equal(pool._unit_ends, fresh._unit_ends)
            np.testing.assert_array_equal(pool._ranks, fresh._ranks)

    def test_pool_capacity_state_is_private_per_pool(self, store_setup):
        _, _, _, store = store_setup
        tau = 0
        first = store.asks.pool(tau)
        before = first.remaining.copy()
        first.remaining[:] = 0
        second = store.asks.pool(tau)
        np.testing.assert_array_equal(second.remaining, before)


class TestTreeArrays:
    def test_bfs_layout_matches_the_tree(self, store_setup):
        _, scenario, asks, store = store_setup
        tree = scenario.tree
        order = tree.bfs_order()
        np.testing.assert_array_equal(
            store.view.uids, np.asarray(order, dtype=np.int64)
        )
        depths = tree.depths()
        for pos, uid in enumerate(order):
            assert store.view.depth[pos] == depths[uid]
            assert store.bfs_types[pos] == asks[uid].task_type

    def test_grafted_tree_is_reflected_by_a_fresh_store(self):
        job, scenario = small_scenario(users=40, seed=9)
        asks = dict(scenario.truthful_asks())
        tree = scenario.tree
        # Withdraw the first internal node the way the service does:
        # graft its children onto the grandparent, drop the leaf + ask.
        victim = next(u for u in tree.bfs_order() if tree.children(u))
        tree.reattach_children(victim, tree.parent(victim))
        tree.remove_leaf(victim)
        del asks[victim]
        store = ColumnarStore.build(job, asks, tree)
        assert victim not in store.view.uids.tolist()
        np.testing.assert_array_equal(
            store.view.uids, np.asarray(tree.bfs_order(), dtype=np.int64)
        )
        depths = tree.depths()
        for pos, uid in enumerate(tree.bfs_order()):
            assert store.view.depth[pos] == depths[uid]


class TestRunWiring:
    def test_shared_pool_arrays_are_read_only(self, store_setup):
        job, _, _, store = store_setup
        for tau in job.types():
            pool = store.asks.pool(tau)
            for arr in (
                pool.uids,
                pool.values,
                pool._sorted_users,
                pool._sorted_values,
                pool._prefix,
                pool._unit_ends,
                pool._ranks,
            ):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0
            # A run consumes its own capacities, never the profile's.
            before = store.asks.pool(tau).remaining.copy()
            pool.consume_positions(np.flatnonzero(pool.remaining > 0)[:1])
            np.testing.assert_array_equal(store.asks.pool(tau).remaining, before)
            assert store.asks.pool(tau).total_remaining() == int(before.sum())
