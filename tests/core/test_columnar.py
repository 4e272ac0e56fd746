"""Unit tests for the columnar struct-of-arrays store.

The differential guarantees (columnar == sorted, seed by seed) live in
``test_rit_engines.py`` and ``test_columnar_differential.py``; this file
pins the store's construction contract — array layout, validation
messages, frozen ownership, pools equal to the sorted engine's.
"""

import numpy as np
import pytest

from repro.core.columnar import ColumnarStore
from repro.core.exceptions import ConfigurationError, ModelError
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
        assert store.num_users == len(asks)
        assert store.k_max == int(cap_arr.max())

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

    def test_nbytes_counts_profile_tree_and_blocks(self, store_setup):
        job, _, _, store = store_setup
        floor = (
            store.asks.uids.nbytes
            + store.view.nbytes
            + sum(store.pool(tau).nbytes for tau in job.types())
        )
        assert store.nbytes > floor
        assert isinstance(store.nbytes, int)

    def test_empty_profile_builds_an_empty_store(self):
        job = Job.uniform(2, 3)
        store = ColumnarStore.build(job, {}, IncentiveTree())
        assert store.num_users == 0
        assert store.k_max == 0
        assert store.pool(0) is None
        assert store.nbytes >= 0


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
            values, owners = store.pool(tau).unit_asks()
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
            pool = store.pool(tau)
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

    def test_pool_capacity_state_is_private_per_pool(self, store_setup):
        _, _, _, store = store_setup
        tau = 0
        first = store.pool(tau)
        before = first.remaining.copy()
        first.remaining[:] = 0
        second = store.pool(tau)
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
    def test_store_only_meaningful_for_columnar_engine(self):
        job, scenario = small_scenario(users=20)
        asks = scenario.truthful_asks()
        store = ColumnarStore.build(job, asks, scenario.tree)
        with pytest.raises(ConfigurationError):
            RIT(engine="sorted").run(
                job,
                asks,
                scenario.tree,
                np.random.default_rng(0),
                columnar_store=store,
            )

    def test_stale_store_rejected(self):
        job, scenario = small_scenario(users=20)
        asks = scenario.truthful_asks()
        store = ColumnarStore.build(job, asks, scenario.tree)
        shrunk = dict(asks)
        victim = next(u for u in asks if not scenario.tree.children(u))
        tree = scenario.tree.copy()
        tree.remove_leaf(victim)
        del shrunk[victim]
        with pytest.raises(ConfigurationError) as excinfo:
            RIT(engine="columnar").run(
                job, shrunk, tree, np.random.default_rng(0),
                columnar_store=store,
            )
        assert "rebuild the store per epoch" in str(excinfo.value)

    def test_prebuilt_store_changes_nothing(self):
        job, scenario = small_scenario(users=70, seed=4)
        asks = scenario.truthful_asks()
        store = ColumnarStore.build(job, asks, scenario.tree)
        mech = RIT(engine="columnar")
        with_store = mech.run(
            job,
            asks,
            scenario.tree,
            np.random.default_rng(7),
            columnar_store=store,
        )
        without_store = mech.run(
            job, asks, scenario.tree, np.random.default_rng(7)
        )
        assert with_store.allocation == without_store.allocation
        assert with_store.payments == without_store.payments
        assert (
            with_store.auction_payments == without_store.auction_payments
        )

    def test_one_store_serves_many_runs(self):
        job, scenario = small_scenario(users=90, seed=6)
        asks = scenario.truthful_asks()
        store = ColumnarStore.build(job, asks, scenario.tree)
        mech = RIT(engine="columnar", round_budget="until-complete")
        for seed in (0, 1, 2, 3):
            reused = mech.run(
                job,
                asks,
                scenario.tree,
                np.random.default_rng(seed),
                columnar_store=store,
            )
            fresh = mech.run(
                job,
                asks,
                scenario.tree,
                np.random.default_rng(seed),
                columnar_store=ColumnarStore.build(job, asks, scenario.tree),
            )
            assert reused.allocation, f"seed {seed} allocated nothing"
            assert reused.allocation == fresh.allocation, f"seed {seed}"
            assert reused.auction_payments == fresh.auction_payments
            assert reused.payments == fresh.payments
            # repr keeps float bits and reads a voided round's NaN price
            # as equal to itself.
            assert repr(reused.rounds) == repr(fresh.rounds)

    def test_shared_pool_arrays_are_read_only(self, store_setup):
        job, _, _, store = store_setup
        for tau in job.types():
            pool = store.pool(tau)
            for arr in (
                pool.uids,
                pool.values,
                pool._sorted_users,
                pool._sorted_values,
                pool._prefix,
            ):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0
            # A run consumes its own capacities, never the store's.
            before = store.pool(tau).remaining.copy()
            pool.consume_positions(np.flatnonzero(pool.remaining > 0)[:1])
            np.testing.assert_array_equal(store.pool(tau).remaining, before)
            assert store.pool(tau).total_remaining() == int(before.sum())
