"""The immutable ask profile: its Mapping contract, ownership and caches.

``RIT.run`` reads every profile through ``AskProfile.of``, and a profile
caches its per-type pools across runs.  These tests pin that a profile
behaves as the dict it replaces, that it never writes its caller's
arrays, that cached pools give the outcomes fresh ones give (repeated,
interleaved and concurrent runs), and that ``truthful_asks()`` equals
the dict the scenarios used to build.
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import AskProfile
from repro.core.exceptions import ModelError
from repro.core.rit import RIT, RNG_POLICIES
from repro.core.types import Ask, Job, Population, User
from repro.service.ledger import canonical_outcome
from repro.tree.incentive_tree import ROOT, IncentiveTree
from repro.workloads.scenarios import (
    Scenario,
    environmental_monitoring,
    healthcare,
    paper_scenario,
    spectrum_sensing,
)
from repro.workloads.users import UserDistribution
from tests.core.reference_rit import MECHANISMS


def canonical(outcome):
    """Outcome projection as text: float bits kept, NaN prices equal."""
    return json.dumps(canonical_outcome(outcome))


def old_truthful_asks(scenario):
    """The dict ``Scenario.truthful_asks`` built before it returned a profile."""
    return {
        uid: scenario.population[uid].truthful_ask()
        for uid in scenario.tree.nodes()
        if uid in scenario.population
    }


def small_profile():
    uids = [40, 7, 1000, 3]
    asks = {
        40: Ask(1, 2, 3.5),
        7: Ask(0, 1, 1.25),
        1000: Ask(1, 4, 3.5),
        3: Ask(2, 3, 0.75),
    }
    profile = AskProfile(
        np.array(uids),
        np.array([asks[u].task_type for u in uids]),
        np.array([asks[u].value for u in uids]),
        np.array([asks[u].capacity for u in uids]),
    )
    return profile, asks


def scenario_inputs(users=120, types=3, tasks_per_type=6, seed=2):
    job = Job.uniform(types, tasks_per_type)
    scenario = paper_scenario(
        users, job, seed, distribution=UserDistribution(num_types=types)
    )
    return job, scenario.truthful_asks(), scenario.tree


@st.composite
def profile_instances(draw):
    """A random instance whose profile order is not its tree's BFS order.

    Ids are distinct but not dense; some job types may have no bidder and
    some a single one; a coarse value grid produces exact ties.
    """
    num_types = draw(st.integers(min_value=1, max_value=4))
    bidding = draw(st.integers(min_value=1, max_value=num_types))
    tasks = [draw(st.integers(min_value=0, max_value=6)) for _ in range(num_types)]
    if not any(tasks):
        tasks[0] = 1
    job = Job(tasks)
    uids = draw(
        st.lists(
            st.integers(min_value=0, max_value=5_000),
            min_size=1,
            max_size=40,
            unique=True,
        )
    )
    tree = IncentiveTree()
    for index, uid in enumerate(uids):
        tree.attach(uid, draw(st.sampled_from([ROOT] + uids[:index])))
    order = draw(st.permutations(uids))
    tie_values = draw(st.booleans())
    asks = {}
    for uid in order:
        if tie_values:
            value = draw(st.sampled_from([0.5, 1.0, 2.0]))
        else:
            value = draw(st.floats(min_value=0.05, max_value=20.0))
        asks[uid] = Ask(
            task_type=draw(st.integers(min_value=0, max_value=bidding - 1)),
            capacity=draw(st.integers(min_value=1, max_value=5)),
            value=value,
        )
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return job, asks, tree, seed


class TestDictDifferential:
    @given(instance=profile_instances())
    @settings(max_examples=40, deadline=None)
    def test_profile_runs_equal_dict_runs(self, instance):
        job, asks, tree, seed = instance
        uids = list(asks)
        profile = AskProfile(
            np.array(uids, dtype=np.int64),
            np.array([asks[u].task_type for u in uids], dtype=np.int64),
            np.array([asks[u].value for u in uids]),
            np.array([asks[u].capacity for u in uids], dtype=np.int64),
        )
        for engine, build in MECHANISMS.items():
            for policy in RNG_POLICIES:
                mech = build(rng_policy=policy, round_budget="until-complete")
                expected = canonical(mech.run(job, asks, tree, seed))
                # The second run over the profile reads its cached pools.
                for attempt in range(2):
                    got = canonical(mech.run(job, profile, tree, seed))
                    assert got == expected, (engine, policy, attempt)


class TestCachedRuns:
    def test_repeated_and_interleaved_seeds_equal_fresh_runs(self):
        job, profile, tree = scenario_inputs()
        mech = RIT(round_budget="until-complete")
        for seed in (5, 1, 5, 9, 1, 9):
            cached = canonical(mech.run(job, profile, tree, seed))
            fresh = canonical(mech.run(job, dict(profile), tree, seed))
            assert cached == fresh, seed

    def test_cached_pools_stay_read_only_and_unconsumed(self):
        job, profile, tree = scenario_inputs()
        mech = RIT(round_budget="until-complete")
        for seed in range(3):
            assert mech.run(job, profile, tree, seed).completed
        pools = profile.pools()
        assert pools is profile.pools()
        for tau, pool in pools.items():
            for arr in (
                pool.uids,
                pool.values,
                pool.remaining,
                pool._sorted_users,
                pool._sorted_values,
                pool._prefix,
                pool._unit_ends,
                pool._ranks,
            ):
                assert not arr.flags.writeable
            caps = profile.caps[profile.types == tau]
            np.testing.assert_array_equal(pool.remaining, caps)
            assert pool.total_remaining() == int(caps.sum())

    @pytest.mark.parametrize("engine", MECHANISMS)
    def test_runs_build_no_ask(self, engine, monkeypatch):
        job, profile, tree = scenario_inputs()
        fresh = AskProfile.of(dict(profile))
        built = []
        original = Ask.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(Ask, "__post_init__", counting)
        mech = MECHANISMS[engine](round_budget="until-complete")
        for seed in range(2):
            assert mech.run(job, fresh, tree, seed).completed
        assert built == []

    def test_thread_pool_runs_equal_serial_runs(self):
        job, profile, tree = scenario_inputs(users=200, seed=8)
        mech = RIT(rng_policy="per-type", round_budget="until-complete")
        seeds = list(range(8))
        serial = [
            canonical(mech.run(job, dict(profile), tree, s)) for s in seeds
        ]
        fresh = AskProfile.of(dict(profile))  # pools not built yet
        tree.bfs_view()  # the tree's cache is not under test here
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(
                pool.map(lambda s: canonical(mech.run(job, fresh, tree, s)), seeds)
            )
        assert threaded == serial


class TestConcurrentCaches:
    def test_racing_threads_share_one_ask_and_one_pool_set(self):
        _, shared, _ = scenario_inputs(users=400, seed=3)
        uids = list(shared)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                profile = AskProfile.of(dict(shared))
                start = threading.Barrier(8)

                def grab():
                    start.wait(timeout=10)
                    return [profile[uid] for uid in uids], profile.pools()

                with ThreadPoolExecutor(max_workers=8) as pool:
                    results = [
                        f.result(timeout=30)
                        for f in [pool.submit(grab) for _ in range(8)]
                    ]
                first_asks, first_pools = results[0]
                for asks, pools in results[1:]:
                    assert pools is first_pools
                    assert all(a is b for a, b in zip(asks, first_asks))
                assert all(profile[uid] is a for uid, a in zip(uids, first_asks))
        finally:
            sys.setswitchinterval(interval)


class TestMappingContract:
    def test_lookups_match_the_dict(self):
        profile, asks = small_profile()
        assert len(profile) == len(asks) == 4
        assert list(profile) == list(asks) == [40, 7, 1000, 3]
        assert list(profile.keys()) == list(asks.keys())
        assert list(profile.values()) == list(asks.values())
        assert list(profile.items()) == list(asks.items())
        for uid, ask in asks.items():
            assert uid in profile
            assert profile[uid] == ask
            assert profile.get(uid) == ask
        assert profile.get(8) is None
        assert profile.get(8, "absent") == "absent"
        for missing in (8, -1, 2**70, "40", 40.5, None):
            assert missing not in profile
            with pytest.raises(KeyError):
                profile[missing]
        assert np.int64(1000) in profile
        assert profile[np.int64(7)] == asks[7]

    def test_equals_the_dict_both_ways(self):
        profile, asks = small_profile()
        assert profile == asks
        assert asks == profile
        changed = dict(asks)
        changed[3] = Ask(2, 3, 0.5)
        assert profile != changed
        assert changed != profile
        assert profile != {uid: asks[uid] for uid in list(asks)[:3]}
        assert AskProfile.of(asks) == profile

    def test_no_item_assignment_or_deletion(self):
        profile, _ = small_profile()
        with pytest.raises(TypeError):
            profile[40] = Ask(0, 1, 1.0)
        with pytest.raises(TypeError):
            del profile[40]
        with pytest.raises(AttributeError):
            profile.uids = np.arange(4)
        with pytest.raises(AttributeError):
            del profile.caps
        with pytest.raises(ValueError):
            profile.ask_values[0] = 9.0
        assert len(profile) == 4 and profile[40] == Ask(1, 2, 3.5)

    def test_each_ask_is_built_once(self):
        profile, _ = small_profile()
        one, two = dict(profile), dict(profile)
        assert all(one[uid] is two[uid] for uid in one)
        assert profile[7] is one[7]
        assert all(ask is one[uid] for uid, ask in profile.items())
        assert all(a is b for a, b in zip(profile.values(), one.values()))

    def test_of_passes_a_profile_through(self):
        profile, asks = small_profile()
        assert AskProfile.of(profile) is profile
        converted = AskProfile.of(asks)
        assert list(converted) == list(asks)
        assert converted.k_max == 4 and converted.type_width == 3

    def test_pickles_to_an_equal_profile(self):
        import pickle

        profile, asks = small_profile()
        copy = pickle.loads(pickle.dumps(profile))
        assert copy == asks and list(copy) == list(asks)

    @pytest.mark.parametrize(
        "columns, message",
        [
            (([1, 1], [0, 0], [1.0, 1.0], [1, 1]), "duplicate user id 1"),
            (([1, 2], [0, -1], [1.0, 1.0], [1, 1]), "user 2: task_type"),
            (([1, 2], [0, 0], [1.0, 1.0], [1, 0]), "user 2: capacity"),
            (([1, 2], [0, 0], [np.inf, 1.0], [1, 1]), "user 1: ask value"),
            (([1, 2], [0, 0], [1.0, -2.0], [1, 1]), "user 2: ask value"),
            (([1, 2], [0], [1.0, 1.0], [1, 1]), "equal lengths"),
            (([1, 2], [0, 0], [1.0, 1.0], [1.5, 1.0]), "caps must be int64"),
            (([[1, 2]], [[0, 0]], [[1.0, 1.0]], [[1, 1]]), "one-dimensional"),
        ],
    )
    def test_rejects_what_ask_rejects(self, columns, message):
        with pytest.raises(ModelError) as excinfo:
            AskProfile(*columns)
        assert message in str(excinfo.value)

    def test_sorted_lookup_equals_a_stable_sort_over_shuffled_ids(self):
        # Ids are distinct, so the default sort's permutation is the
        # stable sort's.
        uids = np.random.default_rng(5).permutation(
            np.arange(0, 30_000, 3, dtype=np.int64)
        )
        n = uids.shape[0]
        types = np.arange(n, dtype=np.int64) % 4
        profile = AskProfile(uids, types, np.ones(n), np.ones(n, dtype=np.int64))
        stable = np.argsort(uids, kind="stable")
        np.testing.assert_array_equal(profile._sorted_rows, stable)
        np.testing.assert_array_equal(profile._sorted_uids, uids[stable])
        np.testing.assert_array_equal(profile.types_of(uids[::-1]), types[::-1])

    def test_duplicate_ids_name_the_smallest_duplicate(self):
        uids = [90, 41, 7, 41, 90, 3, 7]
        n = len(uids)
        with pytest.raises(ModelError, match="duplicate user id 7$"):
            AskProfile(uids, [0] * n, [1.0] * n, [1] * n)

    def test_empty_profile(self):
        profile = AskProfile.of({})
        assert len(profile) == 0 and list(profile) == [] and profile == {}
        assert profile.k_max == 0 and profile.type_width == 0
        assert profile.pool(0) is None
        assert 0 not in profile


class TestOwnership:
    def test_writeable_inputs_are_copied_and_left_writeable(self):
        uids = np.array([4, 2, 9], dtype=np.int64)
        types = np.array([0, 1, 0], dtype=np.int64)
        values = np.array([1.5, 2.0, 0.5])
        caps = np.array([2, 1, 3], dtype=np.int64)
        inputs = (uids, types, values, caps)
        profile = AskProfile(*inputs)
        tree = IncentiveTree()
        for uid in (4, 2, 9):
            tree.attach(uid)
        RIT().run(Job.uniform(2, 1), profile, tree, 0)  # builds the pools
        assert all(arr.flags.writeable for arr in inputs)
        own = (profile.uids, profile.types, profile.ask_values, profile.caps)
        for arr, source in zip(own, inputs):
            assert not arr.flags.writeable
            assert not np.shares_memory(arr, source)
        uids[0] = 77  # the caller's arrays stay the caller's
        assert profile.uids[0] == 4 and 77 not in profile

    def test_read_only_columns_are_shared_without_a_copy(self):
        columns = [
            np.array([4, 2], dtype=np.int64),
            np.array([0, 1], dtype=np.int64),
            np.array([1.5, 2.0]),
            np.array([2, 1], dtype=np.int64),
        ]
        for arr in columns:
            arr.setflags(write=False)
        profile = AskProfile(*columns)
        assert profile.uids is columns[0]
        assert profile.types is columns[1]
        assert profile.ask_values is columns[2]
        assert profile.caps is columns[3]

    def test_a_snapshot_profile_reads_the_snapshot_columns(self):
        from repro.service.events import AskSubmitted
        from repro.service.state import ServiceState

        state = ServiceState(Job.uniform(2, 1))
        for uid in (5, 3, 8):
            state.apply(
                AskSubmitted(
                    tick=uid, user_id=uid, task_type=uid % 2, capacity=2, value=1.0 + uid
                )
            )
        snapshot = state.snapshot()
        profile = snapshot.asks
        assert isinstance(profile, AskProfile)
        assert profile.uids is snapshot.uids
        assert profile.ask_values is snapshot.values
        assert list(profile) == [5, 3, 8]
        assert profile[3] == Ask(1, 2, 4.0)


class TestTruthfulAsks:
    @pytest.mark.parametrize("supply_threshold", [False, True])
    def test_paper_scenario_equals_the_dict(self, supply_threshold):
        job = Job.uniform(3, 20)
        scenario = paper_scenario(
            300,
            job,
            11,
            distribution=UserDistribution(num_types=3),
            supply_threshold=supply_threshold,
        )
        profile = scenario.truthful_asks()
        expected = old_truthful_asks(scenario)
        if supply_threshold:
            assert len(expected) < len(scenario.population)
        assert isinstance(profile, AskProfile)
        assert list(profile.items()) == list(expected.items())

    @pytest.mark.parametrize(
        "make", [spectrum_sensing, healthcare, environmental_monitoring]
    )
    def test_domain_scenarios_equal_the_dict(self, make):
        scenario = make(rng=4)
        assert list(scenario.truthful_asks().items()) == list(
            old_truthful_asks(scenario).items()
        )

    def test_non_dense_population_ids(self):
        users = [
            User(user_id=uid, task_type=uid % 3, capacity=1 + uid % 4, cost=0.5 + uid)
            for uid in (901, 12, 4000, 77, 3)
        ]
        population = Population(users)
        tree = IncentiveTree()
        tree.attach(77)
        tree.attach(5555)  # a node outside the population has no ask
        tree.attach(12, 77)
        tree.attach(3, 5555)
        tree.attach(901, 12)
        scenario = Scenario("sparse", Job.uniform(3, 1), population, tree)
        profile = scenario.truthful_asks()
        assert list(profile) == [77, 12, 3, 901]
        assert list(profile.items()) == list(old_truthful_asks(scenario).items())
        assert list(population.truthful_asks().items()) == [
            (u.user_id, u.truthful_ask()) for u in users
        ]
        assert population.truthful_asks() is population.truthful_asks()
