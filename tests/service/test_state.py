"""The cumulative state machine: admission rules and withdrawal grafting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rit import profile_arrays
from repro.core.types import Job
from repro.service.events import AskSubmitted, ReferralEdge, Withdrawal
from repro.service.state import ServiceState
from repro.tree.incentive_tree import ROOT, IncentiveTree
from tests.service.state_oracle import ScanningState
from tests.tree.test_incentive_tree import assert_same_view, structure

JOB = Job([4, 3, 5])


def ask(uid, tick=0, task_type=0, capacity=2, value=1.5):
    return AskSubmitted(
        tick=tick, user_id=uid, task_type=task_type, capacity=capacity,
        value=value,
    )


class TestAskAdmission:
    def test_spontaneous_join_attaches_to_root(self):
        state = ServiceState(JOB)
        assert state.apply(ask(0)) is None
        assert state.snapshot_tree().to_parent_map()[0] == ROOT

    def test_duplicate_ask_refused(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        assert "already submitted" in state.apply(ask(0))
        assert state.num_participants == 1

    def test_referral_then_join_attaches_to_parent(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        assert state.apply(ReferralEdge(tick=1, parent_id=0, child_id=1)) is None
        assert state.apply(ask(1, tick=2)) is None
        assert state.snapshot_tree().to_parent_map()[1] == 0


class TestReferralAdmission:
    def test_referral_after_join_refused(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        state.apply(ask(1))
        refused = state.apply(ReferralEdge(tick=1, parent_id=0, child_id=1))
        assert "already joined" in refused

    def test_duplicate_referrer_refused(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        state.apply(ask(1))
        state.apply(ReferralEdge(tick=1, parent_id=0, child_id=2))
        refused = state.apply(ReferralEdge(tick=2, parent_id=1, child_id=2))
        assert "already has a recorded referrer" in refused

    def test_unjoined_referrer_refused_root_allowed(self):
        state = ServiceState(JOB)
        assert "has not joined" in state.apply(
            ReferralEdge(tick=0, parent_id=9, child_id=1)
        )
        assert state.apply(ReferralEdge(tick=0, parent_id=ROOT, child_id=1)) is None


class TestWithdrawal:
    def test_withdraw_non_participant_refused(self):
        state = ServiceState(JOB)
        assert "not an active participant" in state.apply(
            Withdrawal(tick=0, user_id=5)
        )

    def test_withdraw_grafts_joined_children_to_grandparent(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        state.apply(ReferralEdge(tick=1, parent_id=0, child_id=1))
        state.apply(ask(1, tick=2))
        state.apply(ReferralEdge(tick=3, parent_id=1, child_id=2))
        state.apply(ask(2, tick=4))
        assert state.apply(Withdrawal(tick=5, user_id=1)) is None
        parents = state.snapshot_tree().to_parent_map()
        assert 1 not in parents
        assert parents[2] == 0  # grafted past the withdrawn middle node
        assert 1 not in state.snapshot_asks()

    def test_withdraw_grafts_pending_referrals(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        state.apply(ReferralEdge(tick=1, parent_id=0, child_id=1))
        state.apply(ask(1, tick=2))
        state.apply(ReferralEdge(tick=3, parent_id=1, child_id=2))
        state.apply(Withdrawal(tick=4, user_id=1))
        # user 2 never joined before the referrer withdrew; on join they
        # attach to the withdrawn user's parent, not to a dangling id.
        state.apply(ask(2, tick=5))
        assert state.snapshot_tree().to_parent_map()[2] == 0

    def test_withdraw_root_child_grafts_to_root(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        state.apply(ReferralEdge(tick=1, parent_id=0, child_id=1))
        state.apply(ask(1, tick=2))
        state.apply(Withdrawal(tick=3, user_id=0))
        assert state.snapshot_tree().to_parent_map()[1] == ROOT


COLUMNS = ("uids", "types", "values", "caps", "parents")


class TestSnapshots:
    def test_snapshots_are_isolated_from_later_events(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        asks_before = state.snapshot_asks()
        tree_before = state.snapshot_tree()
        state.apply(ask(1))
        assert list(asks_before) == [0]
        assert 1 not in tree_before.to_parent_map()

    def test_snapshot_arrays_are_read_only_copies(self):
        state = ServiceState(JOB)
        state.apply(ask(0))
        state.apply(ReferralEdge(tick=1, parent_id=0, child_id=1))
        state.apply(ask(1, tick=2, task_type=1))
        state.apply(ask(2, tick=3, task_type=2))
        snapshot = state.snapshot()
        arrays = [getattr(snapshot, name) for name in COLUMNS] + [
            snapshot.view.uids,
            snapshot.view.parent,
            snapshot.view.depth,
        ]
        before = [arr.copy() for arr in arrays]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 7
        # Growth appends rows; a withdrawal clears a live flag and
        # re-points the leaver's child; a rejoin appends a fresh row.
        state.apply(ask(3, tick=4))
        state.apply(Withdrawal(tick=5, user_id=0))
        state.apply(ask(0, tick=6, task_type=2))
        for arr, copy in zip(arrays, before):
            np.testing.assert_array_equal(arr, copy)
        assert list(state.snapshot().uids) == [1, 2, 3, 0]

    def test_admission_order_is_preserved(self):
        state = ServiceState(JOB)
        for uid in (5, 2, 9, 0):
            state.apply(ask(uid))
        assert list(state.snapshot_asks()) == [5, 2, 9, 0]


#: A small id space, so withdrawn ids rejoin and referrals collide.
ID_SPACE = range(20)
IDS = st.sampled_from(ID_SPACE)


def stream_ask(uid, tick):
    """An ask whose type, capacity and value all vary with the user."""
    return ask(
        uid, tick=tick, task_type=uid % 3, capacity=1 + uid % 4,
        value=1.0 + uid / 8,
    )


def random_event(data, oracle, tick):
    """One event, mostly aimed at the oracle's current state."""
    joined = list(oracle.asks)
    unjoined = [uid for uid in ID_SPACE if uid not in oracle.asks]
    kind = data.draw(
        st.sampled_from(
            ("ask", "join-referred", "refer", "chain", "chain", "withdraw")
        )
    )
    if kind == "chain" and joined:
        # Grow a chain under the newest joiner: refer an unclaimed id, then
        # let that referral join (it becomes the newest joiner).
        newest = joined[-1]
        waiting = [uid for uid, p in oracle.pending.items() if p == newest]
        if waiting:
            return stream_ask(waiting[0], tick)
        unclaimed = [uid for uid in unjoined if uid not in oracle.pending]
        if unclaimed:
            return ReferralEdge(tick=tick, parent_id=newest, child_id=unclaimed[0])
    if kind == "join-referred" and oracle.pending:
        uid = data.draw(st.sampled_from(sorted(oracle.pending)))
        return stream_ask(uid, tick)
    if kind in ("ask", "join-referred", "chain"):
        uid = data.draw(IDS)
        return stream_ask(uid, tick)
    if kind == "refer":
        parent = data.draw(st.sampled_from([ROOT] + joined))
        child = data.draw(st.sampled_from(unjoined) if unjoined else IDS)
        return ReferralEdge(tick=tick, parent_id=parent, child_id=child)
    # Withdraw a participant — root children and referrers with pending
    # referrals among them — or, now and then, a non-participant.
    uid = data.draw(st.sampled_from(joined) if joined else IDS)
    return Withdrawal(tick=tick, user_id=uid)


def assert_snapshot_matches(snapshot, oracle):
    """A state snapshot equals the oracle's dict, parent map and walk."""
    for got, want in zip(
        (snapshot.uids, snapshot.types, snapshot.values, snapshot.caps),
        profile_arrays(oracle.asks),
    ):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    view = snapshot.view
    assert_same_view(view, oracle.snapshot_tree().bfs_view())
    parent_uids = [
        ROOT if p < 0 else int(snapshot.uids[p]) for p in snapshot.parents
    ]
    assert dict(zip(snapshot.uids.tolist(), parent_uids)) == oracle.parents
    # The payment phase reads the types of view nodes from the profile.
    assert snapshot.asks.types_of(view.uids).tolist() == [
        oracle.asks[uid].task_type for uid in view.uids.tolist()
    ]


class TestIndexedStateMatchesScanningOracle:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_streams(self, data):
        state, oracle = ServiceState(JOB), ScanningState()
        for tick in range(data.draw(st.integers(min_value=1, max_value=80))):
            event = random_event(data, oracle, tick)
            assert state.apply(event) == oracle.apply(event)
            assert list(state._pending.items()) == list(oracle.pending.items())
            snapshot = state.snapshot()
            assert_snapshot_matches(snapshot, oracle)
            # Insertion order too: it fixes child, BFS and summation order.
            assert list(snapshot.tree.to_parent_map().items()) == list(
                oracle.parents.items()
            )
            assert list(snapshot.asks.items()) == list(oracle.asks.items())
        tree = state.snapshot_tree()
        assert list(tree.to_parent_map().items()) == list(oracle.parents.items())
        assert tree.bfs_order() == oracle.snapshot_tree().bfs_order()

    def test_withdrawn_referrer_with_pending_referrals_then_rejoin(self):
        events = [
            ask(0),
            ReferralEdge(tick=1, parent_id=0, child_id=1),
            ask(1, tick=2),
            ReferralEdge(tick=3, parent_id=1, child_id=2),
            ReferralEdge(tick=3, parent_id=1, child_id=3),
            ask(2, tick=4),
            Withdrawal(tick=5, user_id=1),  # 2 joined, 3 still pending
            ask(1, tick=6),  # the withdrawn id rejoins as a fresh root child
            ask(3, tick=7),
            Withdrawal(tick=8, user_id=0),
        ]
        state, oracle = ServiceState(JOB), ScanningState()
        for event in events:
            assert state.apply(event) == oracle.apply(event)
        snapshot = state.snapshot()
        assert_snapshot_matches(snapshot, oracle)
        assert list(snapshot.tree.to_parent_map().items()) == list(
            oracle.parents.items()
        )
        assert snapshot.tree.to_parent_map() == {
            2: ROOT, 1: ROOT, 3: ROOT,
        }


class TestOfflineForms:
    """The lazily built dict and tree equal the forms snapshots used to copy."""

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_dict_and_tree_equal_the_copied_forms(self, data):
        state, oracle = ServiceState(JOB), ScanningState()
        for tick in range(data.draw(st.integers(min_value=1, max_value=60))):
            event = random_event(data, oracle, tick)
            state.apply(event)
            oracle.apply(event)
        snapshot = state.snapshot()
        # The old snapshot_asks(): a copy of the asks dict.
        assert list(snapshot.asks.items()) == list(dict(oracle.asks).items())
        # The old snapshot_tree(): a one-pass build from the parent map.
        old_tree = IncentiveTree.from_parent_map(oracle.parents)
        assert structure(snapshot.tree) == structure(old_tree)
        snapshot.tree.validate()
        # The tree walks itself; it never borrows the vectorized view.
        assert snapshot.tree.bfs_view() is not snapshot.view
        assert_same_view(snapshot.tree.bfs_view(), snapshot.view)
        assert snapshot.asks is snapshot.asks  # built once
        assert snapshot.tree is snapshot.tree
