"""The value order a service state carries from snapshot to snapshot.

Each snapshot merges the rows admitted since the last one into every
type's kept (value, row) order instead of sorting the type afresh.  The
pools it builds from that order must equal :func:`pools_from_arrays` over
the snapshot's columns field by field, its id lookups must equal freshly
built ones, and a served run must equal its replay, which sorts every
pool from scratch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import AskProfile
from repro.core.engine import pools_from_arrays
from repro.core.rit import RIT
from repro.core.types import Job
from repro.service.epochs import EpochPipeline, EpochPolicy
from repro.service.events import AskSubmitted, ReferralEdge, Withdrawal
from repro.service.service import SERVING_RIT, MechanismService, ServiceConfig
from repro.service.state import ServiceState
from repro.tree.incentive_tree import ROOT, BFSView

JOB = Job([2, 3, 2])
#: A small id space, so withdrawn users rejoin; few values, so asks tie
#: within and across types and across epochs.
IDS = st.integers(min_value=0, max_value=13)
VALUES = st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.5])

POOL_FIELDS = (
    "uids",
    "values",
    "remaining",
    "_sorted_users",
    "_sorted_values",
    "_prefix",
    "_unit_ends",
    "_ranks",
)


def assert_same_arrays(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), (got, want)


def assert_carried_pools_are_fresh(state):
    """A state snapshot's pools and lookups equal ones built from scratch."""
    columns = (state.uids, state.types, state.values, state.caps)
    carried = state.asks.pools()
    fresh = pools_from_arrays(*columns)
    assert list(carried) == list(fresh)
    for tau, pool in fresh.items():
        for name in POOL_FIELDS:
            assert_same_arrays(getattr(carried[tau], name), getattr(pool, name))
        assert not carried[tau]._sorted_users.flags.writeable
    profile = AskProfile(*columns)
    assert_same_arrays(state.asks._sorted_uids, profile._sorted_uids)
    assert_same_arrays(state.asks._sorted_rows, profile._sorted_rows)
    view = BFSView.from_parents(state.uids, state.parents)
    assert_same_arrays(state.view._sorted_uids, view._sorted_uids)
    assert_same_arrays(state.view._sorted_positions, view._sorted_positions)


def draw_event(data, tick, joined, referred):
    """One event; ``joined`` maps each participant to its type."""
    kind = data.draw(
        st.sampled_from(("ask", "ask", "ask", "refer", "withdraw", "drain"))
    )
    if kind == "refer" and joined:
        parent = data.draw(st.sampled_from([ROOT] + sorted(joined)))
        return [ReferralEdge(tick=tick, parent_id=parent, child_id=data.draw(IDS))]
    if kind == "withdraw" and joined:
        uid = data.draw(st.sampled_from(sorted(joined)))
        return [Withdrawal(tick=tick, user_id=uid)]
    if kind == "drain" and joined:
        # Every participant of one type leaves: the type's pool goes.
        tau = data.draw(st.sampled_from(sorted(set(joined.values()))))
        return [
            Withdrawal(tick=tick, user_id=uid)
            for uid, t in sorted(joined.items())
            if t == tau
        ]
    if referred and data.draw(st.booleans()):
        uid = data.draw(st.sampled_from(sorted(referred)))
    else:
        uid = data.draw(IDS)
    return [
        AskSubmitted(
            tick=tick,
            user_id=uid,
            task_type=data.draw(st.integers(min_value=0, max_value=2)),
            capacity=data.draw(st.integers(min_value=1, max_value=3)),
            value=data.draw(VALUES),
        )
    ]


class TestCarriedOrder:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_snapshots_equal_a_fresh_build(self, data):
        policy = EpochPolicy(
            max_events=data.draw(st.integers(min_value=1, max_value=9)),
            max_ticks=data.draw(st.sampled_from([None, 2, 5])),
        )
        pipeline = EpochPipeline(JOB, policy)
        joined, referred, events = {}, set(), []
        for tick in range(data.draw(st.integers(min_value=1, max_value=70))):
            for event in draw_event(data, tick, joined, referred):
                events.append(event)
                refused, snapshots = pipeline.step(event)
                if refused is None:
                    if isinstance(event, AskSubmitted):
                        joined[event.user_id] = event.task_type
                        referred.discard(event.user_id)
                    elif isinstance(event, Withdrawal):
                        del joined[event.user_id]
                    else:
                        referred.add(event.child_id)
                for snapshot in snapshots:
                    assert_carried_pools_are_fresh(snapshot.state)
            if data.draw(st.integers(min_value=0, max_value=5)) == 0:
                # An extra snapshot between epochs merges a different
                # slice of arrivals.
                assert_carried_pools_are_fresh(pipeline.state.snapshot())
        tail = pipeline.finish()
        if tail is not None:
            assert_carried_pools_are_fresh(tail.state)

        service = MechanismService(
            RIT(**SERVING_RIT),
            JOB,
            ServiceConfig(
                seed=7,
                epoch_max_events=policy.max_events,
                epoch_max_ticks=policy.max_ticks,
            ),
        )
        report = service.serve_stream(events)
        assert service.replay_check(report) == []

    def test_arrivals_go_after_kept_ties(self):
        # The kept row of value 1.0 is older than the arrival of 1.0, so
        # it stays first; an arrival before it would break the stable
        # order the auction's tie-break relies on.
        state = ServiceState(JOB)
        for uid, value in ((0, 1.0), (1, 2.0)):
            state.apply(AskSubmitted(0, uid, 0, 1, value))
        state.snapshot()
        for uid, value in ((2, 1.0), (3, 0.5), (4, 2.0)):
            state.apply(AskSubmitted(1, uid, 0, 1, value))
        pool = state.snapshot().asks.pools()[0]
        assert pool.uids[pool._sorted_users].tolist() == [3, 0, 2, 1, 4]
        assert_carried_pools_are_fresh(state.snapshot())

    def test_a_type_whose_every_row_withdrew_has_no_pool(self):
        state = ServiceState(JOB)
        state.apply(AskSubmitted(0, 0, 0, 1, 1.0))
        state.apply(AskSubmitted(0, 1, 1, 1, 1.0))
        assert list(state.snapshot().asks.pools()) == [0, 1]
        state.apply(Withdrawal(1, 1))
        snapshot = state.snapshot()
        assert list(snapshot.asks.pools()) == [0]
        assert_carried_pools_are_fresh(snapshot)
        state.apply(AskSubmitted(2, 1, 1, 2, 0.5))  # a rejoin brings it back
        assert list(state.snapshot().asks.pools()) == [0, 1]

    def test_the_profile_and_view_share_one_id_sort(self):
        state = ServiceState(JOB)
        for uid in (9, 4, 7):
            state.apply(AskSubmitted(0, uid, uid % 3, 1, 1.0))
        snapshot = state.snapshot()
        assert snapshot.asks._sorted_uids is snapshot.view._sorted_uids
        assert snapshot.asks._sorted_uids.tolist() == [4, 7, 9]
