"""Epoch batching triggers and the pure epoch-seed derivation."""

from collections.abc import Sequence

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.rit import RIT
from repro.core.types import Job
from repro.service import (
    SERVING_RIT,
    MechanismService,
    ServiceConfig,
    seeded_stream,
)
from repro.service.epochs import (
    BatchAccumulator,
    EpochPipeline,
    EpochPolicy,
    epoch_seed,
)
from repro.service.events import AskSubmitted, ReferralEdge, Withdrawal
from repro.tree.incentive_tree import ROOT
from tests.service.state_oracle import ScanningState

JOB = Job([4, 3, 5])


def ask(uid, tick):
    return AskSubmitted(
        tick=tick, user_id=uid, task_type=uid % JOB.num_types, capacity=2, value=1.0
    )


class TestEpochPolicy:
    def test_rejects_non_positive_max_events(self):
        with pytest.raises(ConfigurationError):
            EpochPolicy(max_events=0)

    def test_rejects_non_positive_max_ticks(self):
        with pytest.raises(ConfigurationError):
            EpochPolicy(max_events=4, max_ticks=0)


class TestBatchAccumulator:
    def test_count_trigger_includes_final_event(self):
        acc = BatchAccumulator(EpochPolicy(max_events=2))
        assert acc.append(ask(0, 0)) is None
        batch = acc.append(ask(1, 1))
        assert batch is not None
        assert [e.user_id for e in batch.events] == [0, 1]
        assert (batch.first_tick, batch.last_tick) == (0, 1)
        assert acc.pending_count == 0

    def test_tick_trigger_closes_before_the_event(self):
        acc = BatchAccumulator(EpochPolicy(max_events=100, max_ticks=5))
        acc.append(ask(0, 0))
        assert acc.maybe_close_on_tick(4) is None
        batch = acc.maybe_close_on_tick(5)
        assert batch is not None
        assert [e.user_id for e in batch.events] == [0]

    def test_tick_trigger_noop_when_empty(self):
        acc = BatchAccumulator(EpochPolicy(max_events=4, max_ticks=5))
        assert acc.maybe_close_on_tick(99) is None

    def test_flush_returns_trailing_partial_batch(self):
        acc = BatchAccumulator(EpochPolicy(max_events=10))
        acc.append(ask(0, 0))
        batch = acc.flush()
        assert batch is not None and batch.num_events == 1
        assert acc.flush() is None

    def test_indices_are_sequential(self):
        acc = BatchAccumulator(EpochPolicy(max_events=1))
        first = acc.append(ask(0, 0))
        second = acc.append(ask(1, 1))
        assert (first.index, second.index) == (0, 1)


class TestEpochSeed:
    def test_pure_function_of_both_integers(self):
        a = np.random.default_rng(epoch_seed(7, 3)).integers(0, 1 << 30, 8)
        b = np.random.default_rng(epoch_seed(7, 3)).integers(0, 1 << 30, 8)
        assert (a == b).all()

    def test_distinct_epochs_get_distinct_streams(self):
        a = np.random.default_rng(epoch_seed(7, 0)).integers(0, 1 << 30, 8)
        b = np.random.default_rng(epoch_seed(7, 1)).integers(0, 1 << 30, 8)
        assert not (a == b).all()

    def test_no_hidden_spawn_counter(self):
        # Deriving epoch 0 must not perturb a later derivation of epoch 1.
        first = epoch_seed(7, 0)
        np.random.default_rng(first).integers(0, 10, 4)
        again = np.random.default_rng(epoch_seed(7, 1)).integers(0, 1 << 30, 8)
        fresh = np.random.default_rng(epoch_seed(7, 1)).integers(0, 1 << 30, 8)
        assert (again == fresh).all()

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            epoch_seed(7, -1)

    @pytest.mark.parametrize(
        "root_seed, index",
        [
            (0, 0), (0, 1), (3, 10), (7, 31), (11, 62), (2**40 + 5, 127),
            (123456789, 500), (2**63 - 1, 5000), (42, 777),
        ],
    )
    def test_equals_the_spawned_child(self, root_seed, index):
        # The spawn form it replaced is the oracle: the index-th of
        # index + 1 children spawned from a fresh root sequence.
        child = np.random.SeedSequence(root_seed).spawn(index + 1)[index]
        seed = epoch_seed(root_seed, index)
        assert seed.entropy == child.entropy
        assert seed.spawn_key == child.spawn_key
        assert seed.pool_size == child.pool_size
        assert seed.n_children_spawned == child.n_children_spawned == 0
        np.testing.assert_array_equal(
            seed.generate_state(8), child.generate_state(8)
        )
        np.testing.assert_array_equal(
            np.random.default_rng(seed).integers(0, 1 << 62, 16),
            np.random.default_rng(child).integers(0, 1 << 62, 16),
        )


class TestEpochPipeline:
    def test_snapshot_carries_cumulative_state_not_just_batch(self):
        pipeline = EpochPipeline(JOB, EpochPolicy(max_events=2))
        pipeline.step(ask(0, 0))
        pipeline.step(ask(1, 1))  # closes epoch 0
        pipeline.step(ask(2, 2))
        _, snapshots = pipeline.step(ask(3, 3))  # closes epoch 1
        assert len(snapshots) == 1
        assert sorted(snapshots[0].asks) == [0, 1, 2, 3]

    def test_refused_event_advances_virtual_clock(self):
        pipeline = EpochPipeline(JOB, EpochPolicy(max_events=100, max_ticks=5))
        pipeline.step(ask(0, 0))
        # A refused withdrawal (unknown user) at tick 9 must still close
        # the pending batch on the tick trigger...
        refused, snapshots = pipeline.step(Withdrawal(tick=9, user_id=77))
        assert refused is not None
        assert len(snapshots) == 1
        # ...and must not appear in any batch.
        assert [e.user_id for e in snapshots[0].batch.events] == [0]

    def test_tick_closed_epoch_excludes_the_closing_event(self):
        pipeline = EpochPipeline(JOB, EpochPolicy(max_events=100, max_ticks=5))
        pipeline.step(ask(0, 0))
        _, snapshots = pipeline.step(ask(1, 8))
        assert len(snapshots) == 1
        assert sorted(snapshots[0].asks) == [0]  # event 1 is next epoch
        tail = pipeline.finish()
        assert [e.user_id for e in tail.batch.events] == [1]

    def test_finish_empty_returns_none(self):
        pipeline = EpochPipeline(JOB, EpochPolicy(max_events=4))
        assert pipeline.finish() is None

    def test_snapshot_forms_match_the_state_at_close(self):
        pipeline = EpochPipeline(JOB, EpochPolicy(max_events=3))
        oracle = ScanningState()
        events = [
            ask(0, 0),
            ReferralEdge(tick=1, parent_id=0, child_id=4),
            ask(4, 2),  # closes epoch 0
            ask(2, 3),
            Withdrawal(tick=4, user_id=0),
            ask(0, 5),  # the rejoin closes epoch 1
        ]
        seen = []
        for event in events:
            oracle.apply(event)
            _, snapshots = pipeline.step(event)
            for snapshot in snapshots:
                seen.append(snapshot)
                assert list(snapshot.asks.items()) == list(oracle.asks.items())
                assert snapshot.tree.to_parent_map() == oracle.parents
                assert snapshot.asks is snapshot.state.asks
                assert snapshot.tree is snapshot.state.tree
        assert [list(s.state.uids) for s in seen] == [[0, 4], [4, 2, 0]]
        assert seen[1].tree.to_parent_map() == {4: ROOT, 2: ROOT, 0: ROOT}


class TestStepContract:
    """What :meth:`EpochPipeline.step` returns: the epochs one event closed."""

    def test_no_closed_epoch_is_an_empty_sequence(self):
        pipeline = EpochPipeline(JOB, EpochPolicy(max_events=4, max_ticks=10))
        for event in (ask(0, 0), ask(0, 1), Withdrawal(tick=2, user_id=9)):
            _, snapshots = pipeline.step(event)
            assert isinstance(snapshots, Sequence)
            assert len(snapshots) == 0
            assert not snapshots
        assert pipeline.accumulator.pending_count == 1

    @pytest.mark.parametrize("max_ticks", [1, 3])
    def test_one_event_closes_at_most_one_epoch(self, max_ticks):
        # With max_events=1 the count trigger closes each applied event's
        # batch at once, so the tick trigger never finds a pending batch:
        # however far an event's tick jumps, it closes exactly its own
        # epoch, and a refused event closes none.
        pipeline = EpochPipeline(
            JOB, EpochPolicy(max_events=1, max_ticks=max_ticks)
        )
        events = [
            ask(0, 0),
            ask(1, 5),
            ask(1, 6),  # refused: a second ask
            ReferralEdge(tick=20, parent_id=0, child_id=7),
            ask(7, 40),
            Withdrawal(tick=41, user_id=1),
            Withdrawal(tick=90, user_id=1),  # refused: already gone
        ]
        closed = []
        for event in events:
            refused, snapshots = pipeline.step(event)
            assert len(snapshots) == (refused is None)
            closed.extend(snapshots)
        applied = [e for i, e in enumerate(events) if i not in (2, 6)]
        assert [s.batch.events for s in closed] == [(e,) for e in applied]
        assert [s.batch.index for s in closed] == list(range(len(applied)))
        assert pipeline.finish() is None

    def test_service_differential_at_one_event_per_epoch(self):
        job, events = seeded_stream(
            5, 40, 2, 4, graph="twitter", withdraw_fraction=0.1
        )
        config = ServiceConfig(seed=5, epoch_max_events=1, epoch_max_ticks=2)
        service = MechanismService(RIT(**SERVING_RIT), job, config)
        report = service.serve_stream(events)
        assert report.refused == 0
        assert len(report.epochs) == report.applied == len(events)
        assert service.replay_check(report) == []
