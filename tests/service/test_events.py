"""Structural validation and serialization of service events."""

import math

import pytest

from repro.core.exceptions import ModelError
from repro.core.rit import RIT
from repro.core.types import INT64_MAX, Ask, Job
from repro.service import MechanismService, ServiceConfig
from repro.service.events import (
    AskSubmitted,
    ReferralEdge,
    Withdrawal,
    event_from_dict,
    event_to_dict,
    validate_event,
)
from repro.tree.incentive_tree import ROOT

JOB = Job([4, 3, 5])


class TestValidateEvent:
    def test_valid_ask(self):
        event = AskSubmitted(tick=0, user_id=7, task_type=1, capacity=2, value=3.5)
        assert validate_event(event, JOB) is None

    def test_negative_tick(self):
        event = AskSubmitted(tick=-1, user_id=0, task_type=0, capacity=1, value=1.0)
        assert "tick" in validate_event(event, JOB)

    def test_task_type_out_of_range(self):
        event = AskSubmitted(tick=0, user_id=0, task_type=3, capacity=1, value=1.0)
        assert "out of range" in validate_event(event, JOB)

    def test_ask_model_validation_surfaces(self):
        event = AskSubmitted(tick=0, user_id=0, task_type=0, capacity=0, value=1.0)
        assert validate_event(event, JOB) is not None

    def test_negative_user_id(self):
        event = AskSubmitted(tick=0, user_id=-2, task_type=0, capacity=1, value=1.0)
        assert "user_id" in validate_event(event, JOB)

    def test_valid_referral_including_root(self):
        assert validate_event(ReferralEdge(tick=0, parent_id=3, child_id=4), JOB) is None
        assert (
            validate_event(ReferralEdge(tick=0, parent_id=ROOT, child_id=4), JOB)
            is None
        )

    def test_self_referral(self):
        event = ReferralEdge(tick=0, parent_id=5, child_id=5)
        assert "self-referral" in validate_event(event, JOB)

    def test_parent_below_root(self):
        event = ReferralEdge(tick=0, parent_id=ROOT - 1, child_id=5)
        assert validate_event(event, JOB) is not None

    def test_valid_withdrawal(self):
        assert validate_event(Withdrawal(tick=3, user_id=1), JOB) is None

    def test_withdrawal_negative_user(self):
        assert validate_event(Withdrawal(tick=3, user_id=-1), JOB) is not None


#: Asks past what the state's columns hold: capacities past int64 (1e300
#: is an integral float) and an int value past the largest float.
OUT_OF_RANGE_ASKS = [(0, 2**63, 1.0), (0, 1e300, 1.0), (0, 1, 10**400)]


def short_id(value):
    """``10**400`` as a test id; None leaves every other value to pytest."""
    return "10**400" if value == 10**400 else None

#: (task_type, capacity, value) asks that break the one ask rule.
INVALID_ASKS = [
    (-1, 1, 1.0),
    (0, 0, 1.0),
    (0, 2.5, 1.0),
    (0, 1, 0.0),
    (0, 1, -1.0),
    (0, 1, math.nan),
    (0, 1, math.inf),
    *OUT_OF_RANGE_ASKS,
]

#: Events whose ids the int64 state columns cannot hold.
OUT_OF_RANGE_IDS = [
    AskSubmitted(tick=0, user_id=2**63, task_type=0, capacity=1, value=1.0),
    ReferralEdge(tick=0, parent_id=ROOT, child_id=2**64),
    ReferralEdge(tick=0, parent_id=2**63, child_id=1),
    Withdrawal(tick=0, user_id=2**63),
]


class TestOneAskRule:
    @pytest.mark.parametrize("task_type, capacity, value", INVALID_ASKS, ids=short_id)
    def test_reason_is_the_ask_error_message(self, task_type, capacity, value):
        with pytest.raises(ModelError) as err:
            Ask(task_type=task_type, capacity=capacity, value=value)
        event = AskSubmitted(
            tick=0, user_id=0, task_type=task_type, capacity=capacity,
            value=value,
        )
        assert validate_event(event, JOB) == str(err.value)

    def test_integral_float_capacity_is_valid(self):
        event = AskSubmitted(tick=0, user_id=0, task_type=0, capacity=3.0, value=1.0)
        assert validate_event(event, JOB) is None
        assert Ask(task_type=0, capacity=3.0, value=1.0).capacity == 3

    def test_int64_bounds_are_valid(self):
        event = AskSubmitted(
            tick=0, user_id=INT64_MAX, task_type=0, capacity=INT64_MAX,
            value=1.0,
        )
        assert validate_event(event, JOB) is None
        assert Ask(task_type=0, capacity=INT64_MAX, value=1.0).capacity == INT64_MAX
        referral = ReferralEdge(tick=0, parent_id=INT64_MAX, child_id=INT64_MAX - 1)
        assert validate_event(referral, JOB) is None

    @pytest.mark.parametrize("event", OUT_OF_RANGE_IDS)
    def test_ids_past_int64_are_invalid(self, event):
        assert "must be <=" in validate_event(event, JOB)

    def test_serve_counts_out_of_range_events_invalid(self):
        # Each of these once crashed the consumer loop with an
        # OverflowError from the state's columns.
        bad = [
            *OUT_OF_RANGE_IDS,
            AskSubmitted(tick=0, user_id=2**64, task_type=0, capacity=1, value=1.0),
            *(
                AskSubmitted(
                    tick=0, user_id=1, task_type=task_type, capacity=capacity,
                    value=value,
                )
                for task_type, capacity, value in OUT_OF_RANGE_ASKS
            ),
        ]
        good = [
            AskSubmitted(tick=1, user_id=uid, task_type=tau, capacity=6, value=1.0)
            for uid, tau in ((1, 0), (2, 1), (3, 2))
        ]
        service = MechanismService(
            RIT(round_budget="until-complete"), JOB, ServiceConfig(seed=0)
        )
        report = service.serve_stream(bad + good)
        assert report.invalid == len(bad)
        assert report.applied == len(good)
        assert report.epochs and report.epochs[-1].outcome.completed


class TestSerialization:
    @pytest.mark.parametrize(
        "event",
        [
            AskSubmitted(tick=2, user_id=7, task_type=1, capacity=2, value=3.25),
            ReferralEdge(tick=0, parent_id=ROOT, child_id=4),
            Withdrawal(tick=9, user_id=1),
        ],
    )
    def test_round_trip(self, event):
        data = event_to_dict(event)
        assert isinstance(data["kind"], str)
        assert event_from_dict(data) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelError):
            event_from_dict({"kind": "mystery", "tick": 0})

    def test_malformed_payload_rejected(self):
        with pytest.raises(ModelError):
            event_from_dict({"kind": "ask", "tick": 0})

    def test_events_are_frozen(self):
        event = Withdrawal(tick=9, user_id=1)
        with pytest.raises(Exception):
            event.tick = 10
