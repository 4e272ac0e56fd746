"""Structural validation and serialization of service events."""

import math

import pytest

from repro.core.exceptions import ModelError
from repro.core.types import Ask, Job
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


#: (task_type, capacity, value) asks that break the one ask rule.
INVALID_ASKS = [
    (-1, 1, 1.0),
    (0, 0, 1.0),
    (0, 2.5, 1.0),
    (0, 1, 0.0),
    (0, 1, -1.0),
    (0, 1, math.nan),
    (0, 1, math.inf),
]


class TestOneAskRule:
    @pytest.mark.parametrize("task_type, capacity, value", INVALID_ASKS)
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
