"""Seeded attack injection (`repro.sentinel.attacks`)."""

import json

import pytest

from repro.core.exceptions import AttackError, ConfigurationError
from repro.sentinel.attacks import ATTACK_KINDS, inject_attack
from repro.service.events import (
    AskSubmitted,
    ReferralEdge,
    Withdrawal,
    validate_event,
)
from repro.service.loadgen import seeded_stream


def clean_stream(seed=3, users=120, types=3, tasks_per_type=5):
    return seeded_stream(
        seed, users, types, tasks_per_type, graph="twitter", withdraw_fraction=0.0
    )


class TestInjectAttack:
    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_injected_events_are_valid(self, kind):
        job, events = clean_stream()
        rewritten, schedule = inject_attack(
            events, job, kind=kind, onset_epoch=2,
            epoch_max_events=32, seed=7,
        )
        assert len(rewritten) == len(events) + schedule["injected_events"]
        for event in rewritten:
            assert validate_event(event, job) is None

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_same_seed_same_injection(self, kind):
        job, events = clean_stream()
        a = inject_attack(
            events, job, kind=kind, onset_epoch=2,
            epoch_max_events=32, seed=7,
        )
        b = inject_attack(
            events, job, kind=kind, onset_epoch=2,
            epoch_max_events=32, seed=7,
        )
        assert a == b

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_schedule_is_json_able(self, kind):
        job, events = clean_stream()
        _, schedule = inject_attack(
            events, job, kind=kind, onset_epoch=2,
            epoch_max_events=32, seed=7,
        )
        assert json.loads(json.dumps(schedule)) == schedule
        assert schedule["kind"] == kind
        assert schedule["injection_index"] == 2 * 32

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_schedule_carries_its_seed(self, kind):
        job, events = clean_stream()
        _, schedule = inject_attack(
            events, job, kind=kind, onset_epoch=2,
            epoch_max_events=32, seed=7,
        )
        assert schedule["seed"] == 7

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_ticks_stay_non_decreasing(self, kind):
        job, events = clean_stream()
        rewritten, _ = inject_attack(
            events, job, kind=kind, onset_epoch=2,
            epoch_max_events=32, seed=7,
        )
        ticks = [e.tick for e in rewritten]
        assert ticks == sorted(ticks)

    def test_sybil_identities_never_collide_with_honest_ids(self):
        job, events = clean_stream()
        _, schedule = inject_attack(
            events, job, kind="sybil", onset_epoch=2,
            epoch_max_events=32, seed=7,
        )
        honest = {
            e.user_id for e in events if isinstance(e, AskSubmitted)
        }
        assert not set(schedule["identities"]) & honest
        # The whole chain hangs under a user who joined before the onset.
        assert schedule["victim"] in honest

    def test_collusion_cohort_is_fresh_users_under_one_recruiter(self):
        job, events = clean_stream()
        rewritten, schedule = inject_attack(
            events, job, kind="collusion", onset_epoch=2,
            epoch_max_events=32, seed=7,
        )
        honest = {
            e.user_id for e in events if isinstance(e, AskSubmitted)
        }
        members = set(schedule["members"])
        assert members and not members & honest
        start = schedule["injection_index"]
        burst = rewritten[start:start + schedule["injected_events"]]
        parents = {
            e.parent_id for e in burst if isinstance(e, ReferralEdge)
        }
        assert parents == {schedule["recruiter"]}
        cartel = [
            e.value for e in burst if isinstance(e, AskSubmitted)
        ]
        assert all(v == schedule["cartel_value"] for v in cartel)
        assert schedule["cartel_value"] > schedule["honest_value"]

    def test_churn_withdraws_only_joined_users(self):
        job, events = clean_stream()
        rewritten, schedule = inject_attack(
            events, job, kind="churn", onset_epoch=2,
            epoch_max_events=32, seed=7,
        )
        joined_before = {
            e.user_id
            for e in events[: schedule["injection_index"]]
            if isinstance(e, AskSubmitted)
        }
        withdrawn = schedule["withdrawn"]
        assert withdrawn and set(withdrawn) <= joined_before
        assert len(set(withdrawn)) == len(withdrawn)
        start = schedule["injection_index"]
        burst = rewritten[start:start + schedule["injected_events"]]
        assert all(isinstance(e, Withdrawal) for e in burst)

    def test_unknown_kind_rejected(self):
        job, events = clean_stream(users=30)
        with pytest.raises(ConfigurationError):
            inject_attack(
                events, job, kind="ddos", onset_epoch=1,
                epoch_max_events=8, seed=7,
            )

    def test_empty_prefix_rejected(self):
        job, events = clean_stream(users=30)
        with pytest.raises(AttackError):
            inject_attack(
                events, job, kind="sybil", onset_epoch=0,
                epoch_max_events=8, seed=7,
            )

    def test_onset_past_stream_end_clamps(self):
        job, events = clean_stream(users=30)
        rewritten, schedule = inject_attack(
            events, job, kind="churn", onset_epoch=10_000,
            epoch_max_events=8, seed=1,
        )
        assert schedule["injection_index"] == len(events)
        assert rewritten[: len(events)] == events
