"""Satellite gate: seeded attack schedules inject mechanism-independently.

The attack splice must be a pure function of ``(stream seeds, attack
seed)`` — the *consuming mechanism can never perturb the bytes it is
fed*.  These tests pin that three ways: repeated rebuilds are
byte-identical, the schedules match dict-for-dict, and a full arena
match records one fingerprint pair shared by every mechanism entry.
"""

from dataclasses import replace

import pytest

from repro.arena.harness import (
    ARENA_SMOKE_PRESET,
    build_streams,
    run_arena,
    stream_fingerprint,
)
from repro.sentinel.attacks import ATTACK_KINDS, inject_attack
from repro.service.events import event_to_dict
from repro.service.loadgen import seeded_stream


class TestRebuildIdentity:
    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_every_attack_kind_rebuilds_byte_identically(self, kind):
        config = replace(ARENA_SMOKE_PRESET, attack=kind)
        builds = [build_streams(config) for _ in range(3)]
        reference = builds[0]
        for job, clean, attacked, schedule in builds[1:]:
            assert [event_to_dict(e) for e in clean] == [
                event_to_dict(e) for e in reference[1]
            ]
            assert [event_to_dict(e) for e in attacked] == [
                event_to_dict(e) for e in reference[2]
            ]
            assert schedule == reference[3]

    def test_attack_seed_controls_the_schedule(self):
        """Different attack seeds pick different victims (and different
        bytes) while the clean stream is untouched — the splice layers on
        top of the load, it never rewrites it."""
        a = build_streams(ARENA_SMOKE_PRESET)
        b = build_streams(replace(ARENA_SMOKE_PRESET, attack_seed=116))
        assert stream_fingerprint(a[1]) == stream_fingerprint(b[1])
        assert stream_fingerprint(a[2]) != stream_fingerprint(b[2])
        assert a[3]["victim"] != b[3]["victim"] or (
            a[3]["identities"] != b[3]["identities"]
        )

    def test_streams_are_the_seeded_run_streams(self):
        """The arena replays the bytes every seeded live run builds:
        ``seeded_stream`` without withdrawals, then ``inject_attack``."""
        config = ARENA_SMOKE_PRESET
        job, clean, attacked, schedule = build_streams(config)
        run_job, events = seeded_stream(
            config.seed, config.users, config.types, config.tasks_per_type,
            graph=config.graph, withdraw_fraction=0.0,
        )
        run_attacked, run_schedule = inject_attack(
            events, run_job, kind=config.attack,
            onset_epoch=config.attack_epoch,
            epoch_max_events=config.epoch_max_events, seed=config.attack_seed,
        )
        assert job.counts == run_job.counts
        assert stream_fingerprint(clean) == stream_fingerprint(events)
        assert stream_fingerprint(attacked) == stream_fingerprint(run_attacked)
        assert schedule == run_schedule

    def test_schedule_carries_its_seed(self):
        _, _, _, schedule = build_streams(ARENA_SMOKE_PRESET)
        assert schedule["seed"] == ARENA_SMOKE_PRESET.attack_seed
        assert schedule["kind"] == ARENA_SMOKE_PRESET.attack
        assert schedule["injected_events"] > 0


class TestMatchIdentity:
    def test_every_mechanism_sees_the_reference_bytes(self):
        """Inside a full match the per-mechanism rebuild fingerprints all
        equal the reference pair — no mechanism's replay depends on which
        mechanism ran before it."""
        doc = run_arena(ARENA_SMOKE_PRESET)
        reference = doc["stream"]
        assert len(doc["mechanisms"]) == len(ARENA_SMOKE_PRESET.mechanisms)
        for entry in doc["mechanisms"].values():
            assert entry["clean"]["stream_sha256"] == reference["clean_sha256"]
            assert (
                entry["attacked"]["stream_sha256"]
                == reference["attacked_sha256"]
            )

    def test_roster_order_does_not_change_the_streams(self):
        """Running the roster reversed yields the same per-mechanism
        stream fingerprints and the same sybil gains."""
        forward = run_arena(ARENA_SMOKE_PRESET)
        reversed_config = replace(
            ARENA_SMOKE_PRESET,
            mechanisms=tuple(reversed(ARENA_SMOKE_PRESET.mechanisms)),
        )
        backward = run_arena(reversed_config)
        assert forward["stream"] == backward["stream"]
        assert forward["sybil_gains"] == backward["sybil_gains"]
        for name in ARENA_SMOKE_PRESET.mechanisms:
            fwd = forward["mechanisms"][name]
            bwd = backward["mechanisms"][name]
            assert fwd["clean"]["stream_sha256"] == bwd["clean"]["stream_sha256"]
            assert (
                fwd["attacked"]["stream_sha256"]
                == bwd["attacked"]["stream_sha256"]
            )
