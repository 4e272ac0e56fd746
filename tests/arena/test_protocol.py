"""The EpochMechanism contract, the registry, and the RIT adapter.

The load-bearing test is the differential: an arena replay of RIT must be
bit-identical to the service's offline anchor
(:func:`repro.service.replay.replay_outcomes`) — same epochs, same
winners, same payments — because both walk the same EpochPipeline with
the same pure per-epoch seeds.
"""

import pytest

from repro.arena import (
    ACCOUNTING_MODES,
    MECHANISM_NAMES,
    EpochMechanism,
    RITEpochMechanism,
    RewardRuleMechanism,
    available_mechanisms,
    create_mechanism,
    replay_stream,
)
from repro.arena.harness import ARENA_SMOKE_PRESET, build_streams
from repro.baselines import mit_referral_rewards
from repro.core.exceptions import ConfigurationError
from repro.core.rit import RIT
from repro.obs import Tracer
from repro.service.epochs import EpochPolicy
from repro.service.ledger import canonical_outcome
from repro.service.replay import replay_outcomes


class TestRegistry:
    def test_names_are_stable(self):
        assert available_mechanisms() == MECHANISM_NAMES
        assert MECHANISM_NAMES[0] == "rit"
        assert set(MECHANISM_NAMES) >= {"rit", "omg", "glt"}

    def test_every_entry_constructs_fresh_instances(self):
        for name in MECHANISM_NAMES:
            first = create_mechanism(name)
            second = create_mechanism(name)
            assert isinstance(first, EpochMechanism)
            assert first is not second
            assert first.mechanism_id == name
            assert first.accounting in ACCOUNTING_MODES

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown mechanism"):
            create_mechanism("vcg")

    def test_cli_mirror_matches_registry(self):
        from repro.cli import _MECHANISM_NAMES

        assert tuple(_MECHANISM_NAMES) == MECHANISM_NAMES


class TestRITAdapter:
    def test_arena_replay_matches_offline_anchor(self):
        """RIT behind the arena contract == replay_outcomes, bit for bit."""
        config = ARENA_SMOKE_PRESET
        job, clean, attacked, _ = build_streams(config)
        policy = EpochPolicy(max_events=config.epoch_max_events)
        offline_mech = RIT(
            rng_policy="per-type",
            round_budget="until-complete",
            raise_on_failure=False,
        )
        for stream in (clean, attacked):
            arena = replay_stream(
                job, stream, RITEpochMechanism(),
                seed=config.seed, policy=policy,
            )
            anchor = replay_outcomes(
                stream, job, offline_mech, seed=config.seed, policy=policy
            )
            assert [i for i, _ in arena] == [b.index for b, _ in anchor]
            for (_, got), (_, want) in zip(arena, anchor):
                assert canonical_outcome(got) == canonical_outcome(want)

    def test_with_tracer_clones_inner_mechanism(self):
        base = RITEpochMechanism()
        tracer = Tracer("arena-test", seed=0)
        traced = base.with_tracer(tracer)
        assert traced is not base
        assert traced.tracer is tracer
        assert traced._mechanism is not base._mechanism
        assert base.tracer.enabled is False


class TestRewardRuleMechanism:
    def test_exposes_reward_function_for_examples(self):
        mech = create_mechanism("mit-referral")
        assert isinstance(mech, RewardRuleMechanism)
        assert mech.reward_function is mit_referral_rewards

    def test_runs_the_naive_combo(self):
        """Same outcome as hand-wiring NaiveComboMechanism over kth-price."""
        from repro.baselines import KthPriceAuction, NaiveComboMechanism

        config = ARENA_SMOKE_PRESET
        job, clean, _, _ = build_streams(config)
        policy = EpochPolicy(max_events=config.epoch_max_events)
        arena = replay_stream(
            job, clean, create_mechanism("mit-referral"),
            seed=config.seed, policy=policy,
        )
        assert arena, "the smoke stream must close at least one epoch"
        combo = NaiveComboMechanism(
            auction=KthPriceAuction(), reward_function=mit_referral_rewards
        )
        from repro.service.epochs import EpochPipeline, epoch_seed

        pipeline = EpochPipeline(job, policy)
        hand = []
        for event in clean:
            _, snapshots = pipeline.step(event)
            for snap in snapshots:
                seed = epoch_seed(config.seed, snap.batch.index)
                hand.append(combo.run(job, snap.asks, snap.tree, seed))
        tail = pipeline.finish()
        if tail is not None:
            seed = epoch_seed(config.seed, tail.batch.index)
            hand.append(combo.run(job, tail.asks, tail.tree, seed))
        assert len(arena) == len(hand)
        for (_, got), want in zip(arena, hand):
            assert canonical_outcome(got) == canonical_outcome(want)
