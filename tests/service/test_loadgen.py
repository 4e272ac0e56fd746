"""Seeded §7-A stream determinism and the graph regimes."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.service.events import AskSubmitted, ReferralEdge, Withdrawal
from repro.service.loadgen import (
    GRAPH_REGIMES,
    build_scenario,
    scenario_event_stream,
    seeded_stream,
)


class TestScenarioEventStream:
    def test_same_seed_same_stream(self):
        scenario = build_scenario(60, 3, 5, 1)
        assert scenario_event_stream(scenario, 7) == scenario_event_stream(
            scenario, 7
        )

    def test_different_seed_different_gaps(self):
        scenario = build_scenario(60, 3, 5, 1)
        a = scenario_event_stream(scenario, 7)
        b = scenario_event_stream(scenario, 8)
        assert [e.tick for e in a] != [e.tick for e in b]

    def test_referral_precedes_every_non_root_ask(self):
        scenario = build_scenario(60, 3, 5, 1)
        events = scenario_event_stream(scenario, 7)
        referred = set()
        for event in events:
            if isinstance(event, ReferralEdge):
                referred.add(event.child_id)
            elif isinstance(event, AskSubmitted):
                parent = scenario.tree.to_parent_map().get(event.user_id)
                if parent is not None and parent >= 0:
                    assert event.user_id in referred

    def test_ticks_non_decreasing(self):
        scenario = build_scenario(60, 3, 5, 1)
        events = scenario_event_stream(scenario, 7)
        ticks = [e.tick for e in events]
        assert ticks == sorted(ticks)

    def test_withdrawals_come_from_joined_users(self):
        scenario = build_scenario(60, 3, 5, 1)
        events = scenario_event_stream(scenario, 7, withdraw_fraction=0.2)
        joined = {e.user_id for e in events if isinstance(e, AskSubmitted)}
        leavers = [e.user_id for e in events if isinstance(e, Withdrawal)]
        assert leavers and set(leavers) <= joined
        assert len(set(leavers)) == len(leavers)  # without replacement

    def test_bad_withdraw_fraction_rejected(self):
        scenario = build_scenario(20, 2, 3, 1)
        with pytest.raises(ConfigurationError):
            scenario_event_stream(scenario, 7, withdraw_fraction=1.0)

    def test_bad_gap_rejected(self):
        scenario = build_scenario(20, 2, 3, 1)
        with pytest.raises(ConfigurationError):
            scenario_event_stream(scenario, 7, max_gap_ticks=-1)

    def test_negative_run_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed must be >= 0, got -1"):
            seeded_stream(-1, 20, 2, 3, graph="twitter", withdraw_fraction=0.0)


class TestGraphRegimes:
    def test_cli_choices_match_the_registry(self):
        from repro.cli import _GRAPH_REGIME_NAMES, build_parser

        assert set(_GRAPH_REGIME_NAMES) == set(GRAPH_REGIMES)
        parser = build_parser()
        for graph in GRAPH_REGIMES:
            assert parser.parse_args(["serve", "--graph", graph]).graph == graph
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--graph", "bipartite"])

    def test_unknown_regime_rejected(self):
        with pytest.raises(ConfigurationError):
            build_scenario(60, 3, 5, 1, graph="bipartite")

    @pytest.mark.parametrize("graph", sorted(GRAPH_REGIMES))
    def test_regimes_are_deterministic(self, graph):
        a = build_scenario(60, 3, 5, 1, graph=graph)
        b = build_scenario(60, 3, 5, 1, graph=graph)
        assert a.tree.to_parent_map() == b.tree.to_parent_map()

    def test_regime_changes_forest_not_population(self):
        default = build_scenario(60, 3, 5, 1)
        rewired = build_scenario(60, 3, 5, 1, graph="watts-strogatz")
        # Same spawned user RNG stream: identical profiles either way.
        assert rewired.truthful_asks().keys() == default.truthful_asks().keys()
        assert {
            uid: default.population[uid].cost for uid in default.truthful_asks()
        } == {
            uid: rewired.population[uid].cost for uid in rewired.truthful_asks()
        }
        assert rewired.tree.to_parent_map() != default.tree.to_parent_map()

    def test_twitter_regime_is_the_historical_default(self):
        named = build_scenario(60, 3, 5, 1, graph="twitter")
        default = build_scenario(60, 3, 5, 1)
        assert named.tree.to_parent_map() == default.tree.to_parent_map()
