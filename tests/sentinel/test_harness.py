"""The `rit sentinel` empirical gate (`repro.sentinel.harness`)."""

import json

import pytest

import repro.sentinel.harness as harness
from repro.cli import main
from repro.sentinel.detectors import SentinelConfig
from repro.sentinel.harness import (
    ATTACK_DETECTORS,
    ATTACK_SCENARIOS,
    CLEAN_SCENARIOS,
    render_sentinel_report,
    run_sentinel_report,
)

#: No chain reaches this depth jump: the sybil injection goes unseen.
BLIND = SentinelConfig(depth_jump=1000)
#: One level of honest BFS growth alerts: the clean scenario is noisy.
NOISY = SentinelConfig(depth_jump=1)


@pytest.fixture(scope="module")
def smoke_report():
    return run_sentinel_report(smoke=True)


@pytest.fixture(scope="module")
def blind_report():
    return run_sentinel_report(smoke=True, config=BLIND)


@pytest.fixture(scope="module")
def noisy_report():
    return run_sentinel_report(smoke=True, config=NOISY)


class TestPinnedScenarios:
    def test_three_graph_regimes_pinned(self):
        assert [s["graph"] for s in CLEAN_SCENARIOS] == [
            "twitter", "watts-strogatz", "forest-fire",
        ]

    def test_all_attack_kinds_pinned(self):
        assert [s["kind"] for s in ATTACK_SCENARIOS] == [
            "sybil", "collusion", "churn",
        ]

    def test_every_kind_names_its_detectors(self):
        assert ATTACK_DETECTORS == {
            "sybil": ("depth_anomaly",),
            "collusion": ("price_drift", "win_rate_drift"),
            "churn": ("withdrawal_spike",),
        }


class TestSmokeReport:
    def test_smoke_gate_passes_and_validates(self, smoke_report):
        section, problems = smoke_report
        assert problems == []
        assert section["detection_within_k"] is True
        assert section["zero_false_positives"] is True
        assert len(section["clean"]) == 1
        assert len(section["attacks"]) == 1
        assert section["clean"][0]["differential_ok"] is True
        (attack,) = section["attacks"]
        assert attack["kind"] == "sybil"
        assert attack["epochs_to_detect"] <= section["k"]
        assert attack["attributed"] == {"depth_anomaly": 1}
        assert attack["unrelated"] == {}
        assert json.loads(json.dumps(section)) == section

    def test_render_mentions_verdicts(self, smoke_report):
        section, _ = smoke_report
        text = render_sentinel_report(section)
        assert "detection within K=3: True" in text
        assert "zero false positives: True" in text
        assert "sybil" in text


class TestLiveGate:
    """The verdicts are checked on live runs, under configs that break them."""

    def test_a_blind_detector_misses_the_sybil_chain(self, blind_report):
        section, problems = blind_report
        assert section["detection_within_k"] is False
        assert section["zero_false_positives"] is True
        assert section["attacks"][0]["detected_epoch"] is None
        assert problems == [
            "sybil injection at epoch 5 not detected within 3 epochs by "
            "depth_anomaly (unrelated alerts: none)"
        ]

    def test_a_noisy_detector_alerts_on_the_clean_scenario(self, noisy_report):
        section, problems = noisy_report
        assert section["zero_false_positives"] is False
        assert section["clean"][0]["alerts_total"] > 0
        assert any(
            p.startswith("clean scenario clean-twitter raised") for p in problems
        )

    def test_unrelated_alerts_are_not_a_detection(self):
        # Price noise after the onset, depth detector blind: the sybil
        # chain stays undetected and the price alerts are listed apart.
        config = SentinelConfig(depth_jump=1000, price_drift_ratio=0.01)
        section, problems = run_sentinel_report(smoke=True, config=config)
        (attack,) = section["attacks"]
        assert attack["detected_epoch"] is None
        assert attack["attributed"] == {}
        assert attack["unrelated"]["price_drift"] > 0
        assert any("not detected within 3 epochs" in p for p in problems)

    @pytest.mark.parametrize("report", ["blind_report", "noisy_report"])
    def test_rit_sentinel_exits_one(self, report, request, monkeypatch, capsys):
        section, problems = request.getfixturevalue(report)
        monkeypatch.setattr(
            harness, "run_sentinel_report", lambda smoke, k: (section, problems)
        )
        assert main(["sentinel", "--smoke"]) == 1
        out = capsys.readouterr().out
        assert "detection within K=3" in out
        assert "PROBLEMS:" in out
        for problem in problems:
            assert f"  {problem}\n" in out
