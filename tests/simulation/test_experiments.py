"""Smoke-scale tests for every reproduced figure.

Shape assertions here are deliberately loose (smoke scale is noisy); the
benchmark harness runs the tighter default-scale reproductions.
"""

import dataclasses

import pytest

from repro.simulation.experiments import (
    DEFAULT_SCALE,
    PAPER_SCALE,
    SMOKE_SCALE,
    active_scale,
    fig6a,
    fig6b,
    fig7a,
    fig7b,
    fig8a,
    fig8b,
    fig9,
)
from repro.core.exceptions import ConfigurationError


class TestScales:
    def test_paper_scale_matches_section_7(self):
        assert PAPER_SCALE.users_sweep[0] == 40000
        assert PAPER_SCALE.users_sweep[-1] == 80000
        assert PAPER_SCALE.tasks_per_type_a == 5000
        assert PAPER_SCALE.users_b == 30000
        assert PAPER_SCALE.tasks_sweep[0] == 1000
        assert PAPER_SCALE.tasks_sweep[-1] == 3000
        assert PAPER_SCALE.reps == 1000
        assert PAPER_SCALE.fig9_users == 10000
        assert PAPER_SCALE.fig9_victim_cost == 5.5
        assert PAPER_SCALE.fig9_victim_capacity == 17
        assert PAPER_SCALE.fig9_identity_counts == tuple(range(2, 18))
        assert PAPER_SCALE.fig9_ask_values == (5.5, 6.25, 6.5)

    def test_active_scale_env(self, monkeypatch):
        monkeypatch.setenv("RIT_SCALE", "smoke")
        assert active_scale() is SMOKE_SCALE
        monkeypatch.setenv("RIT_SCALE", "paper")
        assert active_scale() is PAPER_SCALE
        monkeypatch.delenv("RIT_SCALE")
        assert active_scale() is DEFAULT_SCALE

    def test_active_scale_bad_env(self, monkeypatch):
        monkeypatch.setenv("RIT_SCALE", "galactic")
        with pytest.raises(ConfigurationError):
            active_scale()

    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv("RIT_SCALE", "paper")
        assert active_scale(SMOKE_SCALE) is SMOKE_SCALE


@pytest.fixture(scope="module")
def fig6a_result():
    return fig6a(SMOKE_SCALE, rng=11)


@pytest.fixture(scope="module")
def fig6b_result():
    return fig6b(SMOKE_SCALE, rng=12)


class TestFig6:
    def test_series_present(self, fig6a_result):
        names = {s.name for s in fig6a_result.series}
        assert {"RIT", "auction phase"} <= names

    def test_x_axis_matches_scale(self, fig6a_result):
        assert fig6a_result.get("RIT").xs == list(SMOKE_SCALE.users_sweep)

    def test_rit_at_least_auction_phase(self, fig6a_result):
        """Solicitation rewards only add: RIT utility >= auction utility."""
        rit = fig6a_result.get("RIT")
        auction = fig6a_result.get("auction phase")
        for x in rit.xs:
            assert rit.value_at(x) >= auction.value_at(x) - 1e-12

    def test_fig6a_utility_decreases_with_users(self, fig6a_result):
        """§7-C: more users -> fiercer competition -> lower utility."""
        rit = fig6a_result.get("RIT")
        assert rit.endpoint_trend() < 0

    def test_fig6b_utility_increases_with_tasks(self, fig6b_result):
        rit = fig6b_result.get("RIT")
        assert rit.endpoint_trend() > 0

    def test_fig6b_rit_above_auction(self, fig6b_result):
        rit = fig6b_result.get("RIT")
        auction = fig6b_result.get("auction phase")
        for x in rit.xs:
            assert rit.value_at(x) >= auction.value_at(x) - 1e-12


class TestFig7:
    def test_fig7b_payment_increases_with_tasks(self):
        result = fig7b(SMOKE_SCALE, rng=13)
        assert result.get("RIT").endpoint_trend() > 0

    def test_fig7a_rit_payment_bounded_by_twice_auction(self):
        """§7-C: the solicitation increment never exceeds the auction
        total."""
        result = fig7a(SMOKE_SCALE, rng=14)
        rit = result.get("RIT")
        auction = result.get("auction phase")
        for x in rit.xs:
            assert rit.value_at(x) <= 2 * auction.value_at(x) + 1e-9
            assert rit.value_at(x) >= auction.value_at(x) - 1e-9


class TestFig8:
    def test_running_time_series_positive(self):
        result = fig8a(SMOKE_SCALE, rng=15)
        for s in (result.get("RIT"), result.get("auction phase")):
            assert all(m > 0 for m in s.means)

    def test_total_time_at_least_auction_time(self):
        result = fig8b(SMOKE_SCALE, rng=16)
        rit = result.get("RIT")
        auction = result.get("auction phase")
        for x in rit.xs:
            assert rit.value_at(x) >= auction.value_at(x) - 1e-12


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        scale = dataclasses.replace(SMOKE_SCALE, fig9_reps=12)
        return fig9(scale, rng=17)

    def test_series_present(self, result):
        names = {s.name for s in result.series}
        assert names == {
            "ask=5.5",
            "ask=6.25",
            "ask=6.5",
            "honest (no sybil)",
        }

    def test_x_axis_is_identity_counts(self, result):
        assert result.get("ask=5.5").xs == list(SMOKE_SCALE.fig9_identity_counts)

    def test_honest_reference_is_constant(self, result):
        means = result.get("honest (no sybil)").means
        assert max(means) - min(means) < 1e-9

    def test_attacker_utility_trends_down_with_identities(self, result):
        """The headline of Fig. 9, at smoke tolerance."""
        for name in ("ask=5.5", "ask=6.25", "ask=6.5"):
            series = result.get(name)
            assert series.endpoint_trend() <= max(series.means) * 0.25

    def test_honest_not_dominated(self, result):
        """Sybil-proofness in expectation: the honest reference beats the
        average attack arm."""
        honest = result.get("honest (no sybil)").means[0]
        attack_means = [
            m
            for name in ("ask=5.5", "ask=6.25", "ask=6.5")
            for m in result.get(name).means
        ]
        avg_attack = sum(attack_means) / len(attack_means)
        assert honest >= avg_attack - 0.15 * abs(honest)


class TestCustomMechanismHook:
    def test_fig6a_accepts_custom_mechanism(self):
        """The figure harness runs any Mechanism — here the auction-only
        wrapper, whose RIT and auction-phase series coincide."""
        from repro.baselines import AuctionOnly
        from repro.core.rit import RIT

        mech = AuctionOnly(RIT(round_budget="until-complete"))
        result = fig6a(SMOKE_SCALE, rng=30, mechanism=mech)
        rit = result.get("RIT")
        auction = result.get("auction phase")
        for x in rit.xs:
            assert rit.value_at(x) == pytest.approx(auction.value_at(x))

    def test_fig9_accepts_custom_mechanism(self):
        import dataclasses

        from repro.core.rit import RIT

        scale = dataclasses.replace(
            SMOKE_SCALE, fig9_reps=2, fig9_identity_counts=(2,)
        )
        mech = RIT(h=0.8, round_budget="until-complete", decay=0.4)
        result = fig9(scale, rng=31, mechanism=mech)
        assert result.get("honest (no sybil)").points


#: The standalone figure functions, by the id of their sweep entry.
FIGURES = {
    "fig6a": fig6a,
    "fig6b": fig6b,
    "fig7a": fig7a,
    "fig7b": fig7b,
    "fig8a": fig8a,
    "fig8b": fig8b,
}


def _non_timing_series(result):
    # Fig. 8's RIT and auction-phase lines are wall-clock running times.
    return [
        (s.name, s.points)
        for s in result.series
        if not result.experiment_id.startswith("fig8") or s.name == "completion rate"
    ]


class TestCombinedSweeps:
    @pytest.fixture(scope="class")
    def sweeps(self):
        from repro.simulation.experiments import (
            tasks_sweep_figures,
            users_sweep_figures,
        )

        return {
            **users_sweep_figures(SMOKE_SCALE, rng=42),
            **tasks_sweep_figures(SMOKE_SCALE, rng=42),
        }

    @pytest.mark.parametrize("experiment_id", sorted(FIGURES))
    def test_figure_equals_its_sweep_entry(self, sweeps, experiment_id):
        """Each figure function returns exactly its entry of the shared
        sweep: the same points, labels and config under the same seed."""
        standalone = FIGURES[experiment_id](SMOKE_SCALE, rng=42)
        combined = sweeps[experiment_id]
        assert standalone.experiment_id == combined.experiment_id
        assert standalone.x_label == combined.x_label
        assert standalone.y_label == combined.y_label
        assert standalone.config == combined.config
        assert _non_timing_series(standalone) == _non_timing_series(combined)

    def test_users_sweep_figures_match_individual_runs(self):
        """One shared sweep yields the same results as the standalone
        figure functions under the same seed."""
        from repro.simulation.experiments import users_sweep_figures

        combined = users_sweep_figures(SMOKE_SCALE, rng=40)
        assert set(combined) == {"fig6a", "fig7a", "fig8a"}
        standalone = fig6a(SMOKE_SCALE, rng=40)
        assert combined["fig6a"].get("RIT").means == pytest.approx(
            standalone.get("RIT").means
        )

    def test_tasks_sweep_figures_ids_and_axes(self):
        from repro.simulation.experiments import tasks_sweep_figures

        combined = tasks_sweep_figures(SMOKE_SCALE, rng=41)
        assert set(combined) == {"fig6b", "fig7b", "fig8b"}
        for result in combined.values():
            assert result.get("RIT").xs == list(SMOKE_SCALE.tasks_sweep)
            assert result.config["users"] == SMOKE_SCALE.users_b
