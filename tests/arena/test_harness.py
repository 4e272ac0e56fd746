"""Arena harness: determinism, scorecard schema, and the acceptance gates."""

import dataclasses
import json

import pytest

from repro.arena.harness import (
    ARENA_BENCH_PRESET,
    ARENA_SMOKE_PRESET,
    ArenaConfig,
    arena_problems,
    build_streams,
    canonical_scorecard,
    render_arena_report,
    run_arena_report,
    stream_fingerprint,
)
from repro.core.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def smoke_report():
    return run_arena_report(ARENA_SMOKE_PRESET)


class TestConfig:
    def test_presets_pin_the_acceptance_roster(self):
        # Each pinned match fields at least four mechanisms, RIT among them.
        for preset in (ARENA_BENCH_PRESET, ARENA_SMOKE_PRESET):
            assert "rit" in preset.mechanisms
            assert len(preset.mechanisms) >= 4
        assert {"rit", "omg", "glt"} <= set(ARENA_SMOKE_PRESET.mechanisms)

    def test_a_single_run_is_refused(self):
        # One replay leaves the bit-identity check nothing to compare.
        for runs in (0, 1):
            with pytest.raises(ConfigurationError, match="at least 2"):
                run_arena_report(ARENA_SMOKE_PRESET, runs=runs)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ArenaConfig(attack="ddos")
        with pytest.raises(ConfigurationError):
            ArenaConfig(mechanisms=())


class TestStreams:
    def test_build_streams_is_pure(self):
        job1, clean1, attacked1, sched1 = build_streams(ARENA_SMOKE_PRESET)
        job2, clean2, attacked2, sched2 = build_streams(ARENA_SMOKE_PRESET)
        assert stream_fingerprint(clean1) == stream_fingerprint(clean2)
        assert stream_fingerprint(attacked1) == stream_fingerprint(attacked2)
        assert sched1 == sched2
        assert job1.counts == job2.counts

    def test_fingerprint_is_order_sensitive(self):
        _, clean, _, _ = build_streams(ARENA_SMOKE_PRESET)
        reordered = [clean[1], clean[0]] + list(clean[2:])
        assert stream_fingerprint(reordered) != stream_fingerprint(clean)


class TestReport:
    def test_smoke_match_passes_every_gate(self, smoke_report):
        section, problems = smoke_report
        assert problems == []
        assert section["determinism"]["bit_identical"] is True
        assert section["determinism"]["runs"] == 2
        assert section["rit_sybil_gain_minimal"] is True

    def test_scorecard_covers_the_roster(self, smoke_report):
        section, _ = smoke_report
        assert tuple(section["mechanisms"]) == ARENA_SMOKE_PRESET.mechanisms
        for entry in section["mechanisms"].values():
            assert entry["accounting"] in ("cumulative", "incremental")
            for side in ("clean", "attacked"):
                assert entry[side]["epochs"] > 0
                assert entry[side]["stream_sha256"] == (
                    section["stream"][f"{side}_sha256"]
                )

    def test_glt_budget_checked_exactly(self, smoke_report):
        section, _ = smoke_report
        budget = section["mechanisms"]["glt"]["budget"]
        assert budget["checked"] is True
        assert budget["consistent"] is True
        assert budget["budget_cents"] == 100_000

    def test_section_passes_the_bench_validator(self, smoke_report):
        # arena_problems is the validator `make arena` applies to the
        # bench match. It reads the section alone, so the scorecard as
        # `rit arena --json` prints it passes as well.
        section, _ = smoke_report
        printed = json.loads(json.dumps(section, sort_keys=True))
        assert arena_problems(printed) == []

    def test_canonical_scorecard_strips_latency_only(self, smoke_report):
        section, _ = smoke_report
        canonical = canonical_scorecard(section)
        for entry in canonical["mechanisms"].values():
            assert "latency_seconds" not in entry
        assert "determinism" not in canonical
        assert canonical["stream"] == section["stream"]
        # The original is untouched.
        assert all(
            "latency_seconds" in entry
            for entry in section["mechanisms"].values()
        )

    def test_render_mentions_every_mechanism(self, smoke_report):
        section, _ = smoke_report
        text = render_arena_report(section)
        for name in ARENA_SMOKE_PRESET.mechanisms:
            assert name in text
        assert "bit_identical=True" in text

    def test_section_is_json_serializable(self, smoke_report):
        section, _ = smoke_report
        round_tripped = json.loads(json.dumps(section, sort_keys=True))
        assert round_tripped["config"]["seed"] == ARENA_SMOKE_PRESET.seed


class TestValidatorRejections:
    """:func:`arena_problems` names each broken verdict, and only it; a
    roster with an unregistered mechanism is refused before any replay."""

    @staticmethod
    def problems_of(section, breakage):
        broken = json.loads(json.dumps(section))
        breakage(broken)
        return arena_problems(broken)

    def test_rejects_missing_mechanisms(self, smoke_report):
        section, _ = smoke_report
        problems = self.problems_of(
            section, lambda doc: doc["mechanisms"].pop("rit")
        )
        assert problems == ["the arena roster must include 'rit'"]

    def test_rejects_non_deterministic_rerun(self, smoke_report):
        section, _ = smoke_report
        problems = self.problems_of(
            section,
            lambda doc: doc["determinism"].update(bit_identical=False),
        )
        assert problems == ["scorecard not bit-identical across 2 runs"]

    def test_rejects_budget_violation(self, smoke_report):
        section, _ = smoke_report
        problems = self.problems_of(
            section,
            lambda doc: doc["mechanisms"]["glt"]["budget"].update(
                consistent=False
            ),
        )
        assert problems == [
            "glt: settled epoch payments != declared budget_cents"
        ]

    def test_unchecked_budget_is_exempt(self, smoke_report):
        section, _ = smoke_report
        problems = self.problems_of(
            section,
            lambda doc: doc["mechanisms"]["rit"]["budget"].update(
                consistent=False
            ),
        )
        assert problems == []

    def test_rejects_diverged_stream_fingerprint(self, smoke_report):
        section, _ = smoke_report
        problems = self.problems_of(
            section,
            lambda doc: doc["mechanisms"]["omg"]["attacked"].update(
                stream_sha256="0" * 64
            ),
        )
        assert problems == ["omg: attacked stream fingerprint diverged"]

    def test_rejects_rit_losing_on_sybil_gain(self, smoke_report):
        section, _ = smoke_report
        problems = self.problems_of(
            section, lambda doc: doc.update(rit_sybil_gain_minimal=False)
        )
        assert len(problems) == 1
        assert problems[0].startswith(
            "rit sybil gain is not minimal across the roster"
        )

    def test_rejects_unknown_mechanism(self):
        roster = ("vcg", *ARENA_SMOKE_PRESET.mechanisms)
        config = dataclasses.replace(ARENA_SMOKE_PRESET, mechanisms=roster)
        with pytest.raises(ConfigurationError, match="unknown mechanism 'vcg'"):
            run_arena_report(config)
