"""The ``BENCH_RIT.json`` schema, its one merge path and the committed doc."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.bench import (
    BENCH_SCHEMA_VERSION,
    validate_bench_schema,
    write_bench,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
COMMITTED_BENCH = REPO_ROOT / "BENCH_RIT.json"


def bare_doc():
    """The smallest valid bench document: a version and no section."""
    return {"schema_version": BENCH_SCHEMA_VERSION}


class TestValidateSchema:
    def test_rejects_non_object(self):
        assert validate_bench_schema([]) != []

    def test_reports_missing_keys(self):
        assert validate_bench_schema({}) == ["missing key 'schema_version'"]
        assert validate_bench_schema(bare_doc()) == []


def valid_analysis_section():
    return {
        "files_analyzed": 115,
        "findings_total": 1,
        "findings_by_rule": {"RIT013": 1},
        "cold_seconds": 0.8,
        "warm_cache_seconds": 0.2,
        "warm_files_parsed": 0,
    }


class TestValidateAnalysisSection:
    def base_doc(self):
        doc = bare_doc()
        doc["analysis"] = valid_analysis_section()
        return doc

    def test_valid_section_accepted(self):
        assert validate_bench_schema(self.base_doc()) == []

    def test_warm_reparse_flagged(self):
        # The cache contract: a warm run over an unchanged tree parses
        # nothing, and the committed bench doc proves it.
        doc = self.base_doc()
        doc["analysis"]["warm_files_parsed"] = 3
        assert any(
            "warm_files_parsed" in e for e in validate_bench_schema(doc)
        )

    def test_rule_counts_must_sum_to_total(self):
        doc = self.base_doc()
        doc["analysis"]["findings_total"] = 7
        assert any("sum" in e for e in validate_bench_schema(doc))

    def test_non_rit_rule_key_flagged(self):
        doc = self.base_doc()
        doc["analysis"]["findings_by_rule"] = {"E501": 1}
        assert any("not a RIT rule id" in e for e in validate_bench_schema(doc))

    def test_negative_timing_flagged(self):
        doc = self.base_doc()
        doc["analysis"]["warm_cache_seconds"] = -1.0
        assert any(
            "warm_cache_seconds" in e for e in validate_bench_schema(doc)
        )


CLEAN_SHA = "a" * 64
ATTACKED_SHA = "b" * 64


def valid_arena_section():
    """A hand-built minimal arena section (the live one is exercised in
    ``tests/arena/test_harness.py``; this pins the validator itself)."""

    def run_doc(sha):
        return {
            "epochs": 19,
            "completed_epochs": 12,
            "stream_sha256": sha,
            "tasks_allocated": 15,
            "total_payment": 120.5,
            "auction_payment": 90.25,
            "platform_utility": 29.5,
            "completed": True,
        }

    def entry(accounting, budget_cents=None):
        return {
            "accounting": accounting,
            "clean": run_doc(CLEAN_SHA),
            "attacked": run_doc(ATTACKED_SHA),
            "budget": {
                "checked": budget_cents is not None,
                "consistent": True,
                "budget_cents": budget_cents,
            },
            "sybil_gain": 0.0,
        }

    return {
        "config": {
            "seed": 7,
            "users": 220,
            "types": 3,
            "tasks_per_type": 5,
            "epoch_max_events": 24,
            "attack": "sybil",
            "attack_epoch": 3,
            "attack_seed": 115,
        },
        "stream": {
            "clean_sha256": CLEAN_SHA,
            "attacked_sha256": ATTACKED_SHA,
            "clean_events": 439,
            "attacked_events": 463,
            "schedule": {"kind": "sybil", "victim": 4},
        },
        "mechanisms": {
            "rit": entry("cumulative"),
            "omg": entry("incremental"),
            "glt": entry("cumulative", budget_cents=100_000),
            "lv-moscibroda": entry("cumulative"),
        },
        "sybil_gains": {
            "rit": -0.9,
            "omg": 0.0,
            "glt": 0.0,
            "lv-moscibroda": 0.0,
        },
        "rit_sybil_gain_minimal": True,
        "determinism": {
            "runs": 2,
            "bit_identical": True,
            "canonical_sha256": "c" * 64,
        },
    }


class TestValidateArenaSection:
    def base_doc(self):
        doc = bare_doc()
        doc["arena"] = valid_arena_section()
        return doc

    def test_valid_section_accepted(self):
        assert validate_bench_schema(self.base_doc()) == []

    def test_docs_without_arena_section_stay_valid(self):
        assert validate_bench_schema(bare_doc()) == []

    def test_non_object_section_flagged(self):
        doc = self.base_doc()
        doc["arena"] = []
        assert any(
            "arena is not an object" in e for e in validate_bench_schema(doc)
        )

    def test_roster_must_be_at_least_four_including_rit(self):
        doc = self.base_doc()
        del doc["arena"]["mechanisms"]["rit"]
        errors = validate_bench_schema(doc)
        assert any("must include 'rit'" in e for e in errors)
        assert any("at least 4" in e for e in errors)

    def test_unknown_mechanism_flagged(self):
        doc = self.base_doc()
        doc["arena"]["mechanisms"]["vcg"] = doc["arena"]["mechanisms"]["omg"]
        assert any(
            "unknown mechanism" in e for e in validate_bench_schema(doc)
        )

    def test_fingerprint_divergence_flagged(self):
        # A mechanism recording different stream bytes than the match
        # reference broke the identical-injection guarantee.
        doc = self.base_doc()
        doc["arena"]["mechanisms"]["omg"]["attacked"]["stream_sha256"] = (
            "0" * 64
        )
        assert any(
            "diverges from the match reference" in e
            for e in validate_bench_schema(doc)
        )

    def test_checked_budget_must_be_consistent(self):
        doc = self.base_doc()
        doc["arena"]["mechanisms"]["glt"]["budget"]["consistent"] = False
        assert any(
            "budget.consistent" in e for e in validate_bench_schema(doc)
        )

    def test_unchecked_budget_is_exempt(self):
        doc = self.base_doc()
        doc["arena"]["mechanisms"]["rit"]["budget"]["consistent"] = False
        assert validate_bench_schema(doc) == []

    def test_non_deterministic_scorecard_flagged(self):
        doc = self.base_doc()
        doc["arena"]["determinism"]["bit_identical"] = False
        assert any(
            "bit_identical" in e for e in validate_bench_schema(doc)
        )

    def test_single_run_determinism_flagged(self):
        doc = self.base_doc()
        doc["arena"]["determinism"]["runs"] = 1
        assert any(">= 2" in e for e in validate_bench_schema(doc))

    def test_rit_losing_on_sybil_gain_flagged(self):
        doc = self.base_doc()
        doc["arena"]["rit_sybil_gain_minimal"] = False
        assert any(
            "rit_sybil_gain_minimal" in e for e in validate_bench_schema(doc)
        )

    def test_bad_attack_kind_flagged(self):
        doc = self.base_doc()
        doc["arena"]["config"]["attack"] = "ddos"
        assert any(
            "sybil/collusion/churn" in e for e in validate_bench_schema(doc)
        )

    def test_bool_event_count_flagged(self):
        doc = self.base_doc()
        doc["arena"]["stream"]["clean_events"] = True
        assert any(
            "clean_events" in e for e in validate_bench_schema(doc)
        )


class TestCommittedBaseline:
    def test_committed_bench_json_is_valid(self):
        assert COMMITTED_BENCH.exists(), "BENCH_RIT.json must be committed"
        doc = json.loads(COMMITTED_BENCH.read_text())
        assert validate_bench_schema(doc) == []
        # The acceptance records; serving numbers are measured by
        # perfbench, so no service section is committed.
        assert set(doc) == {"schema_version", "analysis", "arena", "sentinel"}

    def test_committed_bench_has_analysis_section(self):
        doc = json.loads(COMMITTED_BENCH.read_text())
        analysis = doc["analysis"]
        assert analysis["files_analyzed"] > 100
        assert analysis["warm_files_parsed"] == 0

    def test_committed_bench_has_arena_section(self):
        # The committed head-to-head record: full roster, bit-identical
        # rerun, RIT conceding nothing to the sybil schedule.
        doc = json.loads(COMMITTED_BENCH.read_text())
        arena = doc["arena"]
        assert len(arena["mechanisms"]) >= 4
        assert arena["determinism"]["bit_identical"] is True
        assert arena["rit_sybil_gain_minimal"] is True
        assert arena["sybil_gains"]["rit"] == 0.0
        assert arena["mechanisms"]["glt"]["budget"]["consistent"] is True


def _invalid(command, monkeypatch):
    """Make ``command``'s ``--bench`` produce an invalid section; its argv."""
    if command == "analyze":
        import repro.devtools.analysis.cli as analyze_cli

        # The cache regression the section exists to catch.
        section = {**valid_analysis_section(), "warm_files_parsed": 3}
        monkeypatch.setattr(analyze_cli, "bench_section", lambda paths: section)
        target = str(REPO_ROOT / "src" / "repro" / "core" / "bounds.py")
        return ["analyze", "--bench", target, "--bench-out"]
    if command == "sentinel":
        import repro.sentinel.harness as harness

        monkeypatch.setattr(
            harness, "run_sentinel_report", lambda smoke, k: ({"k": k}, [])
        )
        return ["sentinel", "--json", "--bench", "--out"]
    import repro.arena.harness as harness

    monkeypatch.setattr(
        harness, "run_arena_report", lambda config, runs: ({"config": {}}, [])
    )
    return ["arena", "--json", "--bench", "--out"]


class TestMergeBench:
    @pytest.mark.parametrize("command", ["analyze", "sentinel", "arena"])
    def test_invalid_section_is_refused_in_a_fresh_file(
        self, command, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "fresh.json"
        argv = _invalid(command, monkeypatch)
        assert main([*argv, str(out)]) == 1
        assert f"refusing to write {out}" in capsys.readouterr().out
        assert not out.exists()


def test_write_bench_round_trips(tmp_path):
    doc = {**bare_doc(), "analysis": valid_analysis_section()}
    path = tmp_path / "b.json"
    write_bench(doc, str(path))
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(doc)
    )
