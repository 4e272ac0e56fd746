"""Each whole-program rule fires on its fixture mini-project — and only
where intended.

The mini-projects under ``analysis_fixtures/`` use ``# rit: module=``
overrides to pose as mechanism/service modules and import each other by
those declared paths, so cross-module resolution is exercised without the
files being importable.  ``# expect: RIT00X`` comments in the fixtures
mark the lines that must be reported; the tests assert the exact
(file, line, rule) set, so accidental extra findings fail too.  Each
project is named after its rule and reports only that rule (the
file-local rules run on the fixtures too: ``rit010/noise.py`` is also an
RIT001).
"""

from pathlib import Path

from repro.devtools.analysis import analyze_paths

FIXTURES = Path(__file__).parent / "analysis_fixtures"


def _findings(project: str):
    result = analyze_paths([FIXTURES / project], cache_path=None)
    rule_id = project[:6].upper()
    return [f for f in result.findings if f.rule_id == rule_id]


def _expected(project: str):
    expected = []
    for path in sorted((FIXTURES / project).glob("*.py")):
        for lineno, text in enumerate(path.read_text().splitlines(), start=1):
            if "# expect:" in text:
                rule_id = text.rsplit("# expect:", 1)[1].strip()
                expected.append((path.name, lineno, rule_id))
    return expected


def _actual(project: str):
    return [
        (Path(f.path).name, f.line, f.rule_id) for f in _findings(project)
    ]


class TestFixturesFireExactly:
    def test_rit009(self):
        assert _actual("rit009") == _expected("rit009")

    def test_rit009_coroutine_bodies(self):
        """Depth 0: blocking calls written in the coroutine itself."""
        assert _actual("rit009_coroutines") == _expected("rit009_coroutines")

    def test_rit010(self):
        assert _actual("rit010") == _expected("rit010")

    def test_rit011(self):
        assert _actual("rit011") == _expected("rit011")

    def test_rit012(self):
        assert _actual("rit012") == _expected("rit012")

    def test_rit013(self):
        assert _actual("rit013") == _expected("rit013")


class TestInterproceduralMessages:
    def test_rit009_message_names_the_call_chain(self):
        (finding,) = _findings("rit009")
        assert (
            "repro.service.fx9svc.serve_epochs -> repro.fx9util.flush_log"
            in finding.message
        )

    def test_rit010_message_names_the_entry_point(self):
        (finding,) = _findings("rit010")
        assert "repro.core.fx10entry.run_mechanism" in finding.message

    def test_rit011_message_names_the_worker_chain(self):
        finding = next(
            f for f in _findings("rit011") if "_RESULTS" in f.message
        )
        assert "repro.service.workers.run_epoch_shard" in finding.message

    def test_rit011_unknown_role_names_the_vocabulary(self):
        finding = next(
            f for f in _findings("rit011") if "_SCRATCH" in f.message
        )
        assert "somebody-else" in finding.message
        assert "main-thread, import-time-only, epoch" in finding.message

    def test_rit012_message_names_the_cross_module_callee(self):
        (finding,) = _findings("rit012")
        assert "repro.fx12quotes.settle" in finding.message

    def test_rit013_message_names_the_function(self):
        (finding,) = _findings("rit013")
        assert "repro.core.engine.select_winners" in finding.message


class TestExemptions:
    """The deliberate non-findings in the fixtures stay silent."""

    def test_unreachable_blocking_call_not_reported(self):
        # util.py also holds unrelated_sleeper(); only flush_log is reported.
        assert len(_findings("rit009")) == 1

    def test_seeded_rng_not_reported(self):
        assert len(_findings("rit010")) == 1

    def test_owner_marker_exempts_mutable(self):
        findings = _findings("rit011")
        assert len(findings) == 2
        messages = " | ".join(f.message for f in findings)
        assert "SEEN_TYPES" not in messages
        assert "_EPOCH_VIEW" not in messages

    def test_non_monetary_result_not_reported(self):
        assert len(_findings("rit012")) == 1

    def test_traced_function_not_reported(self):
        findings = _findings("rit013")
        assert len(findings) == 1
        assert "clear_round" not in findings[0].message


def test_fixtures_are_excluded_from_parent_discovery():
    """Walking tests/devtools must skip analysis_fixtures entirely."""
    result = analyze_paths([FIXTURES.parent], cache_path=None)
    fixture_files = {
        Path(f.path).name for f in result.findings if "analysis_fixtures" in f.path
    }
    assert fixture_files == set()
