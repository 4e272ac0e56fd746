"""Fixture-driven rule tests.

Every fixture under ``tests/devtools/fixtures/`` marks its deliberate
violations with a trailing ``# expect: RIT00X`` comment (comma-separated
ids for multiple rules on one line).  The test runs the analyzer on each
fixture alone and demands the finding set equals the marker set
*exactly* — missing detections and extra false positives both fail, with
line numbers.  The coroutine-body fixtures of RIT009 (the rule that
absorbed RIT008) sit in their ``analysis_fixtures/`` mini-project and are
checked here too.
"""

import re
from pathlib import Path

import pytest

from repro.devtools.analysis import analyze_file, analyze_paths
from repro.devtools.lint import FILE_RULES

FIXTURES = Path(__file__).parent / "fixtures"
COROUTINE_FIXTURES = Path(__file__).parent / "analysis_fixtures" / "rit009_coroutines"

_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z0-9, ]+)")


def fixture_files():
    return sorted(FIXTURES.rglob("*.py"))


def expected_markers(path: Path):
    """{(line, rule_id)} declared by the fixture's # expect: comments."""
    expected = set()
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT_RE.search(text)
        if not match:
            continue
        for rule_id in match.group(1).split(","):
            rule_id = rule_id.strip()
            if rule_id:
                expected.add((lineno, rule_id))
    return expected


def _fixture_id(path: Path) -> str:
    root = COROUTINE_FIXTURES if path.parent == COROUTINE_FIXTURES else FIXTURES
    return str(path.relative_to(root))


@pytest.mark.parametrize(
    "path",
    fixture_files() + sorted(COROUTINE_FIXTURES.glob("*.py")),
    ids=_fixture_id,
)
def test_fixture_findings_match_markers(path):
    expected = expected_markers(path)
    result = analyze_paths([path], cache_path=None)
    actual = {(f.line, f.rule_id) for f in result.findings}
    missing = expected - actual
    extra = actual - expected
    assert not missing, f"analyzer missed declared violations: {sorted(missing)}"
    assert not extra, f"analyzer reported unexpected findings: {sorted(extra)}"


def test_every_rule_has_bad_fixture_coverage():
    """Acceptance: fixtures trigger every file-local rule (RIT001-RIT007)."""
    rule_ids = {rule.id for rule in FILE_RULES}
    covered = set()
    for path in fixture_files():
        covered |= {rule_id for _, rule_id in expected_markers(path)}
    assert covered == rule_ids, (
        f"rules without fixture coverage: {sorted(rule_ids - covered)}"
    )


def test_good_fixtures_are_clean():
    for path in fixture_files():
        if "_good" in path.stem:
            assert not expected_markers(path)
            assert analyze_file(path).findings == []


def test_findings_report_real_locations():
    """file:line output points at the offending statement, not line 1."""
    path = FIXTURES / "rit001_bad.py"
    findings = analyze_file(path).findings
    assert findings
    for finding in findings:
        assert finding.path == str(path)
        assert finding.line > 1  # module docstring/header precedes them
        assert finding.column >= 1
