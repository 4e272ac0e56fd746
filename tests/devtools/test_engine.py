"""Per-file step and reporting: discovery, module resolution, directives,
parse errors, the text/JSON reports."""

import json
from pathlib import Path

import pytest

from repro.devtools.analysis import AnalysisResult, analyze_file, analyze_paths
from repro.devtools.analysis.report import findings_by_rule, render_json, render_text
from repro.devtools.discovery import iter_python_files
from repro.devtools.lint import Finding, Severity, build_context, module_for_path
from repro.devtools.lint.context import module_in
from repro.devtools.lint.model import PARSE_ERROR_ID

REPO = Path(__file__).resolve().parent.parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


class TestModuleResolution:
    def test_src_root_is_stripped(self):
        path = REPO / "src" / "repro" / "core" / "rit.py"
        assert module_for_path(path) == "repro.core.rit"

    def test_init_maps_to_package(self):
        path = REPO / "src" / "repro" / "core" / "__init__.py"
        assert module_for_path(path) == "repro.core"

    def test_tests_keep_their_prefix(self):
        assert module_for_path(Path(__file__)).startswith("tests.devtools")

    def test_module_in_prefix_semantics(self):
        assert module_in("repro.core.rit", "repro.core")
        assert module_in("repro.core", "repro.core")
        assert not module_in("repro.corelib", "repro.core")
        assert not module_in("tests.core", "repro.core")

    def test_module_directive_overrides_location(self, tmp_path):
        target = tmp_path / "anywhere.py"
        target.write_text("# rit: module=repro.core.injected\nx = 1\n")
        assert build_context(target).module == "repro.core.injected"


class TestDiscovery:
    def test_fixture_dirs_pruned_from_directory_walks(self):
        files = list(iter_python_files([Path(__file__).parent]))
        assert all("fixtures" not in p.parts for p in files)
        assert any(p.name == "test_engine.py" for p in files)

    def test_explicit_file_bypasses_exclusions(self):
        target = FIXTURES / "rit001_bad.py"
        assert list(iter_python_files([target])) == [target]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            list(iter_python_files([Path("definitely/not/here")]))

    def test_duplicates_are_collapsed(self):
        target = FIXTURES / "rit001_bad.py"
        assert len(list(iter_python_files([target, target]))) == 1


class TestParseErrors:
    def test_syntax_error_becomes_rit000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        analysis = analyze_file(bad)
        assert analysis.summary is None
        findings = analysis.findings
        assert len(findings) == 1
        assert findings[0].rule_id == PARSE_ERROR_ID
        assert findings[0].severity is Severity.ERROR
        assert findings[0].line == 1


def _text(result: AnalysisResult, **kwargs) -> str:
    return render_text(
        result.findings,
        files_analyzed=result.files_analyzed,
        files_parsed=result.files_parsed,
        cache_hits=result.cache_hits,
        **kwargs,
    )


class TestReport:
    def test_counts_and_sorting(self):
        result = analyze_paths(
            [FIXTURES / "rit001_bad.py", FIXTURES / "rit002_bad.py"], cache_path=None
        )
        assert result.files_analyzed == 2
        findings = result.findings
        assert findings and all(f.severity is Severity.ERROR for f in findings)
        assert findings == sorted(findings, key=lambda f: f.sort_key)
        assert set(findings_by_rule(findings)) == {"RIT001", "RIT002"}

    def test_format_text_lists_file_line(self):
        result = analyze_paths([FIXTURES / "rit006_bad.py"], cache_path=None)
        text = _text(result, statistics=True)
        assert "rit006_bad.py:8:" in text
        assert "RIT006" in text

    def test_clean_report_is_falsy(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        result = analyze_paths([clean], cache_path=None)
        assert not result.findings
        assert _text(result).endswith("0 finding(s)")

    def test_json_round_trip(self):
        result = analyze_paths([FIXTURES / "rit005_bad.py"], cache_path=None)
        payload = json.loads(
            render_json(
                result.findings,
                files_analyzed=result.files_analyzed,
                files_parsed=result.files_parsed,
                cache_hits=result.cache_hits,
                root=Path.cwd(),
            )
        )
        assert payload["files_analyzed"] == 1
        assert payload["findings"]
        assert all(f["rule"] == "RIT005" for f in payload["findings"])


class TestLintSource:
    def test_scoped_rule_needs_module_directive(self):
        snippet = "import time\nt = time.time()\n"
        # module '<string>': outside RIT005's scope
        assert analyze_file(Path("<string>"), source=snippet).findings == []
        scoped = "# rit: module=repro.core.x\n" + snippet
        findings = analyze_file(Path("<string>"), source=scoped).findings
        assert [f.rule_id for f in findings] == ["RIT005"]

    def test_finding_format_is_clickable(self):
        finding = Finding("src/x.py", 3, 7, "RIT001", "boom")
        assert finding.format() == "src/x.py:3:7: RIT001 boom"

    def test_report_type_reexported(self):
        assert isinstance(analyze_paths([], cache_path=None), AnalysisResult)
