"""Baseline workflow and ``rit analyze`` CLI exit codes.

Covers the brownfield-adoption contract: known findings pass, new ones
fail, ``--ci`` additionally fails on stale entries, ``--baseline-update``
regenerates, fingerprints survive line shifts, and the SARIF report is
structurally valid.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as rit_main
from repro.devtools.analysis import RULES, Baseline, analyze_paths
from repro.devtools.analysis.baseline import fingerprint
from repro.devtools.analysis.cli import main as analyze_main

BLOCKING_PROJECT = {
    "svc.py": (
        "# rit: module=repro.service.blsvc\n"
        "from repro.blutil import flush\n"
        "async def serve():\n"
        "    flush()\n"
    ),
    "util.py": (
        "# rit: module=repro.blutil\n"
        "import time\n"
        "def flush():\n"
        "    time.sleep(0.01)\n"
    ),
}


@pytest.fixture
def project(tmp_path, monkeypatch):
    for name, source in BLOCKING_PROJECT.items():
        (tmp_path / name).write_text(source)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _analyze(root: Path):
    return analyze_paths([root], root=root, cache_path=None)


class TestFingerprints:
    def test_stable_across_line_shifts(self, project):
        before = _analyze(project).findings
        source = (project / "util.py").read_text()
        (project / "util.py").write_text(
            source.replace("import time\n", '"""Docstring pushes lines."""\nimport time\n')
        )
        after = _analyze(project).findings
        assert [f.line for f in before] != [f.line for f in after]
        assert [fingerprint(f, project) for f in before] == [
            fingerprint(f, project) for f in after
        ]

    def test_diff_splits_new_known_stale(self, project):
        findings = _analyze(project).findings
        baseline = Baseline.from_findings(findings, project)
        diff = baseline.diff(findings, project)
        assert diff.clean and diff.known == len(findings) == 1
        # Nothing found any more -> the entry is stale.
        empty = baseline.diff([], project)
        assert not empty.new and len(empty.stale) == 1
        # Found but not baselined -> new.
        fresh = Baseline().diff(findings, project)
        assert len(fresh.new) == 1 and not fresh.stale


class TestCliExitCodes:
    def test_update_then_plain_then_strict(self, project, capsys):
        assert analyze_main(["--baseline-update", "--no-cache", "."]) == 0
        assert analyze_main(["--no-cache", "."]) == 0
        assert analyze_main(["--ci", "--no-cache", "."]) == 0
        capsys.readouterr()

    def test_new_finding_fails(self, project, capsys):
        assert analyze_main(["--baseline-update", "--no-cache", "."]) == 0
        (project / "extra.py").write_text(
            "# rit: module=repro.blextra\n"
            "import time\n"
            "def stall():\n"
            "    time.sleep(1)\n"
        )
        (project / "svc.py").write_text(
            BLOCKING_PROJECT["svc.py"].replace(
                "    flush()\n",
                "    flush()\n    from repro.blextra import stall\n    stall()\n",
            )
        )
        assert analyze_main(["--no-cache", "."]) == 1
        out = capsys.readouterr().out
        assert "[new]" in out and "stall" in out

    def test_stale_entry_fails_only_under_ci(self, project, capsys):
        assert analyze_main(["--baseline-update", "--no-cache", "."]) == 0
        (project / "util.py").write_text(
            "# rit: module=repro.blutil\ndef flush():\n    return None\n"
        )
        assert analyze_main(["--no-cache", "."]) == 0
        assert analyze_main(["--ci", "--no-cache", "."]) == 1
        assert "stale" in capsys.readouterr().out

    def test_no_baseline_gates_on_everything(self, project, capsys):
        assert analyze_main(["--no-baseline", "--no-cache", "."]) == 1
        capsys.readouterr()

    def test_missing_path_exits_two(self, project, capsys):
        assert analyze_main(["definitely/not/here"]) == 2
        capsys.readouterr()

    def test_list_rules(self, project, capsys):
        assert analyze_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_rit_cli_analyze_subcommand_matches(self, project, capsys):
        assert rit_main(["analyze", "--no-baseline", "--no-cache", "."]) == 1
        assert "RIT009" in capsys.readouterr().out

    def test_json_format(self, project, capsys):
        assert analyze_main(
            ["--no-baseline", "--no-cache", "--format", "json", "."]
        ) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["by_rule"] == {"RIT009": 1}
        assert doc["files_analyzed"] == 2


class TestSarif:
    def test_sarif_report_structure(self, project, capsys):
        sarif_path = project / "out.sarif"
        analyze_main(
            ["--no-baseline", "--no-cache", "--sarif", str(sarif_path), "."]
        )
        capsys.readouterr()
        doc = json.loads(sarif_path.read_text())
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        assert {r["id"] for r in run["tool"]["driver"]["rules"]} == set(RULES)
        (result,) = run["results"]
        assert result["ruleId"] == "RIT009"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "util.py"
        assert location["region"]["startLine"] == 4
