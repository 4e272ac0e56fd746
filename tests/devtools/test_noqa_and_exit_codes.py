"""Suppression semantics and CLI exit codes.

* ``# rit: noqa[RIT00X]`` silences exactly that rule on exactly that line;
* a clean tree exits 0, findings exit 1, usage errors exit 2;
* ``--select``/``--ignore`` narrow the report across file-local and
  whole-program rules alike.
"""

import json
from pathlib import Path

import pytest

from repro.devtools.analysis import analyze_file
from repro.devtools.analysis.cli import main as analyze_main

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(argv):
    """The analyzer CLI, reporting every finding and writing no cache."""
    return analyze_main(["--no-cache", "--no-baseline", *argv])


def file_findings(source: str):
    return analyze_file(Path("<string>"), source=source).findings


#: Mechanism-scoped snippet with two *different* violations on one line:
#: an unseeded default_rng (RIT001) feeding a monetary comparison (RIT002).
TWO_RULES_ONE_LINE = (
    "# rit: module=repro.core.noqa_probe\n"
    "import numpy as np\n"
    "def f(payment):\n"
    "    return payment == np.random.default_rng().random(){noqa}\n"
)


def _rules(source: str):
    return sorted(f.rule_id for f in file_findings(source))


class TestNoqa:
    def test_unsuppressed_line_reports_both_rules(self):
        assert _rules(TWO_RULES_ONE_LINE.format(noqa="")) == ["RIT001", "RIT002"]

    def test_noqa_silences_exactly_one_rule(self):
        silenced = TWO_RULES_ONE_LINE.format(noqa="  # rit: noqa[RIT001]")
        assert _rules(silenced) == ["RIT002"]

    def test_noqa_for_other_rule_changes_nothing(self):
        wrong = TWO_RULES_ONE_LINE.format(noqa="  # rit: noqa[RIT005]")
        assert _rules(wrong) == ["RIT001", "RIT002"]

    def test_noqa_list_silences_each_named_rule(self):
        both = TWO_RULES_ONE_LINE.format(noqa="  # rit: noqa[RIT001, RIT002]")
        assert _rules(both) == []

    def test_bare_noqa_silences_every_rule_on_the_line(self):
        bare = TWO_RULES_ONE_LINE.format(noqa="  # rit: noqa")
        assert _rules(bare) == []

    def test_noqa_only_affects_its_own_line(self, tmp_path):
        target = tmp_path / "two_lines.py"
        target.write_text(
            "# rit: module=repro.core.noqa_lines\n"
            "import numpy as np\n"
            "a = np.random.default_rng()  # rit: noqa[RIT001]\n"
            "b = np.random.default_rng()\n"
        )
        findings = analyze_file(target).findings
        assert [(f.line, f.rule_id) for f in findings] == [(4, "RIT001")]


class TestNoqaStatementSpan:
    """A noqa anywhere on a multi-line statement covers the whole span."""

    MULTILINE = (
        "# rit: module=repro.core.noqa_span\n"
        "import numpy as np\n"
        "values = np.cumsum({noqa_first}\n"
        "    np.random.default_rng().random(8){noqa_mid}\n"
        ")\n"
    )

    def test_finding_on_continuation_line_is_reported_without_noqa(self):
        source = self.MULTILINE.format(noqa_first="", noqa_mid="")
        assert [f.line for f in file_findings(source)] == [4]

    def test_noqa_on_first_line_covers_the_continuation(self):
        source = self.MULTILINE.format(
            noqa_first="  # rit: noqa[RIT001]", noqa_mid=""
        )
        assert _rules(source) == []

    def test_noqa_on_inner_line_also_covers_the_statement(self):
        source = self.MULTILINE.format(
            noqa_first="", noqa_mid="  # rit: noqa[RIT001]"
        )
        assert _rules(source) == []

    def test_def_header_noqa_does_not_silence_the_body(self):
        source = (
            "# rit: module=repro.core.noqa_hdr\n"
            "import numpy as np\n"
            "def f():  # rit: noqa[RIT001]\n"
            "    return np.random.default_rng()\n"
        )
        assert _rules(source) == ["RIT001"]


class TestEmptyNoqaWarns:
    # The directive is assembled from two fragments so this test file's
    # own raw lines never contain an empty-bracket noqa themselves.
    EMPTY = (
        "# rit: module=repro.core.noqa_empty\n"
        "import numpy as np\n"
        "a = np.random.default_rng()  # rit: " + "noqa[]\n"
    )

    def test_empty_rule_list_suppresses_nothing_and_warns(self):
        findings = file_findings(self.EMPTY)
        assert sorted(f.rule_id for f in findings) == ["RIT001", "RIT099"]
        rit099 = next(f for f in findings if f.rule_id == "RIT099")
        assert rit099.line == 3
        assert "suppresses nothing" in rit099.message


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert run_cli([str(clean)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        code = run_cli([str(FIXTURES / "rit001_bad.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "RIT001" in out

    def test_unknown_rule_id_exits_two(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert run_cli([str(clean), "--select", "RIT999"]) == 2
        assert "unknown rule" in capsys.readouterr().err
        assert run_cli([str(clean), "--ignore", "RIT008"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert run_cli(["definitely/not/here"]) == 2
        capsys.readouterr()

    def test_select_restricts_rules(self, capsys):
        path = str(FIXTURES / "rit002_bad.py")
        assert run_cli([path, "--select", "RIT001"]) == 0
        assert run_cli([path, "--select", "RIT002"]) == 1
        capsys.readouterr()

    def test_ignore_excludes_rules(self, capsys):
        path = str(FIXTURES / "rit006_bad.py")
        assert run_cli([path, "--ignore", "RIT006"]) == 0
        capsys.readouterr()

    def test_list_rules_exits_zero(self, capsys):
        assert run_cli(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for number in (1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13):
            assert f"RIT{number:03d}" in out
        assert "RIT008" not in out


class TestSelectAcrossRuleKinds:
    """One project with a file-local and a whole-program finding."""

    @pytest.fixture
    def project(self, tmp_path):
        (tmp_path / "svc.py").write_text(
            "# rit: module=repro.service.selsvc\n"
            "import numpy as np\n"
            "from repro.selutil import flush\n"
            "RNG = np.random.default_rng()\n"
            "async def serve():\n"
            "    flush()\n"
        )
        (tmp_path / "util.py").write_text(
            "# rit: module=repro.selutil\n"
            "import time\n"
            "def flush():\n"
            "    time.sleep(0.01)\n"
        )
        return tmp_path

    def _reported(self, capsys, argv):
        code = run_cli(["--format", "json", *argv])
        rules = [f["rule"] for f in json.loads(capsys.readouterr().out)["findings"]]
        return code, rules

    def test_unfiltered_run_reports_both_kinds(self, project, capsys):
        assert self._reported(capsys, [str(project)]) == (1, ["RIT001", "RIT009"])

    def test_select_file_local_rule(self, project, capsys):
        argv = [str(project), "--select", "RIT001"]
        assert self._reported(capsys, argv) == (1, ["RIT001"])

    def test_select_whole_program_rule(self, project, capsys):
        argv = [str(project), "--select", "rit009"]
        assert self._reported(capsys, argv) == (1, ["RIT009"])

    def test_ignore_both_kinds_is_clean(self, project, capsys):
        argv = [str(project), "--ignore", "RIT001,RIT009"]
        assert self._reported(capsys, argv) == (0, [])
