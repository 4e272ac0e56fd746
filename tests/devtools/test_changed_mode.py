"""``rit analyze --changed``: report only what differs from a git base ref.

Builds a throwaway git repository per test so the selection logic
(committed + working-tree + untracked, intersected with discovery) is
exercised against real ``git diff`` output rather than mocks.  Every file
is still analyzed, so a whole-program finding in an unchanged file is
found but not reported.  Skipped when git is unavailable in the
environment.
"""

import shutil
import subprocess

import pytest

from repro.devtools.analysis.cli import main as analyze_main
from repro.devtools.discovery import GitError, git_changed_files

pytestmark = pytest.mark.skipif(
    shutil.which("git") is None, reason="git not installed"
)

CLEAN = "VALUE = 1\n"
DIRTY = (
    "# rit: module=repro.core.changed_probe\n"
    "import numpy as np\n"
    "a = np.random.default_rng()\n"
)


def run_cli(argv):
    return analyze_main(["--no-cache", "--no-baseline", *argv])


def _git(repo, *argv):
    subprocess.run(
        ["git", *argv],
        cwd=repo,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(repo),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


@pytest.fixture
def repo(tmp_path, monkeypatch):
    _git(tmp_path, "init", "-q", "-b", "main")
    (tmp_path / "base.py").write_text(CLEAN)
    (tmp_path / "other.py").write_text(CLEAN)
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestGitChangedFiles:
    def test_clean_tree_reports_nothing(self, repo):
        assert git_changed_files("main", cwd=repo) == []

    def test_working_tree_edit_is_reported(self, repo):
        (repo / "base.py").write_text(CLEAN + "OTHER = 2\n")
        changed = git_changed_files("main", cwd=repo)
        assert [p.name for p in changed] == ["base.py"]

    def test_untracked_file_is_reported(self, repo):
        (repo / "fresh.py").write_text(CLEAN)
        changed = git_changed_files("main", cwd=repo)
        assert [p.name for p in changed] == ["fresh.py"]

    def test_committed_change_on_branch_is_reported(self, repo):
        _git(repo, "checkout", "-q", "-b", "feature")
        (repo / "other.py").write_text(CLEAN + "MORE = 3\n")
        _git(repo, "add", ".")
        _git(repo, "commit", "-q", "-m", "edit")
        changed = git_changed_files("main", cwd=repo)
        assert [p.name for p in changed] == ["other.py"]

    def test_deleted_file_is_not_reported(self, repo):
        (repo / "other.py").unlink()
        assert git_changed_files("main", cwd=repo) == []

    def test_bad_ref_raises(self, repo):
        with pytest.raises(GitError):
            git_changed_files("no-such-ref", cwd=repo)


class TestLintChanged:
    def test_no_changes_exits_zero(self, repo, capsys):
        assert run_cli(["--changed", str(repo)]) == 0
        assert "0 file(s) changed" in capsys.readouterr().out

    def test_changed_clean_file_exits_zero(self, repo, capsys):
        (repo / "base.py").write_text(CLEAN + "OTHER = 2\n")
        assert run_cli(["--changed", str(repo)]) == 0
        assert "1 file(s) changed" in capsys.readouterr().out

    def test_changed_dirty_file_exits_one(self, repo, capsys):
        (repo / "base.py").write_text(DIRTY)
        assert run_cli(["--changed", str(repo)]) == 1
        out = capsys.readouterr().out
        assert "RIT001" in out

    def test_unchanged_dirty_file_is_not_linted(self, repo, capsys):
        # other.py is dirty but committed on the base ref: --changed must
        # skip it, a plain run must flag it.
        (repo / "other.py").write_text(DIRTY)
        _git(repo, "add", ".")
        _git(repo, "commit", "-q", "-m", "dirty on main")
        assert run_cli(["--changed", str(repo)]) == 0
        assert run_cli([str(repo)]) == 1
        capsys.readouterr()

    def test_base_ref_is_configurable(self, repo, capsys):
        _git(repo, "checkout", "-q", "-b", "feature")
        (repo / "base.py").write_text(DIRTY)
        _git(repo, "add", ".")
        _git(repo, "commit", "-q", "-m", "dirty on feature")
        assert run_cli(["--changed", "--base-ref", "feature", str(repo)]) == 0
        assert run_cli(["--changed", "--base-ref", "main", str(repo)]) == 1
        capsys.readouterr()

    def test_bad_base_ref_exits_two(self, repo, capsys):
        assert run_cli(["--changed", "--base-ref", "nope", str(repo)]) == 2
        assert "--changed failed" in capsys.readouterr().err

    def test_whole_program_finding_in_unchanged_file_is_hidden(self, repo, capsys):
        (repo / "svc.py").write_text(
            "# rit: module=repro.service.chsvc\n"
            "from repro.chutil import flush\n"
            "async def serve():\n"
            "    flush()\n"
        )
        (repo / "util.py").write_text(
            "# rit: module=repro.chutil\n"
            "import time\n"
            "def flush():\n"
            "    time.sleep(0.01)\n"
        )
        _git(repo, "add", ".")
        _git(repo, "commit", "-q", "-m", "blocking helper on main")
        (repo / "svc.py").write_text(
            (repo / "svc.py").read_text()
            + "import numpy as np\nRNG = np.random.default_rng()\n"
        )
        assert run_cli(["--changed", str(repo)]) == 1
        out = capsys.readouterr().out
        assert "svc.py:6:" in out and "RIT001" in out
        assert "RIT009" not in out
        assert run_cli([str(repo)]) == 1
        assert "RIT009" in capsys.readouterr().out
