"""Gates on the live tree: the file-local RIT rules, ruff and mypy.

The file-local rules (RIT001-RIT007) must report nothing at all: their
debt is fixed, or justified by a noqa at the site, never parked in the
baseline.  The whole-tool gate against the baseline is
``test_analysis_self_gate.py``.

``ruff`` / ``mypy`` gates run only where those tools are installed (they
are optional dev dependencies; the container image may not carry them).
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.analysis import analyze_file
from repro.devtools.analysis.cli import DEFAULT_PATHS
from repro.devtools.discovery import iter_python_files

REPO = Path(__file__).resolve().parent.parent.parent
TREE = [REPO / part for part in DEFAULT_PATHS]


def test_live_tree_is_lint_clean():
    files = list(iter_python_files(TREE))
    assert len(files) > 100  # the walk really covered the repo
    findings = [f for path in files for f in analyze_file(path).findings]
    assert not findings, "file-local findings on the live tree:\n" + "\n".join(
        f.format() for f in findings
    )


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks", "examples"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_core_strict():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "src/repro/core"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
