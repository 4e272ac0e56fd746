"""Incremental cache behaviour: warm runs re-parse only changed files.

This is the analyzer's core performance contract: ``files_parsed`` counts
real parses, so a warm rerun over an unchanged tree must report zero, and
touching one file must re-parse exactly that file while findings — the
file-local ones served from the cache included — stay correct.  A cache
written by other analyzer or rule code is discarded.
"""

import json
import shutil
from pathlib import Path

from repro.devtools.analysis import analyze_paths
from repro.devtools.analysis import cache as cache_module
from repro.devtools.analysis.cache import SummaryCache


def _write_project(root: Path) -> None:
    (root / "svc.py").write_text(
        "# rit: module=repro.service.cachesvc\n"
        "from repro.cacheutil import flush\n"
        "async def serve():\n"
        "    flush()\n"
    )
    (root / "util.py").write_text(
        "# rit: module=repro.cacheutil\n"
        "import time\n"
        "def flush():\n"
        "    time.sleep(0.01)\n"
    )


def test_warm_run_parses_nothing(tmp_path):
    _write_project(tmp_path)
    cache = tmp_path / "cache.json"
    cold = analyze_paths([tmp_path], root=tmp_path, cache_path=cache)
    assert cold.files_parsed == 2 and cold.cache_hits == 0
    warm = analyze_paths([tmp_path], root=tmp_path, cache_path=cache)
    assert warm.files_parsed == 0 and warm.cache_hits == 2
    # The interprocedural result is identical either way.
    assert [f.rule_id for f in warm.findings] == ["RIT009"]
    assert [f.rule_id for f in cold.findings] == ["RIT009"]


def test_editing_one_file_reparses_only_that_file(tmp_path):
    _write_project(tmp_path)
    cache = tmp_path / "cache.json"
    analyze_paths([tmp_path], root=tmp_path, cache_path=cache)
    # Fix the blocking call; only util.py changed.
    (tmp_path / "util.py").write_text(
        "# rit: module=repro.cacheutil\n"
        "def flush():\n"
        "    return None\n"
    )
    rerun = analyze_paths([tmp_path], root=tmp_path, cache_path=cache)
    assert rerun.files_parsed == 1 and rerun.cache_hits == 1
    assert rerun.findings == []


def test_deleted_files_are_pruned_from_the_cache(tmp_path):
    _write_project(tmp_path)
    cache = tmp_path / "cache.json"
    analyze_paths([tmp_path], root=tmp_path, cache_path=cache)
    (tmp_path / "util.py").unlink()
    analyze_paths([tmp_path], root=tmp_path, cache_path=cache)
    entries = SummaryCache.load(cache).entries
    assert set(entries) == {"svc.py"}


def test_schema_mismatch_discards_cache(tmp_path):
    """A cache written under another tool digest re-parses every file."""
    _write_project(tmp_path)
    cache = tmp_path / "cache.json"
    analyze_paths([tmp_path], root=tmp_path, cache_path=cache)
    doc = json.loads(cache.read_text())
    assert doc["schema"] == cache_module.tool_digest()
    doc["schema"] = "0" * 64
    cache.write_text(json.dumps(doc))
    rerun = analyze_paths([tmp_path], root=tmp_path, cache_path=cache)
    assert rerun.files_parsed == 2 and rerun.cache_hits == 0


def test_rule_module_edit_discards_cache(tmp_path, monkeypatch):
    """Changing one byte of a rule module's source re-parses every file."""
    tools = tmp_path / "tools"
    for package in cache_module.TOOL_SOURCES:
        shutil.copytree(
            package, tools / package.name, ignore=shutil.ignore_patterns("__pycache__")
        )
    monkeypatch.setattr(
        cache_module, "TOOL_SOURCES", (tools / "analysis", tools / "lint")
    )
    project = tmp_path / "project"
    project.mkdir()
    _write_project(project)
    cache = tmp_path / "cache.json"
    analyze_paths([project], root=project, cache_path=cache)
    warm = analyze_paths([project], root=project, cache_path=cache)
    assert warm.files_parsed == 0
    rule = tools / "lint" / "rules" / "rit001_rng.py"
    rule.write_bytes(rule.read_bytes() + b"\n")
    rerun = analyze_paths([project], root=project, cache_path=cache)
    assert rerun.files_parsed == 2 and rerun.cache_hits == 0


def test_file_local_findings_are_served_from_the_cache(tmp_path):
    _write_project(tmp_path)
    (tmp_path / "noisy.py").write_text(
        "# rit: module=repro.core.cachenoise\n"
        "import numpy as np\n"
        "RNG = np.random.default_rng()\n"
    )
    cache = tmp_path / "cache.json"
    cold = analyze_paths([tmp_path], root=tmp_path, cache_path=cache)
    warm = analyze_paths([tmp_path], root=tmp_path, cache_path=cache)
    assert warm.files_parsed == 0
    assert [(f.rule_id, f.line) for f in warm.findings] == [
        ("RIT001", 3),
        ("RIT009", 4),
    ]
    assert warm.findings == cold.findings


def test_corrupt_cache_is_ignored(tmp_path):
    _write_project(tmp_path)
    cache = tmp_path / "cache.json"
    cache.write_text("{ not json")
    result = analyze_paths([tmp_path], root=tmp_path, cache_path=cache)
    assert result.files_parsed == 2
    assert [f.rule_id for f in result.findings] == ["RIT009"]
