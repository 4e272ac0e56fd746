"""The analyzer gates its own repository: the live tree must match the
committed baseline exactly.

This is the tripwire the subsystem exists for: a PR that introduces an
unseeded RNG, a raw monetary ``==``, a frozen-instance mutation, export
drift, a wall-clock read in core, a swallowed exception, an untraced
diagnostic, a blocking call on the event loop, RNG taint, unowned shared
state, a cross-module money ``==`` or an uninstrumented hot-path function
fails here with a ``file:line`` pointer — and a PR that *fixes* accepted
debt without refreshing the baseline fails too (the stale check), so the
committed file can only shrink honestly.
"""

from pathlib import Path

import pytest

from repro.devtools.analysis import Baseline, analyze_paths
from repro.devtools.analysis.baseline import BASELINE_FILENAME
from repro.devtools.analysis.cli import DEFAULT_PATHS
from repro.devtools.analysis.cli import main as analyze_main

REPO = Path(__file__).resolve().parent.parent.parent
TREE = [REPO / part for part in DEFAULT_PATHS]


@pytest.fixture(scope="module")
def cache_path(tmp_path_factory):
    return tmp_path_factory.mktemp("analysis") / "cache.json"


@pytest.fixture(scope="module")
def live_result(cache_path):
    """A cold pass over the live tree, filling a fresh cache."""
    return analyze_paths(TREE, root=REPO, cache_path=cache_path)


def test_live_tree_matches_committed_baseline_exactly(live_result):
    result = live_result
    assert result.files_analyzed > 200  # the walk really covered the repo
    assert result.parse_errors == 0
    baseline = Baseline.load(REPO / BASELINE_FILENAME)
    diff = baseline.diff(result.findings, REPO)
    problems = [f"new: {f.format()}" for f in diff.new] + [
        f"stale: {e['rule']} {e['path']} x{e['stale_count']}" for e in diff.stale
    ]
    assert diff.clean, "rit analyze drifted from the baseline:\n" + "\n".join(
        problems
    )


def test_warm_rerun_parses_nothing(live_result, cache_path):
    """The incremental cache: a warm rerun over the unchanged tree parses
    no file, answers every file from the cache and finds the same."""
    assert live_result.files_parsed == live_result.files_analyzed
    warm = analyze_paths(TREE, root=REPO, cache_path=cache_path)
    assert warm.files_parsed == 0
    assert warm.cache_hits == warm.files_analyzed == live_result.files_analyzed
    assert warm.findings == live_result.findings


def test_analyze_cli_exits_zero_on_live_tree(
    live_result, cache_path, monkeypatch, capsys
):
    # Warm from the cold pass: the same findings (see the test above).
    monkeypatch.chdir(REPO)
    argv = ["--ci", "--cache", str(cache_path), *map(str, TREE)]
    assert analyze_main(argv) == 0
    capsys.readouterr()


def test_committed_baseline_is_minimal():
    """Accepted debt must stay at zero: fix findings or justify a noqa
    at the site instead of parking them in the baseline."""
    baseline = Baseline.load(REPO / BASELINE_FILENAME)
    assert baseline.entries == {}


def test_call_graph_is_nontrivial(live_result):
    """Linking really resolves cross-module edges on the live tree, and
    only ``repro.*`` modules are linked."""
    program = live_result.program
    assert all(module.split(".")[0] == "repro" for module in program.modules)
    edges = sum(len(program.edges(q)) for q in program.functions)
    assert edges > 500
    # A known cross-module chain: the service serve loop reaches the
    # shard-worker dispatch in another module.
    reached = program.reachable(["repro.service.service.MechanismService.serve"])
    assert "repro.service.workers.run_epoch" in reached
