"""Orchestration: discover files, (re)analyze each, link, run the passes.

This is the programmatic entry point the CLI and the self-gate tests
share.  One call to :func:`analyze_paths` is one analysis run:

1. discover ``*.py`` files (:mod:`repro.devtools.discovery`);
2. analyze each file — its module summary and its file-local findings
   (RIT001–RIT007, RIT099, RIT000) — through the content-hash cache, so
   a warm run only re-parses files whose bytes changed;
3. link the ``repro.*`` summaries into a :class:`Program`; tests,
   benchmarks and examples get the file-local rules only;
4. run passes RIT009–RIT013 and collect every finding.

The result carries parse/cache accounting so callers can assert
incrementality (tests) or report it (the CLI summary line).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional

from repro.devtools.analysis.cache import SummaryCache
from repro.devtools.analysis.passes import run_passes
from repro.devtools.analysis.program import Program
from repro.devtools.analysis.summary import ModuleSummary
from repro.devtools.discovery import iter_python_files
from repro.devtools.lint.model import PARSE_ERROR_ID, Finding

__all__ = ["AnalysisResult", "analyze_paths"]


@dataclass
class AnalysisResult:
    """Everything one ``rit analyze`` run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_analyzed: int = 0
    #: Files actually parsed this run (== cache misses).
    files_parsed: int = 0
    cache_hits: int = 0
    parse_errors: int = 0
    program: Optional[Program] = None


def _cache_key(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.resolve().as_posix()


def analyze_paths(
    paths: Iterable[Path],
    *,
    root: Optional[Path] = None,
    cache_path: Optional[Path] = None,
) -> AnalysisResult:
    """Run every rule over ``paths``.

    ``root`` anchors cache keys and baseline fingerprints (default: cwd).
    ``cache_path=None`` disables the incremental cache entirely.
    """
    anchor = (root or Path.cwd()).resolve()
    cache = SummaryCache.load(cache_path)
    summaries: List[ModuleSummary] = []
    findings: List[Finding] = []
    result = AnalysisResult()
    keys: List[str] = []
    for file_path in iter_python_files(paths):
        key = _cache_key(file_path, anchor)
        keys.append(key)
        result.files_analyzed += 1
        analysis, hit = cache.analyze(file_path, key)
        if not hit:
            result.files_parsed += 1
        findings.extend(analysis.findings)
        if analysis.summary is not None:
            summaries.append(analysis.summary)
    cache.prune(keys)
    cache.save()
    result.cache_hits = cache.hits
    result.parse_errors = sum(f.rule_id == PARSE_ERROR_ID for f in findings)
    program = Program(summaries)
    findings.extend(run_passes(program))
    result.findings = sorted(findings, key=lambda f: f.sort_key)
    result.program = program
    return result
