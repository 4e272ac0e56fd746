"""Command-line front-end for the RIT static analyzer.

Invoked as ``rit analyze ...`` (subcommand of :mod:`repro.cli`) or
directly as ``python -m repro.devtools.analysis``.

Workflow
--------
A plain run analyzes the tree, diffs the findings against the committed
baseline (``analysis_baseline.json``) and fails only on *new* findings.
``--ci`` additionally fails on stale baseline entries, so the committed
file can never drift above the actual debt.  ``--baseline-update``
rewrites the baseline from the whole run's findings and always exits 0.
``--select``/``--ignore`` and ``--changed`` narrow what is reported and
gated; every file is still analyzed (warm files come from the cache), so
whole-program rules see the whole program.

Exit codes: ``0`` clean vs baseline, ``1`` new findings (or, with
``--ci``, stale entries), ``2`` usage/environment error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Set

from repro.devtools.analysis.baseline import BASELINE_FILENAME, Baseline
from repro.devtools.analysis.cache import CACHE_FILENAME
from repro.devtools.analysis.passes import RULES
from repro.devtools.analysis.report import render_json, render_sarif, render_text
from repro.devtools.analysis.runner import analyze_paths
from repro.devtools.discovery import GitError, git_changed_files, iter_python_files
from repro.devtools.lint.model import DIRECTIVE_ID, PARSE_ERROR_ID

__all__ = ["add_arguments", "build_parser", "run", "main"]

DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach analyzer options to a parser (shared with the ``rit`` CLI)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to analyze (default: src tests "
        "benchmarks examples, where present)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to report (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids not to report",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="report only findings in files that differ from the git base "
        "ref (committed, staged, working-tree, or untracked changes)",
    )
    parser.add_argument(
        "--base-ref",
        default="main",
        metavar="REF",
        help="git ref --changed diffs against (default: main)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=f"baseline file (default: {BASELINE_FILENAME} in the cwd)",
    )
    parser.add_argument(
        "--baseline-update",
        action="store_true",
        help="rewrite the baseline from every finding of the run (whatever "
        "--select/--changed report) and exit 0",
    )
    parser.add_argument(
        "--ci",
        action="store_true",
        help="strict mode: also fail on stale baseline entries",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report and gate on every finding",
    )
    parser.add_argument(
        "--sarif",
        default=None,
        metavar="PATH",
        help="additionally write a SARIF 2.1.0 report here",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="findings output format",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append per-rule finding counts",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental per-file cache",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help=f"per-file cache file (default: {CACHE_FILENAME} in the cwd)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every rule and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rit analyze",
        description="static analysis enforcing RIT's correctness invariants: "
        "file-local rules RIT001-RIT007 and whole-program passes "
        "RIT009-RIT013 (import graph -> call graph -> interprocedural "
        "dataflow)",
    )
    add_arguments(parser)
    return parser


def _resolve_paths(args: argparse.Namespace) -> List[str]:
    if args.paths:
        return list(args.paths)
    return [p for p in DEFAULT_PATHS if Path(p).is_dir()]


def _rule_ids(raw: Optional[str]) -> Set[str]:
    """Rule ids of a comma-separated option; KeyError names an unknown one."""
    ids = {part.strip().upper() for part in (raw or "").split(",") if part.strip()}
    unknown = sorted(ids - set(RULES))
    if unknown:
        raise KeyError(unknown[0])
    return ids


def run(args: argparse.Namespace) -> int:
    """Execute an analysis run described by parsed arguments."""
    if args.list_rules:
        for rule_id, (name, rationale) in sorted(RULES.items()):
            print(f"{rule_id}  {name}")
            print(f"        {rationale}")
        return 0

    try:
        reported = (_rule_ids(args.select) or set(RULES)) - _rule_ids(args.ignore)
    except KeyError as exc:
        print(f"rit analyze: unknown rule id {exc.args[0]!r}", file=sys.stderr)
        return 2
    reported |= {PARSE_ERROR_ID, DIRECTIVE_ID}

    paths = _resolve_paths(args)
    if not paths:
        print(
            "rit analyze: no paths given and no default directories found",
            file=sys.stderr,
        )
        return 2
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"rit analyze: no such path: {missing[0]}", file=sys.stderr)
        return 2

    root = Path.cwd()
    changed: Optional[Set[Path]] = None
    if args.changed:
        try:
            changed = set(git_changed_files(args.base_ref))
        except GitError as exc:
            print(f"rit analyze: --changed failed: {exc}", file=sys.stderr)
            return 2
        changed &= {p.resolve() for p in iter_python_files(Path(p) for p in paths)}
    cache_path = None if args.no_cache else Path(args.cache or CACHE_FILENAME)
    result = analyze_paths((Path(p) for p in paths), root=root, cache_path=cache_path)

    def in_scope(path: str, rule_id: str) -> bool:
        return rule_id in reported and (
            changed is None or (root / path).resolve() in changed
        )

    findings = [f for f in result.findings if in_scope(f.path, f.rule_id)]
    if args.sarif:
        Path(args.sarif).write_text(
            render_sarif(findings, root=root) + "\n", encoding="utf-8"
        )

    baseline_path = Path(args.baseline or BASELINE_FILENAME)
    if args.baseline_update:
        Baseline.from_findings(result.findings, root).write(baseline_path)
        print(
            f"baseline updated -> {baseline_path} "
            f"({len(result.findings)} finding(s) accepted)"
        )
        return 0

    diff = None
    if not args.no_baseline:
        try:
            diff = Baseline.load(baseline_path).diff(findings, root)
        except ValueError as exc:
            print(f"rit analyze: {exc}", file=sys.stderr)
            return 2
        diff.stale = [e for e in diff.stale if in_scope(str(e["path"]), str(e["rule"]))]

    if args.output_format == "json":
        print(
            render_json(
                findings,
                files_analyzed=result.files_analyzed,
                files_parsed=result.files_parsed,
                cache_hits=result.cache_hits,
                root=root,
                diff=diff,
            )
        )
    else:
        print(
            render_text(
                findings,
                files_analyzed=result.files_analyzed,
                files_parsed=result.files_parsed,
                cache_hits=result.cache_hits,
                diff=diff,
                statistics=args.statistics,
            )
        )
        if changed is not None:
            print(f"reported for {len(changed)} file(s) changed vs {args.base_ref!r}")

    if diff is None:
        return 1 if findings else 0
    if diff.new:
        return 1
    if args.ci and diff.stale:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
