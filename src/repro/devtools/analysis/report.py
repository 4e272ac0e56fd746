"""Reporters for ``rit analyze``: text, JSON, and SARIF 2.1.0.

Text goes to humans on a terminal, JSON to scripts, SARIF to code review
UIs (GitHub code scanning renders it inline on the diff).  All three
render the same :class:`~repro.devtools.lint.model.Finding` list; the
baseline diff only affects which findings the *text* reporter labels as
new versus known debt.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.devtools.analysis.baseline import BaselineDiff, fingerprint
from repro.devtools.analysis.passes import RULES
from repro.devtools.lint.model import Finding, Severity

__all__ = ["render_text", "render_json", "render_sarif", "findings_by_rule"]

_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
_TOOL_NAME = "rit-analyze"


def findings_by_rule(findings: Sequence[Finding]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    return dict(sorted(counts.items()))


def render_text(
    findings: Sequence[Finding],
    *,
    files_analyzed: int,
    files_parsed: int,
    cache_hits: int,
    diff: Optional[BaselineDiff] = None,
    statistics: bool = False,
) -> str:
    """Human-oriented report; with a diff, only new/stale items are listed."""
    lines: List[str] = []
    if diff is None:
        lines.extend(f.format() for f in findings)
        shown = len(findings)
    else:
        for finding in diff.new:
            lines.append(f"{finding.format()}  [new]")
        for entry in diff.stale:
            lines.append(
                f"{entry['path']}: {entry['rule']} baseline entry is stale "
                f"(finding no longer occurs x{entry['stale_count']}); "
                "refresh with --baseline-update"
            )
        shown = len(diff.new) + len(diff.stale)
    if statistics and findings:
        lines.append("")
        for rule_id, count in findings_by_rule(findings).items():
            lines.append(f"{count:>5}  {rule_id}")
    summary = (
        f"analyzed {files_analyzed} file(s) "
        f"({files_parsed} parsed, {cache_hits} from cache): "
        f"{len(findings)} finding(s)"
    )
    if diff is not None:
        summary += (
            f", {len(diff.new)} new, {diff.known} known"
            + (f", {len(diff.stale)} stale baseline entr(y/ies)" if diff.stale else "")
        )
    if shown and lines:
        lines.append("")
    lines.append(summary)
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding],
    *,
    files_analyzed: int,
    files_parsed: int,
    cache_hits: int,
    root: Path,
    diff: Optional[BaselineDiff] = None,
) -> str:
    doc: Dict[str, object] = {
        "files_analyzed": files_analyzed,
        "files_parsed": files_parsed,
        "cache_hits": cache_hits,
        "findings": [
            {**f.to_dict(), "fingerprint": fingerprint(f, root)} for f in findings
        ],
        "by_rule": findings_by_rule(findings),
    }
    if diff is not None:
        doc["baseline"] = {
            "new": [f.to_dict() for f in diff.new],
            "known": diff.known,
            "stale": diff.stale,
        }
    return json.dumps(doc, indent=2)


def _sarif_uri(path: str, root: Path) -> str:
    try:
        return Path(path).resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return Path(path).as_posix()


def render_sarif(findings: Sequence[Finding], *, root: Path) -> str:
    """Minimal SARIF 2.1.0 document covering every finding of the run."""
    rules = [
        {
            "id": rule_id,
            "name": name,
            "shortDescription": {"text": name},
            "fullDescription": {"text": rationale},
        }
        for rule_id, (name, rationale) in sorted(RULES.items())
    ]
    results = [
        {
            "ruleId": finding.rule_id,
            "level": "error" if finding.severity is Severity.ERROR else "warning",
            "message": {"text": finding.message},
            "partialFingerprints": {
                "ritAnalyze/v1": fingerprint(finding, root),
            },
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": _sarif_uri(finding.path, root)},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.column,
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    doc = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "informationUri": "https://example.invalid/rit-analyze",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2)
