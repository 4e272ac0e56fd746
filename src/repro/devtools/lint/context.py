"""Per-file analysis context: parsed AST, module path, suppressions.

The context is built once per file and shared by every rule.  Two in-source
directives are honoured:

``# rit: noqa[RIT001]``
    Suppress the named rule(s) on this statement (comma-separated ids).  A
    bare ``# rit: noqa`` suppresses every rule.  The suppression covers the
    *full span of the enclosing statement*: a noqa on the first line of a
    multi-line call suppresses findings reported on any of its lines.  For
    compound statements (``def``/``if``/``for``...) only the header is
    covered, never the indented body.  An empty bracket rule list
    suppresses nothing and is itself reported (``RIT099``).

``# rit: module=repro.core.something``
    Override the module path derived from the file location.  Used by lint
    fixtures, which live under ``tests/devtools/fixtures/`` but must be
    analyzed as if they were mechanism modules so path-scoped rules apply.

A third directive, ``# rit: owner=<who>``, is read by the whole-program
analyzer (rule RIT011) rather than here — see
:mod:`repro.devtools.analysis`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["FileContext", "build_context", "module_for_path", "module_in"]

_NOQA_RE = re.compile(r"#\s*rit:\s*noqa(?:\[([A-Za-z0-9_,\s]*)\])?", re.IGNORECASE)
_MODULE_RE = re.compile(r"#\s*rit:\s*module=([\w.]+)")

#: Directory names that mark a source root: the module path of
#: ``src/repro/core/rit.py`` is ``repro.core.rit``.
_SOURCE_ROOTS = ("src",)

#: Files that mark a project root while walking upwards.
_ROOT_MARKERS = ("pyproject.toml", "setup.py", ".git")


@dataclass
class FileContext:
    """Everything a rule needs to know about one source file."""

    path: str
    module: str
    is_init: bool
    source: str
    lines: List[str]
    tree: ast.AST
    #: line number -> suppressed rule ids; ``None`` means all rules.
    suppressions: Dict[int, Optional[Set[str]]] = field(default_factory=dict)
    #: (line, message) pairs for malformed directives (empty noqa list).
    directive_problems: List[Tuple[int, str]] = field(default_factory=list)

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        if line not in self.suppressions:
            return False
        rules = self.suppressions[line]
        return rules is None or rule_id in rules


def module_in(module: str, *prefixes: str) -> bool:
    """Is ``module`` equal to, or inside, any of the dotted ``prefixes``?"""
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


def _project_root(path: Path) -> Optional[Path]:
    for ancestor in path.resolve().parents:
        if any((ancestor / marker).exists() for marker in _ROOT_MARKERS):
            return ancestor
    return None


def module_for_path(path: Path) -> str:
    """Dotted module path of a file, e.g. ``repro.core.rit`` or ``tests.core.x``.

    Resolution: take the path relative to the project root (nearest ancestor
    with a ``pyproject.toml``/``.git``), drop a leading source-root segment
    (``src/``), convert separators to dots and strip ``.py`` /
    ``.__init__``.  Falls back to the bare stem when no root is found.
    """
    resolved = path.resolve()
    root = _project_root(resolved)
    if root is None:
        parts: Tuple[str, ...] = (resolved.stem,)
    else:
        rel = resolved.relative_to(root)
        parts = rel.with_suffix("").parts
        if parts and parts[0] in _SOURCE_ROOTS:
            parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _scan_directives(
    lines: List[str],
) -> Tuple[Dict[int, Optional[Set[str]]], Optional[str], List[Tuple[int, str]]]:
    suppressions: Dict[int, Optional[Set[str]]] = {}
    module_override: Optional[str] = None
    problems: List[Tuple[int, str]] = []
    for lineno, text in enumerate(lines, start=1):
        if "rit:" not in text:
            continue
        noqa = _NOQA_RE.search(text)
        if noqa:
            listed = noqa.group(1)
            if listed is None:
                suppressions[lineno] = None
            else:
                rules = {r.strip().upper() for r in listed.split(",") if r.strip()}
                if rules:
                    existing = suppressions.get(lineno, set())
                    if existing is None:
                        continue
                    suppressions[lineno] = existing | rules
                else:
                    # An empty bracket list suppresses nothing — say so
                    # instead of letting the author believe it worked.
                    problems.append(
                        (
                            lineno,
                            "noqa directive with an empty [] rule list "
                            "suppresses nothing; name rule ids or drop "
                            "the brackets to suppress every rule",
                        )
                    )
        if module_override is None:
            directive = _MODULE_RE.search(text)
            if directive:
                module_override = directive.group(1)
    return suppressions, module_override, problems


def _statement_spans(tree: ast.AST) -> List[Tuple[int, int]]:
    """(start, end) line spans of every statement, headers-only for blocks.

    Simple statements span all their physical lines.  Compound statements
    (function/class defs, ``if``/``for``/``while``/``with``/``try``) span
    only their header — from the keyword line to the line before their
    first body statement — so a noqa on a ``def`` line never silences the
    whole function body.
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        start = node.lineno
        end = getattr(node, "end_lineno", None) or start
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = max(start, body[0].lineno - 1)
        spans.append((start, end))
    return spans


def _expand_suppressions(
    suppressions: Dict[int, Optional[Set[str]]],
    spans: List[Tuple[int, int]],
) -> Dict[int, Optional[Set[str]]]:
    """Widen each per-line suppression over its enclosing statement span.

    A noqa on any physical line of a multi-line statement applies to every
    line of that statement (the innermost span containing the comment), so
    findings reported on continuation lines are still caught.  Expansion
    only ever adds coverage; the original comment line keeps its own entry.
    """
    expanded: Dict[int, Optional[Set[str]]] = dict(suppressions)
    for lineno, rules in suppressions.items():
        containing = [s for s in spans if s[0] <= lineno <= s[1]]
        if not containing:
            continue
        start, end = min(containing, key=lambda s: (s[1] - s[0], s[0]))
        for line in range(start, end + 1):
            if rules is None:
                expanded[line] = None
                continue
            existing = expanded.get(line, set())
            if existing is None:
                continue  # a bare noqa already covers this line
            expanded[line] = existing | rules
    return expanded


def build_context(path: Path, source: Optional[str] = None) -> FileContext:
    """Parse a file into a :class:`FileContext`.

    Raises :class:`SyntaxError` when the source does not parse; the analyzer
    converts that into an ``RIT000`` finding.
    """
    text = path.read_text(encoding="utf-8") if source is None else source
    lines = text.splitlines()
    suppressions, module_override, problems = _scan_directives(lines)
    tree = ast.parse(text, filename=str(path))
    if suppressions:
        suppressions = _expand_suppressions(suppressions, _statement_spans(tree))
    return FileContext(
        path=str(path),
        module=module_override or module_for_path(path),
        is_init=path.name == "__init__.py",
        source=text,
        lines=lines,
        tree=tree,
        suppressions=suppressions,
        directive_problems=problems,
    )
