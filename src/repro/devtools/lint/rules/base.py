"""Rule protocol shared by every file-local rule module.

A rule is a small object with identity metadata (id, name, rationale), a
path scope, and a :meth:`Rule.check` method that yields findings for one
parsed file.  Scoping is expressed as dotted module prefixes so that rules
about *mechanism* code (``repro.core``) don't fire on tests or tooling.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence, Tuple

from repro.devtools.lint.context import FileContext, module_in
from repro.devtools.lint.model import Finding, Severity

__all__ = ["Rule"]


class Rule:
    """Base class for lint rules.

    Class attributes
    ----------------
    id / name / rationale:
        Identity and the one-line "why" shown by ``rit analyze --list-rules``.
    scopes:
        Dotted module prefixes the rule applies to.  Empty means every file.
    exempt:
        Dotted module prefixes carved out of ``scopes`` (e.g. the linter
        itself, or the RNG utility module that legitimately constructs
        generators).
    """

    id: str = ""
    name: str = ""
    rationale: str = ""
    severity: Severity = Severity.ERROR
    scopes: Tuple[str, ...] = ()
    exempt: Tuple[str, ...] = ()

    def applies(self, ctx: FileContext) -> bool:
        if self.exempt and module_in(ctx.module, *self.exempt):
            return False
        if not self.scopes:
            return True
        return module_in(ctx.module, *self.scopes)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Helpers for subclasses
    # ------------------------------------------------------------------ #

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule_id=self.id,
            message=message,
            severity=self.severity,
        )

    @staticmethod
    def words(identifier: str) -> Sequence[str]:
        """Split an identifier into lowercase words (snake and camel case)."""
        out = []
        for chunk in identifier.split("_"):
            word = ""
            for ch in chunk:
                if ch.isupper() and word and not word[-1].isupper():
                    out.append(word.lower())
                    word = ch
                else:
                    word += ch
            if word:
                out.append(word.lower())
        return out
