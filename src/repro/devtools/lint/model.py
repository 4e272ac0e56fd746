"""Findings model shared by every RIT static-analysis rule.

A :class:`Finding` is one rule violation at one source location.  Keeping
the model free of any rule or analyzer imports lets rule modules depend
on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Mapping, Tuple

__all__ = ["Severity", "Finding", "PARSE_ERROR_ID", "DIRECTIVE_ID"]

#: Pseudo-rule id attached to findings for files the analyzer cannot parse.
PARSE_ERROR_ID = "RIT000"

#: Pseudo-rule id attached to malformed in-source directives (e.g. a
#: noqa with an empty bracket rule list, which suppresses nothing).
DIRECTIVE_ID = "RIT099"


class Severity(Enum):
    """How bad a finding is.

    ``ERROR`` findings are correctness hazards; ``WARNING`` findings
    (RIT013's missing telemetry, RIT099's malformed directives) are not.
    Both fail the gate; the severity is carried into the JSON and SARIF
    reports.
    """

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    column: int
    rule_id: str
    message: str
    severity: Severity = Severity.ERROR

    def format(self) -> str:
        """Render as ``path:line:col: RULE message`` (clickable in editors)."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.rule_id} {self.message}"
        )

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.rule_id)

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule_id,
            "message": self.message,
            "severity": self.severity.value,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "Finding":
        return cls(
            path=doc["path"],
            line=doc["line"],
            column=doc["column"],
            rule_id=doc["rule"],
            message=doc["message"],
            severity=Severity(doc["severity"]),
        )
