"""Registry of the file-local rules (RIT001–RIT007).

Every rule module registers exactly one :class:`~repro.devtools.lint.rules
.base.Rule` subclass here.  ``rit analyze`` runs all of them on each file
it parses (:func:`repro.devtools.analysis.summary.analyze_file`); its one
rule table, :data:`repro.devtools.analysis.passes.RULES`, lists them next
to the whole-program rules.
"""

from __future__ import annotations

from typing import Tuple

from repro.devtools.lint.rules.base import Rule
from repro.devtools.lint.rules.rit001_rng import UnseededRandomness
from repro.devtools.lint.rules.rit002_float_eq import RawFloatEquality
from repro.devtools.lint.rules.rit003_frozen import FrozenInstanceMutation
from repro.devtools.lint.rules.rit004_exports import ExportDrift
from repro.devtools.lint.rules.rit005_wallclock import HiddenInputs
from repro.devtools.lint.rules.rit006_exceptions import SwallowedExceptions
from repro.devtools.lint.rules.rit007_diagnostics import RawDiagnostics

__all__ = [
    "Rule",
    "FILE_RULES",
    "UnseededRandomness",
    "RawFloatEquality",
    "FrozenInstanceMutation",
    "ExportDrift",
    "HiddenInputs",
    "SwallowedExceptions",
    "RawDiagnostics",
]

FILE_RULES: Tuple[Rule, ...] = (
    UnseededRandomness(),
    RawFloatEquality(),
    FrozenInstanceMutation(),
    ExportDrift(),
    HiddenInputs(),
    SwallowedExceptions(),
    RawDiagnostics(),
)
